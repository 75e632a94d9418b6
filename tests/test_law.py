"""The coupled chains' laws on the coupling-matrix route, checked against
exact transition matrices rather than against another run of the engine.

Each envelope chain has constant rates, so its skeleton at the observation
epochs is a Markov chain with P = exp(tau Q), computed here by
scipy.linalg.expm; ``skeleton_law`` (Anderson and Goodman 1957) tests its
transition counts against P.  The switching chain reads x, so its skeleton
is not Markov on its own: the coupled run's lambda is compared with a
marginal run's by ``rows_contingency``, a two-sample test per row, which is
the marginality of the order-preserving coupling.  Within a path the epochs'
transitions share x, which widens that test's spread a little beyond the
multinomial one.

Sizes and seeds are fixed: 2,048 paths, horizon 50, h = 0.01, seed 1 for
the coupled runs and seed 2 for the marginal runs, so the two samples are
independent.  There are 10 asserted tests, each at the p-value floor 1e-4:
lambda_star and lambda_bar on two_state_trig, on three_state_rational with
envelopes derived from its grid and on the six-state birth-death scenario,
lambda_star on three_state_rational's declared envelopes, and coupled
against marginal lambda on the three state-dependent scenarios.  The
declared upper envelope of three_state_rational does not dominate the rates
(``validate`` reports the deficit), so its upper chain is sub-marginal: its
statistic is printed, not asserted.
"""

import functools
import json

import numpy as np
import pytest
from scipy.linalg import expm

from switchsde import engine as en
from switchsde import scenario as sn
from tests.conftest import FIXTURES, rows_contingency, skeleton_law
from tests.test_golden import six_state_birth_death

FLOOR = 1e-4
SIZE = dict(n_paths=2048, horizon=50.0, h=0.01)
SEEDS = {True: 1, False: 2}  # coupled, marginal


def _doc(name):
    if name == "six_state":
        return six_state_birth_death()
    doc = json.loads((FIXTURES / f"{name.removesuffix('_derived')}.json").read_text())
    if name.endswith("_derived"):
        del doc["envelopes"]
    return doc


@functools.cache
def _run(name, coupled):
    """The scenario, its envelopes and the skeleton counts of one run."""
    sc = sn.load_scenario(_doc(name))
    route, env, _ = en.choose_route(sc)
    assert route == "matrix"
    summ = en.monte_carlo(sc, en.SimParams.from_scenario(sc, seed=SEEDS[coupled], **SIZE), coupled=coupled)
    return sc, env, summ.skeleton_counts


@pytest.mark.parametrize("name, chain", [
    ("two_state_trig", "lambda_star"), ("two_state_trig", "lambda_bar"),
    ("three_state_rational_derived", "lambda_star"), ("three_state_rational_derived", "lambda_bar"),
    ("three_state_rational", "lambda_star"),
    ("six_state", "lambda_star"), ("six_state", "lambda_bar"),
])
def test_envelope_chain_skeleton_law(name, chain):
    sc, env, counts = _run(name, True)

    def law(c):
        Q = env.qstar if c == "lambda_star" else env.qbar
        stat, dof, p = skeleton_law(counts[c], expm(sc.tau * np.asarray(Q)))
        print(f"{name} {c}: chi2 = {stat:.4g} on {dof} dof, p = {p:.3g}")
        return p

    assert law(chain) >= FLOOR
    if name == "three_state_rational":  # the declared upper chain's deficit
        law("lambda_bar")


@pytest.mark.parametrize("name", ["two_state_trig", "three_state_rational_derived", "six_state"])
def test_coupled_lambda_matches_marginal(name):
    coupled, marginal = _run(name, True)[2]["lambda"], _run(name, False)[2]["lambda"]
    stat, dof, p = rows_contingency(coupled, marginal)
    print(f"{name} lambda, coupled against marginal: chi2 = {stat:.4g} on {dof} dof, p = {p:.3g}")
    assert p >= FLOOR, (name, stat, dof, p)
