import hashlib
import json
import os
import subprocess
import sys
import threading
from contextlib import nullcontext
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from switchsde import cli
from switchsde import engine as en
from switchsde import markov as mk
from switchsde import scenario as sn
from tests.conftest import (
    FIXTURES,
    PerCallBooking,
    candidate_rounds_reference,
    cell_lists,
    make_scenario,
    one_round_table,
    per_step_rounds,
    state_dependent_twin,
    write_scenario,
)
from tests.test_golden import BLOCK_BOUNDARY_GOLDEN, BLOCK_BOUNDARY_SIZES, six_state_birth_death


def load(doc):
    return sn.load_scenario(doc)


def no_switching(**kw):
    base = dict(rates=[["0", "0"], ["0", "0"]], rate_bound=1.0)
    base.update(kw)
    return make_scenario(**base)


class TestDeterministic:
    def test_linear_ode_tracking(self):
        # a = -x, sigma = 0, no control, no switching: X follows e^{-t}
        sc = load(no_switching(step=0.001, horizon=5.0))
        p = en.SimParams.from_scenario(sc, chunk_size=4)
        path = en.simulate_hybrid(sc, p, 0)
        assert np.abs(path.X[:, 0] - np.exp(-path.times)).max() < 0.01

    def test_two_dimensional_state(self):
        doc = make_scenario(
            dimensions={"d": 2, "M": 2},
            drift=[["-1*x1", "-2*x2"], ["-1*x1", "-2*x2"]],
            diffusion=[
                [["0.1*x1", "0"], ["0", "0.1*x2"]],
                [["0.1*x1", "0"], ["0", "0.1*x2"]],
            ],
            rates=[["0", "1"], ["1", "0"]],
            rate_bound=1.0,
            coefficient_bounds={"C": [-1.99, -1.99], "c": [-3.99, -3.99], "Ma": 2.0},
            initial={"x": [1.0, -2.0], "state": 1},
            step=0.002,
            horizon=3.0,
            paths=500,
            seed=17,
        )
        sc = load(doc)
        assert sn.validate_scenario(sc).ok
        p = en.SimParams.from_scenario(sc)
        summ = en.monte_carlo(sc, p)
        # componentwise geometric moments: e^{(2a+s^2)t} per axis
        want = 1.0 * np.exp((-2 + 0.01) * 3.0) + 4.0 * np.exp((-4 + 0.01) * 3.0)
        assert abs(summ.mean_x2[-1] - want) < 4 * summ.se_x2[-1] + 0.02 * want

    def test_first_order_in_h(self):
        errs = []
        for h in (1e-2, 5e-3, 2.5e-3):
            sc = load(no_switching(step=h, horizon=5.0))
            p = en.SimParams.from_scenario(sc, chunk_size=4)
            path = en.simulate_hybrid(sc, p, 0)
            errs.append(abs(path.X[-1, 0] - np.exp(-5.0)))
        r1 = errs[0] / errs[1]
        r2 = errs[1] / errs[2]
        assert 1.0 < r1 < 4.0 and 1.0 < r2 < 4.0  # halving h halves the error


class TestFrozenObservation:
    def test_feedback_uses_frozen_state(self):
        # pure feedback: dX = -X(delta(t)) dt; slope constant within windows
        sc = load(
            no_switching(
                gains=[1.0, 1.0], drift=[["0"], ["0"]], tau=0.5, step=0.01, horizon=2.0,
                coefficient_bounds={"C": [0.0, 0.0], "c": [0.0, 0.0], "Ma": 0.0},
            )
        )
        p = en.SimParams.from_scenario(sc, chunk_size=4)
        path = en.simulate_hybrid(sc, p, 0)
        X = path.X[:, 0]
        obs_every = 50
        for w in range(4):
            x_obs = X[w * obs_every]
            inc = np.diff(X[w * obs_every : (w + 1) * obs_every + 1])
            assert np.abs(inc + x_obs * 0.01).max() < 1e-15

    def test_feedback_uses_frozen_regime(self):
        # gains differ per state; increments reveal b(Lambda(delta(t)))
        sc = load(
            make_scenario(
                gains=[0.0, 1.0], drift=[["0"], ["0"]], diffusion=[[["0"]], [["0"]]],
                tau=0.5, step=0.01, horizon=4.0, seed=3,
                coefficient_bounds={"C": [0.0, 0.0], "c": [0.0, 0.0], "Ma": 0.0},
            )
        )
        p = en.SimParams.from_scenario(sc, chunk_size=4)
        path = en.simulate_hybrid(sc, p, 0)
        X = path.X[:, 0]
        lam = path.lam
        obs_every = 50
        for w in range(8):
            k0 = w * obs_every
            b_frozen = [0.0, 1.0][lam[k0] - 1]
            inc = np.diff(X[k0 : k0 + obs_every + 1])
            assert np.abs(inc + b_frozen * X[k0] * 0.01).max() < 1e-15


class TestJumpLaw:
    def test_holding_time_is_exponential(self):
        # thinning of the constant two-state generator: state-1 sojourn ~ Exp(2)
        sc = load(
            make_scenario(
                drift=[["0"], ["0"]], diffusion=[[["0"]], [["0"]]],
                coefficient_bounds={"C": [0.0, 0.0], "c": [0.0, 0.0], "Ma": 0.0},
                horizon=8000.0, step=0.5, tau=0.5, seed=11,
            )
        )
        p = en.SimParams.from_scenario(sc, chunk_size=2, n_paths=1)
        path = en.simulate_hybrid(sc, p, 0)
        sojourns = []
        t_prev = 0.0
        for t, frm, _ in path.jumps["lambda"]:
            if frm == 1:
                sojourns.append(t - t_prev)
            t_prev = t
        assert len(sojourns) > 4000
        ks = stats.kstest(np.array(sojourns), "expon", args=(0, 0.5))
        assert ks.pvalue > 0.01

    def test_occupation_matches_invariant(self):
        sc = load(
            make_scenario(
                drift=[["0"], ["0"]], diffusion=[[["0"]], [["0"]]],
                coefficient_bounds={"C": [0.0, 0.0], "c": [0.0, 0.0], "Ma": 0.0},
                horizon=3000.0, step=0.5, tau=0.5, seed=21,
            )
        )
        p = en.SimParams.from_scenario(sc, chunk_size=2, n_paths=1)
        summ = en.monte_carlo(sc, p)
        assert np.abs(summ.occupation["lambda"] - [1 / 3, 2 / 3]).max() < 0.03


class TestMoments:
    def test_geometric_brownian_motion(self):
        sc = load(
            make_scenario(
                drift=[["-0.5*x1"], ["-0.5*x1"]], diffusion=[[["0.3*x1"]], [["0.3*x1"]]],
                rates=[["0", "0"], ["0", "0"]], rate_bound=1.0,
                coefficient_bounds={"C": [-0.91, -0.91], "c": [-0.91, -0.91], "Ma": 0.5},
                horizon=2.0, step=0.005, tau=0.5, paths=4000, seed=5,
            )
        )
        p = en.SimParams.from_scenario(sc)
        summ = en.monte_carlo(sc, p)
        want = np.exp((2 * (-0.5) + 0.09) * 2.0)
        assert abs(summ.mean_x2[-1] - want) < 3 * summ.se_x2[-1]


class TestCoupledRoutes:
    def test_constant_rates_degenerate_sandwich(self, ex_linear):
        p = en.SimParams.from_scenario(ex_linear, n_paths=32, horizon=2.0)
        path = en.simulate_coupled(ex_linear, p, 5)
        assert path.meta["route"] == "two_state"
        assert np.array_equal(path.lam, path.lam_bar)
        assert np.array_equal(path.lam, path.lam_star)

    def test_balanced_two_state_route(self, ex_balanced):
        p = en.SimParams.from_scenario(ex_balanced, n_paths=256, horizon=10.0)
        summ = en.monte_carlo(ex_balanced, p, coupled=True)
        assert summ.route == "two_state"
        assert summ.ordering_violations == 0
        assert np.abs(summ.occupation["lambda_bar"] - [1 / 3, 2 / 3]).max() < 0.05
        assert np.abs(summ.occupation["lambda_star"] - [2 / 3, 1 / 3]).max() < 0.05

    def test_trig_example_uses_matrix_route(self, ex_two_state):
        route, env, warnings = en.choose_route(ex_two_state)
        assert route == "matrix"
        assert warnings  # the interval conditions fail for this scenario

    def test_trig_example_sandwich(self, ex_two_state):
        p = en.SimParams.from_scenario(ex_two_state, n_paths=512, horizon=10.0)
        summ = en.monte_carlo(ex_two_state, p, coupled=True)
        assert summ.ordering_violations == 0

    def test_recorded_path_keeps_the_order(self, ex_two_state):
        p = en.SimParams.from_scenario(ex_two_state, n_paths=300, horizon=10.0)
        path = en.simulate_coupled(ex_two_state, p, 257)
        assert path.meta["route"] == "matrix"
        assert (path.lam_star <= path.lam).all() and (path.lam <= path.lam_bar).all()

    def test_three_state_sandwich(self, ex_three_state):
        p = en.SimParams.from_scenario(ex_three_state, n_paths=128, horizon=10.0)
        summ = en.monte_carlo(ex_three_state, p, coupled=True)
        assert summ.ordering_violations == 0
        assert summ.warnings  # sub-marginal upper envelope is reported

    def test_coupling_preserves_switching_marginal(self, ex_two_state):
        # the switching chain's occupancy must not depend on being coupled
        pm = en.SimParams.from_scenario(ex_two_state, n_paths=256, horizon=60.0, h=0.01)
        marginal = en.monte_carlo(ex_two_state, pm)
        coupled = en.monte_carlo(ex_two_state, pm, coupled=True)
        gap = np.abs(marginal.occupation["lambda"] - coupled.occupation["lambda"]).max()
        assert gap < 0.02, gap

    def test_upper_chain_skeleton_marginal(self, ex_two_state):
        # the coupled upper chain remains a Markov chain with its own generator
        p = en.SimParams.from_scenario(ex_two_state, n_paths=512, horizon=25.0, h=0.01)
        summ = en.monte_carlo(ex_two_state, p, coupled=True)
        counts = summ.skeleton_counts["lambda_bar"]
        P = mk.skeleton_transition(ex_two_state.envelopes.qbar, 0.5)
        for i in range(2):
            emp = counts[i] / counts[i].sum()
            assert np.abs(emp - P[i]).sum() / 2 < 0.05

    def test_region_c_subtracts_l_then_hbar(self):
        # the lower chain's mark space starts at L + Hbar, and region C places
        # a mark in it as (mark - L) - Hbar; at this mark on the edge of the
        # lower table's interval, mark - (L + Hbar) rounds to the other side.
        # Off the two-state route L = H, taken here as 2.2
        sc = load(make_scenario(
            rates=[["0", "0.3"], ["0.3", "0"]], rate_bound=2.2, initial={"x": [1.0], "state": 2},
            envelopes={"qbar": [[-0.3, 0.3], [0.3, -0.3]], "qstar": [[-0.2, 0.2], [0.8, -0.8]]},
        ))
        run = en._ChunkRun(sc, en.SimParams.from_scenario(sc, n_paths=1), range(1), "matrix", sc.envelopes)
        L, Hbar = run.L, run.Hbar
        assert L == sc.rates.H
        edge = 0.8 - min(0.8, 0.3)  # lower-chain excess down-rate from (2, 2)
        mark = (L + Hbar) + edge
        assert (mark - L) - Hbar < edge <= mark - (L + Hbar)
        S0 = run.S.copy()
        c = one_round_table(run, [mark], sc.rates.offdiag_batch(run.X))
        run._lambda_jump(c, run.X)  # no jump: the mark is beyond L
        run._matrix_jump(c, S0[1, c])
        assert run.S[:, 0].tolist() == [0, 1, 1]
        run._book_block(S0, 0, 1)
        # the step books h to every chain's start state, the move h from state 2 to state 1
        assert (run.occ[..., 0] - run.h * np.eye(2)[S0[:, 0]])[0].tolist() == [run.h, -run.h]


def _with_crossings(run):
    """Wrap the bound envelope rule: after it, some candidate paths get
    lambda_bar one below lambda, and others get it back on top of the state
    space.  The moves go through _apply_jump, as both schedules book only the
    moves it logs."""
    rule = run._jump

    def jump(c, lam):
        rule(c, lam)
        p, aux = run._p[c], run._aux[c]
        down = (aux < 0.4) & (run.S[1, p] > 0)
        run._apply_jump(2, c[down], run.S[1, p[down]] - 1, 5)  # after the rule's calls
        top = aux > 0.8
        run._apply_jump(2, c[top], np.full(top.sum(), run.M - 1), 6)

    run._jump = jump
    return run


def _crossing_error(sc, record_local):
    """Run ``sc`` coupled with crossings made after its envelope rule;
    returns the route, the error and the first crossing made, in call order.
    The calls run in time only in the per-step rounds of conftest."""
    route, env, _ = en.choose_route(sc)
    p = en.SimParams.from_scenario(sc, n_paths=64, horizon=3.0)
    paths = range(64) if record_local is None else range(record_local, record_local + 1)
    run = _with_crossings(en._ChunkRun(sc, p, paths, route, env, recording=record_local is not None))
    rule, first = run._jump, []

    def jump(c, lam):  # the first crossing made
        rule(c, lam)
        p = run._p[c]
        i = np.flatnonzero(run._crossed(p))
        if len(i) and not first:
            first.append((run.paths[p[i[0]]], run._tc[c[i[0]]], run.S[:, p[i[0]]] + 1))

    run._jump = jump
    with pytest.raises(en.EngineError) as err:
        run.run()
    return route, str(err.value), first[0]


def _raises_at_the_first_crossing(sc, record_local):
    """Check that a run with crossings made stops at the first one, naming
    it; returns the route.  Rounds run in time only in the per-step rounds of
    conftest, on rates that read x, so rates that do not are checked against
    their state-dependent twin, and the twin against those rounds."""
    if sc.rates.state_free:
        twin = sn.load_scenario(state_dependent_twin(sc.raw))
        assert not twin.rates.state_free
        assert _crossing_error(sc, record_local)[:2] == _crossing_error(twin, record_local)[:2]
        sc = twin
    with per_step_rounds():
        route, err, (path, t, (ls, lm, lb)) = _crossing_error(sc, record_local)
    assert _crossing_error(sc, record_local)[:2] == (route, err)
    if record_local is not None:
        assert path == record_local
    # the envelopes are declared, so the message does not blame the grid
    assert err == (
        f"coupled chains crossed at t={t:.6g}, path {path}: "
        f"lambda_star={ls}, lambda={lm}, lambda_bar={lb}"
    )
    return route


class TestOrderCount:
    @pytest.mark.parametrize("record_local", [None, 5], ids=["mc", "simulate"])
    @pytest.mark.parametrize("name", ["two_state_balanced", "linear_feedback"])
    def test_interval_route_raises_at_the_crossing(self, name, record_local):
        # once counted in ordering_violations while the run went on out of order
        sc = sn.load_scenario(str(FIXTURES / f"{name}.json"))
        assert _raises_at_the_first_crossing(sc, record_local) == "two_state"

    @pytest.mark.parametrize("record_local", [None, 5], ids=["mc", "simulate"])
    def test_matrix_route_raises_at_the_crossing(self, ex_three_state, record_local):
        # once a CouplingError of the next round of that path, naming neither
        # the path nor the time
        assert _raises_at_the_first_crossing(ex_three_state, record_local) == "matrix"


def three_state_constant(dominate=True):
    """Three states with constant rates on the coupling-matrix route; the
    envelopes push up (qbar) and down (qstar) harder than the rates, and
    swapped they fail the partial-sum domination."""
    def generator(up, down):
        Q = [[0.0, up, 0.3], [down, 0.0, up], [0.3, down, 0.0]]
        for i in range(3):
            Q[i][i] = -sum(Q[i])
        return Q

    qbar, qstar = generator(1.5, 1.0), generator(1.0, 1.5)
    return make_scenario(
        dimensions={"d": 1, "M": 3}, tau=0.5, step=0.01,
        drift=[["-1*x1"], ["-0.5*x1"], ["-0.2*x1"]], diffusion=[[["0.3*x1"]], [["0.4*x1"]], [["0.5*x1"]]],
        gains=[0.1, 0.2, 0.3], rates=[["0", "1.2", "0.3"], ["1.2", "0", "1.2"], ["0.3", "1.2", "0"]],
        rate_bound=3.0, coefficient_bounds={"C": [-1.91, -0.84, 0.0], "c": [-1.91, -0.84, -0.15], "Ma": 1.0},
        initial={"x": [1.0], "state": 2},
        envelopes={"qbar": qbar, "qstar": qstar} if dominate else {"qbar": qstar, "qstar": qbar},
    )


def interval_constant():
    """The interval-route crossing reproducer of TestCli in
    test_scenario_cli.py with the rate it has at its fixed x = 0.5,
    1 + 0.5^2, written as a constant."""
    return make_scenario(
        drift=[["0"], ["0"]], rates=[["0", "1.25"], ["1.25", "0"]],
        rate_bound=2.0, grid={"lo": -1.0, "hi": 1.0, "n": 41},
        initial={"x": [0.5], "state": 1}, horizon=3.0, step=0.001, paths=64,
        coefficient_bounds={"C": [0.0, 0.0], "c": [0.0, 0.0], "Ma": 0.0},
        envelopes={"qbar": [[-1, 1], [1, -1]], "qstar": [[-2, 2], [2, -2]]},
    )


# (document, coupled, horizon) of a run on each route at state-free rates,
# over several step blocks
TWIN_CASES = {
    "marginal": lambda: (json.loads((FIXTURES / "linear_feedback.json").read_text()), False, 1.0),
    "two_state": lambda: (json.loads((FIXTURES / "linear_feedback.json").read_text()), True, 1.0),
    "matrix": lambda: (three_state_constant(), True, 3.0),
}


class TestStateFreeRates:
    """Rates that do not read x run the switching chain's rule over each step
    block in one pass ahead of its steps; the same scenario with its rates
    written to read x runs it step by step and is the reference.  Both log their moves and book them once per step
    block; the per-call booking of conftest is the booking's reference."""

    @pytest.mark.parametrize("route", sorted(TWIN_CASES))
    def test_block_rounds_sorted_once_per_step_block(self, route, monkeypatch):
        # the switching chain's pass ahead of the steps and, on a coupled
        # run, the envelope pass after them share the block's rounds
        doc, coupled, horizon = TWIN_CASES[route]()
        sc, calls, block_rounds = load(doc), [], en._block_rounds
        monkeypatch.setattr(en, "_block_rounds", lambda p: calls.append(len(p)) or block_rounds(p))
        p = en.SimParams.from_scenario(sc, n_paths=64, horizon=horizon)
        en.monte_carlo(sc, p, coupled=coupled)
        assert len(calls) == -(-p.n_steps // en._STEP_BLOCK) > 1

    @pytest.mark.parametrize("route", sorted(TWIN_CASES))
    def test_matches_the_per_step_twin(self, route):
        doc, coupled, horizon = TWIN_CASES[route]()
        sc, twin = load(doc), load(state_dependent_twin(doc))
        assert sc.rates.state_free and not twin.rates.state_free
        # several step blocks, three chunks, an interior recorded path
        p = en.SimParams.from_scenario(sc, n_paths=150, chunk_size=64, horizon=horizon, record_stride=7)
        assert p.n_steps > 256
        mc = []
        for s in (sc, twin):
            out = en.monte_carlo(s, p, coupled=coupled).to_dict()
            assert out.pop("scenario_hash") == s.hash
            mc.append(sn.canonical_json(out))
        assert json.loads(mc[0])["route"] == route
        assert mc[0] == mc[1]
        sim = en.simulate_coupled if coupled else en.simulate_hybrid
        a, b = (sim(s, p, 101) for s in (sc, twin))
        for name in ("times", "X", "lam", "lam_star", "lam_bar"):
            x, y = getattr(a, name), getattr(b, name)
            assert (x is None) == (y is None) and (x is None or x.tobytes() == y.tobytes())
        assert a.jumps == b.jumps and a.meta == b.meta
        assert all(a.jumps[chain] for chain in (en.CHAIN_NAMES if coupled else ["lambda"]))

    @pytest.mark.parametrize("route", ["marginal", "matrix", "two_state"])
    def test_rate_bound_raised_before_the_first_step(self, route, tmp_path, capsys):
        if route == "matrix":
            doc = three_state_constant() | {"rate_bound": 2.0}
            want = "exit rate 2.4 from state 2 exceeds declared bound H=2.0 at every x"
        else:
            doc = make_scenario(rates=[["0", "3"], ["1", "0"]], rate_bound=2.0)
            want = "exit rate 3 from state 1 exceeds declared bound H=2.0 at every x"
        sc = load(doc)
        coupled = route != "marginal"
        route_, env, _ = en.choose_route(sc) if coupled else ("marginal", None, None)
        assert route_ == route
        p = en.SimParams.from_scenario(sc)
        with pytest.raises(en.EngineError) as err:  # the chunk is not even built
            en._ChunkRun(sc, p, range(p.n_paths), route, env)
        assert str(err.value) == want
        fx = write_scenario(tmp_path, doc)
        flag = ["--coupled"] if coupled else []
        assert cli.main(["mc", fx, *flag]) == 2
        assert cli.main(["simulate", fx, *flag, "--out", str(tmp_path / "p.csv")]) == 2
        assert capsys.readouterr().err == 2 * f"runtime error: {want}\n"
        # the per-step twin names the first candidate that reads the rate
        sim = en.simulate_coupled if coupled else en.simulate_hybrid
        with pytest.raises(en.EngineError, match=r" at t=\S+, x=\[\S+\], path 0$"):
            sim(load(state_dependent_twin(doc)), p, 0)

    @pytest.mark.parametrize("route, rows", [("marginal", (1,)), ("two_state", (1, 2, 0)),
                                             ("matrix", (1, 2, 0, 2, 0))])
    def test_calls_are_numbered_in_their_order(self, route, rows, monkeypatch):
        # the block booking of either schedule orders a round's moves on one
        # chain by the number of their _apply_jump call: at every round a
        # rule's calls come in increasing numbers, and a number always names
        # one chain; the switching chain's rule and, on a coupled route, the
        # envelope rule after it are counted apart
        calls, apply = [], en._ChunkRun._apply_jump

        def numbered(self, chain_row, c, new, call):
            calls[-1].append((call, chain_row))
            return apply(self, chain_row, c, new, call)

        def one_round(rule):
            def counted(self, *args):
                calls.append([])
                return rule(self, *args)
            return counted

        monkeypatch.setattr(en._ChunkRun, "_apply_jump", numbered)
        for name in ("_lambda_jump", f"_{route}_jump") if route != "marginal" else ("_lambda_jump",):
            monkeypatch.setattr(en._ChunkRun, name, one_round(getattr(en._ChunkRun, name)))
        doc, coupled, horizon = TWIN_CASES[route]()
        sc = load(doc)
        en.monte_carlo(sc, en.SimParams.from_scenario(sc, n_paths=64, horizon=horizon), coupled=coupled)
        assert len(calls) > 5
        for made in calls:
            assert [c for c, _ in made] == sorted({c for c, _ in made})
            assert all(rows[c] == row for c, row in made)
        assert {c for made in calls for c, _ in made} == set(range(len(rows)))

    def test_block_booking_matches_the_per_step_booking(self):
        # random moves on a few paths, whose occupation stays within a few
        # steps' worth of the times left in the step, so that the order of
        # the float updates shows; the per-call reference books them round
        # by round and call by call, the block booking from the log in the
        # per-step order, as the per-step rounds make it, or in any order, as
        # the block pass makes it; with the matrix rule's calls, and with
        # the calls 5 and 6 that _with_crossings adds on the upper chain
        sc = load(three_state_constant())
        route, env, _ = en.choose_route(sc)
        params = en.SimParams.from_scenario(sc, n_paths=8)
        steps, h = 40, params.h
        for shuffled, rows in product((False, True), ((1, 2, 0, 2, 0), (1, 2, 0, 2, 0, 2, 2))):
            block = en._ChunkRun(sc, params, range(8), route, env)
            rng = np.random.default_rng(7)
            start = rng.integers(0, 3, (3, 8))
            ref = PerCallBooking(start, 3, h)
            cand, log, states = [], [], []  # cand: (path, offset, step, round)
            for k in range(steps):
                ref.step()
                for rnd in range(rng.integers(0, 4)):
                    base, offs = len(cand), h * rng.random(8)  # a candidate of every path
                    cand += zip(range(8), offs, [k] * 8, [rnd] * 8)
                    for call, row in enumerate(rows):
                        pj = np.sort(rng.choice(8, rng.integers(0, 7), replace=False)).astype(np.int64)
                        new = rng.integers(0, 3, len(pj))
                        moved = ref.S[row, pj] != new
                        if moved.any():  # the moves alone are logged
                            log.append((row, call, base + pj[moved], ref.S[row, pj[moved]], new[moved]))
                        ref.apply(row, pj, new, h - offs[pj])
                states.append(ref.S.copy())
            if shuffled:
                log = [(row, call, *(a[i:i + 1] for a in e)) for row, call, *e in log for i in range(len(e[0]))]
                rng.shuffle(log)
            block._p, block._step, block._rnd = (np.array([c[i] for c in cand], dtype=np.int64) for i in (0, 2, 3))
            block._offs, block._log = np.array([c[1] for c in cand]), log
            moves = block._book_block(start, 0, steps)
            assert block.occ.tobytes() == ref.occ.tobytes()
            first, rows_w, paths, written = en._last_moves(steps, *moves)
            S = start.copy()
            for k in range(steps):
                w = slice(first[k], first[k + 1])
                S[rows_w[w], paths[w]] = written[w]
                assert np.array_equal(S, states[k])

    # seeds at which some path crosses in a later block round, but earlier
    # in time, than another path's first crossing found
    CROSSING_SEEDS = {"two_state": 16, "matrix": 6}

    @pytest.mark.parametrize("route", sorted(CROSSING_SEEDS))
    def test_crossing_matches_the_per_step_twin(self, route):
        # the block pass meets the crossings path by path, not in time; it
        # raises the earliest by step, round and path, as the per-step run,
        # for mc and for a path that crosses in a later step block
        doc = interval_constant() if route == "two_state" else three_state_constant(dominate=False)
        doc["seed"] = self.CROSSING_SEEDS[route]
        sc, twin = load(doc), load(state_dependent_twin(doc))
        assert en.choose_route(sc)[0] == route
        p = en.SimParams.from_scenario(sc, n_paths=16, horizon=3.0, h=0.001)
        errors = []
        for run in (lambda s: en.monte_carlo(s, p, coupled=True), lambda s: en.simulate_coupled(s, p, 10)):
            for s in (sc, twin):
                with pytest.raises(en.EngineError) as err:
                    run(s)
                errors.append(str(err.value))
        assert errors[0] == errors[1] and errors[2] == errors[3]
        assert errors[0].startswith("coupled chains crossed at t=")
        assert errors[2].startswith("coupled chains crossed at t=") and ", path 10: " in errors[2]
        assert float(errors[2].split("t=")[1].split(",")[0]) > 256 * p.h


# envelopes that put a two-state scenario on each route when its rates sum to
# between 1.5 and 2 on the grid
NEGATIVE_ENVELOPES = {
    "marginal": None,
    "two_state": {"qbar": [[-0.5, 0.5], [1, -1]], "qstar": [[-1, 1], [1, -1]]},
    "matrix": {"qbar": [[-1, 1], [0, 0]], "qstar": [[0, 0], [1, -1]]},
}


def negative_rate_scenario(route, state_free):
    """Rates that go below 0 off the grid [-1, 1]: ``1 - x1^2/4`` both ways
    from x0 = 3, or, at rates that do not read x, a constant -0.5 up; valid
    on the grid only in the first case."""
    rates = [["0", "-0.5"], ["2", "0"]] if state_free else [["0", "1 - x1^2/4"], ["1 - x1^2/4", "0"]]
    doc = make_scenario(
        rates=rates, rate_bound=2.0 if state_free else 1.0, grid={"lo": -1.0, "hi": 1.0, "n": 201},
        initial={"x": [3.0], "state": 1}, drift=[["-0.1*x1"]] * 2, diffusion=[[["0.05*x1"]]] * 2,
        step=0.01, horizon=2.0, paths=256,
    )
    if NEGATIVE_ENVELOPES[route]:
        doc["envelopes"] = NEGATIVE_ENVELOPES[route]
    return doc


class TestNegativeRates:
    """A switching rate below 0 once ran silently: the thinning read it as no
    jump, and a coupled run blamed the envelopes.  The rate check refuses it
    at the candidate that reads it, or, at rates that do not read x, before
    the first step, on every route and schedule."""

    # (mc, simulate of path 5) per route: rates that read x, the constant
    # rate, and the constant rate written to read x
    WANT = {
        "marginal": (
            "rate -1.25762 from state 1 to state 2 is negative at t=0.00288159, x=[3.005077096917084], path 188",
            "rate -1.03726 from state 1 to state 2 is negative at t=1.3108, x=[2.8546518760466975], path 5",
            "rate -0.5 from state 1 to state 2 is negative at t=0.00860579, x=[2.97469041947156], path 46",
            "rate -0.5 from state 1 to state 2 is negative at t=0.0318741, x=[2.9934153961490026], path 5",
        ),
        "two_state": (
            "rate -1.26381 from state 1 to state 2 is negative at t=0.00369689, x=[3.009191169183149], path 176",
            "rate -1.24013 from state 1 to state 2 is negative at t=0.0318741, x=[2.9934153961490026], path 5",
            "rate -0.5 from state 1 to state 2 is negative at t=0.00592559, x=[2.9825728702158725], path 46",
            "rate -0.5 from state 1 to state 2 is negative at t=0.0342827, x=[2.992988847638999], path 5",
        ),
        "matrix": (
            "rate -1.27356 from state 1 to state 2 is negative at t=0.0088912, x=[3.0156654975599704], path 188",
            "rate -1.23957 from state 1 to state 2 is negative at t=0.0340115, x=[2.993036870834208], path 5",
            "rate -0.5 from state 1 to state 2 is negative at t=0.00592559, x=[2.9825728702158725], path 46",
            "rate -0.5 from state 1 to state 2 is negative at t=0.0342827, x=[2.992988847638999], path 5",
        ),
    }

    @staticmethod
    def _errors(doc, route):
        sc = load(doc)
        coupled = route != "marginal"
        assert (en.choose_route(sc)[0] if coupled else "marginal") == route
        sim = en.simulate_coupled if coupled else en.simulate_hybrid
        p = en.SimParams.from_scenario(sc)
        errors = []
        for run in (lambda: en.monte_carlo(sc, p, coupled=coupled), lambda: sim(sc, p, 5)):
            with pytest.raises(en.EngineError) as err:
                run()
            errors.append(str(err.value))
        return errors

    @pytest.mark.parametrize("route", sorted(NEGATIVE_ENVELOPES))
    def test_rates_that_read_x(self, route, tmp_path, capsys):
        doc = negative_rate_scenario(route, state_free=False)
        structural = sn.validate_scenario(load(doc)).structural
        assert not [s for s in structural if s.startswith("rates:")]  # nonnegative on the grid
        assert self._errors(doc, route) == list(self.WANT[route][:2])
        fx = write_scenario(tmp_path, doc)
        flag = [] if route == "marginal" else ["--coupled"]
        assert cli.main(["mc", fx, *flag]) == 2
        assert capsys.readouterr().err == f"runtime error: {self.WANT[route][0]}\n"

    @pytest.mark.parametrize("route", sorted(NEGATIVE_ENVELOPES))
    def test_rates_that_do_not_read_x(self, route, tmp_path, capsys):
        doc = negative_rate_scenario(route, state_free=True)
        structural = sn.validate_scenario(load(doc)).structural
        assert [s for s in structural if s.startswith("rates: negative rate q[1][2] = -0.5")]
        fx = write_scenario(tmp_path, doc)
        want = "rate -0.5 from state 1 to state 2 is negative at every x"
        assert self._errors(doc, route) == [want, want]
        flag = [] if route == "marginal" else ["--coupled"]
        assert cli.main(["mc", fx, *flag]) == 2
        assert cli.main(["simulate", fx, *flag, "--out", str(tmp_path / "p.csv")]) == 2
        assert capsys.readouterr().err == 2 * f"runtime error: {want}\n"
        # the twin whose rates read x names the first candidate that reads the rate
        assert self._errors(state_dependent_twin(doc), route) == list(self.WANT[route][2:])

    @pytest.mark.parametrize("name, qbar0, want", [
        ("three_state_rational", [-1, -1, 2], "envelopes.qbar: negative rate qbar[1][2] = -1"),
        ("two_state_balanced", [0.5, -0.5], "envelopes.qbar: negative rate qbar[1][2] = -0.5"),
    ], ids=["three_state_rational", "two_state_balanced"])
    def test_declared_envelope_with_a_negative_rate(self, name, qbar0, want, tmp_path, capsys):
        # once a "coupling produced negative rate" that blamed the domination,
        # or, on the interval route, a crossing
        doc = json.loads((FIXTURES / f"{name}.json").read_text())
        doc["envelopes"]["qbar"][0] = qbar0
        with pytest.raises(en.EngineError) as err:
            en.choose_route(load(doc))
        assert str(err.value) == want
        assert cli.main(["mc", write_scenario(tmp_path, doc), "--coupled"]) == 2
        assert capsys.readouterr().err == f"runtime error: {want}\n"

    def test_derived_envelope_with_a_negative_rate(self):
        # rates below 0 on the grid, where the paths never go: once a
        # "coupling produced negative rate" at the first candidate
        doc = make_scenario(rates=[["0", "1 + x1"], ["1 + x1", "0"]], rate_bound=3.0,
                            grid={"lo": -2.0, "hi": 1.0, "n": 31}, initial={"x": [0.5], "state": 1},
                            drift=[["0"]] * 2, diffusion=[[["0.01"]]] * 2, horizon=2.0, paths=64)
        with pytest.raises(en.EngineError) as err:
            en.choose_route(load(doc))
        assert str(err.value) == "envelopes.qbar: negative rate qbar[2][1] = -1 (derived from the validation grid)"


# (two-state route, matrix route) rates of the error order cases, and the
# regime-free drift and initial x they start from: x(t) is the same on every
# path and in a marginal run, as the diffusion is zero
ORDER_CASES = {
    # the envelopes do not dominate, so chains cross early; the rates pass H
    # from x = 2 (two-state) and x = 2.74 (matrix), in the first step block
    "crossing_then_breach": ((["1 + 0.25*x1^2"] * 2, "1", 0.5), ("1.2 + 0.2*x1^2", "2", 0.0)),
    # every candidate breaches H at x = 3, the first in round 0 of its step;
    # x falls back, and the chains cross only in later steps
    "breach_then_crossing": ((["1", "1 + x1^2"], "-1*x1", 3.0), ("1.2 + x1^2", "-1*x1", 3.0)),
    # bounded rates, and a state that overflows at t = 1.53
    "crossing_then_overflow": ((["1.25 + 0.25*sin(x1)^2"] * 2, "10000*x1", 0.5),
                               ("1.2 + 0.1*sin(x1)^2", "10000*x1", 1.0)),
}


def _order_case(route, case):
    """The scenario of an error order case on a coupled route, h = 0.01."""
    two_state, matrix = ORDER_CASES[case]
    if route == "two_state":
        (up, down), drift, x0 = two_state
        doc = interval_constant() | {"rates": [["0", up], [down, "0"]], "step": 0.01}
        if case == "breach_then_crossing":  # keep the interval-sum conditions
            doc["envelopes"] = doc["envelopes"] | {"qstar": [[-0.5, 0.5], [2.5, -2.5]]}
        doc["drift"] = [[drift]] * 2
    else:
        up, drift, x0 = matrix
        doc = three_state_constant(dominate=False) | {"diffusion": [[["0"]]] * 3, "horizon": 3.0, "paths": 64}
        doc["rates"] = [["0", up, "0.3"], ["1.2", "0", "1.2"], ["0.3", "1.2", "0"]]
        doc["drift"] = [[drift]] * 3
    doc["initial"] = doc["initial"] | {"x": [x0]}
    sc = load(doc)
    assert not sc.rates.state_free and en.choose_route(sc)[0] == route
    return sc


def _run_error(run, sc, p, reference=False):
    with per_step_rounds() if reference else nullcontext():
        with pytest.raises(en.EngineError) as err:
            run(sc, p)
    return str(err.value)


def _time(message):
    return float(message.split(" at t=")[1].split(",")[0])


class TestBlockPassAfterSteps:
    """On rates that read x the switching chain alone runs the per-step
    rounds, and the route's envelope rule runs once per step block after the
    block's steps.  The per-step rounds of every chain in conftest are the
    reference: the same bytes and the same first error."""

    @pytest.mark.parametrize("chunk_size", [64, 2048])
    @pytest.mark.parametrize("name", ["two_state_balanced", "two_state_trig", "three_state_rational"])
    def test_matches_the_per_step_rounds(self, name, chunk_size):
        sc = load(str(FIXTURES / f"{name}.json"))
        assert not sc.rates.state_free
        # several step blocks, an interior recorded path, recording off the epochs
        p = en.SimParams.from_scenario(sc, n_paths=150, chunk_size=chunk_size, horizon=10.0, h=0.01, record_stride=7)
        assert p.n_steps > 3 * en._STEP_BLOCK
        runs = []
        for reference in (False, True):
            with per_step_rounds() if reference else nullcontext():
                runs.append((sn.canonical_json(en.monte_carlo(sc, p, coupled=True).to_dict()),
                             en.simulate_coupled(sc, p, 101)))
        (mc, a), (mc_ref, b) = runs
        assert json.loads(mc)["route"] == ("two_state" if name == "two_state_balanced" else "matrix")
        assert mc == mc_ref
        for field in ("X", "lam", "lam_star", "lam_bar"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes()
        assert a.jumps == b.jumps
        assert all(a.jumps[chain] for chain in en.CHAIN_NAMES)
        blocks = {int(t / (en._STEP_BLOCK * p.h)) for chain in en.CHAIN_NAMES for t, _, _ in a.jumps[chain]}
        assert len(blocks) >= 3

    @pytest.mark.parametrize("case", sorted(ORDER_CASES))
    @pytest.mark.parametrize("route", ["two_state", "matrix"])
    def test_first_error_matches_the_per_step_rounds(self, route, case, monkeypatch):
        # the steps of a block run ahead of its envelope rule: an error the
        # steps meet is raised only once the envelope pass has found none
        # earlier, and the first error of either kind is the reference's
        sc = _order_case(route, case)
        p = en.SimParams.from_scenario(sc)
        block_end = en._STEP_BLOCK * p.h
        mc = lambda s, q: en.monte_carlo(s, q, coupled=True)  # noqa: E731
        err = _run_error(mc, sc, p)
        assert err == _run_error(mc, sc, p, reference=True)
        if case == "breach_then_crossing":
            assert err.startswith("exit rate ") and "exceeds declared bound" in err
            with monkeypatch.context() as m:
                m.setattr(en._ChunkRun, "_check_rate_bound", lambda *args: None)
                crossing = later = _run_error(mc, sc, p)
            assert crossing.startswith("coupled chains crossed at t=")
            assert int(_time(err) / p.h) < int(_time(later) / p.h) and _time(later) < block_end
        else:
            assert err.startswith("coupled chains crossed at t=")
            crossing = err
            # the marginal run of the same x(t) meets the later error
            later = _run_error(en.simulate_hybrid, sc, p)
            assert later.startswith("exit rate " if case == "crossing_then_breach" else "non-finite state")
            assert _time(err) < _time(later) < block_end
        # the crossing path alone, as simulate runs it, meets the same errors
        path = int(crossing.split(", path ")[1].split(":")[0])
        sim = lambda s, q: en.simulate_coupled(s, q, path)  # noqa: E731
        err = _run_error(sim, sc, p)
        assert err == _run_error(sim, sc, p, reference=True)
        if case == "breach_then_crossing":
            assert err.startswith("exit rate ") and err.endswith(f", path {path}")
        else:
            assert err == crossing


def _coefficients(d, shared):
    """Three regimes whose drift rows and diffusion matrices are one tree for
    all, for some (drift: regimes 2 and 3; diffusion: 1 and 3) or for none;
    also the first regime of each group."""
    a = ["-1*x1", "0.5*x1 - x2", "sin(x1)"] if d == 2 else ["-1*x1", "0.5*x1", "sin(x1)"]
    s = ["0.3*x1", "0.5*x2 + 0.1", "cos(x1)"] if d == 2 else ["0.3*x1", "0.5*x1 + 0.1", "cos(x1)"]
    pick_a, pick_s = {"all": ([0, 0, 0], [0, 0, 0]), "some": ([0, 1, 1], [0, 1, 0]),
                      "none": ([0, 1, 2], [0, 1, 2])}[shared]
    drift = [[a[i]] + ["-2*x2"] * (d - 1) for i in pick_a]
    diffusion = [[[s[i], "0.1*x1"], ["0.2*x2", s[i]]] if d == 2 else [[s[i]]] for i in pick_s]
    return drift, diffusion, [sorted({pick.index(j) for j in pick}) for pick in (pick_a, pick_s)]


class TestCoefficientGroups:
    @pytest.mark.parametrize("shared", ["all", "some", "none"])
    @pytest.mark.parametrize("d", [1, 2])
    def test_grouped_equals_per_path_choice(self, d, shared):
        drift, diffusion, firsts = _coefficients(d, shared)
        sc = load(make_scenario(
            dimensions={"d": d, "M": 3}, drift=drift, diffusion=diffusion, gains=[0.0] * 3,
            rates=[["0", "1", "1"], ["1", "0", "1"], ["1", "1", "0"]],
            coefficient_bounds={"C": [0.0] * 3, "c": [0.0] * 3, "Ma": 1.0},
            initial={"x": [1.0] * d, "state": 1},
        ))
        run = en._ChunkRun(sc, en.SimParams.from_scenario(sc, n_paths=50), range(50), "marginal", None)
        assert [g[0] for g in run.drift_groups] == firsts[0]
        assert [g[0] for g in run.sigma_groups] == firsts[1]
        rng = np.random.default_rng(d)
        X, xi = rng.normal(size=(2, 50, d))
        states = np.arange(50) % 3
        rng.shuffle(states)
        calls = []

        def counted(f, key):
            return lambda X: calls.append(key) or f(X)

        sc.drift_fn = [[counted(f, ("a", i)) for f in row] for i, row in enumerate(sc.drift_fn)]
        sc.sigma_fn = [[[counted(f, ("s", i)) for f in r] for r in m] for i, m in enumerate(sc.sigma_fn)]
        got_a, got_noise = run._drift(X, states), run._noise_term(X, states, xi)
        # one evaluation per distinct tree, of the group's first regime
        assert calls == [("a", i) for i in firsts[0] for _ in range(d)] + [
            ("s", i) for i in firsts[1] for _ in range(d * d)]
        a = np.stack([sc.drift_at(X, i) for i in range(3)])[states, np.arange(50)]
        S = np.stack([sc.sigma_at(X, i) for i in range(3)])[states, np.arange(50)]
        noise = np.einsum("nij,nj->ni", S, xi) if d > 1 else S[:, :, 0] * xi
        assert got_a.tobytes() == a.tobytes()
        assert got_noise.tobytes() == noise.tobytes()


def _per_step_schedule(draws, steps, G, lo, na, h, R_cand):
    """The per-step schedule's (path, offs, marks, aux, round bounds, first
    round of every step with one more entry closing the last step)."""
    p, offs, marks, aux, step, _, bounds = en._candidate_schedule(draws, steps, G, lo, na, h, R_cand)
    return p, offs, marks, aux, bounds, np.searchsorted(step[bounds[:-1]], np.arange(steps + 1)).tolist()


def _schedule_rounds(draws, steps, G, lo, na, h, R_cand):
    p, offs, marks, aux, bounds, step_first = _per_step_schedule(draws, steps, G, lo, na, h, R_cand)
    for kk in range(steps):
        for g in range(step_first[kk], step_first[kk + 1]):
            b0, b1 = bounds[g], bounds[g + 1]
            yield kk, p[b0:b1], offs[b0:b1], marks[b0:b1], aux[b0:b1]


def _window_rounds_reference(counts, u, lo, na, h, R_cand):
    """The per-step round loop over every column, cut to the window
    [lo, lo + na) with paths counted from lo; rounds left empty are dropped."""
    for kk, idx, *vals in candidate_rounds_reference(counts, u, counts.shape[1], h, R_cand):
        keep = (idx >= lo) & (idx < lo + na)
        if keep.any():
            yield kk, idx[keep] - lo, *(v[keep] for v in vals)


def _row_major(draws, steps, G):
    """Per-group draws as the (steps, groups * G) counts and uniforms of a
    single stream over every column: row-major cells, draw order in a cell."""
    ng = len(draws)
    group = np.repeat(np.arange(ng), [len(cells) for cells, _ in draws])
    step, c = np.divmod(np.concatenate([cells for cells, _ in draws]), G)
    cell = step * ng * G + group * G + c
    u = np.concatenate([v for _, v in draws]).reshape(-1, 3)[np.argsort(cell, kind="stable")]
    return np.bincount(cell, minlength=steps * ng * G).reshape(steps, ng * G), u.ravel()


# (groups, G, lo, na): Monte Carlo's live columns [0, na), one-path and
# three-path windows at the first, an interior and the last column of one
# group, and windows over two or three groups, some across a group edge
WINDOWS = [pytest.param(1, 16, 0, 16, id="16-16"), pytest.param(1, 37, 0, 9, id="37-9"),
           pytest.param(1, 8, 0, 1, id="8-1")] + [
    pytest.param(1, W, lo, na, id=f"{W}-{where}-{na}")
    for W in (16, 37)
    for na in (1, 3)
    for where, lo in (("first", 0), ("interior", W // 2 - na // 2), ("last", W - na))
] + [
    pytest.param(ng, G, lo, na, id=f"{ng}x{G}-{lo}-{na}")
    for ng, G, lo, na in (
        (2, 16, 0, 32), (2, 16, 0, 20), (2, 16, 15, 2), (2, 16, 20, 1),
        (3, 12, 0, 36), (3, 12, 5, 26), (3, 12, 22, 3), (3, 12, 35, 1),
    )
]


class TestCandidateSchedule:
    """The step-block schedule visits the candidates of the per-step round
    loop (tests/conftest.py) in the same order with the same bytes."""

    @pytest.mark.parametrize("rate", [0.0, 0.02, 0.3, 1.5])
    @pytest.mark.parametrize("ng, G, lo, na", WINDOWS)
    @pytest.mark.parametrize("ties", [False, True], ids=["uniform", "ties"])
    def test_matches_round_loop(self, rate, ng, G, lo, na, ties):
        W = ng * G
        rng = np.random.default_rng(int(rate * 100) + W + na)
        steps = 40
        counts = rng.poisson(rate, (steps, W))
        counts[5] = 0  # an empty step
        if rate:
            # six rounds at the last, the first and the middle column, and
            # at a column of the second group
            counts[7, W - 1] = 6
            counts[9, 0] = 6
            counts[11, W // 2] = 6
            if ng > 1:
                counts[13, G + 1] = 6
        counts = counts.reshape(steps, ng, G).transpose(1, 0, 2)  # group-major
        n = int(counts.sum())
        # coarse uniforms give equal offsets inside a path, ranked by draw order
        u = rng.integers(0, 4, 3 * n) / 4 if ties else rng.random(3 * n)
        draws = cell_lists(counts, u, rng)  # cells in random draw order, as the engine draws them
        h, R_cand = 0.01, 7.5
        got = list(_schedule_rounds(draws, steps, G, lo, na, h, R_cand))
        want = list(_window_rounds_reference(*_row_major(draws, steps, G), lo, na, h, R_cand))
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g[0] == w[0]
            assert np.array_equal(g[1], w[1])
            for a, b in zip(g[2:], w[2:]):
                assert a.tobytes() == b.tobytes()
        if rate == 0.0:
            assert got == []

    # (route, candidates, rounds) of one 2,048-path job, h = 0.01, T = 1,
    # seed 3.  With every row's mark block at 0 the marginal route thins at H
    # and the matrix route at H + Hbar + Hstar; when the rows lay end to end
    # over [0, M*H) the counts were 49,599 and 322 (three_state_rational),
    # 47,566 and 316 (six states) and 8,215 and 179 (linear_feedback,
    # marginal).  The two-state route keeps its 2H mark space.  Drawn as one
    # Poisson count per (step, path) cell, the stream gave 28,867 and 257,
    # 16,637 and 216, 4,106 and 135, and 8,215 and 179.  Rounds are counted
    # twice: per step, as the schedule lays them out, and per step block, as
    # a block pass runs a rule over them, round r holding each path's r-th
    # candidate in the block.  linear_feedback's rates do not read x, so its
    # steps run no rounds: the switching chain's pass ahead of them runs 7,
    # where the per-step rounds were 130.  On the coupled runs, whose rates
    # read x, the switching chain alone runs the per-step rounds, and the
    # envelope chains move after them in the 30, 18 and 12 rounds of the
    # envelope pass.
    COUNTS = {"three_state_rational": ("matrix", 28738, 267, 30), "six_state": ("matrix", 16435, 219, 18),
              "linear_feedback": ("marginal", 4128, 130, 7), "two_state_balanced": ("two_state", 8224, 179, 12)}

    @pytest.mark.parametrize("name", sorted(COUNTS))
    def test_candidates_and_rounds_of_one_job(self, name, monkeypatch):
        route, *want = self.COUNTS[name]
        doc = six_state_birth_death() if name == "six_state" else str(FIXTURES / f"{name}.json")
        sc = load(doc)
        seen = [0, 0, 0]

        def schedule(*args):
            out = schedule_block(*args)
            seen[0] += len(out[0])
            seen[1] += len(out[-1]) - 1
            return out

        def block(p):
            out = block_rounds(p)
            seen[2] += len(out[1]) - 1
            return out

        schedule_block, block_rounds = en._candidate_schedule, en._block_rounds
        monkeypatch.setattr(en, "_candidate_schedule", schedule)
        monkeypatch.setattr(en, "_block_rounds", block)
        p = en.SimParams.from_scenario(sc, n_paths=2048, seed=3, h=0.01, horizon=1.0)
        assert en.monte_carlo(sc, p, coupled=route != "marginal").route == route
        assert seen == want

    def test_candidate_law(self):
        # blocks of one group drawn as the engine draws them: the candidate
        # count of every (path, step) cell is Poisson(R_cand h), by a
        # chi-square test at level 0.001 on the counts 0..5 and >= 6; every
        # cell is reached, and every offset lies in [0, h)
        steps, G, blocks = en._STEP_BLOCK, en._GROUP, 40
        h, R_cand = 0.01, 70.0  # 0.7 candidates per cell
        jgen = en._philox(11, en._JUMPS, 0)
        hist = np.zeros(7, dtype=np.int64)
        reached = np.zeros(steps * G, dtype=bool)
        for _ in range(blocks):
            cells, u = draw = en._draw_candidates(jgen, steps * G, R_cand * h)
            per_cell = np.bincount(cells, minlength=steps * G)
            assert len(per_cell) == steps * G and 3 * per_cell.sum() == len(u)
            hist += np.bincount(np.minimum(per_cell, 6), minlength=7)
            reached |= per_cell > 0
            p, offs, *_ = en._candidate_schedule([draw], steps, G, 0, G, h, R_cand)
            assert len(p) == per_cell.sum()
            assert offs.min() >= 0.0 and offs.max() < h
        pmf = stats.poisson.pmf(np.arange(6), R_cand * h)
        expected = blocks * steps * G * np.append(pmf, 1.0 - pmf.sum())
        assert stats.chisquare(hist, expected).pvalue > 1e-3
        assert reached.all()

    @pytest.mark.parametrize("rate", [0.0, 0.3, 1.5])
    @pytest.mark.parametrize("ng, G, lo, na", [(1, 16, 0, 16), (1, 37, 17, 3), (3, 12, 5, 26)])
    def test_block_rounds_follow_each_path_in_time(self, rate, ng, G, lo, na):
        # the block rounds take every candidate of the per-step schedule
        # once, with its step and round in the step; round r holds each
        # path's r-th candidate in the block, paths ascending
        rng = np.random.default_rng(int(rate * 10) + ng)
        steps, h, R_cand = 40, 0.01, 7.5
        counts = rng.poisson(rate, (ng, steps, G))
        u = rng.integers(0, 4, 3 * int(counts.sum())) / 4  # ties inside a step
        draws = cell_lists(counts, u, rng)
        per_step = en._candidate_schedule(draws, steps, G, lo, na, h, R_cand)
        order, bounds = en._block_rounds(per_step[0])
        block = [a[order] for a in per_step[:-1]]

        def candidates(out):
            p, offs, marks, aux, step, rnd = out[:6]
            return sorted(zip(p.tolist(), step.tolist(), rnd.tolist(), offs.tolist(), marks.tolist(), aux.tolist()))

        assert sorted(order.tolist()) == list(range(len(per_step[0])))
        assert candidates(block) == candidates(per_step)
        p, _, _, _, step, rnd = block
        if rate == 0.0:
            assert bounds == []
            return
        rounds = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
        for path in np.unique(p):
            mine = np.flatnonzero(p == path)
            assert rounds[mine].tolist() == list(range(len(mine)))
            times = list(zip(step[mine].tolist(), rnd[mine].tolist()))
            assert times == sorted(times)
        assert all((np.diff(p[b0:b1]) > 0).all() for b0, b1 in zip(bounds, bounds[1:]))

    def test_live_columns_only(self):
        counts = np.zeros((1, 3, 4), dtype=np.int64)
        counts[0, 1] = [0, 2, 0, 3]
        u = np.random.default_rng(0).random(3 * 7)
        p, offs, _, _, bounds, step_first = _per_step_schedule(cell_lists(counts, u), 3, 4, 0, 2, 1.0, 1.0)
        assert p.tolist() == [1, 1] and bounds == [0, 1, 2] and step_first == [0, 0, 2, 2]
        assert offs[0] <= offs[1]
        # the window [3, 4): column 3's three candidates, as path 0
        p, offs, _, _, bounds, step_first = _per_step_schedule(cell_lists(counts, u), 3, 4, 3, 1, 1.0, 1.0)
        assert p.tolist() == [0, 0, 0] and bounds == [0, 1, 2, 3] and step_first == [0, 0, 3, 3]
        assert offs.tolist() == sorted(offs.tolist())
        # two groups of two columns: group 0 draws candidates 0 to 2 (column 1
        # at step 1, column 0 at step 2) before group 1 draws candidate 3
        # (column 2 at step 0) and 4 to 6 (column 3 at step 1)
        counts = np.zeros((2, 3, 2), dtype=np.int64)
        counts[0, 1, 1], counts[0, 2, 0], counts[1, 0, 0], counts[1, 1, 1] = 2, 1, 1, 3
        p, offs, _, _, bounds, step_first = _per_step_schedule(cell_lists(counts, u), 3, 2, 3, 1, 1.0, 1.0)
        assert p.tolist() == [0, 0, 0] and step_first == [0, 0, 3, 3]
        assert offs.tolist() == sorted(u[[12, 15, 18]].tolist())
        # the window [1, 3) in step order: column 2 at step 0 as path 1, then
        # column 1's two candidates at step 1 as path 0
        p, offs, _, _, bounds, step_first = _per_step_schedule(cell_lists(counts, u), 3, 2, 1, 2, 1.0, 1.0)
        assert p.tolist() == [1, 0, 0] and step_first == [0, 1, 3, 3]
        assert offs[0] == u[9] and sorted(offs[1:].tolist()) == sorted(u[[0, 3]].tolist())


class TestReproducibility:
    def test_same_seed_bitwise(self, ex_balanced):
        p = en.SimParams.from_scenario(ex_balanced, n_paths=128, horizon=5.0)
        a = en.monte_carlo(ex_balanced, p, coupled=True)
        b = en.monte_carlo(ex_balanced, p, coupled=True)
        assert a.to_dict() == b.to_dict()

    def test_single_path_equals_mc_of_one(self, ex_balanced):
        p = en.SimParams.from_scenario(ex_balanced, n_paths=1, horizon=5.0)
        summ = en.monte_carlo(ex_balanced, p, coupled=False)
        path = en.simulate_hybrid(ex_balanced, p, 0)
        x2 = (path.X[::50, 0] ** 2)
        assert np.allclose(summ.mean_x2[: len(x2)], x2, atol=1e-14)

    @pytest.mark.parametrize("coupled", [False, True], ids=["marginal", "coupled"])
    def test_skeleton_counts_follow_the_recorded_path(self, coupled, tmp_path, capsys):
        # mc of one path counts the observation-epoch transitions of the path
        # that simulate records, on every chain the run moves
        fx = str(FIXTURES / "linear_feedback.json")
        out = tmp_path / "mc.json"
        flag = ["--coupled"] if coupled else []
        assert cli.main(["mc", fx, *flag, "--paths", "1", "--out", str(out)]) == 0
        counts = json.loads(out.read_text())["skeleton_counts"]
        sc = sn.load_scenario(fx)
        p = en.SimParams.from_scenario(sc, n_paths=1)
        path = (en.simulate_coupled if coupled else en.simulate_hybrid)(sc, p, 0)
        cols = {"lambda": path.lam}
        if coupled:
            cols |= {"lambda_star": path.lam_star, "lambda_bar": path.lam_bar}
        assert counts.keys() == cols.keys()
        for name, col in cols.items():
            obs = col[:: p.obs_every] - 1
            want = np.zeros((sc.M, sc.M), dtype=int)
            np.add.at(want, (obs[:-1], obs[1:]), 1)
            assert counts[name] == want.tolist(), name
        assert want.sum() == p.n_steps // p.obs_every
        assert want[0, 1] > 0 and want[1, 0] > 0

    def test_path_noise_independent_of_path_count(self, ex_balanced):
        p1 = en.SimParams.from_scenario(ex_balanced, n_paths=1, horizon=2.0)
        p2 = en.SimParams.from_scenario(ex_balanced, n_paths=64, horizon=2.0)
        a = en.simulate_hybrid(ex_balanced, p1, 0)
        b = en.simulate_hybrid(ex_balanced, p2, 0)
        assert np.array_equal(a.X, b.X)
        assert a.jumps == b.jumps

    def test_workers_do_not_change_results(self, ex_balanced):
        p1 = en.SimParams.from_scenario(
            ex_balanced, n_paths=96, horizon=3.0, chunk_size=32, workers=1
        )
        p2 = en.SimParams.from_scenario(
            ex_balanced, n_paths=96, horizon=3.0, chunk_size=32, workers=3
        )
        a = en.monte_carlo(ex_balanced, p1, coupled=True)
        b = en.monte_carlo(ex_balanced, p2, coupled=True)
        assert a.to_dict() == b.to_dict()

    def test_cli_import_leaves_the_pool_out(self):
        # only a run with several workers imports the process pool, and only
        # a run of several step blocks over several path groups the thread
        # pool; a fresh interpreter shows what importing the CLI loads
        code = "import sys, switchsde.cli; print('concurrent.futures' in sys.modules)"
        env = os.environ | {"PYTHONPATH": str(Path(en.__file__).resolve().parents[1])}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        assert proc.stdout.strip() == "False"


class TestDrawAhead:
    """A run of several step blocks over several path groups draws block
    b + 1 on one helper thread while block b steps; block 0 is drawn inline,
    a run of one block or of one group starts no thread, and no thread
    outlives the run, whether it returns or raises."""

    @pytest.mark.parametrize("n_paths, horizon, ahead", [(130, 1.6, True), (130, 0.2, False), (64, 1.6, False)],
                             ids=["four-blocks", "one-block", "one-group"])
    def test_blocks_after_the_first_are_drawn_on_one_helper(self, n_paths, horizon, ahead, monkeypatch):
        draw, where = en._draw_candidates, []
        monkeypatch.setattr(en, "_draw_candidates", lambda *a: where.append(threading.get_ident()) or draw(*a))
        sc = sn.load_scenario(str(FIXTURES / "linear_feedback.json"))
        p = en.SimParams.from_scenario(sc, n_paths=n_paths, horizon=horizon)
        before = threading.active_count()
        en.monte_carlo(sc, p, coupled=True)
        assert threading.active_count() == before
        groups, blocks = -(-n_paths // en._GROUP), -(-p.n_steps // en._STEP_BLOCK)
        assert len(where) == groups * blocks and (blocks > 1 and groups > 1) == ahead
        main, helpers = threading.get_ident(), set(where[groups:])
        assert where[:groups] == [main] * groups
        assert (main not in helpers and len(helpers) == 1) if ahead else helpers <= {main}

    def test_bytes_hold_at_a_short_switch_interval(self, tmp_path, capsys):
        # the handoff of each block's buffer and draws, with the interpreter
        # switching threads as often as it can
        size, _, _ = BLOCK_BOUNDARY_SIZES["four_blocks"]
        out = tmp_path / "mc.json"
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(2):
                assert cli.main(["mc", str(FIXTURES / "linear_feedback.json"), *size, "--out", str(out)]) == 0
                assert hashlib.sha256(out.read_bytes()).hexdigest() == BLOCK_BOUNDARY_GOLDEN["four_blocks"][1][0]
        finally:
            sys.setswitchinterval(interval)
        capsys.readouterr()

    @pytest.mark.parametrize("n_paths", [8, 130])
    def test_no_thread_outlives_a_failed_run(self, n_paths):
        # test_overflow_reported's scenario fails in step block 2 of 4, on
        # one path group and on three
        sc = load(no_switching(
            drift=[["300*x1"], ["300*x1"]], step=0.01, horizon=10.0,
            coefficient_bounds={"C": [600.0, 600.0], "c": [600.0, 600.0], "Ma": 300.0},
        ))
        before = threading.active_count()
        with pytest.raises(en.EngineError) as err:
            en.monte_carlo(sc, en.SimParams.from_scenario(sc, n_paths=n_paths))
        assert threading.active_count() == before
        assert str(err.value) == "non-finite state at t=5.09, path 0 (overflow)"


WIDTHS = (1, 7, 64, 2048, 8192)
# a coupled run on the matrix route and a marginal run with switching
WIDTH_CASES = [pytest.param("three_state_rational", True, id="coupled"),
               pytest.param("two_state_trig", False, id="marginal")]


def _assert_close(a, b, rel=1e-12):
    """Equal integers and strings; floats within rel, entry by entry."""
    if isinstance(a, dict):
        assert a.keys() == b.keys()
        for k in a:
            _assert_close(a[k], b[k], rel)
    elif isinstance(a, list):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _assert_close(x, y, rel)
    elif isinstance(a, float):
        assert abs(a - b) <= rel * abs(a), (a, b)
    else:
        assert a == b


class TestWidthInvariance:
    """Streams are keyed by groups of 64 paths, so a path's realization does
    not depend on chunk_size, on n_paths or on the worker count."""

    @pytest.mark.parametrize("name, coupled", WIDTH_CASES)
    def test_simulate_ignores_width_and_path_count(self, name, coupled):
        sc = sn.load_scenario(str(FIXTURES / f"{name}.json"))
        sim = en.simulate_coupled if coupled else en.simulate_hybrid
        seen = set()
        for n_paths in (38, 100, 3000):
            for width in WIDTHS:
                p = en.SimParams.from_scenario(sc, n_paths=n_paths, horizon=3.0, chunk_size=width)
                path = sim(sc, p, 37)
                cols = (path.X, path.lam, path.lam_star, path.lam_bar)
                seen.add((*(c.tobytes() for c in cols if c is not None), repr(path.jumps)))
                assert path.jumps["lambda"]
        assert len(seen) == 1

    @pytest.mark.parametrize("name, coupled", WIDTH_CASES)
    def test_mc_bytes_ignore_workers_and_aligned_widths(self, name, coupled):
        # the float statistics are kept per piece of a 64-path group and
        # reduced once in group order, so widths that are multiples of 64
        # give the same bytes; narrower widths split the groups and agree up
        # to rounding.  300 paths end in a partial group of 44
        sc = sn.load_scenario(str(FIXTURES / f"{name}.json"))

        def mc(width, workers=1):
            p = en.SimParams.from_scenario(sc, n_paths=300, horizon=3.0, chunk_size=width, workers=workers)
            return json.dumps(en.monte_carlo(sc, p, coupled).to_dict())

        aligned = {mc(width, workers) for width in (64, 128, 2048, 8192) for workers in (1, 2)}
        assert len(aligned) == 1
        doc = json.loads(aligned.pop())
        for width in (1, 7):
            one = mc(width)
            assert mc(width, 2) == one, width
            _assert_close(doc, json.loads(one))


class TestOccupationBooking:
    def test_remainders_follow_the_per_call_order_on_each_piece(self):
        # h times the whole steps, added last, hides the rounding of the
        # times left in the steps, so compare those directly with the
        # per-call reference, piece by piece: paths 60 to 67 lie in two
        # 64-path groups.  Random moves, logged in the per-step order or
        # shuffled, with two calls of a round on chains 0 and 2
        sc = load(three_state_constant())
        route, env, _ = en.choose_route(sc)
        params = en.SimParams.from_scenario(sc, n_paths=100)
        steps, h = 40, params.h
        for shuffled in (False, True):
            rng = np.random.default_rng(11)
            start = rng.integers(0, 3, (3, 8))
            refs = [PerCallBooking(start[:, :4], 3, h), PerCallBooking(start[:, 4:], 3, h)]
            S, cand, log = start.copy(), [], []  # cand: (path, offset, step, round)
            for k in range(steps):
                for ref in refs:
                    ref.step()
                for rnd in range(rng.integers(1, 4)):
                    base, offs = len(cand), h * rng.random(8)  # a candidate of every path
                    cand += zip(range(8), offs, [k] * 8, [rnd] * 8)
                    for call, row in enumerate((1, 2, 0, 2, 0, 2)):
                        pj = np.sort(rng.choice(8, rng.integers(0, 7), replace=False))
                        new = rng.integers(0, 3, len(pj))
                        moved = S[row, pj] != new
                        if moved.any():
                            log.append((row, call, base + pj[moved], S[row, pj[moved]], new[moved]))
                        S[row, pj] = new
                        for half, ref in enumerate(refs):
                            sel = pj // 4 == half
                            ref.apply(row, pj[sel] - 4 * half, new[sel], h - offs[pj[sel]])
            if shuffled:
                log = [(row, call, *(a[i:i + 1] for a in e)) for row, call, *e in log for i in range(len(e[0]))]
                rng.shuffle(log)
            block = en._ChunkRun(sc, params, range(60, 68), route, env)
            block._p, block._step, block._rnd = (np.array([c[i] for c in cand], dtype=np.int64) for i in (0, 2, 3))
            block._offs, block._log = np.array([c[1] for c in cand]), log
            block._book_block(start, 0, steps)
            for piece, ref in enumerate(refs):
                assert block.occ_steps[..., piece].tolist() == ref.steps.tolist()
                assert block.occ_rem[..., piece].tobytes() == ref.rem.tobytes()


class TestMerge:
    def test_se_x2_at_a_large_mean(self, ex_balanced):
        # |X|^2 is 1e8 + 0.1 on one piece and 1e8 - 0.1 on the other: the
        # variance 0.01 is below the rounding of (1e8)^2, so only the merged
        # deviations (Chan, Golub and LeVeque) recover it
        params = en.SimParams(tau=0.5, h=0.5, horizon=0.5, seed=1, n_paths=4)
        results = []
        for v in (1e8 + 0.1, 1e8 - 0.1):
            x2 = np.array([v, v])
            stats = np.zeros((3, 2, 1))  # one piece at both recording times
            stats[0], stats[1] = x2.sum(), ((x2 - x2.mean()) ** 2).sum()
            results.append(en._ChunkResult(
                sizes=np.array([2]), stats=stats, occupation=np.zeros((3, 2, 1)),
                skeleton_counts=np.zeros((3, 2, 2), dtype=np.int64), tail_exceed=0,
            ))
        summ = en._merge(results, ex_balanced, params, "marginal", [])
        assert summ.mean_x2.tolist() == [1e8, 1e8]
        assert np.allclose(summ.se_x2, np.sqrt(0.01 / 4), rtol=1e-6, atol=0)


class TestOccupationAverage:
    def test_constant_function(self, ex_balanced):
        p = en.SimParams.from_scenario(ex_balanced, n_paths=1, horizon=5.0, chunk_size=4)
        path = en.simulate_hybrid(ex_balanced, p, 0)
        assert en.occupation_time_average(path, [2.5, 2.5]) == pytest.approx(2.5)

    def test_manual_piecewise_integration(self):
        path = en.HybridPath(
            times=np.array([0.0, 1.0, 2.0, 3.0, 4.0]),
            X=np.zeros((5, 1)),
            lam=np.array([1, 1, 2, 2, 2]),
            lam_star=None,
            lam_bar=None,
            jumps={"lambda": [(1.25, 1, 2), (3.5, 2, 1)], "lambda_star": [], "lambda_bar": []},
            meta={},
        )
        got = en.occupation_time_average(path, [10.0, 20.0])
        want = (1.25 * 10 + 2.25 * 20 + 0.5 * 10) / 4.0
        assert got == pytest.approx(want)


class TestGuards:
    def test_param_validation(self, ex_balanced):
        with pytest.raises(en.EngineError, match="tau/h"):
            en.SimParams(tau=0.5, h=0.3, horizon=5.0, seed=1, n_paths=1)
        with pytest.raises(en.EngineError, match="need 0 < h"):
            en.SimParams(tau=0.5, h=0.7, horizon=5.0, seed=1, n_paths=1)
        # these once reached monte_carlo and died there with IndexError or
        # ZeroDivisionError
        for n_paths, chunk_size in [(0, 2048), (-3, 2048), (8, 0), (8, -4)]:
            with pytest.raises(en.EngineError, match="need n_paths, chunk_size >= 1"):
                en.SimParams.from_scenario(ex_balanced, n_paths=n_paths, chunk_size=chunk_size)
        # a negative stride once died in record_steps with IndexError
        for stride in (0, -1):
            with pytest.raises(en.EngineError, match=f"need record_stride >= 1, got {stride}"):
                en.SimParams.from_scenario(ex_balanced, record_stride=stride)
        assert en.SimParams.from_scenario(ex_balanced, record_stride=1).record_steps()[:3] == [0, 1, 2]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_reported(self):
        sc = load(
            no_switching(
                drift=[["300*x1"], ["300*x1"]], step=0.01, horizon=10.0,
                coefficient_bounds={"C": [600.0, 600.0], "c": [600.0, 600.0], "Ma": 300.0},
            )
        )
        p = en.SimParams.from_scenario(sc, chunk_size=4)
        with pytest.raises(en.EngineError, match="non-finite state"):
            en.simulate_hybrid(sc, p, 0)
        # the message names the requested path, not its column in the window
        p = en.SimParams.from_scenario(sc, n_paths=8)
        with pytest.raises(en.EngineError, match=r"path 5 \(overflow\)$"):
            en.simulate_hybrid(sc, p, 5)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverging_moments_reported(self, tmp_path, capsys):
        # |X| reaches about 1e90 by t = 3: finite, but |X|^4 overflows
        doc = make_scenario(drift=[["100*x1"], ["100*x1"]], horizon=3.0)
        sc = load(doc)
        with pytest.raises(en.EngineError, match="recording time t=3 "):
            en.monte_carlo(sc, en.SimParams.from_scenario(sc, n_paths=8))
        assert cli.main(["mc", write_scenario(tmp_path, doc), "--paths", "8"]) == 2
        assert "t=3 " in capsys.readouterr().err

    # the candidate time named for path 0 of 1 and for path 5 of 8
    BREACH_TIMES = {"marginal": ("0.0988676", "0.0505211"), "matrix": ("0.0274328", "0.0476781"),
                    "two_state": ("0.028397", "0.0546809")}

    @pytest.mark.parametrize("route", ["marginal", "matrix", "two_state"])
    def test_rate_bound_breach_reported(self, route, tmp_path, capsys):
        # rates 1 + x1^2 reach 10 at x = 3, far off the grid [-1, 1] on which
        # H = 2 is checked; with zero drift the path stays there
        doc = make_scenario(
            drift=[["0"], ["0"]], rates=[["0", "1 + x1^2"], ["1 + x1^2", "0"]],
            rate_bound=2.0, grid={"lo": -1.0, "hi": 1.0, "n": 41},
            initial={"x": [3.0], "state": 1}, horizon=200.0,
            coefficient_bounds={"C": [0.0, 0.0], "c": [0.0, 0.0], "Ma": 0.0},
        )
        if route == "two_state":
            doc["envelopes"] = {"qbar": [[-1, 1], [1, -1]], "qstar": [[-2, 2], [2, -2]]}
        sc = load(doc)
        if route == "marginal":
            assert sn.validate_scenario(sc).ok  # the grid check passes it
        coupled = route != "marginal"
        if coupled:
            assert en.choose_route(sc)[0] == route
        sim = en.simulate_coupled if coupled else en.simulate_hybrid
        # every path breaches; simulate advances and names the requested one,
        # at its first candidate in time, pinned verbatim so that the order in
        # which candidates and their rates are evaluated cannot change it
        for (n_paths, path), t in zip(((1, 0), (8, 5)), self.BREACH_TIMES[route]):
            with pytest.raises(en.EngineError) as err:
                sim(sc, en.SimParams.from_scenario(sc, n_paths=n_paths), path)
            assert str(err.value) == (
                f"exit rate 10 from state 1 exceeds declared bound H=2.0 at t={t}, x=[3.0], path {path}"
            )
        fx = write_scenario(tmp_path, doc)
        flag = ["--coupled"] if coupled else []
        assert cli.main(["simulate", fx, *flag, "--out", str(tmp_path / "p.csv")]) == 2
        assert cli.main(["mc", fx, *flag, "--paths", "8"]) == 2
        err = capsys.readouterr().err
        assert err.count("exceeds declared bound H=2.0 at t=") == 2
        assert err.count("x=[3.0], path ") == 2

    def test_path_index_range(self, ex_balanced):
        p = en.SimParams.from_scenario(ex_balanced, n_paths=4, horizon=2.0)
        with pytest.raises(en.EngineError, match="out of range"):
            en.simulate_hybrid(ex_balanced, p, 4)
