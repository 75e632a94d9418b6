"""Golden hashes of the engine's artifacts.

The sha256 of ``mc --coupled`` JSON and ``simulate --coupled`` CSV on every
shipped fixture, and on a generated six-state scenario that takes the
coupling-matrix route beyond M = 3, at 64 paths and horizon 1.  A refactor
that should not change behaviour keeps these green; a change to the random
stream or the step update changes them on purpose and records the new hashes
with the reason.
"""

import hashlib

import pytest

from switchsde import cli
from switchsde import engine, scenario
from tests.conftest import FIXTURES, write_scenario

SIZE = ["--paths", "64", "--horizon", "1"]

GOLDEN = {
    "lag_bound": (
        "271f98040b02e77095fc69040da72ccdb137f6298c98484dbda9a63154fffa82",
        "df28e32e5ebec47302c2361c20545cb9ed6c50a1a44ceafbc97775e64548f856",
    ),
    "linear_feedback": (
        "435f28a6ba30767ea49eee6a747b3aad75842ec97ea69711de9b9084ec801244",
        "7aa09c31f18ab146dc8769e41149cdb59b784819cdfd3d02d12003d23dc7ac9b",
    ),
    "linear_unstable": (
        "346f6cfb9fba3c443909879bdcb0bc60b7a84544cd1c59a7c4052d8ec0ee6216",
        "b96e521137ae92573ddcb12c3ba0447c566347bd2f4c4315ae1aa675e1f45fa8",
    ),
    "three_state_rational": (
        "a171b04c9b861f32daa1c6414aefd7cf2ba8644a20d39b332b139c757bc06d32",
        "4f276b5d26101fffa43e5ac365e0959b2606f9753b67c1294416a8323f73b366",
    ),
    "two_state_balanced": (
        "3367e988613816101388070a49a530a6fd5c5059c867d0cb9c62fd65891c4777",
        "f849d2dfeb857480939e3af205b927843c5610ecd8626aaf81dc4e7d6a0bcf6b",
    ),
    "two_state_trig": (
        "c483ff1631f1a49720c615693691101d7963c7fabb19be3bcef2295399f818be",
        "b01bfda61a19fa5ec10d78a57c8561a10f85d8b24a774b7a77d23caec4e23d3f",
    ),
}


SIX_STATE_GOLDEN = (
    "894cc5f095846a65abbc60d0ea66bdd5c42324d4a3c880d7abc8e82c9dfa39fd",
    "cc3beaae1558aeb386115fa36285c0a7a96ad12f2f1a46b59b90e3519780a83c",
)


def six_state_birth_death():
    """Birth-death chain on six states with up rates 1 + 0.5 sin(x1)^2 and
    down rates 1 + 0.5 cos(x1)^2; the envelopes take the extreme rates, which
    gives the partial-sum domination of the coupling-matrix route."""
    M = 6
    rates = [["0"] * M for _ in range(M)]
    qbar = [[0.0] * M for _ in range(M)]
    qstar = [[0.0] * M for _ in range(M)]
    for i in range(M - 1):
        rates[i][i + 1], rates[i + 1][i] = "1 + 0.5*sin(x1)^2", "1 + 0.5*cos(x1)^2"
        qbar[i][i + 1], qbar[i + 1][i] = 1.5, 1.0
        qstar[i][i + 1], qstar[i + 1][i] = 1.0, 1.5
    for Q in (qbar, qstar):
        for i in range(M):
            Q[i][i] = -sum(Q[i])
    return {
        "dimensions": {"d": 1, "M": M},
        "tau": 0.5,
        "step": 0.01,
        "horizon": 1.0,
        "seed": 1,
        "paths": 64,
        "drift": [["-1*x1"]] * M,
        "diffusion": [[["0.3*x1"]]] * M,
        "gains": [0.0] * M,
        "rates": rates,
        "rate_bound": 3.0,
        "envelopes": {"qbar": qbar, "qstar": qstar},
        "coefficient_bounds": {"C": [-1.91] * M, "c": [-1.91] * M, "Ma": 1.0},
        "initial": {"x": [2.0], "state": 1},
        "grid": {"lo": -10.0, "hi": 10.0, "n": 401},
    }


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _artifact_hashes(fx, tmp_path, capsys):
    mc_out, sim_out = tmp_path / "mc.json", tmp_path / "path.csv"
    assert cli.main(["mc", fx, "--coupled", *SIZE, "--out", str(mc_out)]) == 0
    assert cli.main(["simulate", fx, "--coupled", *SIZE, "--out", str(sim_out)]) == 0
    capsys.readouterr()
    return _sha256(mc_out), _sha256(sim_out)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_artifacts(name, tmp_path, capsys):
    fx = str(FIXTURES / f"{name}.json")
    assert _artifact_hashes(fx, tmp_path, capsys) == GOLDEN[name]


def test_golden_six_state_matrix_route(tmp_path, capsys):
    fx = write_scenario(tmp_path, six_state_birth_death())
    assert engine.choose_route(scenario.load_scenario(fx))[::2] == ("matrix", [])
    assert _artifact_hashes(fx, tmp_path, capsys) == SIX_STATE_GOLDEN
