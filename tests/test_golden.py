"""Golden hashes of the engine's artifacts.

The sha256 of ``mc`` JSON and ``simulate`` CSV, with and without
``--coupled``, on every shipped fixture and on a generated six-state scenario
that takes the coupling-matrix route beyond M = 3, at 64 paths and horizon 1,
plus one coupled run over two chunks and runs that record the interior path
37 of 100.  A refactor that should not change behaviour keeps these green; a
change to the random stream or the step update changes them on purpose and
records the new hashes with the reason.
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


# the same runs without --coupled: the marginal route (mc hashes re-recorded
# when marginal runs began to count the skeleton transitions of lambda)
GOLDEN_MARGINAL = {
    "lag_bound": (
        "da7f7401d20a53d087489e88d23910c9230974e542143ac9e3aedf039a436fee",
        "d0aafd49fa5128eba29f38f8f39e2f2cd92dd60a38511d8dd61861dc9e521585",
    ),
    "linear_feedback": (
        "f3bc5a83f72be506f0433cf87d6e74f93eb7a5a0fdfee702a32cfbcfc52f38af",
        "75b9ed08ab8cdf42d661cb794799e4c97c788e412e2a8683bac2d28372c1276c",
    ),
    "linear_unstable": (
        "fe2cbfc4fea2ea2b79407da2bbe47ca4a78384ce538a5d7d7095a81150bb395b",
        "61d453936812a5404bc059237f5ed59eecf9af99339f469b4d7f2041d06b24cb",
    ),
    "three_state_rational": (
        "f352a0c23706a11c4177823eccb6d4747ab2c50e4b5a6c4887de6218cff90ea3",
        "604f4225625095ab35bd6d76931d9cc5cccae943ce4fdbd2bbf5f099a319bbb0",
    ),
    "two_state_balanced": (
        "d3717273edde62cadb14982898cbe30753b6c74bd83cf611d19a473b780bc32c",
        "713deaedc32b84f295b5a3f90d143a5a62b2c33639f4d24fdfe31cb3904d0986",
    ),
    "two_state_trig": (
        "e22e6534182e7db64ae22c49dde473cc47289633f38f33139d4257a716d4c983",
        "d4e613667ac7840c5e4b8ba0fc5979cc04d9dbffdd7bc80ccb39ad7565d69c16",
    ),
}


SIX_STATE_GOLDEN = (
    "894cc5f095846a65abbc60d0ea66bdd5c42324d4a3c880d7abc8e82c9dfa39fd",
    "cc3beaae1558aeb386115fa36285c0a7a96ad12f2f1a46b59b90e3519780a83c",
)
SIX_STATE_GOLDEN_MARGINAL = (
    "61c56ca548ce27d878a88b18d9344d4c5dc74a2f8ec9cb5a6837f97b0bde0a31",
    "b4c6e717c2211e2d30b2de3f0f7e7114eb566cdebe3aa2ed9730970b7f67353e",
)


# mc --coupled over two chunks (2,048 paths and 52) and simulate of the last path
MULTI_CHUNK_GOLDEN = (
    "c9e76fee6acf76095dd322d3dfc2ffdbc521e30361b47da8c0c621147011aeff",
    "2202ebcfa4c12161f9b9296a6e05d4e5872c43837111e346fe64f85871111403",
)


# (mc, simulate) of 100 paths recording path 37, for --coupled and for the
# marginal route; taken while simulate still advanced the whole chunk
INTERIOR_GOLDEN = {
    "three_state_rational": (
        ("9b3eb9063fc4da86e74a6e365920be362b009be8478822dd26179b7ef8495978",
         "76339f60263f281a90fbbf883bb59bd2e614a4ab6ab8313a56d27ad779896ce9"),
        ("37f9bf784f2126155d9339be183ac78208eab961135355580c8d1af79d02f56f",
         "e4338cf6008eb1410d79280502a2f4164d62ca672d63d6ebcf38c67697c0c308"),
    ),
    "six_state": (
        ("f86f9668ccb8c2932e2779a8ee950a15dcc42ce2f0043063d96c3f61e96d265d",
         "666716ddf597635bc309ade33ae46809458c8eca748df67841700a52c8347c30"),
        ("d6858876d8d28138070cecec9a8cb0e570f852cc6372b39d00c2eba10ebac621",
         "044cd69703d0c7c8a5b91548678533ee5b7595922a8750fc201072cbe270de5a"),
    ),
}


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


def _artifact_hashes(fx, tmp_path, capsys, coupled, size=SIZE, path_index=0):
    mc_out, sim_out = tmp_path / "mc.json", tmp_path / "path.csv"
    flag = ["--coupled"] if coupled else []
    assert cli.main(["mc", fx, *flag, *size, "--out", str(mc_out)]) == 0
    sim = ["simulate", fx, *flag, *size, "--path-index", str(path_index)]
    assert cli.main([*sim, "--out", str(sim_out)]) == 0
    capsys.readouterr()
    return _sha256(mc_out), _sha256(sim_out)


@pytest.mark.parametrize(
    "name, coupled",
    [pytest.param(name, True, id=name) for name in sorted(GOLDEN)]
    + [pytest.param(name, False, id=f"{name}-marginal") for name in sorted(GOLDEN_MARGINAL)],
)
def test_golden_artifacts(name, coupled, tmp_path, capsys):
    fx = str(FIXTURES / f"{name}.json")
    want = GOLDEN[name] if coupled else GOLDEN_MARGINAL[name]
    assert _artifact_hashes(fx, tmp_path, capsys, coupled) == want


def test_golden_six_state_matrix_route(tmp_path, capsys):
    fx = write_scenario(tmp_path, six_state_birth_death())
    assert engine.choose_route(scenario.load_scenario(fx))[::2] == ("matrix", [])
    assert _artifact_hashes(fx, tmp_path, capsys, coupled=True) == SIX_STATE_GOLDEN
    assert _artifact_hashes(fx, tmp_path, capsys, coupled=False) == SIX_STATE_GOLDEN_MARGINAL


def test_golden_multi_chunk(tmp_path, capsys):
    fx = str(FIXTURES / "three_state_rational.json")
    size = ["--paths", "2100", "--horizon", "1"]
    got = _artifact_hashes(fx, tmp_path, capsys, coupled=True, size=size, path_index=2099)
    assert got == MULTI_CHUNK_GOLDEN


@pytest.mark.parametrize("coupled", [True, False], ids=["coupled", "marginal"])
@pytest.mark.parametrize("name", sorted(INTERIOR_GOLDEN))
def test_golden_interior_column(name, coupled, tmp_path, capsys):
    if name == "six_state":
        fx = write_scenario(tmp_path, six_state_birth_death())
    else:
        fx = str(FIXTURES / f"{name}.json")
    size = ["--paths", "100", "--horizon", "1"]
    got = _artifact_hashes(fx, tmp_path, capsys, coupled, size=size, path_index=37)
    assert got == INTERIOR_GOLDEN[name][0 if coupled else 1]
