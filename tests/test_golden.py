"""Golden hashes of the engine's artifacts.

The sha256 of ``mc`` JSON and ``simulate`` CSV, with and without
``--coupled``, on every shipped fixture and on a generated six-state scenario
that takes the coupling-matrix route beyond M = 3, at 64 paths and horizon 1,
plus one coupled run over two chunks, runs that record the interior path
37 of 100, and generated scenarios whose drift or diffusion differs between
regimes, in one and two dimensions.  The sha256 of ``validate`` and
``envelopes`` JSON of every fixture and of the six-state scenario pins the
partial-sum domination reports.  A refactor that should not change behaviour
keeps these green; a change to the random stream or the step update changes
them on purpose and records the new hashes with the reason.  Every artifact
hash here was last re-recorded when the random streams were keyed by groups
of 64 paths and se_x2 began to merge per-chunk squared deviations.
"""

import hashlib
import json

import pytest

from switchsde import cli
from switchsde import engine, scenario
from tests.conftest import FIXTURES, make_scenario, write_scenario

SIZE = ["--paths", "64", "--horizon", "1"]

GOLDEN = {
    "lag_bound": (
        "333da5fdcd6438d64b5051618c0166a9e6b20aa63d48724ee0ba4adeec71dc11",
        "2c2f2ee0e5326c1b30a206e42028f25b4126edbe252f52dbafb80c4681b61a37",
    ),
    "linear_feedback": (
        "f27c9327b9334cd71fa3ae3b6716751070d9d5040bec65d6e97da13cef75302f",
        "ac9ab1a29337d518d6f27139040f02ced4472e412e77f3b1871423696e1af034",
    ),
    "linear_unstable": (
        "3c93db6d2da6f802854e5ca01b6e6f8c3791858e44817c44f4c0bc6301b7b8cf",
        "be1cdc14bc0e26dbd18b24855e41427deada7c720475a29db93543bca8dee874",
    ),
    "three_state_rational": (
        "f2fe4981b8f2e95f0b5c45407d1376fdadfd2e8ec1592eb61b48f669a76214a6",
        "7cd9a4d28031a75ab014285463f8ae10d5305488440ebfd816e67279cecdeb95",
    ),
    "two_state_balanced": (
        "1048be347660550d7afc518d1c3a1b25ae4aedd7044b8f6653a92b74721bbe59",
        "26557a19b3515584282ad515981795bd4277203b35fd64f2a0c9a75188ce27b9",
    ),
    "two_state_trig": (
        "97b83e7e6801a3c60a525b812d920bc6c4867e89cbb15f04f4a0adc4fbb3e8b6",
        "ecdce1e87414a8a0e2b140db2096fb69f2a424098ab79018cc76412c0b030cd6",
    ),
}


# the same runs without --coupled: the marginal route
GOLDEN_MARGINAL = {
    "lag_bound": (
        "f89bbd7a8fb2b360bbec08aa65f2b85ae449632d197f533d692edd1ce5e131b4",
        "8b24ab8c74d47b8f7a26aa74f18272dc81c092bb0955b7c468a3ee4a27426419",
    ),
    "linear_feedback": (
        "a7af03421c7f9768342314450b353f5f49d579539764f28d137b8e07f586c877",
        "fb75936cdc7bd06c96342f67c4b09fca8c787353611c3191907c6288c159de4e",
    ),
    "linear_unstable": (
        "a5346fee52006784469e65e8e7c57c647843208a31cb15e94e8c80c7bb71afa6",
        "db4f020b74ceeb336713c78fb867b2f3aa7d3f8a766208b902aa5025f595ab63",
    ),
    "three_state_rational": (
        "8e41dab1c735684db06061b8c69e447800f308d9cddef4a00ed0bff951b17032",
        "5c40156d815e3021165ef8f1b10549160a72407e78f0f48da370c8097418a3ba",
    ),
    "two_state_balanced": (
        "ce9b8407d331b08dc7aae5ce4a59eefd6fda08435ece30bf3c27cc22d3df19e4",
        "01cbd76926c6416dcd5c4fba12c93a9dee7800ff1d307c4e09b5fd367fdec19a",
    ),
    "two_state_trig": (
        "f1061e3bb3b659255cbbeb785e72fd6c6713b17758a83a0adb44daad67f47803",
        "8ac5265e62ec5ccac3e1f7caea78a66042145b446ad480bb79efc20de2dd3d26",
    ),
}


SIX_STATE_GOLDEN = (
    "4f5b4b8ab9c8801783b4c40562834fab443390b7ce41ec50fdeadf7f19a507a3",
    "68c63e7e60be17492cd2f0d94d9a16a4319395542878118d12da88a16dceb550",
)
SIX_STATE_GOLDEN_MARGINAL = (
    "7db58c9aea65ba36788af9631000061e74794d3a6bbc32d2fcd6a7ddf631bc47",
    "50203bc8d988535aad12608e9fb022631fe4e58eea79b6d6ebde57b1b2942ceb",
)


# mc --coupled over two chunks (2,048 paths and 52) and simulate of the last path
MULTI_CHUNK_GOLDEN = (
    "1df1491af3f232306007a79a53b8fec4295161547fce0f3a31320738f2b0a099",
    "78899bcb384d13f8533e23c349f0dee365225d839c43aedd38dea9b8aa01d2c5",
)


# (mc, simulate) of 100 paths recording path 37, for --coupled and for the
# marginal route
INTERIOR_GOLDEN = {
    "three_state_rational": (
        ("6652aa98b77a5410066a0ff5f19d490e7a48e6e26aac5d738a457e74f88e3fe1",
         "fef1aac0202148d4001fbf6a5252cb1d13c02822fa8635eaff51fd4e3c93c9cd"),
        ("a2c4800a7d763e9e8e3de63516b465d4c60ae3043f8d3854516ab33a64c0990f",
         "8462dfabe4a53a7e9df1773e49aadd5ca78c1ee426ea9415e69d59718de11d85"),
    ),
    "six_state": (
        ("87a6fc15843dd47c04ab5571034d581f86ed656865959fb6c6b9c8595d341372",
         "ac01c1ff9b0961cf1f4087aefb34d4e329ba871543ea151774c663be46c5b6a3"),
        ("f0a704d26160811749adce124097a2108db6c771f54e54266a30b7595a8fc4c5",
         "d83c21f9880b273b371168781122c7d919ca3a77f76bead277a0e43bc5b0df7a"),
    ),
}


# (mc, simulate) of the coefficient scenarios, for --coupled and for the
# marginal route; taken before the engine grouped regimes by coefficient tree
COEFFICIENT_GOLDEN = {
    "drift_2d": (
        ("b7034b0cc1c31606b6c0f917af1ce6683b73e8cdc4e952e5713fa1afac6c6306",
         "2806cd3c859f3b9a46d523e1f6a7b7056791a03dea8a9c9bc5ec634363c306ce"),
        ("3ff86fb5847b2e29c5402968c9e1929372b5ef7f906f0e924c017e50b9913950",
         "0fdd2fc5b1ef21e2e889820bcd25bbb2006ad6fba028e8a245601e4cc1fc44aa"),
    ),
    "sigma_1d": (
        ("71f0d8052d1117a03be5671d638ceaa8657c9e8d2ba61b9e2564a6d2c2f005d4",
         "593e25ea6e847ed8485cf4a286dc8d1c0efd9a7d21f2d8ffbcaf0430ba15c57a"),
        ("33d7557eec767b8f5d97675f473379e3229b4514cbc17bca7e8c9f6d4bd874a8",
         "b246a98961a5adcdba3c78a9018aa37e0517e535a76d3e1e187aad1d51e859f4"),
    ),
    "sigma_2d": (
        ("4216790073e7910d8bf5b9591063ea05c825d839c161ec817e61fc71abedb245",
         "64525d005e4d744e71d3cd7a3959c84b162e038ed1d97fba830c0596ab4af68e"),
        ("40b2972a70fdff4c2abdefdc5c1586a84cd1dd3277a8528d574eba3a6bb68e4c",
         "69847221d8f38e40ac1aeb6eea6c50f66b509bf60f2bcfe9fb98aa651512df20"),
    ),
}


# (validate, envelopes) JSON of every fixture and of the six-state scenario:
# they carry the partial-sum domination reports, and three_state_rational's
# upper envelope has a deficit, so its reports list a violation; taken before
# check_domination summed in place, except the envelopes hashes of
# three_state_rational and six_state, re-recorded when `envelopes` began to
# print the grid-derived pair (grid_envelopes) for every M, not only M = 2
DOMINATION_GOLDEN = {
    "lag_bound": (
        "c6d61fa820b51154d3a88de5740fa3b531a6622b00bfb14b49439777c2d3c514",
        "0aa1d54ba64be8a95f8667092bb29a43e07f4cff14c496193698dd3a3bc8d419",
    ),
    "linear_feedback": (
        "8d9dc97adb82073564f4cd64b7470fba3313d9d8e3af3a426eaf21e4d68ae9f7",
        "28fdf665703b2f3365392a739ae1cc80b27f12c2481f2f69e07128557d7268b1",
    ),
    "linear_unstable": (
        "aad66383b39f8a3b53cd526a2548574f9de9acb284658cdf42f1ee68068f93d2",
        "2af284754fd961b65c6982558524eed341b3f938913414bd8868358346ba3925",
    ),
    "three_state_rational": (
        "3a6316cc4c39f759bac8807ec9c6f46cd2d9f2883f0d4cb2cfb1c7dcf435e0c7",
        "503d864cc4da2be0cbc4f5b3b470e79898ed2d3aa8df984f17c6a3d761b412e2",
    ),
    "two_state_balanced": (
        "4976bc3c11719c66009f8fa6cc250c4b155b4ac08e183f7d3474f1769138de4c",
        "ca2724475fb237944d1aa8ccfd4599e0290c7baa4d657fcdec35f5e5d2a528db",
    ),
    "two_state_trig": (
        "4a8ac4670203b75aa8becb70554df372446fb0d065b3c1055cae01e302a1ce38",
        "8327d83d740e8ce6cc2b2af9c46d232dd3d410768454245a521340da57f3be9c",
    ),
    "six_state": (
        "39fb31a6e9b22221bc855ce764b1ce6000718c2279b9b5376be12ca7c356e19c",
        "baba8315c33d6feec2e4586152c2ca752e6d133a51844dbd59224ae38172ea88",
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


def coefficient_scenario(name):
    """Scenarios whose coefficients differ between regimes, which no fixture
    has: a two-dimensional regime-dependent drift under a shared diffusion, a
    one-dimensional regime-dependent diffusion on three states (the drift
    shared by states 1 and 2, the diffusion by states 1 and 3), and a
    two-dimensional regime-dependent diffusion."""
    two_dim = dict(
        dimensions={"d": 2, "M": 2}, gains=[0.2, 0.5], rate_bound=1.5,
        rates=[["0", "1 + 0.5*sin(x1)^2"], ["1 + 0.5*cos(x2)^2", "0"]],
        initial={"x": [1.0, -0.5], "state": 1}, grid={"lo": -2.0, "hi": 2.0, "n": 441},
        coefficient_bounds={"C": [0.0, 0.0], "c": [-4.0, -4.0], "Ma": 2.0},
    )
    if name == "drift_2d":
        return make_scenario(
            drift=[["-1*x1", "-2*x2"], ["-0.5*x1 + 0.2*x2", "-1*x2 + 0.1*sin(x1)"]],
            diffusion=[[["0.2*x1", "0.1*x2"], ["0", "0.3*x2"]]] * 2, **two_dim,
        )
    if name == "sigma_2d":
        return make_scenario(
            drift=[["-1*x1", "-1*x2"]] * 2,
            diffusion=[[["0.2*x1", "0.1*x2"], ["0", "0.3*x2"]],
                       [["0.1*x1", "0"], ["0.2*x1", "0.2*x2*cos(x2)"]]],
            **two_dim,
        )
    doc = six_state_birth_death() | {
        "dimensions": {"d": 1, "M": 3},
        "drift": [["-1*x1"], ["-1*x1"], ["-0.5*x1"]],
        "diffusion": [[["0.3*x1"]], [["0.5*x1"]], [["0.3*x1"]]],
        "gains": [0.1, 0.2, 0.3],
        "coefficient_bounds": {"C": [-1.91, -1.75, -0.91], "c": [-1.91, -1.75, -0.91], "Ma": 1.0},
    }
    three = json.loads((FIXTURES / "three_state_rational.json").read_text())
    return doc | {k: three[k] for k in ("rates", "rate_bound", "envelopes")}


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


@pytest.mark.parametrize("coupled", [True, False], ids=["coupled", "marginal"])
@pytest.mark.parametrize("name", sorted(COEFFICIENT_GOLDEN))
def test_golden_regime_dependent_coefficients(name, coupled, tmp_path, capsys):
    fx = write_scenario(tmp_path, coefficient_scenario(name))
    got = _artifact_hashes(fx, tmp_path, capsys, coupled)
    assert got == COEFFICIENT_GOLDEN[name][0 if coupled else 1]


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


@pytest.mark.parametrize("name", sorted(DOMINATION_GOLDEN))
def test_golden_domination_reports(name, tmp_path, capsys):
    if name == "six_state":
        fx = write_scenario(tmp_path, six_state_birth_death())
    else:
        fx = str(FIXTURES / f"{name}.json")
    got = []
    for cmd in ("validate", "envelopes"):
        out = tmp_path / f"{cmd}.json"
        assert cli.main([cmd, fx, "--out", str(out)]) == 0
        got.append(_sha256(out))
    capsys.readouterr()
    declared = json.loads(out.read_text())["declared"]
    if name == "three_state_rational":
        assert declared["domination_upper"]["violations"]
    assert tuple(got) == DOMINATION_GOLDEN[name]
