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
hash here was re-recorded when the random streams were keyed by groups of 64
paths and se_x2 began to merge per-chunk squared deviations.  Those of the
marginal and coupling-matrix routes were re-recorded once more when every
row's mark block began at 0, so that these routes thin at H (plus Hbar + Hstar
on the matrix route) instead of M*H; the coupled hashes of lag_bound,
linear_feedback, linear_unstable and two_state_balanced, which take the
two-state interval route and keep its 2H mark space, did not change.  A
simulate hash of a path with no jump in either stream also stayed.
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
        "7c2828ad3c6f3d67ad9560aaa012a063a6fb3359b267a86a1474ea6e919afa2b",
        "423c4762afcc2a63b7a7b525ce73aa3b049aa23a71656a3c733a576e6c650e7c",
    ),
    "two_state_balanced": (
        "1048be347660550d7afc518d1c3a1b25ae4aedd7044b8f6653a92b74721bbe59",
        "26557a19b3515584282ad515981795bd4277203b35fd64f2a0c9a75188ce27b9",
    ),
    "two_state_trig": (
        "92849a016e3b226087adc2a30802ed5e0dc14d9631610217f805a29fa00c13ee",
        "6dba509f2668a402781ba4d1a9fdab480356e495fe55fb95a7309eabf3198aa1",
    ),
}


# the same runs without --coupled: the marginal route
GOLDEN_MARGINAL = {
    "lag_bound": (
        "a149246f28517dbfecb078bc9c487d8090e8fe28136d4183c701947af61405cb",
        "2a8b281066767001b30bd68803fd5d1a2a1b889ac18a80329635d2211c965b6b",
    ),
    "linear_feedback": (
        "f305a32d9b2b4ac4d3b25ab3e6d522ac9a31577eeaf3e78b67e4f5ed243c825b",
        "4dde70309a708bc0608a792fa76f15ac93f663b8b8b5e8f302b2b3271c38d07d",
    ),
    "linear_unstable": (
        "15a6d2b4bc4c37f09a30727496b6d0f839c43ab2fb7b3073b8ea10fee5f0e0d5",
        "4d1604e06af8e34bc16678c21c49af075c5d0fbd5c8db909549f18db9f0bf816",
    ),
    "three_state_rational": (
        "af7685198c4fb066dd20d375d59bd68a3de26ee39b31409639e90fabfa04bbcd",
        "1c967d9a62fbb244a1d499cdbe491dbf360e2e3237f72bac41a184eb4dd3768e",
    ),
    "two_state_balanced": (
        "3e51552c6ce6f5840af7a337497c1ef2dc304492daa7794902d325ed600a9549",
        "4219bcd3f6eb41af19020b8c1efdc0d2ea80642df2b84df74bf4b15d2e8a55d3",
    ),
    "two_state_trig": (
        "04fb705caebd7010728088eee98074361d1a92a2816da407b57b5fc12aabcc86",
        "8ac5265e62ec5ccac3e1f7caea78a66042145b446ad480bb79efc20de2dd3d26",
    ),
}


SIX_STATE_GOLDEN = (
    "b3546bc7d07d30af2178ec0011b6e7e2c354b04f4b6784c41fe88777728557b5",
    "68c63e7e60be17492cd2f0d94d9a16a4319395542878118d12da88a16dceb550",
)
SIX_STATE_GOLDEN_MARGINAL = (
    "60f42e7469e5fbd88fd03eff6d4fbe61b08f9ab8aa2818815ed0c975c407d10e",
    "21f33618f943b54062128b0e5c8026fd35f8554832e3b461541260618f151a16",
)


# mc --coupled over two chunks (2,048 paths and 52) and simulate of the last path
MULTI_CHUNK_GOLDEN = (
    "759e50ba821f6066ce6a443e5c18904a67a472269f253439f086572a17a376de",
    "9456889e95b15bc53c43a525c6fa63c5cf24c2821b8039a64fc949beb3553725",
)


# (mc, simulate) of 100 paths recording path 37, for --coupled and for the
# marginal route
INTERIOR_GOLDEN = {
    "three_state_rational": (
        ("a0ffea64bd4fb0b814770c52163b1a40fec5066262f9affed734e58067155307",
         "b3da79bc4c65bca512a83be9f32dc6418dc1f5c42a91ab009928ad9953c06582"),
        ("f50cef1ed89729b729f595d1c2a45f0cda0fea1918707b14658423628cc9c2da",
         "5967389eb42abcc742efe76c8158166cd1f765402047fd5c300293956220950c"),
    ),
    "six_state": (
        ("f66ebd848fa4abc6f4a5274af7ce86985a4562b2d50d2b032d3cb1aebb25d470",
         "e05ea546a16329490614db9a8533fe52c2eb1f533b27b2ec8fd0f21e7740c4c0"),
        ("0f276468960a4c4dce05091e3faa8f6783f2fef3417c0ef9be589be1330642b0",
         "af0b8ff8107388a8b1e5799be3fe9e502c2c21f43e4871377f5b1c29f6316f3c"),
    ),
}


# (mc, simulate) of the coefficient scenarios, for --coupled and for the
# marginal route; taken before the engine grouped regimes by coefficient tree
COEFFICIENT_GOLDEN = {
    "drift_2d": (
        ("172841eb892f2b9e1f9cdc0d55f3da8dcc7906d1c5d1f6c7324a3142fcb71561",
         "2806cd3c859f3b9a46d523e1f6a7b7056791a03dea8a9c9bc5ec634363c306ce"),
        ("ec8f0ac99f9d87303182a1b3f33c1b362446585384b6a2b436705b601a68a31c",
         "d569350f9f2c77ce9cbd1ffc78ebdc19401059625b73dd48ebd8b833963fb7e3"),
    ),
    "sigma_1d": (
        ("1cceb0a7e680b925b3077e013dac3fe18eb1bc27e697e41b8e41d9e631f984a4",
         "07f5b7d0f77447078479153a5981ebd60c88681c277b7615885bf71b61ed4c04"),
        ("39835a08c8177d7957e9b61c0c2429223998c5af07404381f5234a2fc3592149",
         "453d6f2eb285fb3595636d0b5f91c7375433447b327964d792afbc2f645cf7dd"),
    ),
    "sigma_2d": (
        ("9d92096b10b054ba22c952e53ae65f355285325f76a1f1d7923955d9242b1093",
         "64525d005e4d744e71d3cd7a3959c84b162e038ed1d97fba830c0596ab4af68e"),
        ("e850622519b20bf9937a716b34480e8132dc153d4b6d94b267a71ee309b9455d",
         "3f826dfd203129893305eac96475b3b8b47f91b3a6629edd4ffd9abf026b4dac"),
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
