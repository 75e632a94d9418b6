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
simulate hash of a path with no jump in either stream also stayed.  Every
artifact hash of every route was re-recorded once more when the jump stream
began to draw a step block's candidates as one Poisson total per path group
with uniform cells, instead of one Poisson count per (step, path) cell; the
three simulate hashes of paths with no jump in either stream stayed.  The
sha256 of ``certify`` JSON, swept over tau and at each fixture's own tau, and
of one ``spectral`` run pin the certificate's bytes.  Runs of 600 steps on the
fixtures whose rates read x cross two step-block boundaries on every route.
The sha256 of one ``couple`` table, of every fixture's ``validate --echo`` on
stdout and of the metadata that ``simulate --coupled`` prints pin the
remaining ``canonical_json`` call sites of the CLI.  Every ``mc`` hash was
re-recorded once more when mc began to keep its float statistics per piece
of a 64-path group and to reduce the pieces once in group order, with the
occupation counted in whole steps plus the times left in the moves' steps:
the sums round in another order, every float moved by at most 5e-15
relative, and no integer, string or ``simulate`` byte moved.  Runs of
linear_feedback, whose rates read no x, over two full step blocks and over
four blocks in two chunks, the second also with two workers, pin the
boundaries between the step blocks' draws.  Every coupled hash of the
coupling-matrix route (GOLDEN and MULTI_BLOCK_GOLDEN of three_state_rational
and two_state_trig, and the six-state, coefficient, multi-chunk, interior
column and simulate-metadata runs) was re-recorded once more when the
envelope chains' lone moves began to share one mark space from L, so that
the route thins at H + max(Hbar, Hstar) instead of H + Hbar + Hstar; no hash
of the marginal or two-state interval route moved, nor the six-state
simulate hash, whose path jumps in neither stream.  Runs of two state-free
three-regime scenarios whose coefficients differ mostly in literals, with
``mc --record-stride 7`` over three step blocks, were recorded before the
engine evaluated the regimes of one coefficient shape once.
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
        "0d6ee45fbdf1de3b299c911c319cc725eaac2ba52355a4a25ea77beb11e59126",
        "471a7802af10dd84fce8fd3fdea601544e9b68e5f8e343faa62c15caa37e32e3",
    ),
    "linear_feedback": (
        "89ce48e75cdc1a2efcdde801acc309e6f2437d07c61195bd405d2cb6b2d82626",
        "f6d0f6792bdfe4a59abcb06dd60723e29fb02632823a8ee346ec5d1b9d7355a6",
    ),
    "linear_unstable": (
        "7195b45148f893145c313ae1fafd9629b6f144c45d344a2b042aa632d8deca08",
        "1138eadb8205e3e7124804d9125762d1b4b8a712a7e1360993265dfc7bc735ec",
    ),
    "three_state_rational": (
        "d9b10a532589d9e94b0a4f18516db09c1ed0f64241fd593d5ea500f02e3320ff",
        "e3793bb7af3487f30a166c08d1d9779075d6f5d57b4ce16854e6d0f18aaccda6",
    ),
    "two_state_balanced": (
        "a5c6560f86e3faf535384c9635853aa2aa1734c08597e454145df782d0264adb",
        "b2cca036a84649a3ded92fabac2e3d60622177323895702b8d6ef38109118270",
    ),
    "two_state_trig": (
        "6473f470519d48fdbe38e83aef3ffc3fad853455aa06be48e96d80e1de5c44ea",
        "4d3256e98b37647c87f4379e01e19ca04712cfbd905ffe374c1f5df88acc5b1b",
    ),
}


# the same runs without --coupled: the marginal route
GOLDEN_MARGINAL = {
    "lag_bound": (
        "699676882050cdfcdc5a045f092f64251f43f845ecd31f29ffd31e23eda8082f",
        "3864cf058d3f901f842b8a2d23f373219df6cf5fdbb50fad8a38e15c8b19e7f4",
    ),
    "linear_feedback": (
        "a8027a1a1687efb88e3bb335a12c95f065b1ae4dc36051d6b00989049a8191e7",
        "e797187d344912a77e57052ea3f0cc586821b0e3255bee441987d1175c4d11d7",
    ),
    "linear_unstable": (
        "ab669d5a861de59132a4118fd06fb3925d0e22a48d9540efd4e5fa405ba5c7a0",
        "5889fc8268b730fad5803bf90a4a369c45cdb232a8d86d0b4f81591b444d7483",
    ),
    "three_state_rational": (
        "92cb70a6cd0d5b38399da726b7f1a80e91e05096fb424639b5ada02dd5650e17",
        "5c76bcaac056708cd39a8bbc92b4814f91afcfaaae3101c92ec73dab9c8fa3d3",
    ),
    "two_state_balanced": (
        "c2b6547a2498f6e88d8b51ddef16973343f42debdb953d2e6f653f553d7c95b7",
        "9b6347228425c6ee58861d58e7a75a58f0b844260e402d316d7ac377111e30c3",
    ),
    "two_state_trig": (
        "ee64c542d2417472db9b568f98f186858b9eceedcc259cdfae156c76f8e797ee",
        "fdd3357de32231330275518ec3479927e6d6e4a77c08a5a64d1f1bfd32d7bfa8",
    ),
}


SIX_STATE_GOLDEN = (
    "57861ca4ea63c323c5a6a13119b9a47cfa157c3fb2544a38fbf48210f14d666c",
    "68c63e7e60be17492cd2f0d94d9a16a4319395542878118d12da88a16dceb550",
)
SIX_STATE_GOLDEN_MARGINAL = (
    "04ce8eca96bd4c68f70a6ae9e3664fe2f96ffd212b2f283682a5bb8dc9c4b7cb",
    "d5e7032cead0339018672a2b2cf7c20041b3469290de2e4f2edc70cd2085be38",
)


# mc --coupled over two chunks (2,048 paths and 52) and simulate of the last path
MULTI_CHUNK_GOLDEN = (
    "de0ba1a5ee6620fdc9ae7130cc8282efdf1468d65af002cef0f7a36a1f3583a9",
    "aa0c0fbcdf8023b32d2d07fe3bf21ccd47fc53d74bce8eb08d335070bc1b7fb3",
)


# (mc, simulate) of 100 paths recording path 37, for --coupled and for the
# marginal route
INTERIOR_GOLDEN = {
    "three_state_rational": (
        ("c46f451465fe03858b2a2ea6e4337ff1f53b622aba2a9f4edf37f28654cd1013",
         "7e9dc1af56d13491fd67952dfdf18164109d9021e20030020fa82a7ff1b576c8"),
        ("80cb1ca6ef5c8d40bd5b9b6c7bc860bebf469f734a3902a50ff9724502ad8295",
         "eec3f2ec03f7976bb571a75e892faadd257040c3ac83732ec23a2a90422d8ca2"),
    ),
    "six_state": (
        ("531b7da0b4666d14fe1340355a539795c43cd6d2eeb811e790fa70d4c279f1a1",
         "fcfa34b606629d9ebb3576323b777c4a0cfabb687992544fb925aa24d865bcd1"),
        ("8e66b1f96c70ccfbe7d4ccac97cad3b1124b4be40efc1b167d0b3364bbb02a93",
         "8bb817248c2e4a62904ab089a2035212edd391af8cdd0696f8da8daa889af22b"),
    ),
}


# (mc, simulate) of 100 paths over 600 steps (three step blocks) recording
# path 37, for --coupled and for the marginal route, on fixtures whose rates
# read x; taken before the per-step rounds booked the occupation once per
# step block
MULTI_BLOCK_GOLDEN = {
    "three_state_rational": (
        ("d8b8d38ea541ff1eed73eea09e614b5221fbad86ba1182cf3e49051121717fc8",
         "3b60d2d3ba74015c0cd8978835185a986da2cdf1e7248509c02c2f2d2f98012e"),
        ("7e443bfdf6c7c6040c2da364bf63e1e2b24cd4d397ad33fe57a8aadb1886d1b9",
         "70302b50649831beed2d1acb972d53c6f41a41261a32bea4260c9a50ee162bf2"),
    ),
    "two_state_balanced": (
        ("c6c4fc03595ca5073d892224041311dd1d1fc4a4529d092c5e78567bd9590eab",
         "0b4e9233fd7d489d4d70593341b57cec29fcbbb20de2927e407ad7248e99bd7f"),
        ("f1857dac4037050b4977e6904de141a557f8ee03014f5ca6534b49ab3a965d50",
         "7a6dd31367b19e74fa9de4229a52ed2ce5dc2e0cbad61c79c5b1a3510307d991"),
    ),
    "two_state_trig": (
        ("7ee8ed7065a0ff2ba2058e022edb47b979144ac79310b4e55d79262a395f0ef5",
         "2d2b3d92bafdb328f79a84aedb49a15b54c40e75c2fb9cf4aa5c1cca4f272fa8"),
        ("13498a51424a9b39c0d868ede5110519a3a1fc62cca61b8ed9e0e3d6c2f3d29a",
         "b7e44549f318803a2ef7a623bb0b258ac0bac3e6ddbffc06230129f71c381dc3"),
    ),
}


# (mc, simulate) of linear_feedback, whose rates read no x, for --coupled and
# for the marginal route: 100 paths over two full step blocks (512 steps)
# recording path 37, and 2,100 paths in two chunks over four blocks, the last
# one partial (800 steps), recording path 2099; taken before the next step
# block's draws ran on a helper thread while a block steps
BLOCK_BOUNDARY_SIZES = {  # (size, recorded path, steps)
    "two_blocks": (["--paths", "100", "--horizon", "1.024"], 37, 512),
    "four_blocks": (["--paths", "2100", "--horizon", "1.6"], 2099, 800),
}
BLOCK_BOUNDARY_GOLDEN = {
    "two_blocks": (
        ("8ed1d613f8b0b45cda930bb3faa65483bbcc128ddad18dd072df3a9eba827304",
         "2c2851bf318544d2584569330f51c5ce69f60a46567682e3c26d756be46fbfe5"),
        ("8007f0a1842fa6690eeb9e36a2e2888e7a388f64ad9a1ecf66167ef1e54e122a",
         "bc1386087a71035ebb4957df6104e17008e0a31d87bf3b07211b35512ab2b7c1"),
    ),
    "four_blocks": (
        ("04a0699c6ec3328fd476c7ba9e46fdf08c30b25887b9bc0d6c6e32a1d152a4d5",
         "2a3e4993c417d22063c7e77797e7c36a66f15c32581b150b8948b3c7969b0690"),
        ("84183fbd0794c80d4f1e0a7a4df8872c7da753f05c4f0dcb10bac94e27a4c050",
         "e818953d125b59fe45eaa21e10261695494d7c47c0c530eb97cb534666d7d9ae"),
    ),
}


# (mc, simulate) of the coefficient scenarios, for --coupled and for the
# marginal route; taken before the engine grouped regimes by coefficient tree
COEFFICIENT_GOLDEN = {
    "drift_2d": (
        ("7abd6aa9a6c4cb75d4524003cf15609325114cb99465fe7ab48b2831013aeb96",
         "67b6e73678a9616342bfe578fcffcf74005986417215cf65e50f2b2b65246497"),
        ("01c201af15e50e2f5b81bc94b43e7ad3cf362ba51860666e770ea0d69bd82ea9",
         "4311a7db34cce2ef74e6fe8aba1d25b5bfe3f0c2fe6aa63258c9743ccf6f6e8b"),
    ),
    "sigma_1d": (
        ("de8cc5f8f0efb1c8540d365363113540a859d96c83a38a1c674494b94c7bc82c",
         "2f69a69009ee3ac022335f4349bddee22149b48d282927102b96ebd4ffe9095a"),
        ("dd796769a200aa0bf2b44315ab14f2fbe5e4f5b58cd428373fb8cf6fd3a1fa67",
         "95a68a2dcb6c6eea862ba6cebddd7be4e14e8e79ee406542f98970e7a2746e36"),
    ),
    "sigma_2d": (
        ("ad011f1689f38ee4cf3e95b20c2061d5cf47611f8a0a1145053ec05d78c373bc",
         "22ec99412560159586096b35f88a9e78f15151bd302d95bda709ce3ab8b53be3"),
        ("518e8243cdad7e8b206075eb649cd5f8a3b11d397947f64d80b60540bd832fcf",
         "584cd01633839cc423eea3cc47fda469b20f7dff4cebfecaab6cd3763a7bf85d"),
    ),
}


# (mc --record-stride 7, simulate) of 100 paths over 650 steps (two full step
# blocks and a partial one) recording path 37, for --coupled and for the
# marginal route, on state-free scenarios whose regimes' coefficients differ
# only in literals (literal_scenario); taken before the engine evaluated the
# regimes of one coefficient shape once, with their literals read per path
LITERAL_SIZE = ["--paths", "100", "--horizon", "6.5"]
LITERAL_GOLDEN = {
    "d1": (
        ("91d0fd76fa781f3937aebae756e48ffb43ea1d751f08e9001a9b32b58e1bb3c8",
         "a5281c3b3c52a64e5c62af6e6f9b736350a42a220e765c5b58731900bee991ef"),
        ("09427d9af79a496f4272fc19c1b515dc762adbf922005ab9805e72c2654fffa6",
         "b27dbf8275aff25d26dd46e65d47efc5c96f95bfcc7e676c7edc7dda5b3a9a66"),
    ),
    "d2": (
        ("a43e2b1ce6fb11ce6c39d4530786b17cf0352daf9cae4997ffed72dbc2737d4e",
         "6e49637cbeb806e47d995e1b2cd00521264a643a3c3e3efd6ea317218ebce8f3"),
        ("2cc9f126a47e15048120bd093b8afed56eb75b58890c0ac8bd7e706a6daa0ada",
         "ac365cd6e851e6b0b3042a1fa651aba1d1e51560e2dfa33641168b671bab6425"),
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


# (certify --tau-sweep, certify at the fixture's own tau) JSON of every
# fixture, and one spectral run with an explicit tilt; taken before the sweep
# computed its skeletons and Perron roots as one stack over all its taus
CERTIFY_GOLDEN = {
    "lag_bound": (
        "151f451f19fa90fa6345247a055412ccc0f4f83fa80524db5d84133e0e84a9a7",
        "0c219d5b73999fbcafa6880e1371fe35438deb00b6fcae0a8289d37035948068",
    ),
    "linear_feedback": (
        "0917d3e11e03733fdfe2f183d4077c971c730f64e87d9181493882653a272c61",
        "e3b7041a8867f7a17c86893648a943578dadcc661594e238769a3cf693e776f3",
    ),
    "linear_unstable": (
        "7366b511ac3837db65fa7076cd32a80ed72393aa509c14f5929fa8243bd78401",
        "016ebde8b372e806b87c4c4d23ba5dad2efca51d247fa2d119dae0cd990b727a",
    ),
    "three_state_rational": (
        "6aaeeae40d7ac844757384d6c8d9311c4b016219b3f7934ccc3ce745e0bd0f33",
        "e2263ede20bf5e081f55c6d93761eb33867544eedca432a406b4a05604e5c3eb",
    ),
    "two_state_balanced": (
        "951818049f56de20e3dbc02c2e048796a160a8188b1f474cc11bed5bdbd71a2a",
        "1e48c048411bc964c869f7a8d07907523e05a7022d32b69892b2a88f86cfab29",
    ),
    "two_state_trig": (
        "e02004a2c2c946c3882071f7254cba49991fb4e38e709017d063ecf51c8dd129",
        "3c512cdfae4d106836701dd63d115bc80a2c7f3dd0d8165b1ed0cdd72efc2980",
    ),
}
SPECTRAL_ARGS = ["--theta", "0.3,-0.2,0.1", "--tau", "0.25"]
SPECTRAL_GOLDEN = "ac6d0c9248ade7ce7b02758ed4a4d1e2411efae1d1da6d7e8dba3a1c007b8ef7"


# couple --x 2.0 on three_state_rational, validate --echo on stdout, and the
# metadata simulate --coupled prints at SIZE with --out path.csv; taken before
# canonical_json stopped going through json.dumps
COUPLE_GOLDEN = "1127c5a07476f62144c057ac4f5451902b7ca090dcb0736ca7a6159f63ef6a65"
ECHO_GOLDEN = {
    "lag_bound": "489e461ef1b275abd263884024637d06526d4f496156da044704cb73ed1b26ed",
    "linear_feedback": "917363cf90f4aa6293ea43672a3bcd686ced23654e3702f636f8de00571ecb6a",
    "linear_unstable": "2e1f60d155bd02eae836a6b4a70f37a7eb61b7cc7c2fa6afe29477b1f0172286",
    "three_state_rational": "6f3620b5a9e768647ab5b9d3e89d50f530e8ace3c83d80cee66222dc550b6cbb",
    "two_state_balanced": "fded1c06de6be3778fbb34e2f13437acc6bd5ea14f6cfecd00445f59cb6182ea",
    "two_state_trig": "39c0a551acc79ccc8ddbaebbf6576f3979b765f26fd58f9ab763f089dde952a9",
}
SIMULATE_META_GOLDEN = {
    "lag_bound": "dda4d7464287b5d09bac342d55592c1905213fb59758066d2f923917052224d3",
    "linear_feedback": "a90595c78b97dcbc9b2c5e4dcddaf8dfb1c62e8a814408c91526d183fa035a6a",
    "linear_unstable": "6b7f794e3ae9b7938932efde860a2e8ece37c078650caa8a40b5f1124bed5c48",
    "three_state_rational": "0fd5f3a8fa7695d059d82fc2924ca244411a1af9449e1b248b056345c8c17ff5",
    "two_state_balanced": "af21b695d7b7e6049cd1cd389a24f83a88767e4bac75046a5349c18be44c79cd",
    "two_state_trig": "2a80c31ad4c5ddc7c16cc4b0cb01f092c2a2f7ea8aaeb24453f5c44d5e87b2f7",
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


def literal_scenario(name):
    """Three regimes with constant switching rates whose drift and diffusion
    differ between regimes mostly in literals: inside a call (sin(2*x1)
    against sin(3*x1)), as a call argument, as an exponent that differs
    between regimes and one that is equal, next to entries that one regime
    writes in another shape and entries that are one tree for all."""
    base = dict(
        gains=[0.2, 0.3, 0.5], rate_bound=2.0, step=0.01,
        rates=[["0", "1", "0.5"], ["0.7", "0", "1"], ["1", "0.4", "0"]],
        coefficient_bounds={"C": [0.0] * 3, "c": [-4.0] * 3, "Ma": 2.0},
    )
    if name == "d1":
        return make_scenario(
            drift=[["-1*x1 + 0.2*sin(2*x1) + 0.1*min(x1, 2)"], ["-1.5*x1 + 0.2*sin(3*x1) + 0.1*min(x1, 3)"],
                   ["-0.8*x1 + 0.2*sin(2*x1) + 0.1*min(x1, 2)"]],
            diffusion=[[["0.3*abs(x1)^1.5/(1 + x1^2)"]], [["0.2*abs(x1)^0.5/(1 + x1^2)"]],
                       [["0.3*abs(x1)^1.5/(1 + x1^2)"]]],
            dimensions={"d": 1, "M": 3}, initial={"x": [1.5], "state": 2}, **base,
        )
    return make_scenario(
        drift=[["-1*x1 + 0.2*sin(2*x1)", "-1*x2 + 0.1*abs(x1)^1.5"],
               ["-1.5*x1 + 0.2*sin(3*x1)", "-1*x2 + 0.1*abs(x1)^2"],
               ["-0.8*x1 + 0.3*sin(2*x1)", "-2*x2 + 0.1*cos(x1)"]],
        diffusion=[[["0.3*x1", "0.1*x2^2/(1 + x2^2)"], ["0.05*x1", "0.2*x2"]],
                   [["0.4*x1", "0.1*x2^2/(1 + x2^2)"], ["0.05*x1", "0.25*x2"]],
                   [["0.2*x1", "0.15*x2^2/(1 + x2^2)"], ["0.05*x1", "0.2*x2"]]],
        dimensions={"d": 2, "M": 3}, initial={"x": [1.5, -1.0], "state": 2},
        grid={"lo": -2.0, "hi": 2.0, "n": 441}, **base,
    )


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


@pytest.mark.parametrize("coupled", [True, False], ids=["coupled", "marginal"])
@pytest.mark.parametrize("name", sorted(MULTI_BLOCK_GOLDEN))
def test_golden_multi_block(name, coupled, tmp_path, capsys):
    fx = str(FIXTURES / f"{name}.json")
    sc = scenario.load_scenario(fx)
    assert not sc.rates.state_free and round(6 / sc.step) > 2 * engine._STEP_BLOCK
    size = ["--paths", "100", "--horizon", "6"]
    got = _artifact_hashes(fx, tmp_path, capsys, coupled, size=size, path_index=37)
    assert got == MULTI_BLOCK_GOLDEN[name][0 if coupled else 1]


@pytest.mark.parametrize("coupled", [True, False], ids=["coupled", "marginal"])
@pytest.mark.parametrize("name", sorted(BLOCK_BOUNDARY_GOLDEN))
def test_golden_block_boundaries(name, coupled, tmp_path, capsys):
    fx = str(FIXTURES / "linear_feedback.json")
    size, path_index, steps = BLOCK_BOUNDARY_SIZES[name]
    sc = scenario.load_scenario(fx)
    assert sc.rates.state_free and round(float(size[3]) / sc.step) == steps and engine._STEP_BLOCK == 256
    want = BLOCK_BOUNDARY_GOLDEN[name][0 if coupled else 1]
    assert _artifact_hashes(fx, tmp_path, capsys, coupled, size=size, path_index=path_index) == want
    if int(size[1]) > engine.SimParams.chunk_size:  # the chunks' bytes do not depend on the worker count
        out = tmp_path / "mc.json"
        flag = ["--coupled"] if coupled else []
        assert cli.main(["mc", fx, *flag, *size, "--workers", "2", "--out", str(out)]) == 0
        assert _sha256(out) == want[0]


@pytest.mark.parametrize("coupled", [True, False], ids=["coupled", "marginal"])
@pytest.mark.parametrize("name", sorted(LITERAL_GOLDEN))
def test_golden_literal_coefficients(name, coupled, tmp_path, capsys):
    fx = write_scenario(tmp_path, literal_scenario(name))
    sc = scenario.load_scenario(fx)
    assert sc.rates.state_free and 2 * engine._STEP_BLOCK < round(6.5 / sc.step) < 3 * engine._STEP_BLOCK
    mc_out, sim_out = tmp_path / "mc.json", tmp_path / "path.csv"
    flag = ["--coupled"] if coupled else []
    assert cli.main(["mc", fx, *flag, *LITERAL_SIZE, "--record-stride", "7", "--out", str(mc_out)]) == 0
    assert cli.main(["simulate", fx, *flag, *LITERAL_SIZE, "--path-index", "37", "--out", str(sim_out)]) == 0
    capsys.readouterr()
    assert (_sha256(mc_out), _sha256(sim_out)) == LITERAL_GOLDEN[name][0 if coupled else 1]


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


@pytest.mark.parametrize("name", sorted(CERTIFY_GOLDEN))
def test_golden_certificates(name, tmp_path, capsys):
    fx = str(FIXTURES / f"{name}.json")
    got = []
    for extra in (["--tau-sweep"], []):
        out = tmp_path / "certify.json"
        assert cli.main(["certify", fx, *extra, "--out", str(out)]) == 0
        got.append(_sha256(out))
    capsys.readouterr()
    assert tuple(got) == CERTIFY_GOLDEN[name]


def test_golden_spectral(tmp_path, capsys):
    out = tmp_path / "spectral.json"
    fx = str(FIXTURES / "three_state_rational.json")
    assert cli.main(["spectral", fx, *SPECTRAL_ARGS, "--out", str(out)]) == 0
    capsys.readouterr()
    assert _sha256(out) == SPECTRAL_GOLDEN


def _stdout_sha256(capsys, argv):
    capsys.readouterr()
    assert cli.main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def test_golden_couple(tmp_path, capsys):
    out = tmp_path / "couple.json"
    fx = str(FIXTURES / "three_state_rational.json")
    assert cli.main(["couple", fx, "--x", "2.0", "--out", str(out)]) == 0
    capsys.readouterr()
    assert _sha256(out) == COUPLE_GOLDEN


@pytest.mark.parametrize("name", sorted(ECHO_GOLDEN))
def test_golden_validate_echo(name, capsys):
    fx = str(FIXTURES / f"{name}.json")
    assert _stdout_sha256(capsys, ["validate", fx, "--echo"]) == ECHO_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(SIMULATE_META_GOLDEN))
def test_golden_simulate_metadata(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the metadata names the --out path
    fx = str(FIXTURES / f"{name}.json")
    argv = ["simulate", fx, "--coupled", *SIZE, "--out", "path.csv"]
    assert _stdout_sha256(capsys, argv) == SIMULATE_META_GOLDEN[name]
