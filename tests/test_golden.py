"""Golden hashes of the engine's artifacts.

The sha256 of ``mc --coupled`` JSON and ``simulate --coupled`` CSV on every
shipped fixture at 64 paths and horizon 1.  A refactor that should not change
behaviour keeps these green; a change to the random stream or the step update
changes them on purpose and records the new hashes with the reason.
"""

import hashlib

import pytest

from switchsde import cli
from tests.conftest import FIXTURES

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


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_artifacts(name, tmp_path, capsys):
    fx = str(FIXTURES / f"{name}.json")
    mc_out, sim_out = tmp_path / "mc.json", tmp_path / "path.csv"
    assert cli.main(["mc", fx, "--coupled", *SIZE, "--out", str(mc_out)]) == 0
    assert cli.main(["simulate", fx, "--coupled", *SIZE, "--out", str(sim_out)]) == 0
    capsys.readouterr()
    assert (_sha256(mc_out), _sha256(sim_out)) == GOLDEN[name]
