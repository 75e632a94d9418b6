import hashlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchsde import cli, engine
from switchsde import scenario as sn
from tests.conftest import (
    FIXTURE_NAMES,
    FIXTURES,
    canonical_json_reference,
    make_scenario,
    scenario_hash_reference,
    write_csv_reference,
    write_scenario,
)


class TestSchema:
    def test_missing_section_reports_pointer(self):
        doc = make_scenario()
        del doc["tau"]
        with pytest.raises(sn.ScenarioError, match="tau"):
            sn.load_scenario(doc)

    def test_wrong_type_reports_pointer(self):
        doc = make_scenario(seed="abc")
        with pytest.raises(sn.ScenarioError, match=r"\$\.seed"):
            sn.load_scenario(doc)

    def test_unknown_key_rejected(self):
        doc = make_scenario(extra_field=1)
        with pytest.raises(sn.ScenarioError, match="extra_field"):
            sn.load_scenario(doc)

    def test_dimension_mismatch(self):
        doc = make_scenario(gains=[0.0, 0.0, 0.0])
        with pytest.raises(sn.ScenarioError, match="gains"):
            sn.load_scenario(doc)

    def test_expression_error_located(self):
        doc = make_scenario(rates=[["0", "2 +"], ["1", "0"]])
        with pytest.raises(sn.ScenarioError, match=r"rates\[0\]\[1\]"):
            sn.load_scenario(doc)

    def test_variable_beyond_dimension(self):
        doc = make_scenario(drift=[["x2"], ["x1"]])
        with pytest.raises(sn.ScenarioError, match="x2"):
            sn.load_scenario(doc)


class TestValidation:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixture_validates(self, name):
        sc = sn.load_scenario(str(FIXTURES / name))
        rep = sn.validate_scenario(sc)
        assert rep.ok, rep.structural

    def test_rate_bound_violation(self):
        doc = make_scenario(rate_bound=1.5)  # q12 = 2 exceeds it
        rep = sn.validate_scenario(sn.load_scenario(doc))
        assert not rep.ok
        assert any("exceeds declared bound" in s for s in rep.structural)

    def test_coefficient_bound_violation(self):
        doc = make_scenario(coefficient_bounds={"C": [-2.5, -2.5], "c": [-3.0, -3.0], "Ma": 1.0})
        rep = sn.validate_scenario(sn.load_scenario(doc))
        assert not rep.ok

    def test_monotonicity_reorder_proposal(self):
        doc = make_scenario(coefficient_bounds={"C": [-1.0, -2.0], "c": [-2.0, -2.5], "Ma": 1.0})
        rep = sn.validate_scenario(sn.load_scenario(doc))
        assert not rep.ok
        prop = rep.findings["reorder_proposal"]
        assert prop["permutation"] == [2, 1]
        assert prop["fixes_monotonicity"]
        assert prop["permuted_generator_irreducible"]

    def test_three_state_domination_reported_not_fatal(self):
        sc = sn.load_scenario(str(FIXTURES / "three_state_rational.json"))
        rep = sn.validate_scenario(sc)
        assert rep.ok
        assert not rep.findings["domination_upper"]["holds"]
        worst = rep.findings["domination_upper"]["worst"]
        assert (worst["i1"], worst["i2"], worst["m"]) == (2, 3, 1)
        assert rep.warnings


    def test_two_state_envelopes_inside_the_grid_extrema(self, tmp_path):
        # both declared envelopes have rates 1; the rates range over
        # [0.5, 1.5], so qbar's up rate is too small and its down rate too
        # large, and the reverse for qstar (the two-state domination tests)
        doc = make_scenario(
            rates=[["0", "1 + 0.5*sin(x1)"], ["1 + 0.5*cos(x1)", "0"]],
            envelopes={"qbar": [[-1.0, 1.0], [1.0, -1.0]], "qstar": [[-1.0, 1.0], [1.0, -1.0]]},
        )
        rep = sn.validate_scenario(sn.load_scenario(doc))
        assert rep.structural == [
            "envelopes.qbar inconsistent with grid extrema of the rates",
            "envelopes.qstar inconsistent with grid extrema of the rates",
        ]
        assert not rep.findings["domination_upper"]["holds"]
        assert not rep.findings["domination_lower"]["holds"]
        proc = run_cli("validate", write_scenario(tmp_path, doc))
        assert proc.returncode == 1
        # the report as printed before these messages came from the domination reports
        assert hashlib.sha256(proc.stdout.encode()).hexdigest()[:16] == "9d744a98cd2d811b"
        # envelopes wide enough for the grid pass
        doc["envelopes"] = {"qbar": [[-1.5, 1.5], [0.5, -0.5]], "qstar": [[-0.5, 0.5], [1.5, -1.5]]}
        assert sn.validate_scenario(sn.load_scenario(doc)).ok

    def test_load_from_path_object(self):
        sc = sn.load_scenario(FIXTURES / "two_state_trig.json")
        assert sc.raw == json.loads((FIXTURES / "two_state_trig.json").read_text())


class TestCanonicalForm:
    def test_echo_round_trip(self):
        doc = make_scenario()
        text = sn.canonical_json(doc)
        again = sn.canonical_json(json.loads(text))
        assert text == again

    def test_hash_stable_under_key_order(self):
        doc = make_scenario()
        shuffled = dict(reversed(list(doc.items())))
        assert sn.scenario_hash(doc) == sn.scenario_hash(shuffled)


_EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 1e-05, 1.7976931348623157e308]
_FLOATS = st.floats() | st.sampled_from(_EDGE_FLOATS)
_INTS = st.integers() | st.integers(min_value=2**63 - 2, max_value=2**70).flatmap(lambda n: st.sampled_from([n, -n]))
_TEXT = st.one_of(
    st.text(), st.text(st.characters(max_codepoint=0x1F)), st.sampled_from(["\ud800", "\x7f\u2028\U0001f600", "\u00e9"])
)
_NUMPY = st.one_of(
    _FLOATS.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.lists(_FLOATS, max_size=4).map(np.array),
    st.lists(st.floats(width=32), max_size=4).map(lambda v: np.array(v, dtype=np.float32)),
    st.lists(st.integers(-(2**63), 2**63 - 1), max_size=4).map(lambda v: np.array(v, dtype=np.int64)),
    st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=3).map(np.array),
)


class _Float(float):
    """Subclasses whose own repr and str json does not read."""

    def __repr__(self):
        return "subclass repr"

    __str__ = __repr__


class _Int(int):
    __repr__ = __str__ = _Float.__repr__


class _Str(str):
    __repr__ = __str__ = _Float.__repr__


_SUBCLASSES = _FLOATS.map(_Float) | _INTS.map(_Int) | _TEXT.map(_Str)
_LEAVES = _FLOATS | _INTS | st.booleans() | st.none() | _TEXT | _NUMPY | _SUBCLASSES
# keys of one dict are mutually orderable, as json's sort_keys needs: text,
# or numbers and bools (np.float64 is a float), or None alone
_NUMBER_KEYS = _FLOATS | _INTS | st.booleans() | _FLOATS.map(np.float64) | _FLOATS.map(_Float) | _INTS.map(_Int)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_TEXT | _TEXT.map(_Str), children, max_size=4),
        st.dictionaries(_NUMBER_KEYS, children, max_size=4),
        st.dictionaries(st.none(), children, max_size=1),
    )


_DOCUMENTS = st.recursive(_LEAVES, _containers, max_leaves=24)


class TestCanonicalWriter:
    """canonical_json against json.dumps(sort_keys=True, indent=2,
    default=_jsonify), its reference in conftest."""

    @settings(max_examples=400, deadline=None)
    @given(doc=_DOCUMENTS)
    def test_same_bytes_as_json(self, doc):
        assert sn.canonical_json(doc) == canonical_json_reference(doc)
        assert sn.scenario_hash(doc) == scenario_hash_reference(doc)

    @pytest.mark.parametrize("doc", [
        {"sweep": [{"tau": 0.5, "passed": True, "rho": -1e-05}], "best": None, "x": (1, 2**64, -0.0)},
        {2: "b", 10: "a", 1.5: [], True: {}, -math.inf: [[]]},
        {math.nan: 1}, {None: np.arange(3)}, {np.float64(0.25): np.float32(0.1)}, [], {}, "é\n", 5e-324,
        {_Float(1.5): [_Int(7), _Str("s")], _Int(2): _Float(-math.inf)},
    ])
    def test_examples(self, doc):
        assert sn.canonical_json(doc) == canonical_json_reference(doc)

    @pytest.mark.parametrize("doc", [
        {1: 0, "a": 0}, {None: 0, 1: 0}, {(1, 2): 0}, {np.int64(1): 0}, {np.bool_(True): 0}, [object()], {"a": {1j}},
    ])
    def test_refuses_what_json_refuses(self, doc):
        with pytest.raises(TypeError) as want:
            canonical_json_reference(doc)
        with pytest.raises(TypeError) as got:
            sn.canonical_json(doc)
        assert str(got.value) == str(want.value)


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "switchsde.cli", *argv],
        capture_output=True,
        text=True,
    )
    return proc


class TestCli:
    def test_validate_fixture_ok(self):
        proc = run_cli("validate", str(FIXTURES / "two_state_trig.json"))
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["ok"] is True
        assert doc["findings"]["domination_upper"]["holds"] is True

    def test_validate_echo_round_trips(self, tmp_path):
        path = write_scenario(tmp_path, make_scenario())
        proc = run_cli("validate", path, "--echo")
        assert proc.returncode == 0
        echoed = json.loads(proc.stdout)
        proc2 = run_cli("validate", path)
        assert proc2.returncode == 0
        assert sn.scenario_hash(echoed) == json.loads(proc2.stdout)["scenario_hash"]

    def test_validate_echo_honours_out(self, tmp_path, capsys):
        # once printed to stdout and wrote no file
        fx, out = str(FIXTURES / "two_state_trig.json"), tmp_path / "echo.json"
        assert cli.main(["validate", fx, "--echo"]) == 0
        echoed = capsys.readouterr().out
        assert cli.main(["validate", fx, "--echo", "--out", str(out)]) == 0
        assert capsys.readouterr() == ("", "")
        assert out.read_text() == echoed

    @pytest.mark.parametrize("cmd", ["validate", "mc", "simulate"])
    def test_initial_state_beyond_m(self, cmd, tmp_path, capsys):
        # validate once passed it (ok: true); mc and simulate then died with
        # an IndexError on the feedback gains
        path = write_scenario(tmp_path, make_scenario(initial={"x": [1.0], "state": 3}, horizon=0.5))
        out = ["--out", str(tmp_path / "p.csv")] if cmd == "simulate" else []
        assert cli.main([cmd, path, *out]) == 1
        assert capsys.readouterr() == (
            "", "validation error: dimension violations:\n  $.initial.state: expected a state in 1..2, got 3\n")

    def test_validate_failure_exit_code(self, tmp_path):
        path = write_scenario(tmp_path, make_scenario(rate_bound=0.5))
        proc = run_cli("validate", path)
        assert proc.returncode == 1

    def test_schema_error_exit_code(self, tmp_path):
        path = write_scenario(tmp_path, {"dimensions": {"d": 1, "M": 2}})
        proc = run_cli("validate", path)
        assert proc.returncode == 1
        assert "schema" in proc.stderr

    def test_missing_file_exit_code(self):
        proc = run_cli("validate", "no_such_file.json")
        assert proc.returncode == 1

    def test_envelopes_two_state(self):
        proc = run_cli("envelopes", str(FIXTURES / "two_state_trig.json"))
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert abs(doc["grid_envelopes"]["qbar"][0][1] - 2.0) < 1e-4
        assert doc["two_state_conditions"]["upper"]["holds"] is False

    def test_three_states_without_declared_envelopes(self, tmp_path, capsys):
        # once an EngineError: coupled runs needed declared envelopes for M > 2
        doc = json.loads((FIXTURES / "three_state_rational.json").read_text())
        del doc["envelopes"]
        fx = write_scenario(tmp_path, doc)
        assert cli.main(["mc", fx, "--coupled", "--paths", "64", "--horizon", "1"]) == 0
        summ = json.loads(capsys.readouterr().out)
        assert summ["route"] == "matrix"
        assert "envelopes derived from the validation grid" in summ["warnings"]
        assert summ["ordering_violations"] == 0
        assert cli.main(["validate", fx]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert "envelopes derived from the grid (grid-certified, not asserted)" in rep["warnings"]
        assert rep["findings"]["domination_upper"]["holds"]
        assert rep["findings"]["domination_lower"]["holds"]
        assert rep["findings"]["qbar_irreducible"] and rep["findings"]["qstar_irreducible"]
        assert cli.main(["envelopes", fx]) == 0
        grid = json.loads(capsys.readouterr().out)["grid_envelopes"]
        assert grid["qbar"] == [[-4.0, 2.0, 2.0], [1.0, -3.0, 2.0], [1.0, 2.0, -3.0]]

    def test_crossing_off_the_grid_names_path_and_time(self, tmp_path, capsys):
        # envelopes derived on [1.5, 2.5] do not dominate where the paths go;
        # once the next round of the crossed path raised "order-preserving
        # rows require i <= j", naming neither the path nor the time
        doc = json.loads((FIXTURES / "three_state_rational.json").read_text())
        del doc["envelopes"]
        doc["grid"] |= {"lo": 1.5, "hi": 2.5}
        doc["initial"]["x"] = [2.0]
        fx = write_scenario(tmp_path, doc)
        assert cli.main(["validate", fx]) == 0
        capsys.readouterr()
        assert cli.main(["mc", fx, "--coupled", "--paths", "64", "--horizon", "3"]) == 2
        assert capsys.readouterr().err == (
            "runtime error: coupled chains crossed at t=0.707233, path 60: "
            "lambda_star=2, lambda=2, lambda_bar=1; "
            "the envelopes were derived from the validation grid and are certified only on it\n"
        )

    def test_interval_route_refuses_a_crossing(self, tmp_path, capsys):
        # the interval-sum conditions hold but the upper envelope does not
        # dominate (q12 = 1.25 at x = 0.5 against qbar12 = 1); once mc exited
        # 0 with ordering_violations 5291 and simulate wrote a CSV whose rows
        # broke the order
        doc = make_scenario(
            drift=[["0"], ["0"]], rates=[["0", "1 + x1^2"], ["1 + x1^2", "0"]],
            rate_bound=2.0, grid={"lo": -1.0, "hi": 1.0, "n": 41},
            initial={"x": [0.5], "state": 1}, horizon=3.0, step=0.01, paths=64,
            coefficient_bounds={"C": [0.0, 0.0], "c": [0.0, 0.0], "Ma": 0.0},
            envelopes={"qbar": [[-1, 1], [1, -1]], "qstar": [[-2, 2], [2, -2]]},
        )
        fx = write_scenario(tmp_path, doc)
        route, _, warnings = engine.choose_route(sn.load_scenario(fx))
        assert route == "two_state"
        assert [w.split(" (")[0] for w in warnings] == [
            "upper envelope does not dominate the rates", "lower envelope not dominated by the rates",
        ]
        # the upper chain moves at qbar's own rates here, so the warning names
        # the crossing, not the matrix route's sub-marginal upper chain
        assert warnings[0].endswith("); the coupled chains may cross, which ends the run")
        assert cli.main(["validate", fx]) == 1
        capsys.readouterr()
        out = tmp_path / "p.csv"
        assert cli.main(["mc", fx, "--coupled"]) == 2
        assert cli.main(["simulate", fx, "--coupled", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == 2 * (
            "runtime error: coupled chains crossed at t=0.028397, path 0: "
            "lambda_star=2, lambda=1, lambda_bar=1\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("name, warning", [
        ("two_state_trig", "two-state interval conditions fail; falling back to the coupling-matrix route"),
        ("three_state_rational", "envelopes derived from the validation grid"),
    ], ids=["fallback", "derived"])
    def test_simulate_prints_the_route_warnings(self, name, warning, tmp_path, capsys):
        doc = json.loads((FIXTURES / f"{name}.json").read_text())
        if name == "three_state_rational":
            del doc["envelopes"]
        fx = write_scenario(tmp_path, doc)
        out = tmp_path / "p.csv"
        assert cli.main(["simulate", fx, "--coupled", "--horizon", "1", "--out", str(out)]) == 0
        meta = json.loads(capsys.readouterr().out)
        assert meta["warnings"] == engine.choose_route(sn.load_scenario(fx))[2]
        assert warning in meta["warnings"]

    def test_couple_table(self):
        proc = run_cli(
            "couple", str(FIXTURES / "two_state_trig.json"), "--x", "0.0", "--from", "1,1"
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert "(1,1)" in doc["upper_pair"]["pairs"]
        assert "(1,2)" not in doc["upper_pair"]["pairs"]

    def test_couple_pair_outside_the_states(self):
        # once printed empty tables and exited 0
        proc = run_cli(
            "couple", str(FIXTURES / "two_state_trig.json"), "--x", "0.0", "--from", "3,1"
        )
        assert proc.returncode == 1
        assert "--from 3,1: states run from 1 to 2" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("x, shown", [("nan", "[nan]"), ("inf", "[inf]"), ("-inf", "[-inf]")])
    def test_couple_refuses_a_non_finite_point(self, x, shown):
        # once exit 0 with tables full of NaN, which is not standard JSON;
        # inf after numpy's warning on cos
        proc = run_cli("couple", str(FIXTURES / "two_state_trig.json"), f"--x={x}")
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == f"validation error: --x must be finite, got {shown}\n"

    @pytest.mark.parametrize("pair", ["1", "a,b", "1,2,3"])
    def test_couple_malformed_pair_is_a_usage_error(self, pair):
        # once a ValueError traceback (exit 1)
        proc = run_cli("couple", str(FIXTURES / "two_state_trig.json"), "--x", "0.0", "--from", pair)
        assert proc.returncode == 2
        assert "usage:" in proc.stderr and "Traceback" not in proc.stderr
        assert f"expected a product state i,j, got {pair!r}" in proc.stderr

    @pytest.mark.parametrize(
        "cmd, option, text, kind",
        [
            ("couple", "--x", "0,abc", "float"),
            ("spectral", "--theta", "a,b", "float"),
            ("spectral", "--n", "60,x", "int"),
        ],
        ids=["x", "theta", "n"],
    )
    def test_malformed_list_is_a_usage_error(self, cmd, option, text, kind):
        # once "runtime error: could not convert string to float" or
        # "invalid literal for int()"
        proc = run_cli(cmd, str(FIXTURES / "two_state_trig.json"), option, text)
        assert proc.returncode == 2
        assert "usage:" in proc.stderr and "Traceback" not in proc.stderr
        assert f"argument {option}: expected comma-separated {kind} values, got {text!r}" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("stride", ["0", "-1"])
    def test_mc_record_stride_below_one(self, stride):
        # -1 once died with an IndexError traceback; 0 was replaced by the default
        fx = str(FIXTURES / "two_state_balanced.json")
        proc = run_cli("mc", fx, "--horizon", "0.5", "--paths", "4", "--record-stride", stride)
        assert proc.returncode == 2
        assert f"need record_stride >= 1, got {stride}" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_mc_workers_below_one(self, workers):
        # once ran serially and exited 0
        fx = str(FIXTURES / "linear_feedback.json")
        proc = run_cli("mc", fx, "--horizon", "0.5", "--paths", "4", "--workers", workers)
        assert proc.returncode == 2
        assert f"need workers >= 1, got {workers}" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv, message", [
        (["mc", "--horizon", "inf"], "need finite h, tau and horizon, got h=0.005, tau=0.05, T=inf"),
        (["simulate", "--horizon", "inf"], "need finite h, tau and horizon, got h=0.005, tau=0.05, T=inf"),
        (["mc", "--step", "nan"], "need finite h, tau and horizon, got h=nan, tau=0.05, T=10.0"),
        (["mc", "--horizon", "1e300"], "horizon/h = 2e+302 steps do not fit in int64"),
        (["simulate", "--horizon", "1e300"], "horizon/h = 2e+302 steps do not fit in int64"),
        (["certify", "--tau", "nan"], "tau must be positive and finite, got nan"),
        (["certify", "--tau", "inf"], "tau must be positive and finite, got inf"),
    ], ids=["mc-horizon-inf", "simulate-horizon-inf", "mc-step-nan", "mc-horizon-1e300", "simulate-horizon-1e300",
            "certify-tau-nan", "certify-tau-inf"])
    def test_non_finite_or_oversized_times(self, argv, message, tmp_path, capsys):
        # --horizon inf once died in SimParams with an OverflowError traceback
        # (exit 1), 1e300 overflowed range in record_steps, and certify --tau
        # nan failed in the skeleton with "cannot convert float NaN to integer"
        cmd, *options = argv
        out = ["--out", str(tmp_path / "p.csv")] if cmd == "simulate" else []
        assert cli.main([cmd, str(FIXTURES / "lag_bound.json"), *options, *out]) == 2
        assert capsys.readouterr() == ("", f"runtime error: {message}\n")

    def test_mc_record_stride_is_passed(self, capsys):
        fx = str(FIXTURES / "two_state_balanced.json")
        assert cli.main(["mc", fx, "--horizon", "0.5", "--paths", "4", "--record-stride", "10"]) == 0
        h = sn.load_scenario(fx).step
        times = json.loads(capsys.readouterr().out)["times"]
        assert times == pytest.approx([k * 10 * h for k in range(len(times))])
        assert len(times) == round(0.5 / (10 * h)) + 1

    def test_nan_exit_rate_is_an_error(self, tmp_path):
        # sqrt(x1) is NaN at the start x1 = -1, off the grid [0, 1] on which
        # the bound H = 2 is checked; the path stays there.  A NaN rate once
        # passed the bound check, so simulate exited 0 with no jumps.
        doc = make_scenario(
            drift=[["0"], ["0"]], rates=[["0", "sqrt(x1)"], ["1", "0"]], rate_bound=2.0,
            grid={"lo": 0.0, "hi": 1.0, "n": 11}, initial={"x": [-1.0], "state": 1},
            horizon=2.0, coefficient_bounds={"C": [0.0, 0.0], "c": [0.0, 0.0], "Ma": 0.0},
        )
        path = write_scenario(tmp_path, doc)
        assert run_cli("validate", path).returncode == 0
        proc = run_cli("simulate", path, "--out", str(tmp_path / "p.csv"))
        assert proc.returncode == 2
        assert (
            "runtime error: exit rate nan from state 1 is not within declared bound H=2.0 "
            "at t=1.00863, x=[-1.0], path 0"
        ) in proc.stderr
        assert "RuntimeWarning" not in proc.stderr  # sqrt of a negative is NaN, silently

    def test_spectral_report(self):
        proc = run_cli(
            "spectral", str(FIXTURES / "two_state_trig.json"), "--theta", "0.5,-0.5",
            "--n", "10,20",
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert len(doc["qbar"]["exp_functional"]) == 2
        assert doc["qbar"]["invariant_measure"] == pytest.approx([1 / 3, 2 / 3])

    @pytest.mark.parametrize("theta, n, what, value", [
        ("5,5", 1000, "exp_functional", "inf"), ("1,1", 800, "exp_functional", "inf"),
        ("-5,-5", 1000, "exp_functional", "0"), ("-3,-1", 589, "perron_root_tilted**n", "0"),
    ])
    def test_spectral_refuses_values_beyond_the_doubles(self, theta, n, what, value):
        # once an OverflowError or a ZeroDivisionError traceback (exit 1),
        # after a numpy overflow warning; at the last tilt the functional is
        # a subnormal double and the root's power alone underflows
        proc = run_cli("spectral", str(FIXTURES / "two_state_trig.json"), f"--theta={theta}", "--n", f"60,{n}")
        assert proc.returncode == 2 and proc.stdout == ""
        tilt = [float(v) for v in theta.split(",")]
        assert proc.stderr == (f"runtime error: {what} at n = {n}, theta = {tilt} is {value}, "
                               "not a finite nonzero double\n")

    @pytest.mark.parametrize("theta, value", [("10,10", "inf"), ("-10,-10", "0")])
    def test_spectral_refuses_a_per_unit_time_root_beyond_the_doubles(self, theta, value):
        # 10,10 once died in lam ** (1 / tau) with an OverflowError traceback
        # (exit 1); -10,-10 printed per_unit_time_root 0.0
        proc = run_cli("spectral", str(FIXTURES / "two_state_trig.json"), f"--theta={theta}", "--tau", "0.01",
                       "--n", "5")
        assert proc.returncode == 2 and proc.stdout == ""
        theta_list = [float(v) for v in theta.split(",")]
        assert proc.stderr == (f"runtime error: perron_root_tilted**(1/tau) at tau = 0.01, theta = {theta_list} "
                               f"is {value}, not a finite nonzero double\n")

    @pytest.mark.parametrize("tau", ["inf", "nan"])
    def test_spectral_refuses_a_non_finite_tau(self, tau):
        # inf once died in the skeleton's math.ceil with an OverflowError
        # traceback (exit 1) after numpy's warning on -6 tau gains; nan exited
        # 2 with "cannot convert float NaN to integer"
        proc = run_cli("spectral", str(FIXTURES / "two_state_trig.json"), "--tau", tau, "--n", "5")
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == f"runtime error: skeleton step must be finite, got {tau}\n"

    @pytest.mark.parametrize("p", ["nan", "inf", "-inf"])
    def test_spectral_refuses_a_non_finite_p(self, p):
        # nan once exited 2 with "Array must not contain infs or NaNs", which
        # named neither --p nor its value; inf printed numpy's warning first
        proc = run_cli("spectral", str(FIXTURES / "two_state_trig.json"), f"--p={p}")
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == f"validation error: --p must be finite, got {p}\n"

    @pytest.mark.parametrize("theta, shown", [("nan,0", "[nan, 0.0]"), ("0,inf", "[0.0, inf]"),
                                              ("-inf,0", "[-inf, 0.0]")])
    def test_spectral_refuses_a_non_finite_theta(self, theta, shown):
        # nan and inf once exited 2 with "Array must not contain infs or
        # NaNs", which named neither --theta nor its value; -inf exited 0
        proc = run_cli("spectral", str(FIXTURES / "two_state_trig.json"), f"--theta={theta}")
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == f"validation error: --theta must be finite, got {shown}\n"

    def test_spectral_table_below_the_overflow_is_unchanged(self):
        proc = run_cli("spectral", str(FIXTURES / "two_state_trig.json"), "--theta=1,1", "--n", "500")
        assert proc.returncode == 0 and proc.stderr == ""
        doc = json.loads(proc.stdout)
        assert [doc[name]["exp_functional"][0]["ratio_to_root_pow_n"] for name in ("qbar", "qstar")] == [
            0.9999999999999856, 1.0000000000000684]

    @pytest.mark.parametrize("tau", ["200", "1000"])
    def test_certify_refuses_tau_where_k_overflows(self, tau):
        # once an OverflowError traceback from math.exp in k_tau (exit 1),
        # while tau = 100 was refused (exit 2)
        proc = run_cli("certify", str(FIXTURES / "lag_bound.json"), "--tau", tau)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == (f"runtime error: K(tau) = inf >= 1: certificate undefined at tau = {float(tau)}; "
                               "reduce tau below 0.0917476\n")

    def test_certify_emits_quantities(self):
        proc = run_cli("certify", str(FIXTURES / "linear_feedback.json"))
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        for key in ("k_tau", "eta_3C", "lam_star", "lam_bar", "passed", "rho"):
            assert key in doc
        assert doc["passed"] is True

    def test_certify_tau_sweep(self):
        proc = run_cli("certify", str(FIXTURES / "linear_feedback.json"), "--tau-sweep")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["passing_taus"]
        assert doc["best"]["rho"] < 0

    def test_simulate_deterministic_csv(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        fx = str(FIXTURES / "two_state_balanced.json")
        r1 = run_cli("simulate", fx, "--out", str(out1), "--coupled", "--horizon", "2.0")
        r2 = run_cli("simulate", fx, "--out", str(out2), "--coupled", "--horizon", "2.0")
        assert r1.returncode == 0 and r2.returncode == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().splitlines()
        assert lines[0].startswith("# scenario_hash=")
        assert lines[1] == "t,x1,lambda,lambda_star,lambda_bar,jump_flag"

    def test_simulate_marginal_leaves_envelope_columns_empty(self, tmp_path):
        out = tmp_path / "m.csv"
        fx = str(FIXTURES / "two_state_balanced.json")
        r = run_cli("simulate", fx, "--out", str(out), "--horizon", "1.0")
        assert r.returncode == 0
        row = out.read_text().splitlines()[2].split(",")
        assert row[3] == "" and row[4] == ""

    def test_mc_deterministic_json(self, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        fx = str(FIXTURES / "two_state_balanced.json")
        args = ["mc", fx, "--coupled", "--horizon", "5.0", "--paths", "64"]
        r1 = run_cli(*args, "--out", str(out1))
        r2 = run_cli(*args, "--out", str(out2))
        assert r1.returncode == 0 and r2.returncode == 0
        assert out1.read_bytes() == out2.read_bytes()
        doc = json.loads(out1.read_text())
        assert doc["ordering_violations"] == 0
        assert doc["scenario_hash"] == sn.scenario_hash(
            sn.load_scenario(fx).raw | {"horizon": 5.0, "paths": 64}
        )

    def test_mc_seed_changes_output(self, tmp_path):
        fx = str(FIXTURES / "two_state_balanced.json")
        r1 = run_cli("mc", fx, "--horizon", "2.0", "--paths", "16", "--seed", "1")
        r2 = run_cli("mc", fx, "--horizon", "2.0", "--paths", "16", "--seed", "2")
        assert json.loads(r1.stdout)["mean_x2"] != json.loads(r2.stdout)["mean_x2"]

    def test_overrides_load_the_scenario_once(self, monkeypatch, capsys):
        calls = []

        def counting_load(source):
            calls.append(source)
            return sn.load_scenario(source)

        monkeypatch.setattr(cli, "load_scenario", counting_load)
        fx = str(FIXTURES / "two_state_balanced.json")
        assert cli.main(["mc", fx, "--horizon", "0.5", "--paths", "8", "--seed", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(calls) == 1
        assert doc["scenario_hash"] == sn.scenario_hash(
            sn.load_scenario(fx).raw | {"horizon": 0.5, "paths": 8, "seed": 3}
        )


class TestParserReuse:
    """main builds its parser once per process; calls in one process must not
    see each other's options."""

    def test_options_do_not_leak_between_calls(self, tmp_path, capsys):
        mc_fx = str(FIXTURES / "two_state_balanced.json")
        cert_fx = str(FIXTURES / "linear_feedback.json")
        mc = ["mc", mc_fx, "--paths", "16", "--horizon", "0.5"]
        jobs = {
            "mc-stride": [*mc, "--coupled", "--record-stride", "3"],
            "mc": mc,
            "certify-tau": ["certify", cert_fx, "--tau", "0.02"],
            "certify": ["certify", cert_fx],
        }
        cli.build_parser.cache_clear()
        in_process, usage = {}, []
        for name, argv in jobs.items():
            assert cli.main([*argv, "--out", str(tmp_path / name)]) == 0
            in_process[name] = (tmp_path / name).read_bytes()
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                cli.main(["simulate", mc_fx])
            assert exc.value.code == 2
            usage.append(capsys.readouterr())
        assert cli.build_parser.cache_info().misses == 1
        assert usage[0] == usage[1] and usage[0].err.endswith("error: simulate requires --out\n")
        for name, argv in jobs.items():
            assert run_cli(*argv, "--out", str(tmp_path / f"{name}.fresh")).returncode == 0
            assert in_process[name] == (tmp_path / f"{name}.fresh").read_bytes(), name
        fresh = run_cli("simulate", mc_fx)
        assert (fresh.returncode, fresh.stdout, fresh.stderr) == (2, "", usage[0].err)
        assert in_process["mc"] != in_process["mc-stride"] and in_process["certify"] != in_process["certify-tau"]


def _hand_path(d, coupled, jumps, h=0.1, n=8):
    """A path on n grid times of step h with random states and the given
    jump records, as cli._write_csv reads it."""
    rng = np.random.default_rng(d + n)
    lam = rng.integers(1, 4, n)
    return engine.HybridPath(
        times=np.arange(n) * h, X=rng.normal(size=(n, d)) * 10.0 ** rng.integers(-20, 20, (n, d)), lam=lam,
        lam_star=np.maximum(lam - 1, 1) if coupled else None, lam_bar=np.minimum(lam + 1, 3) if coupled else None,
        jumps={name: jumps.get(name, []) for name in (engine.CHAIN_NAMES if coupled else ["lambda"])},
        meta={"seed": 4, "path_index": 9, "route": "matrix" if coupled else "marginal"},
    )


class TestCsvWriter:
    """cli._write_csv formats column by column; the row-by-row writer of
    conftest is its bitwise reference."""

    def _same_bytes(self, path, tmp_path):
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        cli._write_csv(path, got, "h")
        write_csv_reference(path, want, "h")
        assert got.read_bytes() == want.read_bytes()
        return [row.split(",")[-1] for row in got.read_text().splitlines()[2:]]

    def test_jumps_at_grid_times(self, tmp_path):
        # a jump at t = 0 is flagged nowhere; a jump at a grid time, or within
        # 1e-15 after it, flags that row, not the next; at t = 24 the window
        # t + 1e-15 rounds to t itself
        t = np.arange(8) * 0.1
        jumps = {"lambda": [(0.0, 1, 2), (t[2], 2, 1), (float(np.nextafter(t[4], 1.0)), 1, 2), (t[6] + 2e-15, 2, 1)]}
        assert self._same_bytes(_hand_path(1, False, jumps), tmp_path) == list("00101001")
        t = np.arange(8) * 8.0
        jumps = {"lambda": [(t[3], 1, 2), (float(np.nextafter(t[3], 99.0)), 2, 1)]}
        assert self._same_bytes(_hand_path(1, False, jumps, h=8.0), tmp_path) == list("00011000")

    def test_several_chains_jump_in_one_step(self, tmp_path):
        jumps = {"lambda": [(0.31, 1, 2)], "lambda_bar": [(0.33, 2, 3), (0.34, 3, 2)], "lambda_star": [(0.35, 1, 2)]}
        jumps["lambda"].append((0.62, 2, 1))
        assert self._same_bytes(_hand_path(2, True, jumps), tmp_path) == list("00001001")

    def test_marginal_path_leaves_the_coupled_columns_empty(self, tmp_path):
        path = _hand_path(3, False, {"lambda": [(0.05, 1, 2), (0.15, 2, 1)]})
        assert self._same_bytes(path, tmp_path) == list("01100000")
        row = (tmp_path / "got.csv").read_text().splitlines()[2].split(",")
        assert row[-3:-1] == ["", ""]

    @pytest.mark.parametrize("coupled", [False, True])
    def test_engine_paths(self, coupled, tmp_path):
        sc = sn.load_scenario(str(FIXTURES / "two_state_trig.json"))
        p = engine.SimParams.from_scenario(sc, horizon=50.0)
        path = (engine.simulate_coupled if coupled else engine.simulate_hybrid)(sc, p, 0)
        assert "1" in self._same_bytes(path, tmp_path)
