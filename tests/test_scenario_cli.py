import json
import subprocess
import sys

import numpy as np
import pytest

from switchsde import cli
from switchsde import scenario as sn
from tests.conftest import FIXTURE_NAMES, FIXTURES, make_scenario, write_scenario


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

    def test_couple_table(self):
        proc = run_cli(
            "couple", str(FIXTURES / "two_state_trig.json"), "--x", "0.0", "--from", "1,1"
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert "(1,1)" in doc["upper_pair"]["pairs"]
        assert "(1,2)" not in doc["upper_pair"]["pairs"]

    def test_spectral_report(self):
        proc = run_cli(
            "spectral", str(FIXTURES / "two_state_trig.json"), "--theta", "0.5,-0.5",
            "--n", "10,20",
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert len(doc["qbar"]["exp_functional"]) == 2
        assert doc["qbar"]["invariant_measure"] == pytest.approx([1 / 3, 2 / 3])

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
