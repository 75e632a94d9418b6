import json
import math

import numpy as np
import pytest
from scipy.linalg import expm

from switchsde import cli
from switchsde import markov as mk
from switchsde import stability as ce
from tests.conftest import (
    FIXTURE_NAMES,
    dominant_eig_2x2,
    load_fixture,
    make_scenario,
    skeleton_2state_closed_form,
    write_scenario,
)

QBAR = np.array([[-2.0, 2.0], [1.0, -1.0]])


class TestKTau:
    def test_vanishes_with_tau(self):
        assert ce.k_tau(1e-12, 3.0, 1.0, 2.0) < 1e-10

    def test_closed_form_value(self):
        # 2 * 0.01 * (6+1+2) * e^{(6+3+2) * 0.01}
        want = 0.18 * math.exp(0.11)
        assert ce.k_tau(0.01, 3.0, 1.0, 2.0) == pytest.approx(want, abs=1e-12)
        assert ce.k_tau(0.01, 3.0, 1.0, 2.0) == pytest.approx(0.200930, abs=5e-7)

    def test_increasing_in_tau(self):
        taus = np.linspace(1e-3, 0.2, 50)
        vals = [ce.k_tau(t, 3.0, 1.0, 2.0) for t in taus]
        assert np.all(np.diff(vals) > 0)

    def test_negative_prefactor_allowed(self):
        assert ce.k_tau(0.05, -2.0, 1.0, 0.5) < 0

    def test_nonpositive_tau_rejected(self):
        with pytest.raises(ce.CertifyError):
            ce.k_tau(0.0, 1.0, 1.0, 1.0)

    def test_overflow_takes_the_sign_of_the_factor(self):
        # e^{(2 Cbar + 3 Ma + bbar) tau} beyond the doubles, once an
        # OverflowError: K is inf, -inf or 0 by the sign of 2 Cbar + Ma + bbar
        assert ce.k_tau(200.0, 1.04, 0.5, 1.0) == math.inf
        assert ce.k_tau(1000.0, -2.0, 1.5, 0.5) == -math.inf
        assert ce.k_tau(1000.0, -1.0, 1.0, 1.0) == 0.0
        with pytest.raises(ce.CertifyError, match=r"^K\(tau\) = inf >= 1: certificate undefined at tau = 200.0;"):
            ce.certify(QBAR, QBAR, [0.64, 1.04], [0.64, 1.04], [0.8, 1.0], 0.5, 200.0)


class TestMaxTau:
    def test_root_property(self):
        tau_star = ce.max_tau_for_contraction(3.0, 1.0, 2.0)
        assert abs(ce.k_tau(tau_star, 3.0, 1.0, 2.0) - 1.0) < 1e-9

    def test_against_direct_substitution(self):
        # 18 tau e^{11 tau} = 1
        tau_star = ce.max_tau_for_contraction(3.0, 1.0, 2.0)
        assert abs(18.0 * tau_star * math.exp(11.0 * tau_star) - 1.0) < 1e-9

    def test_all_zero_bounds(self):
        assert ce.max_tau_for_contraction(0.0, 0.0, 0.0) == math.inf

    def test_negative_prefactor(self):
        assert ce.max_tau_for_contraction(-2.0, 1.0, 0.5) == math.inf


class TestCertify:
    def test_stable_drift_alone_passes(self):
        cert = ce.certify(QBAR, QBAR, [-1.5, -1.5], [-1.5, -1.5], [0.0, 0.0], 1.0, 0.05)
        assert cert.passed
        assert cert.eta_3C == pytest.approx(4.5, abs=1e-9)
        assert cert.lam_star == pytest.approx(1.0, abs=1e-9)
        assert cert.lam_bar == pytest.approx(1.0, abs=1e-9)
        assert cert.rho == pytest.approx(-1.5, abs=1e-9)

    def test_unstable_drift_fails(self):
        cert = ce.certify(QBAR, QBAR, [0.5, 0.5], [0.5, 0.5], [0.0, 0.0], 1.0, 0.05)
        assert not cert.passed
        assert cert.eta_3C == pytest.approx(-1.5, abs=1e-9)
        assert cert.rho == pytest.approx(0.5, abs=1e-9)

    def test_two_state_closed_form_oracle(self):
        # every certificate quantity recomputed from 2x2 analytic formulas
        C = np.array([-1.9, 1.1])
        b = np.array([2.0, 2.5])
        Ma, tau = 1.0, 0.01
        cert = ce.certify(QBAR, QBAR, C, C, b, Ma, tau)

        K = 2 * tau * (2 * 1.1 + Ma + 2.5) * math.exp((2 * 1.1 + 3 * Ma + 2.5) * tau)
        assert cert.k_tau == pytest.approx(K, abs=1e-12)
        eta = -dominant_eig_2x2(QBAR + 3 * np.diag(C))
        assert cert.eta_3C == pytest.approx(eta, abs=1e-10)
        P = skeleton_2state_closed_form(2.0, 1.0, tau)
        lam_s = dominant_eig_2x2(np.diag(np.exp(-6 * tau * b)) @ P)
        assert cert.lam_star_step == pytest.approx(lam_s, abs=1e-10)
        coef = 6 * math.sqrt(K / (1 - K))
        lam_b = dominant_eig_2x2(np.diag(np.exp(coef * tau * b)) @ P)
        assert cert.lam_bar_step == pytest.approx(lam_b, abs=1e-10)
        assert not cert.passed  # eta < 0 and the lag factor exceeds one
        assert cert.conditions["lam_star_le_1"]
        assert not cert.conditions["lam_bar_le_1"]

    def test_threshold_invariance(self):
        # per-step and per-unit-time roots sit on the same side of 1
        for C2, b2, tau in [(-1.5, 0.3, 0.05), (0.4, 0.0, 0.02), (-0.5, 1.0, 0.1)]:
            cert = ce.certify(
                QBAR, QBAR, [-1.9, C2], [-1.9, C2], [0.0, b2], 1.0, tau
            )
            for step_root, unit_root in (
                (cert.lam_star_step, cert.lam_star),
                (cert.lam_bar_step, cert.lam_bar),
            ):
                assert (step_root <= 1 + 1e-9) == (unit_root <= 1 + 1e-9)

    def test_uniform_gain_shift_factorizes(self):
        b = np.array([0.4, 0.9])
        tau = 0.02
        base = ce.certify(QBAR, QBAR, [-2.0, -1.5], [-2.0, -1.5], b, 1.0, tau)
        for s in (0.3, 1.1):
            shifted = ce.certify(QBAR, QBAR, [-2.0, -1.5], [-2.0, -1.5], b + s, 1.0, tau)
            assert shifted.lam_star == pytest.approx(
                math.exp(-6 * s) * base.lam_star, rel=1e-10
            )

    def test_conditions_are_the_three_tests(self):
        cert = ce.certify(QBAR, QBAR, [-1.5, -1.5], [-1.5, -1.5], [0.0, 0.0], 1.0, 0.05)
        assert set(cert.conditions) == {"eta_positive", "lam_star_le_1", "lam_bar_le_1"}
        assert set(cert.to_dict()) - {"conditions"} == {
            "tau", "k_tau", "eta_3C", "lam_star", "lam_bar", "lam_star_step",
            "lam_bar_step", "lag_tilt_coefficient", "passed", "rho",
        }

    def test_k_at_least_one_rejected(self):
        with pytest.raises(ce.CertifyError, match="certificate undefined"):
            ce.certify(QBAR, QBAR, [3.0, 3.0], [3.0, 3.0], [2.0, 2.0], 1.0, 1.0)

    def test_monotonicity_required(self):
        with pytest.raises(ce.CertifyError, match="non-decreasing"):
            ce.certify(QBAR, QBAR, [1.0, -1.0], [1.0, -1.0], [0.0, 0.0], 1.0, 0.01)

    def test_reducible_envelope_rejected(self):
        Q0 = np.zeros((2, 2))
        with pytest.raises(ce.CertifyError, match="irreducible"):
            ce.certify(Q0, QBAR, [-1.0, -1.0], [-1.0, -1.0], [0.0, 0.0], 1.0, 0.01)


class TestFeasibleTauSearch:
    def test_passing_scenario_found(self, ex_linear):
        env = ex_linear.envelopes
        certs, passing, best = ce.feasible_tau_search(
            env.qbar, env.qstar, ex_linear.C, ex_linear.c, ex_linear.gains, ex_linear.Ma
        )
        assert passing
        assert best is not None and best[1].rho < 0
        # a tau close to the scenario's own must be feasible
        assert any(abs(t - 0.01) / 0.01 < 10 for t, _ in passing)

    def test_unstable_never_passes(self, ex_unstable):
        env = ex_unstable.envelopes
        certs, passing, best = ce.feasible_tau_search(
            env.qbar, env.qstar, ex_unstable.C, ex_unstable.c,
            ex_unstable.gains, ex_unstable.Ma,
        )
        assert passing == [] and best is None

    def test_lag_factor_monotone_along_grid(self, ex_lag):
        env = ex_lag.envelopes
        certs, _, _ = ce.feasible_tau_search(
            env.qbar, env.qstar, ex_lag.C, ex_lag.c, ex_lag.gains, ex_lag.Ma
        )
        lam_bars = np.array([cert.lam_bar for _, cert in certs])
        assert np.all(np.diff(lam_bars) >= -1e-9)


def reference_certificate(qbar, qstar, C, b, Ma, tau):
    """lam_star, lam_bar and eta_3C from scipy's expm and numpy's eigvals."""
    K = max(ce.k_tau(tau, float(C.max()), Ma, float(b.max())), 0.0)
    lag = 6.0 * math.sqrt(K / (1.0 - K))

    def dominant(A):
        return float(np.linalg.eigvals(A).real.max())

    root_star = dominant(np.exp(-6.0 * tau * b)[:, None] * expm(tau * qstar))
    root_bar = dominant(np.exp(lag * tau * b)[:, None] * expm(tau * qbar))
    return {
        "lam_star": root_star ** (1.0 / tau),
        "lam_bar": root_bar ** (1.0 / tau),
        "eta_3C": -dominant(qbar + 3.0 * np.diag(C)),
    }


def _rel_errors(sc, cert, tau):
    env = sc.envelopes
    ref = reference_certificate(env.qbar, env.qstar, sc.C, sc.gains, sc.Ma, tau)
    return {k: abs(getattr(cert, k) - v) / abs(v) for k, v in ref.items()}


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_sweep_matches_reference(name):
    sc = load_fixture(name)
    env = sc.envelopes
    certs, _, _ = ce.feasible_tau_search(env.qbar, env.qstar, sc.C, sc.c, sc.gains, sc.Ma)
    assert len(certs) == 40
    for tau, cert in certs:
        errs = _rel_errors(sc, cert, tau)
        assert max(errs.values()) <= 1e-10, (tau, errs)
        # the sweep checks its hypotheses once; each point is still certify's
        single = ce.certify(env.qbar, env.qstar, sc.C, sc.c, sc.gains, sc.Ma, tau)
        assert cert.to_dict() == single.to_dict()


@pytest.mark.parametrize("tau", [1e-5, 1e-6])
def test_small_tau_certifies(ex_linear, tau):
    env = ex_linear.envelopes
    cert = ce.certify(
        env.qbar, env.qstar, ex_linear.C, ex_linear.c, ex_linear.gains, ex_linear.Ma, tau
    )
    assert cert.passed
    # the per-step root is exact to a few ulps; ^(1/tau) scales that by 1/tau
    assert max(_rel_errors(ex_linear, cert, tau).values()) <= 1e-15 / tau


# qbar = qstar, drift -10*x1, no diffusion, gains [13, 13], C = c = [-20, -20],
# Ma = 10: K(tau) < 0 at every tau, so tau* is infinite, while the lower tilt
# exp(-6 tau 13) leaves the normal doubles at tau_u = -log(tiny) / 78 = 9.08.
SYM = np.array([[-1.0, 1.0], [1.0, -1.0]])
UNDERFLOW = dict(
    drift=[["-10*x1"], ["-10*x1"]],
    diffusion=[[["0*x1"]], [["0*x1"]]],
    gains=[13.0, 13.0],
    rates=[["0", "1"], ["1", "0"]],
    rate_bound=1.0,
    envelopes={"qbar": SYM.tolist(), "qstar": SYM.tolist()},
    coefficient_bounds={"C": [-20.0, -20.0], "c": [-20.0, -20.0], "Ma": 10.0},
)


class TestTiltUnderflow:
    @pytest.mark.parametrize("gain", [13.0, 12.4])
    def test_sweep_ends_below_the_underflow_bound(self, gain):
        b = np.array([gain, gain])
        C = np.array([-20.0, -20.0])
        tau_u = ce.max_tau_for_tilt(gain)
        assert tau_u == pytest.approx(-math.log(np.finfo(float).tiny) / (6 * gain), rel=1e-15)
        assert tau_u < ce.TAU_CAP
        certs, passing, best = ce.feasible_tau_search(SYM, SYM, C, C, b, 10.0)
        assert len(certs) == ce.SWEEP_POINTS and len(passing) == ce.SWEEP_POINTS
        assert certs[-1][0] == pytest.approx(0.999 * tau_u, rel=1e-12)
        for _, cert in certs:
            assert cert.lam_star == pytest.approx(math.exp(-6 * gain), rel=1e-10)
        with pytest.raises(ce.CertifyError, match=f"reduce tau below {tau_u:.6g}"):
            ce.certify(SYM, SYM, C, C, b, 10.0, 10.0)
        with pytest.raises(ce.CertifyError, match="underflows"):
            ce.certify(SYM, SYM, C, C, b, 10.0, tau_u)

    def test_fixture_grids_stay_below_the_bound(self):
        for name in FIXTURE_NAMES:
            sc = load_fixture(name)
            assert ce.max_tau_for_tilt(float(sc.gains.max())) > ce.TAU_CAP
        assert ce.max_tau_for_tilt(0.0) == math.inf

    def test_cli(self, tmp_path, capsys):
        fx = write_scenario(tmp_path, make_scenario(**UNDERFLOW))
        out = tmp_path / "sweep.json"
        assert cli.main(["validate", fx, "--out", str(tmp_path / "v.json")]) == 0
        assert cli.main(["certify", fx, "--tau", "1", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["rho"] == pytest.approx(-46.0, rel=1e-12)
        assert cli.main(["certify", fx, "--tau-sweep", "--out", str(out)]) == 0
        sweep = json.loads(out.read_text())["sweep"]
        assert len(sweep) == ce.SWEEP_POINTS
        assert all(abs(p["lam_star"] / math.exp(-78.0) - 1.0) <= 1e-10 for p in sweep)
        capsys.readouterr()
        assert cli.main(["certify", fx, "--tau", "10", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "exp(-6 tau bbar) underflows" in err and "reduce tau below 9.08201" in err


def test_sweep_is_one_stacked_pass(ex_three_state, monkeypatch):
    """Two skeleton and two Perron calls per sweep, each on all 40 taus."""
    calls = []
    for name in ("skeleton_transition", "perron_root"):
        fn = getattr(mk, name)

        def counted(first, *args, _fn=fn, _name=name):
            calls.append((_name, np.shape(args[0] if args else first)))
            return _fn(first, *args)

        monkeypatch.setattr(mk, name, counted)
    env = ex_three_state.envelopes
    sc = ex_three_state
    ce.feasible_tau_search(env.qbar, env.qstar, sc.C, sc.c, sc.gains, sc.Ma)
    assert calls == [("skeleton_transition", (40,))] * 2 + [("perron_root", (40, 3, 3))] * 2
