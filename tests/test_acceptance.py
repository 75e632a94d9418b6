"""End-to-end acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints one PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).
The heavy Monte Carlo criteria use the same fixed seeds as the shipped
fixtures, so the whole suite is deterministic.
"""

import json
import subprocess
import sys

import numpy as np

from switchsde import engine as en
from switchsde import markov as mk
from switchsde import coupling as cp
from switchsde import scenario as sn
from switchsde import stability as ce
from tests.conftest import (
    FIXTURES,
    dominant_eig_2x2,
    random_dominated_pair,
    random_generator,
    skeleton_2state_closed_form,
    verify_coupling_matrix,
)

QBAR2 = np.array([[-2.0, 2.0], [1.0, -1.0]])
QSTAR2 = np.array([[-1.0, 1.0], [2.0, -2.0]])
QBAR3 = np.array([[-4.0, 2.0, 2.0], [1.0, -3.0, 2.0], [2.0, 1.0, -3.0]])
QSTAR3 = np.array([[-2.0, 1.0, 1.0], [3.0, -3.0, 0.0], [3.0, 2.0, -5.0]])


def _report(num, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {num:>2}] {name}: {status}" + (f" | {detail}" if detail else ""))
    assert passed, f"criterion {num} ({name}): {detail}"


def _fixture(name):
    return sn.load_scenario(str(FIXTURES / name))


def test_criterion_01_invariant_measure_fixtures():
    errs = [
        np.abs(mk.invariant_measure(QBAR2) - [1 / 3, 2 / 3]).max(),
        np.abs(mk.invariant_measure(QSTAR2) - [2 / 3, 1 / 3]).max(),
        np.abs(mk.invariant_measure(QBAR3) - [7 / 25, 8 / 25, 2 / 5]).max(),
        np.abs(mk.invariant_measure(QSTAR3) - [3 / 5, 7 / 25, 3 / 25]).max(),
    ]
    _report(1, "invariant-measure fixtures", max(errs) < 1e-12, f"max abs err {max(errs):.2e}")


def test_criterion_02_exponential_functional_ratio():
    rng = np.random.default_rng(20240820)
    worst = 0.0
    for _ in range(100):
        M = int(rng.integers(2, 6))
        Q = random_generator(rng, M, lo=0.8, hi=3.0)
        for tau in (0.1, 1.0):
            P = mk.skeleton_transition(Q, tau)
            theta = rng.uniform(-2.0, 2.0, M)
            lam = mk.perron_root(mk.tilt(P, theta))
            for _ in range(5):
                mu = rng.dirichlet(np.ones(M))
                r60 = mk.exp_functional(mu, P, theta, 60) / lam**60
                r80 = mk.exp_functional(mu, P, theta, 80) / lam**80
                worst = max(worst, abs(r80 / r60 - 1.0))
    _report(2, "exponential-functional growth rate", worst < 0.01, f"worst drift {worst:.2e}")


def test_criterion_03_coupling_soundness():
    rng = np.random.default_rng(20240821)
    checked = 0
    for _ in range(500):
        M = int(rng.integers(2, 7))
        R1, R2 = random_dominated_pair(rng, M)
        Qt = cp.full_coupling_generator(R1, R2)
        diag = verify_coupling_matrix(Qt, R1, R2, tol=1e-10)
        assert diag.ok, diag.summary()
        checked += 1
    _report(3, "coupling soundness", checked == 500, f"{checked} dominated pairs verified")


def test_criterion_05_occupation_sandwich():
    results = []
    for name, window in (
        ("two_state_trig.json", (4 / 3 - 0.05, 5 / 3 + 0.05)),
        ("three_state_rational.json", (38 / 25 - 0.05, 53 / 25 + 0.05)),
    ):
        sc = _fixture(name)
        p = en.SimParams.from_scenario(sc, n_paths=1, horizon=10_000.0, h=0.1)
        path = en.simulate_hybrid(sc, p, 0)
        avg = en.occupation_time_average(path, np.arange(1, sc.M + 1, dtype=float))
        results.append((name, avg, window))
    ok = all(lo <= avg <= hi for _, avg, (lo, hi) in results)
    detail = "; ".join(f"{n}: {a:.4f} in [{lo:.4f}, {hi:.4f}]" for n, a, (lo, hi) in results)
    _report(5, "occupation-time sandwich", ok, detail)


def test_criterion_06_skeleton_marginality():
    sc = _fixture("two_state_trig.json")
    p = en.SimParams.from_scenario(sc, n_paths=500, horizon=100.0, h=0.01, chunk_size=512)
    summ = en.monte_carlo(sc, p, coupled=True)
    counts = summ.skeleton_counts["lambda_bar"]
    total = int(counts.sum())
    P = mk.skeleton_transition(sc.envelopes.qbar, sc.tau)
    tvs = []
    for i in range(2):
        emp = counts[i] / counts[i].sum()
        tvs.append(float(np.abs(emp - P[i]).sum() / 2))
    ok = total >= 100_000 and max(tvs) < 0.02
    _report(
        6, "upper-chain skeleton marginality", ok,
        f"{total} transitions, per-row TV {['%.4f' % t for t in tvs]}",
    )


def test_criterion_07_observation_lag_bound():
    sc = _fixture("lag_bound.json")
    K = ce.k_tau(sc.tau, float(sc.C.max()), sc.Ma, float(sc.gains.max()))
    assert K < 0.5, K
    ratio = K / (1.0 - K)
    p = en.SimParams.from_scenario(sc, n_paths=10_000, record_stride=1)
    summ = en.monte_carlo(sc, p)
    rse = summ.se_x2 / summ.mean_x2
    bound = ratio * summ.mean_x2 * (1.0 + 3.0 * rse)
    ok = bool(np.all(summ.mean_lag2 <= bound))
    margin = float((bound - summ.mean_lag2).min())
    worst = float((summ.mean_lag2 / bound).max())
    _report(
        7, "observation-lag mean-square bound", ok,
        f"K={K:.4f}, worst lag/bound = {worst:.3f} over {len(summ.times)} grid times (slack {margin:.2e})",
    )


def test_criterion_08_certificate_end_to_end():
    # certified scenario: stable drift bounds plus positive feedback gains
    sc = _fixture("linear_feedback.json")
    cert = ce.certify(
        sc.envelopes.qbar, sc.envelopes.qstar, sc.C, sc.c, sc.gains, sc.Ma, sc.tau
    )
    assert cert.passed and cert.k_tau < 1 and cert.eta_3C > 0
    assert cert.lam_star < 1.0 and cert.lam_bar <= 1.0 + 1e-9
    assert cert.rho < 0
    T = min(20.0 / abs(cert.rho), 100.0)
    T = round(T / sc.tau) * sc.tau
    p = en.SimParams.from_scenario(sc, n_paths=10_000, horizon=T)
    summ = en.monte_carlo(sc, p, coupled=False)
    decayed = summ.mean_x2[-1] < summ.x0_norm**2
    quiet_tails = summ.tail_exceed_fraction < 0.01

    # negative control: no gains and drift bounds flipped unstable
    scn = _fixture("linear_unstable.json")
    certn = ce.certify(
        scn.envelopes.qbar, scn.envelopes.qstar, scn.C, scn.c, scn.gains, scn.Ma, scn.tau
    )
    assert not certn.passed and certn.eta_3C < 0 and certn.rho > 0
    Tn = min(20.0 / abs(certn.rho), 100.0)
    Tn = round(Tn / scn.tau) * scn.tau
    pn = en.SimParams.from_scenario(scn, n_paths=10_000, horizon=Tn)
    summn = en.monte_carlo(scn, pn, coupled=False)
    grew = summn.mean_x2[-1] > summn.x0_norm**2

    ok = decayed and quiet_tails and grew
    _report(
        8, "certificate end-to-end", ok,
        f"certified: rho={cert.rho:.3f}, E|X({T:g})|^2={summ.mean_x2[-1]:.3e}, "
        f"tail fraction {summ.tail_exceed_fraction:.4f}; "
        f"control: eta={certn.eta_3C:.3f}, E|X({Tn:g})|^2={summn.mean_x2[-1]:.3e}",
    )


def test_criterion_09_numerical_core_oracles():
    rng = np.random.default_rng(20240822)
    skel_err = 0.0
    for a, b, tau in [(2.0, 1.0, 1.0), (0.4, 3.0, 0.25), (5.0, 0.1, 0.5), (1.0, 1.0, 2.0)]:
        P = mk.skeleton_transition(np.array([[-a, a], [b, -b]]), tau)
        skel_err = max(skel_err, np.abs(P - skeleton_2state_closed_form(a, b, tau)).max())

    perron_err = 0.0
    for _ in range(50):
        P = mk.skeleton_transition(random_generator(rng, 2), rng.uniform(0.1, 1.5))
        Pt = mk.tilt(P, rng.uniform(-2, 2, 2))
        perron_err = max(perron_err, abs(mk.perron_root(Pt) - dominant_eig_2x2(Pt)))

    ef_err = 0.0
    P = mk.skeleton_transition(random_generator(rng, 2), 0.5)
    theta = rng.uniform(-1.5, 1.5, 2)
    mu = rng.dirichlet([1.0, 1.0])
    for n in range(0, 7):
        total = 0.0
        for seq in np.ndindex(*(2,) * n) if n else [()]:
            if n == 0:
                total = 1.0
                break
            prob = mu[seq[0]]
            for u, v in zip(seq, seq[1:]):
                prob *= P[u, v]
            total += prob * np.exp(sum(theta[s] for s in seq))
        ef_err = max(ef_err, abs(mk.exp_functional(mu, P, theta, n) - total))

    ok = skel_err < 1e-10 and perron_err < 1e-12 and ef_err < 1e-12
    _report(
        9, "numerical-core oracles", ok,
        f"skeleton {skel_err:.2e}, perron {perron_err:.2e}, functional {ef_err:.2e}",
    )


def test_criterion_10_determinism(tmp_path):
    fx = str(FIXTURES / "two_state_balanced.json")
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "switchsde.cli", "mc", fx, "--coupled",
             "--horizon", "5.0", "--paths", "128", "--out", str(out)],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    bytes_equal = outs[0] == outs[1]

    sc = _fixture("two_state_balanced.json")
    p1 = en.SimParams.from_scenario(sc, n_paths=96, horizon=3.0, chunk_size=32, workers=1)
    p2 = en.SimParams.from_scenario(sc, n_paths=96, horizon=3.0, chunk_size=32, workers=3)
    same = en.monte_carlo(sc, p1, coupled=True).to_dict() == en.monte_carlo(
        sc, p2, coupled=True
    ).to_dict()
    _report(
        10, "bit-reproducible Monte Carlo", bytes_equal and same,
        f"identical JSON bytes: {bytes_equal}; workers on/off identical: {same}",
    )


def test_criterion_04_pathwise_sandwich():
    sc1 = _fixture("two_state_trig.json")
    p1 = en.SimParams.from_scenario(sc1, n_paths=10_000, horizon=50.0, h=0.001)
    s1 = en.monte_carlo(sc1, p1, coupled=True)

    sc2 = _fixture("three_state_rational.json")
    p2 = en.SimParams.from_scenario(sc2, n_paths=1000, horizon=50.0, h=0.01)
    s2 = en.monte_carlo(sc2, p2, coupled=True)

    ok = s1.ordering_violations == 0 and s2.ordering_violations == 0
    _report(
        4, "pathwise order sandwich", ok,
        f"two-state: {s1.ordering_violations} violations in {s1.n_paths} paths; "
        f"three-state: {s2.ordering_violations} in {s2.n_paths}",
    )
