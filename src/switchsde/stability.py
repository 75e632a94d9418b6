"""Spectral stability certificate for the discretely-observed feedback system.

The certificate combines three spectral quantities computed from the envelope
generators and the declared coefficient bounds:

* ``eta_3C``: minus the spectral bound of ``qbar + 3 diag(C)``; positive means
  the third-exponential moment of the running drift bound decays.
* ``lam_star``: per-unit-time dominant eigenvalue of the lower-envelope
  skeleton tilted by -6 tau b; below one means the feedback gains win on the
  slow chain.
* ``lam_bar``: per-unit-time dominant eigenvalue of the upper-envelope
  skeleton tilted by +6 sqrt(K/(1-K)) tau b, the observation-lag penalty.

``K(tau)`` is the closed-form contraction factor bounding the mean-square
observation lag relative to the state's mean square.  The decay-rate estimate
``rho`` is one third of (-eta_3C + log lam_star + log lam_bar); the
mean-square bound reads E|X(t)|^2 <= const * exp(rho t).

Tilts are scaled by tau and the roots normalized per unit time, which keeps
the pass/fail decision invariant (lam^{1/tau} < 1 iff lam < 1).  Comparisons
against 1 carry a 1e-9 boundary tolerance so the zero-gain/zero-lag cases,
whose factors equal one exactly, certify on the drift term alone.  The lag
factor K(tau) can be negative when the coefficient bounds are strongly
stable; it then bounds a nonnegative ratio vacuously, so the lag tilt is
clamped at zero.  The lower tilt's per-step root is at least
exp(-6 tau bbar), a normal double only below tau_u = -log(tiny) / (6 bbar);
``certify`` refuses tau >= tau_u as it refuses K(tau) >= 1.

A sweep visits SWEEP_POINTS log-spaced taus up to min(0.999 tau*,
0.999 tau_u, TAU_CAP) in one stacked pass (two skeleton and two Perron-root
calls); per-tau scalars stay Python floats, and ``certify`` runs the same
pass on a stack of one, so each sweep point equals it bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import markov

PASS_TOL = 1e-9
TAU_CAP = 10.0  # largest tau a sweep visits
SWEEP_POINTS = 40  # log-spaced taus a sweep visits


class CertifyError(ValueError):
    pass


def k_tau(tau: float, Cbar: float, Ma: float, bbar: float) -> float:
    """Contraction factor 2 tau (2 Cbar + Ma + bbar) e^{(2 Cbar + 3 Ma + bbar) tau}."""
    if not 0 < tau < math.inf:  # NaN fails too
        raise CertifyError(f"tau must be positive and finite, got {tau}")
    a = 2.0 * Cbar + Ma + bbar
    try:
        return 2.0 * tau * a * math.exp((2.0 * Cbar + 3.0 * Ma + bbar) * tau)
    except OverflowError:  # the exponential is beyond the doubles: K is its factor's infinity
        return math.copysign(math.inf, a) if a else 0.0


def max_tau_for_contraction(Cbar: float, Ma: float, bbar: float) -> float:
    """The unique tau* with K(tau*) = 1, or +inf when K stays below 1.

    Callers needing K(tau) < 1 must stay strictly below the returned value.
    """
    if 2.0 * Cbar + Ma + bbar <= 0:
        return math.inf
    hi = 1.0
    while k_tau(hi, Cbar, Ma, bbar) < 1.0:
        hi *= 2.0
    lo = 0.0
    while hi - lo > 1e-12 * max(hi, 1.0):
        mid = 0.5 * (lo + hi)
        if k_tau(mid, Cbar, Ma, bbar) < 1.0:
            lo = mid
        else:
            hi = mid
    return lo


@dataclass
class StabilityCertificate:
    tau: float
    k_tau: float
    eta_3C: float
    lam_star: float  # per-unit-time root of the -6b tilt on the lower skeleton
    lam_bar: float  # per-unit-time root of the lag tilt on the upper skeleton
    lam_star_step: float  # per-step roots (decision-equivalent)
    lam_bar_step: float
    lag_tilt_coefficient: float  # 6 sqrt(K+/(1-K+))
    passed: bool
    rho: float  # mean-square decay-rate bound; negative iff certified decay
    conditions: dict = field(default_factory=dict)

    def to_dict(self):
        return dict(vars(self))


def certify(qbar, qstar, C, c, b, Ma: float, tau: float) -> StabilityCertificate:
    """Evaluate the certificate at observation period tau.

    Requires irreducible envelope generators, non-decreasing b/C/c, K(tau) < 1
    (otherwise the lag bound, hence the certificate, is undefined at this
    tau), and tau below the underflow bound of the lower tilt.
    """
    return _certificates(*_checked(qbar, qstar, C, c, b), Ma, [tau])[0]


def _checked(qbar, qstar, C, c, b):
    """The tau-free hypotheses of the certificate; returns (qbar, qstar, C, b)
    as float arrays."""
    qbar = np.asarray(qbar, dtype=float)
    qstar = np.asarray(qstar, dtype=float)
    C = np.asarray(C, dtype=float)
    c = np.asarray(c, dtype=float)
    b = np.asarray(b, dtype=float)
    for name, v in (("b", b), ("C", C), ("c", c)):
        if np.any(np.diff(v) < -1e-12):
            raise CertifyError(f"{name} must be non-decreasing in the state index")
    for name, Q in (("qbar", qbar), ("qstar", qstar)):
        if not markov.is_irreducible(Q):
            raise CertifyError(f"{name} must be irreducible")
    return qbar, qstar, C, b


def max_tau_for_tilt(bbar: float) -> float:
    """tau_u = -log(tiny) / (6 bbar), +inf for bbar <= 0: from tau_u on, the
    lower tilt's root bound exp(-6 tau bbar) is no longer a normal double."""
    return -math.log(np.finfo(float).tiny) / (6.0 * bbar) if bbar > 0 else math.inf


def _certificates(qbar, qstar, C, b, Ma, taus):
    """The certificates at every tau of ``taus`` (Python floats) for checked
    inputs.  The skeletons and Perron roots of all taus are one stack each;
    per-tau scalars stay Python floats, so every certificate is the one a
    single tau gives, bit for bit."""
    Cbar = float(C.max())
    bbar = float(b.max())
    tau_u = max_tau_for_tilt(bbar)
    Ks, lag_coefs = [], []
    for tau in taus:
        K = k_tau(tau, Cbar, Ma, bbar)
        if K >= 1.0:
            raise CertifyError(
                f"K(tau) = {K:.6g} >= 1: certificate undefined at tau = {tau}; "
                f"reduce tau below {max_tau_for_contraction(Cbar, Ma, bbar):.6g}"
            )
        if tau >= tau_u:
            raise CertifyError(
                f"exp(-6 tau bbar) underflows at 6 tau bbar = {6.0 * tau * bbar:.6g}: "
                f"certificate undefined at tau = {tau}; reduce tau below {tau_u:.6g}"
            )
        Keff = max(K, 0.0)
        Ks.append(K)
        lag_coefs.append(6.0 * math.sqrt(Keff / (1.0 - Keff)))

    eta = markov.spectral_abscissa(qbar, C, 3.0)
    t = np.array(taus, dtype=float)
    Pbar = markov.skeleton_transition(qbar, t)
    Pstar = markov.skeleton_transition(qstar, t)
    star_steps = markov.perron_root(markov.tilt(Pstar, -6.0 * t[:, None] * b)).tolist()
    bar_steps = markov.perron_root(markov.tilt(Pbar, (np.array(lag_coefs) * t)[:, None] * b)).tolist()

    certificates = []
    for tau, K, lag_coef, lam_star_step, lam_bar_step in zip(taus, Ks, lag_coefs, star_steps, bar_steps):
        lam_star = lam_star_step ** (1.0 / tau)
        lam_bar = lam_bar_step ** (1.0 / tau)
        conditions = {
            "eta_positive": eta > 0.0,
            "lam_star_le_1": lam_star <= 1.0 + PASS_TOL,
            "lam_bar_le_1": lam_bar <= 1.0 + PASS_TOL,
        }
        certificates.append(StabilityCertificate(
            tau=tau, k_tau=K, eta_3C=eta, lam_star=lam_star, lam_bar=lam_bar,
            lam_star_step=lam_star_step, lam_bar_step=lam_bar_step, lag_tilt_coefficient=lag_coef,
            passed=all(conditions.values()), conditions=conditions,
            rho=(-eta + math.log(lam_star) + math.log(lam_bar)) / 3.0,
        ))
    return certificates


def feasible_tau_search(qbar, qstar, C, c, b, Ma: float):
    """Sweep a log-spaced tau grid below the contraction threshold.

    Returns (certificates, passing, best) where ``certificates`` pairs each
    grid tau with its certificate, ``passing`` keeps the certified ones, and
    ``best`` minimizes the decay-rate bound rho (None when nothing passes).
    """
    qbar, qstar, C, b = _checked(qbar, qstar, C, c, b)
    tau_star = max_tau_for_contraction(float(C.max()), Ma, float(b.max()))
    hi = min(tau_star * 0.999, max_tau_for_tilt(float(b.max())) * 0.999, TAU_CAP)
    taus = np.geomspace(hi * 1e-4, hi, SWEEP_POINTS).tolist()
    certificates = list(zip(taus, _certificates(qbar, qstar, C, b, Ma, taus)))
    passing = [(t, cert) for t, cert in certificates if cert.passed]
    best = min(passing, key=lambda tc: tc[1].rho) if passing else None
    return certificates, passing, best
