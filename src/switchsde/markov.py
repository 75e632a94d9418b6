"""Finite-state generator algebra: validation, invariant measures, skeleton
transition matrices via scaled uniformization, row tilting, Perron roots,
exponential functionals, and the spectral abscissa of a
diagonally-perturbed generator.

All matrices are dense numpy arrays; states are 1..M externally and 0-based
internally.  M is small, so dominant eigenvalues are read off the full
spectrum from ``np.linalg.eigvals``: nothing here iterates to a tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

ROW_SUM_TOL = 1e-12
INVARIANT_RESIDUAL_TOL = 1e-10
# Poisson(1/2) mass beyond the first 18 terms is below 1e-20
UNIFORMIZATION_TERMS = 18


class MarkovError(ValueError):
    pass


@dataclass
class GeneratorDiagnostics:
    negative_entries: list = field(default_factory=list)  # (i, j, value), 1-based
    row_sum_violations: list = field(default_factory=list)  # (i, sum), 1-based
    irreducible: bool = False

    @property
    def conservative(self) -> bool:
        return not self.negative_entries and not self.row_sum_violations

    def as_dict(self):
        return {
            "conservative": self.conservative,
            "irreducible": self.irreducible,
            "negative_entries": [[i, j, v] for i, j, v in self.negative_entries],
            "row_sum_violations": [[i, s] for i, s in self.row_sum_violations],
        }


def _as_matrix(Q) -> np.ndarray:
    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1] or Q.shape[0] < 1:
        raise MarkovError(f"expected a square matrix, got shape {Q.shape}")
    return Q


def is_irreducible(Q) -> bool:
    """Strong connectivity of the positive off-diagonal rate graph.

    Boolean squaring of I + adjacency doubles the path length it covers, so
    ceil(log2(M - 1)) squarings give the reachability matrix.
    """
    Q = _as_matrix(Q)
    M = Q.shape[0]
    reach = (Q > 0) | np.eye(M, dtype=bool)
    for _ in range(max(M - 2, 0).bit_length()):
        reach = reach @ reach
    return bool(reach.all())


def validate_generator(Q, tol: float = ROW_SUM_TOL) -> GeneratorDiagnostics:
    """Diagnostics for conservativeness and irreducibility; never raises."""
    Q = _as_matrix(Q)
    diag = GeneratorDiagnostics()
    M = Q.shape[0]
    for i in range(M):
        for j in range(M):
            if i != j and Q[i, j] < -tol:
                diag.negative_entries.append((i + 1, j + 1, float(Q[i, j])))
        s = float(Q[i].sum())
        if abs(s) > tol:
            diag.row_sum_violations.append((i + 1, s))
    diag.irreducible = is_irreducible(Q)
    return diag


def invariant_measure(Q) -> np.ndarray:
    """Stationary distribution mu with mu Q = 0, sum(mu) = 1.

    One row of Q^T is replaced by the normalization constraint and the system
    is solved by partially-pivoted Gaussian elimination.  Raises for reducible
    generators (singular system or residual beyond tolerance).
    """
    Q = _as_matrix(Q)
    M = Q.shape[0]
    A = Q.T.copy()
    A[-1, :] = 1.0
    rhs = np.zeros(M)
    rhs[-1] = 1.0
    try:
        mu = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise MarkovError("singular system: generator is reducible") from exc
    residual = np.abs(mu @ Q).max()
    if residual > INVARIANT_RESIDUAL_TOL or mu.min() < -INVARIANT_RESIDUAL_TOL:
        raise MarkovError(
            f"invariant measure residual {residual:.3e} exceeds tolerance; "
            "generator is likely reducible"
        )
    return mu


def skeleton_transition(Q, tau: float) -> np.ndarray:
    """P = exp(tau Q) by uniformization on tau / 2^s, then s squarings.

    With lam the largest exit rate, A = I + Q / lam is stochastic and
    exp(tau Q / 2^s) is the Poisson(r) mixture of powers of A, r = lam tau / 2^s.
    Choosing r <= 1/2 makes a fixed number of terms exact to double precision;
    every term and product is nonnegative, so nothing cancels or underflows
    however large lam tau is.  Rows are renormalized to sum exactly to 1.
    """
    Q = _as_matrix(Q)
    if tau <= 0:
        raise MarkovError(f"skeleton step must be positive, got {tau}")
    M = Q.shape[0]
    lam = float(np.max(-np.diag(Q)))
    if lam <= 0:
        return np.eye(M)
    s = max(0, math.ceil(math.log2(2.0 * lam * tau)))
    r = lam * tau / 2.0**s
    A = np.eye(M) + Q / lam
    term = np.eye(M)
    P = term.copy()
    for k in range(1, UNIFORMIZATION_TERMS):
        term = term @ A * (r / k)
        P += term
    P *= math.exp(-r)
    for _ in range(s):
        P = P @ P
    P = np.maximum(P, 0.0)
    P /= P.sum(axis=1, keepdims=True)
    return P


def tilt(P, theta) -> np.ndarray:
    """Row tilting: entry (i, j) becomes e^{theta(i)} P_ij."""
    P = _as_matrix(P)
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (P.shape[0],):
        raise MarkovError(f"tilt vector length {theta.shape} != {P.shape[0]}")
    return np.exp(theta)[:, None] * P


def perron_root(P) -> float:
    """Dominant eigenvalue of a nonnegative matrix.

    By Perron-Frobenius the spectral radius of a nonnegative matrix is itself
    an eigenvalue, so it is the eigenvalue of largest real part.  Raises on
    the zero matrix and on negative entries.
    """
    P = _as_matrix(P)
    if P.min() < 0:
        raise MarkovError("perron_root requires a nonnegative matrix")
    if P.max() == 0:
        raise MarkovError("perron_root of the zero matrix is undefined")
    return float(np.linalg.eigvals(P).real.max())


def exp_functional(mu, P, theta, n: int) -> float:
    """E_mu[exp(sum_{k=0}^{n-1} theta(Y_k))] for the P-chain, via n mat-vec
    products with the tilted matrix."""
    P = _as_matrix(P)
    mu = np.asarray(mu, dtype=float)
    if n < 0:
        raise MarkovError("n must be nonnegative")
    Pt = tilt(P, theta)
    r = np.ones(P.shape[0])
    for _ in range(n):
        r = Pt @ r
    return float(mu @ r)


def spectral_abscissa(Q, C, p: float) -> float:
    """eta = -max Re(spec(Q + p diag(C))) for a conservative irreducible Q."""
    Q = _as_matrix(Q)
    C = np.asarray(C, dtype=float)
    if C.shape != (Q.shape[0],):
        raise MarkovError(f"C has length {C.shape}, expected {Q.shape[0]}")
    if not is_irreducible(Q):
        raise MarkovError("spectral_abscissa requires an irreducible generator")
    return -float(np.linalg.eigvals(Q + p * np.diag(C)).real.max())
