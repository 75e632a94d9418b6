"""Envelope chains and order-preserving couplings on the product state space.

A coupling of two generators Q1, Q2 is a generator on S x S whose marginals
reproduce Q1 and Q2.  The order-preserving construction used here builds, for
each product state (i, j) with i <= j, a triangular recursion over pairs
(m, n) and emits only targets with m <= n, so the coupled chains never cross.
For i > j the symmetric "independent excess" coupling is used instead.
The envelopes must sit in the partial-sum order (Massey's comparison of
generators); extremal_envelopes derives the tightest pair for any M.

All rate matrices handled here are off-diagonal arrays: entry (i, j), i != j,
is the jump rate, diagonal entries are zero (the generator diagonal is implied
by conservativeness).  State indices are 0-based internally.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

CHECK_TOL = 1e-9  # slack of the grid checks and of the exit-rate bound H
MAX_VIOLATIONS = 200  # domination violations kept in a report


class CouplingError(ValueError):
    pass


def offdiag(Q) -> np.ndarray:
    """Off-diagonal rate array of a generator (diagonal zeroed)."""
    R = np.array(Q, dtype=float)
    np.fill_diagonal(R, 0.0)
    return R


def with_diagonal(R) -> np.ndarray:
    """Generator with diagonal implied by conservativeness."""
    Q = np.array(R, dtype=float)
    np.fill_diagonal(Q, 0.0)
    Q[np.diag_indices_from(Q)] = -Q.sum(axis=1)
    return Q


# ---------------------------------------------------------------------------
# envelopes and domination checks


@dataclass
class EnvelopePair:
    qbar: np.ndarray  # upper generator (with diagonal)
    qstar: np.ndarray  # lower generator (with diagonal)

    @property
    def qbar_down_positive(self) -> bool:
        """Two-state: the upper envelope's down-rate is positive."""
        return len(self.qbar) == 2 and bool(self.qbar[1, 0] > 0)

    @property
    def qstar_up_positive(self) -> bool:
        """Two-state: the lower envelope's up-rate is positive."""
        return len(self.qstar) == 2 and bool(self.qstar[0, 1] > 0)


@dataclass
class ConditionResult:
    holds: bool
    witness_x: list | None  # point where the condition is tightest/violated
    lhs: float
    rhs: float

    def as_dict(self):
        return {
            "holds": self.holds,
            "witness_x": self.witness_x,
            "lhs": self.lhs,
            "rhs": self.rhs,
        }


@dataclass
class TwoStateConditions:
    """Interval-construction hypotheses for the two-state sandwich.

    upper: sum of upper-envelope rates <= pointwise rate sum everywhere;
    lower: sum of lower-envelope rates >= pointwise rate sum everywhere.
    """

    upper: ConditionResult
    lower: ConditionResult

    @property
    def both_hold(self) -> bool:
        return self.upper.holds and self.lower.holds


def check_two_state_conditions(env: EnvelopePair, rates_on_grid, grid_points) -> TwoStateConditions:
    R = np.asarray(rates_on_grid, dtype=float)
    xs = np.asarray(grid_points, dtype=float)
    if xs.ndim == 1:
        xs = xs[:, None]
    total = R[:, 0, 1] + R[:, 1, 0]
    up_sum = float(env.qbar[0, 1] + env.qbar[1, 0])
    lo_sum = float(env.qstar[0, 1] + env.qstar[1, 0])
    k_min, k_max = int(total.argmin()), int(total.argmax())
    upper = ConditionResult(
        holds=bool(up_sum <= total[k_min] + CHECK_TOL),
        witness_x=xs[k_min].tolist(),
        lhs=up_sum,
        rhs=float(total[k_min]),
    )
    lower = ConditionResult(
        holds=bool(lo_sum >= total[k_max] - CHECK_TOL),
        witness_x=xs[k_max].tolist(),
        lhs=lo_sum,
        rhs=float(total[k_max]),
    )
    return TwoStateConditions(upper, lower)


@dataclass
class DominationReport:
    """Partial-sum domination Q1 <= Q2 (pointwise over the grid).

    Up family:   sum_{l>=m} q1[i1, l] <= sum_{l>=m} q2[i2, l],  i1 <= i2 < m.
    Down family: sum_{l<=m} q1[i1, l] >= sum_{l<=m} q2[i2, l],  m < i1 <= i2.
    Margins are (rhs - lhs) resp. (lhs - rhs); negative margin = violation.
    ``n_violations`` counts every failing test; ``violations`` keeps the first
    MAX_VIOLATIONS of them.
    """

    n_violations: int
    worst_margin: float
    worst: dict | None
    violations: list = field(default_factory=list)

    @property
    def holds(self) -> bool:
        return self.n_violations == 0

    def as_dict(self):
        return {
            "holds": self.holds,
            "worst_margin": self.worst_margin,
            "worst": self.worst,
            "violations": self.violations[:20],
            "n_violations": self.n_violations,
        }


def _tails(R):
    """Tail sums of a (n, M, M) rate stack, laid out (i, m, point):
    up[i, m] = sum_{l>=m} R[:, i, l], added term by term in np.cumsum's
    order, so equal to it bit for bit."""
    up = R.transpose(1, 2, 0).copy()  # never a view: the sums run in place
    for m in range(R.shape[1] - 2, -1, -1):
        up[:, m] += up[:, m + 1]
    return up


def extremal_envelopes(rates_on_grid) -> EnvelopePair:
    """Least upper and greatest lower envelopes of a (n, M, M) grid rate
    stack in the partial-sum order that check_domination tests.

    Upper row i: its tails sum_{l>=m} qbar[i, l], m > i, are the grid maxima
    over the rows i1 <= i, made non-increasing in m by a running max from the
    right; its heads sum_{l<=m} qbar[i, l], m < i, are the grid minima over
    the rows m < i1 <= i, made non-decreasing in m by a running min from the
    right.  Entries are consecutive differences of these sums, so they are
    nonnegative.  The lower envelope is the mirror image: the upper envelope
    of the state-reversed stack, reversed back.  At M = 2 both are the grid
    extrema of the two rates."""
    R = np.asarray(rates_on_grid, dtype=float)
    if R.ndim != 3 or R.shape[1] != R.shape[2]:
        raise CouplingError(f"expected a (n, M, M) rate stack, got {R.shape}")
    if R.shape[0] == 0:
        raise CouplingError("empty evaluation grid")
    qstar = _least_upper(R[:, ::-1, ::-1])[::-1, ::-1]
    return EnvelopePair(with_diagonal(_least_upper(R)), with_diagonal(qstar))


def _least_upper(R):
    """Off-diagonal rates of the least upper envelope of the stack R."""
    below = np.tri(R.shape[1], k=-1, dtype=bool)  # below[i, m]: m < i
    # tails with m reversed, so the running max from the right runs forwards;
    # the heads are the tails of the reversed columns, bit for bit
    tails = np.maximum.accumulate(np.maximum.accumulate(_tails(R).max(axis=2), axis=0)[:, ::-1], axis=1)
    heads = np.where(below, _tails(R[:, :, ::-1]).min(axis=2)[:, ::-1], np.inf)
    heads = np.minimum.accumulate(heads, axis=0)
    heads = np.where(below, np.minimum.accumulate(heads[:, ::-1], axis=1)[:, ::-1], 0.0)
    d_tails = np.diff(tails, axis=1, prepend=0.0)[:, ::-1]
    return np.where(below.T, d_tails, np.where(below, np.diff(heads, axis=1, prepend=0.0), 0.0))


def check_domination(R1, R2, grid_points=None) -> DominationReport:
    """Check the partial-sum preorder between two rate stacks.

    ``R1``, ``R2``: either (M, M) constant off-diagonal arrays or (n, M, M)
    stacks over a common grid.  Tail sums are laid out (i, m, point) and the
    head sums run over m in one (i, point) array, so a test reads two
    contiguous rows; a constant side keeps its one point.
    """
    R1 = np.asarray(R1, dtype=float)
    R2 = np.asarray(R2, dtype=float)
    if R1.ndim == 2:
        R1 = R1[None]
    if R2.ndim == 2:
        R2 = R2[None]
    M = R1.shape[1]
    xs = None
    if grid_points is not None:
        xs = np.asarray(grid_points, dtype=float)
        if xs.ndim == 1:
            xs = xs[:, None]

    up1, up2 = _tails(R1), _tails(R2)
    dn1, dn2 = R1[:, :, 0].T.copy(), R2[:, :, 0].T.copy()  # sum_{l<=m}, in place

    worst_margin = np.inf
    worst = None
    violations = []

    def record(family, i1, i2, m, margins, lhs, rhs):
        nonlocal worst_margin, worst
        k = int(margins.argmin())
        margin = float(margins[k])
        entry = {
            "family": family,
            "i1": i1 + 1,
            "i2": i2 + 1,
            "m": m + 1,
            "x": xs[k].tolist() if xs is not None else None,
            "lhs": float(lhs[k % len(lhs)]),  # a constant side has one point
            "rhs": float(rhs[k % len(rhs)]),
            "margin": margin,
        }
        if margin < worst_margin:
            worst_margin = margin
            worst = entry
        if margin < -CHECK_TOL:
            violations.append(entry)

    for m in range(M):
        if m:
            dn1 += R1[:, :, m].T
            dn2 += R2[:, :, m].T
        for i1 in range(M):
            for i2 in range(i1, M):
                if i2 < m:
                    lhs, rhs = up1[i1, m], up2[i2, m]
                    record("up", i1, i2, m, rhs - lhs, lhs, rhs)
                if m < i1:
                    lhs, rhs = dn1[i1], dn2[i2]
                    record("down", i1, i2, m, lhs - rhs, lhs, rhs)

    return DominationReport(
        n_violations=len(violations),
        worst_margin=float(worst_margin),
        worst=worst,
        violations=violations[:MAX_VIOLATIONS],
    )


# ---------------------------------------------------------------------------
# coupling constructions


def _relu(a):
    return np.maximum(a, 0.0)


def coupling_rows_batch(R1, R2, ii, jj) -> np.ndarray:
    """Order-preserving coupling rates, vectorized over product states.

    ``R1``, ``R2``: (n, M, M) off-diagonal rate stacks for the lower and upper
    chain; ``ii``, ``jj``: (n,) current states with ii <= jj.  Returns a
    (n, M, M) array T where T[c, m, n] is the rate from (ii[c], jj[c]) to
    (m, n) and T[c, ii[c], jj[c]] is the diagonal.

    The triangular recursion seeds the pair rates on the diagonal (m = n) from
    the two marginal rows and propagates excesses backwards; two correction
    rows restore the marginals exactly whenever the partial-sum domination
    holds.  Without domination the corrections may leave one marginal short,
    but nonnegative rates give rows that are nonnegative up to rounding.

    For M > 2 the recursion is swept by diagonals: entry (m, n) reads only
    (m, n-1) and (m+1, n), both on diagonal n - m - 1, so each diagonal is
    one batch of slice operations and a call costs O(M) numpy operations.
    """
    R1 = np.asarray(R1, dtype=float)
    R2 = np.asarray(R2, dtype=float)
    ii = np.asarray(ii, dtype=int)
    jj = np.asarray(jj, dtype=int)
    if np.any(ii > jj):
        raise CouplingError("order-preserving rows require i <= j; full_coupling_generator covers i > j")
    if R1.shape[1] == 2:
        return _coupling_rows_two_state(R1, R2, ii, jj)
    return _coupling_rows_general(R1, R2, ii, jj)


def _coupling_rows_two_state(R1, R2, ii, jj) -> np.ndarray:
    """Closed form of the recursion for M = 2 (hot path in simulation)."""
    n = R1.shape[0]
    ar = np.arange(n)
    T = np.zeros((n, 2, 2))
    r1u, r1d = R1[:, 0, 1], R1[:, 1, 0]
    r2u, r2d = R2[:, 0, 1], R2[:, 1, 0]
    both0 = (ii == 0) & (jj == 0)
    both1 = ii > jj - 1  # equivalent to (ii == 1) & (jj == 1) given ii <= jj
    split = (ii == 0) & (jj == 1)
    sync_up = np.minimum(r1u, r2u)
    sync_dn = np.minimum(r1d, r2d)
    # from (0,0): synchronous up-move plus the upper chain's excess up-rate
    # from (1,1): synchronous down-move plus the lower chain's excess down-rate
    # from (0,1): each chain moves alone (order cannot be broken)
    T[:, 1, 1] = np.where(both0, sync_up, np.where(split, r1u, 0.0))
    T[:, 0, 1] = np.where(both0, r2u - sync_up, np.where(both1, r1d - sync_dn, 0.0))
    T[:, 0, 0] = np.where(both1, sync_dn, np.where(split, r2d, 0.0))
    T[ar, ii, jj] = 0.0
    T[ar, ii, jj] = -T.sum(axis=(1, 2))
    return T


def _coupling_rows_general(R1, R2, ii, jj) -> np.ndarray:
    n, M, _ = R1.shape
    ar = np.arange(n)
    states = np.arange(M)[:, None]
    # the rows read from each chain, laid out (M, n): every slice below is
    # contiguous along the batch
    r1 = np.take(R1.reshape(n * M, M), ar * M + ii, axis=0).T
    r2 = np.take(R2.reshape(n * M, M), ar * M + jj, axis=0).T
    ne_i, ne_j = states != ii, states != jj

    # a[m, m+k], b[m, m+k] of diagonal k, from the seeds at k = 0
    a = np.where(ne_i, r1, 0.0)
    b = np.where(ne_j, r2, 0.0)
    flat = np.zeros((M * M, n))  # flat[m*M + c] = rate of target (m, c)
    for k in range(M):
        ra, rb = _relu(a), _relu(b)
        flat[k:k + (M - k) * (M + 1):M + 1] = np.minimum(ra, rb)
        a = ra[:-1] - rb[:-1]
        b = rb[1:] - ra[1:]
    base = np.where(ne_i[:, None] & ne_j, flat.reshape(M, M, n), 0.0)

    # column sums over m <= c and row sums over c' >= m, added in cumsum order
    csum = base[0].copy()
    for m in range(1, M):
        csum[m:] += base[m, m:]
    suffix = base[:, M - 1].copy()
    for c in range(M - 2, -1, -1):
        suffix[:c + 1] += base[:c + 1, c]

    out = np.ascontiguousarray(base.transpose(2, 0, 1))
    # correction row for the upper chain: targets (i, c), c >= i, c != j
    out[ar, ii] = np.where((states >= ii) & ne_j, r2 - csum, 0.0).T
    # correction column for the lower chain: targets (m, j), m <= j, m != i
    out[ar, :, jj] = np.where((states <= jj) & ne_i, r1 - suffix, 0.0).T
    out[ar, ii, jj] = -out.sum(axis=(1, 2))
    return out


def full_coupling_generator(Q1, Q2) -> np.ndarray:
    """Complete coupling generator on the product space, indexed (i*M + j).

    Order-preserving rows (coupling_rows_batch) on i <= j.  On i > j the
    independent-excess rows: each chain moves alone at its excess rate over
    the other's, and both move together at the smaller of the two rates.
    """
    R1 = offdiag(Q1)
    R2 = offdiag(Q2)
    M = R1.shape[0]
    Qt = np.zeros((M, M, M, M))
    ii, jj = np.triu_indices(M)
    shape = (len(ii), M, M)
    Qt[ii, jj] = coupling_rows_batch(np.broadcast_to(R1, shape), np.broadcast_to(R2, shape), ii, jj)
    for i, j in zip(*np.tril_indices(M, -1)):
        r1, r2, T = R1[i], R2[j], Qt[i, j]
        for k in range(M):
            if k != i:
                T[k, j] += max(r1[k] - r2[k], 0.0)  # chain 1 moves alone
            if k != j:
                T[i, k] += max(r2[k] - r1[k], 0.0)  # chain 2 moves alone
            T[k, k] += min(r1[k], r2[k])  # synchronous move
        T[i, j] = -T.sum()
    return Qt.reshape(M * M, M * M)


# ---------------------------------------------------------------------------
# mark-space layout


def row_block_pick(Roff, states, mark):
    """Locate jumps out of ``states`` (0-based, (n,)) for marks in the
    row-block layout of the off-diagonal rate stack ``Roff`` (n, M, M).

    Every row's block starts at 0, since a chain reads only the row of its
    current state: inside it the left-closed right-open target intervals
    follow in state order with widths equal to the rates.  A row's block
    ends at the last of its cumulative sums, the exit rate q_i, so every mark
    inside the block lies below some target's upper edge; a mark at or above
    q_i is no jump.

    Returns (hit, target, width, u_in, q): whether the mark falls in the
    source row's block, the target state, that interval's width, the mark's
    position inside the interval as a fraction of the width, and the exit
    rates of every state (n, M) that the layout was built from.
    """
    ar = np.arange(len(states))
    cums = np.cumsum(Roff, axis=2)
    q = cums[:, :, -1]
    qi = q[ar, states]
    rows = cums[ar, states]
    hit = (mark >= 0) & (mark < qi)
    tgt = (mark[:, None] < rows).argmax(axis=1)
    width = Roff[ar, states, tgt]
    u_in = (mark - (rows[ar, tgt] - width)) / np.maximum(width, 1e-300)
    return hit, tgt, width, u_in, q
