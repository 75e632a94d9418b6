"""Envelope chains and order-preserving couplings on the product state space.

A coupling of two generators Q1, Q2 is a generator on S x S whose marginals
reproduce Q1 and Q2.  The order-preserving construction used here builds, for
each product state (i, j) with i <= j, a triangular recursion over pairs
(m, n) and emits only targets with m <= n, so the coupled chains never cross.
For i > j the symmetric "independent excess" coupling is used instead.

All rate matrices handled here are off-diagonal arrays: entry (i, j), i != j,
is the jump rate, diagonal entries are zero (the generator diagonal is implied
by conservativeness).  State indices are 0-based internally.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MARGINALITY_TOL = 1e-10
RATE_TOL = 1e-12


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
    source: str  # "grid-certified" | "user-asserted"
    qbar_down_positive: bool = False  # two-state: upper down-rate > 0
    qstar_up_positive: bool = False  # two-state: lower up-rate > 0


def two_state_envelopes(rates_on_grid: np.ndarray, source: str = "grid-certified") -> EnvelopePair:
    """Extremal two-state envelopes from rates evaluated on a grid.

    ``rates_on_grid``: stack (n, 2, 2) of off-diagonal rates q_ij(x) over the
    grid.  Upper envelope takes sup of the up-rate and inf of the down-rate;
    lower envelope swaps them.
    """
    R = np.asarray(rates_on_grid, dtype=float)
    if R.ndim != 3 or R.shape[1:] != (2, 2):
        raise CouplingError(f"expected a (n, 2, 2) rate stack, got {R.shape}")
    if R.shape[0] == 0:
        raise CouplingError("empty evaluation grid")
    q12, q21 = R[:, 0, 1], R[:, 1, 0]
    up12, up21 = float(q12.max()), float(q21.min())
    lo12, lo21 = float(q12.min()), float(q21.max())
    qbar = np.array([[-up12, up12], [up21, -up21]])
    qstar = np.array([[-lo12, lo12], [lo21, -lo21]])
    return EnvelopePair(
        qbar,
        qstar,
        source,
        qbar_down_positive=up21 > 0,
        qstar_up_positive=lo12 > 0,
    )


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


def check_two_state_conditions(env: EnvelopePair, rates_on_grid, grid_points, tol=1e-9) -> TwoStateConditions:
    R = np.asarray(rates_on_grid, dtype=float)
    xs = np.asarray(grid_points, dtype=float)
    if xs.ndim == 1:
        xs = xs[:, None]
    total = R[:, 0, 1] + R[:, 1, 0]
    up_sum = float(env.qbar[0, 1] + env.qbar[1, 0])
    lo_sum = float(env.qstar[0, 1] + env.qstar[1, 0])
    k_min, k_max = int(total.argmin()), int(total.argmax())
    upper = ConditionResult(
        holds=bool(up_sum <= total[k_min] + tol),
        witness_x=xs[k_min].tolist(),
        lhs=up_sum,
        rhs=float(total[k_min]),
    )
    lower = ConditionResult(
        holds=bool(lo_sum >= total[k_max] - tol),
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
    """

    holds: bool
    worst_margin: float
    worst: dict | None
    violations: list = field(default_factory=list)

    def as_dict(self):
        return {
            "holds": self.holds,
            "worst_margin": self.worst_margin,
            "worst": self.worst,
            "violations": self.violations[:20],
            "n_violations": len(self.violations),
        }


def check_domination(R1, R2, grid_points=None, tol=1e-9, max_violations=200) -> DominationReport:
    """Check the partial-sum preorder between two rate stacks.

    ``R1``, ``R2``: either (M, M) constant off-diagonal arrays or (n, M, M)
    stacks over a common grid; a constant side is broadcast.
    """
    R1 = np.asarray(R1, dtype=float)
    R2 = np.asarray(R2, dtype=float)
    if R1.ndim == 2:
        R1 = R1[None]
    if R2.ndim == 2:
        R2 = R2[None]
    n = max(R1.shape[0], R2.shape[0])
    R1 = np.broadcast_to(R1, (n,) + R1.shape[1:])
    R2 = np.broadcast_to(R2, (n,) + R2.shape[1:])
    M = R1.shape[1]
    xs = None
    if grid_points is not None:
        xs = np.asarray(grid_points, dtype=float)
        if xs.ndim == 1:
            xs = xs[:, None]

    up1 = np.cumsum(R1[:, :, ::-1], axis=2)[:, :, ::-1]  # up1[:, i, m] = sum_{l>=m}
    up2 = np.cumsum(R2[:, :, ::-1], axis=2)[:, :, ::-1]
    dn1 = np.cumsum(R1, axis=2)  # dn1[:, i, m] = sum_{l<=m}
    dn2 = np.cumsum(R2, axis=2)

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
            "lhs": float(lhs[k]),
            "rhs": float(rhs[k]),
            "margin": margin,
        }
        if margin < worst_margin:
            worst_margin = margin
            worst = entry
        if margin < -tol and len(violations) < max_violations:
            violations.append(entry)

    for m in range(M):
        for i1 in range(M):
            for i2 in range(i1, M):
                if i2 < m:
                    lhs, rhs = up1[:, i1, m], up2[:, i2, m]
                    record("up", i1, i2, m, rhs - lhs, lhs, rhs)
                if m < i1:
                    lhs, rhs = dn1[:, i1, m], dn2[:, i2, m]
                    record("down", i1, i2, m, lhs - rhs, lhs, rhs)

    return DominationReport(
        holds=not violations,
        worst_margin=float(worst_margin),
        worst=worst,
        violations=violations,
    )


# ---------------------------------------------------------------------------
# coupling constructions


def basic_coupling_rows(r1_row, r2_row, i: int, j: int) -> np.ndarray:
    """Coupling rates from (i, j) for the independent-excess construction.

    ``r1_row``, ``r2_row``: off-diagonal rate rows of the two chains from
    states i and j (entries at their own indices are ignored).  Returns the
    (M, M) target-rate array; entry (i, j) holds the (negative) diagonal.
    Intended for product states with i > j, but defined for any i != j.
    """
    r1 = np.array(r1_row, dtype=float)
    r2 = np.array(r2_row, dtype=float)
    M = r1.shape[0]
    if i == j:
        raise CouplingError("basic coupling rows are defined for i != j")
    r1[i] = 0.0
    r2[j] = 0.0
    T = np.zeros((M, M))
    for k in range(M):
        if k != i:
            T[k, j] += max(r1[k] - r2[k], 0.0)  # chain 1 moves alone
        if k != j:
            T[i, k] += max(r2[k] - r1[k], 0.0)  # chain 2 moves alone
        if (k, k) != (i, j):
            T[k, k] += min(r1[k], r2[k])  # synchronous move
    total = T.sum() - T[i, j]
    T[i, j] = -total
    return T


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
    holds.  Without domination the corrections may leave one marginal short
    (or produce negative entries), which verify_coupling_matrix reports.

    For M > 2 the recursion is swept by diagonals: entry (m, n) reads only
    (m, n-1) and (m+1, n), both on diagonal n - m - 1, so each diagonal is
    one batch of slice operations and a call costs O(M) numpy operations.
    """
    R1 = np.asarray(R1, dtype=float)
    R2 = np.asarray(R2, dtype=float)
    ii = np.asarray(ii, dtype=int)
    jj = np.asarray(jj, dtype=int)
    if np.any(ii > jj):
        raise CouplingError("order-preserving rows require i <= j; use the basic coupling for i > j")
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


def order_preserving_rows(Q1, Q2, i: int, j: int) -> np.ndarray:
    """Coupling rates from product state (i, j), i <= j, of generators
    Q1 (lower chain) and Q2 (upper chain).  See coupling_rows_batch."""
    R1 = offdiag(Q1)[None]
    R2 = offdiag(Q2)[None]
    return coupling_rows_batch(R1, R2, np.array([i]), np.array([j]))[0]


def full_coupling_generator(Q1, Q2) -> np.ndarray:
    """Complete coupling generator on the product space, indexed (i*M + j).

    Order-preserving rows on i <= j, basic-coupling rows on i > j.
    """
    R1 = offdiag(Q1)
    R2 = offdiag(Q2)
    M = R1.shape[0]
    Qt = np.zeros((M * M, M * M))
    for i in range(M):
        for j in range(M):
            if i <= j:
                T = order_preserving_rows(R1, R2, i, j)
            else:
                T = basic_coupling_rows(R1[i], R2[j], i, j)
            Qt[i * M + j, :] = T.reshape(-1)
    return Qt


@dataclass
class CouplingDiagnostics:
    negative_rates: list = field(default_factory=list)  # ((i,j),(m,n),rate)
    row_sum_violations: list = field(default_factory=list)  # ((i,j), sum)
    marginality_violations: list = field(default_factory=list)  # (chain,(i,j),target,got,want)
    order_violations: list = field(default_factory=list)  # ((i,j),(m,n),rate)

    @property
    def ok(self) -> bool:
        return not (
            self.negative_rates
            or self.row_sum_violations
            or self.marginality_violations
            or self.order_violations
        )

    def summary(self) -> str:
        if self.ok:
            return "coupling matrix clean"
        parts = []
        for name in ("negative_rates", "row_sum_violations", "marginality_violations", "order_violations"):
            items = getattr(self, name)
            if items:
                parts.append(f"{name}: {len(items)} (first: {items[0]})")
        return "; ".join(parts)


def verify_coupling_matrix(Qt, Q1, Q2, tol: float = MARGINALITY_TOL) -> CouplingDiagnostics:
    """Check the four coupling invariants of a product-space generator.

    Conservativeness, nonnegative off-diagonal rates, marginality against the
    two input generators, and no rate from any (i, j) with i <= j into the
    region m > n.  This is the oracle used by every coupling test.
    """
    Qt = np.asarray(Qt, dtype=float)
    R1 = offdiag(Q1)
    R2 = offdiag(Q2)
    M = R1.shape[0]
    diag = CouplingDiagnostics()
    for i in range(M):
        for j in range(M):
            row = Qt[i * M + j].reshape(M, M)
            s = float(row.sum())
            if abs(s) > tol:
                diag.row_sum_violations.append(((i + 1, j + 1), s))
            for m in range(M):
                for n_ in range(M):
                    if (m, n_) == (i, j):
                        continue
                    r = row[m, n_]
                    if r < -RATE_TOL:
                        diag.negative_rates.append(((i + 1, j + 1), (m + 1, n_ + 1), float(r)))
                    if i <= j and m > n_ and r > RATE_TOL:
                        diag.order_violations.append(((i + 1, j + 1), (m + 1, n_ + 1), float(r)))
            for m in range(M):
                if m != i:
                    got = float(row[m, :].sum())
                    if abs(got - R1[i, m]) > tol:
                        diag.marginality_violations.append(
                            ("lower", (i + 1, j + 1), m + 1, got, float(R1[i, m]))
                        )
            for n_ in range(M):
                if n_ != j:
                    got = float(row[:, n_].sum())
                    if abs(got - R2[j, n_]) > tol:
                        diag.marginality_violations.append(
                            ("upper", (i + 1, j + 1), n_ + 1, got, float(R2[j, n_]))
                        )
    return diag


# ---------------------------------------------------------------------------
# mark-space interval partition


@dataclass
class Interval:
    lo: float
    hi: float
    target: int  # 1-based state

    @property
    def length(self) -> float:
        return self.hi - self.lo


@dataclass
class IntervalPartition:
    """Consecutive left-closed right-open mark intervals for one source state.

    Rows are laid out consecutively over the whole mark space [0, L) with
    L = M * H: row 1 starts at 0, row i at the sum of the preceding rows'
    total rates.  A mark landing outside all of row i's intervals produces no
    jump.
    """

    state: int  # 1-based
    intervals: list  # of Interval
    total: float  # q_i(x)
    offset: float  # start of this row's block
    L: float

    def target_of(self, u: float) -> int | None:
        for iv in self.intervals:
            if iv.lo <= u < iv.hi:
                return iv.target
        return None


def skorokhod_partition(rates_at_x, state: int, H: float) -> IntervalPartition:
    """Mark intervals for jumps out of ``state`` (1-based) at rates
    ``rates_at_x`` (off-diagonal (M, M) array evaluated at the current point).

    Raises if the exit rate exceeds the declared bound H (an under-declared
    bound breaks the thinning construction).
    """
    R = np.asarray(rates_at_x, dtype=float)
    M = R.shape[0]
    if not 1 <= state <= M:
        raise CouplingError(f"state {state} out of range 1..{M}")
    q = R.sum(axis=1) - np.diag(R)
    if q[state - 1] > H + 1e-9:
        raise CouplingError(
            f"exit rate {q[state - 1]:.6g} from state {state} exceeds declared bound H={H}"
        )
    offset = float(q[: state - 1].sum())
    lo = offset
    intervals = []
    for j in range(M):
        if j == state - 1:
            continue
        ln = float(R[state - 1, j])
        if ln > 0:
            intervals.append(Interval(lo, lo + ln, j + 1))
            lo += ln
    return IntervalPartition(
        state=state,
        intervals=intervals,
        total=float(q[state - 1]),
        offset=offset,
        L=M * H,
    )
