import hashlib
import json
import math
import operator
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from switchsde import engine
from switchsde.coupling import (
    CHECK_TOL,
    MAX_VIOLATIONS,
    CouplingError,
    DominationReport,
    EnvelopePair,
    offdiag,
)
from switchsde.exprlang import BinOp, Call, Expr, Neg, Num, Var
from switchsde.markov import UNIFORMIZATION_TERMS, MarkovError
from switchsde.scenario import _jsonify

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
FIXTURE_NAMES = [
    "two_state_trig.json",
    "three_state_rational.json",
    "two_state_balanced.json",
    "linear_feedback.json",
    "lag_bound.json",
    "linear_unstable.json",
]


@pytest.fixture(scope="session")
def fixture_dir():
    return FIXTURES


def load_fixture(name):
    from switchsde.scenario import load_scenario

    return load_scenario(str(FIXTURES / name))


@pytest.fixture(scope="session")
def ex_two_state():
    return load_fixture("two_state_trig.json")


@pytest.fixture(scope="session")
def ex_three_state():
    return load_fixture("three_state_rational.json")


@pytest.fixture(scope="session")
def ex_balanced():
    return load_fixture("two_state_balanced.json")


@pytest.fixture(scope="session")
def ex_linear():
    return load_fixture("linear_feedback.json")


@pytest.fixture(scope="session")
def ex_unstable():
    return load_fixture("linear_unstable.json")


@pytest.fixture(scope="session")
def ex_lag():
    return load_fixture("lag_bound.json")


def make_scenario(**overrides):
    """Minimal valid scenario document, patched by keyword."""
    doc = {
        "dimensions": {"d": 1, "M": 2},
        "tau": 0.5,
        "step": 0.01,
        "horizon": 5.0,
        "seed": 7,
        "paths": 4,
        "drift": [["-1*x1"], ["-1*x1"]],
        "diffusion": [[["0"]], [["0"]]],
        "gains": [0.0, 0.0],
        "rates": [["0", "2"], ["1", "0"]],
        "rate_bound": 2.0,
        "coefficient_bounds": {"C": [-2.0, -2.0], "c": [-2.0, -2.0], "Ma": 1.0},
        "initial": {"x": [1.0], "state": 1},
        "grid": {"lo": -2.0, "hi": 2.0, "n": 41},
    }
    doc.update(overrides)
    return doc


def state_dependent_twin(doc):
    """The scenario document with every constant off-diagonal rate c written
    as ``c + 0*x1``: the same rate at every finite x, bit for bit, but one
    that reads x, so the engine runs the switching chain's rule in the
    block's steps, not in one pass ahead of them.  The reference for that
    pass of state-free rates."""
    from switchsde import exprlang

    twin = json.loads(json.dumps(doc))
    for i, row in enumerate(twin["rates"]):
        for j, src in enumerate(row):
            if i != j and exprlang.constant_value(exprlang.parse(src)) is not None:
                row[j] = f"{src} + 0*x1"
    return twin


def skeleton_2state_closed_form(a, b, tau):
    """Analytic transition matrix of [[-a, a], [b, -b]] at time tau."""
    s = a + b
    if s == 0:
        return np.eye(2)
    e = np.exp(-s * tau)
    return np.array([[b + a * e, a - a * e], [b - b * e, a + b * e]]) / s


def dominant_eig_2x2(A):
    """Larger root of the characteristic quadratic (real spectrum assumed)."""
    tr = A[0, 0] + A[1, 1]
    det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    disc = tr * tr - 4.0 * det
    assert disc >= -1e-12
    return (tr + np.sqrt(max(disc, 0.0))) / 2.0


# The per-tau skeleton, tilt and Perron root of markov as they stood before
# they took stacks, kept verbatim (bar the names) as the bitwise references
# for the stacked calls.


def skeleton_transition_reference(Q, tau: float) -> np.ndarray:
    """P = exp(tau Q) by uniformization on tau / 2^s, then s squarings."""
    Q = np.asarray(Q, dtype=float)
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


def tilt_reference(P, theta) -> np.ndarray:
    """Row tilting: entry (i, j) becomes e^{theta(i)} P_ij."""
    P = np.asarray(P, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (P.shape[0],):
        raise MarkovError(f"tilt vector length {theta.shape} != {P.shape[0]}")
    return np.exp(theta)[:, None] * P


def perron_root_reference(P) -> float:
    """Dominant eigenvalue of a nonnegative matrix."""
    P = np.asarray(P, dtype=float)
    if P.min() < 0:
        raise MarkovError("perron_root requires a nonnegative matrix")
    if P.max() == 0:
        raise MarkovError("perron_root of the zero matrix is undefined")
    return float(np.linalg.eigvals(P).real.max())


def skeleton_law(counts, P):
    """Anderson and Goodman's (1957) chi-square test that a chain's skeleton
    transition counts ``counts`` (M, M) follow the transition matrix P.
    Given the visits n_i to state i, row i's counts are multinomial(n_i,
    P[i]) for a Markov skeleton, so sum (n_ij - n_i P_ij)^2 / (n_i P_ij) is
    chi-square with M(M - 1) degrees of freedom for large counts.  Every
    state must be visited and every P_ij positive.  Returns (statistic,
    degrees of freedom, p-value)."""
    counts, P = np.asarray(counts, dtype=float), np.asarray(P, dtype=float)
    M = len(P)
    expected = counts.sum(axis=1, keepdims=True) * P
    assert expected.min() > 0, expected
    stat = float(((counts - expected) ** 2 / expected).sum())
    return stat, M * (M - 1), float(stats.chi2.sf(stat, M * (M - 1)))


def rows_contingency(a, b):
    """Pearson's two-sample chi-square that the transition counts ``a`` and
    ``b`` (M, M) of two independent samples share each row's law: per row
    the 2 x M contingency table of the targets that either sample reaches,
    with its (targets - 1) degrees of freedom, pooled over the rows.
    Returns (statistic, degrees of freedom, p-value)."""
    stat, dof = 0.0, 0
    for ra, rb in zip(np.asarray(a, dtype=float), np.asarray(b, dtype=float)):
        table = np.stack([ra, rb])[:, ra + rb > 0]
        if table.shape[1] > 1:
            chi2, _, k, _ = stats.chi2_contingency(table, correction=False)
            stat, dof = stat + float(chi2), dof + int(k)
    return stat, dof, float(stats.chi2.sf(stat, dof))


def random_generator(rng, M, lo=0.8, hi=3.0):
    """Random irreducible conservative generator with rates in [lo, hi]."""
    R = rng.uniform(lo, hi, (M, M))
    np.fill_diagonal(R, 0.0)
    Q = R.copy()
    Q[np.diag_indices(M)] = -R.sum(axis=1)
    return Q


def random_dominated_pair(rng, M):
    """(R1, R2) off-diagonal rate arrays with R1 dominated by R2 in the
    partial-sum preorder; construction works tail by tail so both inequality
    families hold for every admissible (i1, i2, m)."""
    R1 = rng.uniform(0.2, 2.0, (M, M))
    np.fill_diagonal(R1, 0.0)
    R2 = np.zeros((M, M))
    for i2 in range(M):
        ms = list(range(i2 + 1, M))
        if ms:
            need = np.array(
                [max(R1[i1, m:].sum() for i1 in range(i2 + 1)) for m in ms]
            )
            extra = np.cumsum(rng.uniform(0.0, 0.5, len(ms))[::-1])[::-1]
            tails = need + extra
            for k, m in enumerate(ms):
                nxt = tails[k + 1] if k + 1 < len(ms) else 0.0
                R2[i2, m] = tails[k] - nxt
        c_prev = 0.0
        for m in range(i2):
            cap = min(R1[i1, : m + 1].sum() for i1 in range(m + 1, i2 + 1))
            c = max(c_prev, rng.uniform(0.0, 1.0) * cap)
            R2[i2, m] = c - c_prev
            c_prev = c
    return R1, R2


def write_scenario(tmp_path, doc, name="scenario.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def bfs_irreducible(Q):
    """Strong connectivity of the positive off-diagonal graph of Q by a
    breadth-first search forwards and backwards from state 0."""
    Q = np.asarray(Q, dtype=float)
    M = Q.shape[0]

    def reaches_all(adj):
        seen = {0}
        frontier = [0]
        while frontier:
            i = frontier.pop()
            for j in range(M):
                if j != i and adj[i, j] > 0 and j not in seen:
                    seen.add(j)
                    frontier.append(j)
        return len(seen) == M

    return reaches_all(Q) and reaches_all(Q.T)


def _relu(a):
    return np.maximum(a, 0.0)


def coupling_rows_reference(R1, R2, ii, jj) -> np.ndarray:
    """Order-preserving coupling rows, general M: the entry-by-entry loop form
    of the triangular recursion, the bitwise reference for the kernel in
    coupling.coupling_rows_batch (see its docstring)."""
    n, M, _ = R1.shape
    ar = np.arange(n)

    # 1-based recursion tables a[m, col], b[m, col]
    a = np.zeros((n, M + 2, M + 2))
    b = np.zeros((n, M + 2, M + 2))
    for s in range(1, M + 1):
        a[:, s, s] = np.where(ii == s - 1, 0.0, R1[ar, ii, s - 1])
        b[:, s, s] = np.where(jj == s - 1, 0.0, R2[ar, jj, s - 1])
    for col in range(2, M + 1):
        for m in range(col - 1, 0, -1):
            a[:, m, col] = _relu(a[:, m, col - 1]) - _relu(b[:, m, col - 1])
            b[:, m, col] = _relu(b[:, m + 1, col]) - _relu(a[:, m + 1, col])

    base = np.zeros((n, M, M))
    for m in range(1, M + 1):
        for col in range(m, M + 1):
            rate = np.minimum(_relu(a[:, m, col]), _relu(b[:, m, col]))
            mask = (ii != m - 1) & (jj != col - 1)
            base[:, m - 1, col - 1] = np.where(mask, rate, 0.0)

    out = base.copy()
    csum = np.cumsum(base, axis=1)  # csum[:, r, c] = sum_{m <= r} base[m, c]
    suffix = np.cumsum(base[:, :, ::-1], axis=2)[:, :, ::-1]  # sum_{c' >= c}

    # correction row for the upper chain: targets (i, c), c >= i, c != j
    for c in range(M):
        val = R2[ar, jj, c] - csum[:, c, c]
        mask = (c >= ii) & (c != jj)
        out[ar[mask], ii[mask], c] = val[mask]
    # correction column for the lower chain: targets (m, j), m <= j, m != i
    for m in range(M):
        val = R1[ar, ii, m] - suffix[:, m, m]
        mask = (m <= jj) & (m != ii)
        out[ar[mask], m, jj[mask]] = val[mask]

    out[ar, ii, jj] = 0.0
    out[ar, ii, jj] = -out.sum(axis=(1, 2))
    return out


def check_domination_reference(R1, R2, grid_points=None) -> DominationReport:
    """Partial-sum domination check with both sides broadcast to the grid and
    summed by np.cumsum, the bitwise reference for coupling.check_domination
    (see its docstring)."""
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
        if margin < -CHECK_TOL:
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
        n_violations=len(violations),
        worst_margin=float(worst_margin),
        worst=worst,
        violations=violations[:MAX_VIOLATIONS],
    )


def two_state_envelopes_reference(rates_on_grid: np.ndarray) -> EnvelopePair:
    """Extremal two-state envelopes from rates evaluated on a grid, as the
    library derived them before coupling.extremal_envelopes covered every M;
    the bitwise reference for its M = 2 case.

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
    return EnvelopePair(qbar, qstar)


MARGINALITY_TOL = 1e-10
RATE_TOL = 1e-12


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


def cell_lists(counts, u, rng=None):
    """Dense group-major candidate counts (groups, steps, G) and their
    uniforms, three per candidate, drawn group by group in row-major (step,
    column) order, as the per-group (cell ids, uniforms) draws that
    engine._candidate_schedule reads.  ``rng`` shuffles each group's draw
    order, as the engine's uniform cell ids come unsorted."""
    draws, start = [], 0
    for block in counts:
        cells = np.repeat(np.arange(block.size), block.ravel())
        v = u[3 * start:3 * (start + len(cells))].reshape(-1, 3)
        start += len(cells)
        if rng is not None:
            perm = rng.permutation(len(cells))
            cells, v = cells[perm], v[perm]
        draws.append((cells, v.ravel()))
    return draws


def candidate_rounds_reference(counts_block, u_all, na, h, R_cand):
    """The engine's per-step round loop before candidates were scheduled per
    step block, kept verbatim as the reference for
    engine._candidate_schedule: yields (step, paths, offs, marks, aux) for
    every candidate round it processed, in processing order."""
    bsz, W = counts_block.shape
    tot_per_step = counts_block.sum(axis=1)
    u_off = np.concatenate(([0], np.cumsum(3 * tot_per_step)))
    for kk in range(bsz):
        counts = counts_block[kk]
        tot = int(tot_per_step[kk])
        if tot:
            u = u_all[u_off[kk]:u_off[kk + 1]]
            offs = u[0::3] * h
            marks = u[1::3] * R_cand
            aux = u[2::3]
            cmax = int(counts.max())
            if cmax == 1:
                idx = np.flatnonzero(counts)
                live = idx < na
                if live.any():
                    yield kk, idx[live], offs[live], marks[live], aux[live]
            else:
                idx = np.repeat(np.arange(W), counts)
                order = np.lexsort((offs, idx))
                idx, offs, marks, aux = idx[order], offs[order], marks[order], aux[order]
                gstart = np.concatenate(([0], np.cumsum(counts)[:-1]))
                pos = np.arange(tot) - np.repeat(gstart, counts)
                for rnd in range(cmax):
                    sel = (pos == rnd) & (idx < na)
                    if not sel.any():
                        continue
                    yield kk, idx[sel], offs[sel], marks[sel], aux[sel]


class PerCallBooking:
    """The occupation booking of the step-by-step rounds before every move
    was logged and booked once per step block, kept as the reference for
    engine._ChunkRun._book_block: each step first books one whole step, an
    integer, to the states its chains start in (``step``), and each call of
    a jump rule books its moves as it makes them (``apply``), the time left
    in the step taken from the old state and given to the new one, paths
    ascending.  ``S`` holds the chain states, rows in engine.CHAIN_NAMES
    order; ``occ`` is h times the whole steps plus the times left."""

    def __init__(self, S, M, h):
        self.S, self.M, self.h = S.copy(), M, h
        self.steps = np.zeros((3, M), dtype=np.int64)
        self.rem = np.zeros((3, M))

    @property
    def occ(self):
        return self.h * self.steps + self.rem

    def step(self):
        for row, states in zip(self.steps, self.S):
            row += np.bincount(states, minlength=self.M)

    def apply(self, chain_row, pj, new, rem):
        states = self.S[chain_row]
        old = states[pj]
        moved = old != new
        if not moved.any():
            return
        pj, old, new, rem = pj[moved], old[moved], new[moved], rem[moved]
        states[pj] = new
        rem_row = self.rem[chain_row]
        np.subtract.at(rem_row, old, rem)
        np.add.at(rem_row, new, rem)


def one_round_table(run, marks, Roff):
    """Give ``run`` the candidate table of one round, the fields _step_block
    takes from _candidate_schedule: candidate k on path k at the start of
    step 0, with mark ``marks[k]``, auxiliary uniform 0.5 and off-diagonal
    rates ``Roff[k]``, and room for lambda's new states and picks.  Returns
    the candidates."""
    n = len(marks)
    c, zero = np.arange(n), np.zeros(n, dtype=np.int64)
    run._p, run._offs, run._step, run._rnd, run._tc = c, np.zeros(n), zero, zero, np.zeros(n)
    run._marks, run._aux, run._Roff = np.asarray(marks, dtype=float), np.full(n, 0.5), Roff
    run._lam_new, run._lam_pick = np.empty(n, dtype=np.int64), np.empty((2, n))
    return c


class PerStepRounds(engine._ChunkRun):
    """The coupled schedule on rates that read x with every chain moved round
    by round in each step, kept as the reference for the envelope pass that
    follows a block's steps: each round runs the switching chain's rule, then
    the route's envelope rule, and raises a crossing at the round that makes
    it; the block books the logged moves, and the recorded path takes every
    chain's state at each step.  Run it in place of engine._ChunkRun with
    ``per_step_rounds``."""

    def _process_step(self, Xn, bounds):
        s0 = bounds[0]
        c = slice(s0, bounds[-1])
        X0 = self.X[self._p[c]]
        Xc = X0 + (Xn[self._p[c]] - X0) * (self._offs[c] / self.h)[:, None]
        self._Roff[c] = self.sc.rates.offdiag_batch(Xc)
        for b0, b1 in zip(bounds, bounds[1:]):
            r, pr = np.arange(b0, b1), self._p[b0:b1]
            lam = self.S[1, pr]
            self._lambda_jump(r, Xc[b0 - s0:b1 - s0])
            if not self.coupled:
                continue
            self._jump(r, lam)
            if self._crossed(pr).any():
                c = int(np.flatnonzero(self._crossed(pr))[0])
                raise self._crossing_error(b0 + c)
        moved = self._p[s0:bounds[-1]]
        self._lits[:, moved] = self._lit_table[:, self.S[1, moved]]

    def _finish_block(self, S0, k0, steps, stop):
        if stop:
            raise stop[1]
        self._book_block(S0, k0, steps)

    def _snapshot_obs(self, count):
        super()._snapshot_obs(True)  # every chain is where the steps left it

    def _record_grid(self, k):
        self.rX[k] = self.X[0]
        self.rS[k] = self.S[:, 0]


@contextmanager
def per_step_rounds():
    """Run monte_carlo and the simulate functions on PerStepRounds."""
    chunk_run, engine._ChunkRun = engine._ChunkRun, PerStepRounds
    try:
        yield
    finally:
        engine._ChunkRun = chunk_run


def canonical_json_reference(doc) -> str:
    """scenario.canonical_json as it stood when it called json.dumps, whose
    indented output comes from json's pure-Python encoder: its bytewise
    reference."""
    return json.dumps(doc, sort_keys=True, indent=2, default=_jsonify)


def scenario_hash_reference(doc) -> str:
    return hashlib.sha256(canonical_json_reference(doc).encode()).hexdigest()[:16]


def write_csv_reference(path, out, scenario_hash):
    """cli._write_csv before it wrote column by column, kept verbatim (bar
    its float formatter, written out) as its bitwise reference: row by row,
    the jump flag by a walk over the jump times."""
    coupled = path.coupled
    jt = sorted({t for recs in path.jumps.values() for t, _, _ in recs})
    d = path.X.shape[1]
    header = ["t"] + [f"x{i + 1}" for i in range(d)] + ["lambda", "lambda_star", "lambda_bar", "jump_flag"]
    lines = [
        f"# scenario_hash={scenario_hash} seed={path.meta['seed']} "
        f"path_index={path.meta['path_index']} route={path.meta['route']}",
        ",".join(header),
    ]
    ji = 0
    prev_t = None
    for k, t in enumerate(path.times):
        flag = 0
        if prev_t is not None:
            while ji < len(jt) and jt[ji] <= t + 1e-15:
                if jt[ji] > prev_t:
                    flag = 1
                ji += 1
        row = [f"{float(t):.17g}"]
        row += [f"{float(v):.17g}" for v in path.X[k]]
        row.append(str(int(path.lam[k])))
        row.append(str(int(path.lam_star[k])) if coupled else "")
        row.append(str(int(path.lam_bar[k])) if coupled else "")
        row.append(str(flag))
        lines.append(",".join(row))
        prev_t = t
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# The value walks of exprlang as they stood before they became rule tables
# over one fold, kept verbatim (bar the names) as references for max_variable,
# compile_vectorized and constant_value.


def max_variable_reference(e: Expr) -> int:
    """Largest variable index used (0 for constant expressions)."""
    if isinstance(e, Var):
        return e.index
    if isinstance(e, Neg):
        return max_variable_reference(e.arg)
    if isinstance(e, Call):
        return max((max_variable_reference(a) for a in e.args), default=0)
    if isinstance(e, BinOp):
        return max(max_variable_reference(e.left), max_variable_reference(e.right))
    return 0


def compile_vectorized_reference(e: Expr):
    return _as_array_reference(compile_reference(e))


def constant_value_reference(e: Expr) -> float | None:
    f = compile_reference(e)
    return None if callable(f) else f


def _as_array_reference(f):
    if callable(f):
        return f
    return lambda X: np.full(X.shape[0], f)


def compile_reference(e: Expr):
    """A closure of X, or a float for a constant subtree of ``+ - * /`` and
    unary minus.  These operations round once, so a float operand gives the
    same bits as a constant array.  The exponent of ``^`` and the arguments of
    calls stay arrays: numpy's scalar fast paths for ``power`` (2, 0.5, -1)
    round differently."""
    if isinstance(e, Num):
        return float(e.value)
    if isinstance(e, Var):
        k = e.index - 1
        return lambda X: X[:, k]
    if isinstance(e, Neg):
        f = compile_reference(e.arg)
        if not callable(f):
            return -f
        return lambda X: -f(X)
    if isinstance(e, Call):
        fs = [_as_array_reference(compile_reference(a)) for a in e.args]
        ufunc = {
            "sin": np.sin,
            "cos": np.cos,
            "abs": np.abs,
            "sqrt": np.sqrt,
            "min": np.minimum,
            "max": np.maximum,
        }[e.name]
        if len(fs) == 1:
            f0 = fs[0]
            return lambda X: ufunc(f0(X))
        f0, f1 = fs
        return lambda X: ufunc(f0(X), f1(X))
    if isinstance(e, BinOp):
        fl = compile_reference(e.left)
        fr = compile_reference(e.right)
        if e.op == "^":
            fl, fr = _as_array_reference(fl), _as_array_reference(fr)
            return lambda X: _safe_pow_reference(fl(X), fr(X))
        op = _ARITH_REFERENCE[e.op]
        if callable(fl) and callable(fr):
            return lambda X: op(fl(X), fr(X))
        if callable(fl):
            return lambda X: op(fl(X), fr)
        if callable(fr):
            return lambda X: op(fl, fr(X))
        with np.errstate(all="ignore"):
            return float(op(np.float64(fl), fr))
    raise TypeError(f"not an expression node: {e!r}")


def _safe_div_reference(a, b):
    with np.errstate(all="ignore"):
        return a / b


def _safe_pow_reference(a, b):
    with np.errstate(all="ignore"):
        return np.power(a, b)


_ARITH_REFERENCE = {
    "+": operator.add, "-": operator.sub, "*": operator.mul, "/": _safe_div_reference
}
