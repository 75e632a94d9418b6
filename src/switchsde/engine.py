"""Hybrid-path simulation: Euler-Maruyama for the controlled diffusion plus
exact thinned jump clocks for the switching chain, with optional coupled
envelope chains sandwiching the switching process pathwise.

Randomness is counter-based: Philox keyed by seed and by the group of 64
paths, one noise and one jump stream per group, read step block by step block.
For each block the jump stream draws one Poisson total of candidates over the
block's (step, path) cells, a uniform cell for each, then three uniforms each
(offset, mark, auxiliary), so its cost follows the candidates, not the cells.
A path's variates therefore do not depend on chunk_size, on the worker count
or on n_paths.  A run advances a range of global path indices and draws the
whole groups under it: mc a chunk, simulate the requested path alone.  A run
of several step blocks over several groups draws block b + 1 on one helper
thread while block b steps, into the other of two noise buffers; each stream
is still read by one thread at a time in block order, so the variates do not
change.
mc processes paths in fixed-width chunks vectorized with numpy, keeps float
statistics per piece, the paths of a 64-path group in a chunk, and reduces
them once in group order: no mc byte depends on the worker count or on a
chunk_size that is a multiple of 64; other widths agree up to rounding.
Each step evaluates the drift and the diffusion at full width once per
coefficient shape: regimes whose trees differ only in their literals share
one evaluation, with the literals that differ read per path, kept current as
lambda moves.  The Euler update writes into buffers allocated once per run.

Jump mechanism: candidate events arrive as a Poisson stream whose rate covers
the mark space a chain can read: the exit-rate bound H on the marginal route,
H plus the larger of the envelopes' largest exit rates on the matrix route,
whose envelope chains read one shared mark space beyond H, and 2H on the
two-state interval route, whose shared mark lays both rows end to end.  At
each candidate the diffusion value is linearly interpolated inside the step
and a uniform mark decides the jump through the row-block layout, in which
every row's block starts at 0, as a chain reads only the row of its current
state (thinning; Lewis and Shedler 1979).  The mark space lives here: its
size, its regions, and one cumulative-interval pick, _pick, which lambda's
row and the coupling-row regions of the matrix route share.  A step
block's candidates are scheduled once, in rounds: round r holds the r-th
candidate in time of every live path in its (step, path) cell.  The rules
read that table, the step block's state, by candidate index.  Only the
switching chain lambda feeds back into the diffusion.  Its rule runs once per
candidate: step by step when some off-diagonal rate reads x, each step taking
its candidate points and their rates once, or else in one pass ahead of the
block's steps at the one rate stack.  It refuses a negative rate and an exit
rate beyond the declared bound H with EngineError, and keeps each candidate's
new state and pick.  A coupled run then moves the envelope chains, which never
touch the path, once per step block after its steps, from those kept values;
that pass's rounds hold each path's r-th candidate in the block.  Every move
is logged and booked once per block in the per-step order, so the schedules
give the same bytes.  Coupled runs either share one mark among all three
chains (two-state interval route, when the interval-sum conditions hold) or
drive the pair transitions from the order-preserving coupling rows with
shared candidate times (matrix route).  A crossing of the order lambda_star
<= lambda <= lambda_bar, a non-finite state and a refused rate raise
EngineError at the earliest (step, round, path), as per-step rounds of every
chain would.  A scenario that declares no envelopes is coupled against
coupling.extremal_envelopes of its validation grid, for any M.
Jump times are exact; the diffusion increment of a step uses the regime held
at the step's start, so a mid-step switch takes effect for the coefficients
from the next grid node (consistent with the first-order scheme).
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import coupling as cpl
from . import exprlang
from .scenario import Scenario, load_scenario

_NOISE = 1
_JUMPS = 2
_STEP_BLOCK = 256
_GROUP = 64  # paths per random-stream key
CHAIN_NAMES = ("lambda_star", "lambda", "lambda_bar")


class EngineError(RuntimeError):
    pass


@dataclass
class SimParams:
    tau: float
    h: float
    horizon: float
    seed: int
    n_paths: int
    record_stride: int | None = None  # None: record at observation epochs
    chunk_size: int = 2048
    workers: int = 1

    def __post_init__(self):
        if not all(map(math.isfinite, (self.h, self.tau, self.horizon))):
            raise EngineError(f"need finite h, tau and horizon, got h={self.h}, tau={self.tau}, T={self.horizon}")
        if not 0 < self.h <= self.tau <= self.horizon + 1e-12:
            raise EngineError(
                f"need 0 < h <= tau <= horizon, got h={self.h}, tau={self.tau}, T={self.horizon}"
            )
        if abs(self.tau / self.h - round(self.tau / self.h)) > 1e-9:
            raise EngineError(f"tau/h must be an integer, got {self.tau / self.h}")
        if abs(self.horizon / self.h - round(self.horizon / self.h)) > 1e-6:
            raise EngineError("horizon must be a multiple of the step")
        if self.horizon / self.h >= 2**63:
            raise EngineError(f"horizon/h = {self.horizon / self.h:.6g} steps do not fit in int64")
        if self.n_paths < 1 or self.chunk_size < 1:
            raise EngineError(f"need n_paths, chunk_size >= 1, got {self.n_paths}, {self.chunk_size}")
        if self.workers < 1:
            raise EngineError(f"need workers >= 1, got {self.workers}")
        if self.record_stride is not None and self.record_stride < 1:
            raise EngineError(f"need record_stride >= 1, got {self.record_stride}")

    @classmethod
    def from_scenario(cls, sc: Scenario, **overrides):
        kw = dict(tau=sc.tau, h=sc.step, horizon=sc.horizon, seed=sc.seed, n_paths=sc.paths)
        return cls(**(kw | overrides))

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.h))

    @property
    def obs_every(self) -> int:
        return int(round(self.tau / self.h))

    def record_steps(self) -> list:
        stride = self.record_stride or self.obs_every
        steps = list(range(0, self.n_steps + 1, stride))
        if steps[-1] != self.n_steps:
            steps.append(self.n_steps)
        return steps


@dataclass
class HybridPath:
    """One trajectory on the step grid with exact jump records.

    States are 1-based.  ``jumps`` maps chain name to a list of
    (time, from_state, to_state); coupled columns are None for marginal runs.
    """

    times: np.ndarray
    X: np.ndarray  # (n+1, d)
    lam: np.ndarray  # (n+1,)
    lam_star: np.ndarray | None
    lam_bar: np.ndarray | None
    jumps: dict
    meta: dict

    @property
    def coupled(self) -> bool:
        return self.lam_star is not None


def occupation_time_average(path: HybridPath, h_values, chain: str = "lambda") -> float:
    """Exact time average of h(chain state) using the recorded jump times."""
    h_values = np.asarray(h_values, dtype=float)
    T = float(path.times[-1])
    if T <= 0:
        raise EngineError("path has no duration")
    col = {"lambda": path.lam, "lambda_star": path.lam_star, "lambda_bar": path.lam_bar}[chain]
    if col is None:
        raise EngineError(f"path has no column for chain {chain!r}")
    state = int(col[0])
    t_prev = 0.0
    total = 0.0
    for t, frm, to in path.jumps[chain]:
        total += h_values[state - 1] * (t - t_prev)
        if frm != state:
            raise EngineError("jump record inconsistent with recorded states")
        state = to
        t_prev = t
    total += h_values[state - 1] * (T - t_prev)
    return total / T


@dataclass
class McSummary:
    times: np.ndarray
    mean_x2: np.ndarray
    se_x2: np.ndarray
    mean_lag2: np.ndarray
    occupation: dict  # chain name -> (M,) time fractions
    skeleton_counts: dict  # chain name -> (M, M) observed one-step transitions
    tail_exceed_fraction: float
    ordering_violations: int
    n_paths: int
    seed: int
    tau: float
    h: float
    horizon: float
    coupled: bool
    route: str
    warnings: list
    scenario_hash: str
    x0_norm: float

    def to_dict(self):
        return _listed(vars(self))


def _listed(v):
    """``v`` with its arrays as lists, also inside dicts."""
    if isinstance(v, dict):
        return {k: _listed(x) for k, x in v.items()}
    return v.tolist() if isinstance(v, np.ndarray) else v


def choose_route(sc: Scenario):
    """Pick the coupled-run construction and collect precondition findings."""
    pts = sc.grid_points()
    R = sc.rates.offdiag_batch(pts)
    env = sc.envelopes
    warnings = []
    if env is None:
        env = cpl.extremal_envelopes(R)
        warnings.append("envelopes derived from the validation grid")
    for name in ("qbar", "qstar"):  # derived ones go below 0 only where the rates do on the grid
        off = cpl.offdiag(getattr(env, name))
        if off.min() < -cpl.NEG_TOL:
            i, j = np.unravel_index(int(off.argmin()), off.shape)
            raise EngineError(f"envelopes.{name}: negative rate {name}[{i + 1}][{j + 1}] = {off[i, j]:.6g}"
                              + ("" if sc.envelopes is not None else " (derived from the validation grid)"))
    up = cpl.check_domination(R, cpl.offdiag(env.qbar), pts)
    lo = cpl.check_domination(cpl.offdiag(env.qstar), R, pts)
    route = "matrix"
    if sc.M == 2:
        conds = cpl.check_two_state_conditions(env, R, pts)
        if conds.both_hold and env.qbar_down_positive and env.qstar_up_positive:
            route = "two_state"
        else:
            warnings.append(
                "two-state interval conditions fail; falling back to the coupling-matrix route"
            )
    if not up.holds:
        # the interval route moves the upper chain at qbar's own rates, so it
        # may fall below the switching chain; the matrix route clamps the
        # coupling rows instead
        consequence = ("the coupled chains may cross, which ends the run" if route == "two_state"
                       else "pathwise order is still enforced but the upper chain is sub-marginal")
        warnings.append(f"upper envelope does not dominate the rates (worst: {up.worst}); {consequence}")
    if not lo.holds:
        warnings.append(f"lower envelope not dominated by the rates (worst: {lo.worst})")
    return route, env, warnings


def _philox(seed: int, kind: int, group: int) -> np.random.Generator:
    if group >= 1 << 60:
        raise EngineError(f"path group {group} does not fit in the stream key")
    return np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1), (kind << 60) | group]))


@dataclass
class _ChunkResult:
    sizes: np.ndarray  # (pieces,) paths; a piece holds the paths of one 64-path group in the chunk
    stats: np.ndarray  # (3, n_rec, pieces): _ChunkRun.stats
    occupation: np.ndarray  # (3, M, pieces) time sums; rows follow CHAIN_NAMES
    skeleton_counts: np.ndarray  # (3, M, M)
    tail_exceed: int
    path: HybridPath | None = None


class _ChunkRun:
    """State and step logic for the global path range ``paths``: a chunk of
    live paths, or the recorded one alone, drawing the whole path groups
    under them.  The rules read the step block's candidate table by index."""

    def __init__(self, sc, params, paths, route, env, recording=False):
        self.sc = sc
        self.params = params
        self.route = route
        self.coupled = route != "marginal"
        self.env = env
        self._jump = getattr(self, f"_{route}_jump", None)  # the envelope chains' rule

        M, d = sc.M, sc.d
        self.M, self.d = M, d
        self.h = params.h
        self.sqrt_h = math.sqrt(self.h)
        self.paths, self.na, self.recording = paths, len(paths), recording

        # every row's mark block starts at 0; the two-state rule lays both
        # rows end to end under one mark, as it needs q12 + q21 of each chain
        self.L = (M if route == "two_state" else 1) * sc.rates.H
        self.H_max = sc.rates.H + cpl.CHECK_TOL
        self.state_free = sc.rates.state_free
        if self.state_free:  # the one rate stack, checked once
            self.R0 = sc.rates.offdiag_batch(sc.x0[None])[0]
            self._check_rate_bound(self.R0[None], self.R0.sum(axis=1)[None], None, None)
        self.R_cand = self.L
        if route == "matrix":  # regions B and C share [L, R_cand)
            self.Rbar = cpl.offdiag(env.qbar)
            self.Rstar = cpl.offdiag(env.qstar)
            self.R_cand = self.L + float(max(self.Rbar.sum(axis=1).max(), self.Rstar.sum(axis=1).max()))

        na = self.na
        self.X = np.tile(sc.x0, (na, 1)).astype(float)
        # buffers, allocated once: the Euler step writes X's successor into
        # _X_next, and the two alternate
        self._X_next = np.empty((na, d))
        self._tmp = np.empty((2, na) if d == 1 else (2, na, d))  # the Euler step's temporaries
        # chain states, rows in CHAIN_NAMES order; a marginal run moves row 1 only
        self.S = np.full((3, na), sc.i0 - 1, dtype=np.int64)
        # the coefficient entries, drift columns and then the diffusion's
        # entries row by row, by shape, with each path's differing literals
        entries = [*zip(*sc.drift), *zip(*([e for row in mat for e in row] for mat in sc.diffusion))]
        self._shapes, self._lit_table, self._lits = _shape_plan(entries, sc.i0 - 1, na)

        self.rec_index = {k: r for r, k in enumerate(params.record_steps())}
        # each path's piece, the paths of its 64-path group in the range: the
        # float statistics are kept per piece, for _merge to reduce in group order
        self._piece = (np.arange(na) + paths.start % _GROUP) // _GROUP
        self._starts = np.flatnonzero(np.diff(self._piece, prepend=-1))
        self._sizes = np.diff(self._starts, append=na)
        n_pieces = len(self._sizes)
        # at each recording time: the sum of |X|^2, its squared deviations
        # from the piece mean, and the sum of |X - X_obs|^2
        self.stats = np.zeros((3, len(self.rec_index), n_pieces))
        # the occupation per chain, state and piece: whole steps, and the
        # times left in the moves' steps (_book_block)
        self.occ_steps = np.zeros((3, M, n_pieces), dtype=np.int64)
        self.occ_rem = np.zeros((3, M, n_pieces))
        self._log = []  # the moves since the step block began
        self.skel = np.zeros((3, M, M), dtype=np.int64)
        self._counted = np.arange(3) if self.coupled else np.array([1])  # the chain rows a run moves
        self.prev_obs_states = None
        self.tail_start = int(math.ceil(params.n_steps / 2))
        self.tail_x2 = np.zeros(na)  # maximum of |X|^2 over the tail
        self.x0_norm = float(np.linalg.norm(sc.x0))

        if self.recording:
            n = params.n_steps
            self.rX = np.empty((n + 1, d))
            self.rS = np.full((n + 1, 3), sc.i0 - 1, dtype=np.int64)
            self.jump_rec = {name: [] for name in CHAIN_NAMES}
            self._record_grid(0)

    # -- coefficients and the Euler step (full width, once per shape)

    def _coefficient(self, X, states, entry):
        """Each path's value of coefficient entry ``entry`` at its state in
        ``states``: one evaluation per shape at the per-path literals, the
        shapes chosen per path by a mask."""
        shapes = self._shapes[entry]
        out = shapes[0][1](X, shapes[0][2])
        for regimes, f, lits in shapes[1:]:
            mask = states == regimes[0] if len(regimes) == 1 else np.isin(states, regimes)
            out = np.where(mask, f(X, lits), out)
        return out

    def _euler(self, X, xi, Xn):
        """Write X + (a - fb) h + (sigma xi) sqrt(h), at lambda's states, into
        ``Xn``: the formula's operations on its operands, each rounding as
        there.  No operation writes over its input, whose overlap check would
        cost a one-path run more than the operation."""
        lam, d, (t, noise), h = self.S[1], self.d, self._tmp, self.h
        x, xn, fb = (X[:, 0], Xn[:, 0], self.fb[:, 0]) if d == 1 else (X, Xn, self.fb)
        if d == 1:
            a = self._coefficient(X, lam, 0)
            np.multiply(self._coefficient(X, lam, 1), xi[:, 0], out=t)
        else:  # the drift's d entries, then the diffusion's d * d
            a, sigma = np.split(np.stack([self._coefficient(X, lam, e) for e in range(d + d * d)], axis=1), [d], axis=1)
            np.einsum("nij,nj->ni", sigma.reshape(-1, d, d), xi, out=t)
        np.multiply(t, self.sqrt_h, out=noise)
        np.subtract(a, fb, out=t)
        np.multiply(t, h, out=xn)
        np.add(x, xn, out=t)
        np.add(t, noise, out=xn)

    # -- bookkeeping

    @property
    def occ(self):
        """The occupation times booked so far, (3, M, pieces)."""
        return self.h * self.occ_steps + self.occ_rem

    def _record_stats(self, r):
        x2, lag2, starts = (self.X**2).sum(axis=1), ((self.X - self.X_obs) ** 2).sum(axis=1), self._starts
        s = np.add.reduceat(x2, starts)
        dev = x2 - (s / self._sizes)[self._piece]
        self.stats[:, r] = s, np.add.reduceat(dev * dev, starts), np.add.reduceat(lag2, starts)

    def _record_grid(self, k):
        self.rX[k] = self.X[0]
        self.rS[k, 1] = self.S[1, 0]  # _finish_block writes the envelope chains'

    def _snapshot_obs(self, count):
        """Freeze the observation and its feedback term; with ``count``,
        count the chains' transitions, which needs every row known."""
        self.X_obs = self.X.copy()
        self.fb = self.sc.gains[self.S[1]][:, None] * self.X_obs
        if count:
            self._count_epoch(self.S[self._counted])  # a copy: S moves on

    def _count_epoch(self, cur):
        """Count the transitions from the last observation epoch of the chain
        rows a run moves, whose states are ``cur``."""
        M = self.M
        if self.prev_obs_states is not None:
            flat = (self._counted[:, None] * M + self.prev_obs_states) * M + cur
            self.skel += np.bincount(flat.ravel(), minlength=3 * M * M).reshape(3, M, M)
        self.prev_obs_states = cur

    def _apply_jump(self, chain_row, c, new, call):
        """Move chain ``chain_row`` of the paths of candidates ``c`` to
        ``new`` and log the moves with their candidates; ``call`` numbers the
        rule's calls in their order in a round.  ``_book_block`` books the log."""
        states, pj = self.S[chain_row], self._p[c]
        old = states[pj]
        moved = old != new
        if moved.any():
            new = new[moved]
            self._log.append((chain_row, call, c[moved], old[moved], new))
            states[pj[moved]] = new

    def _crossed(self, p):
        ls, lm, lb = self.S[:, p]
        return (ls > lm) | (lm > lb)

    # -- jump dispatch

    def _process_step(self, Xn, bounds):
        """The switching chain's rounds of one step, delimited by ``bounds``,
        at the candidate points and rates taken once into the table, and the
        moved paths' literals after them; returns (round start, error) at a
        rate the check refuses, or None."""
        s = slice(bounds[0], bounds[-1])
        X0 = self.X[self._p[s]]
        Xc = X0 + (Xn[self._p[s]] - X0) * (self._offs[s] / self.h)[:, None]
        self._Roff[s] = self.sc.rates.offdiag_batch(Xc)
        for b0, b1 in zip(bounds, bounds[1:]):
            try:
                self._lambda_jump(np.arange(b0, b1), Xc[b0 - s.start:b1 - s.start])
            except EngineError as err:
                return b0, err
        moved = self._p[s]
        self._lits[:, moved] = self._lit_table[:, self.S[1, moved]]

    def _block_pass(self, S0, stop):
        """Move the envelope chains from ``S0`` over a step block's candidates
        before ``stop``, in the block rounds: each round sets lambda's row to
        the states its rule kept and runs the route's envelope rule from
        lambda's states before.  After a crossing the rounds keep only the
        candidates up to the end of its (step, round).  Returns the earliest
        crossing as (candidate, error), or None."""
        when = self._step * (int(self._rnd.max(initial=0)) + 1) + self._rnd  # the (step, round), ascending
        self.S[:] = S0
        first = None
        for c in self._rounds:
            c = c[c < stop]
            if not len(c):
                continue
            pc = self._p[c]
            lam = self.S[1, pc]
            self.S[1, pc] = self._lam_new[c]
            self._jump(c, lam)
            bad = np.flatnonzero(self._crossed(pc))
            if len(bad):  # a candidate's index orders it by (step, round, path)
                i = c[bad].min()
                if first is None or i < first[0]:
                    first = i, self._crossing_error(i)
                    stop = np.searchsorted(when, when[i], "right")
        return first

    def _finish_block(self, S0, k0, steps, stop):
        """Close the step block from ``k0``, which began in the states ``S0``
        and whose steps failed at ``stop`` (candidate, error), if at all: a
        coupled run moves the envelope chains over the candidates before it
        and the earliest error raises; then the block's moves are booked, and
        a coupled run's give the envelope chains' states at the epochs and on
        the recorded path."""
        if self.coupled:
            stop = self._block_pass(S0, stop[0] if stop else len(self._p)) or stop
        if stop:
            raise stop[1]
        moves = self._book_block(S0, k0, steps)
        if self.coupled:
            states_before = _states_before(S0, *_last_moves(steps, *moves))
            for kk in range(-k0 % self.params.obs_every, steps, self.params.obs_every):
                self._count_epoch(states_before([kk])[0])
            if self.recording:
                self.rS[k0 + 1:k0 + steps + 1, ::2] = states_before(np.arange(1, steps + 1))[:, ::2, 0]

    def _book_block(self, S0, k0, steps):
        """Book the moves logged in the step block from ``k0``, which began in
        the states ``S0``, as the per-step rounds would: the occupation, the
        recorded path's jumps, each move's path, offset, step and round read
        from the candidate table.  Whole steps count in integers: the block's
        steps go to its start states, and a move at step s moves the steps
        after s and the time left in s, h - offset, from its old state to its
        new one.  Those times go to the path's piece in one ordered update
        sorted by (step, round, call, sign, path); ufunc.at applies them one
        by one, and a - v == a + (-v).  Returns each move's chain row, call
        number in its round, path, step, round and new state."""
        M, na = self.M, self.na
        log, self._log = self._log, []
        sizes = [len(e[2]) for e in log]
        row, call = (np.repeat(np.array([e[k] for e in log], dtype=np.int64), sizes) for k in (0, 1))
        cand, old, new = (np.concatenate([e[k] for e in log] or [np.zeros(0, np.int64)]) for k in (2, 3, 4))
        path, step, rnd, offs = self._p[cand], self._step[cand], self._rnd[cand], self._offs[cand]
        np.add.at(self.occ_steps, (np.arange(3)[:, None], S0, self._piece), steps)
        at = np.concatenate([row * M + old, row * M + new]) * len(self._sizes) + np.tile(self._piece[path], 2)
        left, rem = steps - 1 - step, self.h - offs
        np.add.at(self.occ_steps.reshape(-1), at, np.concatenate([-left, left]))
        n_rnd, n_call = int(rnd.max(initial=0)) + 1, int(call.max(initial=0)) + 1
        sub = ((step * n_rnd + rnd) * n_call + call) * 2 * na + path
        order = np.argsort(np.concatenate([sub, sub + na]), kind="stable")
        np.add.at(self.occ_rem.reshape(-1), at[order], np.concatenate([-rem, rem])[order])

        if self.recording:  # the window is the recorded path alone: its moves by (step, round, call)
            o = order[order < len(row)]
            tc = (k0 + step[o]) * self.h + offs[o]
            for r, *rec in zip(row[o].tolist(), tc.tolist(), (old[o] + 1).tolist(), (new[o] + 1).tolist()):
                self.jump_rec[CHAIN_NAMES[r]].append(tuple(rec))
        return row, call, path, step, rnd, new

    def _crossing_error(self, c):
        """A coupled round left the chains of candidate ``c``'s path out of
        order, which the envelopes allow where they do not dominate the rates;
        every coupled route refuses it at that round, naming the path."""
        path = self._p[c]
        states = ", ".join(f"{name}={s + 1}" for name, s in zip(CHAIN_NAMES, self.S[:, path].tolist()))
        where = ("; the envelopes were derived from the validation grid and are certified only on it"
                 if self.sc.envelopes is None else "")
        return EngineError(f"coupled chains crossed at t={self._tc[c]:.6g}, path {self.paths[path]}: {states}{where}")

    def _check_rate_bound(self, Roff, q, c, Xc):
        """Thinning is exact only while every off-diagonal rate ``Roff`` (n,
        M, M) at candidates ``c`` (points ``Xc``) is nonnegative and every
        exit rate ``q`` (n, M) stays within H; a NaN rate is not within it."""
        q_max = q.max()
        if q_max <= self.H_max and Roff.min() >= -cpl.NEG_TOL:
            return
        if q_max <= self.H_max:
            k, i, j = np.unravel_index(int(Roff.argmin()), Roff.shape)
            what = f"rate {Roff[k, i, j]:.6g} from state {i + 1} to state {j + 1} is negative"
        else:
            k, i = np.unravel_index(int(q.argmax()), q.shape)  # argmax picks a NaN first
            what = (f"exit rate {q[k, i]:.6g} from state {i + 1} "
                    f"{'exceeds' if q_max > self.H_max else 'is not within'} declared bound H={self.sc.rates.H}")
        where = (" at every x" if Xc is None  # state-free rates, checked before the first step
                 else f" at t={self._tc[c[k]]:.6g}, x={Xc[k].tolist()}, path {self.paths[self._p[c[k]]]}")
        raise EngineError(what + where)

    def _lambda_jump(self, c, Xc):
        """The switching chain's rule at candidates ``c``, with the diffusion
        values there (None at rates that do not read x): the rate check, then
        the move under the route's layout, logged as call 0; a row-block mark
        below 0 or from L on is none of its jumps.  It keeps each candidate's new state
        and, in the row-block layout, the pick's width and the mark's
        position in it."""
        Roff, mark, lam = self._Roff[c], self._marks[c], self.S[1, self._p[c]]
        self._check_rate_bound(Roff, Roff.sum(axis=2), c, Xc)
        if self.route == "two_state":
            new = _interval_move(lam, mark, Roff[:, 0, 1], Roff[:, 1, 0])
        else:
            ar = np.arange(len(c))
            hit, tgt, edges = _pick(Roff[ar, lam], mark)
            new = np.where(hit & (mark >= 0) & (mark < self.L), tgt, lam)
            width = Roff[ar, lam, tgt]
            self._lam_pick[:, c] = width, (mark - (edges[ar, tgt] - width)) / np.maximum(width, 1e-300)
        self._lam_new[c] = new
        self._apply_jump(1, c, new, 0)

    # The envelope rules share one signature: (the round's candidates,
    # lambda's states before them, its row holding those after); the
    # interval rule reads neither state of lambda.  Each numbers its
    # _apply_jump calls in their order in a round from 1, the same number at
    # every round, and the block bookkeeping orders a round's moves on one
    # chain by that number, as the rounds ran.

    def _two_state_jump(self, c, lam):
        qbar, qstar = self.env.qbar, self.env.qstar
        for call, (row, a12, a21) in enumerate(((2, qbar[0, 1], qbar[1, 0]), (0, qstar[0, 1], qstar[1, 0])), 1):
            self._apply_jump(row, c, _interval_move(self.S[row, self._p[c]], self._marks[c], a12, a21), call)

    def _matrix_jump(self, c, lam):
        nc, M = len(c), self.M
        Roff, mark = self._Roff[c], self._marks[c]
        star_c, new_c, bar_c = self.S[:, self._p[c]]
        # one fused batch: rows of (switching, upper) then (lower, switching)
        R1, R2 = np.empty((2, 2 * nc, M, M))
        R1[:nc], R1[nc:] = Roff, self.Rstar
        R2[:nc], R2[nc:] = self.Rbar, Roff
        ii = np.concatenate([lam, star_c])
        jj = np.concatenate([bar_c, lam])
        rows = cpl.coupling_rows_batch(R1, R2, ii, jj)
        rows[np.arange(2 * nc), ii, jj] = 0.0
        np.maximum(rows, 0.0, out=rows)  # nonnegative rates give rows >= 0 up to rounding
        row1, row2 = rows[:nc], rows[nc:]

        # region A: the switching chain's own mark space [0, L), where it moved
        sub = np.flatnonzero(new_c != lam)
        if len(sub):
            cs, mvs = c[sub], new_c[sub]
            w, u2 = self._lam_pick[:, cs]
            okb, nb, _ = _pick(row1[sub, mvs], u2, w)
            oks, ns, _ = _pick(row2[sub, :, mvs], self._aux[cs], w)
            self._apply_jump(2, cs, np.where(okb, nb, bar_c[sub]), 1)
            self._apply_jump(0, cs, np.where(oks, ns, star_c[sub]), 2)

        # regions B and C: from L on, one mark moves the upper chain alone and
        # the lower chain alone, each through its own table at mark - L (the
        # lower one read transposed); neither move passes lambda, which the
        # mark leaves in place, so the two keep the order and their laws
        sub = np.flatnonzero(mark >= self.L)
        if len(sub):
            u, lam_s = mark[sub] - self.L, lam[sub]
            for call, row, table in ((3, 2, row1), (4, 0, row2.transpose(0, 2, 1))):
                picked, new, _ = _pick(table[sub, lam_s], u)
                self._apply_jump(row, c[sub[picked]], new[picked], call)

    # -- main loop

    def _step_block(self, block_start, off, xi_block, draws):
        """Run the step block from ``block_start`` on its noise ``xi_block``
        (group, step, column, d), the paths from column ``off``, and each
        group's candidates ``draws``."""
        h, obs_every, na, d, M = self.h, self.params.obs_every, self.na, self.d, self.M
        bsz = xi_block.shape[1]
        # the block's candidate table, which the rules read by index
        *cand, bounds = _candidate_schedule(draws, bsz, _GROUP, off, na, h, self.R_cand)
        self._p, self._offs, self._marks, self._aux, self._step, self._rnd = cand
        p, n, step = self._p, len(self._p), self._step
        self._tc = (block_start + step) * h + self._offs
        xi = self._xi.reshape(-1, d)[off:off + na]  # each step's noise, copied into self._xi
        S0 = self.S.copy()  # the block's start states, which its booking reads
        # lambda's state after each candidate and its pick, which the envelope rules read
        self._lam_new, self._lam_pick = np.empty(n, dtype=np.int64), np.empty((2, n))
        if self.state_free or self.coupled:  # the block rounds, each path's r-th candidate in round r
            order, rb = _block_rounds(p)
            self._rounds = [order[b0:b1] for b0, b1 in zip(rb, rb[1:])]
        if self.state_free:  # lambda's rule ahead of the steps, at the one rate stack
            self._Roff = np.broadcast_to(self.R0, (n, M, M))
            for c in self._rounds:
                self._lambda_jump(c, None)
            first, _, to_path, to_state = _last_moves(
                bsz, np.ones(n, np.int64), np.zeros(n, np.int64), p, step, self._rnd, self._lam_new)
            self.S[1] = S0[1]
        else:
            step_first = np.searchsorted(step[bounds[:-1]], np.arange(bsz + 1)).tolist()
            self._Roff = np.empty((n, M, M))  # at the candidates, as the steps take them
        stop = None  # (candidate, error) where the steps fail

        for kk in range(bsz):
            k = block_start + kk
            t = k * h
            if k % obs_every == 0:  # a coupled run counts once its envelope chains moved
                self._snapshot_obs(count=not self.coupled)
            r = self.rec_index.get(k)
            if r is not None:
                self._record_stats(r)

            X, Xn = self.X, self._X_next
            np.copyto(self._xi, xi_block[:, kk])
            self._euler(X, xi, Xn)
            if k >= self.tail_start:  # sqrt once at the end: it is monotone
                np.maximum(self.tail_x2, np.square(Xn[:, 0]) if self.d == 1 else (Xn**2).sum(axis=1), out=self.tail_x2)
            if not np.isfinite(Xn).all():
                bad = int(np.flatnonzero(~np.isfinite(Xn).all(axis=1))[0])
                stop = int(np.searchsorted(step, kk)), EngineError(
                    f"non-finite state at t={t + h:.6g}, path {self.paths[bad]} (overflow)"
                )
                break

            if self.state_free:  # lambda's states after the step, from the pass ahead
                a, b = first[kk], first[kk + 1]
                if a < b:
                    self.S[1, to_path[a:b]] = to_state[a:b]
                    self._lits[:, to_path[a:b]] = self._lit_table[:, to_state[a:b]]
            else:
                g0, g1 = step_first[kk], step_first[kk + 1]
                if g0 < g1 and (stop := self._process_step(Xn, bounds[g0:g1 + 1])):
                    break

            self.X, self._X_next = Xn, X
            if self.recording:
                self._record_grid(k + 1)
        self._finish_block(S0, block_start, bsz, stop)

    # a diverging state overflows, and its square before it, until the step
    # update raises for it; the error state is set once per run, not per step
    @np.errstate(over="ignore", invalid="ignore")
    def run(self) -> _ChunkResult:
        params = self.params
        h = self.h
        n_steps = params.n_steps
        obs_every = params.obs_every
        # the path groups g0, ..., g0 + ng - 1 hold the paths, each drawn
        # whole; laid side by side, the first path is column off
        g0, off = divmod(self.paths.start, _GROUP)
        ng = (off + self.na - 1) // _GROUP + 1
        gens = [(_philox(params.seed, _NOISE, g), _philox(params.seed, _JUMPS, g))
                for g in range(g0, g0 + ng)]
        blocks = range(0, n_steps, _STEP_BLOCK)
        bufs = [np.empty((ng, min(_STEP_BLOCK, n_steps), _GROUP, self.d)) for _ in blocks[:2]]
        self._xi = np.empty((ng, _GROUP, self.d))

        def draw(b):
            """Step block b's noise, into buffer b % 2, and each group's candidates."""
            bsz = min(_STEP_BLOCK, n_steps - blocks[b])
            xi_block, draws = bufs[b % 2][:, :bsz], []
            for j, (ngen, jgen) in enumerate(gens):
                ngen.standard_normal(out=xi_block[j])
                draws.append(_draw_candidates(jgen, bsz * _GROUP, self.R_cand * h))
            return xi_block, draws

        # with more than one block and more than one path group, one helper
        # thread draws block b + 1 while block b steps; each stream is still
        # read by one thread at a time, in block order.  One group's draws,
        # about 0.3 ms a block, cost less than handing them over.
        pool = contextlib.nullcontext()
        if len(blocks) > 1 and ng > 1:
            from concurrent.futures import ThreadPoolExecutor  # imported only where a helper runs
            pool = ThreadPoolExecutor(1)
        with pool as helper:
            take = functools.partial(draw, 0)
            for b, block_start in enumerate(blocks):
                xi_block, draws = take()
                if b + 1 < len(blocks):
                    take = helper.submit(draw, b + 1).result if helper else functools.partial(draw, b + 1)
                self._step_block(block_start, off, xi_block, draws)

        if n_steps % obs_every == 0:
            self._snapshot_obs(count=True)
        self._record_stats(self.rec_index[n_steps])
        np.maximum(self.tail_x2, (self.X**2).sum(axis=1), out=self.tail_x2)

        path = None
        if self.recording:
            path = HybridPath(
                times=np.arange(n_steps + 1) * h,
                X=self.rX,
                lam=self.rS[:, 1] + 1,
                lam_star=(self.rS[:, 0] + 1) if self.coupled else None,
                lam_bar=(self.rS[:, 2] + 1) if self.coupled else None,
                jumps=self.jump_rec,
                meta={
                    "path_index": self.paths.start,
                    "seed": params.seed,
                    "tau": params.tau,
                    "h": h,
                    "horizon": params.horizon,
                    "route": self.route,
                    "initial_state": self.sc.i0,
                },
            )
        return _ChunkResult(
            sizes=self._sizes,
            stats=self.stats,
            occupation=self.occ,
            skeleton_counts=self.skel,
            tail_exceed=int((np.sqrt(self.tail_x2) > self.x0_norm).sum()),
            path=path,
        )


def _draw_candidates(jgen, cells, mean):
    """One group's candidates over a block's ``cells``, Poisson(mean) in each:
    given its Poisson total, a Poisson random measure is iid uniform points."""
    n = jgen.poisson(mean * cells)
    return jgen.integers(0, cells, n), jgen.random(3 * n)


def _candidate_schedule(draws, steps, G, lo, na, h, R_cand):
    """Thinning candidates of one step block in the order they are processed.

    ``draws`` holds, group by group, the candidates' cell ids, row-major
    (step, column) in a group of G columns, and their uniforms, three per
    candidate, in draw order.  Columns [lo, lo + na) of the groups laid side
    by side are kept, as paths from lo.  Round r holds the r-th candidate in
    time (ties in draw order) of every path in its (step, path) cell, paths
    ascending, and the rounds follow in (step, round) order.  Returns the
    per-candidate (path, offset in the step, mark, auxiliary uniform, step,
    round in its step) in round order and the round bounds.
    """
    group = np.repeat(np.arange(len(draws)), [len(cells) for cells, _ in draws])
    step, path = np.divmod(np.concatenate([cells for cells, _ in draws]), G)
    path += group * G - lo
    live = (path >= 0) & (path < na)
    u = np.concatenate([v for _, v in draws]).reshape(-1, 3)[live]
    step, path, offs = step[live], path[live], u[:, 0] * h
    order = np.lexsort((offs, path * steps + step))  # stable: a cell's ties keep draw order
    step, path = step[order], path[order]
    new_path = np.diff(path, prepend=-1) != 0
    rnd = _rank(new_path | (np.diff(step, prepend=-1) != 0))
    key = step * (int(rnd.max(initial=-1)) + 1) + rnd
    by_round = np.argsort(key, kind="stable")  # paths stay ascending in a round
    order, key = order[by_round], key[by_round]
    bounds = np.flatnonzero(np.diff(key, prepend=-1, append=-1))
    return (path[by_round], offs[order], u[order, 1] * R_cand, u[order, 2], step[by_round], rnd[by_round],
            bounds.tolist())


def _block_rounds(p):
    """The block pass's rounds over the per-step schedule's paths ``p``:
    round r holds every path's r-th candidate in the block, paths ascending.
    Returns the candidates in round order and the round bounds."""
    by_path = np.argsort(p, kind="stable")
    rank = _rank(np.diff(p[by_path], prepend=-1) != 0)
    o = np.argsort(rank, kind="stable")
    return by_path[o], np.flatnonzero(np.diff(rank[o], prepend=-1, append=-1)).tolist()


def _last_moves(steps, row, call, path, step, rnd, new):
    """The states a block's steps write, each chain's last state of every
    path a step moved: the first of them for every step, with one more entry
    closing the last step, and their chain rows, paths and states."""
    o = np.lexsort((call, rnd, path, row, step))
    o = o[np.diff(np.stack([step[o], row[o], path[o]]), axis=1, append=-1).any(axis=0)]
    return np.searchsorted(step[o], np.arange(steps + 1)).tolist(), row[o], path[o], new[o]


def _states_before(S0, first, rows, paths, states):
    """A function of a step block's steps ``ks`` that gives the chain states
    at their start, (len(ks), 3, paths), from the block's start states and
    the states its steps write (``_last_moves``)."""
    span = len(first)  # beyond every step of the block
    at = (rows * S0.shape[1] + paths) * span + np.repeat(np.arange(span - 1), np.diff(first))  # (cell, step)
    o = np.argsort(at)
    at, new, cells = np.append(-1, at[o]), np.append(0, states[o]), np.arange(S0.size)

    def at_steps(ks):
        last = np.searchsorted(at, cells * span + np.asarray(ks)[:, None]) - 1  # each cell's last write before
        return np.where(at[last] // span == cells, new[last], S0.ravel()).reshape(-1, *S0.shape)

    return at_steps


def _rank(first):
    """Each entry's rank in its run, the runs starting where ``first`` holds."""
    at = np.arange(len(first))
    return at - np.maximum.accumulate(np.where(first, at, 0))


def _shape_plan(entries, state, na):
    """The evaluation plan of coefficient entries, each given as its regimes'
    trees: per entry, one (regimes, f, literals) per shape (exprlang.shape)
    in order of first regime, f that of the first.  A literal whose bits are
    equal across the shape's regimes stays a float; one that differs is a row
    of the per-path literals.  Returns the plan, the (rows, M) table of every
    regime's value of those literals, a regime outside the literal's shape
    taking the shape's first regime's, and the per-path literals (rows, na),
    all at ``state``."""
    plan, table = [], []
    for trees in entries:
        shaped = [exprlang.shape(t) for t in trees]  # (key, literals, f)
        plan.append([])
        for key in dict.fromkeys(s[0] for s in shaped):
            regimes, slots = [i for i, s in enumerate(shaped) if s[0] == key], []
            for v in np.array([shaped[i][1] for i in regimes], dtype=float).T:  # (regimes,): one literal
                if (v.view(np.int64) == v.view(np.int64)[0]).all():
                    slots.append(float(v[0]))
                else:  # the index of its row
                    slots.append(len(table))
                    table.append(np.full(len(trees), v[0]))
                    table[-1][regimes] = v
            plan[-1].append((regimes, shaped[regimes[0]][2], slots))
    table = np.array(table).reshape(len(table), len(entries[0]))
    lits = np.repeat(table[:, state:state + 1], na, axis=1)
    plan = [[(regimes, f, [lits[s] if isinstance(s, int) else s for s in slots]) for regimes, f, slots in shapes]
            for shapes in plan]
    return plan, table, lits


def _interval_move(states, mark, a12, a21):
    """Two-state interval rule: up-interval [0, a12), down-interval
    [a12, a12 + a21); returns the new states."""
    new = states.copy()
    up = (states == 0) & (mark < a12)
    dn = (states == 1) & (mark >= a12) & (mark < a12 + a21)
    new[up] = 1
    new[dn] = 0
    return new


def _pick(weights, u, denom=None):
    """The mark space's one cumulative-interval pick: left-closed right-open
    intervals of widths ``weights`` (n, K), laid from 0 in index order, so a
    zero weight gives no interval.  Returns (picked mask, index, the
    intervals' upper edges).  Without ``denom``, u in [0, total) picks an
    interval and anything beyond is a no-op candidate.  With ``denom`` the
    intervals are scaled by max(denom, total), so a uniform u beyond the
    covered mass keeps the current state (the caller interprets 'not picked'
    as 'stay')."""
    thr = np.cumsum(weights, axis=1)
    if denom is not None:
        thr /= (np.maximum(denom, weights.sum(axis=1)) + 1e-300)[:, None]
    return u < thr[:, -1], (u[:, None] < thr).argmax(axis=1), thr


def _merge(results, sc, params, route, warnings) -> McSummary:
    """Reduce the chunks' pieces once, stacked in path order; sum the integers."""
    sizes = np.concatenate([res.sizes for res in results])
    sum_x2, m2, sum_lag2 = np.concatenate([res.stats for res in results], axis=-1)
    n = int(sizes.sum())
    times = np.array(params.record_steps()) * params.h
    mean_x2 = sum_x2.sum(axis=-1) / n
    with np.errstate(over="ignore", invalid="ignore"):
        # the squared deviations of |X|^2, merged by Chan, Golub and LeVeque (1983)
        m2 = m2.sum(axis=-1) + (sizes * (sum_x2 / sizes - mean_x2[:, None]) ** 2).sum(axis=-1)
        x4 = m2 / n + mean_x2**2  # mean of |X|^4: not finite once the paths diverge
    if not np.isfinite(x4).all():
        t = times[np.flatnonzero(~np.isfinite(x4))[0]]
        raise EngineError(f"fourth moment of |X| is not finite at recording time t={t:.6g} (overflow)")
    se = np.sqrt(m2 / n / n)
    occ = np.concatenate([res.occupation for res in results], axis=-1).sum(axis=-1)
    skel = sum(res.skeleton_counts for res in results)
    tail = sum(res.tail_exceed for res in results)
    coupled = route != "marginal"
    rows = (0, 1, 2) if coupled else (1,)
    occupation = {CHAIN_NAMES[cc]: occ[cc] / (n * params.horizon) for cc in rows}
    skeleton = {CHAIN_NAMES[cc]: skel[cc] for cc in rows}
    return McSummary(
        times=times,
        mean_x2=mean_x2,
        se_x2=se,
        mean_lag2=sum_lag2.sum(axis=-1) / n,
        occupation=occupation,
        skeleton_counts=skeleton,
        tail_exceed_fraction=tail / n,
        ordering_violations=0,  # a crossing raises
        n_paths=n,
        seed=params.seed,
        tau=params.tau,
        h=params.h,
        horizon=params.horizon,
        coupled=coupled,
        route=route,
        warnings=warnings,
        scenario_hash=sc.hash,
        x0_norm=float(np.linalg.norm(sc.x0)),
    )


def _plan(sc, coupled):
    """(route, envelopes, warnings) of a run; a marginal run has no envelopes."""
    return choose_route(sc) if coupled else ("marginal", None, [])


def _worker_chunk(raw, params, paths, route, env):
    return _ChunkRun(load_scenario(raw), params, paths, route, env).run()


def monte_carlo(sc: Scenario, params: SimParams, coupled: bool = False) -> McSummary:
    """Run n_paths independent paths and aggregate in path-index order."""
    route, env, warnings = _plan(sc, coupled)
    n, W = params.n_paths, params.chunk_size
    chunks = [range(s, min(s + W, n)) for s in range(0, n, W)]
    if params.workers > 1 and len(chunks) > 1:
        from concurrent.futures import ProcessPoolExecutor  # imported only where a pool runs
        with ProcessPoolExecutor(max_workers=params.workers) as pool:
            futs = [pool.submit(_worker_chunk, sc.raw, params, paths, route, env) for paths in chunks]
            results = [f.result() for f in futs]
    else:
        results = [_ChunkRun(sc, params, paths, route, env).run() for paths in chunks]
    return _merge(results, sc, params, route, warnings)


def simulate_hybrid(sc: Scenario, params: SimParams, path_index: int = 0) -> HybridPath:
    """Simulate a single marginal path (exact jump times recorded)."""
    return _simulate_one(sc, params, path_index, coupled=False)


def simulate_coupled(sc: Scenario, params: SimParams, path_index: int = 0) -> HybridPath:
    """Simulate a single path with the sandwich chains attached."""
    return _simulate_one(sc, params, path_index, coupled=True)


def _simulate_one(sc, params, path_index, coupled):
    if not 0 <= path_index < params.n_paths:
        raise EngineError(f"path_index {path_index} out of range 0..{params.n_paths - 1}")
    route, env, warnings = _plan(sc, coupled)
    res = _ChunkRun(sc, params, range(path_index, path_index + 1), route, env, recording=True).run()
    res.path.meta["warnings"] = warnings
    return res.path
