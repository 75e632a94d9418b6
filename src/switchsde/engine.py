"""Hybrid-path simulation: Euler-Maruyama for the controlled diffusion plus
exact thinned jump clocks for the switching chain, with optional coupled
envelope chains sandwiching the switching process pathwise.

Randomness is counter-based (Philox keyed by seed, path block, and step
block), so every path's variates are a pure function of (scenario, params)
independent of execution order; path-block parallelism cannot change results.
Paths are processed in fixed-width blocks vectorized with numpy; per-path
statistics are reduced block by block in path order for bit-reproducible
aggregation.

Jump mechanism: candidate events arrive as a Poisson stream whose rate covers
the whole mark space; at each candidate the diffusion value is linearly
interpolated inside the step and a uniform mark decides the jump through the
consecutive-interval layout (see coupling.skorokhod_partition).  Coupled runs
either share one mark among all three chains (two-state interval route, when
the interval-sum conditions hold) or drive the pair transitions from the
order-preserving coupling rows with shared candidate times (matrix route).
Jump times are exact; the diffusion increment of a step uses the regime held
at the step's start, so a mid-step switch takes effect for the coefficients
from the next grid node (consistent with the first-order scheme).
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import coupling as cpl
from .coupling import EnvelopePair
from .scenario import Scenario, load_scenario

_NOISE = 1
_JUMPS = 2
_STEP_BLOCK = 256
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
        if not 0 < self.h <= self.tau <= self.horizon + 1e-12:
            raise EngineError(
                f"need 0 < h <= tau <= horizon, got h={self.h}, tau={self.tau}, T={self.horizon}"
            )
        if abs(self.tau / self.h - round(self.tau / self.h)) > 1e-9:
            raise EngineError(f"tau/h must be an integer, got {self.tau / self.h}")
        if abs(self.horizon / self.h - round(self.horizon / self.h)) > 1e-6:
            raise EngineError("horizon must be a multiple of the step")

    @classmethod
    def from_scenario(cls, sc: Scenario, **overrides):
        kw = dict(
            tau=sc.tau, h=sc.step, horizon=sc.horizon, seed=sc.seed, n_paths=sc.paths
        )
        aliases = {"step": "h", "paths": "n_paths"}
        for k, v in overrides.items():
            kw[aliases.get(k, k)] = v
        return cls(**kw)

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
        return {
            "scenario_hash": self.scenario_hash,
            "seed": self.seed,
            "n_paths": self.n_paths,
            "tau": self.tau,
            "h": self.h,
            "horizon": self.horizon,
            "coupled": self.coupled,
            "route": self.route,
            "x0_norm": self.x0_norm,
            "times": self.times.tolist(),
            "mean_x2": self.mean_x2.tolist(),
            "se_x2": self.se_x2.tolist(),
            "mean_lag2": self.mean_lag2.tolist(),
            "occupation": {k: v.tolist() for k, v in self.occupation.items()},
            "skeleton_counts": {k: v.tolist() for k, v in self.skeleton_counts.items()},
            "tail_exceed_fraction": self.tail_exceed_fraction,
            "ordering_violations": self.ordering_violations,
            "warnings": self.warnings,
        }


def choose_route(sc: Scenario):
    """Pick the coupled-run construction and collect precondition findings."""
    pts = sc.grid_points()
    R = sc.rates.offdiag_batch(pts)
    env = sc.envelopes
    warnings = []
    if env is None:
        if sc.M != 2:
            raise EngineError("coupled simulation requires declared envelopes for M > 2")
        env = cpl.two_state_envelopes(R)
        warnings.append("envelopes derived from the validation grid")
    if sc.M == 2:
        conds = cpl.check_two_state_conditions(env, R, pts)
        if conds.both_hold and env.qbar_down_positive and env.qstar_up_positive:
            return "two_state", env, warnings
        warnings.append(
            "two-state interval conditions fail; falling back to the coupling-matrix route"
        )
    up = cpl.check_domination(R, cpl.offdiag(env.qbar), pts)
    lo = cpl.check_domination(cpl.offdiag(env.qstar), R, pts)
    if not up.holds:
        warnings.append(
            f"upper envelope does not dominate the rates (worst: {up.worst}); "
            "pathwise order is still enforced but the upper chain is sub-marginal"
        )
    if not lo.holds:
        warnings.append(f"lower envelope not dominated by the rates (worst: {lo.worst})")
    return "matrix", env, warnings


def _philox(seed: int, kind: int, chunk: int, block: int) -> np.random.Generator:
    packed = (kind << 60) | (chunk << 40) | block
    return np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1), packed]))


@dataclass
class _ChunkResult:
    n_active: int
    sum_x2: np.ndarray
    sum_x4: np.ndarray
    sum_lag2: np.ndarray
    occupation: np.ndarray  # (3, M) time sums; rows follow CHAIN_NAMES
    skeleton_counts: np.ndarray  # (3, M, M)
    tail_exceed: int
    violations: int
    path: HybridPath | None = None


class _ChunkRun:
    """State and step logic for one block of paths."""

    def __init__(self, sc, params, chunk_idx, coupled, route, env, record_local=None):
        self.sc = sc
        self.params = params
        self.chunk_idx = chunk_idx
        self.coupled = coupled
        self.route = route
        self.env = env
        self.record_local = record_local

        M, d = sc.M, sc.d
        self.M, self.d = M, d
        self.h = params.h
        self.sqrt_h = math.sqrt(self.h)
        self.W = params.chunk_size
        start = chunk_idx * self.W
        self.start = start
        self.na = min(params.n_paths - start, self.W)
        if self.na <= 0:
            raise EngineError(f"chunk {chunk_idx} has no paths")

        self.L = M * sc.rates.H
        if coupled:
            self.Rbar = cpl.offdiag(env.qbar)
            self.Rstar = cpl.offdiag(env.qstar)
            self.Hbar = float(self.Rbar.sum(axis=1).max())
            self.Hstar = float(self.Rstar.sum(axis=1).max())
            self.R_cand = self.L if route == "two_state" else self.L + self.Hbar + self.Hstar
        else:
            self.R_cand = self.L

        na = self.na
        self.X = np.tile(sc.x0, (na, 1)).astype(float)
        self.lam = np.full(na, sc.i0 - 1, dtype=np.int64)
        self.lam_s = self.lam.copy() if coupled else None
        self.lam_b = self.lam.copy() if coupled else None
        self.X_obs = self.X.copy()
        self.lam_obs = self.lam.copy()

        self.rec_steps = params.record_steps()
        self.rec_index = {k: r for r, k in enumerate(self.rec_steps)}
        n_rec = len(self.rec_steps)
        self.sum_x2 = np.zeros(n_rec)
        self.sum_x4 = np.zeros(n_rec)
        self.sum_lag2 = np.zeros(n_rec)
        self.occ = np.zeros((3, M))
        # state population per chain, updated incrementally at jumps
        self.pop = np.zeros((3, M))
        self.pop[1] = np.bincount(self.lam, minlength=M)
        if coupled:
            self.pop[0] = self.pop[1].copy()
            self.pop[2] = self.pop[1].copy()
        self.skel = np.zeros((3, M, M), dtype=np.int64)
        self.prev_obs_states = None
        self.violations = 0
        self.tail_start = int(math.ceil(params.n_steps / 2))
        self.tail_max = np.zeros(na)
        self.x0_norm = float(np.linalg.norm(sc.x0))

        self.recording = record_local is not None
        if self.recording:
            n = params.n_steps
            self.rX = np.empty((n + 1, d))
            self.rlam = np.empty(n + 1, dtype=np.int64)
            self.rstar = np.empty(n + 1, dtype=np.int64) if coupled else None
            self.rbar = np.empty(n + 1, dtype=np.int64) if coupled else None
            self.jump_rec = {name: [] for name in CHAIN_NAMES}
            self._record_grid(0)

    # -- coefficient evaluation (full width per state, combined by regime)

    def _drift(self, X, states):
        out = None
        for i in range(self.M):
            vals = np.stack([f(X) for f in self.sc.drift_fn[i]], axis=1)
            out = vals if out is None else np.where((states == i)[:, None], vals, out)
        return out

    def _noise_term(self, X, states, xi):
        if self.d == 1:
            out = None
            for i in range(self.M):
                s = self.sc.sigma_fn[i][0][0](X)
                v = s * xi[:, 0]
                out = v if out is None else np.where(states == i, v, out)
            return out[:, None]
        out = np.zeros_like(X)
        for i in range(self.M):
            m = states == i
            if m.any():
                S = self.sc.sigma_at(X[m], i)
                out[m] = np.einsum("nij,nj->ni", S, xi[m])
        return out

    # -- bookkeeping

    def _record_stats(self, r):
        # squares of a diverging state overflow before the state does; a
        # non-finite state raises in the step update
        with np.errstate(over="ignore"):
            x2 = (self.X**2).sum(axis=1)
            self.sum_x2[r] = x2.sum()
            self.sum_x4[r] = (x2**2).sum()
            self.sum_lag2[r] = ((self.X - self.X_obs) ** 2).sum()

    def _record_grid(self, k):
        rl = self.record_local
        self.rX[k] = self.X[rl]
        self.rlam[k] = self.lam[rl]
        if self.coupled:
            self.rstar[k] = self.lam_s[rl]
            self.rbar[k] = self.lam_b[rl]

    def _snapshot_obs(self):
        self.X_obs = self.X.copy()
        self.lam_obs = self.lam.copy()
        if self.coupled:
            cur = np.stack([self.lam_s, self.lam, self.lam_b])
            if self.prev_obs_states is not None:
                for cc in range(3):
                    np.add.at(self.skel[cc], (self.prev_obs_states[cc], cur[cc]), 1)
            self.prev_obs_states = cur

    def _apply_jump(self, chain_row, states, pj, new, rem, tc, name):
        old = states[pj]
        moved = old != new
        if not moved.any():
            return
        pj, old, new, rem = pj[moved], old[moved], new[moved], rem[moved]
        states[pj] = new
        occ_row = self.occ[chain_row]
        np.subtract.at(occ_row, old, rem)
        np.add.at(occ_row, new, rem)
        # exact integer counts: the same bytes as per-index updates
        self.pop[chain_row] += np.bincount(new, minlength=self.M) - np.bincount(old, minlength=self.M)
        if self.recording:
            tc = tc[moved]
            rl = self.record_local
            for q, o, nn, t in zip(pj, old, new, tc):
                if q == rl:
                    self.jump_rec[name].append((float(t), int(o) + 1, int(nn) + 1))

    def _order_violations(self, idx=None) -> int:
        if not self.coupled:
            return 0
        ls, lm, lb = self.lam_s, self.lam, self.lam_b
        if idx is not None:
            ls, lm, lb = ls[idx], lm[idx], lb[idx]
        return int(((ls > lm) | (lm > lb)).sum())

    # -- jump dispatch

    def _process_candidates(self, t, Xn, p, offs, marks, aux):
        frac = offs / self.h
        Xc = self.X[p] + (Xn[p] - self.X[p]) * frac[:, None]
        Roff = self.sc.rates.offdiag_batch(Xc)
        rem = self.h - offs
        tc = t + offs
        if self.route == "two_state":
            self._two_state_jump(Roff, marks, p, rem, tc)
        elif self.route == "matrix":
            self._matrix_jump(Roff, marks, aux, p, rem, tc, Xc)
        else:
            self._marginal_jump(Roff, marks, p, rem, tc)
        if self.coupled:
            self.violations += self._order_violations(p)

    def _row_block_pick(self, Roff, mark, p):
        """Locate the switching chain's own jump in the consecutive-row mark
        layout; returns (hit mask, target, interval width, in-interval u)."""
        nc = len(p)
        ar = np.arange(nc)
        qrow = Roff.sum(axis=2)
        ends = np.cumsum(qrow, axis=1)
        lam_c = self.lam[p]
        qi = qrow[ar, lam_c]
        lo = ends[ar, lam_c] - qi
        u_in = mark - lo
        hit = (u_in >= 0) & (u_in < qi)
        rowrates = Roff[ar, lam_c, :]
        cums = np.cumsum(rowrates, axis=1)
        tgt = (u_in[:, None] < cums).argmax(axis=1)
        width = rowrates[ar, tgt]
        u2 = (u_in - (cums[ar, tgt] - width)) / np.maximum(width, 1e-300)
        return hit, tgt, width, u2

    def _marginal_jump(self, Roff, mark, p, rem, tc):
        hit, tgt, _, _ = self._row_block_pick(Roff, mark, p)
        if hit.any():
            self._apply_jump(1, self.lam, p[hit], tgt[hit], rem[hit], tc[hit], "lambda")

    def _two_state_jump(self, Roff, mark, p, rem, tc):
        env = self.env
        q12 = Roff[:, 0, 1]
        q21 = Roff[:, 1, 0]
        self._apply_jump(
            1, self.lam, p, _interval_move(self.lam[p], mark, q12, q21), rem, tc, "lambda"
        )
        self._apply_jump(
            2, self.lam_b, p,
            _interval_move(self.lam_b[p], mark, env.qbar[0, 1], env.qbar[1, 0]),
            rem, tc, "lambda_bar",
        )
        self._apply_jump(
            0, self.lam_s, p,
            _interval_move(self.lam_s[p], mark, env.qstar[0, 1], env.qstar[1, 0]),
            rem, tc, "lambda_star",
        )

    def _matrix_jump(self, Roff, mark, aux, p, rem, tc, Xc):
        nc = len(p)
        M = self.M
        lam_c = self.lam[p]
        bar_c = self.lam_b[p]
        star_c = self.lam_s[p]
        # one fused batch: rows of (switching, upper) then (lower, switching)
        R1, R2 = np.empty((2, 2 * nc, M, M))
        R1[:nc], R1[nc:] = Roff, self.Rstar
        R2[:nc], R2[nc:] = self.Rbar, Roff
        ii = np.concatenate([lam_c, star_c])
        jj = np.concatenate([bar_c, lam_c])
        rows = cpl.coupling_rows_batch(R1, R2, ii, jj)
        rows[np.arange(2 * nc), ii, jj] = 0.0
        neg = rows.min()
        if neg < -1e-9:
            c, m, n = np.unravel_index(int(rows.argmin()), rows.shape)
            raise EngineError(
                f"coupling produced negative rate {neg:.3e} to ({m + 1},{n + 1}) at "
                f"x={Xc[c % nc].tolist()}; the declared envelopes are inconsistent"
            )
        np.maximum(rows, 0.0, out=rows)
        row1, row2 = rows[:nc], rows[nc:]

        # region A: the switching chain's own mark space [0, L)
        hitA, mv, width, u2 = self._row_block_pick(Roff, mark, p)
        hitA &= mark < self.L
        if hitA.any():
            sub = np.flatnonzero(hitA)
            pj, mvs, w, rs, ts = p[sub], mv[sub], width[sub], rem[sub], tc[sub]
            okb, nb = _pick(row1[sub, mvs], u2[sub], w)
            oks, ns = _pick(row2[sub, :, mvs], aux[sub], w)
            self._apply_jump(1, self.lam, pj, mvs, rs, ts, "lambda")
            self._apply_jump(2, self.lam_b, pj, np.where(okb, nb, bar_c[sub]), rs, ts, "lambda_bar")
            self._apply_jump(0, self.lam_s, pj, np.where(oks, ns, star_c[sub]), rs, ts, "lambda_star")

        # region B: upper chain moves alone
        hitB = (mark >= self.L) & (mark < self.L + self.Hbar)
        if hitB.any():
            sub = np.flatnonzero(hitB)
            picked, nb = _pick(row1[sub, lam_c[sub]], mark[sub] - self.L)
            if picked.any():
                pj = p[sub[picked]]
                self._apply_jump(
                    2, self.lam_b, pj, nb[picked], rem[sub[picked]], tc[sub[picked]], "lambda_bar"
                )

        # region C: lower chain moves alone
        hitC = mark >= self.L + self.Hbar
        if hitC.any():
            sub = np.flatnonzero(hitC)
            picked, ns = _pick(row2[sub, :, lam_c[sub]], mark[sub] - self.L - self.Hbar)
            if picked.any():
                pj = p[sub[picked]]
                self._apply_jump(
                    0, self.lam_s, pj, ns[picked], rem[sub[picked]], tc[sub[picked]], "lambda_star"
                )

    # -- main loop

    def run(self) -> _ChunkResult:
        params = self.params
        sc = self.sc
        h = self.h
        n_steps = params.n_steps
        obs_every = params.obs_every
        W, na = self.W, self.na
        d = self.d

        for block_start in range(0, n_steps, _STEP_BLOCK):
            block = block_start // _STEP_BLOCK
            bsz = min(_STEP_BLOCK, n_steps - block_start)
            ngen = _philox(params.seed, _NOISE, self.chunk_idx, block)
            xi_block = ngen.standard_normal((bsz, W, d))
            jgen = _philox(params.seed, _JUMPS, self.chunk_idx, block)
            counts_block = jgen.poisson(self.R_cand * h, (bsz, W))
            tot_per_step = counts_block.sum(axis=1)
            u_all = jgen.random(3 * int(tot_per_step.sum()))
            u_off = np.concatenate(([0], np.cumsum(3 * tot_per_step)))

            for kk in range(bsz):
                k = block_start + kk
                t = k * h
                if k % obs_every == 0:
                    self._snapshot_obs()
                r = self.rec_index.get(k)
                if r is not None:
                    self._record_stats(r)

                xi = xi_block[kk, :na]
                with np.errstate(over="ignore", invalid="ignore"):
                    a = self._drift(self.X, self.lam)
                    fb = sc.gains[self.lam_obs][:, None] * self.X_obs
                    Xn = self.X + (a - fb) * h + self._noise_term(self.X, self.lam, xi) * self.sqrt_h
                if not np.isfinite(Xn).all():
                    bad = int(np.flatnonzero(~np.isfinite(Xn).all(axis=1))[0])
                    raise EngineError(
                        f"non-finite state at t={t + h:.6g}, path {self.start + bad} (overflow)"
                    )

                self.occ += self.pop * h  # whole step to the start states; jumps correct below

                counts = counts_block[kk]
                tot = int(tot_per_step[kk])
                if tot:
                    u = u_all[u_off[kk]:u_off[kk + 1]]
                    offs = u[0::3] * h
                    marks = u[1::3] * self.R_cand
                    aux = u[2::3]
                    cmax = int(counts.max())
                    if cmax == 1:
                        idx = np.flatnonzero(counts)
                        live = idx < na
                        if live.any():
                            self._process_candidates(
                                t, Xn, idx[live], offs[live], marks[live], aux[live]
                            )
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
                            self._process_candidates(t, Xn, idx[sel], offs[sel], marks[sel], aux[sel])

                self.X = Xn
                if k >= self.tail_start:
                    with np.errstate(over="ignore"):
                        self.tail_max = np.maximum(self.tail_max, np.sqrt((Xn**2).sum(axis=1)))
                self.violations += self._order_violations()
                if self.recording:
                    self._record_grid(k + 1)

        if n_steps % obs_every == 0:
            self._snapshot_obs()
        self._record_stats(self.rec_index[n_steps])
        self.tail_max = np.maximum(self.tail_max, np.sqrt((self.X**2).sum(axis=1)))

        path = None
        if self.recording:
            times = np.arange(n_steps + 1) * h
            path = HybridPath(
                times=times,
                X=self.rX,
                lam=self.rlam + 1,
                lam_star=(self.rstar + 1) if self.coupled else None,
                lam_bar=(self.rbar + 1) if self.coupled else None,
                jumps=self.jump_rec,
                meta={
                    "path_index": self.start + self.record_local,
                    "seed": params.seed,
                    "tau": params.tau,
                    "h": h,
                    "horizon": params.horizon,
                    "route": self.route,
                    "initial_state": sc.i0,
                },
            )
        return _ChunkResult(
            n_active=na,
            sum_x2=self.sum_x2,
            sum_x4=self.sum_x4,
            sum_lag2=self.sum_lag2,
            occupation=self.occ,
            skeleton_counts=self.skel,
            tail_exceed=int((self.tail_max > self.x0_norm).sum()),
            violations=self.violations,
            path=path,
        )


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
    """Categorical pick against cumulative rate intervals; returns (picked
    mask, index).  Without ``denom``, u in [0, total) picks an interval and
    anything beyond is a no-op candidate.  With ``denom`` the intervals are
    scaled by max(denom, total), so a uniform u beyond the covered mass keeps
    the current state (the caller interprets 'not picked' as 'stay')."""
    thr = np.cumsum(weights, axis=1)
    if denom is not None:
        thr /= (np.maximum(denom, weights.sum(axis=1)) + 1e-300)[:, None]
    picked = u < thr[:, -1]
    return picked, (u[:, None] < thr).argmax(axis=1)


def _merge(results, sc, params, coupled, route, warnings) -> McSummary:
    n_rec = results[0].sum_x2.shape[0]
    sum_x2 = np.zeros(n_rec)
    sum_x4 = np.zeros(n_rec)
    sum_lag2 = np.zeros(n_rec)
    occ = np.zeros_like(results[0].occupation)
    skel = np.zeros_like(results[0].skeleton_counts)
    tail = 0
    viol = 0
    n = 0
    for res in results:  # ascending chunk order: deterministic float reduction
        sum_x2 += res.sum_x2
        sum_x4 += res.sum_x4
        sum_lag2 += res.sum_lag2
        occ += res.occupation
        skel += res.skeleton_counts
        tail += res.tail_exceed
        viol += res.violations
        n += res.n_active
    times = np.array(params.record_steps()) * params.h
    mean_x2 = sum_x2 / n
    with np.errstate(over="ignore", invalid="ignore"):
        var = sum_x4 / n - mean_x2**2  # not finite whenever sum_x4 is not
    if not np.isfinite(var).all():
        t = times[np.flatnonzero(~np.isfinite(var))[0]]
        raise EngineError(f"variance of |X|^2 is not finite at recording time t={t:.6g} (overflow)")
    se = np.sqrt(np.maximum(var, 0.0) / n)
    occupation = {}
    skeleton = {}
    chains = CHAIN_NAMES if coupled else ("lambda",)
    for name in chains:
        cc = CHAIN_NAMES.index(name)
        occupation[name] = occ[cc] / (n * params.horizon)
        skeleton[name] = skel[cc]
    return McSummary(
        times=times,
        mean_x2=mean_x2,
        se_x2=se,
        mean_lag2=sum_lag2 / n,
        occupation=occupation,
        skeleton_counts=skeleton,
        tail_exceed_fraction=tail / n,
        ordering_violations=viol,
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


def _worker_chunk(raw, params, chunk_idx, coupled, route):
    sc = load_scenario(raw)
    env = None
    if coupled:
        _, env, _ = choose_route(sc)
    return _ChunkRun(sc, params, chunk_idx, coupled, route, env).run()


def monte_carlo(sc: Scenario, params: SimParams, coupled: bool = False) -> McSummary:
    """Run n_paths independent paths and aggregate in path-index order."""
    route, env, warnings = ("marginal", None, [])
    if coupled:
        route, env, warnings = choose_route(sc)
    n_chunks = (params.n_paths + params.chunk_size - 1) // params.chunk_size
    if params.workers > 1 and n_chunks > 1:
        with ProcessPoolExecutor(max_workers=params.workers) as pool:
            futs = [
                pool.submit(_worker_chunk, sc.raw, params, ci, coupled, route)
                for ci in range(n_chunks)
            ]
            results = [f.result() for f in futs]
    else:
        results = [
            _ChunkRun(sc, params, ci, coupled, route, env).run() for ci in range(n_chunks)
        ]
    return _merge(results, sc, params, coupled, route, warnings)


def simulate_hybrid(sc: Scenario, params: SimParams, path_index: int = 0) -> HybridPath:
    """Simulate a single marginal path (exact jump times recorded)."""
    return _simulate_one(sc, params, path_index, coupled=False)


def simulate_coupled(sc: Scenario, params: SimParams, path_index: int = 0) -> HybridPath:
    """Simulate a single path with the sandwich chains attached."""
    return _simulate_one(sc, params, path_index, coupled=True)


def _simulate_one(sc, params, path_index, coupled):
    if not 0 <= path_index < params.n_paths:
        raise EngineError(f"path_index {path_index} out of range 0..{params.n_paths - 1}")
    route, env, warnings = ("marginal", None, [])
    if coupled:
        route, env, warnings = choose_route(sc)
    chunk_idx = path_index // params.chunk_size
    run = _ChunkRun(
        sc, params, chunk_idx, coupled, route, env,
        record_local=path_index % params.chunk_size,
    )
    res = run.run()
    res.path.meta["warnings"] = warnings
    res.path.meta["ordering_violations_in_chunk"] = res.violations
    return res.path
