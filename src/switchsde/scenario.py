"""Scenario files: schema validation, compiled problem descriptions, and the
structural/analytic validation report behind the ``validate`` subcommand.

A scenario bundles the controlled diffusion (drift, diffusion, feedback
gains), the state-dependent generator with its declared rate bound, optional
envelope generators, declared coefficient bounds, and simulation parameters.
Expressions are strings in the exprlang grammar.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.resources
import itertools
import json
import math
import os
from dataclasses import dataclass, field

import jsonschema
import numpy as np

from . import coupling, exprlang, markov
from .coupling import EnvelopePair
from .exprlang import Expr


class ScenarioError(ValueError):
    pass


@functools.cache
def _validator():
    text = importlib.resources.files("switchsde").joinpath("schema.json").read_text()
    return jsonschema.Draft202012Validator(json.loads(text))


def _jsonify(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


_esc = json.encoder.encode_basestring_ascii
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_CONSTANTS = {True: "true", False: "false", None: "null"}


def _key(k):
    if not (k is None or isinstance(k, (str, int, float))):
        raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")
    return k if isinstance(k, str) else _text(k, "")


def _text(o, pad):
    """``o`` as json.dumps writes it at ``pad``, a newline and its line's indent: exact floats
    and bools first, then json's isinstance order (disjoint kinds but bool < int), then _jsonify."""
    t = type(o)
    if t is float or t is not dict and isinstance(o, float):
        return _NONFINITE.get(r := float.__repr__(o), r)
    if t is bool or o is None:
        return _CONSTANTS[o]
    if isinstance(o, str):
        return _esc(o)
    if isinstance(o, int):
        return int.__repr__(o)
    inner = pad + "  "
    if isinstance(o, (list, tuple)):
        return "[" + inner + ("," + inner).join([_text(v, inner) for v in o]) + pad + "]" if o else "[]"
    if isinstance(o, dict):
        items = [f"{_esc(k if type(k) is str else _key(k))}: {_text(v, inner)}" for k, v in sorted(o.items())]
        return "{" + inner + ("," + inner).join(items) + pad + "}" if o else "{}"
    return _text(_jsonify(o), pad)


def canonical_json(doc) -> str:
    """The bytes of ``json.dumps(doc, sort_keys=True, indent=2,
    default=_jsonify)``, without json's pure-Python encoder."""
    return _text(doc, "\n")


def scenario_hash(doc) -> str:
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()[:16]


@dataclass
class StateRates:
    """State-dependent generator: off-diagonal rate expressions plus the
    declared uniform bound H on the exit rates."""

    M: int
    exprs: list  # M x M of Expr (diagonal entries unused)
    H: float
    _fills: list = field(default_factory=list, init=False, repr=False)

    def __post_init__(self):
        # decided once: +0.0 entries are skipped (R starts as zeros), other
        # constants are broadcast, and the entries that share an expression
        # are filled from one evaluation
        groups = {}
        for i in range(self.M):
            for j in range(self.M):
                if i != j:
                    groups.setdefault(self.exprs[i][j], []).append((i, j))
        for e, entries in groups.items():
            v = exprlang.constant_value(e)
            if v == 0.0 and math.copysign(1.0, v) > 0:
                continue
            rows, cols = zip(*entries)
            idx = (rows[0], cols[0]) if len(entries) == 1 else (list(rows), list(cols))
            self._fills.append((idx, exprlang.compile_vectorized(e) if v is None else v))

    @property
    def state_free(self) -> bool:
        """Whether no off-diagonal rate reads x: every fill is a constant."""
        return not any(callable(fill) for _, fill in self._fills)

    def offdiag_batch(self, X: np.ndarray) -> np.ndarray:
        """Off-diagonal rates at a batch of points, shape (n, M, M)."""
        R = np.zeros((X.shape[0], self.M, self.M))
        Rt = R.transpose(1, 2, 0)  # Rt[i, j] is entry (i, j) across the batch
        for idx, fill in self._fills:
            Rt[idx] = fill(X) if callable(fill) else fill
        return R

    def at(self, x) -> np.ndarray:
        """Full generator (with diagonal) at a single point."""
        X = np.asarray(x, dtype=float).reshape(1, -1)
        R = self.offdiag_batch(X)[0]
        return coupling.with_diagonal(R)


@dataclass
class GridSpec:
    lo: float
    hi: float
    n: int

    def points(self, d: int) -> np.ndarray:
        """Validation grid, shape (n_points, d); product grid for d > 1."""
        axis = np.linspace(self.lo, self.hi, self.n)
        if d == 1:
            return axis[:, None]
        per_axis = max(2, int(round(self.n ** (1.0 / d))))
        per_axis = min(per_axis, self.n)
        axis = np.linspace(self.lo, self.hi, per_axis)
        pts = np.array(list(itertools.product(axis, repeat=d)))
        return pts


@dataclass
class Scenario:
    d: int
    M: int
    drift: list  # M lists of d Expr
    diffusion: list  # M lists of d x d Expr
    gains: np.ndarray  # (M,)
    rates: StateRates
    envelopes: EnvelopePair | None
    C: np.ndarray  # (M,) upper coefficient bounds
    c: np.ndarray  # (M,) lower coefficient bounds
    Ma: float
    x0: np.ndarray  # (d,)
    i0: int  # 1-based
    tau: float
    step: float
    horizon: float
    seed: int
    paths: int
    grid: GridSpec
    raw: dict = field(repr=False, default=None)

    drift_fn: list = field(init=False, repr=False)
    sigma_fn: list = field(init=False, repr=False)

    def __post_init__(self):
        self.drift_fn = [[exprlang.compile_vectorized(e) for e in row] for row in self.drift]
        self.sigma_fn = [
            [[exprlang.compile_vectorized(e) for e in r] for r in mat] for mat in self.diffusion
        ]

    @property
    def hash(self) -> str:
        return scenario_hash(self.raw)

    def drift_at(self, X: np.ndarray, state: int) -> np.ndarray:
        """a(x, state) for a batch X (n, d); state 0-based."""
        cols = [f(X) for f in self.drift_fn[state]]
        return np.stack(cols, axis=1)

    def sigma_at(self, X: np.ndarray, state: int) -> np.ndarray:
        """sigma(x, state) for a batch X (n, d) -> (n, d, d); state 0-based."""
        n = X.shape[0]
        S = np.empty((n, self.d, self.d))
        for r in range(self.d):
            for cc in range(self.d):
                S[:, r, cc] = self.sigma_fn[state][r][cc](X)
        return S

    def grid_points(self) -> np.ndarray:
        return self.grid.points(self.d)


def _parse_expr(source, where, errors):
    try:
        return exprlang.parse(source)
    except exprlang.ParseError as exc:
        errors.append(f"{where}: {exc}")
        return exprlang.Num(0.0)


def load_scenario(source) -> Scenario:
    """Load and schema-validate a scenario from a path to a JSON file or from
    an already-parsed document."""
    doc = source
    if isinstance(source, (str, os.PathLike)):
        with open(source, encoding="utf-8") as fh:
            doc = json.load(fh)

    schema_errors = sorted(_validator().iter_errors(doc), key=lambda e: e.json_path)
    if schema_errors:
        msgs = [f"{e.json_path}: {e.message}" for e in schema_errors]
        raise ScenarioError("schema violations:\n  " + "\n  ".join(msgs))

    d = doc["dimensions"]["d"]
    M = doc["dimensions"]["M"]
    errors = []

    def expect_shape(name, got, want):
        if got != want:
            errors.append(f"{name}: expected shape {want}, got {got}")

    expect_shape("$.drift", (len(doc["drift"]), *{len(r) for r in doc["drift"]}), (M, d))
    expect_shape("$.gains", (len(doc["gains"]),), (M,))
    expect_shape("$.rates", (len(doc["rates"]), *{len(r) for r in doc["rates"]}), (M, M))
    expect_shape(
        "$.coefficient_bounds.C", (len(doc["coefficient_bounds"]["C"]),), (M,)
    )
    expect_shape(
        "$.coefficient_bounds.c", (len(doc["coefficient_bounds"]["c"]),), (M,)
    )
    expect_shape("$.initial.x", (len(doc["initial"]["x"]),), (d,))
    if len(doc["diffusion"]) != M or any(
        len(mat) != d or any(len(row) != d for row in mat) for mat in doc["diffusion"]
    ):
        errors.append(f"$.diffusion: expected M={M} matrices of shape {d}x{d}")
    if errors:
        raise ScenarioError("dimension violations:\n  " + "\n  ".join(errors))

    drift = [
        [_parse_expr(s, f"$.drift[{i}][{k}]", errors) for k, s in enumerate(row)]
        for i, row in enumerate(doc["drift"])
    ]
    diffusion = [
        [
            [_parse_expr(s, f"$.diffusion[{i}][{r}][{cc}]", errors) for cc, s in enumerate(row)]
            for r, row in enumerate(mat)
        ]
        for i, mat in enumerate(doc["diffusion"])
    ]
    rate_exprs = [
        [_parse_expr(s, f"$.rates[{i}][{j}]", errors) for j, s in enumerate(row)]
        for i, row in enumerate(doc["rates"])
    ]
    all_exprs = (
        [e for row in drift for e in row]
        + [e for mat in diffusion for row in mat for e in row]
        + [rate_exprs[i][j] for i in range(M) for j in range(M) if i != j]
    )
    for e in all_exprs:
        k = exprlang.max_variable(e)
        if k > d:
            errors.append(f"expression uses x{k} but d = {d}")
    if errors:
        raise ScenarioError("expression violations:\n  " + "\n  ".join(errors))

    envelopes = None
    if "envelopes" in doc:
        qbar = np.array(doc["envelopes"]["qbar"], dtype=float)
        qstar = np.array(doc["envelopes"]["qstar"], dtype=float)
        if qbar.shape != (M, M) or qstar.shape != (M, M):
            raise ScenarioError(f"$.envelopes: matrices must be {M}x{M}")
        envelopes = EnvelopePair(qbar, qstar)

    rates = StateRates(M=M, exprs=rate_exprs, H=float(doc["rate_bound"]))
    return Scenario(
        d=d,
        M=M,
        drift=drift,
        diffusion=diffusion,
        gains=np.array(doc["gains"], dtype=float),
        rates=rates,
        envelopes=envelopes,
        C=np.array(doc["coefficient_bounds"]["C"], dtype=float),
        c=np.array(doc["coefficient_bounds"]["c"], dtype=float),
        Ma=float(doc["coefficient_bounds"]["Ma"]),
        x0=np.array(doc["initial"]["x"], dtype=float),
        i0=int(doc["initial"]["state"]),
        tau=float(doc["tau"]),
        step=float(doc["step"]),
        horizon=float(doc["horizon"]),
        seed=int(doc["seed"]),
        paths=int(doc["paths"]),
        grid=GridSpec(**doc["grid"]),
        raw=doc,
    )


@dataclass
class ValidationReport:
    """Structural findings fail validation; envelope-order findings are
    reported and gate coupled simulation, but a scenario whose declared
    envelopes do not dominate is still runnable (marginal simulation and
    best-effort coupling)."""

    structural: list = field(default_factory=list)
    findings: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.structural

    def as_dict(self):
        return {
            "ok": self.ok,
            "structural": self.structural,
            "findings": self.findings,
            "warnings": self.warnings,
        }


def validate_scenario(sc: Scenario) -> ValidationReport:
    rep = ValidationReport()
    pts = sc.grid_points()
    R = sc.rates.offdiag_batch(pts)

    if not np.isfinite(R).all():
        rep.structural.append("rates: non-finite value on the validation grid")
        return rep
    if R.min() < -1e-12:
        k, i, j = np.unravel_index(int((R < -1e-12).argmax()), R.shape)
        rep.structural.append(
            f"rates: negative rate q[{i + 1}][{j + 1}] = {R[k, i, j]:.6g} at x = {pts[k].tolist()}"
        )
    qi = R.sum(axis=2)
    if qi.max() > sc.rates.H + coupling.CHECK_TOL:
        k, i = np.unravel_index(int(qi.argmax()), qi.shape)
        rep.structural.append(
            f"rates: exit rate {qi[k, i]:.6g} from state {i + 1} at x = {pts[k].tolist()} "
            f"exceeds declared bound H = {sc.rates.H}"
        )

    # sampled generators must be conservative + irreducibility spot check
    mid = sc.rates.at(pts[len(pts) // 2])
    gd = markov.validate_generator(mid)
    if not gd.conservative:
        rep.structural.append(f"rates: sampled generator not conservative: {gd.as_dict()}")
    rep.findings["sampled_generator_irreducible"] = gd.irreducible

    # coefficient bounds on the grid
    x2 = (pts**2).sum(axis=1)
    tol = 1e-7 * (1.0 + x2)
    for i in range(sc.M):
        a = sc.drift_at(pts, i)
        S = sc.sigma_at(pts, i)
        if not (np.isfinite(a).all() and np.isfinite(S).all()):
            rep.structural.append(f"coefficients: non-finite drift/diffusion for state {i + 1}")
            continue
        val = 2.0 * (a * pts).sum(axis=1) + (S**2).sum(axis=(1, 2))
        if np.any(val > sc.C[i] * x2 + tol):
            k = int((val - sc.C[i] * x2).argmax())
            rep.structural.append(
                f"bounds: 2<a,x>+|sigma|^2 = {val[k]:.6g} exceeds C({i + 1})|x|^2 = "
                f"{sc.C[i] * x2[k]:.6g} at x = {pts[k].tolist()}"
            )
        if np.any(val < sc.c[i] * x2 - tol):
            k = int((sc.c[i] * x2 - val).argmax())
            rep.structural.append(
                f"bounds: 2<a,x>+|sigma|^2 = {val[k]:.6g} below c({i + 1})|x|^2 = "
                f"{sc.c[i] * x2[k]:.6g} at x = {pts[k].tolist()}"
            )
        amag = np.sqrt((a**2).sum(axis=1))
        if np.any(amag > sc.Ma * np.sqrt(x2) + 1e-7 * (1 + np.sqrt(x2))):
            k = int((amag - sc.Ma * np.sqrt(x2)).argmax())
            rep.structural.append(
                f"bounds: |a(x,{i + 1})| = {amag[k]:.6g} exceeds Ma|x| = "
                f"{sc.Ma * np.sqrt(x2[k]):.6g} at x = {pts[k].tolist()}"
            )

    # monotone gains and coefficient functions; propose a reordering on failure
    mono = {
        "b": bool(np.all(np.diff(sc.gains) >= -1e-12)),
        "C": bool(np.all(np.diff(sc.C) >= -1e-12)),
        "c": bool(np.all(np.diff(sc.c) >= -1e-12)),
    }
    rep.findings["monotone"] = mono
    if not all(mono.values()):
        perm = np.argsort(sc.C, kind="stable")
        fixed = {
            "b": bool(np.all(np.diff(sc.gains[perm]) >= -1e-12)),
            "C": bool(np.all(np.diff(sc.C[perm]) >= -1e-12)),
            "c": bool(np.all(np.diff(sc.c[perm]) >= -1e-12)),
        }
        Rp = R[:, perm][:, :, perm]
        rep.findings["reorder_proposal"] = {
            "permutation": (perm + 1).tolist(),
            "fixes_monotonicity": all(fixed.values()),
            "permuted_generator_irreducible": markov.is_irreducible(
                coupling.with_diagonal(Rp[len(pts) // 2])
            ),
        }
        rep.structural.append(
            "bounds: b/C/c must be non-decreasing in the state index "
            f"(monotone: {mono}); see findings.reorder_proposal"
        )
    if np.any(sc.C < sc.c - 1e-12):
        rep.structural.append("bounds: C(i) < c(i) for some state")

    # envelopes, declared or else derived from the grid, are checked for the
    # partial-sum domination; two-state interval conditions reported
    env = sc.envelopes
    if env is None:
        env = coupling.extremal_envelopes(R)
        rep.warnings.append("envelopes derived from the grid (grid-certified, not asserted)")

    for name, Q in (("qbar", env.qbar), ("qstar", env.qstar)):
        gd = markov.validate_generator(Q)
        if not gd.conservative:
            rep.structural.append(f"envelopes.{name}: not conservative: {gd.as_dict()}")
        rep.findings[f"{name}_irreducible"] = gd.irreducible

    upper = coupling.check_domination(R, coupling.offdiag(env.qbar), pts)
    lower = coupling.check_domination(coupling.offdiag(env.qstar), R, pts)
    rep.findings["domination_upper"] = upper.as_dict()
    rep.findings["domination_lower"] = lower.as_dict()
    if not upper.holds:
        rep.warnings.append(
            "upper envelope does not dominate the rates; coupled runs keep the "
            "pathwise order but the upper chain is sub-marginal (see findings)"
        )
    if not lower.holds:
        rep.warnings.append("lower envelope is not dominated by the rates (see findings)")

    if sc.M == 2:
        # at two states each domination test compares one rate with one
        # envelope rate: a failure puts the grid extrema outside the envelope
        # (never so for envelopes derived from the grid, which are the extrema)
        for name, dom in (("qbar", upper), ("qstar", lower)):
            if not dom.holds:
                rep.structural.append(f"envelopes.{name} inconsistent with grid extrema of the rates")
        conds = coupling.check_two_state_conditions(env, R, pts)
        rep.findings["two_state_conditions"] = {
            "upper": conds.upper.as_dict(),
            "lower": conds.lower.as_dict(),
            "qbar_down_positive": env.qbar_down_positive,
            "qstar_up_positive": env.qstar_up_positive,
        }
    return rep
