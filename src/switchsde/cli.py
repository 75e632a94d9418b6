"""Command-line interface: scenario validation, envelope and coupling
inspection, spectral quantities, stability certificates, and simulation runs
with bit-reproducible JSON/CSV artifacts.

Exit codes: 0 success, 1 validation failure, 2 runtime error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import coupling as cpl
from . import engine, markov
from .stability import CertifyError
from .stability import certify as run_certify
from .stability import feasible_tau_search
from .scenario import (
    ScenarioError,
    canonical_json,
    load_scenario,
    validate_scenario,
)


def _print_json(doc, out=None):
    text = canonical_json(doc)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _given(args, names):
    """The options among ``names`` that the command line sets."""
    return {k: v for k in names if (v := getattr(args, k, None)) is not None}


def _load(args):
    with open(args.scenario, encoding="utf-8") as fh:
        doc = json.load(fh)
    if isinstance(doc, dict):
        doc.update(_given(args, ("tau", "step", "horizon", "seed", "paths")))
    return load_scenario(doc)


def _params(sc, args):
    return engine.SimParams.from_scenario(sc, **_given(args, ("record_stride", "workers")))


def _pair(text):
    try:
        i, j = (int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a product state i,j, got {text!r}") from None
    return i, j


def _csv(kind):
    """argparse type: a comma-separated list of ``kind`` values."""
    def parse(text):
        try:
            return [kind(v) for v in text.split(",")]
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated {kind.__name__} values, got {text!r}") from None
    return parse


def cmd_validate(args):
    sc = _load(args)
    if args.echo:
        _print_json(sc.raw)
        return 0
    rep = validate_scenario(sc)
    doc = {"scenario_hash": sc.hash, **rep.as_dict()}
    _print_json(doc, args.out)
    return 0 if rep.ok else 1


def cmd_envelopes(args):
    sc = _load(args)
    pts = sc.grid_points()
    R = sc.rates.offdiag_batch(pts)
    env = cpl.extremal_envelopes(R)
    grid = {"qbar": env.qbar.tolist(), "qstar": env.qstar.tolist()}
    doc = {"scenario_hash": sc.hash, "grid_envelopes": grid}
    if sc.M == 2:
        conds = cpl.check_two_state_conditions(env, R, pts)
        grid["qbar_down_positive"] = env.qbar_down_positive
        grid["qstar_up_positive"] = env.qstar_up_positive
        doc["two_state_conditions"] = {
            "upper": conds.upper.as_dict(),
            "lower": conds.lower.as_dict(),
        }
    if sc.envelopes is not None:
        up = cpl.check_domination(R, cpl.offdiag(sc.envelopes.qbar), pts)
        lo = cpl.check_domination(cpl.offdiag(sc.envelopes.qstar), R, pts)
        doc["declared"] = {
            "qbar": sc.envelopes.qbar.tolist(),
            "qstar": sc.envelopes.qstar.tolist(),
            "domination_upper": up.as_dict(),
            "domination_lower": lo.as_dict(),
        }
    _print_json(doc, args.out)
    return 0


def cmd_couple(args):
    sc = _load(args)
    if sc.envelopes is None:
        raise ScenarioError("scenario declares no envelopes to couple against")
    x = np.array(args.x, dtype=float)
    if x.shape != (sc.d,):
        raise ScenarioError(f"--x must have {sc.d} component(s)")
    if not np.isfinite(x).all():
        raise ScenarioError(f"--x must be finite, got {x.tolist()}")
    if args.pair and not all(1 <= v <= sc.M for v in args.pair):
        raise ScenarioError(f"--from {args.pair[0]},{args.pair[1]}: states run from 1 to {sc.M}")
    Qx = sc.rates.at(x)
    Rx = cpl.offdiag(Qx)
    Rbar = cpl.offdiag(sc.envelopes.qbar)
    Rstar = cpl.offdiag(sc.envelopes.qstar)

    def table(R1, R2, label):
        M = sc.M
        Qt = cpl.full_coupling_generator(R1, R2).reshape(M, M, M, M)
        rows = {
            f"({i + 1},{j + 1})": Qt[i, j].tolist()
            for i in range(M)
            for j in range(M)
            if not args.pair or (i + 1, j + 1) == args.pair
        }
        return {"pairs": rows, "marginals": label}

    doc = {
        "scenario_hash": sc.hash,
        "x": x.tolist(),
        "rates_at_x": Qx.tolist(),
        "upper_pair": table(Rx, Rbar, "(switching, upper envelope)"),
        "lower_pair": table(Rstar, Rx, "(lower envelope, switching)"),
    }
    _print_json(doc, args.out)
    return 0


def cmd_spectral(args):
    sc = _load(args)
    if sc.envelopes is None:
        raise ScenarioError("spectral quantities need declared envelopes")
    if not math.isfinite(args.p):
        raise ScenarioError(f"--p must be finite, got {args.p}")
    if args.theta and not all(map(math.isfinite, args.theta)):
        raise ScenarioError(f"--theta must be finite, got {args.theta}")
    tau = args.tau if args.tau is not None else sc.tau
    envelopes = [np.asarray(Q, dtype=float) for Q in (sc.envelopes.qbar, sc.envelopes.qstar)]
    skeletons = [markov.skeleton_transition(Q, tau) for Q in envelopes]  # refuses a bad tau before theta reads it
    theta = np.array(args.theta) if args.theta else -6.0 * tau * sc.gains
    if theta.shape != (sc.M,):
        raise ScenarioError(f"--theta must have {sc.M} components")
    ns = args.n or [60, 80]
    doc = {"scenario_hash": sc.hash, "tau": tau, "theta": theta.tolist()}

    def power(lam, e, what):
        try:
            value = lam**e
        except OverflowError:
            value = math.inf
        if not 0 < value < math.inf:
            raise markov.MarkovError(f"perron_root_tilted**{what}, theta = {theta.tolist()} "
                                     f"is {value:.6g}, not a finite nonzero double")
        return value

    for name, Q, P in zip(("qbar", "qstar"), envelopes, skeletons):
        mu = markov.invariant_measure(Q)
        lam = markov.perron_root(markov.tilt(P, theta))
        table = []
        for n in ns:
            val = markov.exp_functional(mu, P, theta, n)
            table.append({"n": n, "value": val, "ratio_to_root_pow_n": val / power(lam, n, f"n at n = {n}")})
        doc[name] = {
            "skeleton": P.tolist(),
            "invariant_measure": mu.tolist(),
            "perron_root_tilted": lam,
            "per_unit_time_root": power(lam, 1.0 / tau, f"(1/tau) at tau = {tau}"),
            "exp_functional": table,
        }
    doc["eta"] = {
        "p": args.p,
        "value": markov.spectral_abscissa(sc.envelopes.qbar, sc.C, args.p),
    }
    _print_json(doc, args.out)
    return 0


def cmd_certify(args):
    sc = _load(args)
    env = sc.envelopes
    if env is None:
        raise ScenarioError("certification needs declared envelopes")
    tau = args.tau if args.tau is not None else sc.tau
    doc = {"scenario_hash": sc.hash}
    if args.tau_sweep:
        certs, passing, best = feasible_tau_search(env.qbar, env.qstar, sc.C, sc.c, sc.gains, sc.Ma)
        doc["sweep"] = [{"tau": t, **cert.to_dict()} for t, cert in certs]
        doc["passing_taus"] = [t for t, _ in passing]
        doc["best"] = {"tau": best[0], **best[1].to_dict()} if best else None
    else:
        cert = run_certify(env.qbar, env.qstar, sc.C, sc.c, sc.gains, sc.Ma, tau)
        doc.update(cert.to_dict())
    _print_json(doc, args.out)
    return 0


def _write_csv(path, out, scenario_hash):
    """One row per grid time, each column read once through ``tolist`` and
    its cells formatted as the rows are joined.  A row's jump flag is set
    when a jump time lies in (t_prev, t + 1e-15] and was not counted by the
    row before, whose window closed at t_prev + 1e-15."""
    jt = np.array(sorted({t for recs in path.jumps.values() for t, _, _ in recs}), dtype=float)
    upto = np.searchsorted(jt, path.times + 1e-15, side="right")  # jump times counted by each row
    after = np.maximum(np.searchsorted(jt, path.times[:-1], side="right"), np.append(0, upto[1:-1]))
    flag = np.append(0, upto[1:] > after)
    cols = [(f"{v:.17g}" for v in x) for x in [path.times.tolist(), *path.X.T.tolist()]]
    cols += [[""] * len(flag) if c is None else map(str, c.tolist())
             for c in (path.lam, path.lam_star, path.lam_bar, flag)]
    header = ["t", *(f"x{i + 1}" for i in range(path.X.shape[1])), "lambda", "lambda_star", "lambda_bar", "jump_flag"]
    lines = [
        f"# scenario_hash={scenario_hash} seed={path.meta['seed']} "
        f"path_index={path.meta['path_index']} route={path.meta['route']}",
        ",".join(header),
        *map(",".join, zip(*cols)),
    ]
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_simulate(args):
    sc = _load(args)
    params = _params(sc, args)
    sim = engine.simulate_coupled if args.coupled else engine.simulate_hybrid
    path = sim(sc, params, args.path_index)
    _write_csv(path, args.out, sc.hash)
    meta = {
        "scenario_hash": sc.hash,
        "seed": params.seed,
        "path_index": args.path_index,
        "coupled": args.coupled,
        "route": path.meta["route"],
        "n_jumps": {k: len(v) for k, v in path.jumps.items()},
        "warnings": path.meta["warnings"],
        "out": args.out,
    }
    _print_json(meta)
    return 0


def cmd_mc(args):
    sc = _load(args)
    params = _params(sc, args)
    summary = engine.monte_carlo(sc, params, coupled=args.coupled)
    _print_json(summary.to_dict(), args.out)
    return 0


@functools.cache
def build_parser():
    """The one parser of a process; each ``parse_args`` returns a fresh namespace."""
    ap = argparse.ArgumentParser(
        prog="switchsde",
        description="Simulate and certify feedback-stabilized regime-switching diffusions.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, sim=False):
        p.add_argument("scenario", help="scenario JSON file")
        p.add_argument("--out", help="write the JSON/CSV artifact here")
        p.add_argument("--tau", type=float)
        if sim:
            p.add_argument("--step", type=float)
            p.add_argument("--horizon", type=float)
            p.add_argument("--seed", type=int)
            p.add_argument("--paths", type=int)

    p = sub.add_parser("validate", help="structural and analytic scenario checks")
    common(p)
    p.add_argument("--echo", action="store_true", help="re-emit the canonical scenario")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("envelopes", help="grid envelopes and interval-condition checks")
    common(p)
    p.set_defaults(fn=cmd_envelopes)

    p = sub.add_parser("couple", help="coupling rate tables at a point")
    common(p)
    p.add_argument("--x", required=True, type=_csv(float), help="comma-separated point")
    p.add_argument("--from", dest="pair", type=_pair, help="restrict to product state i,j")
    p.set_defaults(fn=cmd_couple)

    p = sub.add_parser("spectral", help="skeletons, tilted roots, exponential functionals")
    common(p)
    p.add_argument("--theta", type=_csv(float), help="comma-separated tilt vector")
    p.add_argument("--p", type=float, default=3.0, help="diagonal perturbation strength")
    p.add_argument("--n", type=_csv(int), help="comma-separated horizon list for the functional table")
    p.set_defaults(fn=cmd_spectral)

    p = sub.add_parser("certify", help="stability certificate at tau, or a tau sweep")
    common(p)
    p.add_argument("--tau-sweep", action="store_true")
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("simulate", help="one path to CSV")
    common(p, sim=True)
    p.add_argument("--coupled", action="store_true")
    p.add_argument("--path-index", type=int, default=0)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("mc", help="Monte Carlo summary to JSON")
    common(p, sim=True)
    p.add_argument("--coupled", action="store_true")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--record-stride", type=int)
    p.set_defaults(fn=cmd_mc)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.command == "simulate" and not args.out:
        ap.error("simulate requires --out")
    try:
        return args.fn(args)
    except (ScenarioError, json.JSONDecodeError, FileNotFoundError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except (engine.EngineError, CertifyError, markov.MarkovError, cpl.CouplingError, ValueError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
