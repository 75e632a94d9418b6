"""Command-line interface: scenario validation, envelope and coupling
inspection, spectral quantities, stability certificates, and simulation runs
with bit-reproducible JSON/CSV artifacts.

Exit codes: 0 success, 1 validation failure, 2 runtime error.
"""

from __future__ import annotations

import argparse
import json
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
    scenario_hash,
    validate_scenario,
)


def _print_json(doc, out=None):
    text = canonical_json(doc)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _f(v: float) -> str:
    return f"{v:.17g}"


def _apply_overrides(args):
    overrides = {}
    for name in ("tau", "step", "horizon", "seed", "paths"):
        v = getattr(args, name, None)
        if v is not None:
            overrides[name] = v
    return overrides


def _load(args):
    with open(args.scenario, encoding="utf-8") as fh:
        doc = json.load(fh)
    if isinstance(doc, dict):
        doc.update(_apply_overrides(args))
    return load_scenario(doc)


def _params(sc, args):
    kw = {}
    if getattr(args, "record_stride", None):
        kw["record_stride"] = args.record_stride
    if getattr(args, "workers", None):
        kw["workers"] = args.workers
    return engine.SimParams.from_scenario(sc, **kw)


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
    doc = {"scenario_hash": sc.hash}
    if sc.M == 2:
        env = cpl.two_state_envelopes(R)
        conds = cpl.check_two_state_conditions(env, R, pts)
        doc["grid_envelopes"] = {
            "qbar": env.qbar.tolist(),
            "qstar": env.qstar.tolist(),
            "qbar_down_positive": env.qbar_down_positive,
            "qstar_up_positive": env.qstar_up_positive,
        }
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
    x = np.array([float(v) for v in args.x.split(",")], dtype=float)
    if x.shape != (sc.d,):
        raise ScenarioError(f"--x must have {sc.d} component(s)")
    Qx = sc.rates.at(x)
    Rx = cpl.offdiag(Qx)
    Rbar = cpl.offdiag(sc.envelopes.qbar)
    Rstar = cpl.offdiag(sc.envelopes.qstar)

    def table(R1, R2, label):
        rows = {}
        M = sc.M
        for i in range(M):
            for j in range(M):
                if args.pair and (i + 1, j + 1) != args.pair:
                    continue
                if i <= j:
                    T = cpl.order_preserving_rows(R1, R2, i, j)
                else:
                    T = cpl.basic_coupling_rows(R1[i], R2[j], i, j)
                rows[f"({i + 1},{j + 1})"] = T.tolist()
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
    tau = args.tau if args.tau is not None else sc.tau
    theta = (
        np.array([float(v) for v in args.theta.split(",")])
        if args.theta
        else -6.0 * tau * sc.gains
    )
    if theta.shape != (sc.M,):
        raise ScenarioError(f"--theta must have {sc.M} components")
    ns = [int(v) for v in args.n.split(",")] if args.n else [60, 80]
    doc = {"scenario_hash": sc.hash, "tau": tau, "theta": theta.tolist()}
    for name, Q in (("qbar", sc.envelopes.qbar), ("qstar", sc.envelopes.qstar)):
        P = markov.skeleton_transition(np.asarray(Q, dtype=float), tau)
        mu = markov.invariant_measure(np.asarray(Q, dtype=float))
        lam = markov.perron_root(markov.tilt(P, theta))
        table = []
        for n in ns:
            val = markov.exp_functional(mu, P, theta, n)
            table.append({"n": n, "value": val, "ratio_to_root_pow_n": val / lam**n})
        doc[name] = {
            "skeleton": P.tolist(),
            "invariant_measure": mu.tolist(),
            "perron_root_tilted": lam,
            "per_unit_time_root": lam ** (1.0 / tau),
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
    if sc.envelopes is None:
        raise ScenarioError("certification needs declared envelopes")
    tau = args.tau if args.tau is not None else sc.tau
    doc = {"scenario_hash": sc.hash}
    if args.tau_sweep:
        certs, passing, best = feasible_tau_search(
            sc.envelopes.qbar, sc.envelopes.qstar, sc.C, sc.c, sc.gains, sc.Ma
        )
        doc["sweep"] = [{"tau": t, **cert.to_dict()} for t, cert in certs]
        doc["passing_taus"] = [t for t, _ in passing]
        doc["best"] = {"tau": best[0], **best[1].to_dict()} if best else None
    else:
        cert = run_certify(
            sc.envelopes.qbar, sc.envelopes.qstar, sc.C, sc.c, sc.gains, sc.Ma, tau
        )
        doc.update(cert.to_dict())
    _print_json(doc, args.out)
    return 0


def _write_csv(path, out, scenario_hash):
    coupled = path.coupled
    jumps_at = set()
    for recs in path.jumps.values():
        for t, _, _ in recs:
            jumps_at.add(t)
    jt = sorted(jumps_at)
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
        row = [_f(float(t))]
        row += [_f(float(v)) for v in path.X[k]]
        row.append(str(int(path.lam[k])))
        row.append(str(int(path.lam_star[k])) if coupled else "")
        row.append(str(int(path.lam_bar[k])) if coupled else "")
        row.append(str(flag))
        lines.append(",".join(row))
        prev_t = t
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


def build_parser():
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
    p.add_argument("--x", required=True, help="comma-separated point")
    p.add_argument("--from", dest="pair_raw", help="restrict to product state i,j")
    p.set_defaults(fn=cmd_couple)

    p = sub.add_parser("spectral", help="skeletons, tilted roots, exponential functionals")
    common(p)
    p.add_argument("--theta", help="comma-separated tilt vector")
    p.add_argument("--p", type=float, default=3.0, help="diagonal perturbation strength")
    p.add_argument("--n", help="comma-separated horizon list for the functional table")
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
    if getattr(args, "pair_raw", None):
        i, j = (int(v) for v in args.pair_raw.split(","))
        args.pair = (i, j)
    elif hasattr(args, "pair_raw"):
        args.pair = None
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
