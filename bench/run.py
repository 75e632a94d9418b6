"""switchsde benchmark: one workload per run, driven through switchsde.cli.main.

    python3 bench/run.py --workload mc-matrix --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it imports switchsde from ./src and
writes its scratch files under ./.bench_work.  With --trace 0 it prints the
end-to-end metrics, with --trace 1 the per-layer metrics from a traced run.
Either way it checks every artifact, prints a report, and ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}.  bench/README.md says why
each workload exists and what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 5
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples beyond it
RUN_LIMIT_S = 170  # every run must end within 180 s
# worker.speed_kernel's time at full speed on the 2-core host this was tuned
# on; it only sets the scale of the times reported at nominal speed
CAL_NOMINAL_S = 0.0055
# ROADMAP Baseline ranges, M path-steps/s at 2048-path chunks and h = 0.01
BASELINE_RANGES = {
    "two_state_trig": (1.0, 1.4),
    "three_state_rational": (0.46, 0.55),
    "two_state_balanced": (3.8, 3.8),
    "linear_feedback": (4.8, 5.5),
}
LAYER_METRICS = (
    # (metric, layer, field, unit)
    ("cli.self_s", "cli", "self_s", "s"),
    ("scenario.load_s", "scenario.load", "self_s", "s"),
    ("engine.route_s", "engine.route", "self_s", "s"),
    ("coupling.check_s", "coupling.check", "self_s", "s"),
    ("scenario.rates_s", "scenario.rates", "self_s", "s"),
    ("scenario.rates_calls", "scenario.rates", "calls", "count"),
    ("scenario.rates_rows", "scenario.rates", "size", "count"),
    ("exprlang.coeff_s", "exprlang.coeff", "self_s", "s"),
    ("exprlang.coeff_calls", "exprlang.coeff", "calls", "count"),
    ("coupling.rows_s", "coupling.rows", "self_s", "s"),
    ("coupling.rows_calls", "coupling.rows", "calls", "count"),
    ("coupling.rows_n", "coupling.rows", "size", "count"),
    ("engine.mc_self_s", "engine.mc", "self_s", "s"),
    ("engine.simulate_self_s", "engine.simulate", "self_s", "s"),
    ("markov.perron_s", "markov.perron", "self_s", "s"),
    ("markov.perron_calls", "markov.perron", "calls", "count"),
    ("markov.skeleton_s", "markov.skeleton", "self_s", "s"),
    ("markov.skeleton_calls", "markov.skeleton", "calls", "count"),
    ("markov.abscissa_s", "markov.abscissa", "self_s", "s"),
    ("stability.certify_self_s", "stability.certify", "self_s", "s"),
)


def tail(values):
    """The highest percentile with at least TAIL_BEYOND samples beyond it,
    never below the median; returns (value, percentile)."""
    q = max(0.5, 1.0 - TAIL_BEYOND / len(values))
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo), 100.0 * q


def provenance(root, result) -> dict:
    src = os.path.join(root, "src", "switchsde")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith((".py", ".json")):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
        sha = git.stdout.strip() if git.returncode == 0 else "none (not a git checkout)"
    except OSError:
        sha = "none (git not installed)"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": result["python"],
        "numpy": result["numpy"],
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
    }


def run_python(args, env, timeout):
    proc = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=timeout
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args[:2])} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def check_outputs(jobs, result, traced_rounds) -> tuple:
    """Artifact checks, determinism, and the certificate reference.

    Returns (problems, shas, reference errors per certify job)."""
    rounds = result["rounds"] + traced_rounds
    problems, shas, errors = [], {}, {}
    for i, job in enumerate(jobs):
        seen = {r["sha"][i] for r in rounds if r["ok"][i]}
        if not seen:
            continue
        if len(seen) > 1:
            problems.append(f"{job.key}: {len(seen)} different artifacts from identical jobs")
        shas[job.key] = sorted(seen)[0]
        if job.kind == "mc":
            found = checks.check_mc(job.out, job.coupled)
        elif job.kind == "simulate":
            found = checks.check_path_csv(job.out, job.work)
        else:
            found, errors[job.key] = checks.check_sweep(job.out, job.scenario, job.work)
        problems += [f"{job.key}: {p}" for p in found]
    counts = {
        json.dumps({k: (v["calls"], v["size"]) for k, v in r["layers"].items()}, sort_keys=True)
        for r in traced_rounds
    }
    if len(counts) > 1:
        problems.append("per-layer counts differ between identical traced rounds")
    return problems, shas, errors


def scaled(seconds, cal_s) -> float:
    """A time measured while speed_kernel took cal_s, at nominal host speed."""
    return seconds * CAL_NOMINAL_S / cal_s


def job_times(rounds, i=None, raw=False) -> list:
    """Times of the jobs that succeeded, of job i of the round or of all."""
    return [
        t if raw else scaled(t, c)
        for r in rounds
        for j, (t, c, ok) in enumerate(zip(r["job_s"], r["cal_s"], r["ok"]))
        if ok and i in (None, j)
    ]


def throughput(jobs, rounds, raw=False) -> float:
    """Work of one round over the sum of each job's median time."""
    seconds = 0.0
    for i, job in enumerate(jobs):
        times = job_times(rounds, i, raw)
        if not times:
            raise SystemExit(f"no {job.key} job succeeded; nothing to time")
        seconds += statistics.median(times)
    return sum(j.work for j in jobs) / seconds


def layer_metrics(traced) -> dict:
    """Per-round medians of each layer metric, times at nominal speed.
    Counts repeat exactly between rounds (check_outputs asserts it)."""
    out = {}
    for name, layer, field, _ in LAYER_METRICS:
        values = []
        for r in traced:
            value = r["layers"].get(layer, {}).get(field, 0)
            if field == "self_s":
                value *= sum(job_times([r])) / sum(job_times([r], raw=True))
            values.append(value)
        out[name] = statistics.median(values) if field == "self_s" else values[0]
    sim = [r["layers"].get("engine.simulate") for r in traced]
    out["engine.useful_path_frac"] = (
        statistics.median(s["calls"] / s["size"] for s in sim) if all(sim) else 0.0
    )
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not (os.path.isfile(os.path.join(src, "switchsde", "cli.py"))
            and os.path.isdir(os.path.join(root, "fixtures"))):
        print(f"error: {root} is not a switchsde checkout (no src/switchsde or fixtures/)",
              file=sys.stderr)
        return 2
    work = os.path.join(root, ".bench_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    workloads.write_inputs(args.workload, work)
    jobs = workloads.round_jobs(args.workload, root, work, args.seed)
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    worker = os.path.join(HERE, "worker.py")

    setup = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setup.append(json.loads(run_python([worker, "setup", args.workload, root, work], env, 60)))
    run_python(
        [worker, "jobs", args.workload, root, work, str(args.seed), repr(args.seconds),
         str(args.trace)],
        env, RUN_LIMIT_S - (time.perf_counter() - started),
    )
    with open(os.path.join(work, "result.json"), encoding="utf-8") as fh:
        result = json.load(fh)
    rounds = result["rounds"]
    traced = result.get("traced_rounds", [])
    problems, shas, ref_errors = check_outputs(jobs, result, traced)

    jobs_failed = sum(not ok for r in rounds + traced for ok in r["ok"])
    if jobs_failed:
        problems.append(f"{jobs_failed} jobs failed")
    certify = args.workload == "certify-sweep"
    per_op = workloads.SWEEP_POINTS if certify else 1
    attempted = per_op * len(jobs) * len(rounds + traced)
    failed = per_op * jobs_failed
    all_errors = [e for errs in ref_errors.values() for e in errs]
    # every successful repeat of a sweep gives the same bytes (checked), so
    # the same points miss the reference each time
    beyond = sum(
        sum(e > checks.REL_TOL for e in ref_errors[job.key])
        * sum(r["ok"][i] for r in rounds + traced)
        for i, job in enumerate(jobs)
        if job.key in ref_errors
    )
    speed = [CAL_NOMINAL_S / c for r in rounds + traced for c in r["cal_s"] if not math.isnan(c)]

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("provenance " + json.dumps(provenance(root, result), sort_keys=True))
    op = "certificates" if certify else "path-steps"
    print(f"round: {len(jobs)} jobs, {sum(j.work for j in jobs)} {op}; "
          f"{len(rounds)} untraced rounds, {len(traced)} traced rounds")
    print(f"host speed against nominal, per job: median {statistics.median(speed):.3f}, "
          f"range {min(speed):.3f}-{max(speed):.3f}; times below are at nominal speed")
    for key, sha in shas.items():
        print(f"  artifact {key}: sha256 {sha}")
    for key, errs in ref_errors.items():
        print(f"  reference {key}: {sum(e > checks.REL_TOL for e in errs)} of {len(errs)} "
              f"points beyond {checks.REL_TOL:g}, worst relative error {max(errs, default=0.0):.3g}")
    for p in problems:
        print(f"CHECK FAILED: {p}")

    if not args.trace:
        times = job_times(rounds)
        tail_s, pct = tail(times)
        metrics = {
            "throughput": (throughput(jobs, rounds), "ops/s"),
            "job_s_tail": (tail_s, "s"),
            "setup_s": (statistics.median(scaled(p["setup_s"], p["cal_s"]) for p in setup), "s"),
            "peak_rss_mb": (result["max_rss_kb"] / 1024.0, "MB"),
        }
        print(f"throughput   {metrics['throughput'][0]:.6g} {op}/s (per-job medians over "
              f"{len(rounds)} rounds; {throughput(jobs, rounds, raw=True):.6g} at wall-clock speed)")
        print(f"job_s_tail   {tail_s:.6g} s (p{pct:.1f} of {len(times)} jobs)")
        print(f"setup_s      {metrics['setup_s'][0]:.6g} s (median of {len(setup)} fresh processes; "
              f"{statistics.median(p['setup_s'] for p in setup):.6g} at wall-clock speed)")
        print(f"peak_rss_mb  {metrics['peak_rss_mb'][0]:.6g} MB (worker process)")
        if certify:
            print(f"failed_frac  {(failed + beyond) / attempted:.6g} ({failed} of {attempted} "
                  f"certificates failed to run, {beyond} missed the reference by more than "
                  f"{checks.REL_TOL:g})")
            print(f"max_rel_err  {max(all_errors, default=0.0):.6g} "
                  f"(worst of {len(all_errors)} certificates)")
        else:
            print(f"failed_frac  {failed / attempted:.6g} ({failed} of {attempted} jobs failed)")
            print("max_rel_err  n/a (certify-sweep only)")
    else:
        untraced_tp = throughput(jobs, rounds)
        traced_tp = throughput(jobs, traced)
        layers = layer_metrics(traced)
        metrics = {name: (layers[name], unit) for name, _, _, unit in LAYER_METRICS}
        metrics["engine.useful_path_frac"] = (layers["engine.useful_path_frac"], "ratio")
        metrics["certify.max_rel_err"] = (max(all_errors, default=0.0), "ratio")
        metrics["certify.failed_frac"] = ((failed + beyond) / attempted if certify else 0.0, "ratio")
        metrics["trace.throughput_delta"] = (traced_tp - untraced_tp, "ops/s")
        print("baseline cross-check (unscored; ROADMAP Baseline, M path-steps/s):")
        for row in result["baseline"]:
            lo, hi = BASELINE_RANGES[row["fixture"]]
            got = row["path_steps"] / scaled(row["job_s"], row["cal_s"]) / 1e6
            wall = row["path_steps"] / row["job_s"] / 1e6
            gap = max(lo / got - 1.0, got / hi - 1.0, 0.0)
            flag = "  GAP > 15%" if gap > 0.15 else ""
            print(f"  {row['fixture']:22s} {row['route']:9s} {got:6.3f} (wall-clock {wall:6.3f}; "
                  f"ROADMAP {lo:g}-{hi:g}){flag}")
        print(f"per layer, median over {len(traced)} traced rounds (self time per round):")
        for name, (value, unit) in metrics.items():
            print(f"  {name:28s} {value:.6g} {unit}")
        print(f"tracing overhead: traced {traced_tp:.6g} - untraced {untraced_tp:.6g} = "
              f"{traced_tp - untraced_tp:.6g} {op}/s "
              f"({100.0 * (traced_tp / untraced_tp - 1.0):+.2f}%)")

    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
