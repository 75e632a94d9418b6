"""Benchmark worker: runs one workload's rounds through switchsde.cli.main in
a fresh process, so that imports and peak memory belong to the workload.

    python3 bench/worker.py setup WORKLOAD ROOT WORK_DIR
        Print the set-up time (import switchsde, load_scenario for each
        scenario the workload runs, choose_route for the coupled ones) and
        the mean speed_kernel time right after it.
    python3 bench/worker.py jobs WORKLOAD ROOT WORK_DIR SEED SECONDS TRACE
        Run whole rounds for SECONDS and write WORK_DIR/result.json.  With
        TRACE=1, half the time runs untraced and half traced, after the
        unscored Baseline cross-check.

ROOT/src must be on PYTHONPATH.  run.py starts this and checks the results.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import resource
import signal
import sys
import time
import traceback

import workloads
from tracer import Tracer, aggregate

HERE = os.path.dirname(os.path.abspath(__file__))
# ROADMAP Baseline: monte_carlo at 2048-path chunks and h = 0.01
BASELINE = (
    ("two_state_trig", True),
    ("three_state_rational", True),
    ("two_state_balanced", True),
    ("linear_feedback", False),
)
BASELINE_PATHS, BASELINE_STEP, BASELINE_HORIZON = 2048, 0.01, 2.0
SPAN_FIELDS = ("layer", "start", "end", "parent", "job", "size")
SPEED_LAYER = "bench.speed"  # speed samples taken inside traced calls
SAMPLES_AROUND = 3
SAMPLE_EVERY_S = 0.2


def _import_switchsde(root):
    import switchsde

    src = os.path.join(root, "src")
    if os.path.commonpath([src, os.path.abspath(switchsde.__file__)]) != src:
        raise SystemExit(f"switchsde imported from {switchsde.__file__}, not from {src}")


def setup_seconds(workload, root, work_dir) -> float:
    t0 = time.perf_counter()
    _import_switchsde(root)
    from switchsde import engine
    from switchsde.scenario import load_scenario

    seen = set()
    for job in workloads.round_jobs(workload, root, work_dir, seed=0):
        if (job.scenario, job.coupled) in seen:
            continue
        seen.add((job.scenario, job.coupled))
        sc = load_scenario(job.scenario)
        if job.coupled:
            engine.choose_route(sc)
    return time.perf_counter() - t0


def speed_kernel() -> float:
    """Time a small fixed kernel shaped like the program's hot loops: numpy
    calls on a 2048-wide array and a 2x2 matrix, and plain Python
    arithmetic.  It calls nothing in switchsde, so a faster program cannot
    speed it up."""
    import numpy as np

    t0 = time.perf_counter()
    x = np.linspace(-3.0, 3.0, 2048)
    P = np.array([[0.9, 0.1], [0.2, 0.8]])
    for _ in range(100):
        y = np.where(x > 0.0, np.sin(x), np.cos(x)) * 0.99 + 0.01 * x
        x = y + 1e-9 * np.flatnonzero(y > 0.5).size
        P = P @ P
        P /= P.sum(axis=1, keepdims=True)
    acc, table = 0.0, {}
    for i in range(10000):
        acc += (i % 7) * 0.5
        table[i & 255] = acc
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples the host's speed around and during each job.

    The host's speed drifts by up to 1.7x over periods of seconds, and job
    times follow it.  So speed_kernel runs SAMPLES_AROUND times before and
    after each job and, from a SIGALRM timer, every SAMPLE_EVERY_S during
    it.  A job's time is reported net of the samples taken inside it, with
    the mean kernel time over its samples; run.py scales one by the other.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.inside = []
        self.last = [self._sample() for _ in range(SAMPLES_AROUND)]

    def _sample(self) -> float:
        if self.tracer is None:
            return speed_kernel()
        return self.tracer.call(SPEED_LAYER, speed_kernel)

    def _alarm(self, signum, frame):
        self.inside.append((time.perf_counter(), self._sample()))

    def run(self, fn):
        """Return (fn(), seconds net of samples, mean kernel seconds)."""
        self.inside = []
        previous = signal.signal(signal.SIGALRM, self._alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            t1 = time.perf_counter()
            signal.signal(signal.SIGALRM, previous)
        # a signal already pending when the timer stopped may sample after t1
        during = sum(d for start, d in self.inside if start < t1)
        after = [self._sample() for _ in range(SAMPLES_AROUND)]
        samples = self.last + [d for _, d in self.inside] + after
        self.last = after
        return result, t1 - t0 - during, sum(samples) / len(samples)


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_round(cli, jobs, probe, tracer=None) -> dict:
    job_s, cal_s, ok, sha = [], [], [], []
    for job in jobs:
        if tracer is not None:
            tracer.job += 1
        gc.collect()  # every job starts from the same collector state
        try:
            rc, seconds, cal = probe.run(lambda: cli.main(list(job.argv)))
        except Exception:  # a job that raises counts as failed; the run goes on
            traceback.print_exc()
            rc, seconds, cal = None, math.nan, math.nan
        except SystemExit as exc:  # argparse rejected the job's arguments
            print(f"job {job.key}: exit {exc.code}", file=sys.stderr)
            rc, seconds, cal = None, math.nan, math.nan
        job_s.append(seconds)
        cal_s.append(cal)
        ok.append(rc == 0)
        sha.append(sha256(job.out) if rc == 0 else None)
    return {"job_s": job_s, "cal_s": cal_s, "ok": ok, "sha": sha}


def run_phase(cli, jobs, seconds, tracer=None, spans_out=None) -> list:
    """Whole rounds for at most SECONDS (at least one round); with a
    tracer, per-round layer totals, and the last round's spans written to
    spans_out."""
    rounds = []
    spans = []
    probe = SpeedProbe(tracer)
    t0 = time.perf_counter()
    # stop before a round that would not end in time, so a run keeps to SECONDS
    while not rounds or (time.perf_counter() - t0) * (len(rounds) + 1) / len(rounds) <= seconds:
        rnd = run_round(cli, jobs, probe, tracer)
        if tracer is not None:
            spans = tracer.take()
            rnd["layers"] = aggregate(spans)
            rnd["layers"].pop(SPEED_LAYER, None)
        rounds.append(rnd)
    if spans_out:
        with open(spans_out, "w", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(dict(zip(SPAN_FIELDS, span))) + "\n")
    return rounds


def baseline(root, seed) -> list:
    from switchsde import engine
    from switchsde.scenario import load_scenario

    rows = []
    probe = SpeedProbe()
    for name, coupled in BASELINE:
        sc = load_scenario(os.path.join(root, "fixtures", f"{name}.json"))
        params = engine.SimParams(
            tau=max(sc.tau, BASELINE_STEP), h=BASELINE_STEP, horizon=BASELINE_HORIZON,
            seed=seed, n_paths=BASELINE_PATHS,
        )
        summary, seconds, cal = probe.run(lambda: engine.monte_carlo(sc, params, coupled=coupled))
        rows.append({
            "fixture": name,
            "route": summary.route,
            "path_steps": params.n_paths * params.n_steps,
            "job_s": seconds,
            "cal_s": cal,
        })
    return rows


def preflight(workload, work_dir):
    """The generated six-state scenario must validate and take the matrix
    route with no warnings before anything is timed."""
    if workload != "mc-matrix":
        return
    from switchsde import cli, engine
    from switchsde.scenario import load_scenario

    path = os.path.join(work_dir, workloads.SIX_STATE)
    rc = cli.main(["validate", path, "--out", os.path.join(work_dir, "validate.json")])
    if rc != 0:
        raise SystemExit(f"switchsde validate {path} exited {rc}")
    route, _, warnings = engine.choose_route(load_scenario(path))
    if route != "matrix" or warnings:
        raise SystemExit(f"choose_route on {path}: route {route}, warnings {warnings}")


def run_jobs(workload, root, work_dir, seed, seconds, trace) -> dict:
    _import_switchsde(root)
    import numpy as np
    from switchsde import cli

    preflight(workload, work_dir)
    jobs = workloads.round_jobs(workload, root, work_dir, seed)
    result = {"python": platform.python_version(), "numpy": np.__version__}
    stdout, sys.stdout = sys.stdout, open(os.devnull, "w")  # simulate prints its metadata
    try:
        if not trace:
            result["rounds"] = run_phase(cli, jobs, seconds)
        else:
            result["baseline"] = baseline(root, seed)
            result["rounds"] = run_phase(cli, jobs, seconds / 2)
            tracer = Tracer()
            with open(os.path.join(HERE, "targets.json"), encoding="utf-8") as fh:
                tracer.install(json.load(fh))
            result["traced_rounds"] = run_phase(
                cli, jobs, seconds / 2, tracer, os.path.join(work_dir, "spans.jsonl")
            )
    finally:
        sys.stdout.close()
        sys.stdout = stdout
    result["max_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return result


def main(argv):
    mode, workload, root, work_dir = argv[:4]
    if mode == "setup":
        setup_s = setup_seconds(workload, root, work_dir)
        samples = [speed_kernel() for _ in range(2 * SAMPLES_AROUND)]
        print(json.dumps({"setup_s": setup_s, "cal_s": sum(samples) / len(samples)}))
    elif mode == "jobs":
        seed, seconds, trace = int(argv[4]), float(argv[5]), argv[6] == "1"
        result = run_jobs(workload, root, work_dir, seed, seconds, trace)
        with open(os.path.join(work_dir, "result.json"), "w", encoding="utf-8") as fh:
            json.dump(result, fh)
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
