"""Workload definitions: the CLI jobs of one round of each workload, the work
each job does, and the generated six-state scenario.

A round is the fixed list of jobs a workload repeats.  Every job is one
``switchsde.cli.main`` call with ``--seed`` set to the workload seed
(``certify`` takes no seed, so ``certify-sweep`` is the same for every seed).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

SIX_STATE = "six_state_birth_death.json"
SWEEP_POINTS = 40  # feasible_tau_search's default grid
CERTIFY_FIXTURES = (
    "lag_bound",
    "linear_feedback",
    "linear_unstable",
    "three_state_rational",
    "two_state_balanced",
    "two_state_trig",
)

# mc-matrix: ROADMAP Baseline shape, one default-width (2048-path) chunk at h = 0.01
MATRIX_PATHS, MATRIX_STEP, MATRIX_HORIZON = 2048, 0.01, 1.0
# mc-marginal: linear_feedback at the sizes its fixture declares
MARGINAL_PATHS, MARGINAL_STEP, MARGINAL_HORIZON = 2000, 0.002, 8.0
# simulate-path: path 0 of two_state_trig at its fixture step
PATH_STEP, PATH_HORIZON = 0.01, 50.0

NAMES = ("mc-matrix", "mc-marginal", "simulate-path", "certify-sweep")


@dataclass(frozen=True)
class Job:
    key: str  # unique within a round; names the artifact
    kind: str  # "mc", "simulate" or "certify"
    argv: tuple
    out: str
    work: int  # path-steps of the requested paths, or certificates
    scenario: str
    coupled: bool = False


def _steps(horizon, step):
    return int(round(horizon / step))


def six_state_scenario() -> dict:
    """Birth-death chain on six states whose rates are modulated by x1.

    Up rates 1 + 0.5 sin(x1)^2 and down rates 1 + 0.5 cos(x1)^2 lie in
    [1, 1.5], so interior exit rates are 2.5 <= H = 3.  The upper envelope
    takes the largest up and smallest down rate, the lower envelope the
    reverse, which gives the partial-sum domination the matrix route needs.
    The diffusion mirrors three_state_rational so that M is the only change.
    """
    M = 6
    up, down = "1 + 0.5*sin(x1)^2", "1 + 0.5*cos(x1)^2"
    rates = [["0"] * M for _ in range(M)]
    for i in range(M - 1):
        rates[i][i + 1] = up
        rates[i + 1][i] = down

    def envelope(u, dn):
        Q = [[0.0] * M for _ in range(M)]
        for i in range(M - 1):
            Q[i][i + 1] = u
            Q[i + 1][i] = dn
        for i in range(M):
            Q[i][i] = -sum(Q[i])
        return Q

    return {
        "dimensions": {"d": 1, "M": M},
        "tau": 0.5,
        "step": MATRIX_STEP,
        "horizon": MATRIX_HORIZON,
        "seed": 1,
        "paths": MATRIX_PATHS,
        "drift": [["-1*x1"]] * M,
        "diffusion": [[["0.3*x1"]]] * M,
        "gains": [0.0] * M,
        "rates": rates,
        "rate_bound": 3.0,
        "envelopes": {"qbar": envelope(1.5, 1.0), "qstar": envelope(1.0, 1.5)},
        "coefficient_bounds": {"C": [-1.91] * M, "c": [-1.91] * M, "Ma": 1.0},
        "initial": {"x": [2.0], "state": 1},
        "grid": {"lo": -10.0, "hi": 10.0, "n": 20001},
    }


def write_inputs(workload, work_dir):
    """Write the generated inputs a workload needs into work_dir."""
    if workload == "mc-matrix":
        with open(os.path.join(work_dir, SIX_STATE), "w", encoding="utf-8") as fh:
            json.dump(six_state_scenario(), fh, indent=2)


def _mc(key, scenario, out_dir, seed, paths, step, horizon, coupled):
    out = os.path.join(out_dir, f"{key}.mc.json")
    argv = ["mc", scenario, "--paths", str(paths), "--step", repr(step),
            "--horizon", repr(horizon), "--seed", str(seed), "--workers", "1", "--out", out]
    if coupled:
        argv.append("--coupled")
    return Job(key, "mc", tuple(argv), out, paths * _steps(horizon, step), scenario, coupled)


def round_jobs(workload, root, work_dir, seed) -> list:
    """The jobs of one round, in the order they run."""
    fx = os.path.join(root, "fixtures")
    if workload == "mc-matrix":
        return [
            _mc(name, path, work_dir, seed, MATRIX_PATHS, MATRIX_STEP, MATRIX_HORIZON, True)
            for name, path in (
                ("three_state_rational", os.path.join(fx, "three_state_rational.json")),
                ("six_state_birth_death", os.path.join(work_dir, SIX_STATE)),
            )
        ]
    if workload == "mc-marginal":
        return [_mc("linear_feedback", os.path.join(fx, "linear_feedback.json"), work_dir,
                    seed, MARGINAL_PATHS, MARGINAL_STEP, MARGINAL_HORIZON, False)]
    if workload == "simulate-path":
        scenario = os.path.join(fx, "two_state_trig.json")
        out = os.path.join(work_dir, "two_state_trig.path0.csv")
        argv = ["simulate", scenario, "--coupled", "--path-index", "0", "--step", repr(PATH_STEP),
                "--horizon", repr(PATH_HORIZON), "--seed", str(seed), "--out", out]
        return [Job("two_state_trig", "simulate", tuple(argv), out,
                    _steps(PATH_HORIZON, PATH_STEP), scenario, True)]
    if workload == "certify-sweep":
        jobs = []
        for name in CERTIFY_FIXTURES:
            scenario = os.path.join(fx, f"{name}.json")
            out = os.path.join(work_dir, f"{name}.sweep.json")
            jobs.append(Job(name, "certify", ("certify", scenario, "--tau-sweep", "--out", out),
                            out, SWEEP_POINTS, scenario))
        return jobs
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(NAMES)}")
