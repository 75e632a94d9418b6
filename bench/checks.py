"""Output checks on the artifacts the jobs leave, and the independent
certificate reference.

The reference reads the envelopes and bounds straight from the scenario
JSON and uses ``scipy.linalg.expm`` plus ``numpy.linalg.eigvals``, sharing
no code with ``switchsde.markov`` or ``switchsde.stability``.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

REL_TOL = 1e-10  # ROADMAP: certificate quantities within 1e-10 of a reference
OCCUPATION_TOL = 1e-12
PASS_TOL = 1e-9  # the certificate's documented boundary tolerance on lam <= 1
REFERENCE_KEYS = ("lam_star", "lam_bar", "eta_3C")


def check_mc(path, coupled) -> list:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    problems = []
    if doc["ordering_violations"] != 0:
        problems.append(f"{doc['ordering_violations']} ordering violations")
    chains = ("lambda_star", "lambda", "lambda_bar") if coupled else ("lambda",)
    for chain in chains:
        total = math.fsum(doc["occupation"][chain])
        if abs(total - 1.0) > OCCUPATION_TOL:
            problems.append(f"occupation of {chain} sums to {total!r}")
    for key in ("mean_x2", "se_x2"):
        if not np.isfinite(doc[key]).all():
            problems.append(f"{key} has non-finite entries")
    return problems


def check_path_csv(path, steps) -> list:
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    problems = []
    if len(rows) != steps + 1:
        problems.append(f"{len(rows)} rows, expected {steps + 1}")
    bad = sum(
        not int(r["lambda_star"]) <= int(r["lambda"]) <= int(r["lambda_bar"]) for r in rows
    )
    if bad:
        problems.append(f"{bad} rows break lambda_star <= lambda <= lambda_bar")
    return problems


def _perron(A) -> float:
    return float(np.max(np.linalg.eigvals(A).real))


def reference_certificate(doc, tau) -> dict:
    """lam_star, lam_bar and eta_3C at tau from expm and eigvals."""
    from scipy.linalg import expm

    qbar = np.array(doc["envelopes"]["qbar"], dtype=float)
    qstar = np.array(doc["envelopes"]["qstar"], dtype=float)
    b = np.array(doc["gains"], dtype=float)
    C = np.array(doc["coefficient_bounds"]["C"], dtype=float)
    Ma = float(doc["coefficient_bounds"]["Ma"])
    Cbar, bbar = float(C.max()), float(b.max())
    K = 2.0 * tau * (2.0 * Cbar + Ma + bbar) * math.exp((2.0 * Cbar + 3.0 * Ma + bbar) * tau)
    Kp = max(K, 0.0)
    lag = 6.0 * math.sqrt(Kp / (1.0 - Kp))
    root_star = _perron(np.exp(-6.0 * tau * b)[:, None] * expm(tau * qstar))
    root_bar = _perron(np.exp(lag * tau * b)[:, None] * expm(tau * qbar))
    return {
        "lam_star": math.exp(math.log(root_star) / tau),
        "lam_bar": math.exp(math.log(root_bar) / tau),
        "eta_3C": -float(np.max(np.linalg.eigvals(qbar + 3.0 * np.diag(C)).real)),
    }


def check_sweep(path, scenario_path, points) -> tuple:
    """Problems (wrong point count, non-finite values, a pass/fail verdict
    the reference disagrees with), and the worst relative error of
    REFERENCE_KEYS against the reference at each sweep point."""
    with open(path, encoding="utf-8") as fh:
        sweep = json.load(fh)["sweep"]
    with open(scenario_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    problems = []
    if len(sweep) != points:
        problems.append(f"{len(sweep)} sweep points, expected {points}")
    errors = []
    for cert in sweep:
        values = [cert[k] for k in REFERENCE_KEYS] + [cert["rho"], cert["k_tau"]]
        if not np.isfinite(values).all():
            problems.append(f"non-finite certificate at tau={cert['tau']!r}")
            continue
        ref = reference_certificate(doc, cert["tau"])
        verdict = (
            ref["eta_3C"] > 0.0
            and ref["lam_star"] <= 1.0 + PASS_TOL
            and ref["lam_bar"] <= 1.0 + PASS_TOL
        )
        if cert["passed"] != verdict:
            problems.append(f"verdict passed={cert['passed']} at tau={cert['tau']!r}, "
                            f"reference says {verdict}")
        errors.append(max(abs(cert[k] - ref[k]) / abs(ref[k]) for k in REFERENCE_KEYS))
    return problems, errors
