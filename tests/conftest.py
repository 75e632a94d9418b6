import json
from pathlib import Path

import numpy as np
import pytest

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
