import math

import numpy as np
import pytest

from switchsde import coupling as cp
from switchsde import engine as en
from switchsde import exprlang as ex
from switchsde import scenario as sn
from tests.conftest import (
    FIXTURE_NAMES,
    check_domination_reference,
    coupling_rows_reference,
    interval_move_reference,
    load_fixture,
    make_scenario,
    one_round_table,
    random_dominated_pair,
    two_state_envelopes_reference,
    verify_coupling_matrix,
)

QBAR = np.array([[-2.0, 2.0], [1.0, -1.0]])
QSTAR = np.array([[-1.0, 1.0], [2.0, -2.0]])


def trig_rates_on(xs):
    """Two-state trig rate stack evaluated on a 1-d grid."""
    q12 = 2.0 - np.sin(xs) ** 2
    q21 = 1.0 + np.abs(np.cos(xs))
    R = np.zeros((len(xs), 2, 2))
    R[:, 0, 1] = q12
    R[:, 1, 0] = q21
    return R


def three_state_rates_on(xs):
    R = np.zeros((len(xs), 3, 3))
    R[:, 0, 1] = 1 + np.abs(np.cos(xs))
    R[:, 0, 2] = 2 - np.sin(xs) ** 2
    R[:, 1, 0] = 1 + xs**2 / (1 + xs**2)
    R[:, 1, 2] = 1.0
    R[:, 2, 0] = 2 + np.abs(np.sin(xs))
    R[:, 2, 1] = 1 + np.abs(xs) / (1 + np.abs(xs))
    return R


GRID = np.linspace(-10, 10, 20001)


def product_rows(Q1, Q2):
    """full_coupling_generator as T[i, j, m, n]: the rate from (i, j) to (m, n)."""
    M = len(Q1)
    return cp.full_coupling_generator(Q1, Q2).reshape(M, M, M, M)


def pick(R, state, u):
    """engine._pick of one mark on the row of ``state`` (0-based) of the rate
    array R: the target, or None on a miss."""
    hit, tgt, _ = en._pick(np.asarray(R, dtype=float)[state][None], np.array([u], dtype=float))
    return int(tgt[0]) if hit[0] else None


def lambda_jumps(R, states, marks):
    """The switching chain's rule on one round of candidates, candidate k on
    path k in ``states[k]`` (0-based) at the rate array ``R[k]``, in a
    marginal run whose bound H = 10, the end of lambda's mark space, lies
    above every mark used here.  Returns lambda's new states and the kept
    pick: the intervals' widths and the marks' positions in them."""
    R = np.asarray(R, dtype=float)
    n, M = R.shape[:2]
    sc = sn.load_scenario(make_scenario(
        dimensions={"d": 1, "M": M}, drift=[["0"]] * M, diffusion=[[["0"]]] * M, gains=[0.0] * M,
        rates=[["0"] * M] * M, rate_bound=10.0, coefficient_bounds={"C": [0.0] * M, "c": [0.0] * M, "Ma": 0.0},
    ))
    run = en._ChunkRun(sc, en.SimParams.from_scenario(sc, n_paths=n), range(n), "marginal", None)
    run.S[1] = states
    run._lambda_jump(one_round_table(run, marks, R))
    return run._lam_new, *run._lam_pick


def lambda_jump(R, state, mark):
    """lambda_jumps at one candidate in ``state`` at the rate array R (M,
    M): the new state (None if it stays), the width and the position."""
    new, width, u_in = lambda_jumps(np.asarray(R, dtype=float)[None], [state], [mark])
    return (None if new[0] == state else int(new[0])), float(width[0]), float(u_in[0])


class TestEnvelopes:
    def test_trig_extrema(self):
        env = cp.extremal_envelopes(trig_rates_on(GRID))
        assert np.abs(env.qbar - QBAR).max() < 1e-4
        assert np.abs(env.qstar - QSTAR).max() < 1e-4
        assert env.qbar_down_positive and env.qstar_up_positive

    def test_constant_rates_collapse(self):
        R = np.zeros((5, 2, 2))
        R[:, 0, 1] = 0.7
        R[:, 1, 0] = 1.3
        env = cp.extremal_envelopes(R)
        assert np.array_equal(env.qbar, env.qstar)
        assert env.qbar[0, 1] == 0.7 and env.qbar[1, 0] == 1.3

    def test_grid_refinement_is_monotone(self):
        coarse = np.linspace(-10, 10, 501)
        fine = np.linspace(-10, 10, 2001)  # superset as a point set
        e1 = cp.extremal_envelopes(trig_rates_on(coarse))
        e2 = cp.extremal_envelopes(trig_rates_on(np.concatenate([coarse, fine])))
        assert e2.qbar[0, 1] >= e1.qbar[0, 1]
        assert e2.qbar[1, 0] <= e1.qbar[1, 0]

    def test_empty_grid_raises(self):
        with pytest.raises(cp.CouplingError):
            cp.extremal_envelopes(np.zeros((0, 2, 2)))

    def test_two_states_match_the_reference_bitwise(self):
        rng = np.random.default_rng(20261019)
        stacks = [trig_rates_on(GRID)]
        for n in (1, 2, 7, 300):
            R = rng.uniform(0.0, 3.0, (n, 2, 2)) * (rng.uniform(size=(n, 2, 2)) < 0.8)
            R[:, [0, 1], [0, 1]] = 0.0
            stacks.append(R)
        for R in stacks:
            got, want = cp.extremal_envelopes(R), two_state_envelopes_reference(R)
            assert got.qbar.tobytes() == want.qbar.tobytes()
            assert got.qstar.tobytes() == want.qstar.tobytes()

    def test_random_stacks_dominate(self):
        rng = np.random.default_rng(20261020)
        for _ in range(200):
            M, n = int(rng.integers(3, 8)), int(rng.integers(1, 40))
            R = rng.uniform(0.0, 3.0, (n, M, M)) * (rng.uniform(size=(n, M, M)) < 0.7)
            R[:, np.arange(M), np.arange(M)] = 0.0
            env = cp.extremal_envelopes(R)
            for Q in (env.qbar, env.qstar):
                assert cp.offdiag(Q).min() >= 0.0
                assert np.abs(Q.sum(axis=1)).max() < 1e-12
            assert check_domination_reference(R, cp.offdiag(env.qbar)).holds
            assert check_domination_reference(cp.offdiag(env.qstar), R).holds

    def test_extremal_among_dominating_envelopes(self):
        # any envelope that dominates the rates dominates the least upper one,
        # and is dominated by the greatest lower one
        rng = np.random.default_rng(20261021)
        for _ in range(100):
            M = int(rng.integers(2, 7))
            R1, R2 = random_dominated_pair(rng, M)
            up = cp.extremal_envelopes(R1[None])
            assert cp.check_domination(cp.offdiag(up.qbar), R2).holds
            lo = cp.extremal_envelopes(R2[None])
            assert cp.check_domination(R1, cp.offdiag(lo.qstar)).holds

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixture_grids(self, name):
        sc = load_fixture(name)
        pts = sc.grid_points()
        R = sc.rates.offdiag_batch(pts)
        env = cp.extremal_envelopes(R)
        assert cp.check_domination(R, cp.offdiag(env.qbar), pts).holds
        assert cp.check_domination(cp.offdiag(env.qstar), R, pts).holds
        if sc.M == 2:
            want = two_state_envelopes_reference(R)
            assert env.qbar.tobytes() == want.qbar.tobytes()
            assert env.qstar.tobytes() == want.qstar.tobytes()

    def test_three_state_rational(self):
        env = cp.extremal_envelopes(three_state_rates_on(GRID))
        assert np.array_equal(env.qbar, [[-4, 2, 2], [1, -3, 2], [1, 2, -3]])
        want = [[-2, 1, 1], [3, -4, 1], [3, 1.8871, -4.8871]]
        assert np.abs(env.qstar - want).max() < 1e-4


class TestTwoStateConditions:
    def test_trig_upper_fails_at_quarter_turn(self):
        env = cp.EnvelopePair(QBAR, QSTAR)
        conds = cp.check_two_state_conditions(env, trig_rates_on(GRID), GRID)
        assert not conds.upper.holds
        # witness: rate sum dips to 2 where cos vanishes, below 2 + 1
        x = conds.upper.witness_x[0]
        assert abs(np.cos(x)) < 1e-3
        assert abs(conds.upper.rhs - 2.0) < 1e-4
        assert conds.upper.lhs == 3.0
        assert not conds.lower.holds
        assert abs(conds.lower.rhs - 4.0) < 1e-4

    def test_constant_rates_hold_with_equality(self):
        R = np.zeros((3, 2, 2))
        R[:, 0, 1] = 2.0
        R[:, 1, 0] = 1.0
        env = cp.extremal_envelopes(R)
        conds = cp.check_two_state_conditions(env, R, np.zeros(3))
        assert conds.upper.holds and conds.lower.holds

    def test_constant_sum_balanced(self):
        xs = np.linspace(-8, 8, 4001)
        R = np.zeros((len(xs), 2, 2))
        R[:, 0, 1] = 1.5 + 0.5 * np.sin(xs)
        R[:, 1, 0] = 1.5 - 0.5 * np.sin(xs)
        env = cp.EnvelopePair(QBAR, QSTAR)
        conds = cp.check_two_state_conditions(env, R, xs)
        assert conds.upper.holds and conds.lower.holds


class TestDomination:
    def test_trig_example_both_hold(self):
        R = trig_rates_on(GRID)
        assert cp.check_domination(R, cp.offdiag(QBAR), GRID).holds
        assert cp.check_domination(cp.offdiag(QSTAR), R, GRID).holds

    def test_three_state_upper_fails_at_one_triple(self):
        R = three_state_rates_on(GRID)
        qbar3 = np.array([[-4.0, 2, 2], [1, -3, 2], [2, 1, -3]])
        rep = cp.check_domination(R, cp.offdiag(qbar3), GRID)
        assert not rep.holds
        triples = {(v["family"], v["i1"], v["i2"], v["m"]) for v in rep.violations}
        assert triples == {("down", 2, 3, 1)}
        assert rep.worst["x"] == [0.0]
        assert rep.worst["lhs"] == 1.0 and rep.worst["rhs"] == 2.0

    def test_three_state_lower_holds(self):
        R = three_state_rates_on(GRID)
        qstar3 = np.array([[-2.0, 1, 1], [3, -3, 0], [3, 2, -5]])
        assert cp.check_domination(cp.offdiag(qstar3), R, GRID).holds

    def test_reflexive_zero_margin(self):
        R = cp.offdiag(QBAR)
        rep = cp.check_domination(R, R)
        assert rep.holds
        assert abs(rep.worst_margin) < 1e-15


def _scaled_stack(rng, R, n, up, down):
    """``n`` copies of ``R`` with the entries above the diagonal scaled by
    factors in ``up`` and those below it by factors in ``down``."""
    M = len(R)
    above = np.triu(np.ones((M, M), dtype=bool), 1)
    f = np.where(above, rng.uniform(*up, (n, M, M)), rng.uniform(*down, (n, M, M)))
    return R * f


def _domination_cases(rng, M, n=50):
    """(R1, R2) pairs on an n-point grid: a dominated pair with a grid stack
    on either side, on both or on neither (given as (M, M) and as (1, M, M)),
    both sides perturbed so that the up sums of R1 shrink and its down sums
    grow (and the reverse for R2); then unrelated random stacks."""
    R1, R2 = random_dominated_pair(rng, M)
    G1 = _scaled_stack(rng, R1, n, (0.5, 1.0), (1.0, 1.5))
    G2 = _scaled_stack(rng, R2, n, (1.0, 1.5), (0.5, 1.0))
    A, B = (rng.uniform(0.0, 2.0, (n, M, M)) for _ in range(2))
    for R in (A, B):
        R[:, np.arange(M), np.arange(M)] = 0.0
    return [(G1, G2), (G1, R2), (R1[None], G2), (R1, R2), (R1[None], R2[None]),
            (A, B), (A, B[0]), (A[0][None], B), (A[0], B[0])]


class TestDominationMatchesReference:
    """check_domination sums in place on the (i, m, point) layout; its
    reports equal the broadcast-and-cumsum reference exactly."""

    @staticmethod
    def assert_same(R1, R2, grid=None):
        got = cp.check_domination(R1, R2, grid)
        want = check_domination_reference(R1, R2, grid)
        assert got.as_dict() == want.as_dict()
        assert got.violations == want.violations
        return got

    @pytest.mark.parametrize("M", range(2, 8))
    def test_random_stacks(self, M):
        rng = np.random.default_rng(100 + M)
        holds = []
        for _ in range(10):
            for R1, R2 in _domination_cases(rng, M):
                grid = np.linspace(-1.0, 1.0, max(len(R1), len(R2)))
                holds.append(self.assert_same(R1, R2, grid).holds)
                self.assert_same(R1, R2)
        assert any(holds) and not all(holds)

    def test_violations_past_the_cap(self):
        # R1 above R2 in every up sum and below it in every down sum: each of
        # the 330 tests at M = 10 fails; the report counts all of them and
        # keeps the first 200
        M, n = 10, 30
        rng = np.random.default_rng(5)
        above = np.triu(np.ones((M, M), dtype=bool), 1)
        below = np.tril(np.ones((M, M), dtype=bool), -1)
        R1 = rng.uniform(1.0, 2.0, (n, M, M)) * above
        R2 = rng.uniform(1.0, 2.0, (n, M, M)) * below
        n_tests = 2 * math.comb(M + 1, 3)  # i1 <= i2 < m, and m < i1 <= i2
        assert n_tests == 330
        for pair in ((R1, R2[0]), (R1[0], R2)):
            rep = self.assert_same(*pair, np.linspace(0.0, 1.0, n))
            assert len(rep.violations) == cp.MAX_VIOLATIONS
            assert rep.n_violations == rep.as_dict()["n_violations"] == n_tests

    @pytest.mark.parametrize("shape", ["(M, M)", "(1, M, M)", "(n, M, M)"])
    def test_inputs_untouched(self, shape):
        M, n = 4, 20
        rng = np.random.default_rng(3)
        grid = rng.uniform(0.0, 2.0, (n, M, M))
        const = {"(M, M)": grid[0], "(1, M, M)": grid[:1], "(n, M, M)": grid}[shape].copy()
        before = const.copy(), grid.copy()
        cp.check_domination(const, grid)
        cp.check_domination(grid, const)
        cp.check_domination(const, const)
        assert const.tobytes() == before[0].tobytes()
        assert grid.tobytes() == before[1].tobytes()


class TestBasicCoupling:
    """The independent-excess rows of full_coupling_generator (i > j)."""

    def test_identical_rows_synchronize(self):
        row = np.array([0.0, 1.2, 0.8])
        R1, R2 = np.zeros((2, 3, 3))
        R1[2], R2[0] = row, row
        T = product_rows(R1, R2)[2, 0]
        for m in range(3):
            for n in range(3):
                if (m, n) == (2, 0):
                    continue
                if m == n:
                    assert T[m, n] == row[m]
                else:
                    assert T[m, n] == 0.0

    def test_marginality_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            M = int(rng.integers(2, 6))
            r1 = rng.uniform(0, 2, M)
            r2 = rng.uniform(0, 2, M)
            i, j = 1, 0
            r1[i] = 0.0
            r2[j] = 0.0
            R1, R2 = np.zeros((2, M, M))
            R1[i], R2[j] = r1, r2
            T = product_rows(R1, R2)[i, j]
            for k in range(M):
                if k != i:
                    assert abs(T[k, :].sum() - r1[k]) < 1e-12  # (a-b)+ + a^b = a
                if k != j:
                    assert abs(T[:, k].sum() - r2[k]) < 1e-12

    def test_lower_row_against_upper_row(self):
        # rows from the two-state generators, product state (2, 1)
        T = product_rows(QSTAR, QBAR)[1, 0]
        assert T[0, 0] == 2.0  # chain 1 drops alone
        assert T[1, 1] == 2.0  # chain 2 rises alone
        assert T[1, 0] == -4.0


class TestOrderPreservingCoupling:
    def test_worked_two_state_example(self):
        T = product_rows(QSTAR, QBAR)[0, 0]
        assert np.allclose(T, [[-2.0, 1.0], [0.0, 1.0]], atol=1e-14)

    def test_synchronous_when_identical(self):
        for i in range(2):
            T = product_rows(QBAR, QBAR)[i, i]
            off = T.copy()
            off[i, i] = 0.0
            assert all(
                off[m, n] == 0.0 for m in range(2) for n in range(2) if m != n
            )

    def test_no_rate_below_the_diagonal(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            M = int(rng.integers(2, 7))
            R1, R2 = random_dominated_pair(rng, M)
            for i in range(M):
                for j in range(i, M):
                    T = cp.coupling_rows_batch(R1[None], R2[None], [i], [j])[0]
                    for m in range(M):
                        for n in range(m):
                            if (m, n) != (i, j):
                                assert T[m, n] == 0.0

    def test_two_state_kernel_matches_general(self):
        rng = np.random.default_rng(13)
        R1 = rng.uniform(0, 3, (200, 2, 2))
        R2 = rng.uniform(0, 3, (200, 2, 2))
        for R in (R1, R2):
            R[:, 0, 0] = R[:, 1, 1] = 0.0
        for i, j in [(0, 0), (0, 1), (1, 1)]:
            ii = np.full(200, i)
            jj = np.full(200, j)
            a = cp._coupling_rows_two_state(R1, R2, ii, jj)
            b = coupling_rows_reference(R1, R2, ii, jj)
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("M", range(3, 11))
    def test_general_kernel_matches_reference_bitwise(self, M):
        rng = np.random.default_rng(15 + M)
        pairs = [random_dominated_pair(rng, M) for _ in range(60)]
        dominated = (np.stack([p[0] for p in pairs]), np.stack([p[1] for p in pairs]))
        undominated = []
        for _ in range(2):
            R = rng.uniform(0.0, 3.0, (200, M, M))
            R[rng.random(R.shape) < 0.3] = 0.0  # zero rates
            R[:, np.arange(M), np.arange(M)] = 0.0
            undominated.append(R)
        for R1, R2 in (dominated, tuple(undominated)):
            n = len(R1)
            ii, jj = np.sort(rng.integers(0, M, (2, n)), axis=0)
            got = cp.coupling_rows_batch(R1, R2, ii, jj)
            assert got.tobytes() == coupling_rows_reference(R1, R2, ii, jj).tobytes()

    @pytest.mark.parametrize("M", range(2, 7))
    def test_rows_stay_nonnegative_without_domination(self, M):
        # without domination a marginal may fall short, but nonnegative rates
        # give rows that are nonnegative up to rounding, at any scale
        rng = np.random.default_rng(40 + M)
        n = 20000
        R1, R2 = (rng.exponential(1.0, (n, M, M)) * 10.0 ** rng.uniform(-3, 9, (n, 1, 1)) for _ in range(2))
        for R in (R1, R2):
            R[rng.random(R.shape) < 0.3] = 0.0
            R[:, np.arange(M), np.arange(M)] = 0.0
        ii, jj = np.sort(rng.integers(0, M, (2, n)), axis=0)
        T = cp.coupling_rows_batch(R1, R2, ii, jj)
        T[np.arange(n), ii, jj] = np.inf  # the diagonal, the one negative entry
        largest = np.maximum(R1.max(axis=(1, 2)), R2.max(axis=(1, 2)))
        assert (T.min(axis=(1, 2)) >= -4 * M * np.finfo(float).eps * largest).all()

    def test_requires_ordered_pair(self):
        with pytest.raises(cp.CouplingError):
            cp.coupling_rows_batch(cp.offdiag(QBAR)[None], cp.offdiag(QBAR)[None], [1], [0])

    def test_random_dominated_pairs_verify(self):
        rng = np.random.default_rng(14)
        for _ in range(60):
            M = int(rng.integers(2, 7))
            R1, R2 = random_dominated_pair(rng, M)
            assert cp.check_domination(R1, R2).holds
            Qt = cp.full_coupling_generator(R1, R2)
            diag = verify_coupling_matrix(Qt, R1, R2)
            assert diag.ok, diag.summary()


class TestVerifyOracle:
    def test_clean_on_trig_example(self):
        for x in (0.0, 0.7, 2.0, -4.4):
            Rx = trig_rates_on(np.array([x]))[0]
            diag = verify_coupling_matrix(
                cp.full_coupling_generator(Rx, cp.offdiag(QBAR)), Rx, QBAR
            )
            assert diag.ok, (x, diag.summary())
            diag2 = verify_coupling_matrix(
                cp.full_coupling_generator(cp.offdiag(QSTAR), Rx), QSTAR, Rx
            )
            assert diag2.ok, (x, diag2.summary())

    def test_synchronous_self_coupling(self):
        Qt = cp.full_coupling_generator(QBAR, QBAR)
        assert verify_coupling_matrix(Qt, QBAR, QBAR).ok

    def test_corrupted_rate_detected(self):
        Rx = trig_rates_on(np.array([0.3]))[0]
        Qt = cp.full_coupling_generator(Rx, cp.offdiag(QBAR))
        Qt[0, 3] += 0.25  # (1,1) -> (2,2) rate bumped
        diag = verify_coupling_matrix(Qt, Rx, QBAR)
        assert not diag.ok
        assert diag.row_sum_violations and diag.row_sum_violations[0][0] == (1, 1)
        chains = {v[0] for v in diag.marginality_violations}
        assert chains == {"lower", "upper"}

    def test_three_state_deficit_reported(self):
        # the displayed 3-state upper envelope loses upper-chain marginality at (2,3)
        Rx = three_state_rates_on(np.array([0.0]))[0]
        qbar3 = np.array([[-4.0, 2, 2], [1, -3, 2], [2, 1, -3]])
        Qt = cp.full_coupling_generator(Rx, cp.offdiag(qbar3))
        diag = verify_coupling_matrix(Qt, Rx, qbar3)
        assert not diag.ok
        bad = {(v[0], v[1]) for v in diag.marginality_violations}
        assert bad == {("upper", (2, 3))}
        assert not diag.order_violations and not diag.negative_rates


class TestSkorokhodPartition:
    """The row-block mark layout: every row's block starts at 0 and holds
    left-closed right-open target intervals of width equal to the rates, in
    state order; a mark at or above the exit rate q_i is no jump.  The edges
    come from engine._pick on the current state's row; the widths, the
    mark's position inside its interval and the refusal of a mark below 0
    from the switching chain's rule."""

    def test_single_interval(self):
        R = np.array([[0.0, 1.5], [1.0, 0.0]])
        below = np.nextafter(1.5, -np.inf)
        assert lambda_jump(R, 0, 0.0) == (1, 1.5, 0.0)
        assert lambda_jump(R, 0, 0.75)[::2] == (1, 0.5)
        assert pick(R, 0, below) == 1
        assert pick(R, 0, 1.5) is None  # the block ends at q_1
        assert lambda_jump(R, 0, 1.5)[0] is None
        assert lambda_jump(R, 0, np.nextafter(0.0, -np.inf))[0] is None
        assert lambda_jump(R, 1, 0.0) == (0, 1.0, 0.0)
        assert pick(R, 1, np.nextafter(1.0, -np.inf)) == 0
        assert pick(R, 1, 1.0) is None

    def test_zero_rate_gives_no_interval(self):
        R = np.array([[0.0, 0.0], [1.0, 0.0]])
        for u in (0.0, 0.5, 1.0):
            assert pick(R, 0, u) is None
            assert lambda_jump(R, 0, u)[0] is None
        assert lambda_jump(R, 0, np.nextafter(0.0, -np.inf))[0] is None
        assert lambda_jump(R, 1, 0.0)[:2] == (0, 1.0)
        assert pick(R, 1, 1.0) is None

    def test_every_row_starts_at_zero(self):
        R = np.array([[0.0, 1.2, 0.3], [0.4, 0.0, 0.6], [0.2, 0.1, 0.0]])
        # each row's targets in state order from 0, the block ending at q_i
        for i, blocks in enumerate([[(0.0, 1), (1.2, 2)], [(0.0, 0), (0.4, 2)], [(0.0, 0), (0.2, 1)]]):
            for lo, j in blocks:
                assert pick(R, i, lo) == j
                assert lambda_jump(R, i, lo)[:2] == (j, R[i, j])
                assert pick(R, i, lo + R[i, j] / 2) == j
            q = R[i].sum()
            assert pick(R, i, np.nextafter(q, -np.inf)) == blocks[-1][1]
            assert pick(R, i, q) is None
            assert lambda_jump(R, i, np.nextafter(0.0, -np.inf))[0] is None

    def test_lengths_sum_to_exit_rate(self):
        rng = np.random.default_rng(15)
        R = rng.uniform(0, 0.9, (4, 4)) * (rng.random((4, 4)) < 0.8)
        np.fill_diagonal(R, 0.0)
        for i in range(4):
            widths = []
            for j in np.flatnonzero(R[i]):
                mid = R[i, :j].sum() + R[i, j] / 2
                tgt, width, u_in = lambda_jump(R, i, mid)
                assert tgt == j and width == R[i, j]
                assert u_in == pytest.approx(0.5)
                widths.append(width)
            assert sum(widths) == pytest.approx(R[i].sum())
            # the edges are exact marks: an edge belongs to the interval above
            # it, one ulp below to the interval before
            edges = np.cumsum(R[i])
            assert np.array_equal(en._pick(R[i][None], np.zeros(1))[2][0], edges)
            targets = np.flatnonzero(R[i])
            for k, j in enumerate(targets):
                e = edges[j - 1] if j else 0.0
                assert pick(R, i, e) == j
                assert pick(R, i, np.nextafter(e, np.inf)) == j
                assert lambda_jump(R, i, np.nextafter(e, -np.inf))[0] == (targets[k - 1] if k else None)
            assert pick(R, i, np.nextafter(edges[-1], -np.inf)) == targets[-1]
            assert pick(R, i, edges[-1]) is None


@pytest.mark.parametrize("M", range(2, 11))
def test_pick_hits_lie_in_their_target_interval(M):
    """The edges of engine._pick on the source row are its cumulative sums,
    and a jump of the switching chain lands in the target whose interval
    holds the mark, also for marks at and just below the end q_i of the
    source row's block (a block that ended at the pairwise row sum left an
    ulp gap from 8 states on, where the pick answered state 1), and below 0
    (one ulp and more under an empty row's block), where it stays."""
    rng = np.random.default_rng(M)
    n = 3000
    R = rng.uniform(0.0, 1.0, (n, M, M)) * (rng.random((n, M, M)) < 0.8)
    R[:, np.arange(M), np.arange(M)] = 0.0
    states = rng.integers(0, M, n)
    ar = np.arange(n)
    cums = np.cumsum(R, axis=2)
    rows = cums[ar, states]
    q = cums[:, :, -1]
    marks = [q[ar, states]]
    for _ in range(8):
        marks.append(np.nextafter(marks[-1], -np.inf))
    marks.append(rng.random(n) * q[ar, states])
    for mark in marks:
        assert np.array_equal(en._pick(R[ar, states], mark)[2], rows)
        tgt = lambda_jumps(R, states, mark)[0]
        hit = tgt != states
        upper = rows[ar, tgt][hit]
        lower = np.where(tgt > 0, rows[ar, tgt - 1], 0.0)[hit]
        assert np.all((lower <= mark[hit]) & (mark[hit] < upper))
        assert np.array_equal(hit, (mark >= 0) & (mark < rows[:, -1]))


class TestIntervalLayout:
    """The two-state interval layout: a chain's off-diagonal rates laid end
    to end, row-major, under one mark, so that [0, a12) moves state 1 up and
    [a12, a12 + a21) moves state 2 down.  engine._pick reads it, and a chain
    moves to index % M when index // M is its state.  The rule it replaced,
    interval_move_reference, is its bitwise reference on lambda's
    per-candidate rate stacks and on an envelope chain's single row, from
    both states, at rates of 0 and +-1e-13 (the rate check lets rates down
    to -NEG_TOL through), and at marks on the edges 0, a12 and a12 + a21 and
    one ulp either side; the marks are nonnegative, as the engine draws
    them."""

    @staticmethod
    def run(n):
        """A run of n paths on the interval route, at H = 2."""
        sc = sn.load_scenario(make_scenario())
        return en._ChunkRun(sc, en.SimParams.from_scenario(sc, n_paths=n), range(n), "two_state",
                            cp.EnvelopePair(QBAR, QSTAR))

    @staticmethod
    def rates(rng, n):
        """n rate pairs (a12, a21), each rate uniform on [0, 2), 0 or +-1e-13."""
        return np.choose(rng.integers(0, 4, (n, 2)), [rng.uniform(0.0, 2.0, (n, 2)), 0.0, 1e-13, -1e-13])

    @staticmethod
    def marks(rng, a12, a21, n):
        """n marks, each the absolute value of an edge 0, a12 or a12 + a21, of
        its neighbour one ulp below or above, or of a uniform on the route's
        mark space [0, 2H)."""
        edges = np.zeros((3, n))
        edges[1], edges[2] = a12, a12 + a21
        marks = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
                                rng.uniform(0.0, 4.0, (1, n))])
        return np.abs(marks[rng.integers(0, len(marks), n), np.arange(n)])

    def test_lambda_matches_the_reference(self):
        rng, n = np.random.default_rng(28), 60000
        a = self.rates(rng, n)
        R = np.zeros((n, 2, 2))
        R[:, 0, 1], R[:, 1, 0] = a.T
        states, mark = rng.integers(0, 2, n), self.marks(rng, a[:, 0], a[:, 1], n)
        run = self.run(n)
        run.S[1] = states
        run._lambda_jump(one_round_table(run, mark, R))
        want = interval_move_reference(states, mark, a[:, 0], a[:, 1])
        assert np.array_equal(run._lam_new, want) and np.array_equal(run.S[1], want)
        assert 0 < (want != states).sum() < n
        # below 0, where the engine draws no mark, the pick reads the diagonal
        # (0, 0) and no chain moves, as in the row-block layout
        run.S[1] = states
        run._lambda_jump(one_round_table(run, np.nextafter(-mark, -np.inf), R))
        assert np.array_equal(run._lam_new, states)

    def test_envelope_rows_match_the_reference(self):
        rng, n = np.random.default_rng(29), 64
        run = self.run(n)
        c = one_round_table(run, np.zeros(n), np.zeros((n, 2, 2)))
        moved = 0
        for _ in range(300):
            rows = self.rates(rng, 2)  # the upper and the lower envelope's (a12, a21)
            run.Rbar, run.Rstar = (np.array([[0.0, a12], [a21, 0.0]]) for a12, a21 in rows)
            run._marks = self.marks(rng, *rows[rng.integers(0, 2)], n)
            run.S[:] = S0 = rng.integers(0, 2, (3, n))
            run._two_state_jump(c, S0[1])
            for row, (a12, a21) in zip((2, 0), rows):
                want = interval_move_reference(S0[row], run._marks, a12, a21)
                assert np.array_equal(run.S[row], want)
                moved += (want != S0[row]).sum()
            assert np.array_equal(run.S[1], S0[1])
        assert 0 < moved < 300 * 2 * n


def test_rates_match_expression_language():
    # the grid helpers above mirror the fixture expressions
    q12 = ex.parse("2 - sin(x1)^2")
    q21 = ex.parse("1 + abs(cos(x1))")
    xs = np.linspace(-3, 3, 7)
    R = trig_rates_on(xs)
    X = xs[:, None]
    assert R[:, 0, 1] == pytest.approx(ex.compile_vectorized(q12)(X), abs=1e-12)
    assert R[:, 1, 0] == pytest.approx(ex.compile_vectorized(q21)(X), abs=1e-12)
