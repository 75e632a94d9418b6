import numpy as np
import pytest

from switchsde import coupling as cp
from switchsde import exprlang as ex
from tests.conftest import coupling_rows_reference, random_dominated_pair

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


class TestEnvelopes:
    def test_trig_extrema(self):
        env = cp.two_state_envelopes(trig_rates_on(GRID))
        assert np.abs(env.qbar - QBAR).max() < 1e-4
        assert np.abs(env.qstar - QSTAR).max() < 1e-4
        assert env.qbar_down_positive and env.qstar_up_positive

    def test_constant_rates_collapse(self):
        R = np.zeros((5, 2, 2))
        R[:, 0, 1] = 0.7
        R[:, 1, 0] = 1.3
        env = cp.two_state_envelopes(R)
        assert np.array_equal(env.qbar, env.qstar)
        assert env.qbar[0, 1] == 0.7 and env.qbar[1, 0] == 1.3

    def test_grid_refinement_is_monotone(self):
        coarse = np.linspace(-10, 10, 501)
        fine = np.linspace(-10, 10, 2001)  # superset as a point set
        e1 = cp.two_state_envelopes(trig_rates_on(coarse))
        e2 = cp.two_state_envelopes(trig_rates_on(np.concatenate([coarse, fine])))
        assert e2.qbar[0, 1] >= e1.qbar[0, 1]
        assert e2.qbar[1, 0] <= e1.qbar[1, 0]

    def test_empty_grid_raises(self):
        with pytest.raises(cp.CouplingError):
            cp.two_state_envelopes(np.zeros((0, 2, 2)))


class TestTwoStateConditions:
    def test_trig_upper_fails_at_quarter_turn(self):
        env = cp.EnvelopePair(QBAR, QSTAR, "user-asserted", True, True)
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
        env = cp.two_state_envelopes(R)
        conds = cp.check_two_state_conditions(env, R, np.zeros(3))
        assert conds.upper.holds and conds.lower.holds

    def test_constant_sum_balanced(self):
        xs = np.linspace(-8, 8, 4001)
        R = np.zeros((len(xs), 2, 2))
        R[:, 0, 1] = 1.5 + 0.5 * np.sin(xs)
        R[:, 1, 0] = 1.5 - 0.5 * np.sin(xs)
        env = cp.EnvelopePair(QBAR, QSTAR, "user-asserted", True, True)
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


class TestBasicCoupling:
    def test_identical_rows_synchronize(self):
        row = np.array([0.0, 1.2, 0.8])
        T = cp.basic_coupling_rows(row, row, 2, 0)
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
            T = cp.basic_coupling_rows(r1, r2, i, j)
            for k in range(M):
                if k != i:
                    assert abs(T[k, :].sum() - r1[k]) < 1e-12  # (a-b)+ + a^b = a
                if k != j:
                    assert abs(T[:, k].sum() - r2[k]) < 1e-12

    def test_lower_row_against_upper_row(self):
        # rows from the two-state generators, product state (2, 1)
        T = cp.basic_coupling_rows(cp.offdiag(QSTAR)[1], cp.offdiag(QBAR)[0], 1, 0)
        assert T[0, 0] == 2.0  # chain 1 drops alone
        assert T[1, 1] == 2.0  # chain 2 rises alone
        assert T[1, 0] == -4.0


class TestOrderPreservingCoupling:
    def test_worked_two_state_example(self):
        T = cp.order_preserving_rows(QSTAR, QBAR, 0, 0)
        assert np.allclose(T, [[-2.0, 1.0], [0.0, 1.0]], atol=1e-14)

    def test_synchronous_when_identical(self):
        for i in range(2):
            T = cp.order_preserving_rows(QBAR, QBAR, i, i)
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
            assert np.abs(a - b).max() < 1e-13

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

    def test_requires_ordered_pair(self):
        with pytest.raises(cp.CouplingError):
            cp.order_preserving_rows(QBAR, QBAR, 1, 0)

    def test_random_dominated_pairs_verify(self):
        rng = np.random.default_rng(14)
        for _ in range(60):
            M = int(rng.integers(2, 7))
            R1, R2 = random_dominated_pair(rng, M)
            assert cp.check_domination(R1, R2).holds
            Qt = cp.full_coupling_generator(R1, R2)
            diag = cp.verify_coupling_matrix(Qt, R1, R2)
            assert diag.ok, diag.summary()


class TestVerifyOracle:
    def test_clean_on_trig_example(self):
        for x in (0.0, 0.7, 2.0, -4.4):
            Rx = trig_rates_on(np.array([x]))[0]
            diag = cp.verify_coupling_matrix(
                cp.full_coupling_generator(Rx, cp.offdiag(QBAR)), Rx, QBAR
            )
            assert diag.ok, (x, diag.summary())
            diag2 = cp.verify_coupling_matrix(
                cp.full_coupling_generator(cp.offdiag(QSTAR), Rx), QSTAR, Rx
            )
            assert diag2.ok, (x, diag2.summary())

    def test_synchronous_self_coupling(self):
        Qt = cp.full_coupling_generator(QBAR, QBAR)
        assert cp.verify_coupling_matrix(Qt, QBAR, QBAR).ok

    def test_corrupted_rate_detected(self):
        Rx = trig_rates_on(np.array([0.3]))[0]
        Qt = cp.full_coupling_generator(Rx, cp.offdiag(QBAR))
        Qt[0, 3] += 0.25  # (1,1) -> (2,2) rate bumped
        diag = cp.verify_coupling_matrix(Qt, Rx, QBAR)
        assert not diag.ok
        assert diag.row_sum_violations and diag.row_sum_violations[0][0] == (1, 1)
        chains = {v[0] for v in diag.marginality_violations}
        assert chains == {"lower", "upper"}

    def test_three_state_deficit_reported(self):
        # the displayed 3-state upper envelope loses upper-chain marginality at (2,3)
        Rx = three_state_rates_on(np.array([0.0]))[0]
        qbar3 = np.array([[-4.0, 2, 2], [1, -3, 2], [2, 1, -3]])
        Qt = cp.full_coupling_generator(Rx, cp.offdiag(qbar3))
        diag = cp.verify_coupling_matrix(Qt, Rx, qbar3)
        assert not diag.ok
        bad = {(v[0], v[1]) for v in diag.marginality_violations}
        assert bad == {("upper", (2, 3))}
        assert not diag.order_violations and not diag.negative_rates


class TestSkorokhodPartition:
    def test_single_interval(self):
        R = np.array([[0.0, 1.5], [1.0, 0.0]])
        part = cp.skorokhod_partition(R, 1, 2.0)
        assert len(part.intervals) == 1
        iv = part.intervals[0]
        assert (iv.lo, iv.hi, iv.target) == (0.0, 1.5, 2)
        assert part.L == 4.0
        assert part.target_of(0.0) == 2 and part.target_of(1.5) is None

    def test_zero_rate_gives_no_interval(self):
        R = np.array([[0.0, 0.0], [1.0, 0.0]])
        part = cp.skorokhod_partition(R, 1, 2.0)
        assert part.intervals == [] and part.total == 0.0

    def test_rows_are_offset_consecutively(self):
        R = np.array([[0.0, 1.2, 0.3], [0.4, 0.0, 0.6], [0.2, 0.1, 0.0]])
        p2 = cp.skorokhod_partition(R, 2, 2.0)
        assert p2.offset == pytest.approx(1.5)  # row 1's total
        assert p2.intervals[0].lo == pytest.approx(1.5)
        assert p2.intervals[0].target == 1
        p3 = cp.skorokhod_partition(R, 3, 2.0)
        assert p3.offset == pytest.approx(2.5)
        lengths = [iv.length for iv in p3.intervals]
        assert sum(lengths) == pytest.approx(p3.total)

    def test_lengths_sum_to_exit_rate(self):
        rng = np.random.default_rng(15)
        R = rng.uniform(0, 0.9, (4, 4))
        np.fill_diagonal(R, 0.0)
        for i in range(1, 5):
            part = cp.skorokhod_partition(R, i, 3.0)
            assert sum(iv.length for iv in part.intervals) == pytest.approx(part.total)

    def test_rate_bound_enforced(self):
        R = np.array([[0.0, 5.0], [1.0, 0.0]])
        with pytest.raises(cp.CouplingError, match="exceeds declared bound"):
            cp.skorokhod_partition(R, 1, 2.0)


def test_rates_match_expression_language():
    # the grid helpers above mirror the fixture expressions
    q12 = ex.parse("2 - sin(x1)^2")
    q21 = ex.parse("1 + abs(cos(x1))")
    xs = np.linspace(-3, 3, 7)
    R = trig_rates_on(xs)
    for k, x in enumerate(xs):
        assert R[k, 0, 1] == pytest.approx(ex.evaluate(q12, [x]), abs=1e-12)
        assert R[k, 1, 0] == pytest.approx(ex.evaluate(q21, [x]), abs=1e-12)
