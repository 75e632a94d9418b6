import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchsde import markov as mk
from tests.conftest import (
    bfs_irreducible,
    dominant_eig_2x2,
    random_generator,
    skeleton_2state_closed_form,
)

Q21 = np.array([[-2.0, 2.0], [1.0, -1.0]])
Q21_STAR = np.array([[-1.0, 1.0], [2.0, -2.0]])
Q22 = np.array([[-4.0, 2.0, 2.0], [1.0, -3.0, 2.0], [2.0, 1.0, -3.0]])
Q22_STAR = np.array([[-2.0, 1.0, 1.0], [3.0, -3.0, 0.0], [3.0, 2.0, -5.0]])


class TestValidate:
    def test_valid_irreducible(self):
        d = mk.validate_generator(Q21)
        assert d.conservative and d.irreducible

    def test_zero_generator_is_reducible(self):
        d = mk.validate_generator(np.zeros((2, 2)))
        assert d.conservative and not d.irreducible

    def test_irreducible_matches_bfs_on_random_graphs(self):
        rng = np.random.default_rng(11)
        seen = set()
        for _ in range(3000):
            M = int(rng.integers(1, 9))
            Q = np.where(rng.random((M, M)) < rng.uniform(0.05, 0.6), 1.0, 0.0)
            want = bfs_irreducible(Q)
            seen.add(want)
            assert mk.is_irreducible(Q) == want
        assert seen == {True, False}

    def test_irreducible_long_path_graph(self):
        M = 300
        Q = np.eye(M, k=1) + np.eye(M, k=-1)
        assert bfs_irreducible(Q) and mk.is_irreducible(Q)
        for drop in ((0, 1), (M - 1, M - 2), (150, 151)):
            Qd = Q.copy()
            Qd[drop] = 0.0
            assert not bfs_irreducible(Qd) and not mk.is_irreducible(Qd)

    def test_row_sum_violation(self):
        d = mk.validate_generator(np.array([[-1.0, 2.0], [1.0, -1.0]]))
        assert not d.conservative
        assert d.row_sum_violations == [(1, 1.0)]

    def test_negative_off_diagonal(self):
        d = mk.validate_generator(np.array([[0.5, -0.5], [1.0, -1.0]]))
        assert d.negative_entries and d.negative_entries[0][:2] == (1, 2)


class TestInvariantMeasure:
    def test_two_state_upper(self):
        assert np.abs(mk.invariant_measure(Q21) - [1 / 3, 2 / 3]).max() < 1e-12

    def test_two_state_lower(self):
        assert np.abs(mk.invariant_measure(Q21_STAR) - [2 / 3, 1 / 3]).max() < 1e-12

    def test_symmetric(self):
        assert np.abs(mk.invariant_measure(np.array([[-1.0, 1.0], [1.0, -1.0]])) - 0.5).max() < 1e-14

    def test_three_state(self):
        assert np.abs(mk.invariant_measure(Q22) - [7 / 25, 8 / 25, 2 / 5]).max() < 1e-12
        assert np.abs(mk.invariant_measure(Q22_STAR) - [3 / 5, 7 / 25, 3 / 25]).max() < 1e-12

    def test_reducible_raises(self):
        with pytest.raises(mk.MarkovError):
            mk.invariant_measure(np.zeros((3, 3)))


class TestSkeleton:
    def test_tiny_tau_is_identity(self):
        P = mk.skeleton_transition(Q21, 1e-12)
        assert np.abs(P - np.eye(2)).max() < 1e-10

    def test_closed_form(self):
        for a, b, tau in [(2.0, 1.0, 1.0), (0.3, 2.5, 0.5), (4.0, 4.0, 0.1)]:
            Q = np.array([[-a, a], [b, -b]])
            P = mk.skeleton_transition(Q, tau)
            assert np.abs(P - skeleton_2state_closed_form(a, b, tau)).max() < 1e-10

    def test_rows_and_positivity(self):
        rng = np.random.default_rng(3)
        for M in (2, 3, 5):
            Q = random_generator(rng, M)
            for tau in (0.1, 0.5, 1.0):
                P = mk.skeleton_transition(Q, tau)
                assert np.abs(P.sum(axis=1) - 1.0).max() < 1e-12
                assert P.min() > 0

    def test_stationarity_transfers(self):
        rng = np.random.default_rng(4)
        for M in (2, 4):
            Q = random_generator(rng, M)
            mu = mk.invariant_measure(Q)
            for tau in (0.1, 1.0):
                P = mk.skeleton_transition(Q, tau)
                assert np.abs(mu @ P - mu).max() < 1e-9

    def test_nonpositive_tau(self):
        with pytest.raises(mk.MarkovError):
            mk.skeleton_transition(Q21, 0.0)

    @pytest.mark.parametrize("tau", [1.0, 12.5])
    def test_stiff_generator(self, tau):
        # rate * tau up to 1e4: exp(-rate * tau) underflows, the skeleton must not
        P = mk.skeleton_transition(np.array([[-800.0, 800.0], [400.0, -400.0]]), tau)
        assert P.min() >= 0
        assert np.abs(P - [1 / 3, 2 / 3]).max() < 1e-12

    def test_matches_expm(self):
        from scipy.linalg import expm

        rng = np.random.default_rng(9)
        for M in (2, 3, 6):
            Q = random_generator(rng, M, lo=0.01, hi=50.0)
            for tau in (1e-8, 1e-3, 0.37, 20.0):
                assert np.abs(mk.skeleton_transition(Q, tau) - expm(tau * Q)).max() < 1e-13


class TestTiltAndPerron:
    def test_zero_tilt(self):
        P = mk.skeleton_transition(Q21, 0.5)
        assert np.array_equal(mk.tilt(P, np.zeros(2)), P)

    def test_entrywise(self):
        P = np.full((2, 2), 0.5)
        assert np.allclose(mk.tilt(P, [np.log(2.0), 0.0]), [[1, 1], [0.5, 0.5]], atol=1e-15)

    def test_uniform_tilt_scales(self):
        P = mk.skeleton_transition(Q21, 0.3)
        c = 0.7
        assert np.abs(mk.tilt(P, np.full(2, c)) - np.exp(c) * P).max() < 1e-14

    def test_perron_of_stochastic(self):
        P = mk.skeleton_transition(Q21, 0.5)
        assert abs(mk.perron_root(P) - 1.0) < 1e-12

    def test_perron_uniform_tilt(self):
        P = mk.skeleton_transition(Q21, 0.5)
        c = -0.4
        assert abs(mk.perron_root(mk.tilt(P, np.full(2, c))) - np.exp(c)) < 1e-12

    def test_perron_vs_quadratic(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            P = mk.skeleton_transition(random_generator(rng, 2), rng.uniform(0.1, 1.0))
            Pt = mk.tilt(P, rng.uniform(-2, 2, 2))
            assert abs(mk.perron_root(Pt) - dominant_eig_2x2(Pt)) < 1e-12

    def test_zero_matrix_raises(self):
        with pytest.raises(mk.MarkovError):
            mk.perron_root(np.zeros((2, 2)))

    def test_negative_entry_raises(self):
        with pytest.raises(mk.MarkovError, match="nonnegative"):
            mk.perron_root(np.array([[0.5, -0.1], [0.2, 0.3]]))

    def test_periodic_and_reducible(self):
        # cyclic permutations: the whole spectrum sits on the unit circle
        for M in (2, 3, 5):
            assert abs(mk.perron_root(2.0 * np.roll(np.eye(M), 1, axis=1)) - 2.0) < 1e-12
        assert abs(mk.perron_root(np.array([[0.2, 0.7], [0.0, 0.9]])) - 0.9) < 1e-15


class TestExpFunctional:
    def test_empty_sum(self):
        P = np.full((2, 2), 0.5)
        assert mk.exp_functional([0.3, 0.7], P, [1.0, -1.0], 0) == 1.0

    def test_two_step_by_hand(self):
        P = np.full((2, 2), 0.5)
        assert abs(mk.exp_functional([1.0, 0.0], P, [np.log(2.0), 0.0], 2) - 3.0) < 1e-14

    def test_single_step(self):
        P = mk.skeleton_transition(Q21, 0.5)
        mu = np.array([0.25, 0.75])
        th = np.array([0.3, -0.2])
        want = float((mu * np.exp(th)).sum())
        assert abs(mk.exp_functional(mu, P, th, 1) - want) < 1e-14

    def test_brute_force_enumeration(self):
        rng = np.random.default_rng(6)
        P = mk.skeleton_transition(random_generator(rng, 2), 0.4)
        th = rng.uniform(-1.5, 1.5, 2)
        mu = rng.dirichlet([1.0, 1.0])
        for n in range(1, 7):
            total = 0.0
            for seq in np.ndindex(*(2,) * n):
                prob = mu[seq[0]]
                for a, b in zip(seq, seq[1:]):
                    prob *= P[a, b]
                total += prob * np.exp(sum(th[s] for s in seq))
            assert abs(mk.exp_functional(mu, P, th, n) - total) < 1e-12

    def test_ratio_convergence(self):
        # growth rate of the functional equals the tilted Perron root
        rng = np.random.default_rng(7)
        for _ in range(20):
            M = int(rng.integers(2, 6))
            Q = random_generator(rng, M)
            tau = float(rng.choice([0.1, 1.0]))
            P = mk.skeleton_transition(Q, tau)
            th = rng.uniform(-2, 2, M)
            lam = mk.perron_root(mk.tilt(P, th))
            mu = rng.dirichlet(np.ones(M))
            r60 = mk.exp_functional(mu, P, th, 60) / lam**60
            r80 = mk.exp_functional(mu, P, th, 80) / lam**80
            assert abs(r80 / r60 - 1.0) < 0.01


class TestSpectralAbscissa:
    def test_zero_perturbation(self):
        assert abs(mk.spectral_abscissa(Q21, np.zeros(2), 3.0)) < 1e-10

    def test_constant_shift(self):
        for c in (-1.2, 0.4):
            got = mk.spectral_abscissa(Q21, np.full(2, c), 3.0)
            assert abs(got - (-3.0 * c)) < 1e-10

    def test_quadratic_oracle(self):
        got = mk.spectral_abscissa(Q21, np.array([-1.0, 0.5]), 3.0)
        want = -dominant_eig_2x2(Q21 + 3.0 * np.diag([-1.0, 0.5]))
        assert abs(got - want) < 1e-10

    def test_shift_identity(self):
        rng = np.random.default_rng(8)
        for M in (2, 4):
            Q = random_generator(rng, M)
            C = rng.uniform(-2, 2, M)
            p = 2.5
            base = mk.spectral_abscissa(Q, C, p)
            for s in (0.7, -1.3):
                assert abs(mk.spectral_abscissa(Q, C + s, p) - (base - p * s)) < 1e-10

    def test_reducible_raises(self):
        with pytest.raises(mk.MarkovError):
            mk.spectral_abscissa(np.zeros((2, 2)), np.zeros(2), 3.0)

    def test_negative_bounds_shift_stays_nonnegative(self):
        # regression: strongly negative C must not break the Perron shift
        got = mk.spectral_abscissa(np.array([[-1.0, 1.0], [1.0, -1.0]]), np.array([-5.0, -5.0]), 3.0)
        assert abs(got - 15.0) < 1e-10


@given(st.integers(2, 5), st.sampled_from([0.1, 0.5, 1.0]), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_skeleton_property(M, tau, seed):
    Q = random_generator(np.random.default_rng(seed), M)
    P = mk.skeleton_transition(Q, tau)
    assert np.abs(P.sum(axis=1) - 1.0).max() < 1e-12
    assert P.min() > 0
