import numpy as np
import pytest
from scipy import stats

from switchsde import cli
from switchsde import engine as en
from switchsde import markov as mk
from switchsde import scenario as sn
from tests.conftest import make_scenario, write_scenario


def load(doc):
    return sn.load_scenario(doc)


def no_switching(**kw):
    base = dict(rates=[["0", "0"], ["0", "0"]], rate_bound=1.0)
    base.update(kw)
    return make_scenario(**base)


class TestDeterministic:
    def test_linear_ode_tracking(self):
        # a = -x, sigma = 0, no control, no switching: X follows e^{-t}
        sc = load(no_switching(step=0.001, horizon=5.0))
        p = en.SimParams.from_scenario(sc, chunk_size=4)
        path = en.simulate_hybrid(sc, p, 0)
        assert np.abs(path.X[:, 0] - np.exp(-path.times)).max() < 0.01

    def test_two_dimensional_state(self):
        doc = make_scenario(
            dimensions={"d": 2, "M": 2},
            drift=[["-1*x1", "-2*x2"], ["-1*x1", "-2*x2"]],
            diffusion=[
                [["0.1*x1", "0"], ["0", "0.1*x2"]],
                [["0.1*x1", "0"], ["0", "0.1*x2"]],
            ],
            rates=[["0", "1"], ["1", "0"]],
            rate_bound=1.0,
            coefficient_bounds={"C": [-1.99, -1.99], "c": [-3.99, -3.99], "Ma": 2.0},
            initial={"x": [1.0, -2.0], "state": 1},
            step=0.002,
            horizon=3.0,
            paths=500,
            seed=17,
        )
        sc = load(doc)
        assert sn.validate_scenario(sc).ok
        p = en.SimParams.from_scenario(sc)
        summ = en.monte_carlo(sc, p)
        # componentwise geometric moments: e^{(2a+s^2)t} per axis
        want = 1.0 * np.exp((-2 + 0.01) * 3.0) + 4.0 * np.exp((-4 + 0.01) * 3.0)
        assert abs(summ.mean_x2[-1] - want) < 4 * summ.se_x2[-1] + 0.02 * want

    def test_first_order_in_h(self):
        errs = []
        for h in (1e-2, 5e-3, 2.5e-3):
            sc = load(no_switching(step=h, horizon=5.0))
            p = en.SimParams.from_scenario(sc, chunk_size=4)
            path = en.simulate_hybrid(sc, p, 0)
            errs.append(abs(path.X[-1, 0] - np.exp(-5.0)))
        r1 = errs[0] / errs[1]
        r2 = errs[1] / errs[2]
        assert 1.0 < r1 < 4.0 and 1.0 < r2 < 4.0  # halving h halves the error


class TestFrozenObservation:
    def test_feedback_uses_frozen_state(self):
        # pure feedback: dX = -X(delta(t)) dt; slope constant within windows
        sc = load(
            no_switching(
                gains=[1.0, 1.0], drift=[["0"], ["0"]], tau=0.5, step=0.01, horizon=2.0,
                coefficient_bounds={"C": [0.0, 0.0], "c": [0.0, 0.0], "Ma": 0.0},
            )
        )
        p = en.SimParams.from_scenario(sc, chunk_size=4)
        path = en.simulate_hybrid(sc, p, 0)
        X = path.X[:, 0]
        obs_every = 50
        for w in range(4):
            x_obs = X[w * obs_every]
            inc = np.diff(X[w * obs_every : (w + 1) * obs_every + 1])
            assert np.abs(inc + x_obs * 0.01).max() < 1e-15

    def test_feedback_uses_frozen_regime(self):
        # gains differ per state; increments reveal b(Lambda(delta(t)))
        sc = load(
            make_scenario(
                gains=[0.0, 1.0], drift=[["0"], ["0"]], diffusion=[[["0"]], [["0"]]],
                tau=0.5, step=0.01, horizon=4.0, seed=3,
                coefficient_bounds={"C": [0.0, 0.0], "c": [0.0, 0.0], "Ma": 0.0},
            )
        )
        p = en.SimParams.from_scenario(sc, chunk_size=4)
        path = en.simulate_hybrid(sc, p, 0)
        X = path.X[:, 0]
        lam = path.lam
        obs_every = 50
        for w in range(8):
            k0 = w * obs_every
            b_frozen = [0.0, 1.0][lam[k0] - 1]
            inc = np.diff(X[k0 : k0 + obs_every + 1])
            assert np.abs(inc + b_frozen * X[k0] * 0.01).max() < 1e-15


class TestJumpLaw:
    def test_holding_time_is_exponential(self):
        # thinning of the constant two-state generator: state-1 sojourn ~ Exp(2)
        sc = load(
            make_scenario(
                drift=[["0"], ["0"]], diffusion=[[["0"]], [["0"]]],
                coefficient_bounds={"C": [0.0, 0.0], "c": [0.0, 0.0], "Ma": 0.0},
                horizon=8000.0, step=0.5, tau=0.5, seed=11,
            )
        )
        p = en.SimParams.from_scenario(sc, chunk_size=2, n_paths=1)
        path = en.simulate_hybrid(sc, p, 0)
        sojourns = []
        t_prev = 0.0
        for t, frm, _ in path.jumps["lambda"]:
            if frm == 1:
                sojourns.append(t - t_prev)
            t_prev = t
        assert len(sojourns) > 4000
        ks = stats.kstest(np.array(sojourns), "expon", args=(0, 0.5))
        assert ks.pvalue > 0.01

    def test_occupation_matches_invariant(self):
        sc = load(
            make_scenario(
                drift=[["0"], ["0"]], diffusion=[[["0"]], [["0"]]],
                coefficient_bounds={"C": [0.0, 0.0], "c": [0.0, 0.0], "Ma": 0.0},
                horizon=3000.0, step=0.5, tau=0.5, seed=21,
            )
        )
        p = en.SimParams.from_scenario(sc, chunk_size=2, n_paths=1)
        summ = en.monte_carlo(sc, p)
        assert np.abs(summ.occupation["lambda"] - [1 / 3, 2 / 3]).max() < 0.03


class TestMoments:
    def test_geometric_brownian_motion(self):
        sc = load(
            make_scenario(
                drift=[["-0.5*x1"], ["-0.5*x1"]], diffusion=[[["0.3*x1"]], [["0.3*x1"]]],
                rates=[["0", "0"], ["0", "0"]], rate_bound=1.0,
                coefficient_bounds={"C": [-0.91, -0.91], "c": [-0.91, -0.91], "Ma": 0.5},
                horizon=2.0, step=0.005, tau=0.5, paths=4000, seed=5,
            )
        )
        p = en.SimParams.from_scenario(sc)
        summ = en.monte_carlo(sc, p)
        want = np.exp((2 * (-0.5) + 0.09) * 2.0)
        assert abs(summ.mean_x2[-1] - want) < 3 * summ.se_x2[-1]


class TestCoupledRoutes:
    def test_constant_rates_degenerate_sandwich(self, ex_linear):
        p = en.SimParams.from_scenario(ex_linear, n_paths=32, horizon=2.0)
        path = en.simulate_coupled(ex_linear, p, 5)
        assert path.meta["route"] == "two_state"
        assert np.array_equal(path.lam, path.lam_bar)
        assert np.array_equal(path.lam, path.lam_star)

    def test_balanced_two_state_route(self, ex_balanced):
        p = en.SimParams.from_scenario(ex_balanced, n_paths=256, horizon=10.0)
        summ = en.monte_carlo(ex_balanced, p, coupled=True)
        assert summ.route == "two_state"
        assert summ.ordering_violations == 0
        assert np.abs(summ.occupation["lambda_bar"] - [1 / 3, 2 / 3]).max() < 0.05
        assert np.abs(summ.occupation["lambda_star"] - [2 / 3, 1 / 3]).max() < 0.05

    def test_trig_example_uses_matrix_route(self, ex_two_state):
        route, env, warnings = en.choose_route(ex_two_state)
        assert route == "matrix"
        assert warnings  # the interval conditions fail for this scenario

    def test_trig_example_sandwich(self, ex_two_state):
        p = en.SimParams.from_scenario(ex_two_state, n_paths=512, horizon=10.0)
        summ = en.monte_carlo(ex_two_state, p, coupled=True)
        assert summ.ordering_violations == 0

    def test_three_state_sandwich(self, ex_three_state):
        p = en.SimParams.from_scenario(ex_three_state, n_paths=128, horizon=10.0)
        summ = en.monte_carlo(ex_three_state, p, coupled=True)
        assert summ.ordering_violations == 0
        assert summ.warnings  # sub-marginal upper envelope is reported

    def test_coupling_preserves_switching_marginal(self, ex_two_state):
        # the switching chain's occupancy must not depend on being coupled
        pm = en.SimParams.from_scenario(ex_two_state, n_paths=256, horizon=60.0, h=0.01)
        marginal = en.monte_carlo(ex_two_state, pm)
        coupled = en.monte_carlo(ex_two_state, pm, coupled=True)
        gap = np.abs(marginal.occupation["lambda"] - coupled.occupation["lambda"]).max()
        assert gap < 0.02, gap

    def test_upper_chain_skeleton_marginal(self, ex_two_state):
        # the coupled upper chain remains a Markov chain with its own generator
        p = en.SimParams.from_scenario(ex_two_state, n_paths=512, horizon=25.0, h=0.01)
        summ = en.monte_carlo(ex_two_state, p, coupled=True)
        counts = summ.skeleton_counts["lambda_bar"]
        P = mk.skeleton_transition(ex_two_state.envelopes.qbar, 0.5)
        for i in range(2):
            emp = counts[i] / counts[i].sum()
            assert np.abs(emp - P[i]).sum() / 2 < 0.05


class TestReproducibility:
    def test_same_seed_bitwise(self, ex_balanced):
        p = en.SimParams.from_scenario(ex_balanced, n_paths=128, horizon=5.0)
        a = en.monte_carlo(ex_balanced, p, coupled=True)
        b = en.monte_carlo(ex_balanced, p, coupled=True)
        assert a.to_dict() == b.to_dict()

    def test_single_path_equals_mc_of_one(self, ex_balanced):
        p = en.SimParams.from_scenario(ex_balanced, n_paths=1, horizon=5.0)
        summ = en.monte_carlo(ex_balanced, p, coupled=False)
        path = en.simulate_hybrid(ex_balanced, p, 0)
        x2 = (path.X[::50, 0] ** 2)
        assert np.allclose(summ.mean_x2[: len(x2)], x2, atol=1e-14)

    def test_path_noise_independent_of_path_count(self, ex_balanced):
        p1 = en.SimParams.from_scenario(ex_balanced, n_paths=1, horizon=2.0)
        p2 = en.SimParams.from_scenario(ex_balanced, n_paths=64, horizon=2.0)
        a = en.simulate_hybrid(ex_balanced, p1, 0)
        b = en.simulate_hybrid(ex_balanced, p2, 0)
        assert np.array_equal(a.X, b.X)
        assert a.jumps == b.jumps

    def test_workers_do_not_change_results(self, ex_balanced):
        p1 = en.SimParams.from_scenario(
            ex_balanced, n_paths=96, horizon=3.0, chunk_size=32, workers=1
        )
        p2 = en.SimParams.from_scenario(
            ex_balanced, n_paths=96, horizon=3.0, chunk_size=32, workers=3
        )
        a = en.monte_carlo(ex_balanced, p1, coupled=True)
        b = en.monte_carlo(ex_balanced, p2, coupled=True)
        assert a.to_dict() == b.to_dict()


class TestOccupationAverage:
    def test_constant_function(self, ex_balanced):
        p = en.SimParams.from_scenario(ex_balanced, n_paths=1, horizon=5.0, chunk_size=4)
        path = en.simulate_hybrid(ex_balanced, p, 0)
        assert en.occupation_time_average(path, [2.5, 2.5]) == pytest.approx(2.5)

    def test_manual_piecewise_integration(self):
        path = en.HybridPath(
            times=np.array([0.0, 1.0, 2.0, 3.0, 4.0]),
            X=np.zeros((5, 1)),
            lam=np.array([1, 1, 2, 2, 2]),
            lam_star=None,
            lam_bar=None,
            jumps={"lambda": [(1.25, 1, 2), (3.5, 2, 1)], "lambda_star": [], "lambda_bar": []},
            meta={},
        )
        got = en.occupation_time_average(path, [10.0, 20.0])
        want = (1.25 * 10 + 2.25 * 20 + 0.5 * 10) / 4.0
        assert got == pytest.approx(want)


class TestGuards:
    def test_param_validation(self, ex_balanced):
        with pytest.raises(en.EngineError, match="tau/h"):
            en.SimParams(tau=0.5, h=0.3, horizon=5.0, seed=1, n_paths=1)
        with pytest.raises(en.EngineError, match="need 0 < h"):
            en.SimParams(tau=0.5, h=0.7, horizon=5.0, seed=1, n_paths=1)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_reported(self):
        sc = load(
            no_switching(
                drift=[["300*x1"], ["300*x1"]], step=0.01, horizon=10.0,
                coefficient_bounds={"C": [600.0, 600.0], "c": [600.0, 600.0], "Ma": 300.0},
            )
        )
        p = en.SimParams.from_scenario(sc, chunk_size=4)
        with pytest.raises(en.EngineError, match="non-finite state"):
            en.simulate_hybrid(sc, p, 0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverging_moments_reported(self, tmp_path, capsys):
        # |X| reaches about 1e90 by t = 3: finite, but |X|^4 overflows
        doc = make_scenario(drift=[["100*x1"], ["100*x1"]], horizon=3.0)
        sc = load(doc)
        with pytest.raises(en.EngineError, match="recording time t=3 "):
            en.monte_carlo(sc, en.SimParams.from_scenario(sc, n_paths=8))
        assert cli.main(["mc", write_scenario(tmp_path, doc), "--paths", "8"]) == 2
        assert "t=3 " in capsys.readouterr().err

    def test_path_index_range(self, ex_balanced):
        p = en.SimParams.from_scenario(ex_balanced, n_paths=4, horizon=2.0)
        with pytest.raises(en.EngineError, match="out of range"):
            en.simulate_hybrid(ex_balanced, p, 4)
