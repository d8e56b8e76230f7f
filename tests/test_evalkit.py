from types import SimpleNamespace

import numpy as np
import pytest

from robustpred.datagen import PolyConfig, SyntheticConfig, generate_linear
from robustpred.evalkit import (
    _split_report,
    compare_predictors,
    delta_percent,
    excess_mse_check,
    run_mc_experiment,
)
from robustpred.gate import OutlierRegion, is_outlier
from robustpred.linalg import ShapeError, accumulate_moments
from robustpred.predictors import fit_conservative, fit_optimistic


def region_for(Z, alpha=0.1):
    n = len(Z)
    return OutlierRegion(minv=np.linalg.pinv(Z.T @ Z / n), alpha=alpha)


def split(pred, Z, y, region):
    """The EvalReport of predictions ``pred``, split by the region membership of z."""
    return _split_report((y - pred) ** 2, is_outlier(region, Z))


class TestEvaluate:
    def test_perfect_predictor(self):
        rng = np.random.default_rng(0)
        X, Z = rng.normal(size=(200, 2)), rng.normal(size=(200, 1))
        y = X @ np.array([1.0, -1.0])
        rep = split(X @ np.array([1.0, -1.0]), Z, y, region_for(Z))
        assert rep.mse == rep.mse_in == rep.mse_out == 0.0

    def test_constant_predictor_variance_identity(self):
        rng = np.random.default_rng(1)
        X, Z = rng.normal(size=(500, 2)), rng.normal(size=(500, 1))
        y = rng.normal(size=500)
        y -= y.mean()
        rep = split(np.zeros(len(X)), Z, y, region_for(Z))
        assert rep.mse == pytest.approx(np.mean(y**2))

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        X, Z = rng.normal(size=(100, 2)), rng.normal(size=(100, 1))
        y = rng.normal(size=100)
        region = region_for(Z, alpha=0.3)
        rep = split(X[:, 0] * 0.5, Z, y, region)
        out_sq, in_sq = [], []
        for i in range(100):
            e2 = (y[i] - 0.5 * X[i, 0]) ** 2
            stat = float(Z[i] @ region.minv @ Z[i])
            (out_sq if stat >= region.threshold else in_sq).append(e2)
        assert rep.n_out == len(out_sq) and rep.n_in == len(in_sq)
        assert rep.mse_out == pytest.approx(np.mean(out_sq), abs=1e-12)
        assert rep.mse_in == pytest.approx(np.mean(in_sq), abs=1e-12)

    def test_weighted_mean_identity(self):
        rng = np.random.default_rng(3)
        X, Z = rng.normal(size=(300, 2)), rng.standard_t(3, size=(300, 1))
        y = rng.normal(size=300)
        rep = split(X.sum(1), Z, y, region_for(Z))
        recombined = (rep.n_out * rep.mse_out + rep.n_in * rep.mse_in) / (rep.n_out + rep.n_in)
        assert rep.mse == pytest.approx(recombined, abs=1e-10)

    def test_empty_bucket_reported_absent(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(50, 2))
        Z = np.full((50, 1), 0.01)  # no z reaches the tail threshold
        y = rng.normal(size=50)
        region = OutlierRegion(minv=np.eye(1), alpha=0.1)
        rep = split(np.zeros(len(X)), Z, y, region)
        assert rep.n_out == 0 and rep.mse_out is None
        assert rep.mse_in is not None

    def test_misaligned_arrays(self):
        from robustpred.robust import fit_robust

        model = fit_robust(*generate_linear(SyntheticConfig(n=200, seed=5)), 0.3)
        with pytest.raises(ShapeError):
            compare_predictors(model, np.zeros((2, 3)), np.zeros((3, 1)), np.zeros(2))


class TestRunMcExperiment:
    def test_baseline_row_identically_zero(self):
        cfg = SyntheticConfig(n=100, seed=55)
        table, _ = run_mc_experiment(cfg, 200, 2000, 3, 0.3)
        row = table.row("optimistic")
        assert not np.any(row.delta_in_runs)
        assert not np.any(row.delta_out_runs)

    def test_single_run_quartiles_collapse(self):
        cfg = SyntheticConfig(n=100, seed=56)
        table, _ = run_mc_experiment(cfg, 300, 2000, 1, 0.3)
        row = table.row("conservative")
        agg = row.inlier
        assert agg["q25"] == agg["median"] == agg["q75"] == agg["mean"]

    def test_arithmetic_matches_hand_recomputation(self):
        from robustpred.robust import fit_robust

        cfg = SyntheticConfig(n=100, seed=57)
        table, _ = run_mc_experiment(cfg, 150, 1000, 1, 0.3)
        X, Z, y = generate_linear(SyntheticConfig(n=150, seed=cfg.seed + 1))
        Xt, Zt, yt = generate_linear(SyntheticConfig(n=1000, seed=cfg.seed + 2))
        model = fit_robust(X, Z, y, 0.3)
        out = is_outlier(model.region, Zt)

        def by_hand(w):
            e2 = (yt - ((Xt - model.x_mean) @ w + model.y_mean)) ** 2
            return SimpleNamespace(mse_in=e2[~out].mean(), mse_out=e2[out].mean())

        d_in, d_out = delta_percent(by_hand(model.w_con.weights), by_hand(model.w_opt.weights))
        row = table.row("conservative")
        assert row.delta_in_runs[0] == pytest.approx(d_in)
        assert row.delta_out_runs[0] == pytest.approx(d_out)

    def test_determinism(self):
        cfg = SyntheticConfig(n=100, seed=58)
        t1, _ = run_mc_experiment(cfg, 150, 1000, 4, 0.3)
        t2, _ = run_mc_experiment(cfg, 150, 1000, 4, 0.3)
        for name in ("conservative", "robust"):
            np.testing.assert_array_equal(t1.row(name).delta_out_runs, t2.row(name).delta_out_runs)

    def test_failed_runs_recorded(self):
        # alpha tiny enough that many training draws have no outliers
        cfg = SyntheticConfig(n=100, seed=59)
        table, _ = run_mc_experiment(cfg, 60, 500, 5, 0.001)
        assert len(table.failed_runs) + len(table.row("robust").delta_in_runs) == 5


class TestConditionalMseCurve:
    def test_single_bin_reproduces_overall_mse(self):
        from robustpred.robust import fit_robust, predict_robust

        cfg = SyntheticConfig(n=100, seed=62)
        _, curves = run_mc_experiment(cfg, 300, 2000, 1, 0.2, z_bin_edges=np.array([-1e9, 1e9]))
        X, Z, y = generate_linear(SyntheticConfig(n=300, seed=cfg.seed + 1))
        Xt, _, yt = generate_linear(SyntheticConfig(n=2000, seed=cfg.seed + 2))
        model = fit_robust(X, Z, y, 0.2)
        assert curves.centers.tolist() == [0.0]
        assert curves.counts["robust"].tolist() == [2000]
        assert curves.mse["robust"][0] == pytest.approx(np.mean((yt - predict_robust(model, Xt)) ** 2), rel=1e-12)

    def test_empty_bins(self):
        cfg = SyntheticConfig(n=100, seed=63)
        edges = np.array([-1e9, -1e8, 1e8, 1e9])
        _, curves = run_mc_experiment(cfg, 200, 500, 2, 0.2, z_bin_edges=edges)
        for name in ("optimistic", "conservative", "robust", "oracle"):
            assert curves.counts[name].tolist() == [0, 1000, 0]
            assert np.isnan(curves.mse[name][[0, 2]]).all()
            assert np.isfinite(curves.mse[name][1])

    def test_vector_z_unsupported(self):
        with pytest.raises(ShapeError, match="scalar z"):
            run_mc_experiment(PolyConfig(n=100, seed=64), 200, 500, 1, 0.2, z_bin_edges=np.linspace(-3, 3, 4))

    def test_oracle_curve_lower_bound_in_tails(self):
        cfg = SyntheticConfig(n=100, seed=60)
        edges = np.linspace(-10, 10, 11)
        _, curves = run_mc_experiment(cfg, 1000, 20000, 10, 0.1, z_bin_edges=edges)
        tails = np.abs(curves.centers) >= 5.0
        populated = tails & (curves.counts["oracle"] > 50)
        assert populated.any()
        assert np.all(curves.mse["oracle"][populated] <= curves.mse["optimistic"][populated])
        assert np.all(curves.mse["oracle"][populated] <= curves.mse["conservative"][populated])


@pytest.fixture(scope="module")
def population_moments():
    X, Z, y = generate_linear(SyntheticConfig(rho=0.7, nu_z=3.0, n=10**6, seed=61))
    return accumulate_moments(X - X.mean(0), Z - Z.mean(0), y - y.mean())


class TestExcessMseCheck:
    def test_oracle_x_part_leaves_only_beta_term(self, population_moments):
        m = population_moments
        from robustpred.predictors import fit_oracle

        o = fit_oracle(m)
        check = excess_mse_check(m, o.alpha_w)
        # with w = alpha the residual-feature term vanishes
        assert check.term_residual == pytest.approx(0.0, abs=1e-10)
        expected = o.beta_w @ m.szz @ o.beta_w
        assert check.term_dispersion == pytest.approx(expected, rel=1e-10)

    def test_identity_for_optimistic_weights(self, population_moments):
        m = population_moments
        w = fit_optimistic(m).weights
        check = excess_mse_check(m, w)
        assert check.lhs == pytest.approx(check.rhs, rel=0.01)
        assert check.lhs >= -1e-8

    def test_constraint_kills_dispersion_term(self, population_moments):
        m = population_moments
        w = fit_conservative(m).weights
        check = excess_mse_check(m, w)
        assert check.term_dispersion <= 1e-6 * check.term_residual

    def test_nonnegativity_random_w(self, population_moments):
        rng = np.random.default_rng(62)
        for w in rng.normal(size=(10, 3)):
            check = excess_mse_check(population_moments, w)
            assert check.term_dispersion >= 0.0
            assert check.term_residual >= -1e-12
            assert check.lhs == pytest.approx(check.rhs, rel=0.01)

    def test_singular_szz_rejected(self):
        rng = np.random.default_rng(63)
        X = rng.normal(size=(50, 3))
        Z = np.hstack([X[:, :1], X[:, :1]])  # rank-1 z block
        m = accumulate_moments(X, Z, rng.normal(size=50))
        with pytest.raises(np.linalg.LinAlgError):
            excess_mse_check(m, np.zeros(3))
