import dataclasses

import numpy as np
import pytest

from robustpred.datagen import SyntheticConfig, generate_linear
from robustpred.linalg import SecondMoments, ShapeError, accumulate_moments, empirical_mse, null_space_projector, pseudoinverse
from robustpred.predictors import (
    CONSTRAINT_RTOL,
    LinearPredictor,
    fit_conservative,
    fit_imputer,
    fit_optimistic,
    fit_oracle,
)
from robustpred.robust import fit_robust, predict_parts


def centered_sample(seed, n=200, d=3, q=1, weights=None, noise=0.1):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    Z = X[:, :q] * 0.5 + rng.normal(size=(n, q)) * 0.5
    w = weights if weights is not None else rng.normal(size=d)
    y = X @ w + noise * rng.normal(size=n)
    X -= X.mean(0)
    Z -= Z.mean(0)
    y -= y.mean()
    return X, Z, y


class TestFitOptimistic:
    def test_identity_gram(self):
        m = SecondMoments(
            sxx=np.eye(2), szx=np.zeros((1, 2)), szz=np.eye(1),
            sxy=np.array([3.0, -1.0]), szy=np.zeros(1), syy=10.0,
        )
        np.testing.assert_allclose(fit_optimistic(m).weights, [3.0, -1.0])

    def test_zero_outcome(self):
        X, Z, _ = centered_sample(0)
        m = accumulate_moments(X, Z, np.zeros(len(X)))
        assert np.allclose(fit_optimistic(m).weights, 0.0)

    def test_exact_recovery_noiseless(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(10, 2))
        y = 2.0 * X[:, 0] - X[:, 1]
        m = accumulate_moments(X, np.zeros((10, 1)), y)
        np.testing.assert_allclose(fit_optimistic(m).weights, [2.0, -1.0], atol=1e-9)

    def test_perturbation_optimality(self):
        X, Z, y = centered_sample(2)
        m = accumulate_moments(X, Z, y)
        w = fit_optimistic(m).weights
        base = empirical_mse(m, w)
        rng = np.random.default_rng(20)
        for v in rng.normal(size=(50, 3)):
            assert base <= empirical_mse(m, w + 1e-3 * v) + 1e-12


class TestFitConservative:
    def test_constraint_structure_by_hand(self):
        # z correlates only with x1 and szy = 0: the constraint is w1 = 0
        m = SecondMoments(
            sxx=np.eye(2), szx=np.array([[1.0, 0.0]]), szz=np.eye(1),
            sxy=np.array([2.0, 3.0]), szy=np.array([0.0]), syy=20.0,
        )
        p = fit_conservative(m)
        assert abs(p.weights[0]) <= 1e-10
        # remaining coordinate free to minimize: w2 = sxy[1]
        assert p.weights[1] == pytest.approx(3.0)
        assert p.constraint_residual <= 1e-10

    def test_empty_z_block_equals_optimistic(self):
        X, _, y = centered_sample(3)
        m = accumulate_moments(X, np.empty((len(X), 0)), y)
        con = fit_conservative(m)
        opt = fit_optimistic(m)
        np.testing.assert_allclose(con.weights, opt.weights)

    def test_constrained_random_probe_optimality(self):
        X, Z, y = centered_sample(4, n=200, d=3, q=1)
        m = accumulate_moments(X, Z, y)
        p = fit_conservative(m)
        assert p.constraint_residual <= 1e-8 * (1.0 + np.max(np.abs(m.szy)))
        base = empirical_mse(m, p.weights)
        anchor = pseudoinverse(m.szx) @ m.szy
        pi = null_space_projector(m.szx)
        rng = np.random.default_rng(40)
        for theta in rng.normal(size=(1000, 3)):
            w = anchor + pi @ theta
            assert np.max(np.abs(m.szx @ w - m.szy)) <= 1e-10 * (1 + np.abs(m.szy).max())
            assert base <= empirical_mse(m, w) + 1e-10

    def test_square_constraint_solved_exactly(self):
        # d = q with szx invertible: the constraint alone fixes w
        X, Z, y = centered_sample(15, q=2, d=2)
        m = accumulate_moments(X, Z, y)
        p = fit_conservative(m)
        np.testing.assert_allclose(p.weights, np.linalg.solve(m.szx, m.szy), rtol=1e-10)
        assert p.constraint_residual <= 1e-8 * (1.0 + np.max(np.abs(m.szy)))

    def test_feasibility_recorded(self):
        X, Z, y = centered_sample(5, q=2, d=4)
        m = accumulate_moments(X, Z, y)
        p = fit_conservative(m)
        assert not p.constraint_infeasible
        assert p.constraint_residual <= 1e-8 * (1.0 + np.max(np.abs(m.szy)))

    def test_duplicated_column_meets_the_constraint(self):
        # the null spaces of sxx and szx meet along x1 - x1copy: the two
        # copies share the single-column weight, and the constraint holds
        X, Z, y = generate_linear(SyntheticConfig(n=300, seed=1))
        X, Z, y = X - X.mean(0), Z - Z.mean(0), y - y.mean()
        single = fit_conservative(accumulate_moments(X[:, :1], Z, y))
        p = fit_conservative(accumulate_moments(X[:, [0, 0]], Z, y))
        assert p.weights.sum() == pytest.approx(single.weights[0], rel=1e-10)
        assert p.constraint_residual <= 1e-8 and not p.constraint_infeasible

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("eps", [1e-5, 1e-6, 1e-7])
    def test_near_collinear_z_keeps_both_constraints(self, eps, seed):
        # z2 = z1 + eps * noise: szx is nearly rank one, but both of its rows
        # still bind; pseudo-inverting szx G' (szx's conditioning squared)
        # would drop the second row's direction
        X, Z, y = generate_linear(SyntheticConfig(n=2000, seed=seed))
        noise = np.random.default_rng(seed).normal(size=len(Z))
        Z = np.column_stack([Z[:, 0], Z[:, 0] + eps * noise])
        m = accumulate_moments(X - X.mean(0), Z - Z.mean(0), y - y.mean())
        p = fit_conservative(m)
        assert not p.constraint_infeasible
        assert p.constraint_residual <= CONSTRAINT_RTOL * (1.0 + np.max(np.abs(m.szy)))


class TestSharedFactorisation:
    def test_fit_robust_factorises_three_matrices(self, monkeypatch):
        # one SVD each of sxx (d x d), of the whitened q x r cross moment
        # and of szz (q x q): never szx itself or a d x d curvature
        factorised = []
        svd = np.linalg.svd

        def recording_svd(a, *args, **kwargs):
            factorised.append(np.array(a))
            return svd(a, *args, **kwargs)

        # np.linalg.pinv calls the svd of its own module's namespace
        monkeypatch.setitem(np.linalg.pinv.__wrapped__.__globals__, "svd", recording_svd)
        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        X, Z, y = generate_linear(SyntheticConfig(n=400, seed=3))
        X = np.column_stack([X, X[:, 0]])  # d = 4, rank 3
        Z = np.column_stack([Z, Z[:, 0] ** 2])  # q = 2
        fit_robust(X, Z, y, 0.2)
        assert [a.shape for a in factorised] == [(4, 4), (2, 3), (2, 2)]
        szx = (Z - Z.mean(0)).T @ (X - X.mean(0)) / len(y)
        assert not any(a.shape == szx.shape for a in factorised)


class TestFitOracle:
    def test_block_diagonal_system(self):
        # z independent of x in sample and szy = 0 -> beta = 0, alpha = optimistic
        m = SecondMoments(
            sxx=np.diag([1.0, 2.0]), szx=np.zeros((1, 2)), szz=np.eye(1),
            sxy=np.array([1.0, 4.0]), szy=np.zeros(1), syy=30.0,
        )
        o = fit_oracle(m)
        np.testing.assert_allclose(o.beta_w, 0.0, atol=1e-12)
        np.testing.assert_allclose(o.alpha_w, fit_optimistic(m).weights, atol=1e-12)

    def test_exact_recovery(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(20, 3))
        Z = rng.normal(size=(20, 1))
        y = Z[:, 0] + X[:, 0]
        m = accumulate_moments(X, Z, y)
        o = fit_oracle(m)
        np.testing.assert_allclose(o.alpha_w, [1.0, 0.0, 0.0], atol=1e-9)
        np.testing.assert_allclose(o.beta_w, [1.0], atol=1e-9)

    def test_orthogonality_residuals(self):
        X, Z, y = centered_sample(7)
        m = accumulate_moments(X, Z, y)
        o = fit_oracle(m)
        resid = y - X @ o.alpha_w - Z @ o.beta_w
        assert np.max(np.abs(X.T @ resid / len(y))) <= 1e-8
        assert np.max(np.abs(Z.T @ resid / len(y))) <= 1e-8


class TestFitImputer:
    def test_zero_cross_moment(self):
        m = SecondMoments(
            sxx=np.eye(2), szx=np.zeros((1, 2)), szz=np.eye(1),
            sxy=np.zeros(2), szy=np.zeros(1), syy=0.0,
        )
        imp = fit_imputer(m)
        assert not np.any(imp.gmat)
        assert imp.impute(np.array([5.0, -3.0])) == pytest.approx([0.0])

    def test_copy_feature(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(50, 3))
        X -= X.mean(0)
        Z = X[:, :1].copy()
        m = accumulate_moments(X, Z, np.zeros(50))
        imp = fit_imputer(m)
        np.testing.assert_allclose(imp.gmat, [[1.0, 0.0, 0.0]], atol=1e-9)
        x = rng.normal(size=3)
        assert imp.impute(x)[0] == pytest.approx(x[0], abs=1e-9)

    def test_imputation_equivalence_with_oracle(self):
        X, Z, y = centered_sample(9)
        m = accumulate_moments(X, Z, y)
        o = fit_oracle(m)
        imp = fit_imputer(m)
        w_opt = fit_optimistic(m).weights
        rng = np.random.default_rng(90)
        for x in rng.normal(size=(100, 3)):
            indirect = o.alpha_w @ x + o.beta_w @ imp.impute(x)
            assert abs(indirect - w_opt @ x) <= 1e-8


@pytest.fixture(scope="module")
def model():
    X, Z, y = generate_linear(SyntheticConfig(n=500, seed=14))
    return fit_robust(X, Z, y, 0.1)


class TestPredict:
    """The base predictors are bare weights on centered x; their predictions
    on raw x are the last two outputs of ``robust.predict_parts``."""

    def test_at_training_mean(self, model):
        parts = predict_parts(model, model.x_mean[None])
        for k in (0, 3, 4):
            assert parts[k][0] == model.y_mean

    def test_zero_weights(self, model):
        zero = dataclasses.replace(model, w_opt=LinearPredictor(weights=np.zeros(3)))
        assert predict_parts(zero, np.array([[100.0, -5.0, 2.0]]))[3][0] == pytest.approx(model.y_mean)

    def test_hand_arithmetic(self, model):
        hand = dataclasses.replace(
            model,
            w_opt=LinearPredictor(weights=np.array([2.0, -1.0, 0.5])),
            x_mean=np.zeros(3),
            y_mean=1.0,
        )
        assert predict_parts(hand, np.array([[1.0, 1.0, 2.0]]))[3][0] == pytest.approx(3.0)

    def test_batch_matches_scalar(self, model):
        X = np.random.default_rng(11).normal(size=(5, 3)) * 3.0
        _, _, _, opt, con = predict_parts(model, X)
        for i in range(5):
            one = predict_parts(model, X[i : i + 1])
            assert opt[i] == pytest.approx(one[3][0])
            assert con[i] == pytest.approx(one[4][0])

    def test_dimension_mismatch(self, model):
        with pytest.raises(ShapeError):
            predict_parts(model, np.zeros((1, 5)))
        with pytest.raises(ShapeError):
            predict_parts(model, np.zeros(4))
