import tracemalloc

import numpy as np
import pytest

from robustpred.datagen import SyntheticConfig, generate_linear
from robustpred.gate import SingleClassError, delta_stat, is_outlier, mahalanobis_stat, prob_outlier
from robustpred.linalg import ShapeError, ValidationError
from robustpred.robust import adaptive_weights, fit_robust, outlier_probability, predict_parts, predict_robust


@pytest.fixture(scope="module")
def model_and_data():
    cfg = SyntheticConfig(rho=0.7, nu_z=3.0, n=1000, seed=42)
    X, Z, y = generate_linear(cfg)
    return fit_robust(X, Z, y, 0.1), X, Z, y


class TestFitRobust:
    def test_alpha_one_smallest_threshold(self):
        cfg = SyntheticConfig(rho=0.7, nu_z=3.0, n=500, seed=7)
        X, Z, y = generate_linear(cfg)
        model = fit_robust(X, Z, y, 1.0)
        assert model.region.threshold == pytest.approx(1.0)
        assert model.gate is not None

    def test_degenerate_z_single_class(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(100, 3))
        y = rng.normal(size=100)
        with pytest.raises(SingleClassError):
            fit_robust(X, np.zeros((100, 1)), y, 0.1)

    def test_gate_sign_pattern_on_synthetic_process(self, model_and_data):
        # probability of an outlier increases in delta: kappa < 0 in the
        # (kappa, delta0) parameterization, i.e. b1 > 0
        model, *_ = model_and_data
        assert model.gate.b1 > 0
        assert model.gate.kappa < 0

    def test_components_share_centering(self, model_and_data):
        model, X, Z, y = model_and_data
        np.testing.assert_allclose(model.x_mean, X.mean(0))
        np.testing.assert_allclose(model.region.center, Z.mean(0))
        assert model.y_mean == pytest.approx(y.mean())
        assert model.region.alpha == 0.1

    def test_gate_counts_training_outliers(self, model_and_data):
        model, X, Z, y = model_and_data
        assert model.gate.n_outliers == int(np.sum(is_outlier(model.region, Z)))

    def test_warns_on_tiny_sample(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(3, 3))
        Z = rng.normal(size=(3, 1)) * 10
        y = rng.normal(size=3)
        with pytest.warns(UserWarning, match="samples"):
            try:
                fit_robust(X, Z, y, 1.0)
            except SingleClassError:
                pass

    def test_peak_memory_bounded_by_input(self):
        # the centered copies of X, Z and y are gone before the gate is fit,
        # and the gate works on a few vectors of delta's length
        X, Z, y = generate_linear(SyntheticConfig(rho=0.7, nu_z=3.0, n=200_000, seed=14))
        input_bytes = X.nbytes + Z.nbytes + y.nbytes
        tracemalloc.start()
        try:
            fit_robust(X, Z, y, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * input_bytes

    def test_invalid_alpha(self):
        # the tail region states alpha's range, once
        rng = np.random.default_rng(10)
        with pytest.raises(ValidationError, match=r"^alpha must be in \(0, 1\]$"):
            fit_robust(rng.normal(size=(50, 3)), rng.normal(size=(50, 1)), rng.normal(size=50), 0.0)


class TestAdaptiveWeights:
    def test_midpoint_at_delta0(self, model_and_data):
        model, *_ = model_and_data
        # construct an x whose delta equals delta0 by scaling along a direction
        direction = np.ones(3)
        base = outlier_probability(model, model.x_mean + direction)
        assert 0.0 < base < 1.0
        d1 = delta_stat(model.region, model.imputer, direction)
        scale = model.gate.delta0 / d1
        x = model.x_mean + scale * direction
        w = adaptive_weights(model, x)
        np.testing.assert_allclose(
            w, 0.5 * (model.w_opt.weights + model.w_con.weights), atol=1e-10
        )

    def test_degenerate_interpolation(self, model_and_data):
        model, X, *_ = model_and_data
        import dataclasses

        same = dataclasses.replace(model, w_con=model.w_opt)
        for x in X[:10]:
            np.testing.assert_allclose(adaptive_weights(same, x), model.w_opt.weights)

    def test_segment_membership(self, model_and_data):
        model, *_ = model_and_data
        rng = np.random.default_rng(11)
        span = model.w_con.weights - model.w_opt.weights
        span_norm2 = span @ span
        for x in rng.normal(size=(100, 3)) * 3.0:
            w = adaptive_weights(model, x)
            coef = (w - model.w_opt.weights) @ span / span_norm2
            assert 0.0 < coef < 1.0
            np.testing.assert_allclose(
                w, model.w_opt.weights + coef * span, atol=1e-12
            )

    def test_dimension_mismatch(self, model_and_data):
        model, *_ = model_and_data
        with pytest.raises(ShapeError):
            adaptive_weights(model, np.zeros(5))


class TestPredictRobust:
    def test_at_training_mean(self, model_and_data):
        model, *_ = model_and_data
        assert predict_robust(model, model.x_mean) == pytest.approx(model.y_mean)

    def test_convex_mix_of_component_predictions(self, model_and_data):
        model, *_ = model_and_data
        rng = np.random.default_rng(12)
        X = rng.normal(size=(20, 3)) * 2.0
        yhat, p, _, opt, con = predict_parts(model, X)
        Xc = X - model.x_mean
        # each base prediction is its own centered product plus the mean, bit for bit
        np.testing.assert_array_equal(opt, Xc @ model.w_opt.weights + model.y_mean)
        np.testing.assert_array_equal(con, Xc @ model.w_con.weights + model.y_mean)
        np.testing.assert_allclose(yhat, (1 - p) * opt + p * con, rtol=0.0, atol=1e-12)
        for i, x in enumerate(X):
            assert predict_robust(model, x) == pytest.approx(yhat[i], abs=1e-12)

    def test_algebraic_identity_with_adaptive_weights(self, model_and_data):
        model, *_ = model_and_data
        rng = np.random.default_rng(13)
        for x in rng.normal(size=(20, 3)):
            w = adaptive_weights(model, x)
            expected = w @ (x - model.x_mean) + model.y_mean
            assert predict_robust(model, x) == pytest.approx(expected, abs=1e-12)

    def test_batch_matches_scalar(self, model_and_data):
        model, X, *_ = model_and_data
        batch = predict_robust(model, X[:7])
        for i in range(7):
            assert batch[i] == pytest.approx(predict_robust(model, X[i]))


def test_conditional_interpolation_qualitative():
    """MC mean over 50 runs: the robust curve sits below the optimistic one in
    the tail region and below the conservative one near z = 0."""
    n_runs, n_test = 50, 20000
    sums = {k: np.zeros(2) for k in ("opt", "con", "rob")}  # [near-zero, tail]
    counts = np.zeros(2)
    for i in range(n_runs):
        tr = SyntheticConfig(rho=0.7, nu_z=3.0, n=1000, seed=1000 + 2 * i)
        te = SyntheticConfig(rho=0.7, nu_z=3.0, n=n_test, seed=1001 + 2 * i)
        X, Z, y = generate_linear(tr)
        model = fit_robust(X, Z, y, 0.1)
        Xt, Zt, yt = generate_linear(te)
        tail = is_outlier(model.region, Zt)
        near = np.abs(Zt[:, 0] - model.region.center[0]) < 0.5
        masks = np.stack([near, tail])
        rob, _, _, opt, con = predict_parts(model, Xt)
        errs = {"opt": (yt - opt) ** 2, "con": (yt - con) ** 2, "rob": (yt - rob) ** 2}
        for j in range(2):
            if masks[j].any():
                counts[j] += 1
                for k in errs:
                    sums[k][j] += errs[k][masks[j]].mean()
    mean = {k: sums[k] / counts for k in sums}
    assert mean["rob"][1] < mean["opt"][1]  # tail: robust beats optimistic
    assert mean["rob"][0] < mean["con"][0]  # near zero: robust beats conservative


D, Q = 3, 1  # dimensions of the model_and_data fixture
# entry point -> (call on the model, shape of one input, shape of its output)
SHAPE_CONTRACT = {
    "Imputer.impute": (lambda m, x: m.imputer.impute(x), (D,), (Q,)),
    "mahalanobis_stat": (lambda m, z: mahalanobis_stat(m.region, z), (Q,), ()),
    "is_outlier": (lambda m, z: is_outlier(m.region, z), (Q,), ()),
    "delta_stat": (lambda m, x: delta_stat(m.region, m.imputer, x), (D,), ()),
    "prob_outlier": (lambda m, delta: prob_outlier(m.gate, delta), (), ()),
    "predict_parts": (predict_parts, (D,), ()),
    "predict_robust": (predict_robust, (D,), ()),
    "outlier_probability": (outlier_probability, (D,), ()),
    "adaptive_weights": (adaptive_weights, (D,), (D,)),
}


class TestShapeContract:
    """One row gives a numpy scalar (a vector where one row's output is a
    vector) and an n-row batch an array, from the same numpy code."""

    @pytest.mark.parametrize("name", SHAPE_CONTRACT)
    def test_one_row_or_a_batch(self, model_and_data, name):
        model, *_ = model_and_data
        call, in_shape, out_shape = SHAPE_CONTRACT[name]
        rows = np.abs(np.random.default_rng(5).normal(size=(4,) + in_shape)) * 3.0
        batch = call(model, rows)
        batch = batch if isinstance(batch, tuple) else (batch,)
        for i, row in enumerate(rows):
            single = call(model, row)
            single = single if isinstance(single, tuple) else (single,)
            for one, many in zip(single, batch, strict=True):
                assert isinstance(one, np.ndarray if out_shape else np.generic)
                assert np.shape(one) == out_shape
                assert isinstance(many, np.ndarray) and many.shape == (4,) + out_shape
                np.testing.assert_allclose(one, many[i], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("name", [n for n, (_, in_shape, _) in SHAPE_CONTRACT.items() if in_shape])
    @pytest.mark.parametrize("bad", ["0-d", "3-D", "wrong row length", "wrong batch width"])
    def test_other_shapes_rejected(self, model_and_data, name, bad):
        model, *_ = model_and_data
        call, (width,), _ = SHAPE_CONTRACT[name]
        shape = {"0-d": (), "3-D": (2, 4, width), "wrong row length": (width + 1,), "wrong batch width": (4, width + 1)}[bad]
        with pytest.raises(ShapeError):
            call(model, np.ones(shape))
