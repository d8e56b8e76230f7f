"""Property tests over random fitted models and rows: the single-row entry
points agree with their batch rows, adaptive weights stay on the
optimistic-conservative segment, and the gate fit rejects bad arrays."""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from robustpred.gate import SingleClassError, fit_gate
from robustpred.linalg import ShapeError, ValidationError
from robustpred.predictors import predict
from robustpred.robust import adaptive_weights, fit_robust, outlier_probability, predict_robust

PROPERTY_SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
RTOL = 1e-12


@st.composite
def models_and_rows(draw):
    """A model fitted on a random heavy-tailed sample, plus raw query rows."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(40, 300))
    d = draw(st.integers(1, 4))
    q = draw(st.integers(1, 2))
    alpha = draw(st.sampled_from([0.1, 0.2, 0.5]))
    rng = np.random.default_rng(seed)
    Z = rng.standard_t(3.0, size=(n, q))
    X = Z @ rng.normal(size=(q, d)) + rng.normal(size=(n, d)) + 3.0 * rng.normal(size=d)
    y = X @ rng.normal(size=d) + Z @ rng.normal(size=q) + 0.1 * rng.normal(size=n)
    try:
        model = fit_robust(X, Z, y, alpha)
    except SingleClassError:
        assume(False)
    k = draw(st.integers(1, 6))
    rows = draw(arrays(np.float64, (k, d), elements=st.floats(-30.0, 30.0)))
    return model, rows


def assert_rel_close(single, batch_row):
    np.testing.assert_allclose(single, batch_row, rtol=RTOL, atol=0.0)


@PROPERTY_SETTINGS
@given(models_and_rows())
def test_single_row_equals_batch_row(case):
    model, rows = case
    batch = {
        "predict_robust": predict_robust(model, rows),
        "outlier_probability": outlier_probability(model, rows),
        "adaptive_weights": adaptive_weights(model, rows),
        "predict_opt": predict(model.w_opt, rows),
        "predict_con": predict(model.w_con, rows),
    }
    for i, row in enumerate(rows):
        single = {
            "predict_robust": predict_robust(model, row),
            "outlier_probability": outlier_probability(model, row),
            "adaptive_weights": adaptive_weights(model, row),
            "predict_opt": predict(model.w_opt, row),
            "predict_con": predict(model.w_con, row),
        }
        for name, value in single.items():
            assert isinstance(value, float) or name == "adaptive_weights", name
            assert_rel_close(value, batch[name][i])


@PROPERTY_SETTINGS
@given(models_and_rows())
def test_adaptive_weights_on_segment(case):
    model, rows = case
    wo, wc = model.w_opt.weights, model.w_con.weights
    span = wc - wo
    span_norm2 = float(span @ span)
    assume(span_norm2 > 1e-12 * max(1.0, float(wo @ wo)))
    scale = np.abs(wo).max() + np.abs(wc).max()
    for w, p in zip(adaptive_weights(model, rows), outlier_probability(model, rows)):
        assert 0.0 < p < 1.0
        np.testing.assert_allclose(w, wo + p * span, rtol=0.0, atol=1e-12 * scale)
        coef = (w - wo) @ span / span_norm2
        assert -1e-9 <= coef <= 1.0 + 1e-9
        np.testing.assert_allclose(w, wo + coef * span, rtol=0.0, atol=1e-9 * scale)


@st.composite
def gate_samples(draw):
    """Finite nonnegative deltas with labels of both classes."""
    n = draw(st.integers(2, 50))
    deltas = draw(arrays(np.float64, n, elements=st.floats(0.0, 100.0)))
    labels = draw(arrays(np.bool_, n))
    labels[0], labels[1] = True, False
    return deltas, labels


@PROPERTY_SETTINGS
@given(gate_samples(), st.integers(0, 49), st.sampled_from([-1e-9, -1.0, np.nan, np.inf, -np.inf]))
def test_fit_gate_rejects_bad_deltas(sample, where, bad):
    deltas, labels = sample
    deltas = deltas.copy()
    deltas[where % len(deltas)] = bad
    with pytest.raises(ValidationError):
        fit_gate(deltas, labels)


@PROPERTY_SETTINGS
@given(gate_samples(), st.booleans())
def test_fit_gate_rejects_single_class(sample, value):
    deltas, labels = sample
    with pytest.raises(SingleClassError, match="alpha"):
        fit_gate(deltas, np.full(labels.shape, value))


def test_fit_gate_rejects_misaligned_arrays():
    with pytest.raises(ShapeError):
        fit_gate(np.array([1.0, 2.0, 3.0]), np.array([True, False]))
    with pytest.raises(ShapeError):
        fit_gate(np.ones((2, 2)), np.array([[True, False], [False, True]]))
