import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from robustpred.datagen import sample_t
from robustpred.gate import (
    GATE_GRAD_TOL,
    GATE_MAX_ITER,
    MAX_GATE_PARAM,
    LogisticGate,
    _sigmoid,
    OutlierRegion,
    SingleClassError,
    delta_stat,
    fit_gate,
    gate_cross_entropy,
    is_outlier,
    mahalanobis_stat,
    prob_outlier,
)
from robustpred.linalg import ShapeError
from robustpred.predictors import Imputer


def unit_region(q=1, alpha=0.1):
    return OutlierRegion(minv=np.eye(q), alpha=alpha)


class TestMahalanobisStat:
    def test_zero_vector(self):
        assert mahalanobis_stat(unit_region(), np.zeros(1)) == 0.0

    def test_unit_metric(self):
        assert mahalanobis_stat(unit_region(), np.array([3.0])) == pytest.approx(9.0)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(2, 2))
        minv = a @ a.T
        region = OutlierRegion(minv=minv, alpha=0.2)
        z = rng.normal(size=2)
        expected = sum(z[i] * minv[i, j] * z[j] for i in range(2) for j in range(2))
        assert mahalanobis_stat(region, z) == pytest.approx(expected, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            mahalanobis_stat(unit_region(), np.zeros(2))


class TestIsOutlier:
    def test_below_threshold(self):
        assert not is_outlier(unit_region(alpha=0.1), np.array([3.0]))  # 9 < 10

    def test_boundary_tie_is_outlier(self):
        assert is_outlier(unit_region(alpha=0.1), np.array([np.sqrt(10.0)]))

    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.3])
    def test_chebyshev_bound_t3(self, alpha):
        n = 10**6
        z = sample_t(3.0, np.eye(1), n, seed=123)
        minv = np.linalg.inv(z.T @ z / n)
        region = OutlierRegion(minv=minv, alpha=alpha)
        frac = np.mean(is_outlier(region, z))
        assert frac <= alpha + 3.0 * np.sqrt(alpha * (1 - alpha) / n)


class TestDeltaStat:
    def test_zero_imputer(self):
        imp = Imputer(gmat=np.zeros((1, 3)))
        assert delta_stat(unit_region(), imp, np.array([1.0, 2.0, 3.0])) == 0.0

    def test_copy_first_coordinate(self):
        imp = Imputer(gmat=np.array([[1.0, 0.0, 0.0]]))
        assert delta_stat(unit_region(), imp, np.array([4.0, 9.0, -1.0])) == pytest.approx(4.0)

    def test_composition_identity(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(2, 2))
        region = OutlierRegion(minv=a @ a.T, alpha=0.2)
        imp = Imputer(gmat=rng.normal(size=(2, 5)))
        for x in rng.normal(size=(20, 5)):
            d = delta_stat(region, imp, x)
            assert d * d == pytest.approx(mahalanobis_stat(region, imp.impute(x)), abs=1e-10)


class TestFitGate:
    def test_separable_with_noise_recovers_threshold(self):
        rng = np.random.default_rng(2)
        deltas = rng.uniform(0.0, 10.0, size=20000)
        # labels decided by delta > 5 with symmetric noisy margins
        logits = 3.0 * (deltas - 5.0)
        labels = rng.uniform(size=deltas.size) < 1.0 / (1.0 + np.exp(-logits))
        gate = fit_gate(deltas, labels)
        assert gate.converged
        assert gate.delta0 == pytest.approx(5.0, abs=0.1)
        assert gate.kappa < 0  # probability increasing in delta

    def test_uninformative_deltas(self):
        rng = np.random.default_rng(3)
        deltas = rng.uniform(0.0, 10.0, size=5000)
        labels = rng.uniform(size=5000) < 0.3
        gate = fit_gate(deltas, labels)
        assert abs(gate.b1) < 0.1
        p_mid = prob_outlier(gate, 5.0)
        assert p_mid == pytest.approx(np.mean(labels), abs=0.05)
        marginal = np.mean(labels)
        entropy = -(marginal * np.log(marginal) + (1 - marginal) * np.log(1 - marginal))
        assert gate.cross_entropy == pytest.approx(entropy, abs=0.01)

    def test_beats_constant_half_model(self):
        rng = np.random.default_rng(4)
        deltas = rng.uniform(0.0, 8.0, size=500)
        labels = deltas + rng.normal(size=500) > 4.0
        gate = fit_gate(deltas, labels)
        assert gate.cross_entropy <= gate_cross_entropy(0.0, 0.0, deltas, labels)

    def test_single_class_raises_with_advice(self):
        with pytest.raises(SingleClassError, match="alpha"):
            fit_gate([1.0, 2.0], [False, False])
        with pytest.raises(SingleClassError):
            fit_gate([1.0, 2.0], [True, True])

    def test_perfect_separation_capped(self):
        deltas = np.concatenate([np.linspace(0, 4, 50), np.linspace(6, 10, 50)])
        labels = deltas > 5.0
        gate = fit_gate(deltas, labels)
        assert abs(gate.b0) <= 1e3 + 1e-9
        assert abs(gate.b1) <= 1e3 + 1e-9
        # the capped gate still acts as a sharp threshold around the gap
        assert prob_outlier(gate, 0.0) < 0.01
        assert prob_outlier(gate, 10.0) > 0.99

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            fit_gate([-1.0, 2.0], [True, False])

    def test_convexity_probe(self):
        rng = np.random.default_rng(5)
        deltas = rng.uniform(0.0, 10.0, size=2000)
        labels = rng.uniform(size=2000) < 1.0 / (1.0 + np.exp(-(deltas - 5.0)))
        gate = fit_gate(deltas, labels)
        for b0, b1 in rng.uniform(-10.0, 10.0, size=(100, 2)):
            assert gate.cross_entropy <= gate_cross_entropy(b0, b1, deltas, labels) + 1e-9


def reference_fit_gate(deltas, labels) -> LogisticGate:
    """The Newton loop written with a 2-column design matrix, ``np.linalg.solve``
    (``lstsq`` when it raises) and ``np.logaddexp``: the reference that the
    closed-form fit must follow step for step."""
    deltas = np.asarray(deltas, dtype=float)
    labels = np.asarray(labels, dtype=bool).astype(float)

    def cross_entropy(b):
        t = b[0] + b[1] * deltas
        return float(np.mean(np.logaddexp(0.0, t) - labels * t))

    design = np.column_stack([np.ones_like(deltas), deltas])
    b = np.zeros(2)
    ce = cross_entropy(b)
    converged = False
    it = 0
    for it in range(1, GATE_MAX_ITER + 1):
        p = _sigmoid(design @ b)
        grad = design.T @ (p - labels) / len(labels)
        if np.linalg.norm(grad) <= GATE_GRAD_TOL:
            converged = True
            break
        w = np.clip(p * (1.0 - p), 1e-12, None)
        hess = design.T @ (design * w[:, None]) / len(labels)
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hess, grad, rcond=None)[0]
        scale = 1.0
        for _ in range(50):
            cand = b - scale * step
            ce_cand = cross_entropy(cand)
            if ce_cand <= ce:
                b, ce = cand, ce_cand
                break
            scale *= 0.5
        else:
            converged = np.linalg.norm(grad) <= 1e-6
            break
        if np.max(np.abs(b)) > MAX_GATE_PARAM:
            b = np.clip(b, -MAX_GATE_PARAM, MAX_GATE_PARAM)
            ce = cross_entropy(b)
            converged = False
            break
    return LogisticGate(b0=b[0], b1=b[1], cross_entropy=ce, iterations=it, converged=converged)


@st.composite
def gate_samples(draw, heavy=False):
    """delta on the scale the gate sees (a Mahalanobis norm of a few units:
    uniform on [0, s], or |t(3)| times s when ``heavy``) and labels with both
    classes: a constant rate, a logistic trend, a threshold with a few flipped
    labels, or a clean threshold (separable)."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(2, 2000))
    scale = draw(st.sampled_from([0.3, 1.0, 3.0]))
    pattern = draw(st.sampled_from(["rate", "logistic", "near_separable", "separable"]))
    rng = np.random.default_rng(seed)
    deltas = scale * (np.abs(rng.standard_t(3.0, size=n)) if heavy else rng.uniform(size=n))
    if pattern == "rate":
        labels = rng.uniform(size=n) < rng.uniform(0.01, 0.99)
    elif pattern == "logistic":
        slope = rng.normal(scale=3.0 / scale)
        labels = rng.uniform(size=n) < _sigmoid(slope * (deltas - np.median(deltas)))
    else:
        labels = deltas > np.quantile(deltas, rng.uniform(0.1, 0.9))
        if pattern == "near_separable":
            labels ^= rng.uniform(size=n) < 0.02
    assume(0 < labels.sum() < n)
    return deltas, labels


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(gate_samples())
def test_fit_gate_follows_reference_newton(sample):
    # step for step on delta <= 3; see the heavy-tailed property for beyond
    deltas, labels = sample
    want = reference_fit_gate(deltas, labels)
    got = fit_gate(deltas, labels)
    assert (got.iterations, got.converged) == (want.iterations, want.converged)
    if max(abs(want.b0), abs(want.b1)) == MAX_GATE_PARAM:
        # a separated sample ends at the cap; the loss there has a slope of
        # order |delta| in the free parameter, so only the stop is compared
        assert max(abs(got.b0), abs(got.b1)) == MAX_GATE_PARAM
        return
    assert abs(got.cross_entropy - want.cross_entropy) <= 1e-12
    np.testing.assert_allclose([got.b0, got.b1], [want.b0, want.b1], rtol=1e-8, atol=0.0)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(gate_samples(heavy=True))
def test_fit_gate_matches_reference_loss_on_heavy_tails(sample):
    # far out in the tail the last steps can fall where the loss cannot
    # resolve the decrease, so a one-ulp difference may flip one accept/reject
    # of the line search; the fit must still converge whenever the reference
    # does, at no worse a loss
    deltas, labels = sample
    want = reference_fit_gate(deltas, labels)
    got = fit_gate(deltas, labels)
    if max(abs(want.b0), abs(want.b1)) == MAX_GATE_PARAM:
        assert max(abs(got.b0), abs(got.b1)) == MAX_GATE_PARAM
        assert not got.converged
        return
    assert got.converged or not want.converged
    assert got.cross_entropy <= want.cross_entropy + 1e-12


def test_flat_optimum_on_heavy_tails_converges():
    # a weak trend on |t(3)| deltas: the reference line search accepts only
    # tiny steps once the loss stops resolving the decrease, and runs to
    # GATE_MAX_ITER; the fit stops in 4 steps at the same loss
    rng = np.random.default_rng(110)
    deltas = 3.0 * np.abs(rng.standard_t(3.0, size=110))
    slope = rng.normal(scale=1.0)
    labels = rng.uniform(size=110) < _sigmoid(slope * (deltas - np.median(deltas)))
    want = reference_fit_gate(deltas, labels)
    got = fit_gate(deltas, labels)
    assert (want.iterations, want.converged) == (GATE_MAX_ITER, False)
    assert (got.iterations, got.converged) == (4, True)
    assert abs(got.cross_entropy - want.cross_entropy) <= 1e-12


@pytest.mark.parametrize(
    "value, n, n_pos, b0, b1",
    [
        (0.0, 5, 1, -1.3862943609145955, 0.0),
        (0.0, 1000, 137, -1.8404337652552778, 0.0),
        (1.0, 10, 3, -0.4236489301936017, -0.42364893019360167),
        (1.0, 1000, 137, -0.9202168826276387, -0.9202168826276388),
        (7.123456789, 5, 1, -0.026791591224407642, -0.19084874239561953),
        (100.0, 5, 1, -0.00013861557453400606, -0.013861557453400614),
    ],
)
def test_constant_delta_takes_minimum_norm_steps(value, n, n_pos, b0, b1):
    # the Hessian is singular at every step; (b0, b1) are those of the
    # reference loop, whose solve raised at every step on these samples
    labels = np.arange(n) < n_pos
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gate = fit_gate(np.full(n, value), labels)
    assert gate.converged
    np.testing.assert_allclose([gate.b0, gate.b1], [b0, b1], rtol=1e-8, atol=0.0)


@pytest.mark.parametrize("value", [0.001, 0.3, 2.5])
def test_constant_delta_converges_to_minimum_norm_optimum(value):
    # only b0 + b1 * value is identified: the minimum-norm optimum puts
    # logit(rate) on the direction (1, value)
    labels = np.arange(1000) < 137
    gate = fit_gate(np.full(1000, value), labels)
    logit = np.log(0.137 / 0.863)
    assert gate.converged
    np.testing.assert_allclose(
        [gate.b0, gate.b1], np.array([1.0, value]) * logit / (1.0 + value**2), rtol=1e-10
    )


def sigmoid_reference(t):
    """Masked two-branch sigmoid, each branch evaluated only on its own sign."""
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def test_sigmoid_matches_masked_reference_bitwise():
    rng = np.random.default_rng(6)
    t = np.concatenate([rng.normal(size=5000) * s for s in (1.0, 30.0, 1000.0)])
    t = np.concatenate([t, [0.0, -0.0, 709.0, -709.0, 745.0, -745.0, 1e308, -1e308]])
    np.testing.assert_array_equal(_sigmoid(t), sigmoid_reference(t))


class TestProbOutlier:
    def test_midpoint(self):
        gate = LogisticGate(b0=-4.0, b1=2.0)  # delta0 = 2
        assert prob_outlier(gate, 2.0) == pytest.approx(0.5)

    def test_paper_parameterization_midpoint(self):
        # kappa = -1.78, delta0 = 4.21 -> b1 = 1.78, b0 = -1.78 * 4.21
        kappa, delta0 = -1.78, 4.21
        gate = LogisticGate(b0=kappa * delta0, b1=-kappa)
        assert gate.kappa == pytest.approx(kappa)
        assert gate.delta0 == pytest.approx(delta0)
        assert prob_outlier(gate, 4.21) == pytest.approx(0.5)

    def test_flat_gate(self):
        gate = LogisticGate(b0=0.0, b1=0.0)
        assert prob_outlier(gate, 123.4) == pytest.approx(0.5)
        assert gate.kappa is None and gate.delta0 is None

    def test_open_interval(self):
        gate = LogisticGate(b0=-1e3, b1=1e3)
        assert 0.0 < prob_outlier(gate, 0.0) < 1.0
        assert 0.0 < prob_outlier(gate, 100.0) < 1.0

    def test_monotone_in_delta(self):
        gate = LogisticGate(b0=-5.0, b1=1.5)
        deltas = np.linspace(0.0, 10.0, 50)
        probs = prob_outlier(gate, deltas)
        assert np.all(np.diff(probs) >= 0)


def test_region_alpha_validation():
    with pytest.raises(ValueError):
        OutlierRegion(minv=np.eye(1), alpha=0.0)
    region = OutlierRegion(minv=np.eye(2), alpha=0.5)
    assert region.threshold == pytest.approx(4.0)
