import numpy as np
import pytest

from robustpred.datagen import sample_t
from robustpred.gate import (
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
