import warnings

import numpy as np
import pytest

from robustpred.linalg import (
    ShapeError,
    ValidationError,
    accumulate_moments,
    empirical_mse,
    minimize_quadratic_on_affine,
    null_space_projector,
    pseudoinverse,
)


def loop_moments(X, Z, y):
    """Naive double-loop accumulation oracle."""
    n, d = X.shape
    q = Z.shape[1]
    sxx = np.zeros((d, d))
    szx = np.zeros((q, d))
    szz = np.zeros((q, q))
    sxy = np.zeros(d)
    szy = np.zeros(q)
    for i in range(n):
        sxx += np.outer(X[i], X[i])
        szx += np.outer(Z[i], X[i])
        szz += np.outer(Z[i], Z[i])
        sxy += X[i] * y[i]
        szy += Z[i] * y[i]
    return sxx / n, szx / n, szz / n, sxy / n, szy / n


class TestAccumulateMoments:
    def test_two_point_symmetric_sample(self):
        m = accumulate_moments([[1.0], [-1.0]], [[2.0], [-2.0]], [3.0, -3.0])
        np.testing.assert_allclose(m.sxx, [[1.0]])
        np.testing.assert_allclose(m.szx, [[2.0]])
        np.testing.assert_allclose(m.szz, [[4.0]])
        np.testing.assert_allclose(m.sxy, [3.0])
        np.testing.assert_allclose(m.szy, [6.0])

    def test_zero_sample(self):
        m = accumulate_moments([[0.0, 0.0]], [[0.0]], [0.0])
        assert not np.any(m.sxx)
        assert not np.any(m.szx)
        assert not np.any(m.szz)
        assert not np.any(m.sxy)
        assert not np.any(m.szy)
        assert m.syy == 0.0

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(1)
        X, Z, y = rng.normal(size=(50, 3)), rng.normal(size=(50, 1)), rng.normal(size=50)
        m = accumulate_moments(X, Z, y)
        sxx, szx, szz, sxy, szy = loop_moments(X, Z, y)
        np.testing.assert_allclose(m.sxx, sxx, atol=1e-12)
        np.testing.assert_allclose(m.szx, szx, atol=1e-12)
        np.testing.assert_allclose(m.szz, szz, atol=1e-12)
        np.testing.assert_allclose(m.sxy, sxy, atol=1e-12)
        np.testing.assert_allclose(m.szy, szy, atol=1e-12)

    def test_symmetry_enforced(self):
        rng = np.random.default_rng(2)
        m = accumulate_moments(rng.normal(size=(200, 4)), rng.normal(size=(200, 2)), rng.normal(size=200))
        np.testing.assert_array_equal(m.sxx, m.sxx.T)
        np.testing.assert_array_equal(m.szz, m.szz.T)

    def test_row_count_mismatch(self):
        with pytest.raises(ShapeError):
            accumulate_moments(np.zeros((3, 2)), np.zeros((2, 1)), np.zeros(3))

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            accumulate_moments([[np.nan]], [[0.0]], [0.0])

    @pytest.mark.parametrize(
        "column,message",
        [(("X", 1), "sxx: the mean square of X column 1 "), (("Z", 0), "szz: the mean square of Z column 0 "),
         (("y", None), "syy: the mean square of y ")],
    )
    def test_overflow_names_block_and_column(self, column, message):
        rng = np.random.default_rng(3)
        data = {"X": rng.normal(size=(50, 3)), "Z": rng.normal(size=(50, 2)), "y": rng.normal(size=50)}
        name, j = column
        if j is None:
            data[name] *= 1e160
        else:
            data[name][:, j] *= 1e160
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="second moment " + message + "overflows float64"):
                accumulate_moments(data["X"], data["Z"], data["y"])


def mp_conditions(A, Ainv, rtol=1e-8):
    scale = max(1.0, np.abs(A).max())
    assert np.allclose(A @ Ainv @ A, A, atol=rtol * scale)
    assert np.allclose(Ainv @ A @ Ainv, Ainv, atol=rtol * max(1.0, np.abs(Ainv).max()))
    assert np.allclose((A @ Ainv).T, A @ Ainv, atol=rtol)
    assert np.allclose((Ainv @ A).T, Ainv @ A, atol=rtol)


class TestPseudoinverse:
    def test_identity(self):
        np.testing.assert_allclose(pseudoinverse(np.eye(3)), np.eye(3), atol=1e-12)

    def test_rank_deficient_diagonal(self):
        np.testing.assert_allclose(
            pseudoinverse(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]), atol=1e-12
        )

    def test_full_column_rank_normal_equations(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(4, 2))
        expected = np.linalg.inv(A.T @ A) @ A.T
        np.testing.assert_allclose(pseudoinverse(A), expected, atol=1e-9)

    @pytest.mark.parametrize("shape", [(3, 3), (5, 2), (2, 5)])
    def test_moore_penrose_conditions(self, shape):
        rng = np.random.default_rng(sum(shape))
        A = rng.normal(size=shape)
        mp_conditions(A, pseudoinverse(A))

    def test_moore_penrose_conditions_rank_deficient(self):
        rng = np.random.default_rng(9)
        base = rng.normal(size=(4, 2))
        A = base @ rng.normal(size=(2, 5))  # rank 2, 4x5
        mp_conditions(A, pseudoinverse(A))


class TestNullSpaceProjector:
    def test_single_axis(self):
        pi = null_space_projector(np.array([[1.0, 0.0, 0.0]]))
        np.testing.assert_allclose(pi, np.diag([0.0, 1.0, 1.0]), atol=1e-12)

    def test_zero_matrix_full_null_space(self):
        np.testing.assert_allclose(null_space_projector(np.zeros((1, 3))), np.eye(3))

    def test_full_column_rank_empty_null_space(self):
        A = np.array([[-1.01924745, -3.38349986], [-1.49636246, 1.40108064]])
        assert not np.any(null_space_projector(A))

    def test_projector_properties_random(self):
        rng = np.random.default_rng(4)
        A = rng.normal(size=(1, 4))
        pi = null_space_projector(A)
        assert np.allclose(pi, pi.T, atol=1e-8)
        assert np.allclose(pi @ pi, pi, atol=1e-8)
        assert np.allclose(A @ pi, 0.0, atol=1e-8)
        assert np.linalg.matrix_rank(pi) == 3
        for v in rng.normal(size=(100, 4)):
            assert abs(A @ (pi @ v)) <= 1e-8

    def test_rank(self):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(2, 6))
        pi = null_space_projector(A)
        assert np.linalg.matrix_rank(pi) == 6 - np.linalg.matrix_rank(A)


class TestMinimizeQuadraticOnAffine:
    def make_moments(self, seed, n=200, d=4, q=1):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, d))
        Z = rng.normal(size=(n, q))
        y = rng.normal(size=n)
        return accumulate_moments(X, Z, y)

    def test_zero_projector_returns_anchor(self):
        m = self.make_moments(6)
        w0 = np.array([1.0, -2.0, 0.5, 0.0])
        np.testing.assert_allclose(
            minimize_quadratic_on_affine(m, w0, np.zeros((4, 4))), w0
        )

    def test_identity_projector_unconstrained_minimizer(self):
        m = self.make_moments(7)
        w = minimize_quadratic_on_affine(m, np.zeros(4), np.eye(4))
        expected = pseudoinverse(m.sxx) @ m.sxy
        np.testing.assert_allclose(w, expected, atol=1e-10)

    def test_random_probe_optimality(self):
        m = self.make_moments(8)
        rng = np.random.default_rng(80)
        A = rng.normal(size=(1, 4))
        pi = null_space_projector(A)
        w0 = rng.normal(size=4)
        w_star = minimize_quadratic_on_affine(m, w0, pi)
        best = empirical_mse(m, w_star)
        assert best <= empirical_mse(m, w0) + 1e-12
        for theta in rng.normal(size=(1000, 4)):
            assert best <= empirical_mse(m, w0 + pi @ theta) + 1e-10
