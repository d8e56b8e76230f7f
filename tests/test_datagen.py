import numpy as np
import pytest

from robustpred.datagen import (
    PolyConfig,
    SyntheticConfig,
    _ROW_BLOCK,
    _draw,
    _raw_buffers,
    _scale_sqrt,
    _shape_linear,
    _shape_poly,
    feature_map_quadratic,
    generate_linear,
    generate_poly,
    sample_t,
)
from robustpred.linalg import ValidationError


class TestSampleT:
    def test_zero_scale(self):
        s = sample_t(3.0, np.zeros((2, 2)), 100, seed=0)
        assert not np.any(s)

    def test_known_variance(self):
        # var of a t with nu=3 and unit scale is nu / (nu - 2) = 3
        s = sample_t(3.0, np.eye(1), 10**6, seed=1)[:, 0]
        assert np.var(s) == pytest.approx(3.0, rel=0.1)

    def test_determinism(self):
        a = sample_t(4.0, np.eye(2), 50, seed=9)
        b = sample_t(4.0, np.eye(2), 50, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_non_psd_scale_rejected(self):
        with pytest.raises(ValidationError):
            sample_t(3.0, np.array([[1.0, 2.0], [2.0, 1.0]]), 10, seed=0)

    def test_bad_dof(self):
        with pytest.raises(ValidationError):
            sample_t(0.0, np.eye(1), 10, seed=0)


class TestGenerateLinear:
    def test_all_x_sources_off(self):
        cfg = SyntheticConfig(rho=0.0, sigma_u=np.zeros((3, 3)), noise_x_var=0.0, n=50, seed=2)
        X, Z, y = generate_linear(cfg)
        assert not np.any(X)
        assert Z.shape == (50, 1) and y.shape == (50,)

    def test_process_identity_noiseless_y(self):
        cfg = SyntheticConfig(noise_y_var=0.0, n=200, seed=3)
        X, Z, y = generate_linear(cfg)
        np.testing.assert_allclose(y, Z[:, 0] + X.sum(axis=1), atol=1e-12)

    def test_correlation_oracle(self):
        cfg = SyntheticConfig(rho=0.7, n=10**6, seed=4)
        X, Z, _ = generate_linear(cfg)
        for j in range(3):
            corr = np.corrcoef(Z[:, 0], X[:, j])[0, 1]
            assert corr == pytest.approx(0.7, abs=0.03)

    def test_determinism(self):
        cfg = SyntheticConfig(n=100, seed=5)
        a = generate_linear(cfg)
        b = generate_linear(cfg)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_heavy_tail_proxy(self):
        # fraction beyond 4 sigma for nu_z = 3 exceeds the Gaussian value 5x
        cfg = SyntheticConfig(nu_z=3.0, n=10**6, seed=6)
        _, Z, _ = generate_linear(cfg)
        z = Z[:, 0]
        frac = np.mean(np.abs(z - z.mean()) > 4.0 * z.std())
        from math import erf

        gauss = 1.0 - erf(4.0 / np.sqrt(2.0))
        assert frac >= 5.0 * gauss

    def test_invalid_rho(self):
        with pytest.raises(ValidationError):
            SyntheticConfig(rho=1.5)

    @pytest.mark.parametrize("name", ["nu_z", "nu_u"])
    @pytest.mark.parametrize("dof", [1.0, 1.5, 2.0, float("nan")])
    def test_dof_without_a_variance_rejected(self, name, dof):
        # the unit-variance factor sqrt(dof / (dof - 2)) needs dof > 2
        with pytest.raises(ValidationError, match=f"^{name} must be > 2"):
            SyntheticConfig(**{name: dof})


class TestGeneratePoly:
    def test_zero_weights_zero_noise(self):
        cfg = PolyConfig(wz=(0.0, 0.0), wx=(0.0,) * 6, noise_y_var=0.0, n=50, seed=7)
        _, _, y = generate_poly(cfg)
        assert not np.any(y)

    def test_linear_z_contribution_when_w1_zero(self):
        cfg = PolyConfig(wz=(2.0, 0.0), wx=(0.0,) * 6, noise_y_var=0.0, n=100, seed=8)
        _, psi, y = generate_poly(cfg)
        np.testing.assert_allclose(y, 2.0 * psi[:, 0], atol=1e-12)

    def test_missing_block_is_z_and_square(self):
        cfg = PolyConfig(n=50, seed=9)
        _, psi, _ = generate_poly(cfg)
        assert psi.shape == (50, 2)
        np.testing.assert_allclose(psi[:, 1], psi[:, 0] ** 2, atol=1e-12)

    def test_low_dof_rejected(self):
        with pytest.raises(ValidationError, match="variances"):
            PolyConfig(nu_z=3.0)
        with pytest.raises(ValidationError):
            PolyConfig(nu_u=4.0)


class TestFeatureMapQuadratic:
    def test_hand_row(self):
        out = feature_map_quadratic(np.array([[1.0, 2.0, 3.0]]))
        np.testing.assert_allclose(out, [[1.0, 2.0, 3.0, 1.0, 4.0, 9.0]])

    def test_zero_row(self):
        assert not np.any(feature_map_quadratic(np.zeros((1, 3))))

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(5, 3))
        out = feature_map_quadratic(X)
        for i in range(5):
            for j in range(3):
                assert out[i, j] == X[i, j]
                assert out[i, 3 + j] == X[i, j] ** 2


def formula_draws(cfg):
    """(z, x, eps_y) of the processes, written as plain expressions in the
    order of the random draws."""
    rng = np.random.default_rng(cfg.seed)

    def t_draws(dof, scale):
        g = rng.standard_normal((cfg.n, scale.shape[0])) @ _scale_sqrt(scale).T
        w = rng.chisquare(dof, cfg.n) / dof
        return g / np.sqrt(w)[:, None]

    def unit_variance(dof):
        return np.sqrt(dof / (dof - 2.0))

    z = t_draws(cfg.nu_z, np.eye(1))[:, 0] / unit_variance(cfg.nu_z)
    u = t_draws(cfg.nu_u, cfg.sigma_u) / unit_variance(cfg.nu_u)
    eps_x = np.sqrt(cfg.noise_x_var) * rng.standard_normal((cfg.n, 3))
    eps_y = np.sqrt(cfg.noise_y_var) * rng.standard_normal(cfg.n)
    x = cfg.rho * z[:, None] + u + eps_x
    return z, x, eps_y


def assert_bitwise(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


LINEAR_CONFIGS = [
    {},
    {"rho": -0.4, "nu_z": 2.5, "nu_u": 4.5, "noise_x_var": 0.0},
    {"rho": 0.0, "sigma_u": np.zeros((3, 3)), "noise_x_var": 0.0, "noise_y_var": 0.0},
]


# the last two n span several row blocks of the scale product in _shape_t
@pytest.mark.parametrize("n", [1, 7, 1000, 2 * _ROW_BLOCK + 7, 100_000])
@pytest.mark.parametrize("seed", [0, 3, 12345])
class TestDrawsMatchFormulas:
    @pytest.mark.parametrize("settings", LINEAR_CONFIGS)
    def test_linear(self, n, seed, settings):
        cfg = SyntheticConfig(n=n, seed=seed, **settings)
        z, x, eps_y = formula_draws(cfg)
        assert_bitwise(generate_linear(cfg), (x, z[:, None], z + x.sum(axis=1) + eps_y))

    @pytest.mark.parametrize("settings", [{}, {"rho": 0.9, "wz": (0.5, -1.0), "noise_y_var": 0.0}])
    def test_poly(self, n, seed, settings):
        cfg = PolyConfig(n=n, seed=seed, **settings)
        z, x, eps_y = formula_draws(cfg)
        psi = np.column_stack([z, z**2])
        y = psi @ np.asarray(cfg.wz) + np.hstack([x, x**2]) @ np.asarray(cfg.wx) + eps_y
        assert_bitwise(generate_poly(cfg), (x, psi, y))

    @pytest.mark.parametrize("settings", LINEAR_CONFIGS)
    def test_linear_draw_then_shape_in_reused_buffers(self, n, seed, settings):
        # the buffers hold a shaped draw of another process and seed first:
        # the draw overwrites every cell the shape reads
        cfg = SyntheticConfig(n=n, seed=seed, **settings)
        raw = _raw_buffers(n)
        _shape_poly(PolyConfig(n=n), _draw(PolyConfig(n=n), seed + 1, raw))
        z, x, eps_y = formula_draws(cfg)
        assert_bitwise(_shape_linear(cfg, _draw(cfg, seed, raw)), (x, z[:, None], z + x.sum(axis=1) + eps_y))

    def test_poly_draw_then_shape_in_reused_buffers(self, n, seed):
        cfg = PolyConfig(n=n, seed=seed, rho=0.9, wz=(0.5, -1.0))
        raw = _raw_buffers(n)
        _shape_linear(SyntheticConfig(n=n, nu_z=4.5), _draw(SyntheticConfig(n=n, nu_z=4.5), seed + 1, raw))
        z, x, eps_y = formula_draws(cfg)
        psi = np.column_stack([z, z**2])
        y = psi @ np.asarray(cfg.wz) + np.hstack([x, x**2]) @ np.asarray(cfg.wx) + eps_y
        assert_bitwise(_shape_poly(cfg, _draw(cfg, seed, raw)), (x, psi, y))

    def test_sample_t(self, n, seed):
        scale = np.array([[2.0, 0.5], [0.5, 1.0]])
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((n, 2)) @ _scale_sqrt(scale).T
        w = rng.chisquare(4.0, n) / 4.0
        assert_bitwise((sample_t(4.0, scale, n, seed),), (g / np.sqrt(w)[:, None],))

    def test_sample_t_3x3(self, n, seed):
        scale = np.array([[2.0, 0.5, -0.3], [0.5, 1.0, 0.2], [-0.3, 0.2, 3.0]])
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((n, 3)) @ _scale_sqrt(scale).T
        w = rng.chisquare(3.0, n) / 3.0
        assert_bitwise((sample_t(3.0, scale, n, seed),), (g / np.sqrt(w)[:, None],))


@pytest.mark.parametrize("dof", [1, 1.5, 2, 3, 5, 7.5, 30])
@pytest.mark.parametrize("seed", [0, 3, 12345])
def test_chisquare_is_twice_standard_gamma(dof, seed):
    # the draws write the chi-square as 2 * standard_gamma(dof / 2) with out=;
    # numpy computes rng.chisquare the same way, so both give the same bits
    # and leave the generator at the same position
    for n in (1, 1000, 100_000):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        w = np.empty(n)
        b.standard_gamma(dof / 2, out=w)
        w += w
        assert w.tobytes() == a.chisquare(dof, n).tobytes()
        assert a.standard_normal(3).tobytes() == b.standard_normal(3).tobytes()
