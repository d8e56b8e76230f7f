import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from robustpred.datagen import PolyConfig, SyntheticConfig, generate_linear
from robustpred.dataio import read_csv
from robustpred.evalkit import (
    _bin_index,
    _split_report,
    compare_predictors,
    delta_percent,
    excess_mse_check,
    run_mc_experiment,
)
from robustpred.gate import OutlierRegion, is_outlier
from robustpred.linalg import ShapeError, ValidationError, accumulate_moments
from robustpred.predictors import fit_conservative, fit_optimistic


def region_for(Z, alpha=0.1):
    n = len(Z)
    return OutlierRegion(minv=np.linalg.pinv(Z.T @ Z / n), alpha=alpha)


def split(pred, Z, y, region):
    """The EvalReport of predictions ``pred``, split by the region membership of z."""
    out = is_outlier(region, Z)
    return _split_report((y - pred) ** 2, out, ~out)


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

    def test_no_completed_run_aggregates_to_nan(self):
        # alpha so small that neither training sample holds a tail row
        table, _ = run_mc_experiment(SyntheticConfig(seed=0), 100, 1000, 2, 0.0001)
        assert len(table.failed_runs) == 2
        for row in table.rows:
            assert len(row.delta_in_runs) == 0
            for agg in (row.inlier, row.outlier):
                assert set(agg) == {"mean", "q25", "median", "q75"}
                assert all(np.isnan(v) for v in agg.values())

    def test_test_data_drawn_only_for_fitted_runs(self, monkeypatch):
        import robustpred.evalkit as evalkit

        calls = []
        draw = evalkit._draw

        def recording(cfg, seed, raw):
            calls.append((len(raw[0]), seed))
            return draw(cfg, seed, raw)

        monkeypatch.setattr(evalkit, "_draw", recording)
        cfg = SyntheticConfig(seed=7)
        n_train, n_test, n_runs = 100, 200, 8
        table, _ = run_mc_experiment(cfg, n_train, n_test, n_runs, 0.1)
        failed = {i for i, _ in table.failed_runs}
        assert failed == {3, 7}  # single-class training samples at this seed
        assert [seed for n, seed in calls if n == n_train] == [cfg.seed + 2 * i + 1 for i in range(n_runs)]
        fitted = [i for i in range(n_runs) if i not in failed]
        assert [seed for n, seed in calls if n == n_test] == [cfg.seed + 2 * i + 2 for i in fitted]
        assert len(calls) == n_runs + len(fitted)
        assert table.runs == tuple(fitted)


class TestHelperThread:
    """Test sets are drawn on one helper thread, which never outlives the call."""

    def test_test_sets_drawn_off_the_main_thread_and_helper_joined(self, monkeypatch):
        import robustpred.evalkit as evalkit

        on_main = {}
        draw = evalkit._draw

        def recording(cfg, seed, raw):
            on_main[seed] = threading.current_thread() is threading.main_thread()
            return draw(cfg, seed, raw)

        monkeypatch.setattr(evalkit, "_draw", recording)
        before = set(threading.enumerate())
        cfg = SyntheticConfig(seed=7)
        table, _ = run_mc_experiment(cfg, 100, 500, 5, 0.1, z_bin_edges=np.linspace(-12, 12, 49))
        assert set(threading.enumerate()) == before
        assert all(on_main[cfg.seed + 2 * i + 1] for i in range(5))
        assert not any(on_main[cfg.seed + 2 * i + 2] for i in table.runs)

    @pytest.mark.parametrize("failing_run", [0, 2, 4])
    def test_helper_exception_surfaces_unchanged(self, monkeypatch, failing_run):
        import robustpred.evalkit as evalkit

        cfg = SyntheticConfig(seed=7)  # run 3 fails to fit at this seed
        boom = RuntimeError("test draw failed")
        draw = evalkit._draw

        def failing(c, seed, raw):
            if seed == cfg.seed + 2 * failing_run + 2:
                assert threading.current_thread() is not threading.main_thread()
                raise boom
            return draw(c, seed, raw)

        monkeypatch.setattr(evalkit, "_draw", failing)
        before = set(threading.enumerate())
        with pytest.raises(RuntimeError) as info:
            run_mc_experiment(cfg, 100, 500, 5, 0.1)
        assert info.value is boom
        assert set(threading.enumerate()) == before

    def test_helper_calls_no_public_function(self, monkeypatch):
        # perfbench's span tracer wraps every public function of the package
        # and keeps one span stack, so the helper thread must call none
        import inspect
        import sys

        import robustpred.evalkit as evalkit

        modules = [m for name, m in list(sys.modules.items()) if name.startswith("robustpred.")]
        public = {
            id(fn): f"{mod.__name__}.{attr}"
            for mod in modules
            for attr, fn in vars(mod).items()
            if not attr.startswith("_") and inspect.isfunction(fn) and fn.__module__ == mod.__name__
        }
        assert "robustpred.datagen.generate_linear" in public.values()
        off_main, helper_draws = [], []

        def wrapped(name, fn):
            def call(*args, **kwargs):
                if threading.current_thread() is not threading.main_thread():
                    off_main.append(name)
                return fn(*args, **kwargs)

            return call

        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in public and inspect.isfunction(obj):
                    monkeypatch.setattr(mod, attr, wrapped(public[id(obj)], obj))
        draw = evalkit._draw

        def recording(cfg, seed, raw):
            helper_draws.append(threading.current_thread() is not threading.main_thread())
            return draw(cfg, seed, raw)

        monkeypatch.setattr(evalkit, "_draw", recording)
        for cfg, edges in ((SyntheticConfig(seed=7), np.linspace(-12, 12, 49)), (PolyConfig(seed=7), None)):
            evalkit.run_mc_experiment(cfg, 100, 500, 5, 0.1, z_bin_edges=edges)
        assert any(helper_draws)
        assert off_main == []

    def test_two_buffer_sets_taken_in_turn_across_failed_runs(self, monkeypatch):
        # runs 3 and 7 fail at this seed, the last one after the final test
        # draw; every fitted run's test draw takes the older of two sets
        import robustpred.evalkit as evalkit

        cfg, n_train, n_test, n_runs = SyntheticConfig(seed=7), 100, 500, 8
        sets = []
        draw = evalkit._draw

        def recording(c, seed, raw):
            if len(raw[0]) == n_test:
                sets.append(tuple(id(a) for a in raw))
            return draw(c, seed, raw)

        monkeypatch.setattr(evalkit, "_draw", recording)
        table, _ = run_mc_experiment(cfg, n_train, n_test, n_runs, 0.1)
        assert table.runs == (0, 1, 2, 4, 5, 6)
        assert len(set(sets)) == 2
        assert sets == [sets[0], sets[1]] * 3


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

    def test_bins_match_brute_force_with_z_on_the_edges(self):
        from robustpred.predictors import fit_oracle
        from robustpred.robust import fit_robust

        cfg, n_train, n_test, alpha = SyntheticConfig(n=100, seed=65), 300, 2000, 0.2
        z0 = generate_linear(SyntheticConfig(n=n_test, seed=cfg.seed + 2))[1][:, 0]
        zs = np.sort(z0)
        # edges on test z values: rows fall below the first edge, on the
        # first, on an interior and on the last edge, and above the last
        edges = np.array([zs[100], zs[700], zs[1000], zs[1300], zs[1900]])
        assert (z0 < edges[0]).any() and (z0 > edges[-1]).any()
        assert all((z0 == e).sum() == 1 for e in edges)
        _, curves = run_mc_experiment(cfg, n_train, n_test, 2, alpha, z_bin_edges=edges)

        n_bins = len(edges) - 1
        sums = {name: [0.0] * n_bins for name in curves.mse}
        counts = [0] * n_bins
        for i in range(2):
            X, Z, y = generate_linear(SyntheticConfig(n=n_train, seed=cfg.seed + 2 * i + 1))
            Xt, Zt, yt = generate_linear(SyntheticConfig(n=n_test, seed=cfg.seed + 2 * i + 2))
            model = fit_robust(X, Z, y, alpha)
            _, err2 = compare_predictors(model, Xt, Zt, yt)
            oracle = fit_oracle(accumulate_moments(X - model.x_mean, Z - model.region.center, y - model.y_mean))
            pred = (Xt - model.x_mean) @ oracle.alpha_w + (Zt - model.region.center) @ oracle.beta_w + model.y_mean
            err2["oracle"] = (yt - pred) ** 2
            idx = np.digitize(Zt[:, 0], edges) - 1
            valid = (idx >= 0) & (idx < n_bins)
            run_sums = {name: [0.0] * n_bins for name in sums}
            for k in np.flatnonzero(valid):
                counts[idx[k]] += 1
                for name in sums:
                    run_sums[name][idx[k]] += float(err2[name][k])
            for name in sums:
                sums[name] = [a + b for a, b in zip(sums[name], run_sums[name])]

        assert 0 < sum(counts) < 2 * n_test
        for name in sums:
            assert curves.counts[name].tolist() == counts
            expected = np.array([s / c if c else np.nan for s, c in zip(sums[name], counts)])
            assert curves.mse[name].tobytes() == expected.tobytes()

    def test_run_deltas_equal_compare_predictors_on_raw_x(self):
        # a run centres its test x once and shares it with the oracle line;
        # each run's deltas stay bitwise those of the public path on raw x
        from robustpred.robust import fit_robust

        cfg, n_train, n_test, alpha, n_runs = SyntheticConfig(seed=7), 100, 2000, 0.1, 5
        table, _ = run_mc_experiment(cfg, n_train, n_test, n_runs, alpha, z_bin_edges=np.linspace(-12, 12, 49))
        assert [i for i, _ in table.failed_runs] == [3]  # a failed run shifts the later ones
        expected = {name: ([], []) for name in ("optimistic", "conservative", "robust")}
        for i in table.runs:
            model = fit_robust(*generate_linear(SyntheticConfig(n=n_train, seed=cfg.seed + 2 * i + 1)), alpha)
            rows, _ = compare_predictors(model, *generate_linear(SyntheticConfig(n=n_test, seed=cfg.seed + 2 * i + 2)))
            for name, _, d_in, d_out in rows:
                expected[name][0].append(d_in)
                expected[name][1].append(d_out)
        for name, (d_in, d_out) in expected.items():
            assert table.row(name).delta_in_runs.tobytes() == np.array(d_in).tobytes()
            assert table.row(name).delta_out_runs.tobytes() == np.array(d_out).tobytes()

    def test_curves_equal_serial_recomputation_across_a_failed_run(self):
        # the helper thread draws test sets ahead, into two buffer sets taken
        # in turn; each run's deltas, and the bin sums and counts added up
        # run by run in run order, are those of a serial loop over the
        # public functions, across failed runs 3 and 7
        from robustpred.predictors import fit_oracle
        from robustpred.robust import fit_robust

        cfg, n_train, n_test, alpha, n_runs = SyntheticConfig(seed=7), 100, 3000, 0.1, 8
        edges = np.linspace(-12, 12, 49)
        table, curves = run_mc_experiment(cfg, n_train, n_test, n_runs, alpha, z_bin_edges=edges)
        assert table.runs == (0, 1, 2, 4, 5, 6) and [i for i, _ in table.failed_runs] == [3, 7]
        k = len(edges)
        sums = {name: np.zeros(k - 1) for name in curves.mse}
        counts = np.zeros(k - 1, dtype=int)
        deltas = {name: ([], []) for name in ("optimistic", "conservative", "robust")}
        for i in table.runs:
            X, Z, y = generate_linear(SyntheticConfig(n=n_train, seed=cfg.seed + 2 * i + 1))
            Xt, Zt, yt = generate_linear(SyntheticConfig(n=n_test, seed=cfg.seed + 2 * i + 2))
            model = fit_robust(X, Z, y, alpha)
            rows, err2 = compare_predictors(model, Xt, Zt, yt)
            for name, _, d_in, d_out in rows:
                deltas[name][0].append(d_in)
                deltas[name][1].append(d_out)
            oracle = fit_oracle(accumulate_moments(X - model.x_mean, Z - model.region.center, y - model.y_mean))
            pred = (Xt - model.x_mean) @ oracle.alpha_w + (Zt - model.region.center) @ oracle.beta_w + model.y_mean
            err2["oracle"] = (yt - pred) ** 2
            idx = np.digitize(Zt[:, 0], edges)
            counts += np.bincount(idx, minlength=k)[1:k]
            for name in sums:
                sums[name] += np.bincount(idx, err2[name], minlength=k)[1:k]
        for name, (d_in, d_out) in deltas.items():
            assert table.row(name).delta_in_runs.tobytes() == np.array(d_in).tobytes()
            assert table.row(name).delta_out_runs.tobytes() == np.array(d_out).tobytes()
        for name in sums:
            assert curves.counts[name].tobytes() == counts.tobytes()
            assert curves.mse[name].tobytes() == np.where(counts > 0, sums[name] / np.maximum(counts, 1), np.nan).tobytes()

    @pytest.mark.parametrize("alpha", [0.0, -0.1, 1.5, np.nan])
    def test_bad_alpha_rejected_before_any_draw(self, monkeypatch, alpha):
        import robustpred.evalkit as evalkit

        calls = []
        monkeypatch.setattr(evalkit, "_draw", lambda *a: calls.append(a))
        with pytest.raises(ValidationError, match=r"alpha must be in \(0, 1\]"):
            run_mc_experiment(SyntheticConfig(seed=1), 100, 500, 2, alpha)
        assert calls == []

    @pytest.mark.parametrize(
        "edges",
        [[], [1.0], [0.0, np.nan, 1.0], [0.0, np.inf], [-np.inf, 0.0], [1.0, 0.0],
         [0.0, 1.0, 1.0, 2.0], [2.0, 1.0, 0.0], [[0.0, 1.0], [2.0, 3.0]]],
    )
    def test_bad_edges_rejected_before_any_run(self, monkeypatch, edges):
        import robustpred.evalkit as evalkit

        calls = []
        monkeypatch.setattr(evalkit, "_draw", lambda *a: calls.append(a))
        with pytest.raises(ValidationError, match="z_bin_edges"):
            run_mc_experiment(SyntheticConfig(seed=1), 100, 500, 2, 0.1, z_bin_edges=np.array(edges))
        assert calls == []

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


@st.composite
def increasing_edges(draw):
    """Strictly increasing bin edges: ``linspace(lo, hi, k + 1)`` with k up
    to 4096, or a random set of distinct finite floats."""
    if draw(st.booleans()):
        k = draw(st.integers(1, 4096))
        lo = draw(st.floats(-1e6, 1e6))
        hi = lo + draw(st.floats(1e-3, 1e6))
        edges = np.linspace(lo, hi, k + 1)
    else:
        finite = st.floats(allow_nan=False, allow_infinity=False)
        edges = np.sort(draw(arrays(np.float64, st.integers(2, 64), elements=finite, unique=True)))
    edges = edges[np.concatenate(([True], np.diff(edges) > 0))]  # -0.0 and 0.0, or linspace rounding
    if len(edges) < 2:
        edges = np.array([0.0, 1.0])
    return edges


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(increasing_edges())
def test_bin_index_equals_digitize_on_and_next_to_every_edge(edges):
    with np.errstate(over="ignore"):  # the next float after the largest is inf
        z = np.concatenate([
            edges,
            np.nextafter(edges, -np.inf),
            np.nextafter(edges, np.inf),
            [-1e300, 1e300, 0.5 * edges[0] + 0.5 * edges[-1]],
        ])
    idx = _bin_index(z, edges)
    assert idx.dtype == np.intp
    np.testing.assert_array_equal(idx, np.digitize(z, edges))


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

    @pytest.mark.parametrize("sample", ["golden_train", "acceptance_style"])
    def test_identity_exact_on_training_moments(self, sample):
        # on any sample with invertible szz the identity is algebra, so it
        # holds to rounding; the conservative weights zero the dispersion term
        if sample == "golden_train":
            table = read_csv(Path(__file__).parent / "golden" / "sim" / "train.csv")
            X = np.column_stack([table.column(c) for c in ("x1", "x2", "x3")])
            Z, y = table.column("z1")[:, None], table.column("y")
        else:
            X, Z, y = generate_linear(SyntheticConfig(rho=0.7, nu_z=3.0, n=100, seed=3))
        m = accumulate_moments(X - X.mean(0), Z - Z.mean(0), y - y.mean())
        for w in (fit_optimistic(m).weights, fit_conservative(m).weights):
            check = excess_mse_check(m, w)
            assert abs(check.lhs - check.rhs) <= 1e-12 * abs(check.lhs)
        assert check.term_dispersion <= 1e-12 * check.term_residual

    def test_singular_szz_rejected(self):
        rng = np.random.default_rng(63)
        X = rng.normal(size=(50, 3))
        Z = np.hstack([X[:, :1], X[:, :1]])  # rank-1 z block
        m = accumulate_moments(X, Z, rng.normal(size=50))
        with pytest.raises(np.linalg.LinAlgError):
            excess_mse_check(m, np.zeros(3))
