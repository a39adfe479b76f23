"""Empirical probes: unbiasedness, embedding, invertibility fit, widths."""

import gc
import math
import mmap
import os
import threading
import weakref

import numpy as np
import pytest

from onebitcs import (
    InvalidArgumentError,
    RaicProbeConfig,
    SamplingExhaustedError,
    check_decomposition,
    check_embedding,
    check_unbiasedness,
    decomposition_check,
    gaussian_width_estimate,
    gen_gaussian_matrix,
    gen_sparse_signal,
    linear_measurements,
    normalize,
    projection_inequality_check,
    raic_probe,
    sign_quantize,
    sparse_dual_norm,
)
import onebitcs.model as model
import onebitcs.probes as probes
from onebitcs.cli import parse_and_dispatch
from onebitcs.probes import embedding_gap
from onebitcs.rng import generator_for, substream_seed
from oracles import blocked_gaussian_draw, chi_mean, gaussian_width_blocked


class TestUnbiasedness:
    def test_scalar_identity(self):
        # in dimension one the estimator averages sqrt(pi/2)|g|, whose mean is 1
        dev = check_unbiasedness(np.array([1.0]), m=20_000, trials=5, seed=8)
        assert dev <= 0.02

    def test_sparse_vector_small_run(self):
        y = gen_sparse_signal(51, 32, 4)
        dev = check_unbiasedness(y.values, m=10_000, trials=10, seed=52)
        assert dev <= 4.0 * math.sqrt(math.pi / 2.0 / 1e5) * 2.0

    def test_measurement_budget_guard(self):
        with pytest.raises(InvalidArgumentError):
            check_unbiasedness(np.array([1.0]), m=10, trials=10, seed=1)

    def test_non_unit_rejected(self):
        with pytest.raises(InvalidArgumentError):
            check_unbiasedness(np.array([2.0]), m=20_000, trials=1, seed=1)


class TestEmbedding:
    def test_equal_pair_gap_zero(self):
        A = gen_gaussian_matrix(1, 64, 16)
        x = gen_sparse_signal(2, 16, 3)
        # hamming part is exactly 0; the geodesic part carries arccos rounding
        assert embedding_gap(A, x, x) <= 1e-7

    def test_antipodal_pair_gap_zero(self):
        A = gen_gaussian_matrix(3, 64, 16)
        x = gen_sparse_signal(4, 16, 3)
        assert embedding_gap(A, x.values, -x.values) <= 1e-7

    def test_random_pairs_small(self):
        assert check_embedding(N=32, s=3, m=2_000, pairs=25, seed=61) <= 0.08

    def test_pairs_guard(self):
        with pytest.raises(InvalidArgumentError):
            check_embedding(N=8, s=2, m=16, pairs=0, seed=1)


class TestRaicProbe:
    def test_reproducible_per_sample(self):
        cfg = RaicProbeConfig(N=64, s=4, m=512, samples=20, seed=5)
        assert raic_probe(cfg).per_sample == raic_probe(cfg).per_sample

    def test_distances_inside_annulus(self):
        cfg = RaicProbeConfig(N=64, s=4, m=512, samples=30, seed=6, r_lb=0.2, r_ub=0.6)
        res = raic_probe(cfg)
        assert all(0.2 - 1e-9 <= d <= 0.6 + 1e-9 for d, _ in res.per_sample)

    def test_diagnostic_endpoint_y_equals_x(self):
        cfg = RaicProbeConfig(N=64, s=4, m=512, samples=4, seed=3, r_lb=0.0, r_ub=0.0)
        res = raic_probe(cfg)
        assert all(lhs == 0.0 for _, lhs in res.per_sample)
        assert res.fitted_eta == 0.0 and res.fitted_delta == 0.0

    def test_near_coincident_lhs_tracks_distance(self):
        # equal sign patterns leave lhs = dual norm of (x - y), which is the
        # full norm of the 2s-sparse difference
        x = gen_sparse_signal(9, 32, 3).values
        y = x.copy()
        nz = np.flatnonzero(x)[0]
        y[nz] += 1e-8
        y = y / np.linalg.norm(y)
        A = gen_gaussian_matrix(10, 256, 32)
        sx = np.where(A.matrix @ x > 0, 1.0, -1.0)
        sy = np.where(A.matrix @ y > 0, 1.0, -1.0)
        assert np.array_equal(sx, sy)
        nu = math.sqrt(math.pi / 2) / 256
        lhs = sparse_dual_norm(nu * (A.matrix.T @ (sx - sy)) - (x - y), 3)
        dist = float(np.linalg.norm(x - y))
        assert lhs <= dist + 1e-15
        assert lhs == pytest.approx(dist, rel=1e-12)

    def test_contraction_compatible_fit_at_probe_scale(self):
        cfg = RaicProbeConfig(N=128, s=4, m=4096, samples=80, seed=7, r_lb=0.1, r_ub=0.5)
        res = raic_probe(cfg)
        assert 0.0 <= res.fitted_delta < 1.0
        assert res.fitted_eta >= 0.0

    def test_sampling_exhaustion_on_impossible_annulus(self, monkeypatch):
        # s = 1 sparse unit vectors sit at distances {0, sqrt(2), 2} only
        monkeypatch.setattr(probes, "_RETRY_BUDGET", 200)
        cfg = RaicProbeConfig(N=8, s=1, m=16, samples=1, seed=1, r_lb=0.3, r_ub=0.4)
        with pytest.raises(SamplingExhaustedError, match="within 200 attempts"):
            raic_probe(cfg)

    def test_invalid_annulus(self):
        with pytest.raises(InvalidArgumentError):
            RaicProbeConfig(N=8, s=2, m=16, samples=1, seed=1, r_lb=0.5, r_ub=0.4)

    @pytest.mark.parametrize("nu", [0.0, -1.0, math.nan, math.inf])
    def test_invalid_nu(self, nu):
        with pytest.raises(InvalidArgumentError, match="nu must be finite and positive"):
            RaicProbeConfig(N=8, s=2, m=16, samples=1, seed=1, nu=nu)


class TestProbeDraw:
    """The matrix probes take the library draw, on every CPU into buffers of their own."""

    # m, and the width, projection and decomposition samples, span 3 blocks of 512 rows
    PROBES = [["unbiased", "--m", "1100", "--trials", "10"], ["embedding", "--m", "1100", "--trials", "12"],
              ["raic", "--m", "1100", "--trials", "12"], ["width", "--trials", "1100"],
              ["projection", "--trials", "1100"], ["decomposition", "--trials", "1100"]]

    def test_outputs_do_not_depend_on_the_cpu_count(self, monkeypatch, capsys):
        runners, drawn = [], []
        real, real_pool = probes.gen_gaussian_matrix, model.ThreadPoolExecutor

        def recording(max_workers):
            runners.append(max_workers)
            return real_pool(max_workers)

        def drawing(*args, **kwargs):
            A = real(*args, **kwargs)
            drawn.append(A.matrix.ctypes.data)
            return A

        monkeypatch.setattr(model, "ThreadPoolExecutor", recording)
        monkeypatch.setattr(probes, "gen_gaussian_matrix", drawing)
        start = threading.active_count()
        printed = []
        for cpus in (1, 2, 4):
            monkeypatch.setattr(os, "cpu_count", lambda n=cpus: n)
            for argv in self.PROBES:
                assert parse_and_dispatch(["probe", *argv, "--n", "48", "--s", "3", "--seed", "5"]) == 0
            printed.append(capsys.readouterr().out)
            assert threading.active_count() == start  # every pool thread joined
            # 10 trials into one buffer, then one matrix each for embedding and raic
            assert len(drawn) == 12 and len(set(drawn[:10])) == 1
            # those 12 draws, then the width, projection and decomposition samples:
            # 3 blocks each, on one thread per CPU
            assert runners == [min(cpus, 3)] * 15
            runners.clear()
            drawn.clear()
        assert printed[0] == printed[1] == printed[2]
        assert printed[0].count("\n") == 7

    @pytest.mark.parametrize("probe", [
        lambda: check_unbiasedness(gen_sparse_signal(1, 48, 3).values, m=1100, trials=10, seed=2),
        lambda: check_embedding(N=48, s=3, m=1100, pairs=4, seed=2),
        lambda: raic_probe(RaicProbeConfig(N=48, s=3, m=1100, samples=4, seed=2)),
        lambda: gen_gaussian_matrix(2, 1100, 48),
    ], ids=["unbiased", "embedding", "raic", "library"])
    def test_buffers_freed_by_reference_counting(self, probe, monkeypatch):
        # each page-mapped buffer is unmapped as the probe returns, not when the collector runs
        mappings = []

        class Recording(mmap.mmap):
            def __new__(cls, *args, **kwargs):
                mapping = super().__new__(cls, *args, **kwargs)
                mappings.append(weakref.ref(mapping))
                return mapping

        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(mmap, "mmap", Recording)
        gc.disable()
        try:
            probe()
            assert mappings and all(mapping() is None for mapping in mappings)
        finally:
            gc.enable()

    def test_unbiasedness_and_embedding_are_those_of_the_library_draw(self):
        # the probes' draw, buffers and column-major copy leave every bit as
        # gen_gaussian_matrix and linear_measurements on its row-major matrix give it
        y = gen_sparse_signal(21, 48, 3).values
        acc = np.zeros(48)
        for t in range(4):
            A = gen_gaussian_matrix(substream_seed(22, t), 2600, 48)
            acc += A.matrix.T @ sign_quantize(linear_measurements(A, y)).bits
        expected = float(np.max(np.abs(math.sqrt(math.pi / 2) / (4 * 2600) * acc - y)))
        assert check_unbiasedness(y, m=2600, trials=4, seed=22) == expected

        A = gen_gaussian_matrix(substream_seed(24, 0), 1100, 48)
        gaps = [
            embedding_gap(A, gen_sparse_signal(substream_seed(24, 1, 2 * k), 48, 3),
                          gen_sparse_signal(substream_seed(24, 1, 2 * k + 1), 48, 3))
            for k in range(12)
        ]
        assert check_embedding(N=48, s=3, m=1100, pairs=12, seed=24) == max(gaps)

    def test_matrix_probes_take_the_library_draw(self, monkeypatch, capsys):
        # through the name benchmarks/tracing.py wraps, so a traced pass counts the probes' draws
        drawn = []
        real = probes.gen_gaussian_matrix

        def counting(seed, m, N, out=None):
            drawn.append((m, N, out is None))
            return real(seed, m, N, out)

        monkeypatch.setattr(probes, "gen_gaussian_matrix", counting)
        for argv in self.PROBES:
            assert parse_and_dispatch(["probe", *argv, "--n", "48", "--s", "3", "--seed", "5"]) == 0
        # 10 unbiasedness trials into the probe's one buffer, then a matrix each for embedding and raic
        assert drawn == [(1100, 48, False)] * 10 + [(1100, 48, True)] * 2

    @pytest.mark.parametrize("argv, need", [
        (["unbiased", "--m", "1100", "--trials", "10"], "1100 x 48 float64 matrix entries need 0.000393"),
        # the matrix and its column-major copy
        (["embedding", "--m", "1100"], "2 x 1100 x 48 float64 matrix entries need 0.000787"),
        (["raic", "--m", "1100"], "2 x 1100 x 48 float64 matrix entries need 0.000787"),
    ], ids=["unbiased", "embedding", "raic"])
    def test_matrices_beyond_physical_memory_rejected(self, argv, need, monkeypatch, capsys):
        # 1100 x 48 float64 entries are 0.4 MiB, against 96 KiB of memory: rejected before any
        # mapping, where a mapping beyond free memory could succeed and its fill be OOM-killed
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 24}
        real = os.sysconf
        monkeypatch.setattr(os, "sysconf", lambda name: pages[name] if name in pages else real(name))
        mapped = []
        monkeypatch.setattr(mmap, "mmap", lambda *args: mapped.append(args))
        assert parse_and_dispatch(["probe", *argv, "--n", "48", "--s", "3", "--seed", "5"]) == 1
        assert capsys.readouterr().err == (
            f"onebitcs: error: {need} GiB, more than the 9.16e-05 GiB of physical memory\n"
        )
        assert mapped == []

    @pytest.mark.parametrize("m", [10**11, 10**19], ids=["beyond-memory", "beyond-ssize_t"])
    def test_unmappable_matrix_is_a_memory_error(self, m, monkeypatch):
        # with physical memory reported larger than the matrix, the mapping itself fails
        monkeypatch.setattr(os, "sysconf", lambda name: {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2**80}[name])
        with pytest.raises(MemoryError, match="cannot map"):
            check_embedding(N=10**5, s=2, m=m, pairs=1, seed=1)

    @pytest.mark.parametrize("m,n", [(0, 8), (8, 0)])
    def test_empty_matrix_rejected(self, m, n):
        with pytest.raises(InvalidArgumentError, match="dimensions must be positive"):
            check_embedding(N=n, s=1, m=m, pairs=1, seed=1)


class TestDecomposition:
    def test_random_triples_residuals_tiny(self):
        rng = generator_for(41)
        for _ in range(300):
            x = normalize(rng.standard_normal(12))
            y = normalize(rng.standard_normal(12))
            a = rng.standard_normal(12)
            assert max(decomposition_check(a, x, y)) <= 1e-10

    def test_a_in_difference_direction(self):
        x = np.array([1.0, 0.0])
        y = np.array([0.0, 1.0])
        u = (x - y) / np.linalg.norm(x - y)
        recon, bu, bv = decomposition_check(u, x, y)
        assert recon <= 1e-12 and bu <= 1e-12 and bv <= 1e-12

    def test_orthogonal_pair_with_a_equal_x(self):
        x = np.array([1.0, 0.0])
        y = np.array([0.0, 1.0])
        a = x
        u = (x - y) / np.linalg.norm(x - y)
        v = (x + y) / np.linalg.norm(x + y)
        assert np.dot(a, u) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert np.dot(a, v) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert max(decomposition_check(a, x, y)) <= 1e-12

    def test_coincident_rejected(self):
        x = np.array([1.0, 0.0])
        with pytest.raises(InvalidArgumentError):
            decomposition_check(np.ones(2), x, x)
        with pytest.raises(InvalidArgumentError):
            decomposition_check(np.ones(2), x, -x)

    def test_non_unit_rejected(self):
        with pytest.raises(InvalidArgumentError):
            decomposition_check(np.ones(2), np.array([2.0, 0.0]), np.array([0.0, 1.0]))

    @pytest.mark.parametrize("k,n", [(1, 2), (2, 3), (7, 16), (600, 257)])
    def test_rows_at_once_are_each_rows_own_call(self, k, n):
        rng = generator_for(42)
        a = rng.standard_normal((k, n))
        x, y = (v / np.linalg.norm(v, axis=1, keepdims=True) for v in rng.standard_normal((2, k, n)))
        parts = decomposition_check(a, x, y)
        assert all(part.shape == (k,) for part in parts)
        for r in range(k):
            assert tuple(float(part[r]) for part in parts) == decomposition_check(a[r], x[r], y[r])

    def test_one_coincident_row_rejects_the_rows(self):
        x = np.array([[1.0, 0.0], [1.0, 0.0]])
        y = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(InvalidArgumentError, match="undefined"):
            decomposition_check(np.ones((2, 2)), x, y)

    @pytest.mark.parametrize("n,triples", [(16, 1), (16, 1100), (40_000, 30)])
    def test_probe_is_the_max_over_the_blocked_draws_rows(self, n, triples):
        # at n = 40000 each block is drawn one row at a time
        a, x, y = (blocked_gaussian_draw(substream_seed(11, j), triples, n) for j in range(3))
        x = x / np.linalg.norm(x, axis=1, keepdims=True)
        y = y / np.linalg.norm(y, axis=1, keepdims=True)
        expected = max(max(decomposition_check(a[r], x[r], y[r])) for r in range(triples))
        assert check_decomposition(n, triples=triples, seed=11) == expected
        assert expected <= 1e-12


class TestGaussianWidth:
    def test_full_space_matches_chi_mean(self):
        est = gaussian_width_estimate(16, 8, trials=10_000, seed=5)
        assert abs(est - chi_mean(16)) / chi_mean(16) <= 0.03

    def test_scalar_case(self):
        est = gaussian_width_estimate(1, 1, trials=10_000, seed=6)
        ref = math.sqrt(2.0 / math.pi)
        assert abs(est - ref) / ref <= 0.02

    def test_sparse_regime_ratio(self):
        # ratio to sqrt(2 s log(N/s)) stays near 1; 1.5 covers the constant
        est = gaussian_width_estimate(1024, 5, trials=2_000, seed=7)
        ref = math.sqrt(2 * 5 * math.log(1024 / 5))
        assert est <= 1.5 * ref
        assert est >= 0.8 * ref

    def test_trials_guard(self):
        with pytest.raises(InvalidArgumentError):
            gaussian_width_estimate(8, 2, trials=50, seed=1)

    @pytest.mark.parametrize("extra", [-1, 0, 1, 105])
    def test_reused_buffer_matches_fresh_batches(self, extra):
        # N = 40000 makes the oracle's fresh batches 2^22 // N = 104 rows, while the
        # estimate draws one row at a time; the trials end one short of a batch, on
        # it, one past it and one past two batches, all inside the first 512-row block
        n, s, trials = 40_000, 3, 104 + extra
        assert gaussian_width_estimate(n, s, trials=trials, seed=9) == gaussian_width_blocked(n, s, trials, 9)

    @pytest.mark.parametrize("trials", [100, 511, 512, 513, 1100])
    def test_blocks_drawn_one_by_one(self, trials):
        # the blocks' norms, summed once in row order, at any block count
        assert gaussian_width_estimate(48, 3, trials=trials, seed=10) == gaussian_width_blocked(48, 3, trials, 10)


class TestProjectionInequality:
    def test_identical_w_and_z(self):
        rng = generator_for(3)
        z = normalize(rng.standard_normal(8))
        from onebitcs import hard_threshold

        z = hard_threshold(z, 8)
        assert np.linalg.norm(hard_threshold(z, 8) - z) == 0.0

    def test_search_finds_no_violation(self):
        assert projection_inequality_check(2_000, 32, 3, seed=31) <= 1e-10

    def test_disjoint_support_huge_w(self):
        z = np.zeros(16)
        z[:3] = normalize(np.array([1.0, -2.0, 0.5]))
        w = np.zeros(16)
        w[8:11] = 1e6 * np.array([1.0, 2.0, -1.0])
        from onebitcs import hard_threshold

        lhs = float(np.linalg.norm(hard_threshold(w, 3) - z))
        assert lhs <= 2.0 * sparse_dual_norm(w - z, 3) + 1e-10

    def test_samples_guard(self):
        with pytest.raises(InvalidArgumentError):
            projection_inequality_check(0, 8, 2, seed=1)
