"""Empirical probes: unbiasedness, embedding, invertibility fit, widths."""

import math
import os
import threading

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

    def test_sampling_exhaustion_on_impossible_annulus(self):
        # s = 1 sparse unit vectors sit at distances {0, sqrt(2), 2} only
        cfg = RaicProbeConfig(N=8, s=1, m=16, samples=1, seed=1, r_lb=0.3, r_ub=0.4, retry_budget=200)
        with pytest.raises(SamplingExhaustedError):
            raic_probe(cfg)

    def test_invalid_annulus(self):
        with pytest.raises(InvalidArgumentError):
            RaicProbeConfig(N=8, s=2, m=16, samples=1, seed=1, r_lb=0.5, r_ub=0.4)

    @pytest.mark.parametrize("nu", [0.0, -1.0, math.nan, math.inf])
    def test_invalid_nu(self, nu):
        with pytest.raises(InvalidArgumentError, match="nu must be finite and positive"):
            RaicProbeConfig(N=8, s=2, m=16, samples=1, seed=1, nu=nu)


class TestProbeDraw:
    """The matrix probes draw on every CPU into buffers of their own, with the library draw's bits."""

    # m, and the width, projection and decomposition samples, span 3 blocks of 512 rows
    PROBES = [["unbiased", "--m", "1100", "--trials", "10"], ["embedding", "--m", "1100", "--trials", "12"],
              ["raic", "--m", "1100", "--trials", "12"], ["width", "--trials", "1100"],
              ["projection", "--trials", "1100"], ["decomposition", "--trials", "1100"]]

    def test_outputs_do_not_depend_on_the_cpu_count(self, monkeypatch, capsys):
        fillers, pools = [], []

        class Recording(probes.BlockFiller):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                fillers.append((args[3], self))

        class RecordingPool(probes.ThreadPoolExecutor):
            def __init__(self, threads):
                super().__init__(threads)
                pools.append(threads)

        monkeypatch.setattr(probes, "BlockFiller", Recording)
        monkeypatch.setattr(probes, "ThreadPoolExecutor", RecordingPool)
        start = threading.active_count()
        printed = []
        for cpus in (1, 2, 4):
            monkeypatch.setattr(os, "cpu_count", lambda n=cpus: n)
            for argv in self.PROBES:
                assert parse_and_dispatch(["probe", *argv, "--n", "48", "--s", "3", "--seed", "5"]) == 0
            printed.append(capsys.readouterr().out)
            assert threading.active_count() == start
            # 10 trials into one buffer, then one matrix each for embedding and raic, on every CPU
            assert [threads for threads, _ in fillers] == [cpus] * 12
            assert all(filler._closed for _, filler in fillers)  # every draw helper joined
            assert (fillers[0][1]._helpers is None) == (cpus == 1)
            assert len({filler._matrix.ctypes.data for _, filler in fillers[:10]}) == 1  # one buffer
            # width, projection and decomposition: their 3 blocks on the calling thread
            # and one helper per further CPU, at most one per block
            assert pools == ([] if cpus == 1 else [min(cpus, 3) - 1] * 3)
            fillers.clear()
            pools.clear()
        assert printed[0] == printed[1] == printed[2]
        assert printed[0].count("\n") == 7

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_blocks_in_order_and_a_raising_block_joins_the_helpers(self, cpus, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        start = threading.active_count()
        assert probes._per_block(7, lambda i: i * i) == [i * i for i in range(7)]

        def failing(i):
            if i == 3:
                raise ValueError("block 3")
            return i

        with pytest.raises(ValueError, match="block 3"):
            probes._per_block(7, failing)
        assert threading.active_count() == start

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

    @pytest.mark.parametrize("m", [10**11, 10**19], ids=["beyond-memory", "beyond-ssize_t"])
    def test_unmappable_matrix_is_a_memory_error(self, m):
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
