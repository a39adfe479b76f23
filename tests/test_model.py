"""Measurement model: generators, quantizer, determinism, scale invariance."""

import gc
import os
import sys
import threading
import time
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import onebitcs.model as model
from onebitcs import (
    BinaryObservation,
    InvalidArgumentError,
    MeasurementEnsemble,
    SparseVector,
    UnitSparseVector,
    gen_gaussian_matrix,
    gen_sparse_signal,
    generator_for,
    linear_measurements,
    measure,
    sign_quantize,
    substream_seed,
)
from onebitcs.probes import check_embedding, gaussian_width_estimate
from onebitcs.rng import block_generator
from oracles import blocked_gaussian_draw


_SEEDS = st.integers(0, 2**64 - 1)


def _blocked(seed: int, m: int, n: int, threads: int = 1) -> np.ndarray:
    """The m x n blocked draw, filled on up to ``threads`` threads into a heap array, as a sweep draws."""
    return gen_gaussian_matrix(seed, m, n, np.empty((m, n)), threads).matrix


class TestBlockedGaussianMatrix:
    def test_same_seed_bitwise_identical(self):
        a = gen_gaussian_matrix(7, 100, 50)
        b = gen_gaussian_matrix(7, 100, 50)
        assert np.array_equal(a.matrix, b.matrix)

    def test_different_seed_differs(self):
        a = gen_gaussian_matrix(7, 100, 50)
        b = gen_gaussian_matrix(8, 100, 50)
        assert not np.array_equal(a.matrix, b.matrix)

    def test_moments_in_four_sigma_bands(self):
        entries = gen_gaussian_matrix(1, 10_000, 1).matrix.ravel()
        assert -0.04 < entries.mean() < 0.04
        assert 0.94 < entries.var(ddof=1) < 1.06

    def test_distributional_sanity_at_scale(self):
        # m*N = 10^6 draws; 4-sigma bands from exact normal moments
        entries = gen_gaussian_matrix(2, 1000, 1000).matrix.ravel()
        n = entries.size
        assert abs(entries.mean()) < 4.0 / np.sqrt(n)
        assert abs(entries.var(ddof=1) - 1.0) < 4.0 * np.sqrt(2.0 / (n - 1))

    def test_shape_and_metadata(self):
        a = gen_gaussian_matrix(3, 5, 9)
        assert a.matrix.shape == (5, 9) and (a.m, a.N, a.seed) == (5, 9, 3)

    @pytest.mark.parametrize("m,n", [(0, 5), (5, 0), (-1, 5)])
    def test_bad_dimensions(self, m, n):
        with pytest.raises(InvalidArgumentError):
            gen_gaussian_matrix(1, m, n)

    def test_matrix_is_frozen(self):
        a = gen_gaussian_matrix(1, 3, 3)
        with pytest.raises(ValueError):
            a.matrix[0, 0] = 5.0

    @given(
        seed=_SEEDS,
        n=st.integers(1, 64),
        m=st.one_of(st.integers(1, 511), st.just(512), st.integers(513, 1100)),
        extra=st.one_of(st.integers(0, 600), st.integers(2000, 4000)),
        sigma=st.floats(1e-3, 10.0),
    )
    @example(seed=1, n=3, m=100, extra=20, sigma=1.0)  # m < 512, one block
    @example(seed=2, n=3, m=512, extra=1, sigma=1.0)  # m = 512, the block boundary itself
    @example(seed=3, n=3, m=600, extra=700, sigma=1.0)  # m across a block boundary
    @example(seed=4, n=2, m=7, extra=5000, sigma=1.0)  # M >> m
    @settings(max_examples=60, deadline=None)
    def test_row_prefix_is_the_shorter_draw(self, seed, n, m, extra, sigma):
        # nested ensembles, and recover at m equal to a sweep cell, rely on the
        # matrix prefix; a sweep's noise at m is the first m entries of the
        # trial's noise stream. Both hold because numpy fills each block, and
        # the noise, row by row from one stream, and are checked on every numpy
        # the CI runs
        shorter = _blocked(seed, m, n).tobytes()
        assert _blocked(seed, m + extra, n)[:m].tobytes() == shorter
        assert gen_gaussian_matrix(seed, m + extra, n).matrix[:m].tobytes() == shorter
        noise = generator_for(seed).normal(0.0, sigma, m + extra)
        assert noise[:m].tobytes() == generator_for(seed).normal(0.0, sigma, m).tobytes()

    @given(seed=_SEEDS, n=st.integers(1, 6), m=st.integers(1, 2100))
    @example(seed=5, n=4, m=2100)  # five blocks over four threads
    @settings(max_examples=25, deadline=None)
    def test_thread_count_does_not_change_the_draw(self, seed, n, m):
        # 1, 2 and 4 threads, and every CPU, into its own buffer or a caller's,
        # all fill the reference draw
        reference = blocked_gaussian_draw(seed, m, n).tobytes()
        with mock.patch.object(os, "cpu_count", return_value=4):  # let 4 threads run on any host
            for threads in (1, 2, 4):
                assert _blocked(seed, m, n, threads).tobytes() == reference
            assert gen_gaussian_matrix(seed, m, n).matrix.tobytes() == reference
            buf = np.full((m + 1, n), np.nan)  # taller than the draw, which takes its first rows
            A = gen_gaussian_matrix(seed, m, n, out=buf)
            assert np.shares_memory(A.matrix, buf) and A.matrix.tobytes() == reference

    def test_blocks_follow_the_spawn_rule(self):
        seed, n = 2**64 - 5, 3
        matrix = _blocked(seed, 1100, n)
        children = np.random.SeedSequence(seed).spawn(3)
        for i, rows in enumerate((512, 512, 76)):
            block = matrix[512 * i:512 * i + rows]
            spawned = np.random.Generator(np.random.PCG64(children[i])).standard_normal((rows, n))
            assert block.tobytes() == spawned.tobytes()
            assert block.tobytes() == block_generator(seed, i).standard_normal((rows, n)).tobytes()

    def test_threads_capped_at_blocks_and_cpus(self, monkeypatch):
        sizes = []
        real = model.ThreadPoolExecutor

        def recording(max_workers):
            sizes.append(max_workers)
            return real(max_workers)

        monkeypatch.setattr(model, "ThreadPoolExecutor", recording)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        for threads in (10**6, None):  # None: every CPU
            for m in (5000, 1000, 500):  # 10 blocks on 3 CPUs, 2 blocks, 1 block
                _blocked(1, m, 2, threads)
        assert sizes == [3, 2, 1] * 2  # every thread draws while the caller waits; one for one block

    def test_unallocatable_size_derives_no_block_seed(self, monkeypatch):
        def derived(*args):
            raise AssertionError("a block seed was derived before the matrix was allocated")

        monkeypatch.setattr(model, "block_generator", derived)
        with pytest.raises(MemoryError):  # 10^12 x 512 float64 exceeds the address space
            gen_gaussian_matrix(1, 10**12, 512, threads=2)

    def test_threads_must_be_positive(self):
        with pytest.raises(InvalidArgumentError):
            gen_gaussian_matrix(1, 5, 5, threads=0)


# Functions that take a seed, each on a small input; the two probes stand for the others.
_SEEDED = {
    "substream_seed": lambda seed: substream_seed(seed),
    "substream_index": lambda seed: substream_seed(1, seed),
    "generator_for": lambda seed: generator_for(seed),
    "block_generator": lambda seed: block_generator(seed, 0),
    "gen_gaussian_matrix": lambda seed: gen_gaussian_matrix(seed, 4, 4),
    "gen_sparse_signal": lambda seed: gen_sparse_signal(seed, 4, 2),
    "check_embedding": lambda seed: check_embedding(N=16, s=2, m=64, pairs=2, seed=seed),
    "gaussian_width_estimate": lambda seed: gaussian_width_estimate(16, 2, trials=100, seed=seed),
}


@pytest.mark.parametrize("draw", list(_SEEDED.values()), ids=list(_SEEDED))
class TestSeedRule:
    """Every seed is in [0, 2^64), the 64 bits the streams take; no other wraps onto one in range."""

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5, 5.5, 5.0])  # no float is truncated to a seed
    def test_seed_outside_64_bits_rejected(self, draw, seed):
        with pytest.raises(InvalidArgumentError, match=rf"^seed must be in \[0, 2\^64\), got {seed}$"):
            draw(seed)

    def test_largest_seed_accepted(self, draw):
        draw(2**64 - 1)


class TestBlockFiller:
    """The fill of ``gen_gaussian_matrix(out=…, threads=…)``'s 512-row blocks on 1, 2 and 4 threads.

    The class keeps the name of the streamed filler it first tested, so that its test ids stay stable.
    """

    M, N = 2100, 3  # five blocks, the last one short

    @pytest.mark.parametrize("threads", [1, 2, 4])  # 0, 1 and 3 helpers
    @pytest.mark.parametrize("slow_helper", [False, True])
    def test_every_prefix_is_the_blocked_draw(self, threads, slow_helper, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)  # let 3 helpers run on any host
        if slow_helper:
            real = model.block_generator

            def sleepy(seed, i):
                # a helper sleeps before each block it fills, so the calling
                # thread both fills blocks itself and waits for held ones
                if threading.current_thread() is not threading.main_thread():
                    time.sleep(0.005)
                return real(seed, i)

            monkeypatch.setattr(model, "block_generator", sleepy)
        reference = blocked_gaussian_draw(11, self.M, self.N)
        out = np.full((self.M, self.N), np.nan)  # one buffer for every draw, as a sweep reuses its rows
        for k in [*range(1, self.M + 1, 233), 511, 512, 513, 1024, 1025, self.M]:
            A = gen_gaussian_matrix(11, k, self.N, out=out, threads=threads)
            assert np.shares_memory(A.matrix, out)
            assert A.matrix.tobytes() == reference[:k].tobytes()

    @pytest.mark.parametrize("threads", [1, 2, 4])  # 0, 1 and 3 helpers
    def test_every_prefix_filled_into_a_callers_buffer(self, threads, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)  # let 3 helpers run on any host
        reference = blocked_gaussian_draw(11, self.M, self.N)
        out = np.full((self.M + 7, self.N), np.nan)  # taller than the draw, which takes its first rows
        A = gen_gaussian_matrix(11, self.M, self.N, out=out, threads=threads)
        assert np.shares_memory(A.matrix, out)
        for k in [*range(1, self.M + 1, 97), 511, 512, 513, 1024, 1025, self.M]:
            assert A.matrix[:k].tobytes() == reference[:k].tobytes()
        assert out[:self.M].tobytes() == reference.tobytes()
        assert np.isnan(out[self.M:]).all()

    @pytest.mark.parametrize("out", [
        np.empty((M - 1, N)),
        np.empty((M, N), dtype=np.float32),
        np.empty((M, N), order="F"),
        np.empty((M, 2 * N))[:, ::2],
        np.frombuffer(bytes(M * N * 8)).reshape(M, N),  # C-contiguous float64 over bytes: read-only
    ], ids=["too-small", "float32", "fortran-order", "strided", "read-only"])
    def test_unusable_buffer_rejected(self, out):
        start = threading.active_count()
        with pytest.raises(InvalidArgumentError, match=f"out must be a writable C-contiguous float64 "
                                                        f"array of at least {self.M} x {self.N} entries"):
            gen_gaussian_matrix(11, self.M, self.N, out=out, threads=2)
        assert threading.active_count() == start

    def test_helper_exception_raised_on_caller(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        real = model.block_generator
        raised = threading.Event()
        caller, seen = [], []

        def failing(seed, i):
            if threading.get_ident() not in caller:
                raised.set()
                raise RuntimeError("helper failed")
            assert raised.wait(timeout=10)  # the caller fills only after a helper failed
            return real(seed, i)

        def ask():
            caller.append(threading.get_ident())
            try:
                gen_gaussian_matrix(3, self.M, self.N, threads=2)
            except RuntimeError as exc:
                seen.append(exc)

        monkeypatch.setattr(model, "block_generator", failing)
        start = threading.active_count()
        asker = threading.Thread(target=ask, daemon=True)  # a hang must not hold the suite
        asker.start()
        asker.join(timeout=10)
        assert not asker.is_alive()
        assert [str(exc) for exc in seen] == ["helper failed"]
        assert threading.active_count() == start

    def test_each_block_filled_once_under_contention(self, monkeypatch):
        # more helpers than cores and a short switch interval, so a block that
        # both a helper and the calling thread took would be filled twice
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        real = model.block_generator
        taken = []

        def counting(seed, i):
            taken.append(i)
            return real(seed, i)

        monkeypatch.setattr(model, "block_generator", counting)
        m = 512 * 64
        reference = blocked_gaussian_draw(5, m, 1)
        same = []

        def draw():
            same.append(gen_gaussian_matrix(5, m, 1, threads=8).matrix.tobytes() == reference.tobytes())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            drawer = threading.Thread(target=draw, daemon=True)  # a hang must not hold the suite
            drawer.start()
            drawer.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not drawer.is_alive()
        assert same == [True]
        assert sorted(taken) == list(range(64))

    def test_drawn_matrix_freed_by_reference_counting(self, monkeypatch):
        # the blocks' work holds the matrix and the runner drops its threads, so
        # no cycle keeps the buffer for the collector
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        gc.disable()
        try:
            out = np.empty((2100, 3))
            A = gen_gaussian_matrix(1, 2100, 3, out=out, threads=4)
            dead = weakref.ref(out)
            del A, out
            assert dead() is None
        finally:
            gc.enable()


class TestBlockRunner:
    """``model._map_blocks``, the thread pool under every blocked draw; the class keeps its test ids."""

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_blocks_in_order_and_a_raising_block_joins_the_helpers(self, threads, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)  # let 4 threads run on any host
        start = threading.active_count()
        assert model._map_blocks(7, lambda i: i * i, threads) == [i * i for i in range(7)]
        assert threading.active_count() == start

        def failing(i):
            if i in (3, 5):
                raise ValueError(f"block {i}")
            return i

        with pytest.raises(ValueError, match="^block 3$"):  # the first in block order
            model._map_blocks(7, failing, threads)
        assert threading.active_count() == start


class TestSparseSignal:
    def test_flat_first_s_is_half_vector(self):
        x = gen_sparse_signal(0, 4, 4, "first_s", "flat")
        assert np.array_equal(x.values, np.array([0.5, 0.5, 0.5, 0.5]))

    @given(seed=st.integers(0, 2**32), n=st.integers(1, 40), frac=st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_unit_norm_and_exact_sparsity(self, seed, n, frac):
        s = max(1, min(n, int(round(frac * n))))
        x = gen_sparse_signal(seed, n, s)
        assert abs(np.linalg.norm(x.values) - 1.0) <= 1e-12
        assert np.count_nonzero(x.values) == s

    def test_first_s_support(self):
        x = gen_sparse_signal(9, 10, 3, "first_s", "gaussian")
        assert np.all(x.values[3:] == 0) and np.all(x.values[:3] != 0)

    def test_uniform_random_support_has_exactly_s(self):
        x = gen_sparse_signal(3, 100, 5, "uniform_random", "gaussian")
        assert np.count_nonzero(x.values) == 5

    def test_rademacher_values(self):
        x = gen_sparse_signal(5, 20, 4, "uniform_random", "rademacher")
        nz = x.values[x.values != 0]
        assert np.allclose(np.abs(nz), 0.5)

    def test_s_larger_than_n_rejected(self):
        with pytest.raises(InvalidArgumentError):
            gen_sparse_signal(1, 4, 5)

    def test_unknown_rules_rejected(self):
        with pytest.raises(InvalidArgumentError):
            gen_sparse_signal(1, 4, 2, support_rule="alphabetical")
        with pytest.raises(InvalidArgumentError):
            gen_sparse_signal(1, 4, 2, value_rule="cauchy")


class TestSignQuantize:
    def test_zero_quantizes_to_minus_one(self):
        assert sign_quantize([2.5, -0.1, 0.0]).bits.tolist() == [1.0, -1.0, -1.0]

    def test_all_positive(self):
        assert np.all(sign_quantize([0.3, 1e-12, 7.0]).bits == 1.0)

    # Subnormals are excluded: c * 5e-324 underflows to 0, which quantizes to -1.
    @given(
        st.lists(st.floats(-1e6, 1e6, allow_subnormal=False), min_size=1, max_size=30),
        st.floats(1e-3, 1e3),
    )
    @settings(max_examples=100, deadline=None)
    def test_positive_scaling_invariance(self, values, c):
        v = np.array(values)
        assert np.array_equal(sign_quantize(c * v).bits, sign_quantize(v).bits)

    def test_range_is_exactly_plus_minus_one(self):
        bits = sign_quantize(np.linspace(-2, 2, 101)).bits
        assert set(np.unique(bits)) <= {-1.0, 1.0}

    @given(
        st.lists(st.floats(-1e6, 1e6), max_size=30),
        st.sampled_from([np.nan, np.inf, -np.inf]),
        st.integers(0, 30),
    )
    @settings(max_examples=100, deadline=None)
    def test_non_finite_rejected(self, values, bad, position):
        v = np.insert(np.array(values, dtype=float), min(position, len(values)), bad)
        with pytest.raises(InvalidArgumentError):
            sign_quantize(v)

    def test_measure_rejects_non_finite_signal(self):
        A = MeasurementEnsemble(matrix=np.eye(4), seed=0)
        with pytest.raises(InvalidArgumentError):
            measure(A, [np.nan, 0.0, 0.0, 0.0])


def _assert_near_dense(y, dense):
    """The gathered product rounds unlike the dense one: equal within 1e-12 of its scale, same signs."""
    assert np.max(np.abs(y - dense)) <= 1e-12 * np.max(np.abs(dense))
    assert np.array_equal(y > 0, dense > 0)


class TestMeasure:
    def test_identity_embedding_rows(self):
        A = MeasurementEnsemble(matrix=np.eye(3), seed=0)
        b = measure(A, np.array([1.0, 0.0, 0.0]))
        # A e_1 is the first column (1, 0, 0); zeros quantize to -1
        assert b.bits.tolist() == [1.0, -1.0, -1.0]

    def test_scale_invariance(self):
        A = gen_gaussian_matrix(11, 200, 40)
        x = gen_sparse_signal(12, 40, 5).values
        assert np.array_equal(measure(A, x).bits, measure(A, 3.0 * x).bits)
        assert np.array_equal(measure(A, x).bits, measure(A, 0.001 * x).bits)

    def test_deterministic_with_noise(self):
        A = gen_gaussian_matrix(13, 50, 10)
        x = gen_sparse_signal(14, 10, 2).values
        b1 = measure(A, x, noise_std=0.5, noise_seed=99)
        b2 = measure(A, x, noise_std=0.5, noise_seed=99)
        assert np.array_equal(b1.bits, b2.bits)

    def test_noise_changes_some_bits(self):
        A = gen_gaussian_matrix(13, 400, 10)
        x = gen_sparse_signal(14, 10, 2).values
        assert not np.array_equal(
            measure(A, x).bits, measure(A, x, noise_std=3.0, noise_seed=1).bits
        )

    def test_zero_noise_draws_nothing(self):
        A = gen_gaussian_matrix(13, 50, 10)
        x = gen_sparse_signal(14, 10, 2).values
        nz = np.flatnonzero(x)
        y = linear_measurements(A, x)
        assert y.tobytes() == (A.matrix[:, nz] @ x[nz]).tobytes()
        _assert_near_dense(y, A.matrix @ x)

    def test_support_gather_product(self):
        # the one form of A x: the support's columns times the nonzeros, with the noise added after
        A = gen_gaussian_matrix(13, 300, 400)
        x = gen_sparse_signal(14, 400, 5).values
        nz = np.flatnonzero(x)
        noise = generator_for(15).normal(0.0, 0.5, 300)
        y = linear_measurements(A, x, 0.5, 15)
        assert y.tobytes() == (A.matrix[:, nz] @ x[nz] + noise).tobytes()
        _assert_near_dense(y, A.matrix @ x + noise)
        assert np.array_equal(measure(A, x).bits, np.where(A.matrix @ x > 0, 1.0, -1.0))

    def test_zero_vector_measures_zero(self):
        A = gen_gaussian_matrix(13, 20, 10)
        assert linear_measurements(A, np.zeros(10)).tolist() == [0.0] * 20
        assert measure(A, np.zeros(10)).bits.tolist() == [-1.0] * 20

    def test_dimension_mismatch(self):
        A = gen_gaussian_matrix(1, 5, 4)
        with pytest.raises(InvalidArgumentError):
            measure(A, np.ones(3))

    def test_negative_noise_rejected(self):
        A = gen_gaussian_matrix(1, 5, 4)
        with pytest.raises(InvalidArgumentError):
            measure(A, np.ones(4), noise_std=-0.1)

    @pytest.mark.parametrize("noise", [float("nan"), float("inf")])
    @pytest.mark.parametrize("take", [linear_measurements, measure])
    def test_non_finite_noise_rejected(self, take, noise):
        # NaN compares false both ways, so it once passed as noiseless
        A = gen_gaussian_matrix(1, 5, 4)
        with pytest.raises(InvalidArgumentError, match="finite"):
            take(A, np.ones(4), noise_std=noise)


# m below, at and across multiples of the draw's 512-row blocks
_COPY_ROWS = st.integers(0, 3).flatmap(lambda k: st.integers(max(1, 512 * k - 2), 512 * k + 2))


class TestColumnCopy:
    @settings(max_examples=40, deadline=None)
    @given(seed=_SEEDS, m=_COPY_ROWS, n=st.integers(1, 24), data=st.data(), noisy=st.booleans())
    @example(seed=3, m=1, n=1, data=None, noisy=False)
    @example(seed=4, m=1025, n=24, data=None, noisy=True)
    def test_product_from_the_copy_is_bitwise_the_row_major_one(self, seed, m, n, data, noisy):
        A = gen_gaussian_matrix(seed, m, n)
        copied = model._with_columns(A)
        s = n if data is None else data.draw(st.integers(1, n), label="support size")
        x = gen_sparse_signal(seed % 1000, n, s).values
        nz = np.flatnonzero(x)
        noise = 0.3 if noisy else 0.0
        assert copied.matrix is A.matrix
        assert np.array_equal(copied._columns, A.matrix) and not copied._columns.flags.writeable
        assert copied._columns.flags.f_contiguous
        # the gathered block has the layout, and so the BLAS call, of A.matrix[:, nz]
        assert copied._columns[:, nz].flags.f_contiguous
        assert copied._columns[:, nz].strides == A.matrix[:, nz].strides
        y = linear_measurements(copied, x, noise, seed % 7)
        assert y.tobytes() == linear_measurements(A, x, noise, seed % 7).tobytes()
        assert np.array_equal(measure(copied, x, noise, seed % 7).bits, np.where(y > 0, 1.0, -1.0))


class TestRngStream:
    def test_distinct_indices_distinct_streams(self):
        draws = {
            generator_for(substream_seed(5, i)).standard_normal() for i in range(100)
        }
        assert len(draws) == 100

    def test_same_address_same_stream(self):
        a = generator_for(substream_seed(5, 3)).standard_normal(4)
        b = generator_for(substream_seed(5, 3)).standard_normal(4)
        assert np.array_equal(a, b)


class TestDomainTypes:
    def test_sparse_vector_budget_enforced(self):
        with pytest.raises(InvalidArgumentError):
            SparseVector(values=np.ones(4), sparsity_budget=2)

    def test_sparse_vector_accepts_slack(self):
        v = SparseVector(values=np.array([1.0, 0.0, 0.0]), sparsity_budget=2)
        assert v.n == 3

    def test_unit_vector_norm_enforced(self):
        with pytest.raises(InvalidArgumentError):
            UnitSparseVector(values=np.array([1.0, 1.0, 0.0]), sparsity_budget=2)

    def test_binary_observation_rejects_other_values(self):
        with pytest.raises(InvalidArgumentError):
            BinaryObservation(bits=np.array([1.0, 0.0]))

    def test_ensemble_shape_consistency(self):
        # m and N are the matrix's shape, not declared beside it
        A = MeasurementEnsemble(matrix=np.ones((2, 3)), seed=0)
        assert (A.m, A.N) == A.matrix.shape == (2, 3)
        for bad in (np.ones(3), np.ones((0, 3))):
            with pytest.raises(InvalidArgumentError):
                MeasurementEnsemble(matrix=bad, seed=0)

    # each type's constructor, returning the array it holds, the shape it takes and values it accepts
    _SIGNS = (1.0, -1.0, -1.0, 1.0)
    _WRAPPERS = [
        (lambda a: MeasurementEnsemble(matrix=a, seed=0).matrix, (2, 2), _SIGNS),
        (lambda a: SparseVector(values=a, sparsity_budget=4).values, (4,), _SIGNS),
        (lambda a: BinaryObservation(bits=a).bits, (4,), _SIGNS),
        # a unit vector is a SparseVector, so as_vector unwraps it as one
        (lambda a: model.as_vector(UnitSparseVector(values=a, sparsity_budget=1)), (4,), (1.0, 0.0, 0.0, 0.0)),
        (lambda a: model.as_vector(BinaryObservation(bits=a)), (4,), _SIGNS),
    ]
    _IDS = ["MeasurementEnsemble", "SparseVector", "BinaryObservation", "as_vector(UnitSparseVector)",
            "as_vector(BinaryObservation)"]

    @pytest.mark.parametrize("wrap, shape, values", _WRAPPERS, ids=_IDS)
    def test_c_contiguous_float64_input_is_frozen_in_place(self, wrap, shape, values):
        caller = np.array(values).reshape(shape).copy()
        held = wrap(caller)
        assert held is caller
        assert not caller.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            caller.flat[0] = 1.0

    @pytest.mark.parametrize("wrap, shape, values", _WRAPPERS, ids=_IDS)
    @pytest.mark.parametrize("make", [
        lambda v: np.array(v, dtype=np.float32),
        lambda v: np.array(v, dtype=np.int64),
        lambda v: np.array([[e, 0.0] for e in v]).ravel()[::2],  # strided view
    ], ids=["float32", "int", "strided"])
    def test_other_input_is_copied_and_left_writable(self, wrap, shape, values, make):
        caller = make(values).reshape(shape)
        held = wrap(caller)
        assert not np.shares_memory(held, caller)
        assert not held.flags.writeable
        caller.flat[0] = -1  # the caller's array stays its own
        assert held.flat[0] == 1.0
