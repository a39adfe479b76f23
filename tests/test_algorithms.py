"""Reconstruction algorithms: step semantics, trace invariants, baselines."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import onebitcs.algorithms as algorithms
from onebitcs import (
    DEFAULT_TAU,
    AlgorithmConfig,
    BinaryObservation,
    DegenerateIterateError,
    InvalidArgumentError,
    MeasurementEnsemble,
    biht_run,
    gen_gaussian_matrix,
    gen_sparse_signal,
    hamming_distance,
    hard_threshold,
    iht_run,
    linear_measurements,
    measure,
    nbiht_run,
    one_shot_estimate,
    sparse_dual_norm,
)
from onebitcs.algorithms import _ForwardSigns
from onebitcs.model import _sign
from onebitcs.rng import generator_for, substream_seed
from oracles import biht_run_scalar, iht_run_scalar, nbiht_run_scalar, nbiht_step_scalar


def _instance(seed, n=16, s=3, m=24):
    x = gen_sparse_signal(substream_seed(seed, 0), n, s)
    A = gen_gaussian_matrix(substream_seed(seed, 1), m, n)
    return x, A, measure(A, x.values)


def _assert_same_run(t1, t2):
    assert np.array_equal(t1.estimate.view(np.uint64), t2.estimate.view(np.uint64))
    assert t1.sign_agreement == t2.sign_agreement
    assert t1.errors_vs_truth == t2.errors_vs_truth
    assert t1.stop_reason == t2.stop_reason


def _one_step(rows, bits, tau, s, init_seed):
    """One normalized step of the run kernel from gen_sparse_signal(init_seed, N, s)."""
    A = MeasurementEnsemble(matrix=np.asarray(rows), seed=0)
    cfg = AlgorithmConfig(s=s, tau=tau, max_iters=1, init_seed=init_seed)
    return nbiht_run(A, BinaryObservation(bits=np.asarray(bits)), cfg).estimate


class TestNbihtStep:
    def test_matches_scalar_loop_oracle_on_hand_instance(self):
        rows = [[1.0, 0.5, -2.0], [0.25, -1.0, 0.75], [3.0, 0.0, 1.0], [-0.5, 2.0, -1.0]]
        bits = [1.0, -1.0, -1.0, 1.0]
        x0 = [1.0, 0.0, 0.0]
        assert gen_sparse_signal(11, 3, 1).values.tolist() == x0  # the run's start
        got = _one_step(rows, bits, DEFAULT_TAU, 1, init_seed=11)
        want = nbiht_step_scalar(rows, bits, x0, DEFAULT_TAU, 1)
        assert np.max(np.abs(got - np.array(want))) <= 1e-12

    def test_matches_scalar_loop_oracle_randomized(self):
        rng = generator_for(77)
        for case in range(100):
            n = int(rng.integers(2, 17))
            m = int(rng.integers(1, 25))
            s = int(rng.integers(1, n + 1))
            rows = rng.standard_normal((m, n))
            bits = np.where(rng.standard_normal(m) > 0, 1.0, -1.0)
            x0 = gen_sparse_signal(case, n, s).values
            tau = float(rng.uniform(0.2, 2.5))
            want = nbiht_step_scalar(rows.tolist(), bits.tolist(), x0.tolist(), tau, s)
            got = _one_step(rows, bits, tau, s, init_seed=case)
            assert np.max(np.abs(got - np.array(want))) <= 1e-12


class TestNbihtRunOracle:
    RUNS = {"nbiht": (nbiht_run, nbiht_run_scalar), "biht": (biht_run, biht_run_scalar),
            "iht": (iht_run, iht_run_scalar)}

    @pytest.mark.parametrize("run", list(RUNS))
    def test_gathered_runs_match_scalar_loop_oracle(self, run, monkeypatch):
        # N >= 8s, so every A x_k is taken on gathered support columns; a tenth
        # of the measurements is negated, so no start is sign-consistent for
        # long. nbiht and biht take A^T (b - sign(A x_k)) either by the row
        # gather of _sign_gradient (few disagreeing rows) or by the dense
        # adjoint, and both branches are reached; iht always takes the dense one
        reused, gathered_rows = [], []
        gather, gradient = _ForwardSigns._gather, algorithms._sign_gradient

        def counting_gather(forward, nz):
            reused.append(np.intersect1d(forward.cols, nz).size > 0)
            return gather(forward, nz)

        def counting_gradient(matrix, bits, signs, rows):
            gathered_rows.append(rows.size <= matrix.shape[0] // 8)
            return gradient(matrix, bits, signs, rows)

        monkeypatch.setattr(_ForwardSigns, "_gather", counting_gather)
        monkeypatch.setattr(algorithms, "_sign_gradient", counting_gradient)
        solver, oracle = self.RUNS[run]
        rng = generator_for(78)
        skipped = 0
        for case in range(60):
            s = int(rng.integers(1, 5))
            n = int(rng.integers(8 * s, 8 * s + 17))
            m = int(rng.integers(16, 49))
            k = int(rng.integers(1, 16))
            rows = rng.standard_normal((m, n))
            y = rows @ gen_sparse_signal(substream_seed(78, case, 0), n, s).values
            y[rng.choice(m, m // 10, replace=False)] *= -1.0
            bits = _sign(y)
            tau = float(rng.uniform(0.2, 2.5))
            init_seed = substream_seed(78, case, 1)
            x0 = gen_sparse_signal(init_seed, n, s).values
            if run == "iht":
                want = oracle(rows.tolist(), y.tolist(), x0.tolist(), s, k)
            else:
                want = oracle(rows.tolist(), bits.tolist(), x0.tolist(), tau, s, k)
            want = [np.array(x) for x in want]
            if min(np.min(np.abs(rows @ x)) / np.linalg.norm(x) for x in want) < 1e-9:
                skipped += 1  # a sign too close to call: the two products may round apart
                continue
            cfg = AlgorithmConfig(s=s, tau=tau, max_iters=k, stop_tol=0.0, init_seed=init_seed)
            A = MeasurementEnsemble(matrix=rows, seed=0)
            got = solver(A, y if run == "iht" else BinaryObservation(bits=bits), cfg)
            assert got.iterations_used == len(want) - 1
            if run == "iht":  # raw iterates, whose scale grows when a step expands
                assert np.max(np.abs(got.estimate - want[-1])) <= 1e-12 * np.max(np.abs(want[-1]))
            else:  # unit iterates, or a raw last iterate reported unit
                assert np.max(np.abs(got.estimate - want[-1] / np.linalg.norm(want[-1]))) <= 1e-12
        assert skipped <= 3
        assert any(reused)
        assert set(gathered_rows) == (set() if run == "iht" else {True, False})


class TestForwardSigns:
    def test_signs_match_support_gather_bitwise(self):
        # the product itself is linear_measurements' at every support size
        n, m = 64, 48
        A = gen_gaussian_matrix(substream_seed(4, 1), m, n)
        matrix = A.matrix
        rng = generator_for(substream_seed(4, 2))
        supports = [
            [3, 10, 41],  # first support
            [3, 10, 41],  # unchanged support, new values
            [3, 20, 41, 63],  # partial overlap
            [0, 5, 6, 7],  # disjoint
            list(range(0, 60, 5)),  # 12 > N/8 columns, gathered as well
            [],  # the zero vector
            [1, 5, 62],  # a small support after the zero vector
            [5],  # one column
        ]
        forward_signs = _ForwardSigns(matrix)
        for support in supports:
            x = np.zeros(n)
            x[support] = rng.standard_normal(len(support))
            nz = np.flatnonzero(x)
            expected = np.where(matrix[:, nz] @ x[nz] > 0, 1.0, -1.0)
            product = forward_signs.product(x)
            assert product.tobytes() == linear_measurements(A, x).tobytes()
            assert np.array_equal(_sign(product).view(np.uint64), expected.view(np.uint64))
            assert set(forward_signs.cols.tolist()) <= set(nz.tolist())
            gathered = matrix[:, forward_signs.cols]
            assert np.array_equal(forward_signs.block, gathered)
            assert forward_signs.block.strides == gathered.strides  # the layout BLAS sees


class TestNbihtRun:
    def test_trace_entries_unit_and_sparse(self):
        # the estimate after k steps is the k-th iterate
        x, A, b = _instance(4, n=32, s=4, m=128)
        for k in range(1, 41):
            trace = nbiht_run(A, b, AlgorithmConfig(s=4, max_iters=k, init_seed=9), truth=x)
            assert np.count_nonzero(trace.estimate) <= 4
            assert abs(np.linalg.norm(trace.estimate) - 1.0) <= 1e-10

    def test_sequences_share_length(self):
        x, A, b = _instance(5, n=32, s=4, m=128)
        trace = nbiht_run(A, b, AlgorithmConfig(s=4, max_iters=30, init_seed=2), truth=x)
        assert len(trace.sign_agreement) == len(trace.errors_vs_truth) == trace.iterations_used + 1
        assert trace.stop_reason in ("max_iters", "converged", "degenerate")

    def test_deterministic_traces(self):
        x, A, b = _instance(6, n=32, s=4, m=128)
        cfg = AlgorithmConfig(s=4, max_iters=30, init_seed=5)
        _assert_same_run(nbiht_run(A, b, cfg, truth=x), nbiht_run(A, b, cfg, truth=x))

    def test_truth_start_stops_immediately(self):
        x, A, b = _instance(7, n=32, s=4, m=256)
        cfg = AlgorithmConfig(s=4, init_seed=substream_seed(7, 0))  # _instance's signal stream: x itself
        trace = nbiht_run(A, b, cfg, truth=x)
        assert trace.iterations_used == 0 and trace.stop_reason == "converged"
        assert trace.errors_vs_truth == [0.0]

    def test_matched_filter_initialization(self):
        x, A, b = _instance(8, n=64, s=4, m=512)
        trace = nbiht_run(A, b, AlgorithmConfig(s=4, init="matched_filter", max_iters=50), truth=x)
        start = one_shot_estimate(A, b, 4)
        assert trace.sign_agreement[0] == 1.0 - hamming_distance(measure(A, start), b)
        assert trace.errors_vs_truth[0] == float(np.linalg.norm(start - x.values))

    def test_last_agreement_is_the_estimates_hamming_agreement(self):
        # the loop counts the disagreeing rows of sign(A x) once per iterate; a
        # tenth of the bits flipped keeps every iterate short of sign consistency
        _, A, b = _instance(21, n=48, s=4, m=200)
        bits = b.bits.copy()
        bits[::10] *= -1.0
        trace = nbiht_run(A, bits, AlgorithmConfig(s=4, max_iters=30, init_seed=4))
        assert trace.sign_agreement[-1] < 1.0
        assert trace.sign_agreement[-1] == 1.0 - hamming_distance(measure(A, trace.estimate), bits)

    def test_sign_agreement_within_unit_interval(self):
        x, A, b = _instance(9, n=32, s=4, m=128)
        trace = nbiht_run(A, b, AlgorithmConfig(s=4, max_iters=25, init_seed=1), truth=x)
        assert all(0.0 <= a <= 1.0 for a in trace.sign_agreement)

    def test_recovery_scale_invariance_bit_for_bit(self):
        x, A, _ = _instance(10, n=32, s=4, m=256)
        b1 = measure(A, x.values)
        b2 = measure(A, 5.0 * x.values)
        assert np.array_equal(b1.bits, b2.bits)
        cfg = AlgorithmConfig(s=4, max_iters=40, init_seed=3)
        _assert_same_run(nbiht_run(A, b1, cfg), nbiht_run(A, b2, cfg))


class TestBihtRun:
    def test_sign_consistent_start_is_fixed_point(self):
        x, A, b = _instance(11, n=32, s=4, m=256)
        cfg = AlgorithmConfig(s=4, init_seed=substream_seed(11, 0))  # x itself
        trace = biht_run(A, b, cfg, truth=x)
        assert trace.iterations_used == 0 and trace.stop_reason == "converged"
        assert trace.errors_vs_truth == [0.0]

    def test_iterates_sparse_but_not_normalized(self):
        x, A, b = _instance(12, n=48, s=5, m=96)
        cfg = AlgorithmConfig(s=5, max_iters=1, init_seed=substream_seed(12, 2))
        biht = biht_run(A, b, cfg, truth=x)
        nbiht = nbiht_run(A, b, cfg, truth=x)
        assert biht.iterations_used == nbiht.iterations_used == 1
        # the same step, normalized only when reported ...
        assert np.array_equal(biht.estimate, nbiht.estimate)
        assert np.count_nonzero(biht.estimate) <= 5
        # ... while the raw subgradient iterate the error was taken on is off the sphere
        assert biht.errors_vs_truth[0] == nbiht.errors_vs_truth[0]
        assert biht.errors_vs_truth[1] != nbiht.errors_vs_truth[1]

    def test_reported_estimate_is_unit(self):
        x, A, b = _instance(13, n=48, s=5, m=96)
        trace = biht_run(A, b, AlgorithmConfig(s=5, max_iters=30, init_seed=8), truth=x)
        assert abs(np.linalg.norm(trace.estimate) - 1.0) <= 1e-12


@pytest.mark.parametrize("run", [nbiht_run, biht_run])
class TestDegenerateRun:
    # init seed 0 draws x0 = (1.0,), whose signs (1, -1) meet b = (-1, 1): z = 1 + (0.5/2) * (-4) = 0
    A = MeasurementEnsemble(matrix=np.array([[1.0], [-1.0]]), seed=0)
    b = BinaryObservation(bits=np.array([-1.0, 1.0]))

    def test_keep_previous_stops(self, run):
        trace = run(self.A, self.b, AlgorithmConfig(s=1, tau=0.5, init_seed=0))
        assert trace.stop_reason == "degenerate" and trace.iterations_used == 0
        assert trace.estimate.tolist() == [1.0]


class TestIhtRun:
    def test_truth_start_is_fixed_point(self):
        x, A, _ = _instance(14, n=32, s=4, m=64)
        y = A.matrix @ x.values
        cfg = AlgorithmConfig(s=4, init_seed=substream_seed(14, 0))  # x itself
        trace = iht_run(A, y, cfg, truth=x)
        assert trace.iterations_used == 0 and trace.stop_reason == "converged"
        assert trace.errors_vs_truth == [0.0]

    def test_noiseless_exact_recovery(self):
        hits = 0
        for t in range(20):
            x = gen_sparse_signal(substream_seed(600, t, 0), 128, 3)
            A = gen_gaussian_matrix(substream_seed(600, t, 1), 120, 128)
            trace = iht_run(
                A, A.matrix @ x.values,
                AlgorithmConfig(s=3, max_iters=200, init_seed=substream_seed(600, t, 2)),
                truth=x,
            )
            hits += trace.final_error < 1e-6
        assert hits >= 19

    def test_dimension_mismatch(self):
        x, A, _ = _instance(15)
        with pytest.raises(InvalidArgumentError):
            iht_run(A, np.ones(A.m + 1), AlgorithmConfig(s=2))

    @pytest.mark.parametrize("seed", range(4))
    def test_gathered_residual_matches_reference_step(self, seed):
        # the residual uses A[:, nz] @ x[nz], the product sign(A x) was taken from
        n, s, m = 256, 4, 200
        x, A, _ = _instance(700 + seed, n=n, s=s, m=m)
        matrix = A.matrix
        y = matrix @ x.values + 0.05 * generator_for(substream_seed(700, seed)).standard_normal(m)
        cfg = AlgorithmConfig(s=s, max_iters=60, stop_tol=0.0, init_seed=substream_seed(701, seed))
        trace = iht_run(A, y, cfg)

        xk = gen_sparse_signal(cfg.init_seed, n, s).values.copy()
        for iterations in range(cfg.max_iters):
            nz = np.flatnonzero(xk)
            x_new = hard_threshold(xk + matrix.T @ (y - matrix[:, nz] @ xk[nz]) / m, s)
            if float(np.linalg.norm(x_new - xk)) == 0.0:
                break
            xk = x_new
        else:
            iterations = cfg.max_iters
        assert trace.estimate.tobytes() == xk.tobytes()
        assert trace.iterations_used == iterations


class TestOneShot:
    def test_dimension_one_gives_sign(self):
        A = MeasurementEnsemble(matrix=np.array([[0.8], [-0.3], [1.2]]), seed=0)
        b = BinaryObservation(bits=np.array([1.0, 1.0, 1.0]))
        assert one_shot_estimate(A, b, 1).tolist() in ([1.0], [-1.0])

    def test_degenerate_raises(self):
        A = MeasurementEnsemble(matrix=np.array([[1.0], [-1.0]]), seed=0)
        b = BinaryObservation(bits=np.array([1.0, 1.0]))  # A^T b = 0 exactly
        with pytest.raises(DegenerateIterateError):
            one_shot_estimate(A, b, 1)

    def test_unit_sparse_output(self):
        x, A, b = _instance(16, n=64, s=4, m=256)
        est = one_shot_estimate(A, b, 4)
        assert np.count_nonzero(est) <= 4
        assert abs(np.linalg.norm(est) - 1.0) <= 1e-12


class TestProjectionBound:
    def test_normalized_projection_within_four_dual_norms(self):
        # composition of the sphere projection bound and the metric projection bound
        rng = generator_for(314)
        for _ in range(1000):
            n, s = 32, 3
            z = np.zeros(n)
            supp = rng.choice(n, s, replace=False)
            vals = rng.standard_normal(s)
            z[supp] = vals / np.linalg.norm(vals)
            w = z + 10.0 ** rng.uniform(-3, 1) * rng.standard_normal(n)
            from onebitcs import hard_threshold, normalize

            t = hard_threshold(w, s)
            if not np.any(t):
                continue
            lhs = float(np.linalg.norm(normalize(t) - z))
            assert lhs <= 4.0 * sparse_dual_norm(w - z, s) + 1e-10


class TestRawInputValidation:
    """Raw observations are checked as BinaryObservation and sign_quantize check theirs."""

    BINARY = [
        ("nbiht_run", lambda A, b: nbiht_run(A, b, AlgorithmConfig(s=3, max_iters=5))),
        ("biht_run", lambda A, b: biht_run(A, b, AlgorithmConfig(s=3, max_iters=5))),
        ("one_shot_estimate", lambda A, b: one_shot_estimate(A, b, 3)),
    ]

    @pytest.mark.parametrize("name,run", BINARY, ids=[name for name, _ in BINARY])
    @given(bad=st.sampled_from([math.nan, math.inf, -math.inf, 0.0, 0.5, -2.0]), at=st.integers(0, 23))
    @settings(max_examples=20, deadline=None)
    def test_bits_not_all_plus_minus_one_rejected(self, name, run, bad, at):
        _, A, b = _instance(18)
        bits = b.bits.copy()
        bits[at] = bad
        with pytest.raises(InvalidArgumentError, match="only -1 and \\+1"):
            run(A, bits)

    @pytest.mark.parametrize("name,run", BINARY, ids=[name for name, _ in BINARY])
    def test_raw_bits_run_as_the_observation(self, name, run):
        _, A, b = _instance(18)
        raw, wrapped = run(A, list(b.bits)), run(A, b)
        if isinstance(raw, np.ndarray):
            assert raw.tobytes() == wrapped.tobytes()
        else:
            _assert_same_run(raw, wrapped)

    @given(bad=st.sampled_from([math.nan, math.inf, -math.inf]), at=st.integers(0, 23))
    @settings(max_examples=20, deadline=None)
    def test_nonfinite_measurements_rejected(self, bad, at):
        x, A, _ = _instance(19)
        y = A.matrix @ x.values
        y[at] = bad
        with pytest.raises(InvalidArgumentError, match="measurements must be finite"):
            iht_run(A, y, AlgorithmConfig(s=3, max_iters=5))


class TestNonFiniteMatrix:
    """A caller's matrix with a NaN or inf entry is rejected before any solver runs on it."""

    ENTRIES = TestRawInputValidation.BINARY + [
        ("iht_run", lambda A, b: iht_run(A, b.bits, AlgorithmConfig(s=3, max_iters=5))),
    ]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name,run", ENTRIES, ids=[name for name, _ in ENTRIES])
    def test_rejected_for_every_entry_point(self, name, run, bad):
        _, A, b = _instance(20, n=64, m=256)
        matrix = A.matrix.copy()
        matrix[17, 5] = bad
        with pytest.raises(InvalidArgumentError, match="matrix entries must be finite"):
            run(MeasurementEnsemble(matrix=matrix, seed=0), b)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(s=0),
            dict(s=2, tau=0.0),
            dict(s=2, tau=-1.0),
            dict(s=2, max_iters=0),
            dict(s=2, stop_tol=-1e-3),
            dict(s=2, init="zeros"),
            dict(s="2"),  # rejected, not parsed
            dict(s=2, init="provided"),
            dict(s=2, tau=math.inf),
            dict(s=2, tau=math.nan),
            dict(s=2, stop_tol=math.nan),
            dict(s=2.5),  # rejected, not left to fail in a run
            dict(s=2, max_iters=2.5),
        ],
    )
    def test_rejected(self, kwargs):
        with pytest.raises(InvalidArgumentError):
            AlgorithmConfig(**kwargs)
