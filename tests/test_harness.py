"""Sweep execution: determinism, pairing, seed hygiene, pool set-up, slope fitting."""

import dataclasses
import multiprocessing
import os
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import onebitcs.harness as harness
import onebitcs.model as model
import onebitcs.probes as probes
from onebitcs import (
    DegenerateIterateError,
    InvalidArgumentError,
    MeasurementEnsemble,
    SweepConfig,
    SweepRecord,
    check_embedding,
    check_unbiasedness,
    fit_slope,
    gen_gaussian_matrix,
    run_sweep,
)
from onebitcs.cli import parse_and_dispatch
from onebitcs.harness import build_manifest, error_stat_by_m, run_from_manifest, trial_seed_table
from onebitcs.rng import generator_for


def _appender(path):
    """A function that appends its argument to ``path`` as a line, from any process."""

    def append(value):
        with open(path, "a") as log:
            log.write(f"{value}\n")

    return append


def _lines(path) -> list[str]:
    return path.read_text().splitlines() if path.exists() else []


def _small_config(**overrides):
    base = dict(
        n=32, s=3, m_grid=(64, 128, 256), algorithms=("nbiht", "one_shot"),
        trials_per_cell=3, master_seed=9, max_iters=40,
    )
    base.update(overrides)
    return SweepConfig(**base)


class TestRunSweep:
    def test_record_cardinality(self):
        cfg = _small_config(m_grid=(256, 512), algorithms=("nbiht",), trials_per_cell=2)
        records, _ = run_sweep(cfg)
        assert len(records) == 4

    def test_records_sorted_canonically(self):
        records, _ = run_sweep(_small_config())
        keys = [(r.algorithm, r.m, r.trial_index) for r in records]
        assert keys == sorted(keys)

    def test_rerun_identical(self):
        cfg = _small_config()
        r1, _ = run_sweep(cfg)
        r2, _ = run_sweep(cfg)
        assert [r.comparable() for r in r1] == [r.comparable() for r in r2]

    def test_worker_count_invariance(self):
        cfg = _small_config()
        r1, _ = run_sweep(cfg, workers=1)
        r2, _ = run_sweep(cfg, workers=2)
        assert [r.comparable() for r in r1] == [r.comparable() for r in r2]

    def test_errors_within_unit_sphere_diameter(self):
        cfg = _small_config(algorithms=("nbiht", "biht", "one_shot", "iht"))
        records, _ = run_sweep(cfg)
        assert all(0.0 <= r.final_l2_error <= 2.0 for r in records)

    def test_error_monotone_headline(self):
        cfg = _small_config(m_grid=(64, 512), trials_per_cell=8, algorithms=("nbiht",))
        records, _ = run_sweep(cfg)
        series = dict(error_stat_by_m(records, "nbiht"))
        assert series[512] < series[64]

    def test_pairing_invariant_under_algorithm_subset(self):
        # the instance streams depend only on (master_seed, m, trial), so adding
        # an algorithm must not change another algorithm's records
        solo, _ = run_sweep(_small_config(algorithms=("nbiht",)))
        both, _ = run_sweep(_small_config(algorithms=("nbiht", "one_shot")))
        nbiht_rows = [r.comparable() for r in both if r.algorithm == "nbiht"]
        assert nbiht_rows == [r.comparable() for r in solo]

    def test_cell_failures_recorded_not_raised(self, monkeypatch):
        import onebitcs.harness as harness

        def boom(*args, **kwargs):
            raise DegenerateIterateError("synthetic failure")

        monkeypatch.setattr(harness, "nbiht_run", boom)
        records, _ = run_sweep(_small_config(algorithms=("nbiht",)))
        assert all(r.stop_reason.startswith("error:") for r in records)
        assert all(0.0 <= r.final_l2_error <= 2.0 for r in records)

    def test_trial_reads_prefixes_of_one_draw(self, monkeypatch):
        calls = []
        real = harness.gen_gaussian_matrix

        def recording(seed, m, N, out=None, threads=None):
            calls.append((seed, m, out is None))
            return real(seed, m, N, out, threads)

        monkeypatch.setattr(harness, "gen_gaussian_matrix", recording)
        cfg = _small_config()
        run_sweep(cfg)
        # one blocked draw per trial, at the largest m, never into a page-mapped buffer of its own
        assert sorted(m for _, m, _ in calls) == [256] * cfg.trials_per_cell
        assert len({seed for seed, _, _ in calls}) == cfg.trials_per_cell
        assert not any(mapped for _, _, mapped in calls)

    def test_draw_joins_its_helpers_before_the_first_instance(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)  # let 3 helpers run on any host
        real = model.block_generator
        taken = []

        def slow(seed, i):
            taken.append(i)
            if threading.current_thread() is not threading.main_thread():
                time.sleep(0.02)
            return real(seed, i)

        monkeypatch.setattr(model, "block_generator", slow)
        cfg = _small_config(n=4, s=1, m_grid=(64, 512 * 40))
        start = threading.active_count()
        instances = harness.draw_instances(cfg, cfg.m_grid, trial_seed_table(cfg, 0), threads=4)
        assert [m for m, _ in instances] == [64, 512 * 40]
        assert threading.active_count() == start
        assert sorted(taken) == list(range(40))  # the whole draw, each block once

    def test_raising_task_joins_the_draw_helpers(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)  # let 3 helpers run on any host
        real = model.block_generator

        def slow(seed, i):
            if threading.current_thread() is not threading.main_thread():
                time.sleep(0.02)
            return real(seed, i)

        def boom(*args, **kwargs):
            raise InvalidArgumentError("rejected in the task")

        monkeypatch.setattr(model, "block_generator", slow)
        monkeypatch.setattr(harness, "nbiht_run", boom)
        cfg = _small_config(n=4, s=1, m_grid=(64,) + tuple(512 * k for k in range(1, 41)))
        start = threading.active_count()
        with pytest.raises(InvalidArgumentError, match="rejected in the task") as raised:
            harness._run_task(cfg, 0, trial_seed_table(cfg, 0), harness._thread_plan(1, 2))
        # the exception (and its traceback) is still held here
        assert raised.value is not None and threading.active_count() == start

    def test_rejected_setting_fails_before_the_draw(self, monkeypatch):
        taken = []
        real = model.block_generator

        def recording(seed, i):
            taken.append(i)
            return real(seed, i)

        monkeypatch.setattr(model, "block_generator", recording)
        with pytest.raises(InvalidArgumentError, match="tau"):
            run_sweep(_small_config(tau=float("inf")))
        assert taken == []

    def test_nested_instance_equals_direct_draw(self):
        cfg = _small_config(noise_std=0.3)
        seeds = trial_seed_table(cfg, 1)
        nested = dict(harness.draw_instances(cfg, cfg.m_grid, seeds))
        for m in cfg.m_grid:
            ((_, direct),) = harness.draw_instances(cfg, (m,), seeds)
            x, A, lin, b = nested[m]
            assert A.matrix.shape == (m, cfg.n) and A.matrix.flags.c_contiguous
            assert A.matrix.tobytes() == direct[1].matrix.tobytes()
            assert lin.tobytes() == direct[2].tobytes()
            assert b.bits.tobytes() == direct[3].bits.tobytes()
            assert np.shares_memory(A.matrix, nested[cfg.m_grid[-1]][1].matrix)

    @given(
        master_seed=st.integers(0, 2**64 - 1),
        trial=st.integers(0, 2),
        n=st.integers(1, 6),
        m_grid=st.sets(st.integers(1, 1200), min_size=1, max_size=3).map(sorted),
    )
    @settings(max_examples=20, deadline=None)
    def test_library_draw_is_the_trial_matrix(self, master_seed, trial, n, m_grid):
        # gen_gaussian_matrix from a trial's matrix seed is that trial's instance matrix at m
        cfg = _small_config(n=n, s=1, m_grid=m_grid, master_seed=master_seed)
        seeds = trial_seed_table(cfg, trial)
        for m, (_, A, _, _) in harness.draw_instances(cfg, cfg.m_grid, seeds, threads=2):
            assert A.matrix.tobytes() == gen_gaussian_matrix(seeds["matrix"], m, n).matrix.tobytes()

    def test_measurements_by_support_gather(self):
        # A x is taken on the signal's support columns, which rounds unlike a dense product
        cfg = _small_config(n=512, s=4, m_grid=(600, 1100))  # rows across a draw block boundary
        seeds = trial_seed_table(cfg, 0)
        for m, (x, A, lin, b) in harness.draw_instances(cfg, cfg.m_grid, seeds):
            nz = np.flatnonzero(x.values)
            expected = A.matrix[:, nz] @ x.values[nz]
            assert lin.tobytes() == expected.tobytes()
            assert np.array_equal(b.bits, np.where(expected > 0, 1.0, -1.0))

    def test_matrices_beyond_physical_memory_rejected(self, monkeypatch):
        # a 256 x 32 float64 matrix per process is 64 KiB, against 96 KiB of memory
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 24}
        real = os.sysconf  # the solver processes' pool asks for other names
        monkeypatch.setattr(os, "sysconf", lambda name: pages[name] if name in pages else real(name))
        cfg = _small_config()
        run_sweep(cfg, workers=1)
        with pytest.raises(InvalidArgumentError, match=r"2 process\(es\) x 256 x 32 .* need 0\.000122 GiB"):
            run_sweep(cfg, workers=2)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, workers):
        cfg = _small_config()
        with pytest.raises(InvalidArgumentError, match=f"workers must be >= 1, got {workers}"):
            run_sweep(cfg, workers=workers)
        with pytest.raises(InvalidArgumentError, match=f"workers must be >= 1, got {workers}"):
            run_from_manifest(build_manifest(cfg), workers=workers)

    def test_rejected_setting_raises_instead_of_rows(self):
        # an infinite tau fails every run alike: a validation error, not error rows
        with pytest.raises(InvalidArgumentError, match="tau"):
            run_sweep(_small_config(tau=float("inf")))

    @pytest.mark.parametrize("seed", [-1, 2**64, 5.5])  # 5.5 would otherwise run seed 5's tables
    def test_master_seed_outside_64_bits_rejected(self, seed):
        # rng rejects it as build_manifest derives the seed tables, before any draw
        with pytest.raises(InvalidArgumentError, match=rf"seed must be in \[0, 2\^64\), got {seed}"):
            run_sweep(_small_config(master_seed=seed))

    def test_largest_master_seed_accepted(self):
        records, manifest = run_sweep(_small_config(master_seed=2**64 - 1, trials_per_cell=1))
        assert manifest.config.master_seed == 2**64 - 1 and len(records) == 6

    def test_config_validation(self):
        with pytest.raises(InvalidArgumentError):
            _small_config(m_grid=(256, 128))
        with pytest.raises(InvalidArgumentError):
            _small_config(algorithms=("gradient_descent",))
        with pytest.raises(InvalidArgumentError):
            _small_config(trials_per_cell=0)
        with pytest.raises(InvalidArgumentError):
            _small_config(value_rule="cauchy")
        with pytest.raises(InvalidArgumentError):
            _small_config(noise_std=float("nan"))
        with pytest.raises(InvalidArgumentError, match="each algorithm may be listed once"):
            _small_config(algorithms=("nbiht", "one_shot", "nbiht"))


class _RecordingPool:
    """Stands in for the worker pool's ProcessPoolExecutor: records its arguments,
    runs the cells in this process and never calls the initializer, so no BLAS
    setting changes. A one-process sweep's solver processes are real ones."""

    created = []

    def __new__(cls, **kwargs):
        if kwargs.get("initializer") is harness._start_solver:
            return ProcessPoolExecutor(**kwargs)
        return super().__new__(cls)

    def __init__(self, **kwargs):
        self.kwargs = kwargs
        _RecordingPool.created.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        return map(fn, *iterables)


def _worker_blas_threads(_):
    return harness._loaded_blas_function(harness._BLAS_GETTERS)()


class TestPool:
    @pytest.fixture
    def fake_pool(self, monkeypatch):
        _RecordingPool.created = []
        monkeypatch.setattr(harness, "ProcessPoolExecutor", _RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 12)
        return _RecordingPool.created

    def test_pool_capped_at_cell_count(self, fake_pool):
        # the cap is the task count: one task per trial
        cfg = _small_config(m_grid=(64, 128, 256), trials_per_cell=2)  # 6 cells in 2 trials
        records, manifest = run_sweep(cfg, workers=64)
        (pool,) = fake_pool
        assert pool.kwargs == {
            "max_workers": 2, "initializer": harness._pin_blas_threads, "initargs": (1,),
        }  # a share of 12 // 2 = 6 threads solves a trial's 6 runs at once, BLAS on one
        assert manifest.workers == 2
        assert manifest.blas_threads_per_worker == _pinned(1)
        assert len(records) == 12

    def test_threads_derived_from_pool_size(self, fake_pool):
        _, manifest = run_sweep(_small_config(trials_per_cell=6), workers=5)
        assert manifest.draw_threads == 12 // 5
        _, manifest = run_sweep(_small_config(trials_per_cell=20), workers=60)
        assert manifest.draw_threads == 1  # never below one thread
        # BLAS at one thread fewer than the share, never below one
        assert [pool.kwargs["initargs"] for pool in fake_pool] == [(12 // 5 - 1,), (1,)]

    def test_single_cell_runs_serially(self, fake_pool):
        cfg = _small_config(m_grid=(64,), trials_per_cell=1)
        _, manifest = run_sweep(cfg, workers=8)
        assert fake_pool == []
        # 12 CPUs for 2 runs: 2 solver processes, BLAS at one fewer than 12 // 2
        assert (manifest.workers, manifest.blas_threads_per_worker) == (1, _pinned(5))

    def test_draw_threads_are_the_process_share(self, fake_pool, monkeypatch):
        # 12 CPUs: every one on the serial path, 12 // pool size in a pool
        given = []
        real = harness.gen_gaussian_matrix

        def recording(seed, m, N, out=None, threads=None):
            given.append(threads)
            return real(seed, m, N, out, threads)

        monkeypatch.setattr(harness, "gen_gaussian_matrix", recording)
        cfg = _small_config(trials_per_cell=2)
        manifests = [
            run_sweep(cfg, workers=1)[1],
            run_sweep(cfg, workers=2)[1],
        ]
        assert given == [12] * 2 + [6] * 2
        assert [m.draw_threads for m in manifests] == [12, 6]

    def test_default_threads_recorded_without_setter(self, fake_pool, monkeypatch):
        monkeypatch.setattr(harness, "_loaded_blas_function", lambda names: None)
        _, manifest = run_sweep(_small_config(), workers=2)
        assert (manifest.workers, manifest.blas_threads_per_worker) == (2, "default")

    def test_pin_without_library_returns_quietly(self, monkeypatch):
        def no_maps(*args, **kwargs):
            raise OSError("no /proc here")

        monkeypatch.setattr(harness, "open", no_maps, raising=False)
        assert harness._loaded_blas_function(harness._BLAS_SETTERS) is None
        assert harness._pin_blas_threads(1) is None

    def test_pin_without_symbol_returns_quietly(self, monkeypatch):
        assert harness._loaded_blas_function(("no_such_blas_symbol",)) is None
        monkeypatch.setattr(harness, "_BLAS_SETTERS", ("no_such_blas_symbol",))
        assert harness._pin_blas_threads(1) is None

    def test_workers_run_pinned_thread_count(self):
        if harness._loaded_blas_function(harness._BLAS_GETTERS) is None:
            pytest.skip("no OpenBLAS thread getter in this process")
        expected = max(1, (os.cpu_count() or 1) // 2)
        with ProcessPoolExecutor(
            max_workers=2, initializer=harness._pin_blas_threads, initargs=(expected,)
        ) as pool:
            seen = list(pool.map(_worker_blas_threads, range(4)))
        assert seen == [expected] * 4


def _pinned(threads: int) -> str:
    """What env.blas_threads_per_worker must read: ``threads`` whenever an OpenBLAS setter is found."""
    return "default" if harness._loaded_blas_function(harness._BLAS_SETTERS) is None else str(threads)


class TestThreadRule:
    # (cpus, pool size) -> (threads per process, BLAS threads for one run,
    # solvers and BLAS threads for a trial of RUNS runs); shares above 2
    # are unmeasured
    RUNS = 12  # 4 m values times 3 algorithms
    TABLE = [
        (1, 1, 1, 1, 1, 1), (1, 2, 1, 1, 1, 1), (1, 3, 1, 1, 1, 1),
        (2, 1, 2, 1, 2, 1), (2, 2, 1, 1, 1, 1), (2, 3, 1, 1, 1, 1),
        (4, 1, 4, 3, 4, 1), (4, 2, 2, 1, 2, 1), (4, 3, 1, 1, 1, 1), (4, 4, 1, 1, 1, 1),
        (12, 1, 12, 11, 12, 1), (12, 2, 6, 5, 6, 1), (12, 3, 4, 3, 4, 1), (12, 12, 1, 1, 1, 1),
        (64, 1, 64, 63, 12, 4), (64, 2, 32, 31, 12, 1), (64, 3, 21, 20, 12, 1), (64, 64, 1, 1, 1, 1),
    ]

    @pytest.mark.parametrize(
        "cpus,pool_size,share,blas,solvers,solver_blas", TABLE,
        ids=["-".join(map(str, row[:4])) for row in TABLE],
    )
    def test_share_and_blas_count(self, cpus, pool_size, share, blas, solvers, solver_blas, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert harness._thread_plan(pool_size) == (share, 1, blas)
        assert harness._thread_plan(pool_size, self.RUNS) == (share, solvers, solver_blas)

    def test_unknown_cpu_count_is_one(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert harness._thread_plan(1) == harness._thread_plan(1, self.RUNS) == (1, 1, 1)

    def test_set_inside_and_restored_after(self, blas_at_two, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        with harness.blas_threads() as count:
            assert count == blas_at_two() == 1
        assert blas_at_two() == 2

    def test_without_openblas_nothing_is_set(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(harness, "_loaded_blas_function", lambda names: None)
        with harness.blas_threads() as count:
            assert count == 3


class TestConcurrentSolves:
    """A trial's runs on solver processes: the same records, failures where they belong."""

    @staticmethod
    def _config(**overrides):
        return _small_config(algorithms=("biht", "iht", "nbiht", "one_shot"), noise_std=0.1, **overrides)

    def test_records_do_not_depend_on_the_thread_share(self, monkeypatch):
        # solved inline at a share of 1, and on 2 and 4 solver processes
        cfg = self._config()
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the draw helpers as finely as the interpreter allows
        try:
            by_share = {}
            for cpus in (1, 2, 4):
                monkeypatch.setattr(os, "cpu_count", lambda n=cpus: n)
                records, _ = run_sweep(cfg, workers=1)
                by_share[cpus] = [r.comparable() for r in records]
        finally:
            sys.setswitchinterval(switch)
        assert by_share[1] == by_share[2] == by_share[4]

    def test_failed_run_is_an_error_row_at_its_cell(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        cfg = self._config()
        expected, _ = run_sweep(cfg, workers=1)
        failing_matrix = trial_seed_table(cfg, 1)["matrix"]
        real = harness.biht_run

        def collapses_at_one_cell(A, b, algo_cfg):
            if (A.m, A.seed) == (128, failing_matrix):
                raise DegenerateIterateError("synthetic collapse")
            return real(A, b, algo_cfg)

        monkeypatch.setattr(harness, "biht_run", collapses_at_one_cell)
        records, _ = run_sweep(cfg, workers=1)
        failed = [r for r in records if r.stop_reason.startswith("error:")]
        assert [(r.algorithm, r.m, r.trial_index, r.stop_reason) for r in failed] == [
            ("biht", 128, 1, "error: synthetic collapse")
        ]
        assert [r.comparable() for r in records if r not in failed] == [
            r.comparable() for r in expected if (r.algorithm, r.m, r.trial_index) != ("biht", 128, 1)
        ]

    def test_draw_seconds_are_the_task_threads_own(self, monkeypatch):
        # overlapping runs take 6 x 50 ms in all, more than the task's own time,
        # so task time less solve time would read below the draw's 60 ms
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        real_draw, real_solve = harness.gen_gaussian_matrix, harness.solve

        def slow_draw(*args, **kwargs):
            time.sleep(0.06)
            return real_draw(*args, **kwargs)

        def slow_solve(*args, **kwargs):
            time.sleep(0.05)
            return real_solve(*args, **kwargs)

        monkeypatch.setattr(harness, "gen_gaussian_matrix", slow_draw)
        monkeypatch.setattr(harness, "solve", slow_solve)
        start = time.perf_counter()
        _, manifest = run_sweep(_small_config(trials_per_cell=1), workers=1)  # 3 m values, 2 algorithms
        assert 0.06 <= manifest.draw_s <= time.perf_counter() - start
        assert manifest.solve_s >= 6 * 0.05

    def test_rejected_setting_cancels_the_queued_runs(self, monkeypatch, tmp_path):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        started = tmp_path / "started"
        log_start = _appender(started)

        def slow(*args, **kwargs):
            log_start(os.getpid())
            time.sleep(0.05)
            raise DegenerateIterateError("never recorded")

        def boom(*args, **kwargs):
            raise InvalidArgumentError("rejected in a solver process")

        monkeypatch.setattr(harness, "biht_run", slow)
        monkeypatch.setattr(harness, "nbiht_run", boom)
        # 24 m values, one trial: 48 runs sent to 4 solver processes
        cfg = _small_config(n=8, s=1, m_grid=tuple(range(8, 200, 8)), algorithms=("biht", "nbiht"),
                            trials_per_cell=1)
        start = threading.active_count()
        with pytest.raises(InvalidArgumentError, match="rejected in a solver process"):
            run_sweep(cfg, workers=1)
        assert threading.active_count() == start and multiprocessing.active_children() == []
        assert 0 < len(_lines(started)) < len(cfg.m_grid)  # the queued runs were dropped, not run
        assert str(os.getpid()) not in _lines(started)


class TestSerialBlasThreads:
    def test_one_thread_during_the_sweep_and_restored(self, blas_at_two, monkeypatch, tmp_path):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)  # a share of 2: BLAS at one thread
        seen = tmp_path / "seen"
        log_seen = _appender(seen)
        real, real_signal = harness.nbiht_run, harness.gen_sparse_signal

        def recording(*args, **kwargs):
            log_seen(blas_at_two())  # in a solver process
            return real(*args, **kwargs)

        def recording_signal(*args, **kwargs):
            log_seen(blas_at_two())  # on the task thread, which draws
            return real_signal(*args, **kwargs)

        monkeypatch.setattr(harness, "nbiht_run", recording)
        monkeypatch.setattr(harness, "gen_sparse_signal", recording_signal)
        cfg = _small_config()
        run_sweep(cfg, workers=1)
        assert len(_lines(seen)) == cfg.trials_per_cell * (1 + len(cfg.m_grid))
        assert set(_lines(seen)) == {"1"}
        assert blas_at_two() == 2

    def test_restored_when_a_task_raises(self, blas_at_two, monkeypatch):
        def boom(*args, **kwargs):
            raise InvalidArgumentError("rejected in the task")

        monkeypatch.setattr(harness, "nbiht_run", boom)
        with pytest.raises(InvalidArgumentError, match="rejected in the task"):
            run_sweep(_small_config(), workers=1)
        assert blas_at_two() == 2


class TestSolverProcesses:
    """A one-process sweep at a share of 2: two forked solver processes, none outliving the sweep."""

    @pytest.fixture(autouse=True)
    def share_of_two(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)

    @staticmethod
    def _nothing_left(threads_at_start: int) -> bool:
        return multiprocessing.active_children() == [] and threading.active_count() == threads_at_start

    def test_runs_solved_in_solver_processes_that_end_with_the_sweep(self, monkeypatch, tmp_path):
        solved_in = tmp_path / "pids"
        log_pid = _appender(solved_in)
        real = harness.solve

        def recording(*args, **kwargs):
            log_pid(os.getpid())
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "solve", recording)
        start = threading.active_count()
        records, _ = run_sweep(_small_config(), workers=1)
        assert self._nothing_left(start)
        pids = _lines(solved_in)
        assert len(pids) == len(records) and str(os.getpid()) not in pids
        assert 1 <= len(set(pids)) <= 2

    def test_nothing_outlives_a_rejected_run(self, monkeypatch):
        def boom(*args, **kwargs):
            raise InvalidArgumentError("rejected in a solver process")

        monkeypatch.setattr(harness, "nbiht_run", boom)
        start = threading.active_count()
        with pytest.raises(InvalidArgumentError, match="rejected in a solver process"):
            run_sweep(_small_config(), workers=1)
        assert self._nothing_left(start)

    def test_dead_solver_process_fails_the_sweep(self, monkeypatch):
        sweep_pid = os.getpid()

        def dies(*args, **kwargs):
            if os.getpid() != sweep_pid:
                os._exit(1)
            raise AssertionError("solved in the sweep's own process")

        def sweep():
            try:
                run_sweep(_small_config(), workers=1)
            except BrokenProcessPool as exc:
                raised.append(exc)

        monkeypatch.setattr(harness, "nbiht_run", dies)
        raised, start = [], threading.active_count()
        runner = threading.Thread(target=sweep, daemon=True)  # a hang must not hold the suite
        runner.start()
        runner.join(timeout=60)
        assert not runner.is_alive() and len(raised) == 1
        assert self._nothing_left(start)

    def test_next_trial_drawn_only_after_every_run_of_the_last(self, monkeypatch):
        # all trials share one matrix buffer: a trial drawn while a run of the
        # last one still reads the rows would change that run's record
        cfg = _small_config(algorithms=("biht", "nbiht", "one_shot"), trials_per_cell=4)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        inline, _ = run_sweep(cfg, workers=1)
        real = harness.solve

        def slow_at_the_largest_m(run_cfg, algo, instance, init_seed):
            if instance[1].m == cfg.m_grid[-1]:
                time.sleep(0.1)  # longer than the next trial's draw takes
            return real(run_cfg, algo, instance, init_seed)

        monkeypatch.setattr(harness, "solve", slow_at_the_largest_m)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        on_processes, _ = run_sweep(cfg, workers=1)
        assert [r.comparable() for r in on_processes] == [r.comparable() for r in inline]


class _CopyBuilt(Exception):
    pass


class TestNoColumnCopy:
    def test_sweeps_and_recover_build_no_column_copy(self, monkeypatch, capsys):
        # the column-major copy is for the probes' many products on one matrix;
        # a sweep's instance takes one A x per m, on the row-major draw. The spy
        # raises, so a copy built in a (forked) pool worker fails its sweep too.
        copies = []
        real_measure = harness.linear_measurements

        def copying(A):
            raise _CopyBuilt(A.matrix.shape)

        def measuring(A, *args):
            copies.append(A._columns)
            return real_measure(A, *args)

        monkeypatch.setattr(model, "_with_columns", copying)
        monkeypatch.setattr(probes, "_with_columns", copying)
        monkeypatch.setattr(harness, "linear_measurements", measuring)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)  # --workers 1 solves on 2 solver processes
        cfg = _small_config(algorithms=("biht", "iht", "nbiht", "one_shot"), noise_std=0.1)
        for workers in (1, 2):
            records, _ = run_sweep(cfg, workers=workers)
            assert not [r for r in records if r.stop_reason.startswith("error:")]
        assert parse_and_dispatch(["recover", "--n", "32", "--s", "2", "--m", "600", "--seed", "3"]) == 0
        # the serial sweep's 3 trials x 3 m and recover; a pool worker's draws are its own
        assert copies == [None] * 10
        with pytest.raises(_CopyBuilt):  # the spies do see the probes' copy
            check_embedding(N=16, s=2, m=64, pairs=1, seed=1)


class _Scanned(Exception):
    pass


class TestDrawsNotScanned:
    def test_package_draws_skip_the_non_finite_scan(self, monkeypatch, capsys):
        # a drawn Gaussian matrix is finite by construction, and scanning a sweep's
        # matrix would cost every trial. The spy raises on any matrix-shaped scan,
        # so a scan in a (forked) pool worker or solver process fails its sweep too.
        real = np.isfinite

        def scanning(v, *args, **kwargs):
            if np.ndim(v) == 2:
                raise _Scanned(np.shape(v))
            return real(v, *args, **kwargs)

        monkeypatch.setattr(np, "isfinite", scanning)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)  # --workers 1 solves on 2 solver processes
        cfg = _small_config(algorithms=("biht", "iht", "nbiht", "one_shot"), noise_std=0.1)
        for workers in (1, 2):
            records, _ = run_sweep(cfg, workers=workers)
            assert not [r for r in records if r.stop_reason.startswith("error:")]
        assert parse_and_dispatch(["recover", "--n", "32", "--s", "2", "--m", "600", "--seed", "3"]) == 0
        gen_gaussian_matrix(4, 600, 8)
        check_unbiasedness(np.array([1.0]), m=10_000, trials=2, seed=1)
        check_embedding(N=16, s=2, m=64, pairs=1, seed=1)
        with pytest.raises(_Scanned):  # the spy does see a caller's matrix
            MeasurementEnsemble(matrix=np.ones((2, 3)), seed=0)


class TestSeedHygiene:
    def test_no_two_cells_share_a_substream(self):
        # every trial has its own streams, shared by all of its cells
        cfg = SweepConfig(
            n=8, s=2, m_grid=(10, 20), algorithms=("nbiht",), trials_per_cell=10_000, master_seed=7,
        )
        first_draws = {
            float(generator_for(trial_seed_table(cfg, trial)["matrix"]).standard_normal())
            for trial in range(cfg.trials_per_cell)
        }
        assert len(first_draws) == cfg.trials_per_cell

    def test_roles_distinct_within_cell(self):
        cfg = _small_config(algorithms=("nbiht", "biht", "iht", "one_shot"))
        seeds = trial_seed_table(cfg, 0)
        assert len(set(seeds.values())) == len(seeds)


class TestManifest:
    def test_manifest_covers_every_cell(self):
        # one seed table per trial, which every m of the trial shares
        cfg = _small_config()
        manifest = build_manifest(cfg)
        assert set(manifest.trial_seeds) == {0, 1, 2}
        for trial, seeds in manifest.trial_seeds.items():
            assert {"signal", "matrix", "noise", "init.nbiht", "init.one_shot"} == set(seeds)
            assert seeds == trial_seed_table(cfg, trial)

    def test_run_from_manifest_reproduces(self):
        cfg = _small_config()
        records, manifest = run_sweep(cfg)
        again, _ = run_from_manifest(manifest, workers=2)
        assert [r.comparable() for r in again] == [r.comparable() for r in records]

    def test_other_version_not_replayed(self):
        manifest = dataclasses.replace(build_manifest(_small_config()), manifest_version=2)
        with pytest.raises(InvalidArgumentError, match="unknown manifest_version 2"):
            run_from_manifest(manifest)

    def test_tampered_seeds_rejected(self):
        cfg = _small_config()
        manifest = build_manifest(cfg)
        manifest.trial_seeds[0]["matrix"] ^= 1
        with pytest.raises(InvalidArgumentError):
            run_from_manifest(manifest)

    def test_env_fields(self):
        serial = run_sweep(_small_config(), workers=1)[1]
        cpus = os.cpu_count() or 1
        solvers = min(cpus, 6)  # 3 m values times 2 algorithms
        assert (serial.workers, serial.blas_threads_per_worker) == (1, _pinned(max(1, cpus // solvers - 1)))
        assert serial.draw_threads == cpus
        assert serial.blas
        pooled = run_sweep(_small_config(), workers=2)[1]
        share = max(1, cpus // 2)
        assert (pooled.workers, pooled.draw_threads) == (2, share)
        assert pooled.blas_threads_per_worker == _pinned(max(1, share - 1))

    def test_stage_seconds_split_the_run(self):
        start = time.perf_counter()
        records, manifest = run_sweep(_small_config(), workers=1)
        wall = time.perf_counter() - start
        solvers = min(os.cpu_count() or 1, 6)  # overlapping runs each count their own time
        assert manifest.solve_s == pytest.approx(sum(r.wall_time_ms for r in records) / 1e3)
        assert 0 < manifest.draw_s <= wall and manifest.solve_s <= wall * solvers

    def test_metadata_present(self):
        manifest = build_manifest(_small_config())
        assert manifest.rng_algorithm == "pcg64-seedsequence"
        assert "ziggurat" in manifest.gaussian_transform
        assert manifest.constants["cb"] == 1.0


def _synthetic_records(law, ms=(100, 1_000, 10_000), trials=3, algorithm="nbiht"):
    return [
        SweepRecord(algorithm, m, 8, 2, t, law(m), 1, 1.0, "converged", 0.0)
        for m in ms
        for t in range(trials)
    ]


class TestFitSlope:
    def test_planted_inverse_law(self):
        slope, intercept, r2 = fit_slope(_synthetic_records(lambda m: 10.0 / m), "nbiht")
        assert abs(slope + 1.0) <= 1e-9
        assert abs(r2 - 1.0) <= 1e-12

    def test_planted_inverse_sqrt_law(self):
        slope, _, _ = fit_slope(_synthetic_records(lambda m: 3.0 / m**0.5), "nbiht")
        assert abs(slope + 0.5) <= 1e-9

    def test_mean_statistic(self):
        slope, _, _ = fit_slope(_synthetic_records(lambda m: 5.0 / m), "nbiht", error_stat="mean")
        assert abs(slope + 1.0) <= 1e-9

    def test_constant_statistic_fits_flat(self):
        slope, _, r2 = fit_slope(_synthetic_records(lambda m: 2.0), "nbiht")
        assert abs(slope) <= 1e-12 and r2 == 1.0

    def test_requires_three_distinct_m(self):
        with pytest.raises(InvalidArgumentError):
            fit_slope(_synthetic_records(lambda m: 1.0 / m, ms=(100, 200)), "nbiht")

    def test_requires_positive_statistic(self):
        with pytest.raises(InvalidArgumentError):
            fit_slope(_synthetic_records(lambda m: 0.0), "nbiht")

    def test_unknown_stat(self):
        with pytest.raises(InvalidArgumentError):
            fit_slope(_synthetic_records(lambda m: 1.0 / m), "nbiht", error_stat="max")

    def test_failed_run_left_out_of_statistic(self):
        records = [
            dataclasses.replace(r, final_l2_error=r.final_l2_error * (1 + r.trial_index))
            for r in _synthetic_records(lambda m: 10.0 / m, trials=4)
        ]
        failed = dataclasses.replace(records[4], final_l2_error=2.0, stop_reason="error: collapse")
        records[4] = failed
        ok_at_m = [r.final_l2_error for r in records if r.m == failed.m and r is not failed]
        assert dict(error_stat_by_m(records, "nbiht"))[failed.m] == float(np.median(ok_at_m))

    def test_all_failed_m_drops_out(self):
        records = [
            dataclasses.replace(r, final_l2_error=2.0, stop_reason="error: collapse") if r.m == 100 else r
            for r in _synthetic_records(lambda m: 10.0 / m)
        ]
        assert [m for m, _ in error_stat_by_m(records, "nbiht")] == [1_000, 10_000]
        with pytest.raises(InvalidArgumentError):
            fit_slope(records, "nbiht")

    def test_filters_by_algorithm(self):
        mixed = _synthetic_records(lambda m: 10.0 / m) + _synthetic_records(
            lambda m: 3.0 / m**0.5, algorithm="one_shot"
        )
        slope_n, _, _ = fit_slope(mixed, "nbiht")
        slope_o, _, _ = fit_slope(mixed, "one_shot")
        assert abs(slope_n + 1.0) <= 1e-9 and abs(slope_o + 0.5) <= 1e-9
