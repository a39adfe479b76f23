"""Sweep execution: determinism, pairing, seed hygiene, pool set-up, slope fitting."""

import ctypes
import dataclasses
import io
import math
import multiprocessing
import os
import sys
import threading
import time
import types
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

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
from onebitcs.harness import build_manifest, run_from_manifest, trial_seed_table
from onebitcs.report import read_records_csv
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
        series = dict(harness._median_by_m(records, "nbiht"))
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

    def test_draw_joins_its_pool_threads_before_the_first_instance(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)  # let 4 pool threads draw on any host
        real = model.block_generator
        taken = []

        def slow(seed, i):
            taken.append(i)
            time.sleep(0.02)  # a pool thread left unjoined would still be drawing
            return real(seed, i)

        monkeypatch.setattr(model, "block_generator", slow)
        cfg = _small_config(n=4, s=1, m_grid=(64, 512 * 40))
        start = threading.active_count()
        instances = harness.draw_instances(cfg, trial_seed_table(cfg, 0), threads=4)
        assert [m for m, _ in instances] == [64, 512 * 40]
        assert threading.active_count() == start
        assert sorted(taken) == list(range(40))  # the whole draw, each block once

    def test_raising_task_joins_the_draw_pool_threads(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)  # let the draw run on 4 pool threads on any host
        real = model.block_generator

        def slow(seed, i):
            time.sleep(0.02)  # a pool thread left unjoined would still be drawing
            return real(seed, i)

        def boom(*args, **kwargs):
            raise InvalidArgumentError("rejected in the task")

        monkeypatch.setattr(model, "block_generator", slow)
        monkeypatch.setattr(harness, "nbiht_run", boom)
        cfg = _small_config(n=4, s=1, m_grid=(64,) + tuple(512 * k for k in range(1, 41)))
        monkeypatch.setattr(harness, "_rows", harness._mapped(cfg.m_grid[-1], cfg.n))  # as run_sweep maps it
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
        nested = dict(harness.draw_instances(cfg, seeds))
        for m in cfg.m_grid:
            ((_, direct),) = harness.draw_instances(dataclasses.replace(cfg, m_grid=(m,)), seeds)
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
        for m, (_, A, _, _) in harness.draw_instances(cfg, seeds, threads=2):
            assert A.matrix.tobytes() == gen_gaussian_matrix(seeds["matrix"], m, n).matrix.tobytes()

    def test_measurements_by_support_gather(self):
        # A x is taken on the signal's support columns, which rounds unlike a dense product
        cfg = _small_config(n=512, s=4, m_grid=(600, 1100))  # rows across a draw block boundary
        seeds = trial_seed_table(cfg, 0)
        for m, (x, A, lin, b) in harness.draw_instances(cfg, seeds):
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

    @pytest.mark.parametrize("field,value", [
        ("n", 32.5),
        ("s", 2.5),
        ("trials_per_cell", 1.5),
        ("max_iters", 2.5),
        ("m_grid", (64.9, 128, 256)),
        ("m_grid", (64, "128", 256)),
        ("m_grid", (64, 128, 256.0)),
    ])
    def test_non_integer_setting_rejected(self, field, value):
        # as the config is built: not truncated, and not left to fail in the draw or as error rows
        with pytest.raises(InvalidArgumentError, match="must be an integer, got"):
            _small_config(**{field: value})

    def test_integer_settings_stored_as_int(self):
        cfg = _small_config(n=np.int64(32), s=np.int32(3), m_grid=(np.int64(64), 128), trials_per_cell=np.uint8(2))
        assert [type(v) for v in (cfg.n, cfg.s, cfg.trials_per_cell, *cfg.m_grid)] == [int] * 5


class _RecordingPool:
    """Stands in for the worker pool's ProcessPoolExecutor: records its arguments,
    runs the cells in this process and never calls the initializer, so no BLAS
    setting changes; the rows the first cell maps are dropped after the cells
    run. A one-process sweep's solver processes, the pool given a fork
    context, are real ones."""

    created = []

    def __new__(cls, **kwargs):
        if "mp_context" in kwargs:
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
        try:
            return list(map(fn, *iterables))
        finally:
            harness._rows = None


def _worker_blas_threads(_):
    return harness._numpy_openblas()[0]()


class TestDivergedRun:
    def test_error_finite_whatever_the_warnings_filter(self):
        # IHT diverges here: its estimates pass 1e177, where the squares of a
        # plain norm overflow; the error was 1.0, or an error: row under -W error
        cfg = SweepConfig(n=2048, s=16, m_grid=(64,), algorithms=("iht",), trials_per_cell=2,
                          master_seed=5, max_iters=300)
        outcomes = {}
        for action in ("error", "ignore", "default"):
            with warnings.catch_warnings():
                warnings.simplefilter(action)
                outcomes[action] = [r.comparable() for r in run_sweep(cfg)[0]]
        assert outcomes["error"] == outcomes["ignore"] == outcomes["default"]
        for _, _, _, _, _, error, iterations, _, stop_reason in outcomes["error"]:
            assert math.isfinite(error) and error != 1.0
            assert (iterations, stop_reason) == (300, "max_iters")


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
        assert pool.kwargs == {"max_workers": 2, "initializer": harness._pin_blas_threads}
        assert manifest.workers == 2
        assert manifest.blas_threads_per_worker == _pinned()
        assert len(records) == 12

    def test_threads_derived_from_pool_size(self, fake_pool):
        _, manifest = run_sweep(_small_config(trials_per_cell=6), workers=5)
        assert manifest.draw_threads == 12 // 5
        _, manifest = run_sweep(_small_config(trials_per_cell=20), workers=60)
        assert manifest.draw_threads == 1  # never below one thread
        # every worker pins BLAS at one thread, whatever its share
        assert [pool.kwargs for pool in fake_pool] == [
            {"max_workers": 5, "initializer": harness._pin_blas_threads},
            {"max_workers": 20, "initializer": harness._pin_blas_threads},
        ]

    def test_single_cell_runs_serially(self, fake_pool):
        cfg = _small_config(m_grid=(64,), trials_per_cell=1)
        _, manifest = run_sweep(cfg, workers=8)
        assert fake_pool == []
        # 12 CPUs for 2 runs: 2 solver processes, BLAS at one thread
        assert (manifest.workers, manifest.blas_threads_per_worker) == (1, _pinned())

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
        monkeypatch.setattr(harness, "_numpy_openblas", lambda: None)
        _, manifest = run_sweep(_small_config(), workers=2)
        assert (manifest.workers, manifest.blas_threads_per_worker) == (2, "default")
        assert manifest.blas_core == "unknown"

    def test_pin_without_library_returns_quietly(self, monkeypatch, tmp_path):
        # numpy's extension module where no shared library can be opened
        missing = types.SimpleNamespace(__file__=str(tmp_path / "no.so"))
        monkeypatch.setattr(harness, "_NUMPY_EXTENSION", missing)
        assert harness._numpy_openblas() is None
        assert harness._pin_blas_threads() is None

    def test_pin_without_symbol_returns_quietly(self, monkeypatch):
        monkeypatch.setattr(harness, "_BLAS_SETTERS", ("no_such_blas_symbol",))
        assert harness._numpy_openblas() is None
        assert harness._pin_blas_threads() is None

    def test_workers_run_pinned_thread_count(self, blas_at_two):
        # the workers start from this process, whose count is 2
        with ProcessPoolExecutor(max_workers=2, initializer=harness._pin_blas_threads) as pool:
            seen = list(pool.map(_worker_blas_threads, range(4)))
        assert seen == [1] * 4


def _pinned() -> str:
    """What env.blas_threads_per_worker must read: 1 whenever numpy's OpenBLAS setter is found."""
    return "default" if harness._numpy_openblas() is None else "1"


class TestThreadRule:
    # (cpus, pool size) -> (threads per process, solvers for a trial of RUNS
    # runs); shares above 2 are unmeasured. Each id ends in the BLAS count an
    # earlier rule gave one run at that share; BLAS now runs at one thread at
    # every share.
    RUNS = 12  # 4 m values times 3 algorithms
    TABLE = [
        ("1-1-1-1", 1, 1, 1, 1), ("1-2-1-1", 1, 2, 1, 1), ("1-3-1-1", 1, 3, 1, 1),
        ("2-1-2-1", 2, 1, 2, 2), ("2-2-1-1", 2, 2, 1, 1), ("2-3-1-1", 2, 3, 1, 1),
        ("4-1-4-3", 4, 1, 4, 4), ("4-2-2-1", 4, 2, 2, 2), ("4-3-1-1", 4, 3, 1, 1), ("4-4-1-1", 4, 4, 1, 1),
        ("12-1-12-11", 12, 1, 12, 12), ("12-2-6-5", 12, 2, 6, 6), ("12-3-4-3", 12, 3, 4, 4),
        ("12-12-1-1", 12, 12, 1, 1),
        ("64-1-64-63", 64, 1, 64, 12), ("64-2-32-31", 64, 2, 32, 12), ("64-3-21-20", 64, 3, 21, 12),
        ("64-64-1-1", 64, 64, 1, 1),
    ]

    @pytest.mark.parametrize("cpus,pool_size,share,solvers", [row[1:] for row in TABLE],
                             ids=[row[0] for row in TABLE])
    def test_share_and_blas_count(self, cpus, pool_size, share, solvers, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert harness._thread_plan(pool_size, 1) == (share, 1)
        assert harness._thread_plan(pool_size, self.RUNS) == (share, solvers)
        with harness.blas_threads() as count:
            assert count == (None if harness._numpy_openblas() is None else 1)

    def test_unknown_cpu_count_is_one(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert harness._thread_plan(1, 1) == harness._thread_plan(1, self.RUNS) == (1, 1)

    def test_set_inside_and_restored_after(self, blas_at_two, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        with harness.blas_threads() as count:
            assert count == blas_at_two() == 1
        assert blas_at_two() == 2

    def test_without_openblas_nothing_is_set(self, monkeypatch):
        monkeypatch.setattr(harness, "_numpy_openblas", lambda: None)
        with harness.blas_threads() as count:
            assert count is None

    def test_numpys_own_library_pinned_when_another_sorts_first(self, blas_at_two, monkeypatch, tmp_path):
        # scipy's OpenBLAS loaded beside numpy's, listed first in the process's
        # library map, as a distro numpy under /usr with scipy under /home would be
        pytest.importorskip("scipy.linalg")
        if not os.path.exists("/proc/self/maps"):
            pytest.skip("no library map to list")
        with open("/proc/self/maps") as maps:
            paths = {fields[5].strip() for fields in (line.split(None, 5) for line in maps)
                     if len(fields) == 6 and "openblas" in fields[5].lower()}
        numpy_address = ctypes.cast(blas_at_two, ctypes.c_void_p).value
        listed = []
        for path in paths:
            library = ctypes.CDLL(path)  # already loaded: this only returns its handle
            getters = (name.replace("_set_", "_get_") for name in harness._BLAS_SETTERS)
            own = any(ctypes.cast(getattr(library, name), ctypes.c_void_p).value == numpy_address
                      for name in getters if hasattr(library, name))
            link = tmp_path / ("z" if own else "a") / os.path.basename(path)
            link.parent.mkdir(exist_ok=True)
            link.symlink_to(path)
            listed.append(f"7f0000000000-7f0000001000 r-xp 00000000 00:00 0    {link}\n")
        if len(listed) < 2:
            pytest.skip("scipy's OpenBLAS is numpy's own here")
        real_open = open

        def maps_listing_scipy_first(file, *args, **kwargs):
            if file == "/proc/self/maps":
                return io.StringIO("".join(sorted(listed)))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(harness, "open", maps_listing_scipy_first, raising=False)
        with harness.blas_threads():
            assert blas_at_two() == 1
        assert blas_at_two() == 2


class TestConcurrentSolves:
    """A trial's runs on solver processes: the same records, failures where they belong."""

    @staticmethod
    def _config(**overrides):
        return _small_config(algorithms=("biht", "iht", "nbiht", "one_shot"), noise_std=0.1, **overrides)

    def test_records_do_not_depend_on_the_thread_share(self, monkeypatch):
        # solved inline at a share of 1, and on 2 and 4 solver processes
        cfg = self._config()
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the draw's pool threads as finely as the interpreter allows
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


class TestOneMatrixBuffer:
    """Each sweep process maps one max(m_grid) x N buffer, draws every trial into it and drops it."""

    @pytest.fixture
    def logs(self, monkeypatch, tmp_path):
        """Reads back "pid address shape" per buffer mapped and "pid address" per draw, from any process."""
        log_map, log_draw = _appender(tmp_path / "mapped"), _appender(tmp_path / "drawn")
        real_map, real_draw = harness._mapped, harness.gen_gaussian_matrix

        def mapping(m, N):
            rows = real_map(m, N)
            log_map(f"{os.getpid()} {rows.ctypes.data} {m}x{N}")
            return rows

        def drawing(seed, m, N, out=None, threads=None):
            log_draw(f"{os.getpid()} {None if out is None else out.ctypes.data}")
            return real_draw(seed, m, N, out, threads)

        monkeypatch.setattr(harness, "_mapped", mapping)
        monkeypatch.setattr(harness, "gen_gaussian_matrix", drawing)
        return lambda: ([line.split() for line in _lines(tmp_path / "mapped")], _lines(tmp_path / "drawn"))

    def test_each_pool_worker_maps_one_buffer(self, logs, monkeypatch):
        # a worker maps its buffer in its first task, so one that ran no task maps none
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        cfg = _small_config(trials_per_cell=4)
        run_sweep(cfg, workers=2)
        mapped, drawn = logs()
        assert 1 <= len(mapped) <= 2 and len({pid for pid, _, _ in mapped}) == len(mapped)
        assert all(pid != str(os.getpid()) and shape == "256x32" for pid, _, shape in mapped)
        assert len(drawn) == 4 and set(drawn) <= {f"{pid} {address}" for pid, address, _ in mapped}
        assert harness._rows is None

    @pytest.mark.parametrize("cpus", [1, 2], ids=["inline", "solver-processes"])
    def test_one_process_maps_one_buffer(self, cpus, logs, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        records, _ = run_sweep(_small_config(trials_per_cell=4), workers=1)
        ((pid, address, shape),), drawn = logs()
        assert (pid, shape) == (str(os.getpid()), "256x32")
        assert drawn == [f"{pid} {address}"] * 4
        assert not [r for r in records if r.stop_reason.startswith("error:")]

    @pytest.mark.parametrize("cpus", [1, 2], ids=["inline", "solver-processes"])
    def test_no_buffer_held_after_the_sweep(self, cpus, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        run_sweep(_small_config(), workers=1)
        assert harness._rows is None

        def boom(*args, **kwargs):
            raise InvalidArgumentError("rejected in a run")

        monkeypatch.setattr(harness, "nbiht_run", boom)
        with pytest.raises(InvalidArgumentError, match="rejected in a run"):
            run_sweep(_small_config(), workers=1)
        assert harness._rows is None


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
    def test_manifest_covers_every_cell(self, monkeypatch):
        # the config covers every cell: each trial runs on the seed table it derives,
        # which every m of the trial shares, so the manifest stores no seed
        cfg = _small_config()
        given, real = {}, harness._run_task

        def recording(cfg, trial, seeds, *rest):
            given[trial] = seeds
            return real(cfg, trial, seeds, *rest)

        monkeypatch.setattr(harness, "_run_task", recording)
        run_from_manifest(build_manifest(cfg))
        assert given == {trial: trial_seed_table(cfg, trial) for trial in range(3)}
        assert set(given[0]) == {"signal", "matrix", "noise", "init.nbiht", "init.one_shot"}

    def test_run_from_manifest_reproduces(self):
        cfg = _small_config()
        records, manifest = run_sweep(cfg)
        again, _ = run_from_manifest(manifest, workers=2)
        assert [r.comparable() for r in again] == [r.comparable() for r in records]

    def test_other_version_not_replayed(self):
        manifest = dataclasses.replace(build_manifest(_small_config()), manifest_version=2)
        with pytest.raises(InvalidArgumentError, match="unknown manifest_version 2"):
            run_from_manifest(manifest)

    def test_env_fields(self):
        serial = run_sweep(_small_config(), workers=1)[1]
        cpus = os.cpu_count() or 1
        assert (serial.workers, serial.blas_threads_per_worker) == (1, _pinned())
        assert serial.draw_threads == cpus
        assert serial.blas
        pooled = run_sweep(_small_config(), workers=2)[1]
        assert (pooled.workers, pooled.draw_threads) == (2, max(1, cpus // 2))
        assert pooled.blas_threads_per_worker == _pinned()

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
        assert manifest.blas_core == harness._blas_core() != ""
        assert not hasattr(manifest, "trial_seeds") and not hasattr(manifest, "constants")


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
        # the median is the one statistic; the mean is rejected like any other name
        for stat in ("max", "mean"):
            with pytest.raises(InvalidArgumentError, match=f"unknown error_stat '{stat}'"):
                fit_slope(_synthetic_records(lambda m: 1.0 / m), "nbiht", error_stat=stat)

    def test_failed_run_left_out_of_statistic(self):
        records = [
            dataclasses.replace(r, final_l2_error=r.final_l2_error * (1 + r.trial_index))
            for r in _synthetic_records(lambda m: 10.0 / m, trials=4)
        ]
        failed = dataclasses.replace(records[4], final_l2_error=2.0, stop_reason="error: collapse")
        records[4] = failed
        ok_at_m = [r.final_l2_error for r in records if r.m == failed.m and r is not failed]
        assert dict(harness._median_by_m(records, "nbiht"))[failed.m] == float(np.median(ok_at_m))

    def test_all_failed_m_drops_out(self):
        records = [
            dataclasses.replace(r, final_l2_error=2.0, stop_reason="error: collapse") if r.m == 100 else r
            for r in _synthetic_records(lambda m: 10.0 / m)
        ]
        assert [m for m, _ in harness._median_by_m(records, "nbiht")] == [1_000, 10_000]
        with pytest.raises(InvalidArgumentError):
            fit_slope(records, "nbiht")

    def test_algorithm_without_records_named(self):
        # a name no record holds is not a series with too few m values
        stored = read_records_csv(Path(__file__).parent / "data" / "v6_sweep" / "records.csv")
        with pytest.raises(InvalidArgumentError, match="no records of algorithm 'NBIHT'"):
            fit_slope(stored, "NBIHT")
        records = _synthetic_records(lambda m: 1 / m)
        failed = [dataclasses.replace(r, stop_reason="error: collapse") for r in records]
        with pytest.raises(InvalidArgumentError, match="need records at >= 3 distinct m values"):
            fit_slope(failed, "nbiht")  # every run failed: the message the sweep prints is kept

    def test_filters_by_algorithm(self):
        mixed = _synthetic_records(lambda m: 10.0 / m) + _synthetic_records(
            lambda m: 3.0 / m**0.5, algorithm="one_shot"
        )
        slope_n, _, _ = fit_slope(mixed, "nbiht")
        slope_o, _, _ = fit_slope(mixed, "one_shot")
        assert abs(slope_n + 1.0) <= 1e-9 and abs(slope_o + 0.5) <= 1e-9
