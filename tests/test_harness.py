"""Sweep execution: determinism, pairing, seed hygiene, pool set-up, slope fitting."""

import dataclasses
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import onebitcs.harness as harness
import onebitcs.model as model
from onebitcs import DegenerateIterateError, InvalidArgumentError, SweepConfig, SweepRecord, fit_slope, run_sweep
from onebitcs.harness import build_manifest, cell_seed_table, error_stat_by_m, run_from_manifest
from onebitcs.rng import generator_for


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
        real = harness.BlockFiller

        def recording(seed, m, N, threads):
            calls.append((seed, m))
            return real(seed, m, N, threads)

        monkeypatch.setattr(harness, "BlockFiller", recording)
        cfg = _small_config()
        run_sweep(cfg)
        # one blocked draw per trial, at the largest m
        assert sorted(m for _, m in calls) == [256] * cfg.trials_per_cell
        assert len({seed for seed, _ in calls}) == cfg.trials_per_cell

    def test_closed_stream_joins_its_helpers(self, monkeypatch):
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
        stream = harness.draw_instances(cfg, cfg.m_grid, cell_seed_table(cfg, 0), threads=4)
        m, _ = next(stream)
        assert m == 64 and threading.active_count() == start + 3
        stream.close()
        assert threading.active_count() == start
        filled = len(taken)
        time.sleep(0.05)
        assert len(taken) == filled < 40  # nothing after the close, and not the whole draw

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
        cfg = _small_config(n=4, s=1, m_grid=(64, 512 * 40))
        start = threading.active_count()
        with pytest.raises(InvalidArgumentError, match="rejected in the task") as raised:
            harness._run_task(cfg, 0, cell_seed_table(cfg, 0), 4)
        # the exception (and its traceback) is still held here
        assert raised.value is not None and threading.active_count() == start

    def test_nested_instance_equals_direct_draw(self):
        cfg = _small_config(noise_std=0.3)
        seeds = cell_seed_table(cfg, 1)
        nested = dict(harness.draw_instances(cfg, cfg.m_grid, seeds))
        for m in cfg.m_grid:
            ((_, direct),) = harness.draw_instances(cfg, (m,), seeds)
            x, A, lin, b = nested[m]
            assert A.matrix.shape == (m, cfg.n) and A.matrix.flags.c_contiguous
            assert A.matrix.tobytes() == direct[1].matrix.tobytes()
            assert lin.tobytes() == direct[2].tobytes()
            assert b.bits.tobytes() == direct[3].bits.tobytes()
            assert np.shares_memory(A.matrix, nested[cfg.m_grid[-1]][1].matrix)

    def test_measurements_by_support_gather(self):
        # A x is taken on the signal's support columns, which rounds unlike a dense product
        cfg = _small_config(n=512, s=4, m_grid=(600, 1100))  # rows across a draw block boundary
        seeds = cell_seed_table(cfg, 0)
        for m, (x, A, lin, b) in harness.draw_instances(cfg, cfg.m_grid, seeds):
            nz = np.flatnonzero(x.values)
            expected = A.matrix[:, nz] @ x.values[nz]
            assert lin.tobytes() == expected.tobytes()
            assert np.array_equal(b.bits, np.where(expected > 0, 1.0, -1.0))

    def test_matrices_beyond_physical_memory_rejected(self, monkeypatch):
        # a 256 x 32 float64 matrix per process is 64 KiB, against 96 KiB of memory
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 24}
        monkeypatch.setattr(os, "sysconf", lambda name: pages[name])
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


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records its arguments, runs the cells
    in this process and never calls the initializer, so no BLAS setting changes."""

    created = []

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
            "max_workers": 2, "initializer": harness._pin_blas_threads, "initargs": (5,),
        }  # a share of 12 // 2 = 6 threads, BLAS at one fewer
        assert manifest.workers == 2
        assert manifest.blas_threads_per_worker == _pinned(5)
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
        assert (manifest.workers, manifest.blas_threads_per_worker) == (1, _pinned(11))

    def test_draw_threads_are_the_process_share(self, fake_pool, monkeypatch):
        # 12 CPUs: every one on the serial path, 12 // pool size in a pool
        given = []
        real = harness.BlockFiller

        def recording(seed, m, N, threads):
            given.append(threads)
            return real(seed, m, N, threads)

        monkeypatch.setattr(harness, "BlockFiller", recording)
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


class TestSerialBlasThreads:
    @pytest.fixture
    def blas_at_two(self):
        getter = harness._loaded_blas_function(harness._BLAS_GETTERS)
        if getter is None or harness._loaded_blas_function(harness._BLAS_SETTERS) is None:
            pytest.skip("no OpenBLAS thread getter and setter in this process")
        before = getter()
        harness._pin_blas_threads(2)
        try:
            if getter() != 2:
                pytest.skip("this OpenBLAS cannot run 2 threads")
            yield getter
        finally:
            harness._pin_blas_threads(before)

    def test_one_thread_during_the_sweep_and_restored(self, blas_at_two, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)  # a share of 2: BLAS at one thread
        seen = []
        real = harness.nbiht_run

        def recording(*args, **kwargs):
            seen.append(blas_at_two())
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "nbiht_run", recording)
        run_sweep(_small_config(), workers=1)
        assert seen and set(seen) == {1}
        assert blas_at_two() == 2

    def test_restored_when_a_task_raises(self, blas_at_two, monkeypatch):
        def boom(*args, **kwargs):
            raise InvalidArgumentError("rejected in the task")

        monkeypatch.setattr(harness, "nbiht_run", boom)
        with pytest.raises(InvalidArgumentError, match="rejected in the task"):
            run_sweep(_small_config(), workers=1)
        assert blas_at_two() == 2


class TestSeedHygiene:
    def test_no_two_cells_share_a_substream(self):
        # every trial has its own streams, shared by all of its cells
        cfg = SweepConfig(
            n=8, s=2, m_grid=(10, 20), algorithms=("nbiht",), trials_per_cell=10_000, master_seed=7,
        )
        first_draws = {
            float(generator_for(cell_seed_table(cfg, trial)["matrix"]).standard_normal())
            for trial in range(cfg.trials_per_cell)
        }
        assert len(first_draws) == cfg.trials_per_cell

    def test_roles_distinct_within_cell(self):
        cfg = _small_config(algorithms=("nbiht", "biht", "iht", "one_shot"))
        seeds = cell_seed_table(cfg, 0)
        assert len(set(seeds.values())) == len(seeds)


class TestManifest:
    def test_manifest_covers_every_cell(self):
        cfg = _small_config()
        manifest = build_manifest(cfg)
        assert set(manifest.cell_seeds) == {(m, t) for m in cfg.m_grid for t in range(3)}
        for (_, trial), seeds in manifest.cell_seeds.items():
            assert {"signal", "matrix", "noise", "init.nbiht", "init.one_shot"} == set(seeds)
            assert seeds == cell_seed_table(cfg, trial)  # every m of a trial shares its table

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
        key = next(iter(manifest.cell_seeds))
        manifest.cell_seeds[key]["matrix"] ^= 1
        with pytest.raises(InvalidArgumentError):
            run_from_manifest(manifest)

    def test_env_fields(self):
        serial = run_sweep(_small_config(), workers=1)[1]
        cpus = os.cpu_count() or 1
        assert (serial.workers, serial.blas_threads_per_worker) == (1, _pinned(max(1, cpus - 1)))
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
        assert manifest.solve_s == pytest.approx(sum(r.wall_time_ms for r in records) / 1e3)
        assert 0 < manifest.draw_s and manifest.draw_s + manifest.solve_s <= wall

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
