"""Seeded Monte Carlo sweeps over m, slope fitting, and the run manifest.

Each trial draws its signal, ensemble, and noise from substreams of the
master seed, named by the trial's seed table, so every algorithm in a cell
sees the same instance (paired comparison) and any execution order or worker
count reproduces the same records bitwise. A trial draws one
``max(m_grid)``-row matrix in seeded 512-row blocks, and every m runs on its
first m rows, which are bitwise an m-row draw from the same seed, so the
instances of a trial are nested across m. Every sweep process maps one
``max(m_grid)``-row buffer, ``_rows``, for the whole sweep (a pool worker in
its first task): a task draws its trial's matrix into it, through
``gen_gaussian_matrix`` on the process's share of the CPUs, and then solves
every m's runs on ``_rows[:m]`` through ``_run_one``, inline or on forked
solver processes (``_solver_processes``), which inherit the buffer.
``_thread_plan`` sets these counts. numpy's own OpenBLAS runs at one thread
in every process: pool workers and solvers are pinned at start, and the
serial sweep and every CLI command pin it for their duration and restore the
caller's count afterwards (``blas_threads``). Every run's state is its own
and the instance is read-only, so the records do not depend on any thread or
process count.
A x is taken only by support gather: for the measurements, the one-shot
agreement and every solver iterate.
The manifest stores only what a replay cannot derive: no seed is stored,
since ``trial_seed_table`` derives every trial's seeds from the config. This
build writes and replays manifest version 6 only; a change that moves records
or the format bumps the version and replaces this path instead of forking it.
Records are canonically sorted by (algorithm, m, trial_index) before they are
returned.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import datetime as _dt
import importlib
import math
import multiprocessing
import operator
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import __version__ as _pkg_version
from .algorithms import (
    DEFAULT_TAU,
    AlgorithmConfig,
    biht_run,
    iht_run,
    nbiht_run,
    one_shot_estimate,
)
from .errors import DegenerateIterateError, InvalidArgumentError, SamplingExhaustedError, _as_int
from .model import (
    SUPPORT_RULES,
    VALUE_RULES,
    MeasurementEnsemble,
    _mapped,
    _require_physical_memory,
    gen_gaussian_matrix,
    gen_sparse_signal,
    linear_measurements,
    sign_quantize,
)
from .rng import GAUSSIAN_TRANSFORM, RNG_ALGORITHM, substream_seed
from .sparse_ops import hamming_distance, normalize

ALGORITHMS = ("biht", "iht", "nbiht", "one_shot")  # canonical order fixes seed roles

_ROLE_SIGNAL = 0
_ROLE_MATRIX = 1
_ROLE_NOISE = 2
_ROLE_INIT_BASE = 3

MANIFEST_VERSION = 6  # the one version run_sweep and recover write and replay
_SUBSTREAM_RULE = (  # recorded as rng.substream_rule
    "seed = SeedSequence((master_seed, trial, role)).generate_state(1, uint64)[0]; "
    "each trial draws max(m_grid) matrix rows in 512-row blocks, block i from "
    "SeedSequence(matrix seed, spawn_key=(i,)), and m runs on the first m; "
    "A x by support gather"
)

# OpenBLAS thread setters, as numpy's own wheel (scipy-openblas) and a plain OpenBLAS
# build export them, with and without the ILP64 suffix; each getter has _get_ for _set_.
_BLAS_SETTERS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                 "openblas_set_num_threads64_", "openblas_set_num_threads")
_NUMPY_EXTENSION = importlib.import_module(  # the module whose products (A @ x, A.T @ r) call numpy's BLAS
    f"numpy.{'_core' if np.lib.NumpyVersion(np.__version__) >= '2.0.0' else 'core'}._multiarray_umath")


@dataclass(frozen=True)
class SweepConfig:
    """Grid and algorithm settings for one sweep; its fields are the manifest's ``config.*`` lines."""

    n: int
    s: int
    m_grid: tuple[int, ...]
    algorithms: tuple[str, ...]
    trials_per_cell: int
    master_seed: int
    noise_std: float = 0.0
    tau: float = DEFAULT_TAU
    max_iters: int = 500
    stop_tol: float = 1e-10
    init: str = "random_sparse"
    support_rule: str = "uniform_random"
    value_rule: str = "gaussian"

    def __post_init__(self):
        for name in ("n", "s", "trials_per_cell"):
            object.__setattr__(self, name, _as_int(getattr(self, name), name))
        object.__setattr__(self, "m_grid", tuple(_as_int(m, "each m of m_grid") for m in self.m_grid))
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        if not 1 <= self.s <= self.n:
            raise InvalidArgumentError("need 1 <= s <= n")
        if not self.m_grid or any(m < 1 for m in self.m_grid):
            raise InvalidArgumentError("m_grid must hold positive integers")
        if any(b <= a for a, b in zip(self.m_grid, self.m_grid[1:])):
            raise InvalidArgumentError("m_grid must be strictly increasing")
        if self.trials_per_cell < 1:
            raise InvalidArgumentError("trials_per_cell must be >= 1")
        if not self.algorithms:
            raise InvalidArgumentError("need at least one algorithm")
        unknown = set(self.algorithms) - set(ALGORITHMS)
        if unknown:
            raise InvalidArgumentError(f"unknown algorithms: {sorted(unknown)}")
        if len(set(self.algorithms)) < len(self.algorithms):
            raise InvalidArgumentError(f"each algorithm may be listed once, got {list(self.algorithms)}")
        if not 0 <= self.noise_std < math.inf:  # also rejects NaN
            raise InvalidArgumentError(f"noise_std must be finite and nonnegative, got {self.noise_std!r}")
        if self.support_rule not in SUPPORT_RULES:
            raise InvalidArgumentError(f"unknown support_rule {self.support_rule!r}")
        if self.value_rule not in VALUE_RULES:
            raise InvalidArgumentError(f"unknown value_rule {self.value_rule!r}")
        self._algorithm_config(init_seed=0)  # a setting the solvers reject fails before any draw

    def _algorithm_config(self, init_seed: int) -> AlgorithmConfig:
        """The solver settings of every run of the sweep, with the run's init seed."""
        return AlgorithmConfig(s=self.s, tau=self.tau, max_iters=self.max_iters, stop_tol=self.stop_tol,
                               init=self.init, init_seed=init_seed)


@dataclass(frozen=True)
class SweepRecord:
    """One (algorithm, m, trial) outcome row; its fields, in order, are the columns of records.csv."""

    algorithm: str
    m: int
    N: int
    s: int
    trial_index: int
    final_l2_error: float
    iterations_used: int
    sign_agreement: float
    stop_reason: str
    wall_time_ms: float

    def comparable(self) -> tuple:
        """All fields except wall_time_ms (excluded from reproducibility)."""
        return _comparable_fields(self)


_comparable_fields = operator.attrgetter(
    *(f.name for f in dataclasses.fields(SweepRecord) if f.name != "wall_time_ms")
)


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce a sweep's records bitwise."""

    config: SweepConfig
    rng_algorithm: str
    gaussian_transform: str
    substream_rule: str
    numpy_version: str
    package_version: str
    created_utc: str
    manifest_version: int = MANIFEST_VERSION
    blas: str = "unknown"  # name and version of the BLAS numpy was built against
    blas_core: str = "unknown"  # the kernel numpy's OpenBLAS ran (see _blas_core)
    workers: int = 1  # processes the tasks ran in (the pool size, 1 when serial)
    blas_threads_per_worker: str = "default"  # threads each process's OpenBLAS ran, "default" if unknown
    draw_threads: int = 1  # threads that fill each matrix draw while the task thread waits
    draw_s: float = 0.0  # task-thread seconds drawing each trial's instances, summed
    solve_s: float = 0.0  # seconds spent in solve, summed over records; overlapping runs each count


def trial_seed_table(cfg: SweepConfig, trial: int) -> dict[str, int]:
    """Derived substream seeds for the instances of one trial.

    The streams depend only on (master_seed, trial), so every cell of the
    trial, and every algorithm in a cell, shares the drawn (x, A, noise); each
    algorithm gets its own init stream at a role fixed by the canonical
    algorithm order.
    """
    seeds = {
        "signal": substream_seed(cfg.master_seed, trial, _ROLE_SIGNAL),
        "matrix": substream_seed(cfg.master_seed, trial, _ROLE_MATRIX),
        "noise": substream_seed(cfg.master_seed, trial, _ROLE_NOISE),
    }
    for algo in cfg.algorithms:
        role = _ROLE_INIT_BASE + ALGORITHMS.index(algo)
        seeds[f"init.{algo}"] = substream_seed(cfg.master_seed, trial, role)
    return seeds


def _blas_name() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy builds without the dict form of show_config
        return "unknown"


def require_manifest_version(version) -> None:
    """Reject any manifest version but the one this build writes."""
    if version != MANIFEST_VERSION:
        raise InvalidArgumentError(
            f"unknown manifest_version {version!r}; this build writes and replays "
            f"version {MANIFEST_VERSION} only"
        )


def build_manifest(cfg: SweepConfig) -> RunManifest:
    return RunManifest(
        config=cfg,
        rng_algorithm=RNG_ALGORITHM,
        gaussian_transform=GAUSSIAN_TRANSFORM,
        substream_rule=_SUBSTREAM_RULE,
        numpy_version=np.__version__,
        package_version=_pkg_version,
        created_utc=_dt.datetime.now(_dt.timezone.utc).isoformat(timespec="seconds"),
        blas=_blas_name(),
        blas_core=_blas_core(),
    )


def _sphere_error(estimate: np.ndarray, truth: np.ndarray) -> float:
    # normalize divides a diverged estimate by its largest entry first, so no square overflows
    return float(np.linalg.norm(normalize(estimate) - truth))


class ThreadPlan(NamedTuple):
    """The threads of one sweep process (see ``_thread_plan``)."""

    share: int  # threads drawing a matrix while the task thread waits
    solvers: int  # processes a one-process sweep solves its runs on; 1 solves them inline


def _thread_plan(pool_size: int, runs: int) -> ThreadPlan:
    """The threads of each process when ``pool_size`` processes share the CPUs.

    A process's share is ``max(1, cpus // pool_size)``: that many threads
    draw a matrix while the task thread waits. One process solves a trial's
    ``runs`` on ``min(share, runs)`` solver processes (inline at 1), pool
    workers inline. Only shares of 1 and 2 have been measured.
    """
    share = max(1, (os.cpu_count() or 1) // pool_size)
    return ThreadPlan(share, min(share, runs))


def draw_instances(
    cfg: SweepConfig, seeds: dict[str, int], threads: int | None = None, out=None
) -> list[tuple[int, tuple]]:
    """(m, instance) for each m of ``cfg.m_grid`` from one seed table.

    The matrix is drawn once, whole, with ``max(m_grid)`` rows, by
    ``gen_gaussian_matrix`` on ``threads`` threads (every CPU when None) into
    ``out``, or the draw's own new buffer. The instance at m uses a view of
    its first m rows, which is bitwise the m-row draw from the same seed, and
    draws its noise at m entries. An instance is (signal, ensemble, A x + eps,
    sign(A x + eps)), with A x taken by support gather; every algorithm in
    the cell runs on it.
    """
    x = gen_sparse_signal(seeds["signal"], cfg.n, cfg.s, cfg.support_rule, cfg.value_rule)
    whole = gen_gaussian_matrix(seeds["matrix"], cfg.m_grid[-1], cfg.n, out, threads)
    instances = []
    for m in cfg.m_grid:
        A = MeasurementEnsemble(whole.matrix[:m], whole.seed, _finite=True)  # C-contiguous view, no copy
        lin = linear_measurements(A, x, cfg.noise_std, seeds["noise"])
        instances.append((m, (x, A, lin, sign_quantize(lin))))
    return instances


def solve(cfg: SweepConfig, algo: str, instance: tuple, init_seed: int) -> tuple[float, int, float, str]:
    """Run one algorithm on a drawn instance.

    Returns (final_l2_error, iterations_used, sign_agreement, stop_reason),
    with the error measured after projecting the estimate onto the sphere.
    Raises DegenerateIterateError when the run collapses to the zero vector.
    """
    x, A, lin, b = instance
    if algo == "one_shot":
        estimate = one_shot_estimate(A, b, cfg.s, cfg.tau)
        agreement = 1.0 - hamming_distance(sign_quantize(linear_measurements(A, estimate)), b)
        return _sphere_error(estimate, x.values), 1, agreement, "one_shot"
    algo_cfg = cfg._algorithm_config(init_seed)
    if algo == "iht":
        trace = iht_run(A, lin, algo_cfg)
    elif algo == "nbiht":
        trace = nbiht_run(A, b, algo_cfg)
    else:
        trace = biht_run(A, b, algo_cfg)
    error = _sphere_error(trace.estimate, x.values)
    return error, trace.iterations_used, trace.sign_agreement[-1], trace.stop_reason


_rows = None  # this process's max(m_grid) x N matrix buffer while it runs a sweep's tasks


def _run_one(cfg: SweepConfig, algo: str, m: int, trial: int, x, lin, b, init_seed: int,
             matrix_seed: int) -> SweepRecord:
    """One run on the instance whose matrix is the first m rows of ``_rows``, timed where it is solved.

    A run that fails is recorded as an ``error:`` row; a setting the solvers
    reject raises.
    """
    instance = (x, MeasurementEnsemble(_rows[:m], matrix_seed, _finite=True), lin, b)  # a read-only view
    start = time.perf_counter()
    try:
        outcome = solve(cfg, algo, instance, init_seed)
    except InvalidArgumentError:
        raise  # a rejected setting fails every run alike: a validation error
    except (DegenerateIterateError, SamplingExhaustedError) as exc:
        # a failed cell is recorded, never fatal to the sweep
        outcome = (2.0, 0, 0.0, f"error: {exc}")
    except Exception as exc:
        outcome = (2.0, 0, 0.0, f"error: {type(exc).__name__}: {exc}")
    wall_ms = (time.perf_counter() - start) * 1e3
    return SweepRecord(algo, m, cfg.n, cfg.s, trial, *outcome, wall_time_ms=wall_ms)


@contextlib.contextmanager
def _solver_processes(plan: ThreadPlan):
    """Yield ``plan.solvers`` forked solver processes, which read the sweep's ``_rows``.

    Every process is forked after ``_rows`` is mapped, so it shares the buffer, and before any
    draw thread exists. Yields None, to solve inline, for one solver or without fork.
    Unstarted runs are dropped on the way out.
    """
    if plan.solvers < 2 or "fork" not in multiprocessing.get_all_start_methods():
        yield None
        return
    pool = ProcessPoolExecutor(max_workers=plan.solvers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_pin_blas_threads)
    try:
        pool.submit(int).result()  # a fork pool forks all of its processes at its first call
        yield pool
    finally:
        pool.shutdown(cancel_futures=True)


def _run_task(
    cfg: SweepConfig, trial: int, seeds: dict[str, int], plan: ThreadPlan, solvers=None
) -> tuple[list[SweepRecord], float]:
    """Run every cell of one trial from the trial's seed table.

    A pool worker maps ``_rows`` in its first task, so a failed mapping
    comes back as that task's MemoryError. The trial's instances are drawn
    into ``_rows`` first; their runs are then solved by ``_run_one``, inline,
    or on the ``solvers`` of ``_solver_processes``, each sent without the
    matrix. All have returned when this returns, so the next trial may reuse
    the rows. Returns the records and this thread's seconds in the draw. A
    failed run is an ``error:`` row; a failed draw raises, and so does a run
    the solvers reject.
    """
    global _rows
    if _rows is None:
        _rows = _mapped(cfg.m_grid[-1], cfg.n)
    start = time.perf_counter()
    instances = draw_instances(cfg, seeds, plan.share, _rows)
    draw_s = time.perf_counter() - start
    runs = [(cfg, algo, m, trial, x, lin, b, seeds[f"init.{algo}"], A.seed)
            for m, (x, A, lin, b) in instances for algo in sorted(cfg.algorithms)]
    records = list((map if solvers is None else solvers.map)(_run_one, *zip(*runs)))
    return records, draw_s


def _numpy_openblas():
    """(getter, setter, corename) of the OpenBLAS numpy's products call, or None.

    The getter and setter are of its thread count; corename, None when the
    library lacks it, returns the kernel chosen at run time. They are looked
    up through numpy's extension module, whose dependencies hold that
    library, so another OpenBLAS loaded into the process (scipy's, say) is
    never found. None with another BLAS (MKL, Accelerate).
    """
    try:
        lib = ctypes.CDLL(_NUMPY_EXTENSION.__file__)  # already loaded: this only returns its handle
    except OSError:
        return None
    for name in _BLAS_SETTERS:
        getter = name.replace("_set_", "_get_")
        if hasattr(lib, name) and hasattr(lib, getter):
            setter = getattr(lib, name)
            setter.argtypes, setter.restype = [ctypes.c_int], None
            corename = getattr(lib, name.replace("set_num_threads", "get_corename"), None)
            if corename is not None:
                corename.argtypes, corename.restype = [], ctypes.c_char_p
            return getattr(lib, getter), setter, corename  # the getter returns a C int, ctypes' default
    return None


def _blas_core() -> str:
    """The kernel numpy's OpenBLAS runs, which ``OPENBLAS_CORETYPE`` can force, or "unknown".

    It is chosen for the CPU when the library loads, and it decides how the
    products round; numpy's ``show_config`` names only the build's default.
    """
    functions = _numpy_openblas()
    corename = None if functions is None else functions[2]
    return "unknown" if corename is None else (corename() or b"unknown").decode()


def _pin_blas_threads() -> None:
    """Run numpy's OpenBLAS in this process at one thread (a pool initializer).

    Without an OpenBLAS getter and setter it does nothing; it never raises,
    because a failed initializer breaks the pool.
    """
    functions = _numpy_openblas()
    if functions is not None:
        functions[1](1)


@contextlib.contextmanager
def blas_threads():
    """Run numpy's OpenBLAS at one thread inside the block.

    The count is process-wide; the one in force before is restored on the
    way out, also when the block raises. Yields 1, or None when no OpenBLAS
    getter and setter are found and nothing is set or restored.
    """
    functions = _numpy_openblas()
    before = None if functions is None else functions[0]()
    _pin_blas_threads()
    try:
        yield None if before is None else 1
    finally:
        if before is not None:
            functions[1](before)


def run_sweep(cfg: SweepConfig, workers: int = 1) -> tuple[list[SweepRecord], RunManifest]:
    """Execute all (algorithm, m, trial) cells; return sorted records + manifest.

    Writes manifest version 6. A task is one trial: it draws the matrix once,
    at the largest m, and runs every cell on a prefix. With ``workers > 1``
    the tasks run in a pool of at most one process per trial, so a sweep with
    fewer trials than workers uses a smaller pool. Each process follows
    ``_thread_plan``: a share of ``max(1, cpus // pool size)`` threads draws
    the matrices, into the process's one buffer, ``_rows``, which is
    process-wide like the BLAS count: pool workers map it in their first task,
    and one process for the sweep's duration only, even when it raises, so it
    runs one sweep at a time. Pool workers solve each m's runs inline; one
    process forks ``min(share, runs per trial)`` solver processes, which share
    its buffer, when that is above 1, and none outlives the sweep. numpy's
    OpenBLAS runs at one thread: pool workers and solvers are pinned at start,
    and the serial path pins this process's count for the sweep's duration
    and restores it afterwards. No thread or process count changes the records.
    A master seed outside [0, 2^64) is rejected as the seed tables are
    derived, before any draw; so are ``workers`` below 1, and a pool whose
    matrices of ``max(m_grid)`` rows exceed physical memory together.
    """
    return _execute(build_manifest(cfg), workers)


def _execute(manifest: RunManifest, workers: int) -> tuple[list[SweepRecord], RunManifest]:
    global _rows
    if workers < 1:
        raise InvalidArgumentError(f"workers must be >= 1, got {workers}")
    cfg = manifest.config
    pool_size = min(workers, cfg.trials_per_cell)
    _require_physical_memory(pool_size * cfg.m_grid[-1] * cfg.n * 8,
                             f"{pool_size} process(es) x {cfg.m_grid[-1]} x {cfg.n} float64 matrix entries")
    plan = _thread_plan(pool_size, len(cfg.m_grid) * len(cfg.algorithms))
    tasks = [(cfg, trial, trial_seed_table(cfg, trial), plan) for trial in range(cfg.trials_per_cell)]
    if pool_size > 1:
        with ProcessPoolExecutor(max_workers=pool_size, initializer=_pin_blas_threads) as pool:
            per_task = list(pool.map(_run_task, *zip(*tasks), chunksize=1))
    else:
        _rows = _mapped(cfg.m_grid[-1], cfg.n)
        try:
            with blas_threads(), _solver_processes(plan) as solvers:
                per_task = [_run_task(*task, solvers) for task in tasks]
        finally:
            _rows = None  # a library caller holds no buffer after the sweep
    pinned = "default" if _numpy_openblas() is None else "1"
    records = [rec for task_records, _ in per_task for rec in task_records]
    records.sort(key=lambda r: (r.algorithm, r.m, r.trial_index))
    return records, dataclasses.replace(
        manifest,
        workers=pool_size,
        blas_threads_per_worker=pinned,
        draw_threads=plan.share,
        draw_s=sum(draw_s for _, draw_s in per_task),
        solve_s=sum(rec.wall_time_ms for rec in records) / 1e3,
    )


def run_from_manifest(
    manifest: RunManifest, workers: int = 1
) -> tuple[list[SweepRecord], RunManifest]:
    """Re-execute a sweep from its manifest; records must match bitwise.

    Only a manifest of the version this build writes replays, on at least
    one worker. Warns (RuntimeWarning) when the manifest was written under
    another numpy version, whose Gaussian streams are not promised to be the
    same, or on another OpenBLAS kernel, whose products round differently,
    and reruns anyway.
    """
    require_manifest_version(manifest.manifest_version)
    for what, written, running, why in [
        ("numpy", manifest.numpy_version, np.__version__,
         "numpy does not promise the same standard_normal streams across versions"),
        ("OpenBLAS kernel", manifest.blas_core, _blas_core(), "another kernel rounds the products differently"),
    ]:
        if written != running:
            warnings.warn(f"manifest was written with {what} {written}, this is {what} {running}; "
                          f"{why}, so the records may differ", RuntimeWarning, stacklevel=2)
    return _execute(build_manifest(manifest.config), workers)


def _median_by_m(records: list[SweepRecord], algorithm: str) -> list[tuple[int, float]]:
    """(m, median error) series for one algorithm, ordered by m.

    Failed runs (``error:`` rows) carry a placeholder error and are left out,
    so an m where every run failed has no point.
    """
    by_m: dict[int, list[float]] = {}
    for rec in records:
        if rec.algorithm == algorithm and not rec.stop_reason.startswith("error:"):
            by_m.setdefault(rec.m, []).append(rec.final_l2_error)
    return [(m, float(np.median(by_m[m]))) for m in sorted(by_m)]


def _fit_loglog(series: list[tuple[float, float]]) -> tuple[float, float, float]:
    """OLS fit of log(value) against log(m) over an (m, value) series: (slope, intercept, r_squared).

    Needs at least 3 points and strictly positive values.
    """
    if len(series) < 3:
        raise InvalidArgumentError("need records at >= 3 distinct m values")
    values = np.array([v for _, v in series], dtype=float)
    if np.any(values <= 0):
        raise InvalidArgumentError("error statistic must be positive for a log-log fit")
    xs = np.log(np.array([m for m, _ in series], dtype=float))
    ys = np.log(values)
    slope, intercept = np.polyfit(xs, ys, 1)
    fitted = slope * xs + intercept
    ss_res = float(np.sum((ys - fitted) ** 2))
    ss_tot = float(np.sum((ys - np.mean(ys)) ** 2))
    # a constant series is fitted exactly up to rounding, which must not divide by zero
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), float(r_squared)


def fit_slope(
    records: list[SweepRecord], algorithm: str, error_stat: str = "median"
) -> tuple[float, float, float]:
    """OLS fit of log(median error per m) against log(m) for one algorithm.

    The median is taken over the runs that did not fail; ``"median"`` is the
    one ``error_stat``. Returns (slope, intercept, r_squared). Needs a record
    of ``algorithm``, at least 3 distinct m values and strictly positive medians.
    """
    if error_stat != "median":
        raise InvalidArgumentError(f"unknown error_stat {error_stat!r}")
    if all(rec.algorithm != algorithm for rec in records):
        raise InvalidArgumentError(f"no records of algorithm {algorithm!r}")
    return _fit_loglog(_median_by_m(records, algorithm))
