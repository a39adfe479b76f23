"""Domain types and the one-bit measurement model b = sign(Ax).

Sign convention: sign(w) = +1 for w > 0 and -1 otherwise, including w = 0;
``_sign`` applies it, for ``sign_quantize`` and the solvers alike. A
``UnitSparseVector`` is a ``SparseVector`` of unit norm.
All generated arrays are frozen (read-only) after construction; every
constructor is a pure function of its seed and parameters. The Gaussian
ensemble has one draw, ``gen_gaussian_matrix``: independently seeded 512-row
blocks, which ``_map_blocks`` fills on a thread pool while the calling thread
waits; the first m rows of a taller draw are bitwise the m-row draw, so a
sweep draws each trial's matrix once, whole, and runs every m on a prefix.
The probes also run their sample blocks through ``_map_blocks``; it works on
every CPU unless a sweep gives it its process's share. A x has one form:
the product of the columns of A on the support of x with the nonzeros of x
(``linear_measurements``), which every measurement and probe takes. An
ensemble that takes many such products (a probe's) may carry a read-only
column-major copy of its matrix (``_with_columns``), from which the support
columns are read contiguously; the gathered block has the values and the
layout of the one gathered from the row-major matrix, so the product is
bitwise the same. Sweeps, solvers and ``recover`` never build the copy. The
copies, ``gen_gaussian_matrix``'s default buffers and the buffer a sweep
shares with its solver processes are page-mapped (``_mapped``) and go back to
the system when their last view goes; a sweep draws into that shared buffer
or a heap array, as page-mapping a pool worker's draws made every trial fault
in fresh pages.
"""

from __future__ import annotations

import functools
import math
import mmap
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import InvalidArgumentError
from .rng import block_generator, generator_for

DRAW_BLOCK_ROWS = 512  # rows per seeded block of a blocked draw; fixed, so prefixes nest


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a`` as a read-only C-contiguous float64 array: ``a`` itself when it is one, else a copy."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.flags.writeable = False
    return a


def as_vector(x) -> np.ndarray:
    """The float64 vector a SparseVector or BinaryObservation holds, or an array-like as one."""
    if isinstance(x, SparseVector):
        return x.values
    if isinstance(x, BinaryObservation):
        return x.bits
    return np.asarray(x, dtype=np.float64)


def _require_physical_memory(nbytes: int, what: str) -> None:
    """Reject ``what`` if its ``nbytes`` exceed physical memory, where that is known.

    A larger mapping may succeed under overcommit, and its fill then end in the OOM killer.
    """
    try:
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf, or no such name here
        return
    if nbytes > have:
        raise InvalidArgumentError(f"{what} need {nbytes / 2**30:.3g} GiB, more than the "
                                   f"{have / 2**30:.3g} GiB of physical memory")


def _mapped(m: int, N: int) -> np.ndarray:
    """An m x N zeroed float64 array on shared pages (a later fork sees its writes), unmapped with its last view."""
    if m < 1 or N < 1:
        raise InvalidArgumentError(f"matrix dimensions must be positive, got m={m}, N={N}")
    try:
        return np.frombuffer(mmap.mmap(-1, m * N * 8)).reshape(m, N)
    except (OSError, OverflowError) as exc:  # beyond the address space or the system's commit limit
        raise MemoryError(f"cannot map {m} x {N} float64 entries: {exc}") from exc


@dataclass(frozen=True)
class SparseVector:
    """Length-N real vector with at most ``sparsity_budget`` nonzero entries.

    A C-contiguous float64 ``values`` is frozen in place, not copied, so the
    caller's array becomes read-only; any other input is copied.
    """

    values: np.ndarray
    sparsity_budget: int

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen(self.values))
        if self.sparsity_budget < 1:
            raise InvalidArgumentError("sparsity_budget must be >= 1")
        if self.values.ndim != 1 or self.values.size < self.sparsity_budget:
            raise InvalidArgumentError("need a 1-d vector with N >= sparsity_budget")
        nnz = int(np.count_nonzero(self.values))
        if nnz > self.sparsity_budget:
            raise InvalidArgumentError(
                f"{nnz} nonzeros exceed sparsity budget {self.sparsity_budget}"
            )

    @property
    def n(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class UnitSparseVector(SparseVector):
    """SparseVector constrained to the unit sphere (1e-12 relative tolerance)."""

    def __post_init__(self):
        super().__post_init__()
        norm = float(np.linalg.norm(self.values))
        if abs(norm - 1.0) > 1e-12:
            raise InvalidArgumentError(f"vector norm {norm!r} is not 1 within 1e-12")


@dataclass(frozen=True)
class MeasurementEnsemble:
    """m x N matrix of i.i.d. standard Gaussian entries plus its seed.

    Rows are the measurement vectors; m and N are the matrix's shape.
    Regenerating from the same (seed, m, N) yields a bitwise-identical matrix.
    ``_columns`` is None or the matrix stored column by column (see ``_with_columns``).
    A C-contiguous float64 ``matrix`` is frozen in place, not copied, so the
    caller's array becomes read-only; any other input is copied.
    A matrix with a NaN or infinite entry is rejected, once, when the
    ensemble is built; the package's own draws pass ``_finite=True``, as a
    Gaussian draw is finite by construction, and are not scanned.
    """

    matrix: np.ndarray
    seed: int
    _columns: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _finite: InitVar[bool] = False

    def __post_init__(self, _finite: bool):
        object.__setattr__(self, "matrix", _frozen(self.matrix))
        if self.matrix.ndim != 2:
            raise InvalidArgumentError("matrix must be 2-d")
        if self.m < 1 or self.N < 1:
            raise InvalidArgumentError("m and N must be >= 1")
        if not _finite and not np.isfinite(self.matrix).all():
            raise InvalidArgumentError("matrix entries must be finite (no NaN or inf)")

    @property
    def m(self) -> int:
        return self.matrix.shape[0]

    @property
    def N(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True)
class BinaryObservation:
    """Length-m vector of quantized measurements, entries exactly -1 or +1.

    A C-contiguous float64 ``bits`` is frozen in place, not copied, so the
    caller's array becomes read-only; any other input is copied.
    """

    bits: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "bits", _frozen(self.bits))
        if self.bits.ndim != 1:
            raise InvalidArgumentError("bits must be 1-d")
        if not np.all(np.abs(self.bits) == 1.0):
            raise InvalidArgumentError("bits must contain only -1 and +1")

    @property
    def m(self) -> int:
        return self.bits.size


def _map_blocks(blocks: int, work, threads: int | None = None) -> list:
    """``[work(0), ..., work(blocks - 1)]`` on ``threads`` threads, every CPU when None.

    Never more threads than blocks or CPUs; the calling thread waits. The
    first exception in block order is raised after the queued blocks are
    dropped and every thread is joined.
    """
    if threads is not None and threads < 1:
        raise InvalidArgumentError(f"threads must be >= 1, got {threads}")
    with ThreadPoolExecutor(min(threads or blocks, blocks, os.cpu_count() or 1)) as pool:
        return list(pool.map(work, range(blocks)))


def _fill_block(matrix: np.ndarray, seed: int, i: int) -> None:
    rows = matrix[i * DRAW_BLOCK_ROWS:(i + 1) * DRAW_BLOCK_ROWS]
    block_generator(seed, i).standard_normal(out=rows)  # releases the GIL


def _with_columns(A: MeasurementEnsemble) -> MeasurementEnsemble:
    """``A`` with a read-only column-major copy of its matrix in a new ``_mapped`` buffer, for repeated ``A x``.

    The copy is made in 512-row blocks, faster than one whole-matrix
    assignment (about 21 against 36 ms at 8192 x 256). ``linear_measurements``
    then gathers the support columns from it: contiguous reads instead of
    strided ones, and the same product bits.
    """
    columns = _mapped(A.N, A.m).T
    for start in range(0, A.m, DRAW_BLOCK_ROWS):
        columns[start:start + DRAW_BLOCK_ROWS] = A.matrix[start:start + DRAW_BLOCK_ROWS]
    columns.flags.writeable = False
    copied = MeasurementEnsemble(A.matrix, A.seed, _finite=True)
    object.__setattr__(copied, "_columns", columns)
    return copied


def gen_gaussian_matrix(
    seed: int, m: int, N: int, out: np.ndarray | None = None, threads: int | None = None
) -> MeasurementEnsemble:
    """The m x N blocked draw from ``seed``, on ``threads`` threads, into ``out`` or a new ``_mapped`` buffer.

    Block i fills rows [512 i, 512 (i + 1)) from its own stream,
    ``rng.block_generator(seed, i)``, so the matrix depends neither on the
    thread count (every CPU when None) nor on which thread filled what, and
    with a sweep trial's matrix seed it is that trial's matrix at m. The
    buffer is allocated before any block seed is derived, so an
    unallocatable size fails at once. Given ``out`` (writable, C-contiguous,
    float64), the matrix is its first m * N entries.
    """
    if m < 1 or N < 1:
        raise InvalidArgumentError(f"matrix dimensions must be positive, got m={m}, N={N}")
    out = _mapped(m, N) if out is None else out
    if not (out.dtype == np.float64 and out.flags.carray and out.size >= m * N):
        raise InvalidArgumentError(f"out must be a writable C-contiguous float64 array of at "
                                   f"least {m} x {N} entries")
    matrix = out.reshape(-1)[:m * N].reshape(m, N)
    _map_blocks(-(-m // DRAW_BLOCK_ROWS), functools.partial(_fill_block, matrix, seed), threads)
    return MeasurementEnsemble(matrix=matrix, seed=int(seed), _finite=True)


SUPPORT_RULES = ("uniform_random", "first_s")
VALUE_RULES = ("gaussian", "rademacher", "flat")


def gen_sparse_signal(
    seed: int,
    N: int,
    s: int,
    support_rule: str = "uniform_random",
    value_rule: str = "gaussian",
) -> UnitSparseVector:
    """Draw a unit-norm signal with exactly s nonzeros on the chosen support."""
    if not 1 <= s <= N:
        raise InvalidArgumentError(f"need 1 <= s <= N, got s={s}, N={N}")
    if support_rule not in SUPPORT_RULES:
        raise InvalidArgumentError(f"unknown support_rule {support_rule!r}")
    if value_rule not in VALUE_RULES:
        raise InvalidArgumentError(f"unknown value_rule {value_rule!r}")
    rng = generator_for(seed)
    if support_rule == "first_s":
        support = np.arange(s)
    else:
        support = np.sort(rng.choice(N, size=s, replace=False))
    if value_rule == "flat":
        vals = np.ones(s)
    elif value_rule == "rademacher":
        vals = rng.integers(0, 2, size=s) * 2.0 - 1.0
    else:
        vals = rng.standard_normal(s)
        while np.any(vals == 0.0):  # keep exactly s nonzeros
            vals = rng.standard_normal(s)
    out = np.zeros(N)
    out[support] = vals / np.linalg.norm(vals)
    return UnitSparseVector(values=out, sparsity_budget=s)


def _sign(v: np.ndarray) -> np.ndarray:
    """sign(v) under the package's convention, +1.0 where v > 0 and -1.0 elsewhere, unchecked."""
    return np.where(v > 0, 1.0, -1.0)


def sign_quantize(v) -> BinaryObservation:
    """Elementwise one-bit quantizer: +1 where v > 0, -1 otherwise (0 -> -1).

    NaN and +-inf have no sign under this convention and are rejected.
    """
    v = np.asarray(v, dtype=np.float64)
    if not np.all(np.isfinite(v)):
        raise InvalidArgumentError("cannot quantize NaN or infinite measurements")
    return BinaryObservation(bits=_sign(v))


def linear_measurements(A: MeasurementEnsemble, x, noise_std: float = 0.0, noise_seed: int = 0) -> np.ndarray:
    """Pre-quantization measurements Ax + eps with eps ~ N(0, noise_std^2).

    eps is identically zero when noise_std == 0 (no draw is consumed). The
    product is taken on the columns of A on the support of x,
    A[:, nz] @ x[nz] (m*s instead of m*N flops), read from the ensemble's
    column-major copy when it has one; it equals the dense product A @ x up
    to rounding, not bitwise. NaN and infinite noise_std are rejected.
    """
    x = as_vector(x)
    if x.shape != (A.N,):
        raise InvalidArgumentError(f"signal length {x.size} != ensemble N {A.N}")
    if not 0 <= noise_std < math.inf:  # also rejects NaN
        raise InvalidArgumentError(f"noise_std must be finite and nonnegative, got {noise_std!r}")
    nz = np.flatnonzero(x)
    y = (A.matrix if A._columns is None else A._columns)[:, nz] @ x[nz]
    if noise_std > 0:
        y = y + generator_for(noise_seed).normal(0.0, noise_std, size=A.m)
    return y


def measure(A: MeasurementEnsemble, x, noise_std: float = 0.0, noise_seed: int = 0) -> BinaryObservation:
    """Quantized measurements sign(Ax + eps); scale-invariant in x when noiseless."""
    return sign_quantize(linear_measurements(A, x, noise_std, noise_seed))
