"""Domain types and the one-bit measurement model b = sign(Ax).

Sign convention: sign(w) = +1 for w > 0 and -1 otherwise, including w = 0.
All generated arrays are frozen (read-only) after construction; every
constructor is a pure function of its seed and parameters. The Gaussian
ensemble has one draw: independently seeded 512-row blocks, which
``BlockFiller`` fills in index order on helper threads and the calling
thread, handing out row prefixes as soon as their blocks are filled, and
which ``gen_gaussian_matrix`` fills on the calling thread alone; the first m
rows of a taller draw are bitwise the m-row draw. A x has one form: the
product of the columns of A on the support of x with the nonzeros of x
(``linear_measurements``), which every measurement and probe takes. An
ensemble that takes many such products (a probe's) may carry a read-only
column-major copy of its matrix (``_with_columns``), from which the support
columns are read contiguously; the gathered block has the values and the
layout of the one gathered from the row-major matrix, so the product is
bitwise the same. Sweeps, solvers and ``recover`` never build the copy. The
probes fill a ``BlockFiller`` on every CPU, and make their copies, in
page-mapped buffers of their own (``out=``), which go back to the system
when a probe returns; the filler's default buffer stays a heap array, as
page-mapping it made every trial of a pool worker fault in fresh pages.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import InvalidArgumentError
from .rng import block_generator, generator_for

DRAW_BLOCK_ROWS = 512  # rows per seeded block of a blocked draw; fixed, so prefixes nest


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.flags.writeable = False
    return a


def as_vector(x) -> np.ndarray:
    """Unwrap SparseVector/UnitSparseVector/array-likes to a float64 vector."""
    if isinstance(x, UnitSparseVector):
        x = x.inner
    if isinstance(x, SparseVector):
        return x.values
    return np.asarray(x, dtype=np.float64)


@dataclass(frozen=True)
class SparseVector:
    """Length-N real vector with at most ``sparsity_budget`` nonzero entries."""

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
class UnitSparseVector:
    """SparseVector constrained to the unit sphere (1e-12 relative tolerance)."""

    inner: SparseVector

    def __post_init__(self):
        norm = float(np.linalg.norm(self.inner.values))
        if abs(norm - 1.0) > 1e-12:
            raise InvalidArgumentError(f"vector norm {norm!r} is not 1 within 1e-12")

    @property
    def values(self) -> np.ndarray:
        return self.inner.values

    @property
    def sparsity_budget(self) -> int:
        return self.inner.sparsity_budget

    @property
    def n(self) -> int:
        return self.inner.n


@dataclass(frozen=True)
class MeasurementEnsemble:
    """m x N matrix of i.i.d. standard Gaussian entries plus its seed.

    Rows are the measurement vectors; m and N are the matrix's shape.
    Regenerating from the same (seed, m, N) yields a bitwise-identical matrix.
    ``_columns`` is None or the matrix stored column by column (see ``_with_columns``).
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
    """Length-m vector of quantized measurements, entries exactly -1 or +1."""

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


class BlockFiller:
    """The m x N blocked draw from ``seed``, filled in block order as its rows are asked for.

    Rows [512 i, 512 (i + 1)) come from their own stream,
    ``rng.block_generator(seed, i)``. The matrix is allocated at once and
    every block is queued, in index order, on ``threads - 1`` helper threads
    (never more than the blocks or the CPUs allow). ``rows(k)`` fills, on the
    calling thread, every block below row k that no helper has started, waits
    for the ones the helpers are filling, and returns the first k rows,
    re-raising a helper's exception. A block's bits depend only on (seed, i),
    so the matrix does not depend on the thread count or on which thread
    filled what. ``close`` (or leaving a ``with`` block) drops the queued
    blocks and joins the helpers; no block is filled after it returns.
    Given ``out`` (writable, C-contiguous, float64), the matrix is its first m * N entries.
    """

    def __init__(self, seed: int, m: int, N: int, threads: int = 1, out: np.ndarray | None = None):
        if m < 1 or N < 1:
            raise InvalidArgumentError(f"matrix dimensions must be positive, got m={m}, N={N}")
        if threads < 1:
            raise InvalidArgumentError(f"threads must be >= 1, got {threads}")
        # allocated before any block seed is derived, so an unallocatable size fails at once
        out = np.empty((m, N)) if out is None else out
        if not (out.dtype == np.float64 and out.flags.carray and out.size >= m * N):
            raise InvalidArgumentError(f"out must be a writable C-contiguous float64 array of at "
                                       f"least {m} x {N} entries")
        self._matrix = out.reshape(-1)[:m * N].reshape(m, N)
        self._seed = seed
        self._ready = 0  # leading blocks known to be filled
        self._closed = False
        blocks = -(-m // DRAW_BLOCK_ROWS)
        helpers = min(threads, blocks, os.cpu_count() or 1) - 1
        self._helpers = ThreadPoolExecutor(helpers) if helpers else None
        self._queued = [self._helpers.submit(self._fill, i) for i in range(blocks)] if helpers else []

    def __enter__(self) -> BlockFiller:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _fill(self, i: int) -> None:
        rows = self._matrix[i * DRAW_BLOCK_ROWS:(i + 1) * DRAW_BLOCK_ROWS]
        block_generator(self._seed, i).standard_normal(out=rows)  # releases the GIL

    def rows(self, k: int) -> np.ndarray:
        """The first ``k`` rows, filled (a view of the matrix, no copy)."""
        if not 1 <= k <= self._matrix.shape[0]:
            raise InvalidArgumentError(f"need 1 <= k <= {self._matrix.shape[0]}, got {k}")
        if self._closed:
            raise InvalidArgumentError("the draw is closed")
        need = -(-k // DRAW_BLOCK_ROWS)
        for i in range(self._ready, need):
            if not self._queued or self._queued[i].cancel():
                self._fill(i)  # no helper has started it
        for block in self._queued[self._ready:need]:
            if not block.cancelled():
                block.result()  # waits for the helper; raises its exception
        self._ready = max(self._ready, need)
        return self._matrix[:k]

    def close(self) -> None:
        """Drop the blocks no helper has started and join the helpers."""
        self._closed = True
        if self._helpers is not None:
            self._helpers.shutdown(wait=True, cancel_futures=True)


def _with_columns(A: MeasurementEnsemble, out: np.ndarray) -> MeasurementEnsemble:
    """``A`` with a read-only column-major copy of its matrix in ``out``, for repeated ``A x``.

    ``out`` is a writable float64 array of ``A.m * A.N`` entries. The copy is
    made in 512-row blocks, faster than one whole-matrix assignment (about 21
    against 36 ms at 8192 x 256). ``linear_measurements`` then gathers the support columns from it:
    contiguous reads instead of strided ones, and the same product bits.
    """
    columns = out.reshape(A.N, A.m).T
    for start in range(0, A.m, DRAW_BLOCK_ROWS):
        columns[start:start + DRAW_BLOCK_ROWS] = A.matrix[start:start + DRAW_BLOCK_ROWS]
    columns.flags.writeable = False
    copied = MeasurementEnsemble(A.matrix, A.seed, _finite=True)
    object.__setattr__(copied, "_columns", columns)
    return copied


def gen_gaussian_matrix(seed: int, m: int, N: int) -> MeasurementEnsemble:
    """The m x N blocked draw from ``seed``, filled on the calling thread.

    Bitwise the matrix ``BlockFiller(seed, m, N)`` fills at any thread count,
    so it equals a sweep trial's matrix at m when ``seed`` is the trial's
    matrix seed.
    """
    with BlockFiller(seed, m, N) as filler:
        return MeasurementEnsemble(matrix=filler.rows(m), seed=int(seed), _finite=True)


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
    return UnitSparseVector(SparseVector(values=out, sparsity_budget=s))


def sign_quantize(v) -> BinaryObservation:
    """Elementwise one-bit quantizer: +1 where v > 0, -1 otherwise (0 -> -1).

    NaN and +-inf have no sign under this convention and are rejected.
    """
    v = np.asarray(v, dtype=np.float64)
    if not np.all(np.isfinite(v)):
        raise InvalidArgumentError("cannot quantize NaN or infinite measurements")
    return BinaryObservation(bits=np.where(v > 0, 1.0, -1.0))


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
