"""Reconstruction algorithms for one-bit and linear sparse recovery.

nbiht_run iterates
    z_{k+1} = x_k + (tau/m) A^T (b - sign(A x_k))
    x_{k+1} = normalize(hard_threshold(z_{k+1}, s))
from a unit s-sparse start. biht_run runs the same update without the sphere
normalization (a subgradient step for the sign-consistency objective) and
normalizes only the reported final estimate. iht_run is the classical linear
baseline x_{k+1} = hard_threshold(x_k + (1/m) A^T (y - A x_k), s), and
one_shot_estimate is the single gradient step from zero,
normalize(hard_threshold((tau/m) A^T b, s)).

The three runs share one loop, _descend, and differ only in the step they
pass it. Any iterate whose (quantized or linear) measurements already match
the data is a fixed point of the corresponding step map; runs stop there, on
iterate movement below stop_tol, on the iteration budget, or on a degenerate
(all-zero) thresholded iterate. A run returns an IterateTrace: the final
estimate plus one sign agreement (and, given the truth, one error) per
iterate; no iterate vector is kept.

Each run takes the forward product A x_k, and from it sign(A x_k), on a
contiguous copy of the columns of A on the iterate's support, reading from A
only the columns that entered the support; the copy holds at most s columns,
so a run's extra memory stays near 2*m*s doubles (the old and the new block
while one replaces the other). The loop hands that product to the step, and
iht_run forms its residual y - A x_k from it (m*s flops, not m*N for a dense
A @ x_k, which rounds differently).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateIterateError, InvalidArgumentError
from .model import BinaryObservation, MeasurementEnsemble, _sign, as_vector, gen_sparse_signal
from .sparse_ops import hamming_distance, hard_threshold, normalize

DEFAULT_TAU = math.sqrt(math.pi / 2.0)  # the step size making the first iterate unbiased

INIT_MODES = ("random_sparse", "matched_filter")
DEGENERATE_POLICIES = ("keep_previous", "fail")


@dataclass(frozen=True)
class AlgorithmConfig:
    """Shared knobs for the iterative reconstructions.

    tau is ignored by iht_run (the linear step is fixed at 1/m). stop_tol acts
    on iterate movement ||x_{k+1} - x_k||_2.
    """

    s: int
    tau: float = DEFAULT_TAU
    max_iters: int = 500
    stop_tol: float = 1e-10
    init: str = "random_sparse"
    init_seed: int = 0
    degenerate_policy: str = "keep_previous"

    def __post_init__(self):
        if self.s < 1:
            raise InvalidArgumentError("s must be >= 1")
        if not 0 < self.tau < math.inf:
            raise InvalidArgumentError("tau must be finite and positive")
        if self.max_iters < 1:
            raise InvalidArgumentError("max_iters must be >= 1")
        if not self.stop_tol >= 0:
            raise InvalidArgumentError("stop_tol must be nonnegative")
        if self.init not in INIT_MODES:
            raise InvalidArgumentError(f"unknown init {self.init!r}")
        if self.degenerate_policy not in DEGENERATE_POLICIES:
            raise InvalidArgumentError(f"unknown degenerate_policy {self.degenerate_policy!r}")


@dataclass
class IterateTrace:
    """Outcome of one run: the final estimate and one scalar per iterate.

    sign_agreement (and errors_vs_truth, when the truth was given) hold one
    entry for the start and one per step taken; no iterate vector is kept, so
    a run's memory is O(N + iterations).
    """

    estimate: np.ndarray  # unit for nbiht/biht, raw for iht
    sign_agreement: list[float]
    errors_vs_truth: list[float] | None
    stop_reason: str

    @property
    def iterations_used(self) -> int:
        return len(self.sign_agreement) - 1

    @property
    def final_error(self) -> float | None:
        return self.errors_vs_truth[-1] if self.errors_vs_truth is not None else None


class _ForwardSigns:
    """A x for the iterates of one run, gathering A's support columns.

    x is s-sparse in the hot loop, so the forward product is taken on the
    F-ordered block A[:, nz] (m*s instead of m*N flops). The block of the last
    support is kept, and only the columns that enter the support are read from
    the row-major matrix; the block is laid out as numpy lays out A[:, nz], so
    the product's bits do not depend on the cache.
    """

    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix
        self.cols = np.empty(0, dtype=np.intp)  # sorted support of the cached block
        self.block = np.empty((matrix.shape[0], 0), order="F")

    def product(self, x: np.ndarray) -> np.ndarray:
        nz = np.flatnonzero(x)
        if 0 < nz.size <= self.matrix.shape[1] // 8:
            if not np.array_equal(nz, self.cols):
                self.cols, self.block = nz, self._gather(nz)
            return self.block @ x[nz]
        self.cols, self.block = nz[:0], np.empty((self.matrix.shape[0], 0), order="F")
        return self.matrix @ x

    def _gather(self, nz: np.ndarray) -> np.ndarray:
        # cached columns are contiguous copies; new ones are strided reads of A
        cached = dict(zip(self.cols.tolist(), range(self.cols.size)))
        block = np.empty((self.matrix.shape[0], nz.size), order="F")
        for j, col in enumerate(nz.tolist()):
            i = cached.get(col)
            block[:, j] = self.matrix[:, col] if i is None else self.block[:, i]
        return block


def _sign_gradient(matrix: np.ndarray, bits: np.ndarray, signs: np.ndarray) -> np.ndarray:
    # A^T (b - sign(A x)); the residual is sparse near sign consistency, so sum
    # only the disagreeing rows when few enough.
    residual = bits - signs
    rows = np.flatnonzero(residual)
    if rows.size == 0:
        return np.zeros(matrix.shape[1])
    if rows.size <= matrix.shape[0] // 8:
        return residual[rows] @ matrix[rows]
    return matrix.T @ residual


def _unwrap(A: MeasurementEnsemble, b) -> tuple[np.ndarray, np.ndarray]:
    """The matrix and the bits, checking raw bits as a BinaryObservation checks its own."""
    matrix = A.matrix
    bits = as_vector(b)
    if bits.shape != (matrix.shape[0],):
        raise InvalidArgumentError(
            f"observation length {bits.size} != ensemble m {matrix.shape[0]}"
        )
    if not isinstance(b, BinaryObservation) and not np.all(np.abs(bits) == 1.0):
        raise InvalidArgumentError("bits must contain only -1 and +1")
    return matrix, bits


def _update(matrix, bits, x, signs, tau: float, s: int, degenerate_policy: str, normalized: bool):
    """Threshold x + (tau/m) A^T (b - signs) to s terms; normalize it if asked.

    Returns None when the thresholded iterate is zero under keep_previous.
    """
    t = hard_threshold(x + (tau / matrix.shape[0]) * _sign_gradient(matrix, bits, signs), s)
    if not np.any(t):
        if degenerate_policy == "fail":
            raise DegenerateIterateError("hard threshold produced the zero vector")
        return None
    return normalize(t) if normalized else t


def nbiht_step(
    A: MeasurementEnsemble,
    b,
    x_k,
    tau: float,
    s: int,
    degenerate_policy: str = "keep_previous",
) -> np.ndarray:
    """One normalized update from the unit s-sparse iterate x_k."""
    matrix, bits = _unwrap(A, b)
    x = as_vector(x_k)
    if x.shape != (matrix.shape[1],):
        raise InvalidArgumentError("iterate length does not match ensemble N")
    signs = _sign(_ForwardSigns(matrix).product(x))
    x_new = _update(matrix, bits, x, signs, tau, s, degenerate_policy, normalized=True)
    return x.copy() if x_new is None else x_new


def _initial_iterate(A: MeasurementEnsemble, b, cfg: AlgorithmConfig) -> np.ndarray:
    if cfg.init == "matched_filter":
        return one_shot_estimate(A, b, cfg.s, cfg.tau)
    return gen_sparse_signal(cfg.init_seed, A.N, cfg.s).values.copy()


def _descend(
    A: MeasurementEnsemble, bits: np.ndarray, cfg: AlgorithmConfig, truth, step
) -> IterateTrace:
    """The loop every run shares: x_{k+1} = step(x_k, sign(A x_k), A x_k).

    step returns the next iterate, or a stop reason (a str) before anything is
    recorded; the loop also stops on the budget or on movement below stop_tol.
    """
    truth_v = None if truth is None else as_vector(truth)
    forward = _ForwardSigns(A.matrix)
    x = _initial_iterate(A, bits, cfg)
    ax = forward.product(x)
    signs = _sign(ax)
    agreement = [1.0 - hamming_distance(signs, bits)]
    errors = None if truth_v is None else [float(np.linalg.norm(x - truth_v))]

    stop_reason = "max_iters"
    for _ in range(cfg.max_iters):
        x_new = step(x, signs, ax)
        if isinstance(x_new, str):
            stop_reason = x_new
            break
        ax = forward.product(x_new)
        signs = _sign(ax)
        agreement.append(1.0 - hamming_distance(signs, bits))
        if errors is not None:
            errors.append(float(np.linalg.norm(x_new - truth_v)))
        movement = float(np.linalg.norm(x_new - x))
        x = x_new
        if movement < cfg.stop_tol:
            stop_reason = "converged"
            break

    return IterateTrace(x, agreement, errors, stop_reason)


def _binary_run(A: MeasurementEnsemble, b, cfg: AlgorithmConfig, truth, normalized: bool):
    matrix, bits = _unwrap(A, b)

    def step(x, signs, _ax):
        if np.array_equal(signs, bits):
            return "converged"  # sign consistency: fixed point of the step map
        x_new = _update(matrix, bits, x, signs, cfg.tau, cfg.s, cfg.degenerate_policy, normalized)
        return "degenerate" if x_new is None else x_new

    return _descend(A, bits, cfg, truth, step)


def nbiht_run(A: MeasurementEnsemble, b, cfg: AlgorithmConfig, truth=None) -> IterateTrace:
    """Run the normalized iteration; every iterate is unit and s-sparse."""
    return _binary_run(A, b, cfg, truth, normalized=True)


def biht_run(A: MeasurementEnsemble, b, cfg: AlgorithmConfig, truth=None) -> IterateTrace:
    """Run the unnormalized iteration; only the reported estimate is normalized."""
    trace = _binary_run(A, b, cfg, truth, normalized=False)
    trace.estimate = normalize(trace.estimate)  # never zero: degenerate steps are not taken
    return trace


def iht_run(A: MeasurementEnsemble, y, cfg: AlgorithmConfig, truth=None) -> IterateTrace:
    """Classical hard-thresholding descent on linear measurements y = Ax.

    The residual y - A x_k uses the forward product the loop already took on
    the support columns.
    """
    matrix = A.matrix
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (matrix.shape[0],):
        raise InvalidArgumentError(f"measurement length {y.size} != ensemble m {matrix.shape[0]}")
    if not np.all(np.isfinite(y)):
        raise InvalidArgumentError("measurements must be finite")

    def step(x, _signs, ax):
        x_new = hard_threshold(x + matrix.T @ (y - ax) / matrix.shape[0], cfg.s)
        # the norm, not array_equal: a step that keeps an inf entry moves by nan
        return "converged" if float(np.linalg.norm(x_new - x)) == 0.0 else x_new

    return _descend(A, _sign(y), cfg, truth, step)


def one_shot_estimate(A: MeasurementEnsemble, b, s: int, tau: float = DEFAULT_TAU) -> np.ndarray:
    """Single-step linear estimator normalize(hard_threshold((tau/m) A^T b, s))."""
    matrix, bits = _unwrap(A, b)
    z = (tau / matrix.shape[0]) * (matrix.T @ bits)
    t = hard_threshold(z, s)
    if not np.any(t):
        raise DegenerateIterateError("one-shot estimate thresholded to zero")
    return normalize(t)
