"""Empirical checks of the analytic building blocks behind the algorithms.

Each probe measures a quantity the analysis predicts (unbiasedness of the
sign correlation, Hamming/geodesic agreement of one-bit embeddings, the
restricted approximate invertibility slope on an annulus, orthogonal
decomposition residuals, Gaussian widths of sparse balls, the metric
projection inequality) and reports the observed deviation or fit, never the
asymptotic constants, which live beyond desk scale. Their matrices are the
package's one whole-matrix draw, ``model.gen_gaussian_matrix``, into
page-mapped buffers that go back to the system when the probe returns, where
heap blocks of this size would stay with the process; each matrix probe
first checks that its buffers fit in physical memory. Forward products A x
come from ``model.linear_measurements``, on the support of x as in the
sweeps; the embedding and RAIC probes, which take many on one matrix, read
the support columns from a page-mapped column-major copy
(``model._with_columns``), with the same bits. The RAIC probe's adjoint of a
sign residual is the solvers' own (``algorithms._sign_gradient``) on the
row-major matrix, which sums only the disagreeing rows when they are few;
the other adjoint products stay dense. The width, projection and
decomposition probes draw no matrix. They take their samples in blocks:
block i of a stream seeded by ``seed`` draws from
``rng.block_generator(seed, i)`` alone, and the blocks are run by
``model._map_blocks``, the thread pool under the matrix draw. Both work on
every CPU. A block's result depends only on its index, and the blocks' results
are combined in block order, so what a probe returns does not depend on the
thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algorithms import DEFAULT_TAU, _sign_gradient
from .errors import InvalidArgumentError, SamplingExhaustedError
from .model import (
    DRAW_BLOCK_ROWS,
    _map_blocks,
    _mapped,
    _require_physical_memory,
    _with_columns,
    as_vector,
    gen_gaussian_matrix,
    gen_sparse_signal,
    linear_measurements,
    sign_quantize,
)
from .rng import block_generator, generator_for, substream_seed
from .sparse_ops import geodesic_distance, hamming_distance, hard_threshold, sparse_dual_norm

# Entries in one array of the width and decomposition probes' samples (128 KiB).
# With whole 512 x 256 blocks (1 MiB arrays) the pool threads' heaps kept
# about 4 MiB after the probes returned, which the next matrix probe's peak
# memory then included.
_CHUNK = 2**14

_RETRY_BUDGET = 100_000  # attempts per RAIC sample before its distance is taken as unreachable


def _chunks(count: int, block: int, n: int) -> list[tuple[int, int]]:
    """The row ranges of block ``block`` of ``count`` rows of length n, of ``_CHUNK`` entries or one row.

    Drawn one after another from the block's generator, the chunks hold the
    bits of the whole block drawn at once.
    """
    stop = min(count, (block + 1) * DRAW_BLOCK_ROWS)
    step = max(1, _CHUNK // n)
    return [(lo, min(stop, lo + step)) for lo in range(block * DRAW_BLOCK_ROWS, stop, step)]


def check_unbiasedness(y, m: int, trials: int, seed: int) -> float:
    """Max coordinate deviation of the averaged sign correlation from y.

    Averages sqrt(pi/2)/(trials*m) * A^T sign(A y) over ``trials`` fresh
    ensembles; the population mean is exactly y for unit y.
    """
    y = as_vector(y)
    if abs(float(np.linalg.norm(y)) - 1.0) > 1e-9:
        raise InvalidArgumentError("y must be unit norm within 1e-9")
    if trials < 1 or m < 1 or trials * m < 10_000:
        raise InvalidArgumentError("need trials*m >= 10^4 measurements")
    _require_physical_memory(m * y.size * 8, f"{m} x {y.size} float64 matrix entries")
    acc = np.zeros(y.size)
    buf = _mapped(m, y.size)  # every trial is drawn into it
    for t in range(trials):
        A = gen_gaussian_matrix(substream_seed(seed, t), m, y.size, buf)
        acc += A.matrix.T @ sign_quantize(linear_measurements(A, y)).bits
    estimate = DEFAULT_TAU / (trials * m) * acc
    return float(np.max(np.abs(estimate - y)))


def embedding_gap(A, x, y) -> float:
    """|hamming(sign(Ax), sign(Ay)) - geodesic(x, y)| for one pair."""
    bx = sign_quantize(linear_measurements(A, x))
    by = sign_quantize(linear_measurements(A, y))
    return abs(hamming_distance(bx, by) - geodesic_distance(x, y))


def check_embedding(N: int, s: int, m: int, pairs: int, seed: int) -> float:
    """Max embedding gap over random s-sparse unit pairs on one ensemble."""
    if pairs < 1:
        raise InvalidArgumentError("pairs must be >= 1")
    _require_physical_memory(2 * m * N * 8, f"2 x {m} x {N} float64 matrix entries")  # the matrix and its copy
    A = _with_columns(gen_gaussian_matrix(substream_seed(seed, 0), m, N))
    worst = 0.0
    for k in range(pairs):
        x = gen_sparse_signal(substream_seed(seed, 1, 2 * k), N, s)
        y = gen_sparse_signal(substream_seed(seed, 1, 2 * k + 1), N, s)
        worst = max(worst, embedding_gap(A, x, y))
    return worst


@dataclass(frozen=True)
class RaicProbeConfig:
    """Sampling plan for the restricted approximate invertibility probe.

    Samples s-sparse unit y with r_lb <= ||x - y|| <= r_ub around a fixed
    seeded x and fits lhs ~ fitted_delta * ||x - y|| + fitted_eta. nu defaults
    to sqrt(pi/2)/m. r_lb = 0 is allowed as a diagnostic (admits y = x).
    """

    N: int
    s: int
    m: int
    samples: int
    seed: int
    r_lb: float = 0.1
    r_ub: float = 0.5
    nu: float | None = None

    def __post_init__(self):
        if not 1 <= self.s <= self.N:
            raise InvalidArgumentError("need 1 <= s <= N")
        if self.m < 1 or self.samples < 1:
            raise InvalidArgumentError("m and samples must be >= 1")
        if not 0.0 <= self.r_lb <= self.r_ub <= 2.0:
            raise InvalidArgumentError("need 0 <= r_lb <= r_ub <= 2")
        if self.nu is not None and not 0 < self.nu < math.inf:  # also rejects NaN
            raise InvalidArgumentError("nu must be finite and positive")

    @property
    def effective_nu(self) -> float:
        return self.nu if self.nu is not None else DEFAULT_TAU / self.m


@dataclass
class RaicProbeResult:
    """Fitted slope/intercept plus the raw (distance, lhs) cloud."""

    fitted_delta: float
    fitted_eta: float
    max_residual: float
    per_sample: list[tuple[float, float]] = field(default_factory=list)


def _sparse_point_at_distance(x: np.ndarray, s: int, target: float, rng: np.random.Generator) -> np.ndarray:
    """s-sparse unit y at prescribed Euclidean distance from s-sparse unit x.

    Builds y = cos(t)*u + sin(t)*g on a support overlapping x's, where u is the
    renormalized restriction of x and g an orthogonal unit direction, so
    ||x - y||^2 = 2 - 2*||x|_S||*cos(t) hits the target exactly.
    """
    n = x.size
    supp = np.flatnonzero(x)
    pool = np.setdiff1d(np.arange(n), supp, assume_unique=True)
    j_max = min(s, n - s)
    for _ in range(_RETRY_BUDGET):
        j = int(rng.integers(0, j_max + 1)) if j_max > 0 else 0
        kept = rng.choice(supp, size=s - j, replace=False) if s - j > 0 else np.empty(0, int)
        if j > 0:
            fresh = rng.choice(pool, size=j, replace=False)
            support = np.concatenate([kept, fresh]).astype(int)
        else:
            support = kept.astype(int)
        base = np.zeros(n)
        base[support] = x[support]
        c = float(np.linalg.norm(base))
        if c < 1e-15:
            continue
        cos_t = (2.0 - target**2) / (2.0 * c)
        if abs(cos_t) > 1.0:
            continue
        u = base / c
        sin_t = math.sqrt(max(0.0, 1.0 - cos_t**2))
        if sin_t < 1e-15:
            return cos_t * u
        g = np.zeros(n)
        g[support] = rng.standard_normal(support.size)
        g -= np.dot(g, u) * u
        gn = float(np.linalg.norm(g))
        if gn < 1e-12:
            continue
        return cos_t * u + (sin_t / gn) * g
    raise SamplingExhaustedError(
        f"no admissible s-sparse point at distance {target} within {_RETRY_BUDGET} attempts"
    )


def raic_probe(cfg: RaicProbeConfig) -> RaicProbeResult:
    """Measure ||nu*A^T(sign(Ax)-sign(Ay)) - (x-y)|| in the sparse dual norm.

    Distances are stratified across the annulus; the fit is least squares with
    the intercept clamped to be nonnegative, and max_residual is the largest
    excess of any sample above the fitted line.
    """
    _require_physical_memory(2 * cfg.m * cfg.N * 8, f"2 x {cfg.m} x {cfg.N} float64 matrix entries")
    x = gen_sparse_signal(substream_seed(cfg.seed, 0), cfg.N, cfg.s).values
    A = _with_columns(gen_gaussian_matrix(substream_seed(cfg.seed, 1), cfg.m, cfg.N))
    sign_x = sign_quantize(linear_measurements(A, x)).bits
    nu = cfg.effective_nu

    cloud: list[tuple[float, float]] = []
    width = cfg.r_ub - cfg.r_lb
    for k in range(cfg.samples):
        rng = generator_for(substream_seed(cfg.seed, 2, k))
        target = cfg.r_lb + (k + rng.uniform(0.0, 1.0)) * width / cfg.samples
        y = _sparse_point_at_distance(x, cfg.s, target, rng)
        sign_y = sign_quantize(linear_measurements(A, y)).bits
        lhs = sparse_dual_norm(nu * _sign_gradient(A.matrix, sign_x, sign_y) - (x - y), cfg.s)
        cloud.append((float(np.linalg.norm(x - y)), float(lhs)))
    cloud.sort()

    d = np.array([p[0] for p in cloud])
    lhs = np.array([p[1] for p in cloud])
    delta, eta = _nonneg_intercept_fit(d, lhs)
    residuals = lhs - (delta * d + eta)
    return RaicProbeResult(
        fitted_delta=float(delta),
        fitted_eta=float(eta),
        max_residual=float(np.max(residuals)),
        per_sample=cloud,
    )


def _nonneg_intercept_fit(d: np.ndarray, lhs: np.ndarray) -> tuple[float, float]:
    if d.size == 1 or float(np.ptp(d)) == 0.0:
        # degenerate cloud: attribute everything to the intercept
        return 0.0, float(np.mean(lhs))
    slope, intercept = np.polyfit(d, lhs, 1)
    if intercept < 0.0:
        intercept = 0.0
        slope = float(np.dot(d, lhs) / np.dot(d, d))
    return float(slope), float(intercept)


def decomposition_check(a, x, y):
    """Residuals of the split of a along (x-y), (x+y), and their complement.

    Returns (reconstruction residual, |<b, u>|, |<b, v>|) where u, v are the
    normalized difference/sum directions and b is the remainder; all three are
    zero up to rounding for unit x, y. Given (k, n) arrays, it splits each row
    and returns three length-k arrays, each entry bitwise the one the row's
    own call returns: a row's sums are taken along that row alone.
    """
    a, x, y = (as_vector(v) for v in (a, x, y))
    if not a.shape == x.shape == y.shape or a.ndim not in (1, 2):
        raise InvalidArgumentError("vectors must share one length")
    rows = a.ndim == 2
    a, x, y = np.atleast_2d(a, x, y)

    def dot(p, q):
        return (p * q).sum(axis=1)

    for name, v in (("x", x), ("y", y)):
        if not np.all(np.abs(np.sqrt(dot(v, v)) - 1.0) <= 1e-9):
            raise InvalidArgumentError(f"{name} must be unit norm within 1e-9")
    diff = x - y
    summ = x + y
    if not (np.any(diff, axis=1).all() and np.any(summ, axis=1).all()):
        raise InvalidArgumentError("x = +/-y leaves the directions undefined")
    u = diff / np.sqrt(dot(diff, diff))[:, None]
    v = summ / np.sqrt(dot(summ, summ))[:, None]
    cu = dot(a, u)[:, None]
    cv = dot(a, v)[:, None]
    b = a - cu * u - cv * v
    r = a - (cu * u + cv * v + b)
    out = (np.sqrt(dot(r, r)), np.abs(dot(b, u)), np.abs(dot(b, v)))
    return out if rows else tuple(float(part[0]) for part in out)


def check_decomposition(n: int, triples: int, seed: int) -> float:
    """Largest ``decomposition_check`` residual over random triples (a, x, y) in R^n.

    a, x and y are the rows of three blocked Gaussian draws, seeded by
    substreams 0, 1 and 2 of ``seed``; x and y are normalized row by row, and
    each block's rows are checked at once.
    """
    if triples < 1:
        raise InvalidArgumentError(f"trials must be >= 1, got {triples}")
    if n < 2:
        raise InvalidArgumentError(f"n must be >= 2, got {n}: in R^1 every unit x equals +/-y")
    seeds = [substream_seed(seed, j) for j in range(3)]

    def worst(block: int) -> float:
        rngs = [block_generator(sd, block) for sd in seeds]
        out = 0.0
        for lo, hi in _chunks(triples, block, n):
            a, x, y = (rng.standard_normal((hi - lo, n)) for rng in rngs)
            x /= np.linalg.norm(x, axis=1, keepdims=True)
            y /= np.linalg.norm(y, axis=1, keepdims=True)
            out = max(out, *(float(part.max()) for part in decomposition_check(a, x, y)))
        return out

    return max(_map_blocks(-(-triples // DRAW_BLOCK_ROWS), worst))


def gaussian_width_estimate(N: int, s: int, trials: int, seed: int) -> float:
    """Monte Carlo mean of the sparse dual norm of a standard Gaussian vector.

    Estimates the Gaussian width of the unit 2s-sparse ball (the norm of the
    top-2s magnitudes, averaged over draws). The draws are the rows of the
    trials x N blocked draw from ``seed``; each block is folded to absolute
    values and partitioned in place, and its rows' top-2s norms are summed
    once, in row order, with the other blocks'.
    """
    if trials < 100:
        raise InvalidArgumentError("need trials >= 100")
    if not 1 <= s <= N:
        raise InvalidArgumentError("need 1 <= s <= N")
    k = min(2 * s, N)

    def top_norms(block: int) -> list[np.ndarray]:
        rng = block_generator(seed, block)
        norms = []
        for lo, hi in _chunks(trials, block, N):
            h = rng.standard_normal((hi - lo, N))
            np.abs(h, out=h)
            h.partition(N - k, axis=1)
            top = h[:, N - k:]
            norms.append(np.sqrt((top * top).sum(axis=1)))
        return norms

    blocks = _map_blocks(-(-trials // DRAW_BLOCK_ROWS), top_norms)
    return float(np.concatenate([part for block in blocks for part in block]).sum()) / trials


def projection_inequality_check(samples: int, N: int, s: int, seed: int) -> float:
    """Search for violations of ||T_s(w) - z|| <= 2*dual_norm(w - z, s).

    z ranges over random s-sparse unit vectors and w over perturbations of z
    at scales from 1e-3 to 1e3, including disjoint-support and aligned
    corners. Returns the largest observed lhs - rhs (nonpositive up to
    rounding; the inequality is deterministic). The samples come in blocks
    of 512 (fewer when N > 2048, so that no array exceeds 2^20 entries), and
    each block's z and w are drawn with a few array calls from the block's
    generator; ``hard_threshold`` and ``sparse_dual_norm``, the operators
    under test, are called once per sample.
    """
    if samples < 1:
        raise InvalidArgumentError("samples must be >= 1")
    if not 1 <= s <= N:
        raise InvalidArgumentError("need 1 <= s <= N")
    per = max(1, min(DRAW_BLOCK_ROWS, 2**20 // N))
    k2 = min(2 * s, N)

    def worst(block: int) -> float:
        rng = block_generator(seed, block)
        lo = block * per
        count = min(per, samples - lo)
        kind = np.arange(lo, lo + count) % 5
        order = rng.random((count, N)).argsort(axis=1)  # a random permutation per sample
        vals = rng.standard_normal((count, s))
        while not np.all(vals):
            vals[vals == 0] = rng.standard_normal(int(np.count_nonzero(vals == 0)))
        z = np.zeros((count, N))
        np.put_along_axis(z, order[:, :s], vals / np.linalg.norm(vals, axis=1, keepdims=True), axis=1)
        scale = 10.0 ** rng.uniform(-3.0, 3.0, (count, 1))
        noise = rng.standard_normal((count, N))
        near = 10.0 ** rng.uniform(-3.0, 1.0, (count, 1))
        pert = rng.random((count, N)).argpartition(k2 - 1, axis=1)[:, :k2]  # a random 2s-subset
        tilt = rng.uniform(-2.0, 2.0, (count, 1))

        w = noise.copy()  # kind 4: pure noise
        rows = np.flatnonzero(kind == 0)  # z plus noise at scales 1e-3 to 10
        w[rows] = z[rows] + near[rows] * noise[rows]
        rows = np.flatnonzero(kind == 1)  # z plus scaled noise on 2s random coordinates
        w[rows] = z[rows]
        w[rows[:, None], pert[rows]] += scale[rows] * noise[rows, :k2]
        rows = np.flatnonzero(kind == 2)  # scaled noise on up to s coordinates off z's support
        if N == s:
            w[rows] = -scale[rows] * z[rows]
        else:
            far = order[rows, s:2 * s]
            w[rows] = 0.0
            w[rows[:, None], far] = scale[rows] * noise[rows, :far.shape[1]]
        rows = np.flatnonzero(kind == 3)  # z stretched or flipped
        w[rows] = tilt[rows] * scale[rows] * z[rows]

        d = w - z
        t = np.empty_like(w)
        dual = np.empty(count)
        for j in range(count):
            t[j] = hard_threshold(w[j], s)
            dual[j] = sparse_dual_norm(d[j], s)
        return float(np.max(np.linalg.norm(t - z, axis=1) - 2.0 * dual))

    return max(_map_blocks(-(-samples // per), worst))
