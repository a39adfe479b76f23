"""Independent oracles the implementation is checked against.

Everything here is deliberately written the slow way (support enumeration,
pure-Python scalar loops, special functions) and never calls the optimized
code paths it certifies.
"""

import itertools
import math

import numpy as np

from onebitcs.rng import block_generator


def best_s_term_error(v, s: int) -> float:
    """Brute-force best s-term approximation error via support enumeration."""
    n = len(v)
    best = math.inf
    for supp in itertools.combinations(range(n), s):
        keep = set(supp)
        err = math.sqrt(sum(x * x for j, x in enumerate(v) if j not in keep))
        best = min(best, err)
    return best


def dual_norm_brute(v, s: int) -> float:
    """Brute-force sup of <v, u> over 2s-sparse u with ||u|| <= 1.

    For each support S of size min(2s, n) the maximizing u is the normalized
    restriction of v, giving ||v restricted to S||.
    """
    n = len(v)
    k = min(2 * s, n)
    best = 0.0
    for supp in itertools.combinations(range(n), k):
        best = max(best, math.sqrt(sum(v[j] * v[j] for j in supp)))
    return best


def _products_scalar(rows, x):
    """<row, x> for each row, one multiply-add at a time."""
    products = []
    for row in rows:
        acc = 0.0
        for a, v in zip(row, x):
            acc += a * v
        products.append(acc)
    return products


def _signs_scalar(rows, x):
    """sign(<row, x>) for each row, +1.0 where positive and -1.0 elsewhere."""
    return [1.0 if p > 0 else -1.0 for p in _products_scalar(rows, x)]


def _gradient_step_scalar(rows, residual, x, step: float, s: int):
    """hard_threshold(x + step * A^T residual, s), one column sum at a time."""
    m = len(rows)
    n = len(x)
    z = []
    for j in range(n):
        g = 0.0
        for i in range(m):
            g += rows[i][j] * residual[i]
        z.append(x[j] + step * g)
    order = sorted(range(n), key=lambda j: (-abs(z[j]), j))
    keep = set(order[:s])
    return [z[j] if j in keep else 0.0 for j in range(n)]


def _binary_step_scalar(rows, bits, x, tau: float, s: int, normalized: bool):
    """One sign-residual update, normalized or not; None when it thresholds to zero."""
    signs = _signs_scalar(rows, x)
    t = _gradient_step_scalar(rows, [b - sg for b, sg in zip(bits, signs)], x, tau / len(rows), s)
    norm = math.sqrt(sum(v * v for v in t))
    if norm == 0.0:
        return None
    return [v / norm for v in t] if normalized else t


def nbiht_step_scalar(rows, bits, x, tau: float, s: int):
    """Line-by-line scalar reimplementation of one normalized update.

    rows: list of length-N lists (measurement vectors); bits: list of +/-1;
    x: list (unit s-sparse). Returns the next iterate as a list, or None when
    the thresholded vector is zero.
    """
    return _binary_step_scalar(rows, bits, x, tau, s, normalized=True)


def _binary_run_scalar(rows, bits, x0, tau: float, s: int, k: int, normalized: bool):
    iterates = [list(x0)]
    for _ in range(k):
        if _signs_scalar(rows, iterates[-1]) == list(bits):
            break
        x = _binary_step_scalar(rows, bits, iterates[-1], tau, s, normalized)
        if x is None:
            break
        iterates.append(x)
    return iterates


def nbiht_run_scalar(rows, bits, x0, tau: float, s: int, k: int):
    """Up to k updates of nbiht_step_scalar from x0; returns every iterate, x0 first.

    Like a normalized run with stop_tol 0, it stops before a step when the
    signs of the iterate already equal the bits, and when a step thresholds
    to zero.
    """
    return _binary_run_scalar(rows, bits, x0, tau, s, k, normalized=True)


def biht_run_scalar(rows, bits, x0, tau: float, s: int, k: int):
    """nbiht_run_scalar without the normalization of each iterate; the iterates are returned raw.

    The unnormalized run reports its last iterate normalized.
    """
    return _binary_run_scalar(rows, bits, x0, tau, s, k, normalized=False)


def iht_run_scalar(rows, y, x0, s: int, k: int):
    """Up to k linear updates hard_threshold(x + (1/m) A^T (y - A x), s) from x0; every iterate, x0 first.

    Like a linear run with stop_tol 0, it stops when a step leaves the
    iterate unchanged.
    """
    iterates = [list(x0)]
    for _ in range(k):
        x = iterates[-1]
        residual = [target - p for target, p in zip(y, _products_scalar(rows, x))]
        x_new = _gradient_step_scalar(rows, residual, x, 1.0 / len(rows), s)
        if x_new == x:
            break
        iterates.append(x_new)
    return iterates


def blocked_gaussian_draw(seed: int, m: int, n: int) -> np.ndarray:
    """The m x n blocked Gaussian draw, one 512-row block after another.

    Block i is ``standard_normal`` from ``rng.block_generator(seed, i)``,
    drawn on its own and stacked; no thread pool is involved.
    """
    blocks = []
    for i in range(-(-m // 512)):
        rows = min(512, m - 512 * i)
        blocks.append(block_generator(seed, i).standard_normal((rows, n)))
    return np.vstack(blocks)


def chi_mean(n: int) -> float:
    """E||h||_2 for h ~ N(0, I_n): sqrt(2) * Gamma((n+1)/2) / Gamma(n/2)."""
    return math.sqrt(2.0) * math.exp(math.lgamma((n + 1) / 2.0) - math.lgamma(n / 2.0))


def gaussian_width_blocked(N: int, s: int, trials: int, seed: int) -> float:
    """Mean top-2s norm of |h| over the rows h of the trials x N blocked draw from ``seed``.

    The 512-row blocks are drawn one by one, block i from
    ``rng.block_generator(seed, i)``, each in fresh arrays of at most 2^22
    entries drawn in turn from the block's generator (which gives the bits of
    the whole block drawn at once); every row's norm is kept, and the norms
    are summed once, in row order.
    """
    k = min(2 * s, N)
    step = max(1, 2**22 // N)
    norms = []
    for i in range(-(-trials // 512)):
        rng = block_generator(seed, i)
        rows = min(512, trials - 512 * i)
        for done in range(0, rows, step):
            h = np.abs(rng.standard_normal((min(step, rows - done), N)))
            top = np.partition(h, N - k, axis=1)[:, N - k:]
            norms.append(np.sqrt(np.sum(top**2, axis=1)))
    return float(np.sum(np.concatenate(norms))) / trials


def binomial_band(p: float, draws: int, sigmas: float = 4.0) -> float:
    """sigmas * standard deviation of a Binomial(draws, p) proportion."""
    return sigmas * math.sqrt(p * (1.0 - p) / draws)
