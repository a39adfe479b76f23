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


def nbiht_step_scalar(rows, bits, x, tau: float, s: int):
    """Line-by-line scalar reimplementation of one normalized update.

    rows: list of length-N lists (measurement vectors); bits: list of +/-1;
    x: list (unit s-sparse). Returns the next iterate as a list, or None when
    the thresholded vector is zero.
    """
    m = len(rows)
    n = len(x)
    signs = []
    for i in range(m):
        acc = 0.0
        for j in range(n):
            acc += rows[i][j] * x[j]
        signs.append(1.0 if acc > 0 else -1.0)
    z = []
    for j in range(n):
        g = 0.0
        for i in range(m):
            g += rows[i][j] * (bits[i] - signs[i])
        z.append(x[j] + tau / m * g)
    order = sorted(range(n), key=lambda j: (-abs(z[j]), j))
    keep = set(order[:s])
    t = [z[j] if j in keep else 0.0 for j in range(n)]
    norm = math.sqrt(sum(v * v for v in t))
    if norm == 0.0:
        return None
    return [v / norm for v in t]


def blocked_gaussian_draw(seed: int, m: int, n: int) -> np.ndarray:
    """The m x n blocked Gaussian draw, one 512-row block after another.

    Block i is ``standard_normal`` from ``rng.block_generator(seed, i)``,
    drawn on its own and stacked; no ``BlockFiller`` is involved.
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
