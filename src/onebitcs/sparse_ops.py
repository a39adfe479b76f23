"""Sparsity projections, normalization, and the distances used everywhere.

hard_threshold is the best s-term approximation in the Euclidean norm (ties
broken toward the lowest index, which makes it deterministic).
sparse_dual_norm(v, s) is the supremum of <v, u> over 2s-sparse u with
||u|| <= 1, which closed-form equals the Euclidean norm of the 2s
largest-magnitude entries of v.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateIterateError, InvalidArgumentError
from .model import as_vector


def hard_threshold(v, s: int) -> np.ndarray:
    """Keep the s largest-magnitude entries of v, zero the rest."""
    v = as_vector(v)
    if not 1 <= s <= v.size:
        raise InvalidArgumentError(f"need 1 <= s <= {v.size}, got s={s}")
    # The s-th largest magnitude splits v: every entry above it is kept, and the
    # lowest-index entries equal to it fill the rest (a stable sort on -|v|
    # picks the same set). NaN counts as magnitude -1, so it comes last.
    mags = np.abs(v)
    mags[np.isnan(mags)] = -1.0
    kth = np.partition(mags, v.size - s)[v.size - s]
    above = np.flatnonzero(mags > kth)
    keep = np.concatenate((above, np.flatnonzero(mags == kth)[: s - above.size]))
    out = np.zeros_like(v)
    out[keep] = v[keep]
    return out


def normalize(v) -> np.ndarray:
    """v / ||v||_2; raises DegenerateIterateError on the zero vector."""
    v = as_vector(v)
    scale = float(np.max(np.abs(v))) if v.size else 0.0
    if scale == 0.0:
        raise DegenerateIterateError("cannot normalize the zero vector")
    if scale < 1e-140 or scale > 1e140:
        # entries whose squares leave the normal float range lose precision
        # in the naive norm; rescale first
        w = v / scale
        return w / np.linalg.norm(w)
    return v / float(np.linalg.norm(v))


def sparse_dual_norm(v, s: int) -> float:
    """Euclidean norm of the 2s largest-magnitude entries of v.

    Equals sup <v, u> over 2s-sparse u with ||u||_2 <= 1; 2s is capped at
    len(v).
    """
    if s < 1:
        raise InvalidArgumentError(f"sparsity s must be >= 1, got {s}")
    v = as_vector(v)
    if v.size == 0:
        return 0.0
    k = min(2 * s, v.size)
    mags = np.abs(v)
    top = np.partition(mags, v.size - k)[v.size - k:]
    return float(np.linalg.norm(top))


def geodesic_distance(x, y) -> float:
    """Normalized geodesic distance arccos(<x, y>)/pi between unit vectors."""
    x = as_vector(x)
    y = as_vector(y)
    if x.shape != y.shape:
        raise InvalidArgumentError("vectors must share one length")
    for name, v in (("x", x), ("y", y)):
        if abs(float(np.linalg.norm(v)) - 1.0) > 1e-9:
            raise InvalidArgumentError(f"{name} must be unit norm within 1e-9")
    # Clamp absorbs |<x,y>| = 1 +/- ulp so arccos never sees an out-of-range value.
    ip = float(np.clip(np.dot(x, y), -1.0, 1.0))
    return float(np.arccos(ip) / np.pi)


def hamming_distance(b1, b2) -> float:
    """Fraction of disagreeing positions, (1/2m)||b1 - b2||_1 for sign vectors."""
    a = as_vector(b1)
    b = as_vector(b2)
    if a.shape != b.shape:
        raise InvalidArgumentError("observations must share one length")
    return float(np.abs(a - b).sum() / (2.0 * a.size))

