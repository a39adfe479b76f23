"""Deterministic random streams.

Every randomized operation in this package draws from a numpy PCG64 generator
seeded through SeedSequence. Independent substreams are derived from
(master_seed, *indices) by ``substream_seed``; the generator and the Gaussian
sampling transform are named in run manifests, beside the sweep's substream
rule, so results stay reproducible across builds. A blocked matrix draw fills
each row block from its own child of the matrix seed, ``block_generator(seed, i)``.
Every seed the package takes passes through here and must be an integer in
[0, 2^64), the 64 bits the streams take; any other is rejected, not wrapped onto a seed in range.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import InvalidArgumentError

# Names recorded in manifests.
RNG_ALGORITHM = "pcg64-seedsequence"
GAUSSIAN_TRANSFORM = "ziggurat (numpy Generator.standard_normal)"


def _as_entropy(seed: int) -> int:
    try:
        entropy = operator.index(seed)  # 5.5, 5.0 and "5" are rejected, not truncated or parsed
    except TypeError:
        entropy = -1
    if not 0 <= entropy < 2**64:
        raise InvalidArgumentError(f"seed must be in [0, 2^64), got {seed}")
    return entropy


def substream_seed(master_seed: int, *indices: int) -> int:
    """Derive a 64-bit seed for the substream addressed by ``indices``.

    Distinct index tuples yield statistically independent streams; identical
    inputs always yield the identical seed.
    """
    entropy = (_as_entropy(master_seed),) + tuple(_as_entropy(i) for i in indices)
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def generator_for(seed: int) -> np.random.Generator:
    """Build the package's named generator (PCG64) for a 64-bit seed."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(_as_entropy(seed))))


def block_generator(seed: int, block: int) -> np.random.Generator:
    """The generator of row block ``block`` of a blocked draw seeded by ``seed``.

    Its SeedSequence is ``SeedSequence(entropy, spawn_key=(block,))``, the
    child ``SeedSequence(entropy).spawn`` would make at that index, derived on
    its own so that no block needs the seeds of the others.
    """
    sequence = np.random.SeedSequence(_as_entropy(seed), spawn_key=(int(block),))
    return np.random.Generator(np.random.PCG64(sequence))
