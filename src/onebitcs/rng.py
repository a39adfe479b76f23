"""Deterministic random streams.

Every randomized operation in this package draws from a numpy PCG64 generator
seeded through SeedSequence. Independent substreams are derived from
(master_seed, *indices) by ``substream_seed``; the generator and the Gaussian
sampling transform are named in run manifests, beside the sweep's substream
rule, so results stay reproducible across builds. A blocked matrix draw fills
each row block from its own child of the matrix seed, ``block_generator(seed, i)``.
"""

from __future__ import annotations

import numpy as np

# Names recorded in manifests.
RNG_ALGORITHM = "pcg64-seedsequence"
GAUSSIAN_TRANSFORM = "ziggurat (numpy Generator.standard_normal)"

_U64 = np.uint64(2**64 - 1)


def _as_entropy(seed: int) -> int:
    # SeedSequence wants nonnegative entropy; fold negative seeds into uint64.
    return int(seed) & int(_U64)


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
