"""Deterministic random streams.

Every randomized operation in this package draws from a numpy PCG64 generator
seeded through SeedSequence. Independent substreams are derived from
(master_seed, *indices) via the splitting rule below; the rule and the Gaussian
sampling transform are recorded in run manifests so results stay reproducible
across builds.
"""

from __future__ import annotations

import numpy as np

# Names recorded in manifests.
RNG_ALGORITHM = "pcg64-seedsequence"
GAUSSIAN_TRANSFORM = "ziggurat (numpy Generator.standard_normal)"
SUBSTREAM_RULE = "seed = SeedSequence((master_seed, *indices)).generate_state(1, uint64)[0]"

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

