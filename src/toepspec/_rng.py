"""Deterministic random-stream derivation.

Every randomized operation in the package draws from a counter-based Philox
generator keyed by a ``SeedSequence``.  Independent sub-streams are derived
by extending the spawn key with small integer coordinates (domain code, size,
trial index, ...), so results are bit-identical for a fixed root seed no
matter in which order the cells of an experiment run.
"""

from __future__ import annotations

import numpy as np

# Domain codes used by the experiment harness when deriving sub-streams.
DOMAIN_NOISE = 0
DOMAIN_MU = 1
DOMAIN_LOGPOT = 2
DOMAIN_REPLACE = 3
DOMAIN_CORNER = 6

_ENTROPY_MASK = (1 << 128) - 1


def seed_sequence(seed, *key: int) -> np.random.SeedSequence:
    """A SeedSequence for ``seed``, optionally refined by integer key parts:
    the root's entropy with the key appended to its spawn key."""
    if isinstance(seed, np.random.SeedSequence):
        if not key:
            return seed
        entropy, spawn = seed.entropy, tuple(seed.spawn_key)
    else:
        entropy, spawn = int(seed) & _ENTROPY_MASK, ()
    return np.random.SeedSequence(entropy=entropy, spawn_key=spawn + tuple(int(k) for k in key))


def generator(seed, *key: int) -> np.random.Generator:
    """Philox generator for the stream named by ``seed`` and ``key``.

    ``seed`` may be an int, a SeedSequence, or an existing Generator (passed
    through unchanged; key refinement is then disallowed).
    """
    if isinstance(seed, np.random.Generator):
        if key:
            raise ValueError("cannot derive a keyed stream from a live generator")
        return seed
    return np.random.Generator(np.random.Philox(seed_sequence(seed, *key)))
