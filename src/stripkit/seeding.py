"""Deterministic rng-stream derivation from one master seed.

Every stochastic routine takes (master_seed, labels...) and builds its own
generator, so results are identical for any worker count or trial order.
Recovery trials use one stream per trial. Monte Carlo certification uses one
stream per block of trials, (seed, property, block), and draws the whole
block from it, so a shorter run's draws are a prefix of a longer run's.
"""

from __future__ import annotations

import zlib

import numpy as np


def _label_key(label) -> int:
    if isinstance(label, (int, np.integer)):
        return int(label) & 0xFFFFFFFF
    return zlib.crc32(str(label).encode("utf-8"))


def check_seed(master_seed: int) -> int:
    """The master seed as an int. A seed outside [0, 2^64) is refused: its
    64-bit key would draw exactly what another seed draws."""
    seed = int(master_seed)
    if not 0 <= seed < 2 ** 64:
        raise ValueError(f"seed must be in [0, 2^64), got {seed}")
    return seed


def derive_rng(master_seed: int, *labels) -> np.random.Generator:
    """Independent, reproducible stream for (master_seed, labels...)."""
    keys = [check_seed(master_seed)] + [_label_key(x) for x in labels]
    return np.random.default_rng(keys)
