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


def derive_rng(master_seed: int, *labels) -> np.random.Generator:
    """Independent, reproducible stream for (master_seed, labels...)."""
    keys = [int(master_seed) & 0xFFFFFFFFFFFFFFFF] + [_label_key(x) for x in labels]
    return np.random.default_rng(keys)
