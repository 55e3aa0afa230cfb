"""Generic random signal model: uniform support, Rademacher signs, plus
observation noise."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .certify import sample_support
from .dictionaries import Dictionary

MAGNITUDE_MODELS = ("unit", "uniform", "compressible")
NOISE_TAIL = 1e-6
COMPRESSIBLE_TAU = 0.5


@dataclass
class SignalInstance:
    x: np.ndarray
    support: np.ndarray          # k indices of the largest magnitudes, sorted
    signs: np.ndarray            # +-1 per support index
    tail_l1: float               # l1 mass off the support
    y: Optional[np.ndarray] = None
    z: Optional[np.ndarray] = None
    sigma: float = 0.0
    eps_noise: float = 0.0

    @property
    def N(self) -> int:
        return self.x.shape[0]

    @property
    def k(self) -> int:
        return self.support.shape[0]


def sample_generic_signal(N: int, k: int, magnitude_model: str,
                          rng: np.random.Generator, p: float = 0.5) -> SignalInstance:
    """Draw x with uniform k-support and i.i.d. +-1 signs on the support.

    Magnitudes: "unit" puts 1 on the support; "uniform" draws U[1/2, 1];
    "compressible" adds a signed power-law tail tau * j^(-1/p) off the
    support, scaled so the support still dominates.
    """
    if magnitude_model not in MAGNITUDE_MODELS:
        raise ValueError(f"unknown magnitude model {magnitude_model!r}")
    if magnitude_model == "compressible" and p <= 0:
        raise ValueError("compressible decay needs p > 0")
    support = sample_support(N, k, rng)
    signs = rng.integers(0, 2, size=k) * 2 - 1
    x = np.zeros(N)
    if magnitude_model == "uniform":
        mags = rng.uniform(0.5, 1.0, size=k)
    else:
        mags = np.ones(k)
    x[support] = signs * mags
    tail_l1 = 0.0
    if magnitude_model == "compressible" and k < N:
        ranks = np.arange(1, N - k + 1, dtype=float)
        tail = COMPRESSIBLE_TAU * ranks ** (-1.0 / p)
        tail_signs = rng.integers(0, 2, size=N - k) * 2 - 1
        off = np.setdiff1d(np.arange(N), support, assume_unique=True)
        x[rng.permutation(off)] = tail_signs * tail
        tail_l1 = float(tail.sum())
    return SignalInstance(x=x, support=support, signs=signs.astype(float),
                          tail_l1=tail_l1)


def default_noise_bound(m: int, sigma: float, tail: float = NOISE_TAIL) -> float:
    """High-probability bound on ||z||_2 for z ~ N(0, sigma^2 I_m)."""
    if sigma == 0.0:
        return 0.0
    return sigma * math.sqrt(m + 2.0 * math.sqrt(m * math.log(1.0 / tail)))


def observe(d: Dictionary, inst: SignalInstance, sigma: float,
            rng: np.random.Generator) -> SignalInstance:
    """Fill y = Phi x + z with i.i.d. Gaussian noise of std sigma, and
    eps_noise with ``default_noise_bound`` of sigma."""
    if d.field != "real":
        raise ValueError("complex dictionary: realify it before observing")
    if d.N != inst.N:
        raise ValueError(f"dictionary N={d.N} vs signal N={inst.N}")
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    # a sigma whose square or y.y overflows is refused before a solver meets inf
    with np.errstate(over="ignore"):
        z = sigma * rng.standard_normal(d.m) if sigma > 0 else np.zeros(d.m)
        y = d.entries @ inst.x + z
        if not (math.isfinite(sigma * sigma) and math.isfinite(y @ y)):
            raise ValueError(f"sigma is out of range: sigma^2 or y.y overflows "
                             f"float64 at sigma={sigma!r}")
    return replace(inst, y=y, z=z, sigma=sigma,
                   eps_noise=float(default_noise_bound(d.m, sigma)))
