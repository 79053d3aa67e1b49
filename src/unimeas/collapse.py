"""Two-step collapse: decohere the joint final state, then sample outcomes.

The coherent final density operator contains off-diagonal terms between
pointer sectors. Butchering deletes them, leaving the pinching P P^dag of the
pointer pieces P, whose weights ||F_k Phi_f||^2 equal the object-side weights
<phi|E_k|phi> on exact models. The mixture step is realized as seeded sampling:
`unimeas collapse` samples the pointer weights, which check_prc checks.
Weight, count and branch k belong to outcome k: an outcome is a position.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .linalg import DEFAULT_EPS, _is_int, frozen, validate_tolerance, validate_unit_state
from .measurement import MeasurementModel, _pointer_pieces, premeasure
from .spectral import SpectralForm

# identity of the seeded generator backing sample(); recorded in reports
GENERATOR = "pcg64"


def _seed(seed) -> int:
    """seed as an int; raises unless it is an int or numpy integer, not a bool, in [0, 2**64)."""
    if not _is_int(seed) or not 0 <= seed < 2**64:
        raise ValueError(f"seed must be a uint64, got {seed!r}")
    return int(seed)


@dataclass(frozen=True, eq=False)
class OutcomeDistribution:
    """A vector of finite nonnegative weights, weight k that of outcome k; sample() renormalizes
    them over its support."""

    weights: np.ndarray

    def __post_init__(self):
        if np.iscomplexobj(self.weights):
            raise ValueError("weights must be real")
        object.__setattr__(self, "weights", frozen(np.asarray(self.weights, dtype=np.float64)))
        if self.weights.ndim != 1:
            raise ValueError(f"weights must be a vector, got ndim {self.weights.ndim}")
        if not np.isfinite(self.weights).all():
            raise ValueError("weights must be finite")
        if (self.weights < 0.0).any():
            raise ValueError("weights must be nonnegative")

    @property
    def outcomes(self) -> np.ndarray:
        """The outcome of each weight, its position."""
        return np.arange(self.weights.size)


@dataclass(frozen=True, eq=False)
class SampleReport:
    """Counts coindexed with the outcomes, and the seed as an int; refuses what sample never makes."""

    counts: np.ndarray
    seed: int
    generator: ClassVar[str] = GENERATOR

    def __post_init__(self):
        counts = np.asarray(self.counts)
        if counts.dtype.kind not in "iu":
            raise ValueError(f"counts must be integers, got dtype {counts.dtype}")
        if not np.can_cast(counts.dtype, np.int64) and (counts >= 2**63).any():
            raise ValueError(f"counts must be below 2**63, got {counts.max()}")
        object.__setattr__(self, "counts", frozen(counts.astype(np.int64, copy=False)))
        if self.counts.ndim != 1 or (self.counts < 0).any():
            raise ValueError("counts must be a vector of nonnegative integers")
        object.__setattr__(self, "seed", _seed(self.seed))

    @property
    def total(self) -> int:
        """The number of draws, the counts' sum in Python ints: an int64 sum could wrap."""
        return sum(self.counts.tolist())


def weights(phi_a, observable: SpectralForm, eps: float = DEFAULT_EPS) -> OutcomeDistribution:
    """Statistical weights w_k = <phi|E_k|phi> = ||V_k^dag phi||^2 of the collapse mixture.

    Raises:
        ValueError: phi_a has the wrong shape or is not a finite unit vector within eps.
    """
    validate_tolerance(eps)
    phi_a = validate_unit_state(phi_a, observable.dim, eps)
    return OutcomeDistribution(observable.probabilities(phi_a))


def final_density(model: MeasurementModel, phi_a) -> np.ndarray:
    """Coherent rank-one density operator |Phi_f><Phi_f| of the joint final state."""
    final = premeasure(model, phi_a)
    return np.outer(final, final.conj())


def butcher(model: MeasurementModel, phi_a, eps: float = DEFAULT_EPS) -> np.ndarray:
    """Decohered mixture of the pointer branches: the pinching sum_k F_k |Phi_f><Phi_f| F_k
    of every model, the coherent final density operator with its off-diagonal blocks removed.

    With the pointer pieces F_k Phi_f as the columns of P, the pinching is the one product
    P P^dag. Its diagonal block k has trace ||F_k Phi_f||^2, which equals the object-side
    weight <phi|E_k|phi> on exact models; every piece counts, however small its norm.

    Raises:
        ValueError: eps is outside (0, 1), or phi_a is not a finite unit vector of shape (dim_a,).
    """
    validate_tolerance(eps)
    pieces = _pointer_pieces(model, validate_unit_state(phi_a, model.dim_a, eps))
    return pieces @ pieces.conj().T


def sample(dist: OutcomeDistribution, n: int, seed: int) -> SampleReport:
    """Draw n outcomes as one multinomial draw over the renormalized support.

    The generator is numpy's PCG64 seeded with `seed`, so identical seeds
    reproduce identical counts; cost and memory grow with the number of
    outcomes, not with n. The support is every positive weight, however
    small. Counts for a given seed differ from those of the earlier
    inverse-CDF sampler, which drew n uniforms.

    Raises:
        ValueError: n is not a positive int64, seed not a uint64, or every weight is zero.
    """
    if not _is_int(n) or not 1 <= n < 2**63:
        raise ValueError(f"sample size must be a positive int64, got {n!r}")
    seed = _seed(seed)
    support = np.flatnonzero(dist.weights > 0.0)
    if not support.size:
        raise ValueError("distribution has no positive weight")
    w = dist.weights[support]
    with np.errstate(over="ignore"):  # weights whose sum overflows are first divided by the largest
        w = w if w.sum() < np.inf else w / w.max()
    counts = np.zeros(dist.weights.size, dtype=np.int64)
    counts[support] = np.random.default_rng(seed).multinomial(n, w / w.sum())
    return SampleReport(counts, seed)
