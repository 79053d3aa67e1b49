"""Two-step collapse: decohere the joint final state, then sample outcomes.

The coherent final density operator contains off-diagonal terms between
pointer sectors. Butchering deletes them, leaving a mixture of the kept
pointer branches (one matrix product; its trace needs only the branches)
whose statistical weights are the object-side probabilities <phi|E_k|phi>.
The mixture step is realized operationally as seeded sampling from them.
Weight, count and branch k belong to outcome k: an outcome is a position.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .branches import decompose_final
from .linalg import DEFAULT_EPS, _is_int, frozen, validate_tolerance, validate_unit_state
from .measurement import MeasurementModel, premeasure
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
    """Decohered mixture sum_k w_k |beta_k><beta_k| of pointer branches.

    beta_k ranges over the normalized pointer branches F_k Phi_f / ||F_k Phi_f||
    that decompose_final keeps and w_k is the object-side weight: one product
    (B diag(w)) B^dag, with the beta_k as columns of B. Equals the pinching
    sum_k F_k |Phi_f><Phi_f| F_k for exact models, off-diagonal blocks removed.
    """
    w = weights(phi_a, model.observable, eps).weights  # validates eps and phi_a
    dec = decompose_final(model, phi_a, eps)
    return (dec.branch_states.T * w[dec.outcomes]) @ dec.branch_states.conj()


def sample(dist: OutcomeDistribution, n: int, seed: int) -> SampleReport:
    """Draw n outcomes as one multinomial draw over the renormalized support.

    The generator is numpy's PCG64 seeded with `seed`, so identical seeds
    reproduce identical counts; cost and memory grow with the number of
    outcomes, not with n. Weights below DEFAULT_EPS are excluded from the
    support. Counts for a given seed differ from those of the earlier
    inverse-CDF sampler, which drew n uniforms.

    Raises:
        ValueError: n is not a positive int64, seed not a uint64, or no weight is sampleable.
    """
    if not _is_int(n) or not 1 <= n < 2**63:
        raise ValueError(f"sample size must be a positive int64, got {n!r}")
    seed = _seed(seed)
    support = np.flatnonzero(dist.weights >= DEFAULT_EPS)
    if not support.size:
        raise ValueError("distribution has no weight above threshold")
    w = dist.weights[support]
    with np.errstate(over="ignore"):  # weights whose sum overflows are first divided by the largest
        w = w if w.sum() < np.inf else w / w.max()
    counts = np.zeros(dist.weights.size, dtype=np.int64)
    counts[support] = np.random.default_rng(seed).multinomial(n, w / w.sum())
    return SampleReport(counts, seed)
