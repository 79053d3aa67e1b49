"""Unique spectral forms of Hermitian observables and projector refinement.

A form holds one range basis V with its columns grouped by outcome, E_k = V_k V_k^dag;
one defect, max |V^dag V - I|, says that the E_k are Hermitian, idempotent,
pairwise orthogonal and complete. Dense projectors enter through from_projectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .linalg import (
    DEFAULT_EPS,
    frozen,
    orthonormality_defect,
    projector_stack,
    sum_defect,
    validate_hermitian,
    validate_outcome_index,
    validate_projector,
    validate_tolerance,
)

# eigenvalues closer than this merge into one degenerate outcome
DEGENERACY_TOL = 1e-7


def _eigenvalue_vector(eigenvalues) -> np.ndarray:
    """Eigenvalues as a float64 vector, a scalar as one outcome: the shape rule of both constructors."""
    vals = np.asarray(eigenvalues, dtype=np.float64)
    if vals.ndim > 1:
        raise ValueError(f"eigenvalues must be a vector, got ndim {vals.ndim}")
    return vals.reshape(-1)


@dataclass(frozen=True, eq=False)
class SpectralForm:
    """Pairwise-distinct eigenvalues with coindexed orthogonal projectors, held as one range basis.

    `basis` is a read-only, C-ordered complex (dim, dim) copy of the argument; its first
    ranks[0] columns span outcome 0's range, and so on. The constructor checks shapes,
    finiteness and ranks, validate the values.
    Records compare and hash by identity.
    """

    eigenvalues: np.ndarray
    ranks: np.ndarray
    basis: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = _eigenvalue_vector(self.eigenvalues)
        # the one copy the form keeps, complex and in C order
        ranks, basis = np.asarray(self.ranks), np.array(self.basis, dtype=np.complex128, order="C")
        if basis.ndim != 2 or basis.shape[0] != basis.shape[1] or not basis.size:
            raise ValueError(f"basis must be a non-empty square matrix, got shape {basis.shape}")
        if not np.isfinite(basis).all():
            raise ValueError("basis has non-finite entries")
        if ranks.ndim != 1 or ranks.size != vals.size:
            raise ValueError(f"{vals.size} eigenvalues but {ranks.size} ranks")
        dim = len(basis)  # ranks in 1..dim first: their int64 sum cannot wrap
        if ranks.dtype.kind not in "iu" or not ((ranks >= 1) & (ranks <= dim)).all() or ranks.sum() != dim:
            raise ValueError(f"ranks must be positive integers adding up to {dim}, got {ranks.tolist()}")
        object.__setattr__(self, "eigenvalues", frozen(vals))
        object.__setattr__(self, "ranks", frozen(ranks.astype(np.int64, copy=False)))
        basis.setflags(write=False)
        object.__setattr__(self, "basis", basis)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def outcomes(self) -> int:
        return len(self.ranks)

    @cached_property
    def labels(self) -> np.ndarray:
        """Read-only outcome index of each basis column."""
        return frozen(np.repeat(np.arange(self.outcomes), self.ranks))

    @cached_property
    def columns(self) -> tuple[slice, ...]:
        """Outcome k's basis columns, as one slice each."""
        ends = self.ranks.cumsum().tolist()
        return tuple(map(slice, [0, *ends[:-1]], ends))

    @cached_property
    def blocks(self) -> tuple[np.ndarray, ...]:
        """The V_k, as read-only views of the basis."""
        return tuple(self.basis[:, s] for s in self.columns)

    @property
    def projectors(self) -> np.ndarray:
        """Read-only (outcomes, dim, dim) stack of the E_k = (V * mask_k) V^dag, built on each call
        for dense consumers outside the package: the tests and the benchmark's reference checks."""
        mask = self.labels == np.arange(self.outcomes)[:, None, None]
        return frozen((self.basis * mask) @ self.basis.conj().T)

    def pieces(self, x: np.ndarray) -> np.ndarray:
        """E_k x for each outcome k on a new last axis, E_k acting on x's last axis: the one split
        rule, V (mask * V^dag x) with mask[i, k] true where basis column i is outcome k's."""
        mask = self.labels[:, None] == np.arange(self.outcomes)
        return self.basis @ ((x @ self.basis.conj())[..., :, None] * mask)

    def probabilities(self, phi: np.ndarray) -> np.ndarray:
        """<phi|E_k|phi> = ||V_k^dag phi||^2 for each outcome k of a state vector phi, never negative."""
        return np.add.reduceat(abs(self.basis.conj().T @ phi) ** 2, [s.start for s in self.columns])

    def validate(self, eps: float = DEFAULT_EPS) -> None:
        """Check finite, pairwise-distinct eigenvalues and a basis unitary within eps."""
        validate_tolerance(eps)
        if not np.isfinite(self.eigenvalues).all():
            raise ValueError("eigenvalues must be finite")
        defect = orthonormality_defect(self.basis)
        if not defect <= eps:
            raise ValueError(f"basis: unitarity defect {defect:.3e} exceeds {eps}")
        vals = self.eigenvalues
        equal = vals[:, None] == vals
        if equal.sum() > vals.size:  # more than the diagonal
            k, kp = np.argwhere(np.triu(equal, 1))[0]  # the first pair in (k, k') order
            raise ValueError(f"eigenvalues {k} and {kp} are equal ({vals[k]})")


def spectral_decompose(h, eps: float = DEFAULT_EPS) -> SpectralForm:
    """Unique spectral form of a Hermitian operator.

    Eigenvalues closer than DEGENERACY_TOL are merged into one outcome whose
    basis block holds their eigenvectors. Outcomes are sorted by descending
    eigenvalue so indexing is deterministic.

    Raises:
        ValueError: input is non-finite or not Hermitian within eps, or has eigenvalues beyond the
            float range.
    """
    validate_tolerance(eps)
    h = validate_hermitian(h, eps, "observable")
    vals, vecs = np.linalg.eigh(h / 2.0 + h.conj().T / 2.0)  # (h + h^dag) / 2 would overflow
    vals, vecs = vals[::-1], vecs[:, ::-1]
    with np.errstate(over="ignore"):  # near the float maximum a gap, still large, or a sum overflows
        # a new outcome starts wherever the gap to the previous eigenvalue is large
        starts = np.concatenate(([0], np.flatnonzero(np.diff(vals) <= -DEGENERACY_TOL) + 1))
        ranks = np.diff(np.append(starts, vals.size))
        means = np.add.reduceat(vals, starts) / ranks
    # floats whose sum overflows lie far more than DEGENERACY_TOL apart: one value repeated, its mean
    means = np.where(np.isinf(means), vals[starts], means)
    if not np.isfinite(means).all():  # eigh's nan, where an entry's modulus exceeds the float range
        raise ValueError("observable has eigenvalues beyond the float range")
    return SpectralForm(means, ranks, vecs)


def from_projectors(
    eigenvalues, projectors: Sequence[np.ndarray], eps: float = DEFAULT_EPS, dim: int | None = None
) -> SpectralForm:
    """Spectral form of dense coindexed projectors, each dim x dim (or else projector 0's size).

    _dense_basis checks the projectors as given; their ranks must then add up to
    dim, so that they sum to the identity. validate checks the eigenvalues.
    """
    validate_tolerance(eps)
    vals = _eigenvalue_vector(eigenvalues)
    if vals.size != len(projectors):
        raise ValueError(f"{vals.size} eigenvalues but {len(projectors)} projectors")
    basis, ranks = _dense_basis(projector_stack(projectors, dim=dim), eps, "projector")
    d, total = basis.shape
    if total != d:
        raise ValueError(f"projectors do not sum to identity (ranks add up to {total}, not {d})")
    return SpectralForm(vals, ranks, basis)


def _dense_basis(stack: np.ndarray, eps: float, label: str) -> tuple[np.ndarray, np.ndarray]:
    """(basis, ranks) of a complex (n, d, d) stack of orthogonal projectors, checked as given.

    The first matrix that validate_projector refuses, or that is zero, is named "<label> k";
    then "<label>s k and k'", the first pair in (k, k') order whose range bases have a product
    entry above eps, read as outcome k's block against the basis columns of every later one.
    Block k of the basis is matrix k's range basis.
    """
    for k, p in enumerate(stack):
        validate_projector(p, eps, f"{label} {k}")
    blocks = [_range(p) for p in stack]
    ranks = np.array([b.shape[1] for b in blocks])
    if not ranks.all():
        raise ValueError(f"{label} {int(np.argmin(ranks))} is zero")
    basis = np.hstack(blocks)
    labels = np.repeat(np.arange(len(ranks)), ranks)
    for k, end in enumerate(ranks.cumsum()[:-1]):
        hits = (abs(blocks[k].conj().T @ basis[:, end:]) > eps).any(axis=0)
        if hits.any():
            raise ValueError(f"{label}s {k} and {labels[end + hits.argmax()]} are not orthogonal")
    return basis, ranks


def refine(
    sf: SpectralForm,
    k: int,
    sub_projectors: Sequence[np.ndarray],
    eps: float = DEFAULT_EPS,
) -> SpectralForm:
    """Split outcome k into finer orthogonal sub-outcomes (overmeasurement).

    The sub-projectors must be nonzero orthogonal idempotents summing to the
    outcome's projector; their range bases replace outcome k's basis block.
    Fresh eigenvalue labels, labels only, are spread below the original one
    inside the gap to the next smaller eigenvalue, or 1/m (at least one float
    spacing) apart below the smallest; a gap too narrow for m floats raises.
    """
    validate_tolerance(eps)
    k = validate_outcome_index(k, sf.outcomes)
    subs = projector_stack(sub_projectors, "sub-projector", sf.dim)
    sub_basis, sub_ranks = _dense_basis(subs, eps, "sub-projector")
    defect = sum_defect(subs, sf.blocks[k] @ sf.blocks[k].conj().T)  # E_k alone, not the stack
    if not defect <= eps:
        raise ValueError(f"sub-projectors do not sum to projector {k} (defect {defect:.3e})")
    vals, m = sf.eigenvalues, len(subs)
    lower = np.max(vals[vals < vals[k]], initial=-np.inf)
    with np.errstate(over="ignore"):  # only a gap beyond the float range overflows
        step = (vals[k] - lower) / m if np.isfinite(lower) else max(1.0 / m, np.spacing(abs(vals[k])))
    if np.isfinite(step):
        labels = vals[k] - step * np.arange(m)
    else:  # spread in halves, which are exact, so neither the step nor its multiples overflow
        labels = (vals[k] / 2 - (vals[k] / 2 - lower / 2) / m * np.arange(m)) * 2
    if not (np.all(np.diff(labels) < 0) and labels[-1] > lower):
        raise ValueError(
            f"outcome {k}: no room for {m} distinct labels below eigenvalue {float(vals[k])!r}"
        )
    return SpectralForm(
        np.concatenate([vals[:k], labels, vals[k + 1 :]]),
        np.concatenate([sf.ranks[:k], sub_ranks, sf.ranks[k + 1 :]]),
        np.hstack([*sf.blocks[:k], sub_basis, *sf.blocks[k + 1 :]]),
    )


def range_basis(projector, eps: float = DEFAULT_EPS) -> list[np.ndarray]:
    """Deterministic orthonormal basis of a projector's range, the columns _range reads.

    Raises:
        ValueError: eps is bad, or projector is non-finite, not square, or not a projector within eps.
    """
    validate_tolerance(eps)
    return list(_range(validate_projector(projector, eps)).T)


def _range(p: np.ndarray) -> np.ndarray:
    """Range basis of a complex projector, as columns: the eigenvectors of one eigh of its Hermitian
    part with eigenvalues above 1/2. The one range rule behind range_basis, forms_triple, from_projectors."""
    vals, vecs = np.linalg.eigh(p / 2.0 + p.conj().T / 2.0)
    return vecs[:, vals > 0.5]
