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
    as_complex,
    frozen,
    orthonormality_defect,
    projector_stack,
    stack_defect,
    sum_defect,
    validate_hermitian,
    validate_outcome_index,
    validate_tolerance,
)

# eigenvalues closer than this merge into one degenerate outcome
DEGENERACY_TOL = 1e-7


@dataclass(frozen=True, eq=False)
class SpectralForm:
    """Pairwise-distinct eigenvalues with coindexed orthogonal projectors, held as one range basis.

    `basis` is read-only, complex and (dim, dim); its first ranks[0] columns span outcome 0's
    range, and so on. The constructor checks shapes, finiteness and ranks, validate the values.
    Records compare and hash by identity.
    """

    eigenvalues: np.ndarray
    ranks: np.ndarray
    basis: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.eigenvalues, dtype=np.float64).reshape(-1)
        ranks, basis = np.asarray(self.ranks), as_complex(self.basis)
        if basis.ndim != 2 or basis.shape[0] != basis.shape[1] or not basis.size:
            raise ValueError(f"basis must be a non-empty square matrix, got shape {basis.shape}")
        if not np.isfinite(basis).all():
            raise ValueError("basis has non-finite entries")
        if ranks.ndim != 1 or ranks.size != vals.size:
            raise ValueError(f"{vals.size} eigenvalues but {ranks.size} ranks")
        dim = len(basis)  # ranks in 1..dim first: their int64 sum cannot wrap
        if ranks.dtype.kind not in "iu" or not np.all((ranks >= 1) & (ranks <= dim)) or ranks.sum() != dim:
            raise ValueError(f"ranks must be positive integers adding up to {dim}, got {ranks.tolist()}")
        object.__setattr__(self, "eigenvalues", frozen(vals))
        object.__setattr__(self, "ranks", frozen(ranks.astype(np.int64)))
        object.__setattr__(self, "basis", frozen(np.ascontiguousarray(basis)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def outcomes(self) -> int:
        return len(self.ranks)

    @cached_property
    def blocks(self) -> tuple[np.ndarray, ...]:
        """The V_k, as read-only views of the basis."""
        return tuple(np.split(self.basis, np.cumsum(self.ranks)[:-1], axis=1))

    @property
    def projectors(self) -> np.ndarray:
        """Read-only (outcomes, dim, dim) stack of the E_k, built on each call for dense consumers."""
        return frozen(np.array([v @ v.conj().T for v in self.blocks]))

    def pieces(self, x: np.ndarray) -> np.ndarray:
        """E_k x for each outcome k on a new last axis, E_k acting on x's last axis: the one split
        rule, V (mask * V^dag x) with mask[i, k] = 1 where basis column i is outcome k's."""
        mask = np.repeat(np.eye(self.outcomes), self.ranks, axis=0)
        return self.basis @ ((x @ self.basis.conj())[..., :, None] * mask)

    def rank(self, k: int) -> int:
        return int(self.ranks[validate_outcome_index(k, self.outcomes)])

    def probabilities(self, phi: np.ndarray) -> np.ndarray:
        """<phi|E_k|phi> = ||V_k^dag phi||^2 for each outcome k (rows of a matrix phi), never negative."""
        return np.add.reduceat(abs(self.basis.conj().T @ phi) ** 2, np.cumsum(self.ranks) - self.ranks)

    def validate(self, eps: float = DEFAULT_EPS) -> None:
        """Check finite, pairwise-distinct eigenvalues and a basis unitary within eps."""
        validate_tolerance(eps)
        if not np.all(np.isfinite(self.eigenvalues)):
            raise ValueError("eigenvalues must be finite")
        defect = orthonormality_defect(self.basis)
        if not defect <= eps:
            raise ValueError(f"basis: unitarity defect {defect:.3e} exceeds {eps}")
        vals = self.eigenvalues
        equal = vals[:, None] == vals
        if equal.sum() > vals.size:  # more than the diagonal
            k, kp = np.argwhere(np.triu(equal, 1))[0]  # the first pair in (k, k') order
            raise ValueError(f"eigenvalues {k} and {kp} are equal ({vals[k]})")

    def reconstruct(self) -> np.ndarray:
        """Sum of eigenvalue-weighted projectors, as one product V diag(...) V^dag."""
        return (self.basis * np.repeat(self.eigenvalues, self.ranks)) @ self.basis.conj().T


def spectral_decompose(h, eps: float = DEFAULT_EPS) -> SpectralForm:
    """Unique spectral form of a Hermitian operator.

    Eigenvalues closer than DEGENERACY_TOL are merged into one outcome whose
    basis block holds their eigenvectors. Outcomes are sorted by descending
    eigenvalue so indexing is deterministic.

    Raises:
        ValueError: input is non-finite or not Hermitian within eps.
    """
    validate_tolerance(eps)
    h = validate_hermitian(h, eps, "observable")
    vals, vecs = np.linalg.eigh((h + h.conj().T) / 2.0)
    vals, vecs = vals[::-1], vecs[:, ::-1]
    # a new outcome starts wherever the gap to the previous eigenvalue is large
    starts = np.concatenate(([0], np.flatnonzero(np.diff(vals) < -DEGENERACY_TOL) + 1))
    ranks = np.diff(np.append(starts, vals.size))
    return SpectralForm(np.add.reduceat(vals, starts) / ranks, ranks, vecs)


def from_projectors(
    eigenvalues, projectors: Sequence[np.ndarray], eps: float = DEFAULT_EPS, dim: int | None = None
) -> SpectralForm:
    """Spectral form of dense coindexed projectors, each dim x dim (or else projector 0's size).

    _dense_basis checks the projectors as given; their ranks must then add up to
    dim, so that they sum to the identity. validate checks the eigenvalues.
    """
    validate_tolerance(eps)
    vals = np.asarray(eigenvalues, dtype=np.float64).reshape(-1)
    if vals.size != len(projectors):
        raise ValueError(f"{vals.size} eigenvalues but {len(projectors)} projectors")
    basis, ranks = _dense_basis(projector_stack(projectors, dim=dim), eps, "projector")
    d, total = basis.shape
    if total != d:
        raise ValueError(f"projectors do not sum to identity (ranks add up to {total}, not {d})")
    return SpectralForm(vals, ranks, basis)


def _dense_basis(stack: np.ndarray, eps: float, label: str) -> tuple[np.ndarray, np.ndarray]:
    """(basis, ranks) of a complex (n, d, d) stack of orthogonal projectors, checked as given.

    The first matrix that stack_defect refuses (with idempotency), or that is zero, is named
    "<label> k"; then "<label>s k and k'", the first pair in (k, k') order whose block of the
    Gram matrix V^dag V has an entry above eps. Block k of V is matrix k's range basis.
    """
    bad = stack_defect(stack, eps, idempotent=True)
    if bad is not None:
        raise ValueError(f"{label} {bad[0]} {bad[1]}")
    in_range, vecs = _ranges(stack)
    ranks = in_range.sum(axis=1)
    if not ranks.all():
        raise ValueError(f"{label} {int(np.argmin(ranks))} is zero")
    basis = vecs.transpose(0, 2, 1)[in_range].T
    ends = np.cumsum(ranks)
    # one block row of the Gram matrix at a time: memory stays within the stack's
    for k in range(len(ranks) - 1):
        row = abs(basis[:, ends[k] - ranks[k] : ends[k]].conj().T @ basis[:, ends[k] :]).max(axis=0)
        above = np.maximum.reduceat(row, ends[k:-1] - ends[k]) > eps
        if above.any():
            raise ValueError(f"{label}s {k} and {k + 1 + int(above.argmax())} are not orthogonal")
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
    step = (vals[k] - lower) / m if np.isfinite(lower) else max(1.0 / m, np.spacing(abs(vals[k])))
    labels = vals[k] - step * np.arange(m)
    if not (np.all(np.diff(labels) < 0) and labels[-1] > lower):
        raise ValueError(f"outcome {k}: no room for {m} distinct labels below eigenvalue {vals[k]!r}")
    return SpectralForm(
        np.concatenate([vals[:k], labels, vals[k + 1 :]]),
        np.concatenate([sf.ranks[:k], sub_ranks, sf.ranks[k + 1 :]]),
        np.hstack([*sf.blocks[:k], sub_basis, *sf.blocks[k + 1 :]]),
    )


def range_basis(projector, eps: float = DEFAULT_EPS) -> list[np.ndarray]:
    """Deterministic orthonormal basis of a projector's range.

    Raises:
        ValueError: projector is non-finite, not square, or not Hermitian within eps.
    """
    in_range, vecs = _ranges(validate_hermitian(projector, eps, "projector")[None])
    return [vecs[0][:, i] for i in np.flatnonzero(in_range[0])]


def _ranges(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(in_range, vecs) for a complex (n, d, d) stack, from one batched eigh of its Hermitian parts.

    vecs[k][:, i] is an eigenvector of matrix k, and in_range[k, i] (eigenvalue
    above 1/2) says it belongs to the range basis. The one range rule behind
    range_basis and from_projectors.
    """
    vals, vecs = np.linalg.eigh((stack + stack.conj().transpose(0, 2, 1)) / 2.0)
    return vals > 0.5, vecs
