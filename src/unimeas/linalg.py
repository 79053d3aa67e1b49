"""Dense complex linear algebra over finite-dimensional Hilbert spaces.

All states are 1-D complex128 arrays, all operators square 2-D complex128
arrays. Composite indices are first-factor major throughout the package:
the pair (i_a, i_b) maps to i_a * dim_b + i_b.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

DEFAULT_EPS = 1e-9


def as_complex(a) -> np.ndarray:
    return np.asarray(a, dtype=np.complex128)


def _is_int(n) -> bool:
    """True for an int or numpy integer that is not a bool: the package's one integer rule."""
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool)


def _vector(v) -> np.ndarray:
    """v as complex128, raising "state must be a vector" unless it is 1-D."""
    v = as_complex(v)
    if v.ndim != 1:
        raise ValueError(f"state must be a vector, got ndim {v.ndim}")
    return v


def ket(amplitudes) -> np.ndarray:
    """Normalized state vector built from a 1-D sequence of amplitudes."""
    v = _vector(amplitudes)
    v = validate_state(v, v.size)
    n = _norm(v)
    if n == 0:
        raise ValueError("cannot normalize the zero vector")
    return v / n if n < np.inf else ket(v / 2.0)  # a norm beyond the float range: halve, exactly


def _norm(v: np.ndarray):
    """||v|| of a finite vector: np.linalg.norm's where its sum of squares is a normal float, else
    that of v over its largest real or imaginary part, scaled back; inf only beyond the float range."""
    with np.errstate(over="ignore"):  # the sum of squares overflows from a norm of about 1e154
        n = np.linalg.norm(v)
        if not 1e-150 < n < np.inf and v.any():
            m = max(abs(v.real).max(), abs(v.imag).max())
            n = m * np.linalg.norm(v / m)
    return n


def basis_ket(dim: int, index: int) -> np.ndarray:
    """Canonical basis vector |index> in a positive integer dimension dim."""
    if not _is_int(dim) or dim < 1:
        raise ValueError(f"basis_ket dimension must be a positive integer, got {dim!r}")
    if not _is_int(index) or not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for dim {dim}")
    v = np.zeros(dim, dtype=np.complex128)
    v[index] = 1.0
    return v


def uniform_ket(dim: int) -> np.ndarray:
    """Equal-amplitude superposition over the canonical basis of a positive dimension."""
    if not _is_int(dim) or dim < 1:
        raise ValueError(f"uniform_ket dimension must be a positive integer, got {dim!r}")
    return np.full(dim, 1.0 / np.sqrt(dim), dtype=np.complex128)


def orthonormality_defect(q) -> float:
    """max |Q^dag Q - I| over the columns of q; nan when q is non-finite, inf when Q^dag Q overflows."""
    q = as_complex(q)
    with np.errstate(over="ignore", invalid="ignore"):  # huge finite entries overflow
        g = q.conj().T @ q
        g.flat[:: len(g) + 1] -= 1.0  # the diagonal, in place of an identity temporary
        defect = float(abs(g).max())
    # complex entries whose real and imaginary parts both overflow leave inf - inf = nan in g
    return np.inf if np.isnan(defect) and np.isfinite(q).all() else defect


def sum_defect(matrices: Sequence[np.ndarray], target) -> float:
    """max |sum(matrices) - target|; nan when an entry is non-finite."""
    return float(np.max(np.abs(np.sum(matrices, axis=0) - target)))


def validate_tolerance(eps: float) -> None:
    if not 0.0 < eps < 1.0:
        raise ValueError(f"tolerance must lie in (0, 1), got {eps}")


def validate_state(v, dim: int, name: str = "state") -> np.ndarray:
    """Return v as complex128, raising unless it is a finite vector of shape (dim,)."""
    v = as_complex(v)
    if v.shape != (dim,):
        raise ValueError(f"{name} has shape {v.shape}, expected ({dim},)")
    if not np.isfinite(v).all():
        raise ValueError(f"{name} contains non-finite amplitudes")
    return v


def validate_outcome_index(k, outcomes: int) -> int:
    """k as an int; raises unless k is an int or numpy integer, not a bool, in [0, outcomes)."""
    if not _is_int(k) or not 0 <= k < outcomes:
        raise ValueError(f"outcome index {k} out of range")
    return int(k)


def validate_unit_state(v, dim: int, eps: float = DEFAULT_EPS, name: str = "state") -> np.ndarray:
    """validate_state, and also raise unless the norm is 1 within eps."""
    v = validate_state(v, dim, name)
    n = _norm(v)
    if abs(n - 1.0) > eps:
        raise ValueError(f"{name} norm {n} is not 1 within {eps}")
    return v


def validate_ket(v, eps: float = DEFAULT_EPS) -> None:
    """Raise unless v is a finite norm-one vector of any dimension."""
    v = _vector(v)
    validate_unit_state(v, v.size, eps)


def validate_hermitian(a, eps: float = DEFAULT_EPS, name: str = "matrix") -> np.ndarray:
    """a as complex128; raises "<name> ..." unless non-empty, square, finite and Hermitian within eps."""
    return _validate_matrix(a, eps, name, idempotent=False)


def validate_projector(p, eps: float = DEFAULT_EPS, name: str = "projector") -> np.ndarray:
    """validate_hermitian, and also raise unless p is idempotent within eps."""
    return _validate_matrix(p, eps, name, idempotent=True)


def _validate_matrix(a, eps: float, name: str, idempotent: bool) -> np.ndarray:
    """a as complex128; raises "<name> ..." unless a is a non-empty square matrix that is finite,
    Hermitian within eps and, with `idempotent`, idempotent within eps, checked in that order."""
    a = as_complex(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if not a.size:
        raise ValueError(f"{name} must be non-empty")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} has non-finite entries")
    with np.errstate(over="ignore", invalid="ignore"):  # huge finite entries overflow to inf
        herm = abs(a - a.conj().T).max()
        if herm > eps:
            raise ValueError(f"{name} is not Hermitian (defect {herm:.3e})")
        if idempotent and not abs(a @ a - a).max() <= eps:  # nan fails too
            raise ValueError(f"{name} is not idempotent")
    return a


def projector_stack(
    projectors: Sequence[np.ndarray], label: str = "projector", dim: int | None = None
) -> np.ndarray:
    """Matrices as one complex (n, d, d) stack, d being dim or else matrix 0's size.

    The one shape rule for projector stacks: the first matrix k that is not a
    non-empty square matrix, or is not d x d, is named "<label> k".
    """
    mats = [as_complex(p) for p in projectors]
    if not mats:
        raise ValueError(f"at least one {label} is required")
    for k, p in enumerate(mats):
        if p.ndim != 2 or p.shape[0] != p.shape[1] or not p.size:
            raise ValueError(f"{label} {k} must be a non-empty square matrix, got shape {p.shape}")
        dim = p.shape[0] if dim is None else dim
        if p.shape != (dim, dim):
            raise ValueError(f"{label} {k} has shape {p.shape}, expected {(dim, dim)}")
    return np.array(mats)


def density_eigh(rho, eps: float = DEFAULT_EPS) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rho, kept eigenvalues, their eigenvectors) of a density operator, from one eigh.

    Drops the longest run of smallest eigenvalues, short of the largest, whose magnitudes sum
    to at most eps; raises unless rho is finite, Hermitian, of trace one within eps and that
    run holds every negative eigenvalue. Kept pairs descend, ties in eigh's order.
    """
    rho = validate_hermitian(rho, eps, "density operator")
    vals, vecs = np.linalg.eigh(rho / 2.0 + rho.conj().T / 2.0)  # (rho + rho^dag) / 2 would overflow
    with np.errstate(over="ignore"):  # sums of huge finite eigenvalues overflow to inf, refused below
        tail = abs(vals).cumsum()  # eigh's eigenvalues ascend, so the negative ones lead
        tr = complex(rho.trace())
    dropped = min(int(tail.searchsorted(eps, side="right")), vals.size - 1)
    negatives = np.count_nonzero(vals < 0)
    if negatives > dropped:
        raise ValueError(
            f"density operator has negative eigenvalues summing to {-tail[negatives - 1]:.3e}"
        )
    if abs(tr - 1.0) > eps:
        raise ValueError(f"density operator trace {tr} is not 1 within {eps}")
    kept = dropped + (-vals[dropped:]).argsort(kind="stable")
    return rho, vals[kept], vecs[:, kept]


def frozen(a: np.ndarray) -> np.ndarray:
    """Read-only view-safe copy, for immutable record fields."""
    out = np.array(a)
    out.setflags(write=False)
    return out
