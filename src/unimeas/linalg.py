"""Dense complex linear algebra over finite-dimensional Hilbert spaces.

All states are 1-D complex128 arrays, all operators square 2-D complex128
arrays. Composite indices are first-factor major throughout the package:
the pair (i_a, i_b) maps to i_a * dim_b + i_b.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

DEFAULT_EPS = 1e-9

# largest composite dimension tensor() will produce
_MAX_TENSOR_DIM = 1 << 20


def as_complex(a) -> np.ndarray:
    return np.asarray(a, dtype=np.complex128)


def _finite(a, name: str) -> np.ndarray:
    """a as complex128, raising "<name> has non-finite entries" unless every entry is finite."""
    a = as_complex(a)
    if not np.isfinite(a).all():
        raise ValueError(f"{name} has non-finite entries")
    return a


def dag(a) -> np.ndarray:
    """Conjugate transpose of a finite array."""
    return _finite(a, "operand").conj().T


def ket(amplitudes) -> np.ndarray:
    """Normalized state vector built from a sequence of amplitudes."""
    v = as_complex(amplitudes).reshape(-1)
    v = validate_state(v, v.size)
    n = np.linalg.norm(v)
    if n == 0:
        raise ValueError("cannot normalize the zero vector")
    return v / n


def basis_ket(dim: int, index: int) -> np.ndarray:
    """Canonical basis vector |index> in dimension dim."""
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for dim {dim}")
    v = np.zeros(dim, dtype=np.complex128)
    v[index] = 1.0
    return v


def uniform_ket(dim: int) -> np.ndarray:
    """Equal-amplitude superposition over the canonical basis of a positive dimension."""
    if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)) or dim < 1:
        raise ValueError(f"uniform_ket dimension must be a positive integer, got {dim!r}")
    return np.full(dim, 1.0 / np.sqrt(dim), dtype=np.complex128)


def tensor(a, b) -> np.ndarray:
    """Kronecker product of two vectors or two operators.

    Both operands must be finite and of the same kind (1-D with 1-D, 2-D
    with 2-D). The composite index convention is (i_a, i_b) -> i_a * dim_b + i_b.
    """
    a = _finite(a, "tensor operand")
    b = _finite(b, "tensor operand")
    if a.ndim != b.ndim or a.ndim not in (1, 2):
        raise ValueError(
            f"tensor expects two vectors or two operators, got ndim {a.ndim} and {b.ndim}"
        )
    if a.shape[0] * b.shape[0] > _MAX_TENSOR_DIM:
        raise ValueError(
            f"tensor product dimension {a.shape[0] * b.shape[0]} exceeds {_MAX_TENSOR_DIM}"
        )
    return np.kron(a, b)


def partial_trace(rho, dims: tuple[int, int], keep: int) -> np.ndarray:
    """Reduced operator on one factor of a bipartite system.

    Args:
        rho: finite operator on the composite space of dimension dims[0] * dims[1].
        dims: the two factor dimensions, first-factor-major indexing.
        keep: 0 to keep the first factor, 1 to keep the second.

    Returns:
        The reduced operator on the kept factor; the trace is preserved.
    """
    da, db = int(dims[0]), int(dims[1])
    rho = as_complex(rho)
    if rho.ndim != 2 or rho.shape != (da * db, da * db):
        raise ValueError(
            f"operator shape {rho.shape} does not match factor dims {da}x{db}"
        )
    _finite(rho, "operator")
    if keep not in (0, 1):
        raise ValueError(f"keep must be 0 or 1, got {keep}")
    r = rho.reshape(da, db, da, db)
    if keep == 0:
        return np.einsum("ajbj->ab", r)
    return np.einsum("iaib->ab", r)


def orthonormality_defect(q) -> float:
    """max |Q^dag Q - I| over the columns of q; nan when q is non-finite, inf when Q^dag Q overflows."""
    q = as_complex(q)
    with np.errstate(over="ignore", invalid="ignore"):  # huge finite entries overflow
        return float(np.max(np.abs(q.conj().T @ q - np.eye(q.shape[1]))))


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
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite amplitudes")
    return v


def validate_outcome_index(k, outcomes: int) -> int:
    """k as an int; raises unless k is an int or numpy integer, not a bool, in [0, outcomes)."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or not 0 <= k < outcomes:
        raise ValueError(f"outcome index {k} out of range")
    return int(k)


def validate_unit_state(v, dim: int, eps: float = DEFAULT_EPS, name: str = "state") -> np.ndarray:
    """validate_state, and also raise unless the norm is 1 within eps."""
    v = validate_state(v, dim, name)
    n = np.linalg.norm(v)
    if abs(n - 1.0) > eps:
        raise ValueError(f"{name} norm {n} is not 1 within {eps}")
    return v


def validate_ket(v, eps: float = DEFAULT_EPS) -> None:
    """Raise unless v is a finite norm-one vector of any dimension."""
    v = as_complex(v)
    if v.ndim != 1:
        raise ValueError(f"state must be a vector, got ndim {v.ndim}")
    validate_unit_state(v, v.size, eps)


def validate_hermitian(a, eps: float = DEFAULT_EPS, name: str = "matrix") -> np.ndarray:
    """a as complex128; raises "<name> ..." unless non-empty, square, finite and Hermitian within eps."""
    return _validate_matrix(a, eps, name, idempotent=False)


def validate_projector(p, eps: float = DEFAULT_EPS, name: str = "projector") -> np.ndarray:
    """validate_hermitian, and also raise unless p is idempotent within eps."""
    return _validate_matrix(p, eps, name, idempotent=True)


def _validate_matrix(a, eps: float, name: str, idempotent: bool) -> np.ndarray:
    a = as_complex(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if not a.size:
        raise ValueError(f"{name} must be non-empty")
    bad = stack_defect(a[None], eps, idempotent)
    if bad is not None:
        raise ValueError(f"{name} {bad[1]}")
    return a


def stack_defect(stack: np.ndarray, eps: float, idempotent: bool = False) -> tuple[int, str] | None:
    """(k, defect) for the first matrix k of a complex (n, d, d) stack that fails.

    Each matrix is checked, in order, to be finite, Hermitian within eps and,
    with `idempotent`, idempotent within eps; defect completes "<name> ...".
    None when every matrix passes. The one rule behind validate_hermitian,
    validate_projector and spectral.from_projectors.
    """
    finite = np.isfinite(stack).all(axis=(1, 2))
    n = len(stack) if finite.all() else int(finite.argmin())
    head = stack[:n]  # the finite prefix: inf - inf would warn
    herm = abs(head - head.conj().transpose(0, 2, 1)).max(axis=(1, 2))
    bad = herm > eps
    if idempotent:
        with np.errstate(over="ignore", invalid="ignore"):  # huge finite entries overflow
            bad |= ~(abs(head @ head - head).max(axis=(1, 2)) <= eps)  # nan fails too
    if bad.any():
        k = int(bad.argmax())
        if herm[k] > eps:
            return k, f"is not Hermitian (defect {herm[k]:.3e})"
        return k, "is not idempotent"
    if n < len(stack):
        return n, "has non-finite entries"
    return None


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
    """(rho, eigenvalues, eigenvectors) of a density operator, from one eigh.

    Raises unless rho is finite, Hermitian, PSD and of trace one within eps;
    eigenvalues ascend, as np.linalg.eigh returns them.
    """
    rho = validate_hermitian(rho, eps, "density operator")
    vals, vecs = np.linalg.eigh((rho + rho.conj().T) / 2.0)
    if vals[0] < -eps:
        raise ValueError(f"density operator has negative eigenvalue {vals[0]:.3e}")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > eps:
        raise ValueError(f"density operator trace {tr} is not 1 within {eps}")
    return rho, vals, vecs


def validate_density(rho, eps: float = DEFAULT_EPS) -> np.ndarray:
    """Return rho as complex128, raising unless it is finite, Hermitian, PSD, and trace one."""
    return density_eigh(rho, eps)[0]


def frozen(a: np.ndarray) -> np.ndarray:
    """Read-only view-safe copy, for immutable record fields."""
    out = np.array(a)
    out.setflags(write=False)
    return out
