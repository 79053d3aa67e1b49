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


def hermiticity_defect(a) -> float:
    a = as_complex(a)
    return float(np.max(np.abs(a - a.conj().T)))


def is_hermitian(a, eps: float = DEFAULT_EPS) -> bool:
    return hermiticity_defect(a) <= eps


def orthonormality_defect(q) -> float:
    """max |Q^dag Q - I| over the columns of q; nan when q is non-finite."""
    q = as_complex(q)
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
    """a as complex128; raises "<name> ..." unless finite, square and Hermitian within eps."""
    a = as_complex(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    _finite(a, name)
    defect = hermiticity_defect(a)
    if defect > eps:
        raise ValueError(f"{name} is not Hermitian (defect {defect:.3e})")
    return a


def validate_projector(p, eps: float = DEFAULT_EPS, name: str = "projector") -> np.ndarray:
    """Return p as complex128, raising unless it is a finite Hermitian idempotent within eps."""
    p = validate_hermitian(p, eps, name)
    if np.max(np.abs(p @ p - p)) > eps:
        raise ValueError(f"{name} is not idempotent")
    return p


def validate_projectors(
    projectors: Sequence[np.ndarray], dim: int, eps: float = DEFAULT_EPS, label: str = "projector"
) -> None:
    """Raise unless each matrix is a dim x dim projector and every pair is orthogonal.

    Matrix k is named "<label> k" in error messages, a pair "<label>s k and k'".
    """
    for k, p in enumerate(projectors):
        if p.shape != (dim, dim):
            raise ValueError(f"{label} {k} has shape {p.shape}, expected {(dim, dim)}")
        validate_projector(p, eps, f"{label} {k}")
    for k in range(len(projectors)):
        for kp in range(k + 1, len(projectors)):
            if np.max(np.abs(projectors[k] @ projectors[kp])) > eps:
                raise ValueError(f"{label}s {k} and {kp} are not orthogonal")


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
