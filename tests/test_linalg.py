from __future__ import annotations

import re

import numpy as np
import pytest

from unimeas.linalg import (
    basis_ket,
    dag,
    ket,
    orthonormality_defect,
    partial_trace,
    sum_defect,
    tensor,
    uniform_ket,
    validate_density,
    validate_hermitian,
    validate_ket,
    validate_projector,
    validate_state,
    validate_unit_state,
)
from unimeas.rand import rand_density, rand_ket


class TestKets:
    def test_ket_normalizes(self):
        v = ket([3.0, 4.0])
        np.testing.assert_allclose(v, [0.6, 0.8], atol=1e-15)

    def test_ket_rejects_zero_vector(self):
        with pytest.raises(ValueError, match="zero vector"):
            ket([0.0, 0.0])

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_ket_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            ket([bad, 1.0])

    def test_basis_ket(self):
        np.testing.assert_array_equal(basis_ket(3, 1), [0, 1, 0])

    def test_basis_ket_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            basis_ket(3, 3)

    def test_uniform_ket_norm(self):
        assert np.linalg.norm(uniform_ket(5)) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("bad", [0, -1, True, 2.0, "3", None])
    def test_uniform_ket_rejects_non_positive_or_non_integer(self, bad):
        message = f"^uniform_ket dimension must be a positive integer, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            uniform_ket(bad)

    def test_uniform_ket_accepts_numpy_integer(self):
        np.testing.assert_allclose(uniform_ket(np.int64(4)), np.full(4, 0.5), atol=1e-15)

    def test_dag(self):
        a = np.array([[1.0, 2.0j], [3.0, 4.0]])
        np.testing.assert_array_equal(dag(a), np.array([[1.0, 3.0], [-2.0j, 4.0]]))


class TestTensor:
    def test_basis_index_convention(self):
        out = tensor(basis_ket(2, 0), basis_ket(2, 1))
        np.testing.assert_array_equal(out, basis_ket(4, 1))

    def test_identity_case(self):
        np.testing.assert_array_equal(tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_bilinearity(self):
        left = (basis_ket(2, 0) + basis_ket(2, 1)) / np.sqrt(2.0)
        out = tensor(left, basis_ket(2, 0))
        np.testing.assert_allclose(out, np.array([1.0, 0.0, 1.0, 0.0]) / np.sqrt(2.0), atol=1e-15)

    def test_associativity(self, rng):
        a, b, c = rand_ket(2, rng), rand_ket(3, rng), rand_ket(4, rng)
        np.testing.assert_allclose(
            tensor(tensor(a, b), c), tensor(a, tensor(b, c)), atol=1e-14
        )

    def test_operator_associativity(self, rng):
        a, b, c = (rand_density(d, rng) for d in (2, 3, 2))
        np.testing.assert_allclose(
            tensor(tensor(a, b), c), tensor(a, tensor(b, c)), atol=1e-14
        )

    def test_mixed_kinds_rejected(self):
        with pytest.raises(ValueError, match="two vectors or two operators"):
            tensor(basis_ket(2, 0), np.eye(2))


def _partial_trace_loops(rho, dims, keep):
    """Direct double-index summation, the oracle for the einsum path."""
    da, db = dims
    if keep == 0:
        out = np.zeros((da, da), dtype=complex)
        for a in range(da):
            for b in range(da):
                for j in range(db):
                    out[a, b] += rho[a * db + j, b * db + j]
    else:
        out = np.zeros((db, db), dtype=complex)
        for a in range(db):
            for b in range(db):
                for i in range(da):
                    out[a, b] += rho[i * db + a, i * db + b]
    return out


class TestPartialTrace:
    def test_product_state_first_factor(self, rng):
        sigma = rand_density(3, rng)
        p0 = np.outer(basis_ket(2, 0), basis_ket(2, 0))
        reduced = partial_trace(tensor(p0, sigma), (2, 3), keep=0)
        np.testing.assert_allclose(reduced, p0, atol=1e-12)

    def test_maximally_entangled(self):
        bell = (tensor(basis_ket(2, 0), basis_ket(2, 0)) + tensor(basis_ket(2, 1), basis_ket(2, 1))) / np.sqrt(2.0)
        reduced = partial_trace(np.outer(bell, bell.conj()), (2, 2), keep=1)
        np.testing.assert_allclose(reduced, np.eye(2) / 2.0, atol=1e-12)

    def test_random_product(self, rng):
        rho_a = rand_density(3, rng)
        rho_b = rand_density(2, rng)
        joint = tensor(rho_a, rho_b)
        np.testing.assert_allclose(partial_trace(joint, (3, 2), keep=0), rho_a, atol=1e-12)
        np.testing.assert_allclose(partial_trace(joint, (3, 2), keep=1), rho_b, atol=1e-12)

    @pytest.mark.parametrize("dims", [(2, 3), (3, 2), (4, 4)])
    @pytest.mark.parametrize("keep", [0, 1])
    def test_matches_loop_oracle(self, rng, dims, keep):
        rho = rand_density(dims[0] * dims[1], rng)
        np.testing.assert_allclose(
            partial_trace(rho, dims, keep), _partial_trace_loops(rho, dims, keep), atol=1e-13
        )

    def test_preserves_trace(self, rng):
        rho = rand_density(6, rng)
        for keep in (0, 1):
            reduced = partial_trace(rho, (2, 3), keep)
            assert np.trace(reduced).real == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError, match="does not match factor dims"):
            partial_trace(rand_density(6, rng), (2, 2), keep=0)

    def test_bad_keep(self, rng):
        with pytest.raises(ValueError, match="keep must be 0 or 1"):
            partial_trace(rand_density(4, rng), (2, 2), keep=2)


class TestValidators:
    def test_validate_ket_accepts_unit_vector(self):
        validate_ket(uniform_ket(4))

    def test_validate_ket_rejects_matrix(self):
        with pytest.raises(ValueError, match="must be a vector"):
            validate_ket(np.eye(2))

    def test_validate_ket_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="norm"):
            validate_ket(np.array([1.0, 1.0]))

    def test_validate_ket_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            validate_ket(np.array([np.inf, 0.0]))

    def test_validate_projector(self, rng):
        validate_projector(np.diag([1.0, 0.0]))
        with pytest.raises(ValueError, match="not Hermitian"):
            validate_projector(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="not idempotent"):
            validate_projector(np.diag([2.0, 0.0]))
        with pytest.raises(ValueError, match="square"):
            validate_projector(np.ones((2, 3)))

    def test_validate_projector_rejects_non_finite(self):
        with pytest.raises(ValueError, match="projector has non-finite entries"):
            validate_projector(np.full((2, 2), np.nan))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("off_diagonal", [0.0, 1e300 + 1e300j])
    def test_validate_projector_refuses_overflowing_square(self, off_diagonal):
        """Finite Hermitian entries so large that P @ P overflows: to inf, or with
        the complex off-diagonal to nan in every entry. Both are refused, silently."""
        p = np.array([[1e300, off_diagonal], [np.conj(off_diagonal), -1e300]])
        with pytest.raises(ValueError, match="^projector is not idempotent$"):
            validate_projector(p)

    def test_validate_density(self, rng):
        validate_density(rand_density(3, rng))
        with pytest.raises(ValueError, match="negative eigenvalue"):
            validate_density(np.diag([1.5, -0.5]))
        with pytest.raises(ValueError, match="trace"):
            validate_density(np.eye(2))
        with pytest.raises(ValueError, match="not Hermitian"):
            validate_density(np.array([[0.5, 1.0], [0.0, 0.5]]))

    def test_hermiticity_messages_report_defect(self):
        skew = np.array([[0.5, 1.0], [0.0, 0.5]])
        for check in (validate_hermitian, validate_projector, validate_density):
            with pytest.raises(ValueError, match=r"not Hermitian \(defect 1\.000e\+00\)"):
                check(skew)

    def test_validate_hermitian_names_the_matrix(self):
        with pytest.raises(ValueError, match="^observable must be square"):
            validate_hermitian(np.ones((2, 3)), name="observable")
        with pytest.raises(ValueError, match="^observable has non-finite entries"):
            validate_hermitian(np.full((2, 2), np.inf), name="observable")

    def test_validate_state(self):
        out = validate_state([3.0, 4.0], 2)
        assert out.dtype == np.complex128
        with pytest.raises(ValueError, match=r"^phi has shape \(3,\), expected \(2,\)"):
            validate_state(np.ones(3), 2, "phi")
        with pytest.raises(ValueError, match="non-finite"):
            validate_state([np.nan, 0.0], 2)

    def test_validate_unit_state(self):
        validate_unit_state(uniform_ket(3), 3)
        with pytest.raises(ValueError, match="norm 5.0 is not 1"):
            validate_unit_state([3.0, 4.0], 2)
        with pytest.raises(ValueError, match="expected"):
            validate_unit_state(uniform_ket(3), 2)


class TestDefects:
    def test_orthonormality_defect(self, rng):
        q = np.linalg.qr(rng.normal(size=(5, 3)))[0]
        assert orthonormality_defect(q) <= 1e-12
        assert orthonormality_defect(2.0 * q) == pytest.approx(3.0)

    def test_orthonormality_defect_is_nan_on_nan(self):
        assert np.isnan(orthonormality_defect(np.array([[np.nan], [0.0]])))

    def test_sum_defect(self):
        projs = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        assert sum_defect(projs, np.eye(2)) == 0.0
        assert sum_defect(projs[:1], np.eye(2)) == pytest.approx(1.0)
        assert np.isnan(sum_defect([np.full((2, 2), np.nan)], np.eye(2)))
