from __future__ import annotations

import re

import numpy as np
import pytest

from unimeas.linalg import (
    basis_ket,
    density_eigh,
    ket,
    orthonormality_defect,
    sum_defect,
    uniform_ket,
    validate_hermitian,
    validate_ket,
    validate_projector,
    validate_state,
    validate_unit_state,
)
from unimeas.rand import rand_density


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

    @pytest.mark.parametrize(
        "v,direction",
        [
            ([1e200, 1e200], [1, 1]),
            ([1e-200, 1e-200], [1, 1]),
            ([1e300j, 1e300j], [1j, 1j]),
            ([1.7e308 + 1.7e308j, 1.7e308], [1 + 1j, 1]),
        ],
    )
    def test_ket_of_a_huge_or_tiny_vector(self, v, direction):
        """Its sum of squares overflows or underflows, or its norm lies beyond the float range."""
        want = np.array(direction) / np.linalg.norm(direction)
        np.testing.assert_allclose(ket(v), want, rtol=1e-15)

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

    def test_uniform_ket_of_dimension_one(self):
        assert uniform_ket(1).tolist() == [1.0]

    def test_uniform_ket_accepts_numpy_integer(self):
        np.testing.assert_allclose(uniform_ket(np.int64(4)), np.full(4, 0.5), atol=1e-15)


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
        density_eigh(rand_density(3, rng))
        with pytest.raises(ValueError, match="negative eigenvalue"):
            density_eigh(np.diag([1.5, -0.5]))
        with pytest.raises(ValueError, match="trace"):
            density_eigh(np.eye(2))
        with pytest.raises(ValueError, match="not Hermitian"):
            density_eigh(np.array([[0.5, 1.0], [0.0, 0.5]]))

    @pytest.mark.parametrize("levels,k", [(2, 2), (3, 8), (2, 40)])
    def test_density_eigh_keeps_eigh_order_among_ties(self, levels, k):
        """Kept pairs descend; equal eigenvalues keep the order eigh gives their eigenvectors.
        rho has `levels` distinct eigenvalues, k of each: an unstable sort reorders such ties."""
        rho = np.diag(np.repeat(np.arange(1.0, levels + 1), k) / (k * levels * (levels + 1) / 2))
        vals, vecs = np.linalg.eigh(rho.astype(complex))
        assert len(set(vals.tolist())) == levels  # the ties are exact
        order = sorted(range(len(vals)), key=lambda i: -vals[i])  # Python's sort is stable
        _, kept_vals, kept_vecs = density_eigh(rho)
        assert kept_vals.tobytes() == vals[order].tobytes()
        assert kept_vecs.tobytes() == vecs[:, order].tobytes()

    def test_hermiticity_messages_report_defect(self):
        skew = np.array([[0.5, 1.0], [0.0, 0.5]])
        for check in (validate_hermitian, validate_projector, density_eigh):
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

    @pytest.mark.parametrize(
        "v,norm", [([1e200, 1e200], "1.414213562373095e+200"), ([1e-200, 0.0], "1e-200")]
    )
    def test_validate_unit_state_reports_a_huge_or_tiny_norm(self, v, norm):
        with pytest.raises(ValueError, match=f"^state norm {re.escape(norm)} is not 1 within 1e-09$"):
            validate_unit_state(v, 2)

    @pytest.mark.parametrize(
        "diagonal,message",
        [
            ([1.7e308, -1.7e308], r"^density operator has negative eigenvalues summing to -1\.700e\+308$"),
            ([1.7e308, 1.7e308], r"^density operator trace \(inf\+0j\) is not 1 within 1e-09$"),
        ],
    )
    def test_density_eigh_refuses_huge_entries_quietly(self, diagonal, message):
        with pytest.raises(ValueError, match=message):
            density_eigh(np.diag(diagonal))


class TestDefects:
    def test_orthonormality_defect(self, rng):
        q = np.linalg.qr(rng.normal(size=(5, 3)))[0]
        assert orthonormality_defect(q) <= 1e-12
        assert orthonormality_defect(2.0 * q) == pytest.approx(3.0)

    def test_orthonormality_defect_is_nan_on_nan(self):
        assert np.isnan(orthonormality_defect(np.array([[np.nan], [0.0]])))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "q", [[[1e200], [1e200]], [[1e300, 1.0], [0.0, 1e300]], [[1e200 + 1e200j], [1e200]]]
    )
    def test_orthonormality_defect_is_inf_when_the_gram_matrix_overflows(self, q):
        assert orthonormality_defect(np.array(q)) == np.inf

    @pytest.mark.parametrize("dim,dim_a", [(12, 3), (8, 8), (30, 5), (4, 1)])
    def test_orthonormality_defect_of_a_tall_isometry_is_the_identity_formula(self, rng, dim, dim_a):
        """The diagonal is shifted in place; the result is bit for bit that of Q^dag Q - I."""
        z = rng.normal(size=(dim, dim_a)) + 1j * rng.normal(size=(dim, dim_a))
        for q in (np.linalg.qr(z)[0], z):
            want = float(np.max(np.abs(q.conj().T @ q - np.eye(dim_a))))
            assert orthonormality_defect(q) == want

    def test_sum_defect(self):
        projs = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        assert sum_defect(projs, np.eye(2)) == 0.0
        assert sum_defect(projs[:1], np.eye(2)) == pytest.approx(1.0)
        assert np.isnan(sum_defect([np.full((2, 2), np.nan)], np.eye(2)))
