from __future__ import annotations

import numpy as np
import pytest

from unimeas.linalg import basis_ket, dag
from unimeas.measurement import build_canonical_model
from unimeas.rand import rand_hermitian, rand_ket, rand_observable
from unimeas.spectral import (
    SpectralForm,
    range_basis,
    refine,
    spectral_decompose,
    verify_completeness,
)


class TestSpectralDecompose:
    def test_diagonal_qubit(self):
        sf = spectral_decompose(np.diag([1.0, -1.0]))
        np.testing.assert_allclose(sf.eigenvalues, [1.0, -1.0], atol=1e-12)
        np.testing.assert_allclose(sf.projectors[0], np.diag([1.0, 0.0]), atol=1e-12)
        np.testing.assert_allclose(sf.projectors[1], np.diag([0.0, 1.0]), atol=1e-12)

    def test_identity_collapses_to_one_outcome(self):
        sf = spectral_decompose(np.eye(3))
        assert sf.outcomes == 1
        assert sf.eigenvalues[0] == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(sf.projectors[0], np.eye(3), atol=1e-12)

    def test_random_hermitian_reconstructs(self, rng):
        h = rand_hermitian(4, rng)
        sf = spectral_decompose(h)
        assert np.max(np.abs(sf.reconstruct() - h)) <= 1e-9
        sf.validate(1e-9)

    def test_invariants_separately(self, rng):
        sf = spectral_decompose(rand_hermitian(5, rng))
        eye = np.eye(sf.dim)
        for p in sf.projectors:
            assert np.max(np.abs(p @ p - p)) <= 1e-9
            assert np.max(np.abs(p - dag(p))) <= 1e-9
        for k in range(sf.outcomes):
            for kp in range(k + 1, sf.outcomes):
                assert np.max(np.abs(sf.projectors[k] @ sf.projectors[kp])) <= 1e-9
        assert np.max(np.abs(sum(sf.projectors) - eye)) <= 1e-9
        assert len(set(sf.eigenvalues)) == sf.outcomes

    def test_descending_outcome_order(self):
        sf = spectral_decompose(np.diag([2.0, 2.0, 5.0]))
        np.testing.assert_allclose(sf.eigenvalues, [5.0, 2.0], atol=1e-12)
        assert sf.rank(0) == 1
        assert sf.rank(1) == 2

    def test_near_degenerate_eigenvalues_merge(self):
        sf = spectral_decompose(np.diag([1.0, 1.0 + 1e-9]))
        assert sf.outcomes == 1
        np.testing.assert_allclose(sf.projectors[0], np.eye(2), atol=1e-12)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            spectral_decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            spectral_decompose(np.ones((2, 3)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            spectral_decompose(np.full((2, 2), np.nan))


class TestVerifyCompleteness:
    def test_decompose_output_complete(self, rng):
        ok, residual = verify_completeness(spectral_decompose(rand_hermitian(4, rng)))
        assert ok
        assert residual <= 1e-9

    def test_removed_projector_detected(self):
        sf = SpectralForm(np.array([1.0]), (np.diag([1.0, 0.0]),))
        ok, residual = verify_completeness(sf)
        assert not ok
        assert residual == pytest.approx(1.0)

    def test_canonical_pointer_complete(self, rng):
        model = build_canonical_model(rand_observable(3, rng))
        ok, _ = verify_completeness(model.pointer)
        assert ok


class TestRefine:
    def test_identity_split_into_basis(self):
        sf = spectral_decompose(np.eye(2))
        subs = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        fine = refine(sf, 0, subs)
        assert fine.outcomes == 2
        np.testing.assert_allclose(fine.projectors[0], subs[0], atol=1e-12)
        np.testing.assert_allclose(fine.projectors[1], subs[1], atol=1e-12)
        fine.validate(1e-9)

    def test_rank_one_self_refinement_unchanged(self):
        sf = spectral_decompose(np.diag([1.0, -1.0]))
        fine = refine(sf, 0, [sf.projectors[0]])
        np.testing.assert_array_equal(fine.eigenvalues, sf.eigenvalues)
        for p, q in zip(fine.projectors, sf.projectors):
            np.testing.assert_array_equal(p, q)

    def test_weight_additivity_on_degenerate_projector(self, rng):
        """Splitting a rank-2 eigenprojector preserves summed weights."""
        sf = spectral_decompose(np.diag([2.0, 2.0, 5.0]))
        assert sf.rank(1) == 2
        b0, b1 = range_basis(sf.projectors[1])
        subs = [np.outer(b0, b0.conj()), np.outer(b1, b1.conj())]
        fine = refine(sf, 1, subs)
        assert fine.outcomes == 3
        fine.validate(1e-9)
        for _ in range(100):
            phi = rand_ket(3, rng)
            coarse = np.vdot(phi, sf.projectors[1] @ phi).real
            refined = sum(np.vdot(phi, p @ phi).real for p in fine.projectors[1:])
            assert abs(refined - coarse) <= 1e-12

    def test_labels_stay_distinct_and_complete(self, rng):
        sf = rand_observable(5, rng, multiplicities=[3, 2])
        k = 0 if sf.rank(0) == 3 else 1
        basis = range_basis(sf.projectors[k])
        subs = [np.outer(b, b.conj()) for b in basis]
        fine = refine(sf, k, subs)
        assert fine.outcomes == sf.outcomes + 2
        fine.validate(1e-9)

    def test_bad_sum_rejected(self):
        sf = spectral_decompose(np.diag([1.0, -1.0]))
        with pytest.raises(ValueError, match="do not sum to projector"):
            refine(sf, 0, [np.eye(2)])

    def test_non_orthogonal_subs_rejected(self):
        sf = spectral_decompose(np.eye(2))
        p = np.diag([1.0, 0.0])
        with pytest.raises(ValueError, match="not orthogonal"):
            refine(sf, 0, [p, p])

    def test_out_of_range_outcome(self):
        sf = spectral_decompose(np.eye(2))
        with pytest.raises(ValueError, match="out of range"):
            refine(sf, 1, [np.eye(2)])

    def test_empty_subs_rejected(self):
        sf = spectral_decompose(np.eye(2))
        with pytest.raises(ValueError, match="at least one"):
            refine(sf, 0, [])


class TestRangeBasis:
    def test_spans_projector(self, rng):
        sf = rand_observable(4, rng, multiplicities=[2, 2])
        for p in sf.projectors:
            basis = range_basis(p)
            assert len(basis) == 2
            q = np.column_stack(basis)
            np.testing.assert_allclose(q @ dag(q), p, atol=1e-10)
            np.testing.assert_allclose(dag(q) @ q, np.eye(2), atol=1e-10)

    def test_zero_projector_empty(self):
        assert range_basis(np.zeros((3, 3))) == []

    def test_basis_vector_projector(self):
        basis = range_basis(np.outer(basis_ket(2, 1), basis_ket(2, 1)))
        assert len(basis) == 1
        np.testing.assert_allclose(np.abs(basis[0]), [0.0, 1.0], atol=1e-12)


class TestSpectralFormType:
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="eigenvalues but"):
            SpectralForm(np.array([1.0, 2.0]), (np.eye(2),))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one outcome"):
            SpectralForm(np.array([]), ())

    def test_equal_eigenvalues_rejected_by_validate(self):
        sf = SpectralForm(np.array([1.0, 1.0]), (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
        with pytest.raises(ValueError, match="are equal"):
            sf.validate(1e-9)

    @pytest.mark.filterwarnings("error")
    def test_non_finite_projector_named_by_index(self):
        sf = SpectralForm(np.array([1.0, 2.0]), (np.diag([1.0, 0.0]), np.diag([0.0, np.nan])))
        with pytest.raises(ValueError, match="projector 1 has non-finite entries"):
            sf.validate(1e-9)

    def test_equality_and_hash_by_identity(self):
        a = spectral_decompose(np.diag([1.0, 2.0]))
        b = spectral_decompose(np.diag([1.0, 2.0]))
        assert not a == b and a != b  # equal arrays, distinct records: no ambiguity error
        assert a == a
        assert hash(a) == hash(a)
        assert {a: 1, b: 2}[a] == 1

    def test_projectors_read_only(self):
        sf = spectral_decompose(np.diag([1.0, -1.0]))
        with pytest.raises(ValueError):
            sf.projectors[0][0, 0] = 2.0
