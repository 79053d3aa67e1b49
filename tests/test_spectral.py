from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from unimeas.linalg import basis_ket
from unimeas.measurement import build_canonical_model
from unimeas.rand import rand_hermitian, rand_ket, rand_observable
from unimeas.spectral import (
    SpectralForm,
    from_projectors,
    range_basis,
    refine,
    spectral_decompose,
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
        assert np.max(np.abs(sum(v * p for v, p in zip(sf.eigenvalues, sf.projectors)) - h)) <= 1e-9
        sf.validate(1e-9)

    def test_invariants_separately(self, rng):
        sf = spectral_decompose(rand_hermitian(5, rng))
        eye = np.eye(sf.dim)
        for p in sf.projectors:
            assert np.max(np.abs(p @ p - p)) <= 1e-9
            assert np.max(np.abs(p - p.conj().T)) <= 1e-9
        for k in range(sf.outcomes):
            for kp in range(k + 1, sf.outcomes):
                assert np.max(np.abs(sf.projectors[k] @ sf.projectors[kp])) <= 1e-9
        assert np.max(np.abs(sum(sf.projectors) - eye)) <= 1e-9
        assert len(set(sf.eigenvalues)) == sf.outcomes

    def test_descending_outcome_order(self):
        sf = spectral_decompose(np.diag([2.0, 2.0, 5.0]))
        np.testing.assert_allclose(sf.eigenvalues, [5.0, 2.0], atol=1e-12)
        assert sf.ranks[0] == 1
        assert sf.ranks[1] == 2

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

    @pytest.mark.parametrize(
        "diagonal,eigenvalues,ranks",
        [
            ([1.7e308, 1.7e308], [1.7e308], [2]),
            ([1.7e308, -1.7e308, 1.7e308, 1.7e308], [1.7e308, -1.7e308], [3, 1]),
        ],
    )
    def test_huge_eigenvalues(self, diagonal, eigenvalues, ranks):
        """h + h^dag and a degenerate outcome's eigenvalue sum would overflow; the form does not."""
        sf = spectral_decompose(np.diag(diagonal))
        assert sf.eigenvalues.tolist() == eigenvalues and sf.ranks.tolist() == ranks
        sf.validate()


class TestVerifyCompleteness:
    """A form's ranks add up to dim and its basis is unitary, so its projectors sum to I."""

    def test_decompose_output_complete(self, rng):
        sf = spectral_decompose(rand_hermitian(4, rng))
        assert sf.ranks.sum() == sf.dim
        assert np.max(np.abs(sf.projectors.sum(axis=0) - np.eye(4))) <= 1e-9

    def test_removed_projector_detected(self):
        with pytest.raises(ValueError, match=r"^projectors do not sum to identity \(ranks add up to 1, not 2\)$"):
            from_projectors(np.array([1.0]), (np.diag([1.0, 0.0]),))
        with pytest.raises(ValueError, match=r"^ranks must be positive integers adding up to 2, got \[1\]$"):
            SpectralForm(np.array([1.0]), [1], np.eye(2))

    def test_canonical_pointer_complete(self, rng):
        model = build_canonical_model(rand_observable(3, rng))
        np.testing.assert_array_equal(model.pointer.projectors.sum(axis=0), np.eye(model.dim_b))


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
        assert sf.ranks[1] == 2
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
        k = 0 if sf.ranks[0] == 3 else 1
        basis = range_basis(sf.projectors[k])
        subs = [np.outer(b, b.conj()) for b in basis]
        fine = refine(sf, k, subs)
        assert fine.outcomes == sf.outcomes + 2
        fine.validate(1e-9)

    def test_lowest_outcome_labels_step_at_least_one_float_spacing(self):
        """1/m is below the float spacing of 1e17: the labels would collide."""
        sf = spectral_decompose(np.diag([1e17, 1e17]))
        fine = refine(sf, 0, [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        assert fine.eigenvalues[0] == 1e17 > fine.eigenvalues[1]
        fine.validate()

    @pytest.mark.parametrize("ulps,m", [(1, 2), (2, 3), (3, 4)])
    def test_gap_too_narrow_for_distinct_labels_rejected(self, ulps, m):
        top = 1.0 + 2**-52 * ulps
        sf = SpectralForm(np.array([top, 1.0]), [m, 1], np.eye(m + 1))
        subs = [np.diag(np.eye(m + 1)[j]) for j in range(m)]
        with pytest.raises(ValueError, match=rf"^outcome 0: no room for {m} distinct labels below eigenvalue"):
            refine(sf, 0, subs)

    def test_gap_of_a_few_floats_holds_as_many_labels(self):
        top = 1.0 + 2**-52 * 3
        sf = SpectralForm(np.array([top, 1.0]), [3, 1], np.eye(4))
        fine = refine(sf, 0, [np.diag(np.eye(4)[j]) for j in range(3)])
        assert np.all(np.diff(fine.eigenvalues) < 0)
        fine.validate()

    def test_one_outcome_of_many_read_alone(self):
        """Outcome 0 of 255 is compared with its sub-projectors as V_0 V_0^dag: the dense
        (outcomes, dim, dim) stack would take 268 MB here."""
        basis = np.linalg.qr(np.random.default_rng(7).normal(size=(256, 256)))[0]
        sf = SpectralForm(np.arange(255.0, 0.0, -1.0), [2] + [1] * 254, basis)
        subs = [np.outer(basis[:, j], basis[:, j]) for j in range(2)]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fine = refine(sf, 0, subs)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert fine.outcomes == 256
        fine.validate()

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
            np.testing.assert_allclose(q @ q.conj().T, p, atol=1e-10)
            np.testing.assert_allclose(q.conj().T @ q, np.eye(2), atol=1e-10)

    def test_zero_projector_empty(self):
        assert range_basis(np.zeros((3, 3))) == []

    def test_basis_vector_projector(self):
        basis = range_basis(np.outer(basis_ket(2, 1), basis_ket(2, 1)))
        assert len(basis) == 1
        np.testing.assert_allclose(np.abs(basis[0]), [0.0, 1.0], atol=1e-12)


class TestSpectralFormType:
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="^2 eigenvalues but 1 projectors$"):
            from_projectors(np.array([1.0, 2.0]), (np.eye(2),))
        with pytest.raises(ValueError, match="^2 eigenvalues but 1 ranks$"):
            SpectralForm(np.array([1.0, 2.0]), [2], np.eye(2))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="^at least one projector is required$"):
            from_projectors(np.array([]), ())
        with pytest.raises(ValueError, match=r"^ranks must be positive integers adding up to 2, got \[\]$"):
            SpectralForm(np.array([]), np.array([], dtype=int), np.eye(2))

    def test_equal_eigenvalues_rejected_by_validate(self):
        sf = from_projectors(np.array([1.0, 1.0]), (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
        with pytest.raises(ValueError, match="are equal"):
            sf.validate(1e-9)

    @pytest.mark.filterwarnings("error")
    def test_non_finite_projector_named_by_index(self):
        with pytest.raises(ValueError, match="^projector 1 has non-finite entries$"):
            from_projectors(np.array([1.0, 2.0]), (np.diag([1.0, 0.0]), np.diag([0.0, np.nan])))

    def test_equality_and_hash_by_identity(self):
        a = spectral_decompose(np.diag([1.0, 2.0]))
        b = spectral_decompose(np.diag([1.0, 2.0]))
        assert not a == b and a != b  # equal arrays, distinct records: no ambiguity error
        assert a == a
        assert hash(a) == hash(a)
        assert {a: 1, b: 2}[a] == 1

    @pytest.mark.parametrize("layout", ["reversed", "fortran", "real", "complex"])
    def test_basis_is_a_c_ordered_read_only_copy(self, layout):
        """Whatever the layout or dtype of its argument, a form keeps its own C-ordered copy."""
        vecs = np.linalg.eigh(rand_hermitian(4, np.random.default_rng(4)))[1]
        given = {
            "reversed": vecs[:, ::-1],
            "fortran": np.asfortranarray(vecs),
            "real": np.eye(4)[::-1],
            "complex": np.ascontiguousarray(vecs),
        }[layout]
        sf = SpectralForm(np.arange(4.0), np.ones(4, int), given)
        assert sf.basis.flags.c_contiguous and not sf.basis.flags.writeable
        assert sf.basis.dtype == np.complex128 and not np.shares_memory(sf.basis, given)
        np.testing.assert_array_equal(sf.basis, given)

    def test_projectors_read_only(self):
        sf = spectral_decompose(np.diag([1.0, -1.0]))
        with pytest.raises(ValueError):
            sf.projectors[0][0, 0] = 2.0
