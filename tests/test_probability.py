from __future__ import annotations

import numpy as np
import pytest

from unimeas import spectral
from unimeas.linalg import basis_ket
from unimeas.probability import born_form, expectation_form, forms_triple, trace_form
from unimeas.rand import rand_ket, rand_projector, rand_unitary
from unimeas.spectral import range_basis


class TestExpectationForm:
    def test_eigenstate(self):
        assert expectation_form(basis_ket(2, 0), np.diag([1.0, 0.0])) == pytest.approx(1.0)

    def test_orthogonal_state(self):
        assert expectation_form(basis_ket(2, 0), np.diag([0.0, 1.0])) == pytest.approx(0.0)

    def test_matches_range_basis_sum(self, rng):
        psi = rand_ket(4, rng)
        proj = rand_projector(4, 2, rng)
        basis = range_basis(proj)
        overlap_sum = sum(abs(np.vdot(psi, v)) ** 2 for v in basis)
        assert abs(expectation_form(psi, proj) - overlap_sum) <= 1e-12

    def test_additivity_over_orthogonal_events(self, rng):
        u = rand_unitary(5, rng)
        p = u[:, :2] @ u[:, :2].conj().T
        q = u[:, 2:3] @ u[:, 2:3].conj().T
        psi = rand_ket(5, rng)
        lhs = expectation_form(psi, p + q)
        rhs = expectation_form(psi, p) + expectation_form(psi, q)
        assert abs(lhs - rhs) <= 1e-12

    def test_rejects_non_projector(self, rng):
        with pytest.raises(ValueError, match="idempotent"):
            expectation_form(rand_ket(2, rng), np.diag([2.0, 0.0]))


class TestBornForm:
    def test_unit_overlap(self, rng):
        psi = rand_ket(3, rng)
        assert born_form(psi, [psi]) == pytest.approx(1.0, abs=1e-12)

    def test_full_basis_gives_one(self, rng):
        psi = rand_ket(4, rng)
        basis = [basis_ket(4, k) for k in range(4)]
        assert born_form(psi, basis) == pytest.approx(1.0, abs=1e-12)

    def test_matches_expectation_of_constructed_projector(self, rng):
        u = rand_unitary(4, rng)
        vecs = [u[:, 0], u[:, 1]]
        proj = sum(np.outer(v, v.conj()) for v in vecs)
        psi = rand_ket(4, rng)
        assert abs(born_form(psi, vecs) - expectation_form(psi, proj)) <= 1e-12

    def test_non_orthonormal_rejected(self, rng):
        with pytest.raises(ValueError, match="not orthonormal"):
            born_form(rand_ket(2, rng), [basis_ket(2, 0), basis_ket(2, 0)])

    def test_empty_basis_rejected(self, rng):
        with pytest.raises(ValueError, match="at least one"):
            born_form(rand_ket(2, rng), [])


class TestTraceForm:
    def test_identity_projector(self):
        assert trace_form(basis_ket(2, 0), np.eye(2)) == pytest.approx(1.0)

    def test_zero_projector(self):
        assert trace_form(basis_ket(2, 0), np.zeros((2, 2))) == pytest.approx(0.0)

    def test_matches_expectation(self, rng):
        for _ in range(50):
            psi = rand_ket(5, rng)
            proj = rand_projector(5, int(rng.integers(1, 4)), rng)
            assert abs(trace_form(psi, proj) - expectation_form(psi, proj)) <= 1e-12


class TestFormsTriple:
    def test_pairwise_agreement(self, rng):
        """The three expressions agree on random states and projectors."""
        for _ in range(200):
            dim = int(rng.integers(2, 7))
            rank = int(rng.integers(1, min(3, dim) + 1))
            psi = rand_ket(dim, rng)
            proj = rand_projector(dim, rank, rng)
            triple = forms_triple(psi, proj)
            assert triple.max_pairwise_diff <= 1e-12

    def test_projector_validated_once(self, rng, monkeypatch):
        """forms_triple takes the range basis of the projector expectation_form validated; it does
        not validate it again through range_basis."""
        psi, proj = rand_ket(4, rng), rand_projector(4, 2, rng)
        born = born_form(psi, range_basis(proj))

        def refuse(*args):
            raise AssertionError("projector validated a second time")

        monkeypatch.setattr(spectral, "validate_hermitian", refuse)
        assert forms_triple(psi, proj).born_form == born

    def test_zero_projector_triple(self, rng):
        triple = forms_triple(rand_ket(3, rng), np.zeros((3, 3)))
        assert triple.expectation_form == pytest.approx(0.0, abs=1e-15)
        assert triple.born_form == 0.0
        assert triple.trace_form == pytest.approx(0.0, abs=1e-15)

    def test_identity_projector_triple(self, rng):
        triple = forms_triple(rand_ket(4, rng), np.eye(4))
        assert triple.expectation_form == pytest.approx(1.0, abs=1e-12)
        assert triple.born_form == pytest.approx(1.0, abs=1e-12)
        assert triple.trace_form == pytest.approx(1.0, abs=1e-12)
