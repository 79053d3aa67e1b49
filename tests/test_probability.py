from __future__ import annotations

import numpy as np
import pytest

from unimeas import spectral
from unimeas.linalg import basis_ket
from unimeas.probability import forms_triple
from unimeas.rand import rand_ket, rand_projector, rand_unitary
from unimeas.spectral import range_basis


def _overlap_sum(psi, vecs) -> float:
    """The Born sum over an orthonormal basis the caller gives, written as forms_triple's."""
    return float(sum(abs(np.vdot(psi, v)) ** 2 for v in vecs))


class TestExpectationForm:
    def test_eigenstate(self):
        assert forms_triple(basis_ket(2, 0), np.diag([1.0, 0.0])).expectation_form == pytest.approx(1.0)

    def test_orthogonal_state(self):
        assert forms_triple(basis_ket(2, 0), np.diag([0.0, 1.0])).expectation_form == pytest.approx(0.0)

    def test_matches_range_basis_sum(self, rng):
        psi = rand_ket(4, rng)
        proj = rand_projector(4, 2, rng)
        expectation = forms_triple(psi, proj).expectation_form
        assert abs(expectation - _overlap_sum(psi, range_basis(proj))) <= 1e-12

    def test_additivity_over_orthogonal_events(self, rng):
        u = rand_unitary(5, rng)
        p = u[:, :2] @ u[:, :2].conj().T
        q = u[:, 2:3] @ u[:, 2:3].conj().T
        psi = rand_ket(5, rng)
        lhs = forms_triple(psi, p + q).expectation_form
        rhs = forms_triple(psi, p).expectation_form + forms_triple(psi, q).expectation_form
        assert abs(lhs - rhs) <= 1e-12

    def test_rejects_non_projector(self, rng):
        with pytest.raises(ValueError, match="idempotent"):
            forms_triple(rand_ket(2, rng), np.diag([2.0, 0.0]))


class TestBornForm:
    def test_unit_overlap(self, rng):
        psi = rand_ket(3, rng)
        assert forms_triple(psi, np.outer(psi, psi.conj())).born_form == pytest.approx(1.0, abs=1e-12)

    def test_full_basis_gives_one(self, rng):
        assert forms_triple(rand_ket(4, rng), np.eye(4)).born_form == pytest.approx(1.0, abs=1e-12)

    def test_matches_expectation_of_constructed_projector(self, rng):
        u = rand_unitary(4, rng)
        vecs = [u[:, 0], u[:, 1]]
        proj = sum(np.outer(v, v.conj()) for v in vecs)
        psi = rand_ket(4, rng)
        triple = forms_triple(psi, proj)
        assert abs(_overlap_sum(psi, vecs) - triple.expectation_form) <= 1e-12
        assert abs(triple.born_form - triple.expectation_form) <= 1e-12

    def test_any_orthonormal_range_basis_gives_the_same_sum(self, rng):
        """range_basis is one basis of the range; a unitary rotation of it is another."""
        for rank in (1, 2, 3):
            psi, proj = rand_ket(5, rng), rand_projector(5, rank, rng)
            rotated = np.column_stack(range_basis(proj)) @ rand_unitary(rank, rng)
            assert abs(_overlap_sum(psi, rotated.T) - forms_triple(psi, proj).born_form) <= 1e-12


class TestTraceForm:
    def test_identity_projector(self):
        assert forms_triple(basis_ket(2, 0), np.eye(2)).trace_form == pytest.approx(1.0)

    def test_zero_projector(self):
        assert forms_triple(basis_ket(2, 0), np.zeros((2, 2))).trace_form == pytest.approx(0.0)

    def test_matches_expectation(self, rng):
        for _ in range(50):
            psi = rand_ket(5, rng)
            triple = forms_triple(psi, rand_projector(5, int(rng.integers(1, 4)), rng))
            assert abs(triple.trace_form - triple.expectation_form) <= 1e-12


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
        """The Born form sums over range_basis's basis of the projector forms_triple validated;
        it does not validate it again through range_basis."""
        psi, proj = rand_ket(4, rng), rand_projector(4, 2, rng)
        born = _overlap_sum(psi, range_basis(proj))

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
