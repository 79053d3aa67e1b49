from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest
from support import lifted_pointer, rotated_instrument, z_model

from unimeas import branches
from unimeas.branches import (
    BranchDecomposition,
    check_prc,
    decompose_final,
    decompose_initial,
    evolve_branch,
    verify,
)
from unimeas.linalg import basis_ket, ket, uniform_ket
from unimeas.measurement import premeasure
from unimeas.rand import rand_ket, rand_model, rand_observable, with_redundant_pointer
from unimeas.spectral import spectral_decompose


class TestDecomposeInitial:
    def test_two_branch_amplitudes(self):
        phi = ket([np.sqrt(1.0 / 3.0), np.sqrt(2.0 / 3.0)])
        dec = decompose_initial(phi, spectral_decompose(np.diag([1.0, -1.0])))
        np.testing.assert_array_equal(dec.outcomes, [0, 1])
        np.testing.assert_allclose(
            dec.amplitudes, [np.sqrt(1.0 / 3.0), np.sqrt(2.0 / 3.0)], atol=1e-12
        )
        np.testing.assert_allclose(dec.branch_states[0], basis_ket(2, 0), atol=1e-12)
        np.testing.assert_allclose(dec.branch_states[1], basis_ket(2, 1), atol=1e-12)

    def test_eigenstate_drops_other_branch(self):
        dec = decompose_initial(basis_ket(2, 0), spectral_decompose(np.diag([1.0, -1.0])))
        np.testing.assert_array_equal(dec.outcomes, [0])
        np.testing.assert_array_equal(dec.dropped, [1])
        assert dec.amplitudes[0] == pytest.approx(1.0, abs=1e-12)

    def test_reconstructs_input(self, rng):
        for _ in range(100):
            obs = rand_observable(4, rng)
            phi = rand_ket(4, rng)
            dec = decompose_initial(phi, obs)
            assert np.linalg.norm(dec.reconstruct() - phi) <= 1e-12

    def test_zero_state_reconstructs_to_zero_vector(self, rng):
        """Every branch is dropped, and the empty sum is still a vector of length dim_a."""
        observable = rand_observable(3, rng)
        dec = decompose_initial(np.zeros(3), observable)
        assert dec.outcomes.size == 0
        assert dec.reconstruct().tobytes() == np.zeros(3, dtype=complex).tobytes()

    def test_amplitude_equals_sqrt_weight(self, rng):
        """||E_k phi|| and <phi|E_k|phi>**(1/2) are the same number."""
        for _ in range(100):
            obs = rand_observable(3, rng)
            phi = rand_ket(3, rng)
            dec = decompose_initial(phi, obs)
            for k, a in zip(dec.outcomes, dec.amplitudes):
                w = np.vdot(phi, obs.projectors[k] @ phi).real
                assert abs(a - np.sqrt(w)) <= 1e-12

    @pytest.mark.parametrize("eps", [1e-9, 0.5])
    def test_is_the_record_of_the_pieces(self, rng, eps):
        """decompose_initial is the record made from the observable's pieces of phi, field by field."""
        sf = rand_model(4, rng, multiplicities=[2, 1, 1]).observable
        for phi in (rand_ket(4, rng), basis_ket(4, 3), np.zeros(4)):
            dec, record = decompose_initial(phi, sf, eps), BranchDecomposition(sf.pieces(phi), eps)
            assert dec.eps == record.eps == eps
            for name in ("outcomes", "amplitudes", "branch_states", "dropped"):
                a, b = getattr(dec, name), getattr(record, name)
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError, match="expected"):
            decompose_initial(rand_ket(3, rng), spectral_decompose(np.diag([1.0, -1.0])))

    @pytest.mark.filterwarnings("error")
    def test_huge_state(self):
        """A linear map takes any finite vector: amplitudes whose squares overflow stay finite."""
        phi = np.array([1e200, 1e200])
        dec = decompose_initial(phi, spectral_decompose(np.diag([1.0, -1.0])))
        np.testing.assert_array_equal(dec.amplitudes, [1e200, 1e200])
        np.testing.assert_array_equal(dec.reconstruct(), phi)


class TestCheckPrc:
    def test_uniform_superposition_balanced(self):
        model = z_model()
        phi = uniform_ket(2)
        report = check_prc(model, phi)
        assert report.passed
        final = premeasure(model, phi)
        for k in range(2):
            pointer_side = np.vdot(final, lifted_pointer(model, k) @ final).real
            object_side = np.vdot(phi, model.observable.projectors[k] @ phi).real
            assert pointer_side == pytest.approx(0.5, abs=1e-12)
            assert object_side == pytest.approx(0.5, abs=1e-12)

    def test_eigenstate_sides(self):
        model = z_model()
        phi = basis_ket(2, 0)
        final = premeasure(model, phi)
        sides = [np.vdot(final, lifted_pointer(model, k) @ final).real for k in range(2)]
        np.testing.assert_allclose(sides, [1.0, 0.0], atol=1e-12)
        assert check_prc(model, phi).passed

    def test_hundred_random_pairs(self, rng):
        worst = 0.0
        for _ in range(100):
            dim = int(rng.integers(2, 6))
            model = rand_model(dim, rng)
            report = check_prc(model, rand_ket(dim, rng))
            assert report.passed
            worst = max(worst, report.max_residual)
        assert worst <= 1e-10


class TestDecomposeFinal:
    def test_superposition_branches(self):
        dec = decompose_final(z_model(), uniform_ket(2))
        np.testing.assert_array_equal(dec.outcomes, [0, 1])
        np.testing.assert_allclose(dec.amplitudes, np.full(2, 1.0 / np.sqrt(2.0)), atol=1e-12)
        np.testing.assert_allclose(dec.branch_states[0], basis_ket(4, 0), atol=1e-12)
        np.testing.assert_allclose(dec.branch_states[1], basis_ket(4, 3), atol=1e-12)

    def test_eigenstate_single_branch(self):
        model = z_model()
        dec = decompose_final(model, basis_ket(2, 0))
        assert dec.outcomes.size == 1
        np.testing.assert_allclose(
            dec.amplitudes[0] * dec.branch_states[0],
            premeasure(model, basis_ket(2, 0)),
            atol=1e-12,
        )

    def test_reconstructs_final_state(self, rng):
        for _ in range(100):
            dim = int(rng.integers(2, 6))
            model = rand_model(dim, rng)
            phi = rand_ket(dim, rng)
            dec = decompose_final(model, phi)
            final = premeasure(model, phi)
            assert np.linalg.norm(dec.reconstruct() - final) <= 1e-12

    def test_zero_state_reconstructs_to_zero_vector(self, rng):
        """Every branch is dropped, and the empty sum is premeasure's zero joint vector."""
        model = rand_model(3, rng)
        dec = decompose_final(model, np.zeros(3))
        assert dec.outcomes.size == 0
        assert dec.reconstruct().tobytes() == premeasure(model, np.zeros(3)).tobytes()

    def test_nan_isometry_keeps_nan_branches(self, rng):
        """A nan in W gives nan amplitudes, which the record keeps: its reconstruction is nan."""
        model = rand_model(3, rng)
        w = np.array(model.isometry)
        w[0, 0] = np.nan
        phi = rand_ket(3, rng)
        dec = decompose_final(dataclasses.replace(model, isometry=w), phi)
        assert np.isnan(dec.amplitudes).any() and np.isnan(dec.reconstruct()).any()

    def test_amplitudes_match_initial_decomposition(self, rng):
        dim = 4
        model = rand_model(dim, rng, multiplicities=[2, 1, 1])
        phi = rand_ket(dim, rng)
        final_dec = decompose_final(model, phi)
        initial_dec = decompose_initial(phi, model.observable)
        np.testing.assert_array_equal(final_dec.outcomes, initial_dec.outcomes)
        np.testing.assert_allclose(final_dec.amplitudes, initial_dec.amplitudes, atol=1e-10)

    def test_amplitudes_match_sqrt_object_weight(self, rng):
        for _ in range(20):
            model = rand_model(3, rng)
            phi = rand_ket(3, rng)
            dec = decompose_final(model, phi)
            for k, a in zip(dec.outcomes, dec.amplitudes):
                w = np.vdot(phi, model.observable.projectors[k] @ phi).real
                assert abs(a - np.sqrt(w)) <= 1e-10


    @pytest.mark.parametrize("dim_a", [2, 3, 4, 8])
    def test_complex_pointer_branches_are_lifted_pointer_products(self, dim_a):
        """In a random complex instrument basis, amplitude k times branch k is (I (x) F_k) Phi_f."""
        rng = np.random.default_rng(dim_a)
        bases = (
            rand_model(dim_a, rng),
            rand_model(dim_a, rng, [1, dim_a - 1]),
            with_redundant_pointer(rand_model(dim_a, rng), 3, rng),
        )
        for model in (rotated_instrument(base, rng) for base in bases):
            phi = rand_ket(dim_a, rng)
            final = premeasure(model, phi)
            dec = decompose_final(model, phi)
            assert dec.outcomes.tolist() == list(range(model.outcomes))
            lifted = np.array([lifted_pointer(model, k) @ final for k in range(model.outcomes)])
            np.testing.assert_allclose(
                dec.amplitudes[:, None] * dec.branch_states, lifted, rtol=0, atol=1e-14
            )

    def test_wide_pointer_peak_memory(self):
        """dim_a 16 and a 16-outcome pointer of dim_b 256: the split holds (dim, outcomes)
        arrays, never one of size dim * dim_b (17 MB here, as a reduceat over basis columns)."""
        rng = np.random.default_rng(16)
        model = with_redundant_pointer(rand_model(16, rng), 16, rng)
        assert (model.dim_b, model.outcomes) == (256, 16)
        phi = rand_ket(16, rng)
        decompose_final(model, phi)
        tracemalloc.start()
        try:
            decompose_final(model, phi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6e6

    @pytest.mark.filterwarnings("error")
    def test_huge_state(self):
        phi = np.array([3e160, 4e160])
        dec = decompose_final(z_model(), phi)
        np.testing.assert_array_equal(dec.amplitudes, [3e160, 4e160])
        np.testing.assert_array_equal(dec.reconstruct(), premeasure(z_model(), phi))


class TestVerify:
    CHECKS = ("check_calibration", "check_dynamical", "check_prc")

    @pytest.fixture
    def calls(self, monkeypatch):
        """The names of the checks verify has run, in order."""
        calls = []
        for name in self.CHECKS:
            check = getattr(branches, name)
            monkeypatch.setattr(branches, name, lambda *a, c=check: calls.append(c.__name__) or c(*a))
        return calls

    def test_each_check_runs_when_its_pair_is_reached(self, calls, rng):
        rows = verify(rand_model(3, rng), rand_ket(3, rng))
        assert calls == []
        for n, (_, report) in enumerate(rows, 1):
            assert calls == list(self.CHECKS[:n]) and report.passed

    def test_bad_state_raises_before_any_check_runs(self, calls, rng):
        rows = verify(rand_model(3, rng), np.full(3, np.nan))
        with pytest.raises(ValueError, match="non-finite"):
            next(rows)
        assert calls == []


class TestEvolveBranch:
    def test_superposition_branch_zero(self):
        out = evolve_branch(z_model(), uniform_ket(2), 0)
        np.testing.assert_allclose(out, basis_ket(4, 0) / np.sqrt(2.0), atol=1e-12)

    def test_annihilated_branch_is_zero_vector(self):
        out = evolve_branch(z_model(), basis_ket(2, 0), 1)
        np.testing.assert_allclose(out, np.zeros(4), atol=1e-15)

    def test_branch_independence(self, rng):
        """Evolving one initial branch lands on the matching pointer branch."""
        for _ in range(100):
            dim = int(rng.integers(2, 6))
            model = rand_model(dim, rng)
            phi = rand_ket(dim, rng)
            final = premeasure(model, phi)
            for k in range(model.outcomes):
                solo = evolve_branch(model, phi, k)
                together = lifted_pointer(model, k) @ final
                assert np.linalg.norm(solo - together) <= 1e-10

    def test_branches_sum_to_final_state(self, rng):
        model = rand_model(4, rng)
        phi = rand_ket(4, rng)
        total = sum(evolve_branch(model, phi, k) for k in range(model.outcomes))
        assert np.linalg.norm(total - premeasure(model, phi)) <= 1e-12

    def test_outcome_out_of_range(self, rng):
        with pytest.raises(ValueError, match="out of range"):
            evolve_branch(z_model(), rand_ket(2, rng), 2)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError, match="expected"):
            evolve_branch(z_model(), rand_ket(3, rng), 0)
