from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest
from support import lifted_pointer, z_model

from unimeas.collapse import (
    GENERATOR,
    OutcomeDistribution,
    SampleReport,
    butcher,
    final_density,
    sample,
    weights,
)
from unimeas.branches import decompose_final
from unimeas.linalg import basis_ket, density_eigh, ket, uniform_ket
from unimeas.measurement import build_canonical_model
from unimeas.rand import perturb_model, rand_ket, rand_model, swap_pointer, with_redundant_pointer
from unimeas.spectral import spectral_decompose


class TestFinalDensity:
    def test_unit_trace(self, rng):
        model = rand_model(3, rng)
        rho = final_density(model, rand_ket(3, rng))
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)

    def test_eigenstate_equals_butcher(self):
        model = z_model()
        phi = basis_ket(2, 0)
        np.testing.assert_allclose(
            final_density(model, phi), butcher(model, phi), atol=1e-12
        )

    def test_off_diagonal_block_norm(self):
        """The coherent state keeps a cross term of norm 1/2 between sectors."""
        model = z_model()
        rho = final_density(model, uniform_ket(2))
        block = lifted_pointer(model, 0) @ rho @ lifted_pointer(model, 1)
        assert np.linalg.norm(block) == pytest.approx(0.5, abs=1e-12)

    def test_single_unit_eigenvalue(self, rng):
        model = rand_model(3, rng)
        rho = final_density(model, rand_ket(3, rng))
        vals = np.linalg.eigvalsh(rho)
        assert np.sum(vals > 0.5) == 1
        assert np.max(vals) == pytest.approx(1.0, abs=1e-10)


class TestButcher:
    def test_uniform_superposition_mixture(self):
        rho = butcher(z_model(), uniform_ket(2))
        expected = 0.5 * np.outer(basis_ket(4, 0), basis_ket(4, 0)) + 0.5 * np.outer(
            basis_ket(4, 3), basis_ket(4, 3)
        )
        np.testing.assert_allclose(rho, expected, atol=1e-12)

    def test_matches_pinching(self, rng):
        """Deleting cross terms equals conjugating by each pointer projector, on every model."""
        cases = []
        for _ in range(100):
            dim = int(rng.integers(2, 6))
            cases.append((rand_model(dim, rng), rand_ket(dim, rng)))
        # a degenerate observable, a rank-2 F_k from a redundant pointer, joint 256
        cases.append((rand_model(5, rng, multiplicities=[2, 1, 2]), rand_ket(5, rng)))
        cases.append((with_redundant_pointer(rand_model(3, rng), 2, rng), rand_ket(3, rng)))
        cases.append((rand_model(16, rng), rand_ket(16, rng)))
        # zero weight on the middle outcome, so its branch is dropped
        model = rand_model(3, rng)
        e = model.observable.projectors
        zero_weight = ket((e[0] + e[2]) @ rand_ket(3, rng))
        assert decompose_final(model, zero_weight).dropped.tolist() == [1]
        cases.append((model, zero_weight))
        # negatives: a swapped pointer, a perturbed isometry, and the identity interaction
        # W = I (x) phi_B, which leaves the pointer in its ready state and drops branch 1
        for dim in (2, 3, 5):
            base = rand_model(dim, rng)
            identity = np.kron(np.eye(dim), base.instrument_state[:, None])
            for model in (swap_pointer(base), perturb_model(base, rng),
                          dataclasses.replace(base, isometry=identity)):
                cases.append((model, rand_ket(dim, rng)))
        for model, phi in cases:
            rho = final_density(model, phi)
            pinched = sum(
                lifted_pointer(model, k) @ rho @ lifted_pointer(model, k)
                for k in range(model.outcomes)
            )
            assert np.max(np.abs(butcher(model, phi) - pinched)) <= 1e-12

    def test_keeps_branch_below_tolerance(self):
        """A pointer piece of norm 1e-10, below eps, still puts its weight 1e-20 on its block."""
        model = build_canonical_model(spectral_decompose(np.diag([0.0, 1.0, 2.0])))
        phi = np.array([np.sqrt(1.0 - 1e-20), 1e-10, 0.0])
        k = int(np.flatnonzero(model.observable.eigenvalues == 1.0)[0])
        assert k in decompose_final(model, phi).dropped
        block = np.trace(lifted_pointer(model, k) @ butcher(model, phi)).real
        assert block == pytest.approx(1e-20, rel=1e-12, abs=0)

    def test_off_diagonal_blocks_vanish(self, rng):
        model = rand_model(4, rng)
        rho = butcher(model, rand_ket(4, rng))
        for j in range(model.outcomes):
            for k in range(model.outcomes):
                if j == k:
                    continue
                block = lifted_pointer(model, j) @ rho @ lifted_pointer(model, k)
                assert np.max(np.abs(block)) <= 1e-12

    def test_trace_equals_weight_sum(self, rng):
        model = rand_model(5, rng)
        phi = rand_ket(5, rng)
        w = weights(phi, model.observable).weights
        assert np.sum(w) == pytest.approx(1.0, abs=1e-10)
        assert np.trace(butcher(model, phi)).real == pytest.approx(1.0, abs=1e-10)

    def test_is_valid_density(self, rng):
        model = rand_model(3, rng)
        density_eigh(butcher(model, rand_ket(3, rng)), 1e-9)


class TestWeights:
    def test_uniform_superposition(self):
        dist = weights(uniform_ket(2), spectral_decompose(np.diag([1.0, -1.0])))
        np.testing.assert_allclose(dist.weights, [0.5, 0.5], atol=1e-12)

    def test_eigenstate(self):
        dist = weights(basis_ket(2, 0), spectral_decompose(np.diag([1.0, -1.0])))
        np.testing.assert_allclose(dist.weights, [1.0, 0.0], atol=1e-12)

    def test_unbalanced(self):
        dist = weights(ket([np.sqrt(0.3), np.sqrt(0.7)]), spectral_decompose(np.diag([1.0, -1.0])))
        np.testing.assert_allclose(dist.weights, [0.3, 0.7], atol=1e-12)

    def test_equals_final_amplitudes_squared(self, rng):
        model = rand_model(4, rng)
        phi = rand_ket(4, rng)
        dist = weights(phi, model.observable)
        dec = decompose_final(model, phi)
        for k, a in zip(dec.outcomes, dec.amplitudes):
            assert abs(dist.weights[k] - a**2) <= 1e-10

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError, match="expected"):
            weights(rand_ket(3, rng), spectral_decompose(np.diag([1.0, -1.0])))

    def test_unnormalized_state_rejected(self):
        with pytest.raises(ValueError, match="norm"):
            weights(np.array([3.0, 4.0]), spectral_decompose(np.diag([1.0, -1.0])))


class TestSample:
    def test_certain_event(self):
        report = sample(OutcomeDistribution(np.array([1.0, 0.0])), 1000, 7)
        np.testing.assert_array_equal(report.counts, [1000, 0])
        assert report.total == 1000

    @pytest.mark.parametrize("seed", [0, 1, 42, 12345])
    def test_binomial_bound(self, seed):
        dist = OutcomeDistribution(np.array([0.5, 0.5]))
        report = sample(dist, 100000, seed)
        for count in report.counts:
            assert abs(int(count) - 50000) <= 632

    def test_seed_determinism(self):
        dist = OutcomeDistribution(np.array([0.2, 0.5, 0.3]))
        a = sample(dist, 5000, 99)
        b = sample(dist, 5000, 99)
        np.testing.assert_array_equal(a.counts, b.counts)
        assert a.seed == b.seed == 99
        assert a.generator == GENERATOR == "pcg64"

    def test_different_seeds_differ(self):
        dist = OutcomeDistribution(np.array([0.5, 0.5]))
        a = sample(dist, 100000, 0)
        b = sample(dist, 100000, 1)
        assert not np.array_equal(a.counts, b.counts)

    def test_counts_sum_to_n(self):
        dist = OutcomeDistribution(np.array([0.1, 0.2, 0.3, 0.4]))
        report = sample(dist, 12345, 3)
        assert int(np.sum(report.counts)) == 12345

    def test_zero_n_rejected(self):
        dist = OutcomeDistribution(np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="positive"):
            sample(dist, 0, 0)

    def test_negative_n_rejected(self):
        dist = OutcomeDistribution(np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="positive"):
            sample(dist, -5, 0)

    def test_draws_every_positive_weight(self):
        """A weight of 9e-10 lies below the tolerance and is still drawn: about 900 of 10**12."""
        report = sample(OutcomeDistribution([1.0 - 9e-10, 9e-10]), 10**12, 0)
        assert report.total == 10**12 and abs(int(report.counts[1]) - 900) <= 6 * 30

    def test_huge_n_needs_no_per_draw_memory(self):
        dist = OutcomeDistribution(np.array([0.2, 0.5, 0.3]))
        report = sample(dist, 10**12, 0)
        assert int(np.sum(report.counts)) == report.total == 10**12

    def test_n_beyond_int64_rejected(self):
        dist = OutcomeDistribution(np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="positive int64"):
            sample(dist, 2**63, 0)

    @pytest.mark.parametrize("n", [10.5, True, "10", None])
    def test_non_integer_n_rejected(self, n):
        dist = OutcomeDistribution(np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="positive int64"):
            sample(dist, n, 0)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**70, 1.5, True, "0", None])
    def test_seed_outside_uint64_rejected(self, seed):
        dist = OutcomeDistribution(np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="uint64"):
            sample(dist, 10, seed)

    def test_weights_whose_sum_overflows(self):
        """Renormalized without overflow, to the counts of equal weights."""
        huge = sample(OutcomeDistribution([1e308, 1e308]), 100000, 0)
        np.testing.assert_array_equal(huge.counts, sample(OutcomeDistribution([0.5, 0.5]), 100000, 0).counts)

    def test_numpy_integers_accepted(self):
        dist = OutcomeDistribution(np.array([0.5, 0.5]))
        report = sample(dist, np.int64(10), np.uint64(2**64 - 1))
        assert report.total == 10 and report.seed == 2**64 - 1
        assert sample(dist, 10, 2**64 - 1).counts.tolist() == report.counts.tolist()


class TestSampleReport:
    def test_total_sums_without_int64_wrap(self):
        assert SampleReport([2**62] * 4, 0).total == 2**64

    def test_seed_stored_as_int(self):
        report = SampleReport([1, 2], np.uint64(5))
        assert type(report.seed) is int and json.dumps(report.seed) == "5"
        assert report.generator == GENERATOR


class TestOutcomeDistribution:
    def test_outcomes_are_positions(self):
        dist = OutcomeDistribution([0.2, 0.0, 0.8])
        assert dist.outcomes.dtype == np.int64 and dist.outcomes.tolist() == [0, 1, 2]
        with pytest.raises(AttributeError):
            dist.outcomes = np.array([2, 1, 0])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            OutcomeDistribution(np.array([-0.1, 1.1]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weight_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            OutcomeDistribution(np.array([bad, 1.0]))
