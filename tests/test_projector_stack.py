"""Dense projector stacks: the checks from_projectors makes on them, and parity.

from_projectors and the basis-block calibration check are compared with
the per-projector loops kept in support as references: equal verdicts, equal
witness and error strings, and residuals within 1e-14, a bound set by complex128
rounding of the same products taken in a different grouping.
"""

from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest
from support import (
    LOOP_RESIDUAL_TOL,
    VARIANTS,
    _outcome,
    assert_model_matches,
    loop_calibration,
    loop_validate_projectors,
    rotated_instrument,
    zoo_model,
)

from unimeas.branches import verify
from unimeas.linalg import uniform_ket
from unimeas.measurement import check_calibration, check_dynamical
from unimeas.rand import perturb_model, rand_hermitian, rand_model, with_redundant_pointer
from unimeas.spectral import from_projectors, refine, spectral_decompose

DIMS = (2, 3, 4, 5, 6, 7, 8, 16, 32)
ZOO = [(v, d, seed) for v in VARIANTS for d in DIMS for seed in range(2)]


def _zoo(variant, dim, seed):
    return zoo_model(variant, dim, np.random.default_rng([VARIANTS.index(variant), dim, seed]))


def _corruptions(mats: list[np.ndarray], rng: np.random.Generator):
    """The stack as is, and copies with one defect each at a random projector."""
    n, d = len(mats), mats[0].shape[0]
    k = int(rng.integers(n))
    yield mats
    for name in ("idempotent", "hermitian", "scale", "nan", "duplicate"):
        bad = [np.array(p) for p in mats]
        if name == "idempotent":
            bad[k] = bad[k] + 1e-6 * rand_hermitian(d, rng)
        elif name == "hermitian":
            bad[k] = bad[k] + 1e-6 * rng.normal(size=(d, d))
        elif name == "scale":  # a defect near eps, where rounding decides
            bad[k] = bad[k] + 1e-9 * rand_hermitian(d, rng)
        elif name == "nan":
            bad[k][0, d - 1] = np.nan
        elif n > 1:
            bad[k] = bad[(k + 1) % n]
        yield bad


class TestLoopParity:
    @pytest.mark.parametrize("variant,dim,seed", ZOO)
    def test_validate_projectors(self, variant, dim, seed):
        model = _zoo(variant, dim, seed)
        rng = np.random.default_rng([dim, seed])
        for sf in (model.observable, model.pointer):
            for mats in _corruptions(list(sf.projectors), rng):
                batched = _outcome(lambda: from_projectors(sf.eigenvalues, mats, dim=sf.dim))
                assert batched == _outcome(lambda: loop_validate_projectors(mats, sf.dim))

    @pytest.mark.parametrize("variant,dim,seed", ZOO)
    def test_calibration(self, variant, dim, seed):
        model = _zoo(variant, dim, seed)
        assert check_calibration(model).passed == (variant in ("plain", "degenerate", "redundant"))
        w = np.array(model.isometry)
        w[dim // 2, 0] = np.nan
        rotated = rotated_instrument(model, np.random.default_rng([dim, seed]))
        for m in (model, dataclasses.replace(model, isometry=w), rotated):
            report = check_calibration(m)
            residuals, witness = loop_calibration(m)
            assert report.witness == witness
            assert report.passed == (witness is None)
            np.testing.assert_allclose(report.per_outcome_residuals, residuals, rtol=0, atol=LOOP_RESIDUAL_TOL)
            assert report.max_residual == pytest.approx(np.max(residuals), rel=0, abs=LOOP_RESIDUAL_TOL, nan_ok=True)

    @pytest.mark.parametrize("mutate", ["nan", "hermitian"])
    def test_calibration_errors(self, mutate):
        """Object projectors that check_calibration refused when forms held dense stacks
        cannot reach it: from_projectors names the first defect, as the loop does."""
        model = _zoo("plain", 4, 0)
        e = np.array(model.observable.projectors)
        e[2, 0, 1] = np.nan if mutate == "nan" else 1e-3
        e[3, 1, 0] = np.nan  # a later defect is not the one reported
        with pytest.raises(ValueError) as batched:
            from_projectors(model.observable.eigenvalues, e)
        with pytest.raises(ValueError) as loop:
            loop_validate_projectors(e, 4)
        assert str(batched.value) == str(loop.value)


NAN_ENTRIES = pytest.mark.parametrize(
    "variant,coindexed",
    [(v, c) for v in ("plain", "degenerate", "redundant") for c in (True, False)]
    + [("one-outcome", True)],
)


class TestNonFiniteIsometry:
    """A nan in W, in a row of the coindexed pointer outcome or of another one: the checks mask
    rows by multiplying, so no row holding the nan is dropped and both report it as the dense
    references do. A one-outcome pointer has no other outcome: every row is coindexed."""

    @staticmethod
    def broken(variant, coindexed):
        rng = np.random.default_rng(7)
        model = rand_model(3, rng, [3]) if variant == "one-outcome" else zoo_model(variant, 4, rng)
        # the first range-basis vector is outcome 0's, so pointer outcome 0 is its coindexed one
        j = int(np.flatnonzero((model.pointer.labels == 0) == coindexed)[0])
        w = np.array(model.isometry)
        w[(model.dim_a - 1) * model.dim_b + j, model.dim_a - 1] = np.nan
        return dataclasses.replace(model, isometry=w)

    @NAN_ENTRIES
    def test_nan_entry(self, variant, coindexed):
        broken = self.broken(variant, coindexed)
        assert_model_matches(broken, uniform_ket(broken.dim_a))
        for report in (check_calibration(broken), check_dynamical(broken)):
            assert np.isnan(report.max_residual) and report.witness.endswith("residual nan")

    @NAN_ENTRIES
    def test_every_verify_row_fails(self, variant, coindexed):
        """prc and reconstruction read the nan through W phi on a state with no zero amplitude."""
        broken = self.broken(variant, coindexed)
        rows = list(verify(broken, uniform_ket(broken.dim_a)))
        assert [report.passed for _, report in rows] == [False] * 4
        # final-reconstruction has one residual and names no witness
        assert all(report.witness is not None for _, report in rows[:3])


class TestJoint1024Parity:
    @pytest.mark.parametrize("perturbed", [False, True])
    def test_rotated_redundant_pointer(self, perturbed):
        """dim_a 16 with a redundant pointer factor of 4 (dim_b 64), in a random instrument basis."""
        rng = np.random.default_rng(1024)
        model = rotated_instrument(with_redundant_pointer(rand_model(16, rng), 4, rng), rng)
        if perturbed:
            model = perturb_model(model, rng)
        assert model.dim == 1024
        assert check_calibration(model).passed != perturbed
        assert_model_matches(model, uniform_ket(model.dim_a))


class TestCalibrationMemory:
    def test_peak_is_a_few_isometries(self):
        """A degenerate observable and a large pointer: the pointer statistics come from W in the
        pointer basis, not from F_k gathered per range vector (dim_a * dim_b^2 entries, 32 MB)."""
        rng = np.random.default_rng(5)
        model = with_redundant_pointer(rand_model(32, rng, [16, 16]), 128, rng)
        assert model.dim_b == 256
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            check_calibration(model)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 4 * (model.isometry.nbytes + model.pointer.projectors.nbytes)


class TestFirstFailure:
    """A batched validator still reports the first failing item."""

    def test_not_idempotent_before_later_not_hermitian(self):
        p0 = np.diag([1.0, 0.5, 0.0])
        p1 = np.diag([0.0, 1.0, 0.0])
        p1[0, 2] = 1.0
        with pytest.raises(ValueError, match=r"^projector 0 is not idempotent$"):
            from_projectors(np.arange(3.0), [p0, p1, np.eye(3)])

    @pytest.mark.parametrize(
        "diagonals,pair",
        [
            ([[1, 0, 0], [0, 1, 0], [1, 1, 0]], "0 and 2"),  # (0, 2) and (1, 2) overlap
            ([[1, 1, 0], [1, 0, 0], [0, 1, 0]], "0 and 1"),  # (0, 1) and (0, 2) overlap
        ],
    )
    def test_first_non_orthogonal_pair(self, diagonals, pair):
        projectors = [np.diag(np.array(d, dtype=float)) for d in diagonals]
        with pytest.raises(ValueError, match=rf"^projectors {pair} are not orthogonal$"):
            from_projectors(np.arange(3.0), projectors)

    def test_first_equal_eigenvalue_pair(self):
        sf = from_projectors(np.array([1.0, 2.0, 1.0, 2.0]), np.eye(4)[:, None] * np.eye(4)[:, :, None])
        with pytest.raises(ValueError, match=r"^eigenvalues 0 and 2 are equal \(1\.0\)$"):
            sf.validate()

    def test_defect_before_later_wrong_shape(self):
        """Every sub-projector's shape is checked before any content."""
        with pytest.raises(ValueError, match=r"^sub-projector 1 has shape \(3, 3\), expected \(2, 2\)$"):
            refine(spectral_decompose(np.eye(2)), 0, [np.eye(2) * 0.5, np.eye(3)])


class TestStackConstruction:
    def test_projectors_are_one_read_only_stack(self):
        sf = spectral_decompose(np.diag([1.0, 2.0, 2.0]))
        assert isinstance(sf.projectors, np.ndarray)
        assert sf.projectors.shape == (2, 3, 3) and sf.projectors.dtype == np.complex128
        assert not sf.projectors.flags.writeable
        assert len(sf.projectors) == 2
        np.testing.assert_array_equal(list(sf.projectors)[1], sf.projectors[1])

    def test_tuple_and_stack_give_equal_forms(self):
        mats = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        a = from_projectors(np.array([1.0, -1.0]), mats)
        b = from_projectors(np.array([1.0, -1.0]), np.stack(mats))
        np.testing.assert_array_equal(a.projectors, b.projectors)

    def test_stack_is_a_copy(self):
        mats = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex)
        sf = from_projectors(np.array([1.0, -1.0]), mats)
        mats[0, 0, 0] = 5.0
        assert sf.projectors[0, 0, 0] == 1.0

    @pytest.mark.parametrize(
        "projectors,message",
        [
            ((np.array(1.0),), r"^projector 0 must be a non-empty square matrix, got shape \(\)$"),
            ((np.zeros((0, 0)),), r"^projector 0 must be a non-empty square matrix, got shape \(0, 0\)$"),
            ((np.eye(2), np.zeros((2, 3))), r"^projector 1 must be a non-empty square matrix, got shape \(2, 3\)$"),
            ((np.eye(2), np.ones(2)), r"^projector 1 must be a non-empty square matrix, got shape \(2,\)$"),
            ((np.eye(3), np.eye(2)), r"^projector 1 has shape \(2, 2\), expected \(3, 3\)$"),
        ],
    )
    def test_malformed_refused_naming_index(self, projectors, message):
        with pytest.raises(ValueError, match=message):
            from_projectors(np.arange(len(projectors), dtype=float), projectors)

    def test_scalar_eigenvalue_validates(self):
        from_projectors(np.float64(1.0), (np.eye(2),)).validate()

    def test_reconstruct_matches_weighted_sum(self, rng):
        h = rand_hermitian(6, rng)
        sf = spectral_decompose(h)
        expected = sum(v * p for v, p in zip(sf.eigenvalues, sf.projectors))
        np.testing.assert_allclose(expected, h, rtol=0, atol=1e-12)
