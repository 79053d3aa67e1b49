"""Dense projector stacks: the checks from_projectors makes on them, and parity.

from_projectors and the basis-block calibration check are compared with
the per-projector loops kept in support as references: equal verdicts, equal
witness and error strings, and residuals within 1e-14, a bound set by complex128
rounding of the same products taken in a different grouping.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import seed
from support import (
    LOOP_RESIDUAL_TOL,
    TOL,
    VARIANTS,
    ZOO_EXAMPLES,
    ZOO_SETTINGS,
    _outcome,
    assert_model_matches,
    dense_basis,
    hypothesis_zoo_model,
    loop_calibration,
    loop_validate_projectors,
    rotated_instrument,
    stack_defect,
    traced_peak,
    zoo_model,
)

from unimeas.branches import verify
from unimeas.linalg import uniform_ket
from unimeas.measurement import check_calibration, check_dynamical
from unimeas.rand import perturb_model, rand_hermitian, rand_model, rand_observable, with_redundant_pointer
from unimeas.spectral import from_projectors, refine, spectral_decompose

DIMS = (2, 3, 4, 5, 6, 7, 8, 16, 32)
ZOO = [(v, d, seed) for v in VARIANTS for d in DIMS for seed in range(2)]


def _zoo(variant, dim, seed):
    return zoo_model(variant, dim, np.random.default_rng([VARIANTS.index(variant), dim, seed]))


def _corruptions(mats: list[np.ndarray], rng: np.random.Generator):
    """The stack as is, and copies with one defect each at a random projector, or two at an
    earlier and a later one (both at the one projector of a one-outcome stack)."""
    n, d = len(mats), mats[0].shape[0]
    k = int(rng.integers(n))
    yield mats
    for name in (
        "idempotent", "hermitian", "scale", "nan", "duplicate",
        "nan-then-hermitian", "hermitian-then-nan", "inf", "overflow", "zero",
    ):
        bad = [np.array(p) for p in mats]
        if name == "idempotent":
            bad[k] = bad[k] + 1e-6 * rand_hermitian(d, rng)
        elif name == "hermitian":
            bad[k] = bad[k] + 1e-6 * rng.normal(size=(d, d))
        elif name == "scale":  # a defect near eps, where rounding decides
            bad[k] = bad[k] + 1e-9 * rand_hermitian(d, rng)
        elif name == "nan":
            bad[k][0, d - 1] = np.nan
        elif name == "duplicate":
            if n > 1:
                bad[k] = bad[(k + 1) % n]
        elif name in ("nan-then-hermitian", "hermitian-then-nan"):
            first, second = np.sort(rng.choice(n, 2, replace=False)) if n > 1 else (0, 0)
            nan, hermitian = (first, second) if name == "nan-then-hermitian" else (second, first)
            bad[hermitian] = bad[hermitian] + 1e-6 * rng.normal(size=(d, d))
            bad[nan][0, d - 1] = np.nan
        elif name == "inf":
            bad[k][d - 1, 0] = np.inf
        elif name == "overflow":  # exactly Hermitian, with a square beyond the float range
            bad[k] = (bad[k] + bad[k].conj().T) * 5e199
        else:
            bad[k] = np.zeros_like(bad[k])
        yield bad


@pytest.mark.filterwarnings("error")
class TestLoopParity:
    @pytest.mark.parametrize("variant,dim,seed", ZOO)
    def test_validate_projectors(self, variant, dim, seed):
        """Equal messages, and the first defect the batched reference stack_defect names."""
        model = _zoo(variant, dim, seed)
        rng = np.random.default_rng([dim, seed])
        for sf in (model.observable, model.pointer):
            for mats in _corruptions(list(sf.projectors), rng):
                batched = _outcome(lambda: from_projectors(sf.eigenvalues, mats, dim=sf.dim))
                assert batched == _outcome(lambda: loop_validate_projectors(mats, sf.dim))
                defect = stack_defect(np.array(mats), TOL, idempotent=True)
                if defect is not None:
                    assert batched == f"projector {defect[0]} {defect[1]}"

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


ENTRY_ROWS = [(v, c) for v in ("plain", "degenerate", "redundant") for c in (True, False)]
ENTRY_ROWS += [("one-outcome", True)]
NON_FINITE_ENTRIES = pytest.mark.parametrize(
    "variant,coindexed,value",
    [
        pytest.param(v, c, x, id=f"{v}-{c}" + ("" if np.isnan(x) else f"-{x}"))
        for x in (np.nan, np.inf)
        for v, c in ENTRY_ROWS
    ],
)


@pytest.mark.filterwarnings("error")
class TestNonFiniteIsometry:
    """A nan or inf in W, in a row of the coindexed pointer outcome or of another one: the checks
    mask rows by multiplying, so no row holding it is dropped and both report a nan residual as
    the dense references do (an inf meets a zero in the products), without a numpy warning. A
    one-outcome pointer has no other outcome: every row is coindexed."""

    @staticmethod
    def broken(variant, coindexed, value):
        rng = np.random.default_rng(7)
        model = rand_model(3, rng, [3]) if variant == "one-outcome" else zoo_model(variant, 4, rng)
        # the first range-basis vector is outcome 0's, so pointer outcome 0 is its coindexed one
        j = int(np.flatnonzero((model.pointer.labels == 0) == coindexed)[0])
        w = np.array(model.isometry)
        w[(model.dim_a - 1) * model.dim_b + j, model.dim_a - 1] = value
        return dataclasses.replace(model, isometry=w)

    @NON_FINITE_ENTRIES
    def test_nan_entry(self, variant, coindexed, value):
        broken = self.broken(variant, coindexed, value)
        assert_model_matches(broken, uniform_ket(broken.dim_a))
        for report in (check_calibration(broken), check_dynamical(broken)):
            assert np.isnan(report.max_residual) and report.witness.endswith("residual nan")

    @NON_FINITE_ENTRIES
    def test_every_verify_row_fails(self, variant, coindexed, value):
        """prc reads the entry through W phi on a state with no zero amplitude."""
        broken = self.broken(variant, coindexed, value)
        rows = list(verify(broken, uniform_ket(broken.dim_a)))
        assert [report.passed for _, report in rows] == [False] * 3
        assert all(report.witness is not None for _, report in rows)


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
        bound = 4 * (model.isometry.nbytes + model.pointer.projectors.nbytes)
        assert traced_peak(lambda: check_calibration(model))[1] < bound


class TestDenseBasis:
    """from_projectors checks and reads one projector at a time: its basis is bit for bit the
    one a single batched eigh of the whole stack gives, and its peak stays near the stack's copy."""

    @seed(0x3c1a9e5d7b2f4068a1c3e5f7092b4d6f8a0c2e4f6a8b0d2f4e6a8c0b2d4f6e8a0c2b4d6f8e0a2c4b6d8f0)
    @ZOO_SETTINGS
    @ZOO_EXAMPLES
    def test_hypothesis_zoo_bases(self, dim_a, variant, seed):
        model = hypothesis_zoo_model(dim_a, variant, seed)[0]
        for sf in (model.observable, model.pointer):
            assert np.array_equal(from_projectors(sf.eigenvalues, sf.projectors).basis, dense_basis(sf.projectors))

    @pytest.mark.parametrize("dim", [32, 64, 128])
    def test_large_bases(self, dim):
        sf = rand_observable(dim, np.random.default_rng(dim))
        assert np.array_equal(from_projectors(sf.eigenvalues, sf.projectors).basis, dense_basis(sf.projectors))

    @pytest.mark.parametrize("dim,ranks,bound", [(128, None, 1.5), (256, [128, 128], 3.0)])
    def test_peak(self, dim, ranks, bound):
        """128 rank-1 projectors at dim 128, and 2 outcomes at dim 256; the stack is built first."""
        sf = rand_observable(dim, np.random.default_rng(dim), ranks)
        stack = sf.projectors
        assert len(stack) == (dim if ranks is None else len(ranks))
        assert traced_peak(lambda: from_projectors(sf.eigenvalues, stack))[1] <= bound * stack.nbytes


class TestFirstFailure:
    """Checked one projector at a time, the first failing item is reported."""

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
