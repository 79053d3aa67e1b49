from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from test_projector_stack import rotated_instrument

from unimeas.linalg import basis_ket, dag, tensor, uniform_ket
from unimeas.measurement import (
    MeasurementModel,
    build_canonical_model,
    check_calibration,
    check_dynamical,
    isometry_from_unitary,
    premeasure,
)
from unimeas.rand import (
    perturb_model,
    rand_ket,
    rand_model,
    rand_observable,
    swap_pointer,
    with_redundant_pointer,
)
from unimeas.spectral import spectral_decompose


def z_model():
    return build_canonical_model(spectral_decompose(np.diag([1.0, -1.0])))


class TestBuildCanonicalModel:
    def test_qubit_action_and_unitarity(self, rng, controlled_shift):
        model = z_model()
        psi = rand_ket(2, rng)
        plus, minus = model.observable.projectors
        expected = tensor(plus @ psi, basis_ket(2, 0)) + tensor(minus @ psi, basis_ket(2, 1))
        np.testing.assert_allclose(premeasure(model, psi), expected, atol=1e-12)
        w = model.isometry
        assert np.max(np.abs(dag(w) @ w - np.eye(2))) <= 1e-10
        u = controlled_shift(model.observable)
        assert np.max(np.abs(dag(u) @ u - np.eye(4))) <= 1e-10
        np.testing.assert_array_equal(w, u[:, :: model.dim_b])

    def test_single_outcome_observable(self):
        model = build_canonical_model(spectral_decompose(np.eye(2)))
        assert model.dim_b == 1
        np.testing.assert_allclose(model.isometry, np.eye(2), atol=1e-15)

    def test_degenerate_observable(self):
        model = build_canonical_model(spectral_decompose(np.diag([2.0, 2.0, 5.0])))
        assert model.outcomes == 2
        assert model.dim_b == 2
        assert model.observable.rank(0) == 1
        assert model.observable.rank(1) == 2
        assert check_dynamical(model).passed

    def test_pointer_shape(self, rng):
        model = rand_model(3, rng)
        np.testing.assert_array_equal(model.pointer.eigenvalues, np.arange(model.outcomes))
        for k in range(model.outcomes):
            expected = np.outer(basis_ket(model.dim_b, k), basis_ket(model.dim_b, k))
            np.testing.assert_array_equal(model.pointer.projectors[k], expected)
        np.testing.assert_array_equal(model.instrument_state, basis_ket(model.dim_b, 0))

    def test_builder_contract(self, rng):
        for dim in (2, 3, 4, 5):
            model = rand_model(dim, rng)
            model.validate(1e-9)
            assert check_calibration(model).max_residual <= 1e-10
            assert check_dynamical(model).max_residual <= 1e-10


class TestPremeasure:
    def test_superposition_on_z_model(self):
        final = premeasure(z_model(), uniform_ket(2))
        expected = (basis_ket(4, 0) + basis_ket(4, 3)) / np.sqrt(2.0)
        np.testing.assert_allclose(final, expected, atol=1e-12)

    def test_eigenstate_on_z_model(self):
        np.testing.assert_allclose(
            premeasure(z_model(), basis_ket(2, 0)), basis_ket(4, 0), atol=1e-12
        )

    def test_matches_dense_product(self, rng, controlled_shift):
        model = rand_model(3, rng)
        phi = rand_ket(3, rng)
        direct = controlled_shift(model.observable) @ np.kron(phi, model.instrument_state)
        np.testing.assert_allclose(premeasure(model, phi), direct, atol=1e-14)

    def test_preserves_norm(self, rng):
        model = rand_model(4, rng)
        final = premeasure(model, rand_ket(4, rng))
        assert np.linalg.norm(final) == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError, match="expected"):
            premeasure(z_model(), rand_ket(3, rng))


class TestCheckCalibration:
    def test_canonical_passes(self, rng):
        report = check_calibration(rand_model(4, rng))
        assert report.passed
        assert report.max_residual <= 1e-10
        assert report.witness is None

    def test_pointer_swap_fails_with_unit_residual(self):
        """Swapped pointer sends the outcome-0 branch to the wrong sector."""
        model = swap_pointer(z_model())
        final = premeasure(model, basis_ket(2, 0))
        oracle = np.linalg.norm(model.lifted_pointer(0) @ final - final)
        report = check_calibration(model)
        assert not report.passed
        assert report.max_residual == pytest.approx(oracle)
        assert oracle == pytest.approx(1.0)
        assert "outcome 0" in report.witness

    def test_identity_unitary_fails(self):
        base = z_model()
        model = MeasurementModel(
            observable=base.observable,
            pointer=base.pointer,
            instrument_state=base.instrument_state,
            # the identity interaction's initial-subspace columns e_a (x) |0>
            isometry=np.eye(4, dtype=complex)[:, ::2],
        )
        report = check_calibration(model)
        assert not report.passed
        # outcome 0 still passes: e_0 (x) |0> is already in the F_0 sector
        assert report.per_outcome_residuals[0] <= 1e-12
        assert report.per_outcome_residuals[1] == pytest.approx(1.0)


class TestCheckDynamical:
    def test_canonical_passes(self, rng):
        report = check_dynamical(rand_model(3, rng))
        assert report.passed
        assert report.witness is None

    def test_pointer_swap_fails(self):
        model = swap_pointer(z_model())
        final = premeasure(model, basis_ket(2, 0))
        lhs = model.lifted_pointer(0) @ final
        rhs = premeasure(model, model.observable.projectors[0] @ basis_ket(2, 0))
        report = check_dynamical(model)
        assert not report.passed
        assert report.max_residual == pytest.approx(np.linalg.norm(lhs - rhs))

    def test_zero_branch_has_zero_residual(self):
        """An annihilated branch makes both sides of the condition vanish."""
        model = z_model()
        phi = basis_ket(2, 0)
        final = premeasure(model, phi)
        lhs = model.lifted_pointer(1) @ final
        rhs = premeasure(model, model.observable.projectors[1] @ phi)
        assert np.linalg.norm(lhs) <= 1e-12
        assert np.linalg.norm(rhs) <= 1e-12

    def test_agrees_with_calibration_across_model_zoo(self):
        """The two conditions give one verdict on positives and negatives."""
        rng = np.random.default_rng(77)
        models = []
        for dim in (2, 3, 4, 5, 6):
            for _ in range(8):
                models.append(rand_model(dim, rng))
        for mult in ([2, 1], [2, 2], [3, 2], [2, 2, 2]):
            for _ in range(7):
                models.append(rand_model(sum(mult), rng, mult))
        for dim in (2, 3, 4):
            for _ in range(5):
                models.append(with_redundant_pointer(rand_model(dim, rng), 2, rng))
        for dim in (2, 3, 4, 5):
            for _ in range(5):
                models.append(perturb_model(rand_model(dim, rng), rng))
        assert len(models) >= 100
        for model in models:
            cal = check_calibration(model)
            dyn = check_dynamical(model)
            assert cal.passed == dyn.passed

    def test_perturbed_model_fails_both(self, rng):
        model = perturb_model(rand_model(3, rng), rng)
        model.validate(1e-9)
        assert not check_calibration(model).passed
        assert not check_dynamical(model).passed

    def test_redundant_pointer_passes_both(self, rng):
        model = with_redundant_pointer(rand_model(3, rng), 2, rng)
        model.validate(1e-9)
        assert check_calibration(model).passed
        assert check_dynamical(model).passed


@pytest.mark.parametrize("dim_a", [4, 8, 16])
class TestCanonicalAtScale:
    """Closed-form controlled shift at joint dimensions 16, 64 and 256."""

    def test_unitarity_defect(self, dim_a, controlled_shift):
        model = rand_model(dim_a, np.random.default_rng(dim_a))
        assert model.dim == dim_a * dim_a
        w = model.isometry
        assert w.shape == (model.dim, dim_a)
        assert np.max(np.abs(dag(w) @ w - np.eye(dim_a))) <= 1e-12
        u = controlled_shift(model.observable)
        assert np.max(np.abs(dag(u) @ u - np.eye(model.dim))) <= 1e-12
        np.testing.assert_array_equal(w, u[:, :: model.dim_b])

    def test_premeasure_moves_pointer_to_branch_label(self, dim_a):
        rng = np.random.default_rng(dim_a)
        model = rand_model(dim_a, rng)
        phi = rand_ket(dim_a, rng)
        expected = sum(
            tensor(e_k @ phi, basis_ket(model.dim_b, k))
            for k, e_k in enumerate(model.observable.projectors)
        )
        np.testing.assert_allclose(premeasure(model, phi), expected, atol=1e-12)

    def test_isometry_and_pointer_match_dense_reference(self, dim_a, controlled_shift):
        rng = np.random.default_rng(dim_a)
        base = rand_model(dim_a, rng)
        model = with_redundant_pointer(base, 2, rng)
        # the redundant factor is uncoupled: U (x) I on the enlarged instrument
        unitary = tensor(controlled_shift(base.observable), np.eye(2))
        direct = unitary @ np.kron(np.eye(dim_a), model.instrument_state[:, None])
        np.testing.assert_allclose(model.isometry, direct, atol=1e-12)
        states = model.isometry[:, :3]
        for k in (0, model.outcomes - 1):
            dense = model.lifted_pointer(k)
            np.testing.assert_allclose(model.apply_pointer(k, states), dense @ states, atol=1e-12)
            np.testing.assert_allclose(
                model.apply_pointer(k, states[:, 0]), dense @ states[:, 0], atol=1e-12
            )

    def test_pieces_split_a_state_over_outcomes(self, dim_a):
        """pieces(x)[..., k] is E_k applied to x's last axis, and the pieces sum to x, on degenerate
        observables and on redundant pointers in a random complex instrument basis."""
        rng = np.random.default_rng(dim_a)
        degenerate = rand_model(dim_a, rng, [1, dim_a - 3, 2])
        model = rotated_instrument(with_redundant_pointer(rand_model(dim_a, rng), 2, rng), rng)
        forms = (degenerate.observable, degenerate.pointer, model.observable, model.pointer)
        for sf in forms:
            projectors = sf.projectors
            for shape in ((sf.dim,), (3, sf.dim), (2, 3, sf.dim)):
                x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
                got = sf.pieces(x)
                assert got.shape == shape + (sf.outcomes,)
                for k in range(sf.outcomes):
                    np.testing.assert_allclose(got[..., k], x @ projectors[k].T, rtol=0, atol=1e-13)
                np.testing.assert_allclose(got.sum(axis=-1), x, rtol=0, atol=1e-13)

    def test_perturbed_is_a_dense_rotation_of_the_unitary(self, dim_a, controlled_shift):
        """On the initial subspace perturb_model equals U R, R rotating e_a|0> toward e_a|1>."""
        rng = np.random.default_rng(dim_a)
        base = rand_model(dim_a, rng)
        model = perturb_model(base, rng)
        changed = np.flatnonzero(np.any(model.isometry != base.isometry, axis=0))
        assert changed.size == 1
        a = int(changed[0])
        cos = float(np.vdot(base.isometry[:, a], model.isometry[:, a]).real)
        sin = np.sqrt(1.0 - cos**2)
        assert 0.1 <= np.arccos(cos) <= 1.0
        x1 = tensor(basis_ket(dim_a, a), basis_ket(model.dim_b, 0))
        x2 = tensor(basis_ket(dim_a, a), basis_ket(model.dim_b, 1))
        rotation = (
            np.eye(model.dim)
            + (cos - 1.0) * (np.outer(x1, x1) + np.outer(x2, x2))
            + sin * (np.outer(x2, x1) - np.outer(x1, x2))
        )
        unitary = controlled_shift(base.observable) @ rotation
        assert np.max(np.abs(dag(unitary) @ unitary - np.eye(model.dim))) <= 1e-12
        np.testing.assert_allclose(model.isometry, unitary[:, :: model.dim_b], atol=1e-12)

    def test_negatives_fail_both_with_witnesses(self, dim_a):
        rng = np.random.default_rng(dim_a)
        base = rand_model(dim_a, rng)
        for model in (perturb_model(base, rng), swap_pointer(base)):
            for report in (check_calibration(model), check_dynamical(model)):
                assert not report.passed
                assert report.witness is not None


@pytest.mark.parametrize("dim_a", range(2, 17))
def test_perturbed_fails_both_with_witnesses(dim_a):
    rng = np.random.default_rng(100 + dim_a)
    model = perturb_model(rand_model(dim_a, rng), rng)
    model.validate(1e-9)
    for report in (check_calibration(model), check_dynamical(model)):
        assert not report.passed
        assert report.witness is not None


def test_perturb_falls_back_to_farthest_basis_vector():
    """W e_i = e_0 (x) |i> swaps the object state into the pointer and measures Z,
    and the shifted column (I (x) S) W e_a lies in range(W)."""
    swap = dataclasses.replace(z_model(), isometry=np.eye(4)[:, :2])
    assert check_calibration(swap).passed and check_dynamical(swap).passed
    farthest = basis_ket(4, 2)  # e_1 (x) |0>: the first row of W that is zero
    for seed in range(4):
        model = perturb_model(swap, np.random.default_rng(seed))
        model.validate(1e-9)
        a = int(np.flatnonzero(np.any(model.isometry != swap.isometry, axis=0))[0])
        cos = float(np.vdot(swap.isometry[:, a], model.isometry[:, a]).real)
        expected = cos * swap.isometry[:, a] + np.sqrt(1.0 - cos**2) * farthest
        np.testing.assert_allclose(model.isometry[:, a], expected, atol=1e-15)


class TestModelValidate:
    def test_field_named_in_error(self):
        base = z_model()
        bad = MeasurementModel(
            observable=base.observable,
            pointer=base.pointer,
            instrument_state=np.array([1.0, 1.0]),
            isometry=base.isometry,
        )
        with pytest.raises(ValueError, match="instrument_state"):
            bad.validate(1e-9)

    def test_non_isometric_named(self):
        bad = dataclasses.replace(z_model(), isometry=np.ones((4, 2)))
        with pytest.raises(ValueError, match=r"^isometry: isometry defect"):
            bad.validate(1e-9)

    def test_wrong_shape_isometry_named(self):
        bad = dataclasses.replace(z_model(), isometry=np.eye(4))
        with pytest.raises(ValueError, match=r"^isometry: shape \(4, 4\), expected \(4, 2\)$"):
            bad.validate(1e-9)

    @pytest.mark.filterwarnings("error")
    def test_non_finite_isometry_named(self):
        base = z_model()
        w = np.array(base.isometry)
        w[0, 0] = np.nan
        bad = dataclasses.replace(base, isometry=w)
        with pytest.raises(ValueError, match=r"^isometry: isometry defect nan"):
            bad.validate(1e-9)

    def test_non_unitary_named(self):
        base = z_model()
        with pytest.raises(ValueError, match="unitary"):
            isometry_from_unitary(np.ones((4, 4)), 2, 2, base.instrument_state, 1e-9)

    def test_non_finite_unitary_named(self, controlled_shift):
        base = z_model()
        u = controlled_shift(base.observable)
        u[0, 0] = np.nan
        with pytest.raises(ValueError, match="unitary"):
            isometry_from_unitary(u, 2, 2, base.instrument_state, 1e-9)

    def test_wrong_shape_unitary_named(self):
        base = z_model()
        with pytest.raises(ValueError, match=r"^unitary: shape \(4, 2\), expected \(4, 4\)$"):
            isometry_from_unitary(base.isometry, 2, 2, base.instrument_state)

    def test_outcome_count_mismatch(self):
        base = z_model()
        three = build_canonical_model(spectral_decompose(np.diag([1.0, 2.0, 3.0])))
        with pytest.raises(ValueError, match="outcomes"):
            MeasurementModel(
                observable=base.observable,
                pointer=three.pointer,
                instrument_state=three.instrument_state,
                isometry=np.eye(6)[:, :2],
            )

    def test_isometry_read_only(self):
        model = z_model()
        with pytest.raises(ValueError):
            model.isometry[0, 0] = 0.0

    def test_holds_no_dense_joint_array(self, rng):
        model = with_redundant_pointer(rand_model(4, rng), 2, rng)
        assert model.isometry.shape == (model.dim, model.dim_a)
        for f in model.pointer.projectors:
            assert f.shape == (model.dim_b, model.dim_b)


class TestDerivedDims:
    @pytest.mark.parametrize("variant", ["plain", "degenerate", "redundant", "perturbed", "swapped"])
    def test_dims_are_the_forms_dims(self, variant, rng):
        if variant == "degenerate":
            model = rand_model(5, rng, [2, 3])
        else:
            model = rand_model(4, rng)
        if variant == "redundant":
            model = with_redundant_pointer(model, 3, rng)
        elif variant == "perturbed":
            model = perturb_model(model, rng)
        elif variant == "swapped":
            model = swap_pointer(model)
        assert model.dim_a == model.observable.dim
        assert model.dim_b == model.pointer.dim
        assert model.dim == model.observable.dim * model.pointer.dim
        assert model.isometry.shape == (model.dim, model.dim_a)

    def test_replace_pointer_follows_its_dimension(self, rng):
        model = rand_model(3, rng)
        wider = with_redundant_pointer(model, 2, rng)
        replaced = dataclasses.replace(model, pointer=wider.pointer)
        assert (replaced.dim_a, replaced.dim_b, replaced.dim) == (3, 6, 18)
        # the old instrument state and isometry no longer fit the wider instrument
        with pytest.raises(ValueError, match=r"^instrument_state has shape \(3,\), expected \(6,\)$"):
            replaced.validate(1e-9)

    def test_models_usable_as_dict_keys(self):
        a, b = z_model(), z_model()
        assert a == a and not a == b
        assert {a: "a", b: "b"}[b] == "b"
