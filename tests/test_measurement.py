from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import seed
from support import (
    ZOO_EXAMPLES,
    ZOO_SETTINGS,
    hypothesis_zoo_model,
    lifted_pointer,
    rotated_instrument,
    z_model,
    zoo_model,
)

from unimeas.linalg import basis_ket, uniform_ket
from unimeas.measurement import (
    CheckReport,
    MeasurementModel,
    _pointer_weights,
    build_canonical_model,
    check_calibration,
    check_dynamical,
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


class TestBuildCanonicalModel:
    def test_qubit_action_and_unitarity(self, rng, controlled_shift):
        model = z_model()
        psi = rand_ket(2, rng)
        plus, minus = model.observable.projectors
        expected = np.kron(plus @ psi, basis_ket(2, 0)) + np.kron(minus @ psi, basis_ket(2, 1))
        np.testing.assert_allclose(premeasure(model, psi), expected, atol=1e-12)
        w = model.isometry
        assert np.max(np.abs(w.conj().T @ w - np.eye(2))) <= 1e-10
        u = controlled_shift(model.observable)
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) <= 1e-10
        np.testing.assert_array_equal(w, u[:, :: model.dim_b])

    def test_single_outcome_observable(self):
        model = build_canonical_model(spectral_decompose(np.eye(2)))
        assert model.dim_b == 1
        np.testing.assert_allclose(model.isometry, np.eye(2), atol=1e-15)

    def test_degenerate_observable(self):
        model = build_canonical_model(spectral_decompose(np.diag([2.0, 2.0, 5.0])))
        assert model.outcomes == 2
        assert model.dim_b == 2
        assert model.observable.ranks[0] == 1
        assert model.observable.ranks[1] == 2
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


def stacked_isometry(obs) -> np.ndarray:
    """W of the canonical model read off the dense stack: W[(a, k), a'] = E_k[a, a']."""
    return obs.projectors.transpose(1, 0, 2).reshape(obs.dim * obs.outcomes, obs.dim)


class TestCanonicalIsometry:
    """The isometry read off the range basis is the dense stack's, bit for bit."""

    @seed(0x5ba1d0c7e3f24a9e8b6c1d2e3f4a5b6c7d8e9f0a1b2c3d4e5f60718293a4b5c6d7e8f9a0b1c2d3e4f5)
    @ZOO_SETTINGS
    @ZOO_EXAMPLES
    def test_hypothesis_zoo_observables(self, dim_a, variant, seed):
        obs = hypothesis_zoo_model(dim_a, variant, seed)[0].observable
        assert np.array_equal(build_canonical_model(obs).isometry, stacked_isometry(obs))

    @pytest.mark.parametrize("variant", ["plain", "degenerate"])
    @pytest.mark.parametrize("dim_a", [2, 3, 4, 5, 8, 16, 31, 64])
    def test_plain_and_degenerate(self, variant, dim_a):
        obs = zoo_model(variant, dim_a, np.random.default_rng(dim_a)).observable
        assert np.array_equal(build_canonical_model(obs).isometry, stacked_isometry(obs))

    def test_two_outcomes_at_dim_256(self):
        obs = rand_observable(256, np.random.default_rng(256), [128, 128])
        assert np.array_equal(build_canonical_model(obs).isometry, stacked_isometry(obs))


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
        oracle = np.linalg.norm(lifted_pointer(model, 0) @ final - final)
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
        lhs = lifted_pointer(model, 0) @ final
        rhs = premeasure(model, model.observable.projectors[0] @ basis_ket(2, 0))
        report = check_dynamical(model)
        assert not report.passed
        assert report.max_residual == pytest.approx(np.linalg.norm(lhs - rhs))

    def test_zero_branch_has_zero_residual(self):
        """An annihilated branch makes both sides of the condition vanish."""
        model = z_model()
        phi = basis_ket(2, 0)
        final = premeasure(model, phi)
        lhs = lifted_pointer(model, 1) @ final
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


class TestRedundantPointer:
    @pytest.mark.parametrize("dim_a, extra_dim", [(2, 1), (3, 2), (4, 5), (32, 1), (32, 32)])
    def test_isometry_is_the_kronecker_product(self, dim_a, extra_dim):
        """V (x) I, phi_B (x) chi and W (x) chi byte for byte as numpy.kron builds them."""
        rng = np.random.default_rng(dim_a)
        base = rotated_instrument(rand_model(dim_a, rng), rng)
        model = with_redundant_pointer(base, extra_dim, np.random.default_rng(extra_dim))
        chi = rand_ket(extra_dim, np.random.default_rng(extra_dim))  # its first draw
        basis = np.kron(base.pointer.basis, np.eye(extra_dim))
        assert model.pointer.basis.tobytes() == basis.tobytes()
        assert model.instrument_state.tobytes() == np.kron(base.instrument_state, chi).tobytes()
        assert model.isometry.tobytes() == np.kron(base.isometry, chi[:, None]).tobytes()

    def test_joint_16384_model(self):
        """W (x) chi of a joint-16384 model has 2^22 entries."""
        rng = np.random.default_rng(128)
        model = with_redundant_pointer(rand_model(128, rng), 2, rng)
        assert model.isometry.shape == (32768, 128)
        model.validate(1e-9)

    def test_joint_33792_model(self):
        """extra_dim 33 on a joint-1024 model: V (x) I is 1056 x 1056, past 2^20 entries."""
        rng = np.random.default_rng(32)
        model = with_redundant_pointer(rand_model(32, rng), 33, rng)
        assert model.dim == 33792
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
        assert np.max(np.abs(w.conj().T @ w - np.eye(dim_a))) <= 1e-12
        u = controlled_shift(model.observable)
        assert np.max(np.abs(u.conj().T @ u - np.eye(model.dim))) <= 1e-12
        np.testing.assert_array_equal(w, u[:, :: model.dim_b])

    def test_premeasure_moves_pointer_to_branch_label(self, dim_a):
        rng = np.random.default_rng(dim_a)
        model = rand_model(dim_a, rng)
        phi = rand_ket(dim_a, rng)
        expected = sum(
            np.kron(e_k @ phi, basis_ket(model.dim_b, k))
            for k, e_k in enumerate(model.observable.projectors)
        )
        np.testing.assert_allclose(premeasure(model, phi), expected, atol=1e-12)

    def test_isometry_and_pointer_match_dense_reference(self, dim_a, controlled_shift):
        rng = np.random.default_rng(dim_a)
        base = rand_model(dim_a, rng)
        model = with_redundant_pointer(base, 2, rng)
        # the redundant factor is uncoupled: U (x) I on the enlarged instrument
        unitary = np.kron(controlled_shift(base.observable), np.eye(2))
        direct = unitary @ np.kron(np.eye(dim_a), model.instrument_state[:, None])
        np.testing.assert_allclose(model.isometry, direct, atol=1e-12)

    def test_pointer_pieces_are_the_lifted_pointer(self, dim_a):
        """pointer.pieces on the instrument axis of joint states is I_A (x) F_k, on a redundant
        pointer and on the same model in a random complex instrument basis."""
        rng = np.random.default_rng(dim_a)
        redundant = with_redundant_pointer(rand_model(dim_a, rng), 2, rng)
        for model in (redundant, rotated_instrument(redundant, rng)):
            states = np.column_stack([model.isometry[:, :3], rand_ket(model.dim, rng)])
            # each column as a (dim_a, dim_b) sector: its last axis is the instrument's
            pieces = model.pointer.pieces(states.T.reshape(-1, model.dim_a, model.dim_b))
            for k in range(model.outcomes):
                np.testing.assert_allclose(
                    pieces[..., k].reshape(-1, model.dim).T,
                    lifted_pointer(model, k) @ states,
                    rtol=0,
                    atol=1e-12,
                )

    def test_pointer_weights_are_the_lifted_pointer(self, dim_a):
        """_pointer_weights of a (dim_a, m) matrix is ||(I_A (x) F_k) W s||^2 per column s, and of a
        vector its column, on a redundant pointer and in a random complex instrument basis."""
        rng = np.random.default_rng(dim_a)
        redundant = with_redundant_pointer(rand_model(dim_a, rng), 2, rng)
        for model in (redundant, rotated_instrument(redundant, rng)):
            kets = [rand_ket(dim_a, rng) for _ in range(2)]
            states = np.column_stack([model.observable.basis[:, :2], *kets])
            weights = _pointer_weights(model, states)
            assert weights.shape == (model.outcomes, states.shape[1])
            for k in range(model.outcomes):
                finals = lifted_pointer(model, k) @ model.isometry @ states
                expected = np.linalg.norm(finals, axis=0) ** 2
                np.testing.assert_allclose(weights[k], expected, rtol=0, atol=1e-13)
            for s, column in zip(states.T, weights.T):
                np.testing.assert_allclose(_pointer_weights(model, s), column, rtol=0, atol=1e-15)

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
        x1 = np.kron(basis_ket(dim_a, a), basis_ket(model.dim_b, 0))
        x2 = np.kron(basis_ket(dim_a, a), basis_ket(model.dim_b, 1))
        rotation = (
            np.eye(model.dim)
            + (cos - 1.0) * (np.outer(x1, x1) + np.outer(x2, x2))
            + sin * (np.outer(x2, x1) - np.outer(x1, x2))
        )
        unitary = controlled_shift(base.observable) @ rotation
        assert np.max(np.abs(unitary.conj().T @ unitary - np.eye(model.dim))) <= 1e-12
        np.testing.assert_allclose(model.isometry, unitary[:, :: model.dim_b], atol=1e-12)

    def test_negatives_fail_both_with_witnesses(self, dim_a):
        rng = np.random.default_rng(dim_a)
        base = rand_model(dim_a, rng)
        for model in (perturb_model(base, rng), swap_pointer(base)):
            for report in (check_calibration(model), check_dynamical(model)):
                assert not report.passed
                assert report.witness is not None


class TestCalibrationPeak:
    def test_peak_is_two_isometries_at_joint_4096(self):
        """Calibration holds W S and its pointer-basis rotation, each W's size, and no more: a
        named local holding W S while the squares are taken would read 2.5 W's bytes."""
        model = rand_model(64, np.random.default_rng(64))
        assert model.dim == 4096
        check_calibration(model)  # the forms' cached labels and slices are made here, not below
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            check_calibration(model)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 2.1 * model.isometry.nbytes


class TestBuildPeak:
    def test_peak_is_two_isometries_at_joint_4096(self):
        """The build holds the masked rows (V * mask_k) and their product W, then W and the model's
        copy, each W's size: a named local holding the masked rows would read 3 W's bytes."""
        obs = rand_observable(64, np.random.default_rng(64))
        w = build_canonical_model(obs).isometry  # the form's cached labels are made here, not below
        assert w.shape == (4096, 64)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            build_canonical_model(obs)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 2.1 * w.nbytes


class TestVariantsKeepWhatTheyDoNotName:
    """Each variant replaces only the fields it changes; the rest are the parent's own."""

    PARENTS = [(variant, dim) for variant in ("plain", "degenerate", "redundant") for dim in (3, 5, 8)]

    @pytest.mark.parametrize("variant, dim", PARENTS)
    def test_perturb_changes_one_column_of_w(self, variant, dim):
        rng = np.random.default_rng(dim)
        parent = zoo_model(variant, dim, rng)
        child = perturb_model(parent, rng)
        assert child.observable is parent.observable and child.pointer is parent.pointer
        assert child.instrument_state.tobytes() == parent.instrument_state.tobytes()
        changed = (child.isometry != parent.isometry).any(axis=0)
        assert np.count_nonzero(changed) == 1

    @pytest.mark.parametrize("variant, dim", PARENTS)
    def test_swap_keeps_state_and_w(self, variant, dim):
        parent = zoo_model(variant, dim, np.random.default_rng(dim))  # each has two outcomes or more
        child = swap_pointer(parent)
        assert child.observable is parent.observable
        assert child.instrument_state.tobytes() == parent.instrument_state.tobytes()
        assert child.isometry.tobytes() == parent.isometry.tobytes()

    @pytest.mark.parametrize("variant, dim", PARENTS)
    def test_redundant_keeps_observable(self, variant, dim):
        rng = np.random.default_rng(dim)
        parent = zoo_model(variant, dim, rng)
        assert with_redundant_pointer(parent, 2, rng).observable is parent.observable


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
        with pytest.raises(ValueError, match=r"^isometry: shape \(4, 4\), expected \(4, 2\)$"):
            dataclasses.replace(z_model(), isometry=np.eye(4))

    @pytest.mark.filterwarnings("error")
    def test_non_finite_isometry_named(self):
        base = z_model()
        w = np.array(base.isometry)
        w[0, 0] = np.nan
        bad = dataclasses.replace(base, isometry=w)
        with pytest.raises(ValueError, match=r"^isometry: isometry defect nan"):
            bad.validate(1e-9)

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
        replaced = dataclasses.replace(
            model,
            pointer=wider.pointer,
            instrument_state=wider.instrument_state,
            isometry=wider.isometry,
        )
        assert (replaced.dim_a, replaced.dim_b, replaced.dim) == (3, 6, 18)
        # the old instrument state and isometry no longer fit the wider instrument
        with pytest.raises(ValueError, match=r"^instrument_state has shape \(3,\), expected \(6,\)$"):
            dataclasses.replace(model, pointer=wider.pointer)

    def test_models_usable_as_dict_keys(self):
        a, b = z_model(), z_model()
        assert a == a and not a == b
        assert {a: "a", b: "b"}[b] == "b"


class TestCheckReport:
    """max_residual and passed are derived from the residuals and the tolerance."""

    def test_verdict_is_derived(self):
        report = CheckReport([5.0, 0.0], 1e-9)
        assert report.max_residual == 5.0 and report.passed is False
        assert CheckReport([1e-9, 0.0], 1e-9).passed is True

    def test_nan_residual_fails(self):
        report = CheckReport([np.nan], 1e-9)
        assert report.passed is False and np.isnan(report.max_residual)

    def test_replace_derives_again(self):
        report = dataclasses.replace(CheckReport([5.0], 1e-9), per_outcome_residuals=[0.0])
        assert report.max_residual == 0.0 and report.passed is True
