from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from unimeas import mixed
from unimeas.linalg import DEFAULT_EPS, basis_ket, density_eigh
from unimeas.mixed import mixed_probability, purified_probability, purify
from unimeas.probability import forms_triple
from unimeas.rand import rand_density, rand_ket, rand_observable, rand_projector, rand_unitary


def _dense_lift_probability(rho, projector) -> float:
    """<Psi|(E (x) I)|Psi> of rho's purification Psi, with the dense Kronecker lift of E."""
    psi = purify(rho)
    state = psi.reshape(-1)
    return np.vdot(state, np.kron(projector, np.eye(psi.shape[1])) @ state).real


class TestPurify:
    def test_pure_input(self):
        psi = purify(np.diag([1.0, 0.0]))
        assert psi.shape == (2, 1)
        np.testing.assert_allclose(psi.reshape(-1), basis_ket(2, 0), atol=1e-12)

    def test_maximally_mixed_qubit(self):
        psi = purify(np.eye(2) / 2.0)
        assert psi.shape == (2, 2)
        expected = (
            np.kron(basis_ket(2, 0), basis_ket(2, 0)) + np.kron(basis_ket(2, 1), basis_ket(2, 1))
        ) / np.sqrt(2.0)
        np.testing.assert_allclose(psi.reshape(-1), expected, atol=1e-12)

    def test_random_reduction(self, rng):
        rho = rand_density(3, rng)
        psi = purify(rho)
        assert np.max(np.abs(psi @ psi.conj().T - rho)) <= 1e-10

    def test_reduction_across_dims(self, rng):
        for _ in range(100):
            dim = int(rng.integers(2, 6))
            rho = rand_density(dim, rng)
            psi = purify(rho)
            state = psi.reshape(-1)
            joint = np.outer(state, state.conj()).reshape(psi.shape * 2)
            reduced = np.einsum("ajbj->ab", joint)  # the ancilla traced out
            assert np.max(np.abs(reduced - rho)) <= 1e-10
            assert np.max(np.abs(psi @ psi.conj().T - reduced)) <= 1e-14

    def test_state_is_normalized(self, rng):
        psi = purify(rand_density(4, rng))
        assert np.linalg.norm(psi.reshape(-1)) == pytest.approx(1.0, abs=1e-10)

    def test_ancilla_dim_counts_positive_eigenvalues(self):
        rho = np.diag([0.5, 0.5, 0.0])
        assert purify(rho).shape == (3, 2)

    def test_largest_eigenvalue_kept(self):
        """With eps >= 0.5 a whole accepted spectrum can sum to at most eps: the largest
        eigenpair stays, so the purified state is never empty."""
        assert purify(np.eye(2) / 4, eps=0.6).shape == (2, 1)

    def test_non_psd_rejected(self):
        with pytest.raises(ValueError, match="negative eigenvalue"):
            purify(np.diag([1.5, -0.5]))

    def test_non_unit_trace_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            purify(np.eye(3))

    @pytest.mark.parametrize(
        "rho",
        [
            np.diag([1.5, -0.5]),
            np.eye(3),
            np.array([[0.5, 1.0], [0.0, 0.5]]),
            np.full((2, 2), np.nan),
            np.zeros((2, 3)),
        ],
        ids=["negative", "trace", "non-hermitian", "nan", "not-square"],
    )
    def test_rejections_match_validate_density(self, rho):
        with pytest.raises(ValueError) as expected:
            density_eigh(rho)
        with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
            purify(rho)

    def test_one_eigendecomposition_per_mixed_probability(self, rng, monkeypatch):
        rho = rand_density(4, rng)
        projector = rand_projector(4, 2, rng)
        calls = []
        for name in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, name)

            def counted(a, _name=name, _original=original):
                calls.append(_name)
                return _original(a)

            monkeypatch.setattr(np.linalg, name, counted)
        mixed_probability(rho, projector)
        assert calls == ["eigh"]


class TestPurifiedRoute:
    def test_state_matches_per_eigenpair_tensor_sum(self, rng):
        rho = rand_density(4, rng)
        vals, vecs = np.linalg.eigh(rho)
        order = np.argsort(-vals, kind="stable")
        ancilla = np.eye(4)
        expected = sum(
            np.sqrt(vals[i]) * np.kron(vecs[:, i], ancilla[slot]) for slot, i in enumerate(order)
        )
        np.testing.assert_allclose(purify(rho).reshape(-1), expected, atol=1e-12)

    def test_matches_dense_lift(self, rng):
        """<Psi|(E (x) I)|Psi> on the reshape equals the dense Kronecker lift."""
        for dim, rank in [(2, 1), (4, 2), (6, 3)]:
            rho = rand_density(dim, rng)
            proj = rand_projector(dim, rank, rng)
            assert abs(purified_probability(rho, proj) - _dense_lift_probability(rho, proj)) <= 1e-12

    def test_rank_deficient_state(self, rng):
        psi = rand_ket(3, rng)
        rho = np.outer(psi, psi.conj())
        proj = rand_projector(3, 2, rng)
        assert purify(rho).shape == (3, 1)
        assert abs(purified_probability(rho, proj) - _dense_lift_probability(rho, proj)) <= 1e-12

    def test_dimension_mismatch_rejected(self, rng):
        with pytest.raises(ValueError, match="does not match"):
            purified_probability(rand_density(3, rng), np.diag([1.0, 0.0]))


class TestMixedProbability:
    def test_maximally_mixed(self):
        p = mixed_probability(np.eye(2) / 2.0, np.diag([1.0, 0.0]))
        assert p == pytest.approx(0.5, abs=1e-12)

    def test_pure_state_reduces_to_expectation(self, rng):
        psi = rand_ket(3, rng)
        rho = np.outer(psi, psi.conj())
        proj = rand_projector(3, 2, rng)
        assert abs(mixed_probability(rho, proj) - forms_triple(psi, proj).expectation_form) <= 1e-12

    def test_dual_routes_agree(self, rng):
        """The purified expectation and the direct trace are one number."""
        for _ in range(100):
            dim = int(rng.integers(2, 6))
            rho = rand_density(dim, rng)
            obs = rand_observable(dim, rng)
            proj = obs.projectors[int(rng.integers(obs.outcomes))]
            via_purification = purified_probability(rho, proj)
            via_trace = mixed_probability(rho, proj)
            assert abs(via_purification - via_trace) <= 1e-10

    def test_values_in_unit_interval(self, rng):
        eps = 1e-9
        for _ in range(50):
            rho = rand_density(4, rng)
            proj = rand_projector(4, int(rng.integers(1, 4)), rng)
            p = mixed_probability(rho, proj, eps)
            assert -eps <= p <= 1.0 + eps

    def test_complete_family_sums_to_one(self, rng):
        rho = rand_density(4, rng)
        obs = rand_observable(4, rng, multiplicities=[2, 1, 1])
        total = sum(mixed_probability(rho, p) for p in obs.projectors)
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_invalid_projector_rejected(self, rng):
        with pytest.raises(ValueError, match="idempotent"):
            mixed_probability(rand_density(2, rng), np.diag([2.0, 0.0]))

    def test_non_finite_density_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            mixed_probability(np.full((2, 2), np.nan), np.diag([1.0, 0.0]))

    def test_dimension_mismatch_rejected(self, rng):
        with pytest.raises(ValueError, match="does not match"):
            mixed_probability(rand_density(3, rng), np.diag([1.0, 0.0]))

    @pytest.mark.parametrize("negative_sum,accepted", [(-0.99e-9, True), (-1.01e-9, False)])
    def test_negative_part_bounded_as_a_whole(self, negative_sum, accepted):
        """Each of the 99 negative eigenvalues is far above -eps; their sum decides. Every rho
        density_eigh accepts gets a probability: the purified route drops the negative part,
        the trace route counts it, and the two differ by at most its sum."""
        rho = np.diag([1.0 - negative_sum] + [negative_sum / 99] * 99)
        projector = np.diag([0.0] + [1.0] * 99)
        if accepted:
            assert mixed_probability(rho, projector) == pytest.approx(negative_sum, rel=1e-12)
        else:
            message = r"^density operator has negative eigenvalues summing to -1\.010e-09$"
            with pytest.raises(ValueError, match=message):
                mixed_probability(rho, projector)

    def test_tail_of_eps_dropped_without_refusal(self):
        """The dropped eigenvalue 1e-9 is eps itself: the routes differ by eps and one rounding."""
        assert mixed_probability(np.diag([1 - 1e-9, 1e-9]), np.eye(2)) == 1.0

    def test_rounding_alone_never_refuses(self, rng):
        """At eps = 1e-15 the routes' rounding is comparable to eps; every pair is accepted."""
        for _ in range(300):
            dim = int(rng.integers(2, 8))
            rho = rand_density(dim, rng)
            proj = rand_projector(dim, int(rng.integers(1, dim + 1)), rng)
            assert abs(mixed_probability(rho, proj, 1e-15) - np.trace(rho @ proj).real) <= 1e-12

    def test_dropped_weight_above_eps_refused(self, monkeypatch):
        """A purification missing an eigenvalue above eps disagrees with the trace route."""
        full = mixed.purify
        monkeypatch.setattr(mixed, "purify", lambda rho, eps: full(rho, eps)[:, :-1])
        weight = 1.01 * DEFAULT_EPS
        with pytest.raises(ValueError, match=r"^purified route 0\.999999998\d+ disagrees with trace route 1\.0$"):
            mixed_probability(np.diag([1 - weight, weight]), np.eye(2))

    @pytest.mark.parametrize("above", [False, True])
    def test_routes_may_differ_by_eps_and_32_ulps_per_dim(self, monkeypatch, above):
        """The trace route of diag(1, 0) and diag(0, 1) is 0.0; a purified route of exactly the
        bound is accepted, and the next float above it refused."""
        bound = DEFAULT_EPS + 32 * 2 * np.finfo(float).eps
        purified = np.nextafter(bound, 1.0) if above else bound
        monkeypatch.setattr(mixed, "purified_probability", lambda rho, projector, eps: purified)
        if above:
            with pytest.raises(ValueError, match="^purified route .* disagrees with trace route 0.0$"):
                mixed_probability(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        else:
            assert mixed_probability(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == 0.0

    def test_many_tiny_eigenvalues_dropped_within_eps(self):
        """1200 eigenvalues of 1e-12, none negative, sum to 1.2e-9 > eps. The longest run of
        them summing to at most eps (999: 1000 copies add up to just above 1e-9 in floating
        point) is dropped and the other 201 are kept, so the routes differ by 0.999e-9."""
        rho = np.diag([1.0 - 1200e-12] + [1e-12] * 1200)
        projector = np.diag([0.0] + [1.0] * 1200)
        assert mixed_probability(rho, projector) == pytest.approx(1.2e-9, rel=1e-9)
        psi = purify(rho)
        assert psi.shape == (1201, 202)
        assert np.max(np.abs(psi @ psi.conj().T - rho)) <= DEFAULT_EPS


@seed(0x2fdde10994a25d0cc67ce4448edb691c9cb42f192217b4d512a77dcd483c8b74b5dca0a497108edbbfc1b9c41cd9469a)
@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(
    large=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=3),
    tail=st.lists(st.floats(-0.6, 0.6), min_size=1, max_size=8),
    seed=st.integers(0, 2**32 - 1),
)
def test_tiny_tail_of_either_sign(large, tail, seed):
    """rho = U diag(lambda) U^dag with a few large eigenvalues and a tail of tiny ones of either
    sign, in units of eps, whose negative part is >= -eps. The longest run of smallest
    eigenvalues whose magnitudes sum to at most eps is dropped: the routes agree within eps, the
    reduction is within eps of rho, and the ancilla has one slot per kept eigenvalue. E projects
    onto the tail's eigenvectors, where the purified route loses the most."""
    tail = np.sort(tail) * DEFAULT_EPS
    run = np.cumsum(np.abs(tail))
    assume(-tail[tail < 0].sum() <= 0.999 * DEFAULT_EPS)
    assume(np.all(np.abs(run - DEFAULT_EPS) > 1e-3 * DEFAULT_EPS))  # no cut on a rounding edge
    large = np.array(large) / np.sum(large) * (1.0 - tail.sum())
    lam = np.concatenate([large, tail])
    u = rand_unitary(lam.size, np.random.default_rng(seed))
    rho = (u * lam) @ u.conj().T
    tail_vecs = u[:, large.size :]
    projector = tail_vecs @ tail_vecs.conj().T
    p = mixed_probability(rho, projector)
    assert abs(p - np.trace(rho @ projector).real) <= DEFAULT_EPS
    psi = purify(rho)
    assert np.max(np.abs(psi @ psi.conj().T - rho)) <= DEFAULT_EPS
    assert psi.shape == (lam.size, lam.size - np.count_nonzero(run <= DEFAULT_EPS))
