"""Acceptance gate: the ten contract criteria at their stated tolerances.

Each test prints one pass/fail line (run with -s to see them all) and then
asserts, so a red criterion is visible both in the printout and in the
pytest summary.
"""

from __future__ import annotations

import numpy as np
from support import lifted_pointer

from unimeas.branches import check_prc, decompose_final, evolve_branch
from unimeas.cli import main
from unimeas.collapse import OutcomeDistribution, butcher, final_density, sample, weights
from unimeas.measurement import check_calibration, check_dynamical, premeasure
from unimeas.mixed import mixed_probability, purified_probability, purify
from unimeas.modelio import load_model, save_matrix, save_model
from unimeas.probability import forms_triple
from unimeas.rand import (
    perturb_model,
    rand_density,
    rand_ket,
    rand_model,
    rand_observable,
    rand_projector,
    swap_pointer,
    with_redundant_pointer,
)
from unimeas.spectral import range_basis, refine, spectral_decompose


def _report(criterion: int, name: str, ok: bool) -> bool:
    print(f"acceptance {criterion} ({name}): {'PASS' if ok else 'FAIL'}")
    return ok


def _model_zoo(rng) -> tuple[list, list]:
    """Positives and perturbed negatives spanning the required families."""
    positives = []
    for dim in (2, 3, 4, 5, 6):
        for _ in range(8):
            positives.append(rand_model(dim, rng))
    for mult in ([2, 1], [2, 2], [3, 1], [2, 2, 1], [4, 2]):
        for _ in range(5):
            positives.append(rand_model(sum(mult), rng, mult))
    for dim in (2, 3, 4):
        for _ in range(4):
            positives.append(with_redundant_pointer(rand_model(dim, rng), 2, rng))
    negatives = []
    for dim in (2, 3, 4, 5):
        for _ in range(6):
            negatives.append(perturb_model(rand_model(dim, rng), rng))
    return positives, negatives


def test_acceptance_1_calibration_dynamical_equivalence():
    rng = np.random.default_rng(101)
    positives, negatives = _model_zoo(rng)
    models = positives + negatives
    assert len(models) >= 100
    ok = True
    for model in positives:
        cal = check_calibration(model, 1e-9)
        dyn = check_dynamical(model, 1e-9)
        ok = ok and cal.passed and dyn.passed
    for model in negatives:
        cal = check_calibration(model, 1e-9)
        dyn = check_dynamical(model, 1e-9)
        ok = ok and (not cal.passed) and (not dyn.passed)
    assert _report(1, "calibration-dynamical equivalence", ok)


def test_acceptance_2_probability_reproducibility():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 6))
        model = rand_model(dim, rng)
        report = check_prc(model, rand_ket(dim, rng), 1e-10)
        worst = max(worst, report.max_residual)
    assert _report(2, "probability reproducibility", worst <= 1e-10)


def test_acceptance_3_final_state_decomposition():
    rng = np.random.default_rng(103)
    ok = True
    for _ in range(100):
        dim = int(rng.integers(2, 6))
        model = rand_model(dim, rng)
        phi = rand_ket(dim, rng)
        dec = decompose_final(model, phi)
        final = premeasure(model, phi)
        ok = ok and np.linalg.norm(dec.reconstruct() - final) <= 1e-10
        for k, a in zip(dec.outcomes, dec.amplitudes):
            w = np.vdot(phi, model.observable.projectors[k] @ phi).real
            ok = ok and abs(a - np.sqrt(w)) <= 1e-10
    assert _report(3, "final-state decomposition", ok)


def test_acceptance_4_collapse_butchering():
    rng = np.random.default_rng(104)
    ok = True
    for _ in range(100):
        dim = int(rng.integers(2, 6))
        model = rand_model(dim, rng)
        phi = rand_ket(dim, rng)
        rho = butcher(model, phi)
        pinched = sum(
            lifted_pointer(model, k) @ final_density(model, phi) @ lifted_pointer(model, k)
            for k in range(model.outcomes)
        )
        ok = ok and np.max(np.abs(rho - pinched)) <= 1e-12
        ok = ok and abs(np.sum(weights(phi, model.observable).weights) - 1.0) <= 1e-10
        for j in range(model.outcomes):
            for k in range(model.outcomes):
                if j != k:
                    block = lifted_pointer(model, j) @ rho @ lifted_pointer(model, k)
                    ok = ok and np.max(np.abs(block)) <= 1e-12
    assert _report(4, "collapse butchering", ok)


def test_acceptance_5_branch_independence():
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 6))
        model = rand_model(dim, rng)
        phi = rand_ket(dim, rng)
        final = premeasure(model, phi)
        for k in range(model.outcomes):
            res = np.linalg.norm(evolve_branch(model, phi, k) - lifted_pointer(model, k) @ final)
            worst = max(worst, res)
    assert _report(5, "branch independence", worst <= 1e-10)


def test_acceptance_6_three_probability_forms():
    rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(200):
        dim = int(rng.integers(2, 7))
        rank = int(rng.integers(1, min(3, dim) + 1))
        triple = forms_triple(rand_ket(dim, rng), rand_projector(dim, rank, rng))
        worst = max(worst, triple.max_pairwise_diff)
    assert _report(6, "three probability forms", worst <= 1e-12)


def test_acceptance_7_purification():
    rng = np.random.default_rng(107)
    ok = True
    for _ in range(100):
        dim = int(rng.integers(2, 6))
        rho = rand_density(dim, rng)
        psi = purify(rho)
        ok = ok and np.max(np.abs(psi @ psi.conj().T - rho)) <= 1e-10
        obs = rand_observable(dim, rng)
        proj = obs.projectors[int(rng.integers(obs.outcomes))]
        route_purified = purified_probability(rho, proj)
        route_trace = mixed_probability(rho, proj)
        ok = ok and abs(route_purified - route_trace) <= 1e-10
    assert _report(7, "purification and trace rule", ok)


def test_acceptance_8_overmeasurement_additivity():
    rng = np.random.default_rng(108)
    sf = spectral_decompose(np.diag([2.0, 2.0, 5.0]))
    b0, b1 = range_basis(sf.projectors[1])
    fine = refine(sf, 1, [np.outer(b0, b0.conj()), np.outer(b1, b1.conj())])
    ok = True
    for _ in range(100):
        phi = rand_ket(3, rng)
        coarse = np.vdot(phi, sf.projectors[1] @ phi).real
        refined = sum(np.vdot(phi, p @ phi).real for p in fine.projectors[1:])
        ok = ok and abs(refined - coarse) <= 1e-12
    assert _report(8, "overmeasurement additivity", ok)


def test_acceptance_9_sampling_statistics():
    dist = OutcomeDistribution(np.array([0.5, 0.5]))
    ok = True
    for seed in (0, 1, 42, 2024):
        report = sample(dist, 100000, seed)
        repeat = sample(dist, 100000, seed)
        ok = ok and np.array_equal(report.counts, repeat.counts)
        for count in report.counts:
            ok = ok and abs(int(count) - 50000) <= 632
    assert _report(9, "sampling statistics", ok)


def test_acceptance_10_cli_contract(tmp_path, capsys):
    obs_path = tmp_path / "obs.json"
    save_matrix(np.diag([1.0, -1.0]), obs_path)
    model_path = tmp_path / "model.json"
    ok = main(["build", str(obs_path), "--out", str(model_path)]) == 0
    ok = ok and main(["verify", str(model_path)]) == 0

    swapped_path = tmp_path / "swapped.json"
    save_model(swap_pointer(load_model(model_path)), swapped_path)
    ok = ok and main(["verify", str(swapped_path)]) == 1

    round_trip = tmp_path / "roundtrip.json"
    save_model(load_model(model_path), round_trip)
    ok = ok and model_path.read_bytes() == round_trip.read_bytes()

    capsys.readouterr()
    with capsys.disabled():
        assert _report(10, "CLI contract", ok)
