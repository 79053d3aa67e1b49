from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from unimeas.cli import main
from unimeas.collapse import butcher
from unimeas.linalg import uniform_ket
from unimeas.measurement import build_canonical_model
from unimeas.modelio import (
    load_model,
    load_vector,
    model_to_document,
    save_matrix,
    save_model,
    save_vector,
)
from unimeas.rand import perturb_model, rand_ket, rand_model, swap_pointer
from unimeas.spectral import spectral_decompose


@pytest.fixture
def workspace(tmp_path):
    """Observable, built model, and state files for a qubit Z measurement."""
    obs = tmp_path / "obs.json"
    save_matrix(np.diag([1.0, -1.0]), obs)
    model_path = tmp_path / "model.json"
    model = build_canonical_model(spectral_decompose(np.diag([1.0, -1.0])))
    save_model(model, model_path)
    phi = tmp_path / "phi.json"
    save_vector(uniform_ket(2), phi)
    eigen = tmp_path / "eigen.json"
    save_vector(np.array([1.0, 0.0], dtype=complex), eigen)
    swapped = tmp_path / "swapped.json"
    save_model(swap_pointer(model), swapped)
    return tmp_path


class TestBuild:
    def test_build_then_verify(self, workspace, capsys):
        out_path = workspace / "built.json"
        assert main(["build", str(workspace / "obs.json"), "--out", str(out_path)]) == 0
        capsys.readouterr()
        assert main(["verify", str(out_path)]) == 0

    def test_built_file_matches_in_memory_model(self, workspace, capsys):
        out_path = workspace / "built.json"
        main(["build", str(workspace / "obs.json"), "--out", str(out_path)])
        capsys.readouterr()
        loaded = load_model(out_path)
        direct = build_canonical_model(spectral_decompose(np.diag([1.0, -1.0])))
        np.testing.assert_array_equal(loaded.isometry, direct.isometry)

    def test_identity_observable_single_pointer_dim(self, tmp_path, capsys):
        obs = tmp_path / "eye.json"
        save_matrix(np.eye(2), obs)
        out_path = tmp_path / "built.json"
        assert main(["build", str(obs), "--out", str(out_path)]) == 0
        capsys.readouterr()
        assert load_model(out_path).dim_b == 1

    def test_non_hermitian_observable_exits_2(self, tmp_path, capsys):
        obs = tmp_path / "bad.json"
        save_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]), obs)
        assert main(["build", str(obs), "--out", str(tmp_path / "x.json")]) == 2
        assert "observable" in capsys.readouterr().err

    def test_json_report(self, workspace, capsys):
        out_path = workspace / "built.json"
        assert main(["--json", "build", str(workspace / "obs.json"), "--out", str(out_path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["dim_a"] == 2
        assert doc["dim_b"] == 2


class TestVerify:
    def test_canonical_model_passes(self, workspace, capsys):
        assert main(["verify", str(workspace / "model.json")]) == 0
        out = capsys.readouterr().out
        assert "overall: PASS" in out
        for name in ("calibration", "dynamical", "prc", "final-reconstruction"):
            assert name in out

    def test_pointer_swapped_fails_naming_outcome(self, workspace, capsys):
        assert main(["verify", str(workspace / "swapped.json")]) == 1
        out = capsys.readouterr().out
        assert "overall: FAIL" in out
        assert "outcome 0" in out

    def test_explicit_phi(self, workspace, capsys):
        code = main(["verify", str(workspace / "model.json"), "--phi", str(workspace / "eigen.json")])
        assert code == 0

    def test_wrong_phi_dimension_exits_2(self, workspace, tmp_path, capsys):
        phi3 = tmp_path / "phi3.json"
        save_vector(uniform_ket(3), phi3)
        assert main(["verify", str(workspace / "model.json"), "--phi", str(phi3)]) == 2
        assert "phi" in capsys.readouterr().err

    def test_wrong_size_pointer_projector_exits_2(self, tmp_path, rng, capsys):
        doc = model_to_document(rand_model(3, rng))
        doc["pointer"]["projectors"][1] = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(doc))
        assert main(["verify", str(bad)]) == 2
        assert "pointer: projector 1 has shape (2, 2), expected (3, 3)" in capsys.readouterr().err

    def test_truncated_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "trunc.json"
        bad.write_text('{"dim_a": 2,')
        assert main(["verify", str(bad)]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["verify", str(tmp_path / "absent.json")]) == 2

    def test_bad_tolerance_exits_2(self, workspace, capsys):
        assert main(["--tol", "0", "verify", str(workspace / "model.json")]) == 2

    def test_flags_accepted_after_subcommand(self, workspace, capsys):
        assert main(["verify", str(workspace / "model.json"), "--json", "--tol", "1e-8"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True

    def test_flag_before_subcommand_survives(self, workspace, capsys):
        assert main(["--tol", "0", "verify", str(workspace / "model.json"), "--json"]) == 2

    def test_json_report(self, workspace, capsys):
        assert main(["--json", "verify", str(workspace / "model.json")]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True
        assert [c["name"] for c in doc["checks"]] == [
            "calibration",
            "dynamical",
            "prc",
            "final-reconstruction",
        ]
        assert all(c["max_residual"] <= 1e-10 for c in doc["checks"])

    def test_json_report_on_failure(self, workspace, capsys):
        assert main(["--json", "verify", str(workspace / "swapped.json")]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is False
        failed = [c for c in doc["checks"] if not c["passed"]]
        assert failed and all("outcome" in c["witness"] for c in failed)


class TestCollapse:
    def test_weights_and_counts(self, workspace, capsys):
        code = main([
            "collapse", str(workspace / "model.json"), str(workspace / "phi.json"),
            "--n", "100000", "--seed", "42",
        ])
        assert code == 0
        doc_args = ["--json", "collapse", str(workspace / "model.json"), str(workspace / "phi.json"),
                    "--n", "100000", "--seed", "42"]
        capsys.readouterr()
        assert main(doc_args) == 0
        doc = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(doc["weights"], [0.5, 0.5], atol=1e-12)
        for count in doc["counts"]:
            assert abs(count - 50000) <= 632
        assert doc["seed"] == 42
        assert doc["generator"] == "pcg64"
        assert doc["butcher_trace_residual"] <= 1e-10

    @pytest.mark.parametrize("kind", ["workspace", "perturbed", "identity"])
    def test_trace_residual_matches_butcher(self, kind, workspace, rng, capsys):
        """The residual read from the kept branches equals the dense butchered state's.

        The identity interaction leaves the pointer at |0>, so branch 1 is dropped
        and the butchered trace is w_0 = 1/2.
        """
        model_path, phi_path = workspace / "model.json", workspace / "phi.json"
        if kind == "perturbed":
            model_path, phi_path = workspace / "perturbed.json", workspace / "phi3.json"
            save_model(perturb_model(rand_model(3, rng), rng), model_path)
            save_vector(rand_ket(3, rng), phi_path)
        elif kind == "identity":
            model_path = workspace / "identity.json"
            z = load_model(workspace / "model.json")
            save_model(dataclasses.replace(z, isometry=np.eye(4)[:, ::2]), model_path)
        assert main(["--json", "collapse", str(model_path), str(phi_path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        rho = butcher(load_model(model_path), load_vector(phi_path))
        assert abs(doc["butcher_trace_residual"] - abs(np.trace(rho).real - 1.0)) <= 1e-12
        if kind == "identity":
            assert doc["butcher_trace_residual"] == pytest.approx(0.5, abs=1e-12)

    def test_eigenstate_all_counts_on_one_outcome(self, workspace, capsys):
        assert main([
            "--json", "collapse", str(workspace / "model.json"), str(workspace / "eigen.json"),
            "--n", "5000",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["counts"] == [5000, 0]

    def test_repeat_same_seed_byte_identical(self, workspace, capsys):
        args = ["collapse", str(workspace / "model.json"), str(workspace / "phi.json"), "--seed", "42"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_zero_n_exits_2(self, workspace, capsys):
        assert main([
            "collapse", str(workspace / "model.json"), str(workspace / "phi.json"), "--n", "0",
        ]) == 2

    def test_n_beyond_int64_exits_2(self, workspace, capsys):
        assert main([
            "collapse", str(workspace / "model.json"), str(workspace / "phi.json"),
            "--n", str(2**63),
        ]) == 2

    def test_negative_seed_exits_2(self, workspace, capsys):
        assert main([
            "collapse", str(workspace / "model.json"), str(workspace / "phi.json"), "--seed", "-1",
        ]) == 2

    def test_seed_beyond_uint64_exits_2(self, workspace, capsys):
        assert main([
            "collapse", str(workspace / "model.json"), str(workspace / "phi.json"),
            "--seed", str(2**64),
        ]) == 2
        captured = capsys.readouterr()
        assert "uint64" in captured.err and captured.out == ""

    def test_unnormalized_phi_exits_2(self, workspace, tmp_path, capsys):
        phi = tmp_path / "phi34.json"
        save_vector(np.array([3.0, 4.0], dtype=complex), phi)
        assert main(["collapse", str(workspace / "model.json"), str(phi)]) == 2
        assert capsys.readouterr().err.startswith("error: phi: state norm 5.0")


class TestForms:
    def test_eigenstate_triple(self, workspace, tmp_path, capsys):
        psi = tmp_path / "psi.json"
        save_vector(np.array([1.0, 0.0], dtype=complex), psi)
        proj = tmp_path / "proj.json"
        save_matrix(np.diag([1.0, 0.0]), proj)
        assert main(["--json", "forms", str(psi), str(proj)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["expectation_form"] == pytest.approx(1.0, abs=1e-12)
        assert doc["born_form"] == pytest.approx(1.0, abs=1e-12)
        assert doc["trace_form"] == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_state_triple(self, tmp_path, capsys):
        psi = tmp_path / "psi.json"
        save_vector(np.array([1.0, 0.0], dtype=complex), psi)
        proj = tmp_path / "proj.json"
        save_matrix(np.diag([0.0, 1.0]), proj)
        assert main(["--json", "forms", str(psi), str(proj)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["expectation_form"] == pytest.approx(0.0, abs=1e-12)
        assert doc["max_pairwise_diff"] <= 1e-12

    def test_random_fixture_agreement(self, tmp_path, rng, capsys):
        from unimeas.rand import rand_ket, rand_projector

        psi = tmp_path / "psi.json"
        save_vector(rand_ket(4, rng), psi)
        proj = tmp_path / "proj.json"
        save_matrix(rand_projector(4, 2, rng), proj)
        assert main(["--json", "forms", str(psi), str(proj)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["max_pairwise_diff"] <= 1e-12

    def test_unnormalized_psi_exits_2(self, tmp_path, capsys):
        psi = tmp_path / "psi.json"
        save_vector(np.array([3.0, 4.0], dtype=complex), psi)
        proj = tmp_path / "proj.json"
        save_matrix(np.diag([1.0, 0.0]), proj)
        assert main(["forms", str(psi), str(proj)]) == 2
        assert "norm" in capsys.readouterr().err

    def test_invalid_projector_exits_2(self, tmp_path, capsys):
        psi = tmp_path / "psi.json"
        save_vector(np.array([1.0, 0.0], dtype=complex), psi)
        proj = tmp_path / "proj.json"
        save_matrix(np.diag([2.0, 0.0]), proj)
        assert main(["forms", str(psi), str(proj)]) == 2
        assert "idempotent" in capsys.readouterr().err
