from __future__ import annotations

import dataclasses
import json
import re

import numpy as np
import pytest

from unimeas.cli import main
from unimeas.collapse import butcher
from unimeas.linalg import uniform_ket
from unimeas.measurement import build_canonical_model
from unimeas.modelio import (
    ModelFormatError,
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

    def test_outcome_count_mismatch_exits_2(self, tmp_path, capsys, outcome_mismatch_document):
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(outcome_mismatch_document))
        assert main(["verify", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: observable has 2 outcomes, pointer has 3\n"
        assert captured.out == ""

    def test_wrong_size_pointer_projector_exits_2(self, tmp_path, rng, capsys, dense_document):
        doc = dense_document(rand_model(3, rng))
        doc["pointer"]["projectors"][1] = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(doc))
        assert main(["verify", str(bad)]) == 2
        assert "pointer: projector 1 has shape (2, 2), expected (3, 3)" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    def test_overflowing_pointer_projector_exits_2_quietly(self, tmp_path, rng, capsys, dense_document):
        """A finite entry of 1e300 overflows the idempotency product; no numpy warning leaks."""
        doc = dense_document(rand_model(3, rng))
        doc["pointer"]["projectors"][1][0][0] = [1e300, 0.0]
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="^pointer: projector 1 is not idempotent$"):
            load_model(bad)
        assert main(["verify", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: pointer: projector 1 is not idempotent\n"
        assert captured.out == ""

    def test_uniformly_wrong_size_observable_exits_2(self, tmp_path, rng, capsys, dense_document):
        doc = dense_document(rand_model(3, rng))
        doc["observable"]["projectors"] = [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]] * 3
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(doc))
        assert main(["verify", str(bad)]) == 2
        assert "observable: projector 0 has shape (2, 2), expected (3, 3)" in capsys.readouterr().err

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

    def test_projector_whose_square_is_nan_exits_2(self, tmp_path, capsys):
        """Finite entries whose square overflows to nan are refused, not reported as forms."""
        psi = tmp_path / "psi.json"
        save_vector(np.array([1.0, 0.0], dtype=complex), psi)
        proj = tmp_path / "proj.json"
        x = 1e300 + 1e300j
        save_matrix(np.array([[1e300, x], [np.conj(x), -1e300]]), proj)
        assert main(["forms", str(psi), str(proj)]) == 2
        assert capsys.readouterr().err == "error: projector is not idempotent\n"


def _check_row_json(name, passed, residual, witness):
    """One check row of a verify --json report, as printed, elapsed_s masked as T."""
    return (
        f'    {{\n      "name": "{name}",\n      "passed": {passed},\n'
        f'      "max_residual": {residual},\n      "elapsed_s": T,\n'
        f'      "witness": {witness}\n    }}'
    )


_VERIFY_PASS_JSON = (
    '{\n  "checks": [\n'
    + ",\n".join(
        _check_row_json(name, "true", "0.0", "null")
        for name in ("calibration", "dynamical", "prc", "final-reconstruction")
    )
    + '\n  ],\n  "passed": true\n}\n'
)
_VERIFY_SWAPPED_JSON = (
    '{\n  "checks": [\n'
    + ",\n".join([
        _check_row_json(
            "calibration", "false", "1.0",
            '"outcome 0, range basis vector 0: residual 1.000e+00"',
        ),
        _check_row_json("dynamical", "false", "1.0", '"outcome 0, basis vector 0: residual 1.000e+00"'),
        _check_row_json("prc", "true", "0.0", "null"),
        _check_row_json("final-reconstruction", "true", "0.0", "null"),
    ])
    + '\n  ],\n  "passed": false\n}\n'
)

# (argv, exit code, exact stdout with the time column and elapsed_s masked as T)
EXACT_OUTPUT = {
    "build": (["build", "obs.json", "--out", "built.json"], 0,
              "wrote model with 2 outcomes (dim_a=2, dim_b=2) to built.json\n"),
    "build-json": (["--json", "build", "obs.json", "--out", "built.json"], 0,
                   '{\n  "out": "built.json",\n  "dim_a": 2,\n  "dim_b": 2,\n  "outcomes": 2\n}\n'),
    "verify": (["verify", "model.json"], 0,
               "check                 passed  max_residual  time\n"
               "calibration           yes     0.000e+00     T\n"
               "dynamical             yes     0.000e+00     T\n"
               "prc                   yes     0.000e+00     T\n"
               "final-reconstruction  yes     0.000e+00     T\n"
               "overall: PASS\n"),
    "verify-json": (["verify", "model.json", "--json"], 0, _VERIFY_PASS_JSON),
    "verify-swapped": (["verify", "swapped.json"], 1,
                       "check                 passed  max_residual  time\n"
                       "calibration           NO      1.000e+00     T\n"
                       "  calibration: outcome 0, range basis vector 0: residual 1.000e+00\n"
                       "dynamical             NO      1.000e+00     T\n"
                       "  dynamical: outcome 0, basis vector 0: residual 1.000e+00\n"
                       "prc                   yes     0.000e+00     T\n"
                       "final-reconstruction  yes     0.000e+00     T\n"
                       "overall: FAIL\n"),
    "verify-swapped-json": (["--json", "verify", "swapped.json"], 1, _VERIFY_SWAPPED_JSON),
    "collapse": (["collapse", "model.json", "phi68.json", "--n", "1000", "--seed", "7"], 0,
                 "outcome  weight                  count\n"
                 "0        0.36                    361\n"
                 "1        0.6400000000000001      639\n"
                 "butchered trace residual: 0.000e+00\n"
                 "total: 1000  seed: 7  generator: pcg64\n"),
    "collapse-json": (["--json", "collapse", "model.json", "phi68.json", "--n", "1000", "--seed", "7"],
                      0,
                      '{\n  "outcomes": [\n    0,\n    1\n  ],\n'
                      '  "weights": [\n    0.36,\n    0.6400000000000001\n  ],\n'
                      '  "counts": [\n    361,\n    639\n  ],\n'
                      '  "butcher_trace_residual": 0.0,\n  "total": 1000,\n'
                      '  "seed": 7,\n  "generator": "pcg64"\n}\n'),
    "forms": (["forms", "phi68.json", "proj.json"], 0,
              "expectation_form: 0.36\nborn_form: 0.36\ntrace_form: 0.36\n"
              "max pairwise difference: 0.000e+00\n"),
    "forms-json": (["--json", "forms", "phi68.json", "proj.json"], 0,
                   '{\n  "expectation_form": 0.36,\n  "born_form": 0.36,\n'
                   '  "trace_form": 0.36,\n  "max_pairwise_diff": 0.0\n}\n'),
}


@pytest.mark.parametrize("run", sorted(EXACT_OUTPUT))
def test_exact_output(run, workspace, monkeypatch, capsys):
    """Every byte of stdout, text and --json, with only the timings masked.

    The inputs keep the arithmetic exact or nearly so: a qubit Z model, its
    pointer-swapped negative, phi = (0.6, 0.8) and the projector |0><0|.
    """
    monkeypatch.chdir(workspace)
    save_vector(np.array([0.6, 0.8], dtype=complex), "phi68.json")
    save_matrix(np.diag([1.0, 0.0]), "proj.json")
    argv, code, expected = EXACT_OUTPUT[run]
    assert main(argv) == code
    captured = capsys.readouterr()
    out = re.sub(r"\d+\.\d{3}s$", "T", captured.out, flags=re.MULTILINE)
    out = re.sub(r'"elapsed_s": [-+.e\d]+', '"elapsed_s": T', out)
    assert out == expected
    assert captured.err == ""
