from __future__ import annotations

import dataclasses
import json
import re

import numpy as np
import pytest
from support import z_model

from unimeas.branches import verify
from unimeas.cli import main
from unimeas.linalg import uniform_ket
from unimeas.modelio import (
    ModelFormatError,
    load_model,
    model_to_document,
    save_matrix,
    save_model,
    save_vector,
)
from unimeas.rand import rand_model, swap_pointer


@pytest.fixture
def workspace(tmp_path):
    """Observable, built model, and state files for a qubit Z measurement."""
    obs = tmp_path / "obs.json"
    save_matrix(np.diag([1.0, -1.0]), obs)
    model_path = tmp_path / "model.json"
    model = z_model()
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
        direct = z_model()
        np.testing.assert_array_equal(loaded.isometry, direct.isometry)

    def test_identity_observable_single_pointer_dim(self, tmp_path, capsys):
        obs = tmp_path / "eye.json"
        save_matrix(np.eye(2), obs)
        out_path = tmp_path / "built.json"
        assert main(["build", str(obs), "--out", str(out_path)]) == 0
        capsys.readouterr()
        assert load_model(out_path).dim_b == 1

    def test_huge_degenerate_observable(self, tmp_path, capsys):
        obs, out_path = tmp_path / "huge.json", tmp_path / "built.json"
        save_matrix(np.diag([1.7e308, 1.7e308]), obs)
        assert main(["build", str(obs), "--out", str(out_path)]) == 0
        assert capsys.readouterr().err == ""
        assert load_model(out_path).observable.eigenvalues.tolist() == [1.7e308]

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
        for name in ("calibration", "dynamical", "prc"):
            assert name in out

    def test_pointer_swapped_fails_naming_outcome(self, workspace, capsys):
        assert main(["verify", str(workspace / "swapped.json")]) == 1
        out = capsys.readouterr().out
        assert "overall: FAIL" in out
        assert "outcome 0" in out

    def test_explicit_phi(self, workspace, capsys):
        code = main(["verify", str(workspace / "model.json"), "--phi", str(workspace / "eigen.json")])
        assert code == 0

    def test_branches_below_tolerance_pass(self, tmp_path, capsys):
        """Two amplitudes of 0.8e-9, below the tolerance: their branches are dropped, and the
        canonical model of diag(0, 1, 2) still passes every check on that state."""
        obs, model, phi = tmp_path / "obs.json", tmp_path / "model.json", tmp_path / "phi.json"
        save_matrix(np.diag([0.0, 1.0, 2.0]), obs)
        a = 0.8e-9
        save_vector(np.array([np.sqrt(1.0 - 2.0 * a * a), a, a]), phi)
        assert main(["build", str(obs), "--out", str(model)]) == 0
        capsys.readouterr()
        assert main(["verify", str(model), "--phi", str(phi)]) == 0
        assert capsys.readouterr().out.endswith("overall: PASS\n")

    def test_identity_interaction_fails_prc(self, workspace, capsys):
        """The identity interaction leaves the pointer at |0>, so outcome 0 gets pointer
        probability 1 against object probability 1/2."""
        identity = workspace / "identity.json"
        z = load_model(workspace / "model.json")
        save_model(dataclasses.replace(z, isometry=np.eye(4)[:, ::2]), identity)
        args = ["--json", "verify", str(identity), "--phi", str(workspace / "phi.json")]
        assert main(args) == 1
        prc = {row["name"]: row for row in json.loads(capsys.readouterr().out)["checks"]}["prc"]
        assert not prc["passed"] and prc["witness"].startswith("outcome 0:")

    def test_wrong_phi_dimension_exits_2(self, workspace, tmp_path, capsys):
        phi3 = tmp_path / "phi3.json"
        save_vector(uniform_ket(3), phi3)
        assert main(["verify", str(workspace / "model.json"), "--phi", str(phi3)]) == 2
        assert "phi" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify", "collapse"])
    def test_huge_phi_exits_2_quietly(self, command, workspace, capsys):
        """phi's sum of squares overflows; the refusal is the message alone, with the true norm."""
        phi = workspace / "huge.json"
        save_vector(np.array([1e200, 1e200]), phi)
        args = ["--phi", str(phi)] if command == "verify" else [str(phi)]
        assert main([command, str(workspace / "model.json"), *args]) == 2
        message = "error: phi: state norm 1.414213562373095e+200 is not 1 within 1e-09\n"
        assert capsys.readouterr().err == message

    def test_outcome_count_mismatch_exits_2(self, tmp_path, capsys, outcome_mismatch_document):
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(outcome_mismatch_document))
        assert main(["verify", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: observable has 2 outcomes, pointer has 3\n"
        assert captured.out == ""

    def test_transposed_isometry_exits_2(self, tmp_path, capsys):
        doc = model_to_document(z_model())
        doc["isometry"] = [list(column) for column in zip(*doc["isometry"])]
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(doc))
        assert main(["verify", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: isometry: shape (2, 4), expected (4, 2)\n"
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
        assert [c["name"] for c in doc["checks"]] == ["calibration", "dynamical", "prc"]
        assert all(c["max_residual"] <= 1e-10 for c in doc["checks"])

    def test_json_rows_are_the_verify_table(self, workspace, capsys):
        assert main(["--json", "verify", str(workspace / "swapped.json")]) == 1
        names = [row["name"] for row in json.loads(capsys.readouterr().out)["checks"]]
        model = load_model(workspace / "swapped.json")
        assert names == [name for name, _ in verify(model, uniform_ket(model.dim_a))]

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
        for name in ("calibration", "dynamical", "prc")
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
               "check        passed  max_residual  time\n"
               "calibration  yes     0.000e+00     T\n"
               "dynamical    yes     0.000e+00     T\n"
               "prc          yes     0.000e+00     T\n"
               "overall: PASS\n"),
    "verify-json": (["verify", "model.json", "--json"], 0, _VERIFY_PASS_JSON),
    "verify-swapped": (["verify", "swapped.json"], 1,
                       "check        passed  max_residual  time\n"
                       "calibration  NO      1.000e+00     T\n"
                       "  calibration: outcome 0, range basis vector 0: residual 1.000e+00\n"
                       "dynamical    NO      1.000e+00     T\n"
                       "  dynamical: outcome 0, basis vector 0: residual 1.000e+00\n"
                       "prc          yes     0.000e+00     T\n"
                       "overall: FAIL\n"),
    "verify-swapped-json": (["--json", "verify", "swapped.json"], 1, _VERIFY_SWAPPED_JSON),
    "collapse": (["collapse", "model.json", "phi68.json", "--n", "1000", "--seed", "7"], 0,
                 "outcome  weight                  count\n"
                 "0        0.36                    361\n"
                 "1        0.6400000000000001      639\n"
                 "total: 1000  seed: 7  generator: pcg64\n"),
    "collapse-json": (["--json", "collapse", "model.json", "phi68.json", "--n", "1000", "--seed", "7"],
                      0,
                      '{\n  "outcomes": [\n    0,\n    1\n  ],\n'
                      '  "weights": [\n    0.36,\n    0.6400000000000001\n  ],\n'
                      '  "counts": [\n    361,\n    639\n  ],\n'
                      '  "total": 1000,\n'
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
