from __future__ import annotations

import dataclasses
import json
import re
import time
from pathlib import Path

import numpy as np
import pytest
from support import bench_workloads, lifted_pointer, z_model

from unimeas.branches import check_prc, verify
from unimeas.cli import main
from unimeas.collapse import OutcomeDistribution, sample, weights
from unimeas.linalg import uniform_ket
from unimeas.measurement import build_canonical_model, premeasure
from unimeas.modelio import (
    ModelFormatError,
    load_model,
    model_to_document,
    save_matrix,
    save_model,
    save_vector,
)
from unimeas.rand import perturb_model, rand_hermitian, rand_ket, rand_model, rand_projector, swap_pointer
from unimeas.spectral import spectral_decompose


@pytest.fixture
def workspace(tmp_path, monkeypatch):
    """The working directory, holding observable, model and state files for a qubit Z measurement."""
    monkeypatch.chdir(tmp_path)
    save_matrix(np.diag([1.0, -1.0]), "obs.json")
    model = z_model()
    save_model(model, "model.json")
    save_vector(uniform_ket(2), "phi.json")
    save_vector(np.array([1.0, 0.0], dtype=complex), "eigen.json")
    save_model(swap_pointer(model), "swapped.json")
    return tmp_path


@pytest.fixture
def cli(workspace, capsys):
    """argv -> (exit code, stdout, stderr) of main, run in the workspace."""

    def run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run


def _write(name: str, doc) -> str:
    """Write doc as JSON to the file name in the working directory; return the name."""
    Path(name).write_text(json.dumps(doc))
    return name


class TestBuild:
    def test_build_then_verify(self, cli):
        assert cli("build", "obs.json", "--out", "built.json")[0] == 0
        assert cli("verify", "built.json")[0] == 0

    def test_built_file_matches_in_memory_model(self, cli):
        cli("build", "obs.json", "--out", "built.json")
        np.testing.assert_array_equal(load_model("built.json").isometry, z_model().isometry)

    def test_identity_observable_single_pointer_dim(self, cli):
        save_matrix(np.eye(2), "eye.json")
        assert cli("build", "eye.json", "--out", "built.json")[0] == 0
        assert load_model("built.json").dim_b == 1

    def test_huge_degenerate_observable(self, cli):
        save_matrix(np.diag([1.7e308, 1.7e308]), "huge.json")
        assert cli("build", "huge.json", "--out", "built.json")[::2] == (0, "")
        assert load_model("built.json").observable.eigenvalues.tolist() == [1.7e308]

    def test_non_hermitian_observable_exits_2(self, cli):
        save_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]), "bad.json")
        message = "error: observable: observable is not Hermitian (defect 1.000e+00)\n"
        assert cli("build", "bad.json", "--out", "x.json") == (2, "", message)

    def test_json_report(self, cli):
        code, out, _ = cli("--json", "build", "obs.json", "--out", "built.json")
        doc = json.loads(out)
        assert code == 0 and doc["dim_a"] == 2 and doc["dim_b"] == 2


class TestVerify:
    def test_canonical_model_passes(self, cli):
        code, out, _ = cli("verify", "model.json")
        assert code == 0 and "overall: PASS" in out
        for name in ("calibration", "dynamical", "prc"):
            assert name in out

    def test_pointer_swapped_fails_naming_outcome(self, cli):
        code, out, _ = cli("verify", "swapped.json")
        assert code == 1 and "overall: FAIL" in out and "outcome 0" in out

    def test_explicit_phi(self, cli):
        assert cli("verify", "model.json", "--phi", "eigen.json")[0] == 0

    def test_branches_below_tolerance_pass(self, cli):
        """Two amplitudes of 0.8e-9, below the tolerance: their branches are dropped, and the
        canonical model of diag(0, 1, 2) still passes every check on that state."""
        save_matrix(np.diag([0.0, 1.0, 2.0]), "obs3.json")
        a = 0.8e-9
        save_vector(np.array([np.sqrt(1.0 - 2.0 * a * a), a, a]), "phi3.json")
        assert cli("build", "obs3.json", "--out", "model3.json")[0] == 0
        code, out, _ = cli("verify", "model3.json", "--phi", "phi3.json")
        assert code == 0 and out.endswith("overall: PASS\n")

    def test_identity_interaction_fails_prc(self, cli):
        """The identity interaction leaves the pointer at |0>, so outcome 0 gets pointer
        probability 1 against object probability 1/2."""
        save_model(dataclasses.replace(load_model("model.json"), isometry=np.eye(4)[:, ::2]), "identity.json")
        code, out, _ = cli("--json", "verify", "identity.json", "--phi", "phi.json")
        prc = {row["name"]: row for row in json.loads(out)["checks"]}["prc"]
        assert code == 1 and not prc["passed"] and prc["witness"].startswith("outcome 0:")

    def test_wrong_phi_dimension_exits_2(self, cli):
        save_vector(uniform_ket(3), "phi3.json")
        message = "error: phi has shape (3,), expected (2,)\n"
        assert cli("verify", "model.json", "--phi", "phi3.json") == (2, "", message)

    @pytest.mark.parametrize("command", ["verify", "collapse"])
    def test_huge_phi_exits_2_quietly(self, command, cli):
        """phi's sum of squares overflows; the refusal is the message alone, with the true norm."""
        save_vector(np.array([1e200, 1e200]), "huge.json")
        args = ["--phi", "huge.json"] if command == "verify" else ["huge.json"]
        message = "error: phi norm 1.414213562373095e+200 is not 1 within 1e-09\n"
        assert cli(command, "model.json", *args) == (2, "", message)

    def test_outcome_count_mismatch_exits_2(self, cli, outcome_mismatch_document):
        message = "error: observable has 2 outcomes, pointer has 3\n"
        assert cli("verify", _write("bad.json", outcome_mismatch_document)) == (2, "", message)

    def test_transposed_isometry_exits_2(self, cli):
        doc = model_to_document(z_model())
        doc["isometry"] = [list(column) for column in zip(*doc["isometry"])]
        message = "error: isometry: shape (2, 4), expected (4, 2)\n"
        assert cli("verify", _write("bad.json", doc)) == (2, "", message)

    def test_wrong_size_pointer_projector_exits_2(self, cli, rng, dense_document):
        doc = dense_document(rand_model(3, rng))
        doc["pointer"]["projectors"][1] = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
        message = "error: pointer: projector 1 has shape (2, 2), expected (3, 3)\n"
        assert cli("verify", _write("bad.json", doc)) == (2, "", message)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_pointer_projector_exits_2_quietly(self, cli, rng, dense_document):
        """A finite entry of 1e300 overflows the idempotency product; no numpy warning leaks."""
        doc = dense_document(rand_model(3, rng))
        doc["pointer"]["projectors"][1][0][0] = [1e300, 0.0]
        with pytest.raises(ModelFormatError, match="^pointer: projector 1 is not idempotent$"):
            load_model(_write("bad.json", doc))
        assert cli("verify", "bad.json") == (2, "", "error: pointer: projector 1 is not idempotent\n")

    def test_uniformly_wrong_size_observable_exits_2(self, cli, rng, dense_document):
        doc = dense_document(rand_model(3, rng))
        doc["observable"]["projectors"] = [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]] * 3
        message = "error: observable: projector 0 has shape (2, 2), expected (3, 3)\n"
        assert cli("verify", _write("bad.json", doc)) == (2, "", message)

    def test_truncated_file_exits_2(self, cli):
        Path("trunc.json").write_text('{"dim_a": 2,')
        code, out, err = cli("verify", "trunc.json")
        assert code == 2 and out == "" and err.startswith("error: trunc.json: invalid JSON (")

    def test_missing_file_exits_2(self, cli):
        code, out, err = cli("verify", "absent.json")
        assert code == 2 and out == "" and err.startswith("error: cannot read absent.json: ")

    def test_bad_tolerance_exits_2(self, cli):
        assert cli("--tol", "0", "verify", "model.json")[0] == 2

    def test_flags_accepted_after_subcommand(self, cli):
        code, out, _ = cli("verify", "model.json", "--json", "--tol", "1e-8")
        assert code == 0 and json.loads(out)["passed"] is True

    def test_flag_before_subcommand_survives(self, cli):
        assert cli("--tol", "0", "verify", "model.json", "--json")[0] == 2

    def test_json_report(self, cli):
        code, out, _ = cli("--json", "verify", "model.json")
        doc = json.loads(out)
        assert code == 0 and doc["passed"] is True
        assert [c["name"] for c in doc["checks"]] == ["calibration", "dynamical", "prc"]
        assert all(c["max_residual"] <= 1e-10 for c in doc["checks"])

    def test_json_rows_are_the_verify_table(self, cli):
        code, out, _ = cli("--json", "verify", "swapped.json")
        rows = verify(load_model("swapped.json"), uniform_ket(2))
        assert code == 1 and [row["name"] for row in json.loads(out)["checks"]] == [name for name, _ in rows]

    def test_json_report_on_failure(self, cli):
        code, out, _ = cli("--json", "verify", "swapped.json")
        doc = json.loads(out)
        assert code == 1 and doc["passed"] is False
        failed = [c for c in doc["checks"] if not c["passed"]]
        assert failed and all("outcome" in c["witness"] for c in failed)


# command -> its argv with bad.json as the first file it loads, or as its state or projector file
UNPARSEABLE = {
    "build": ["build", "bad.json", "--out", "built.json"],
    "verify": ["verify", "bad.json"],
    "collapse": ["collapse", "model.json", "bad.json"],
    "forms": ["forms", "phi.json", "bad.json"],
}


@pytest.mark.parametrize("command", sorted(UNPARSEABLE))
def test_unparseable_file_exits_2(command, cli):
    """JSON nested 100000 deep is refused with its file named and exit 2, not with a
    RecursionError's traceback."""
    Path("bad.json").write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = cli(*UNPARSEABLE[command])
    assert code == 2 and out == "" and err.startswith("error: bad.json: invalid JSON (")
    assert not Path("built.json").exists()


class TestCollapse:
    def test_weights_and_counts(self, cli):
        args = ["collapse", "model.json", "phi.json", "--n", "100000", "--seed", "42"]
        assert cli(*args)[0] == 0
        code, out, _ = cli("--json", *args)
        doc = json.loads(out)
        assert code == 0
        np.testing.assert_allclose(doc["weights"], [0.5, 0.5], atol=1e-12)
        for count in doc["counts"]:
            assert abs(count - 50000) <= 632
        assert doc["seed"] == 42 and doc["generator"] == "pcg64"

    def test_eigenstate_all_counts_on_one_outcome(self, cli):
        code, out, _ = cli("--json", "collapse", "model.json", "eigen.json", "--n", "5000")
        assert code == 0 and json.loads(out)["counts"] == [5000, 0]

    def test_repeat_same_seed_byte_identical(self, cli):
        args = ["collapse", "model.json", "phi.json", "--seed", "42"]
        first = cli(*args)
        assert first[0] == 0 and cli(*args) == first

    def test_zero_n_exits_2(self, cli):
        assert cli("collapse", "model.json", "phi.json", "--n", "0")[0] == 2

    def test_n_beyond_int64_exits_2(self, cli):
        assert cli("collapse", "model.json", "phi.json", "--n", str(2**63))[0] == 2

    def test_negative_seed_exits_2(self, cli):
        assert cli("collapse", "model.json", "phi.json", "--seed", "-1")[0] == 2

    def test_seed_beyond_uint64_exits_2(self, cli):
        code, out, err = cli("collapse", "model.json", "phi.json", "--seed", str(2**64))
        assert code == 2 and "uint64" in err and out == ""

    def test_unnormalized_phi_exits_2(self, cli):
        save_vector(np.array([3.0, 4.0], dtype=complex), "phi34.json")
        message = "error: phi norm 5.0 is not 1 within 1e-09\n"
        assert cli("collapse", "model.json", "phi34.json") == (2, "", message)

    @pytest.mark.parametrize("negative", ["swapped", "perturbed"])
    def test_negative_model_samples_pointer_weights_and_exits_1(self, negative, cli):
        """On a joint-256 negative, collapse samples the pointer weights, which differ from the
        object weights, and fails with check_prc's verdict on the same state."""
        rng = np.random.default_rng(0)
        model = build_canonical_model(spectral_decompose(rand_hermitian(16, rng)))
        phi = rand_ket(16, rng)
        model = swap_pointer(model) if negative == "swapped" else perturb_model(model, rng)
        save_model(model, "negative.json")
        save_vector(phi, "phi16.json")
        code, out, _ = cli("--json", "collapse", "negative.json", "phi16.json")
        doc = json.loads(out)
        prc = check_prc(model, phi)
        assert code == 1
        assert not doc["passed"] and doc["witness"] == prc.witness and "outcome" in doc["witness"]
        assert doc["max_residual"] == prc.max_residual
        assert doc["object_weights"] == weights(phi, model.observable).weights.tolist()
        final = premeasure(model, phi)
        pointer_weights = [np.linalg.norm(lifted_pointer(model, k) @ final) ** 2 for k in range(16)]
        np.testing.assert_allclose(doc["weights"], pointer_weights, rtol=0, atol=1e-12)
        assert np.max(np.abs(np.subtract(doc["weights"], doc["object_weights"]))) > 1e-3
        assert doc["counts"] == sample(OutcomeDistribution(doc["weights"]), 100000, 0).counts.tolist()
        assert doc["total"] == sum(doc["counts"]) == 100000

    @pytest.mark.parametrize("seed", range(6))
    def test_exact_model_counts_match_object_weights(self, seed, cli, workspace):
        """On the benchmark's CLI inputs, the built model's pointer weights lie within 1e-15 of
        the object weights and give the same seeded counts, which the benchmark compares with."""
        pipeline = bench_workloads().CliPipeline(seed, workspace)
        for inp in [*pipeline.inputs, pipeline.warmup_input]:
            assert cli("build", str(inp.observable), "--out", str(inp.model))[0] == 0
            code, out, _ = cli("--json", "collapse", str(inp.model), str(inp.phi), "--seed", str(inp.seed))
            doc = json.loads(out)
            assert code == 0 and doc["passed"] and doc["counts"] == inp.counts.tolist()
            np.testing.assert_allclose(doc["weights"], inp.weights, rtol=0, atol=1e-15)


def _forms(cli, psi, projector, *flags):
    """cli's result for forms on psi and projector, written to psi.json and proj.json."""
    save_vector(np.asarray(psi, dtype=complex), "psi.json")
    save_matrix(projector, "proj.json")
    return cli(*flags, "forms", "psi.json", "proj.json")


class TestForms:
    def test_eigenstate_triple(self, cli):
        code, out, _ = _forms(cli, [1.0, 0.0], np.diag([1.0, 0.0]), "--json")
        doc = json.loads(out)
        assert code == 0
        for form in ("expectation_form", "born_form", "trace_form"):
            assert doc[form] == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_state_triple(self, cli):
        code, out, _ = _forms(cli, [1.0, 0.0], np.diag([0.0, 1.0]), "--json")
        doc = json.loads(out)
        assert code == 0 and doc["expectation_form"] == pytest.approx(0.0, abs=1e-12)
        assert doc["max_pairwise_diff"] <= 1e-12

    def test_random_fixture_agreement(self, cli, rng):
        code, out, _ = _forms(cli, rand_ket(4, rng), rand_projector(4, 2, rng), "--json")
        assert code == 0 and json.loads(out)["max_pairwise_diff"] <= 1e-12

    def test_unnormalized_psi_exits_2(self, cli):
        message = "error: state norm 5.0 is not 1 within 1e-09\n"
        assert _forms(cli, [3.0, 4.0], np.diag([1.0, 0.0])) == (2, "", message)

    def test_invalid_projector_exits_2(self, cli):
        assert _forms(cli, [1.0, 0.0], np.diag([2.0, 0.0])) == (2, "", "error: projector is not idempotent\n")

    def test_projector_whose_square_is_nan_exits_2(self, cli):
        """Finite entries whose square overflows to nan are refused, not reported as forms."""
        x = 1e300 + 1e300j
        square_nan = np.array([[1e300, x], [np.conj(x), -1e300]])
        assert _forms(cli, [1.0, 0.0], square_nan) == (2, "", "error: projector is not idempotent\n")


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
                 "total: 1000  seed: 7  generator: pcg64\n"
                 "prc: max_residual 0.000e+00  PASS\n"),
    "collapse-json": (["--json", "collapse", "model.json", "phi68.json", "--n", "1000", "--seed", "7"],
                      0,
                      '{\n  "outcomes": [\n    0,\n    1\n  ],\n'
                      '  "weights": [\n    0.36,\n    0.6400000000000001\n  ],\n'
                      '  "object_weights": [\n    0.36,\n    0.6400000000000001\n  ],\n'
                      '  "counts": [\n    361,\n    639\n  ],\n'
                      '  "total": 1000,\n'
                      '  "seed": 7,\n  "generator": "pcg64",\n'
                      '  "max_residual": 0.0,\n  "witness": null,\n  "passed": true\n}\n'),
    "collapse-swapped": (["collapse", "swapped.json", "phi68.json", "--n", "1000", "--seed", "7"], 1,
                         "outcome  weight                  count\n"
                         "0        0.6400000000000001      639\n"
                         "1        0.36                    361\n"
                         "total: 1000  seed: 7  generator: pcg64\n"
                         "prc: max_residual 2.800e-01  FAIL\n"
                         "  prc: outcome 0: pointer probability 0.64 vs object probability 0.36\n"),
    "forms": (["forms", "phi68.json", "proj.json"], 0,
              "expectation_form: 0.36\nborn_form: 0.36\ntrace_form: 0.36\n"
              "max pairwise difference: 0.000e+00\n"),
    "forms-json": (["--json", "forms", "phi68.json", "proj.json"], 0,
                   '{\n  "expectation_form": 0.36,\n  "born_form": 0.36,\n'
                   '  "trace_form": 0.36,\n  "max_pairwise_diff": 0.0\n}\n'),
}


@pytest.mark.parametrize("run", sorted(EXACT_OUTPUT))
def test_exact_output(run, workspace, capsys):
    """Every byte of stdout, text and --json, with only the timings masked; each timing lies
    within the call's wall time.

    The inputs keep the arithmetic exact or nearly so: a qubit Z model, its
    pointer-swapped negative, phi = (0.6, 0.8) and the projector |0><0|.
    """
    save_vector(np.array([0.6, 0.8], dtype=complex), "phi68.json")
    save_matrix(np.diag([1.0, 0.0]), "proj.json")
    argv, code, expected = EXACT_OUTPUT[run]
    start = time.perf_counter()
    assert main(argv) == code
    wall = time.perf_counter() - start
    captured = capsys.readouterr()
    times = re.findall(r"(\d+\.\d{3})s$|\"elapsed_s\": ([-+.e\d]+)", captured.out, flags=re.MULTILINE)
    assert all(0 <= float(t) <= wall + 1e-3 for pair in times for t in pair if t)  # text rounds to ms
    out = re.sub(r"\d+\.\d{3}s$", "T", captured.out, flags=re.MULTILINE)
    out = re.sub(r'"elapsed_s": [-+.e\d]+', '"elapsed_s": T', out)
    assert out == expected
    assert captured.err == ""
