"""Command-line surface: build models, verify them, collapse, evaluate forms.

Exit codes: 0 all checks passed, 1 a check failed, 2 unreadable or invalid
input. With --json every report is a single machine-readable document with
the same content as the text output.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from .branches import check_prc, decompose_final
from .collapse import sample, weights
from .linalg import DEFAULT_EPS, uniform_ket, validate_tolerance, validate_unit_state
from .measurement import CheckReport, build_canonical_model, check_calibration, check_dynamical
from .measurement import premeasure
from .modelio import (
    ModelFormatError,
    load_matrix,
    load_model,
    load_observable,
    load_vector,
    save_model,
)
from .probability import forms_triple


def _print_suite(rows: list[tuple[str, CheckReport, float]], as_json: bool) -> int:
    """Print (name, report, seconds) rows; the exit code, 0 iff every check passed."""
    passed = all(report.passed for _, report, _ in rows)
    if as_json:
        doc = {
            "checks": [
                {
                    "name": name,
                    "passed": bool(report.passed),
                    "max_residual": float(report.max_residual),
                    "elapsed_s": elapsed,
                    "witness": report.witness,
                }
                for name, report, elapsed in rows
            ],
            "passed": passed,
        }
        print(json.dumps(doc, indent=2))
    else:
        name_width = max(len(name) for name, _, _ in rows)
        print(f"{'check':<{name_width}}  passed  max_residual  time")
        for name, report, elapsed in rows:
            flag = "yes" if report.passed else "NO"
            print(f"{name:<{name_width}}  {flag:<6}  {report.max_residual:<12.3e}  {elapsed:.3f}s")
            if report.witness is not None:
                print(f"  {name}: {report.witness}")
        print(f"overall: {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


def _cmd_build(args) -> int:
    observable = load_observable(args.observable, args.tol)
    model = build_canonical_model(observable)
    save_model(model, args.out)
    if args.json:
        doc = {
            "out": str(args.out),
            "dim_a": model.dim_a,
            "dim_b": model.dim_b,
            "outcomes": model.outcomes,
        }
        print(json.dumps(doc, indent=2))
    else:
        print(
            f"wrote model with {model.outcomes} outcomes "
            f"(dim_a={model.dim_a}, dim_b={model.dim_b}) to {args.out}"
        )
    return 0


def _timed(name: str, fn) -> tuple[str, CheckReport, float]:
    start = time.perf_counter()
    report = fn()
    return name, report, time.perf_counter() - start


def _load_phi(path, model, tol: float) -> np.ndarray:
    """Object state file, checked to be a finite unit vector of shape (dim_a,)."""
    phi = load_vector(path)
    try:
        return validate_unit_state(phi, model.dim_a, tol)
    except ValueError as exc:
        raise ModelFormatError(f"phi: {exc}") from exc


def _cmd_verify(args) -> int:
    tol = args.tol
    model = load_model(args.model, tol)
    phi = uniform_ket(model.dim_a) if args.phi is None else _load_phi(args.phi, model, tol)

    def reconstruction() -> CheckReport:
        final = premeasure(model, phi)
        residual = float(np.linalg.norm(decompose_final(model, phi, tol).reconstruct() - final))
        return CheckReport(residual <= tol, [residual], residual)

    return _print_suite(
        [
            _timed("calibration", lambda: check_calibration(model, tol)),
            _timed("dynamical", lambda: check_dynamical(model, tol)),
            _timed("prc", lambda: check_prc(model, phi, tol)),
            _timed("final-reconstruction", reconstruction),
        ],
        args.json,
    )


def _cmd_collapse(args) -> int:
    tol = args.tol
    model = load_model(args.model, tol)
    phi = _load_phi(args.phi, model, tol)
    dist = weights(phi, model.observable, tol)
    dec = decompose_final(model, phi, tol)  # trace sum_kept w_k ||beta_k||^2, no dim^2 array
    norms = np.linalg.norm(dec.branch_states, axis=1) ** 2
    trace_residual = abs(float(dist.weights[dec.outcomes] @ norms) - 1.0)
    report = sample(dist, args.n, args.seed)

    if args.json:
        doc = {
            "outcomes": [int(k) for k in dist.outcomes],
            "weights": [float(w) for w in dist.weights],
            "counts": [int(c) for c in report.counts],
            "butcher_trace_residual": trace_residual,
            "total": report.total,
            "seed": report.seed,
            "generator": report.generator,
        }
        print(json.dumps(doc, indent=2))
        return 0
    print("outcome  weight                  count")
    for k, w, c in zip(dist.outcomes, dist.weights, report.counts):
        print(f"{int(k):<7d}  {float(w)!r:<22}  {int(c)}")
    print(f"butchered trace residual: {trace_residual:.3e}")
    print(f"total: {report.total}  seed: {report.seed}  generator: {report.generator}")
    return 0


def _cmd_forms(args) -> int:
    tol = args.tol
    triple = forms_triple(load_vector(args.psi), load_matrix(args.projector), tol)
    if args.json:
        doc = {
            "expectation_form": triple.expectation_form,
            "born_form": triple.born_form,
            "trace_form": triple.trace_form,
            "max_pairwise_diff": triple.max_pairwise_diff,
        }
        print(json.dumps(doc, indent=2))
        return 0
    print(f"expectation_form: {triple.expectation_form!r}")
    print(f"born_form: {triple.born_form!r}")
    print(f"trace_form: {triple.trace_form!r}")
    print(f"max pairwise difference: {triple.max_pairwise_diff:.3e}")
    return 0


def _add_common_flags(parser: argparse.ArgumentParser, top: bool) -> None:
    # subparsers use SUPPRESS so an absent flag never clobbers a value
    # given before the subcommand
    parser.add_argument(
        "--tol",
        type=float,
        default=DEFAULT_EPS if top else argparse.SUPPRESS,
        help="numerical tolerance (default 1e-9)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        default=False if top else argparse.SUPPRESS,
        help="emit machine-readable JSON reports",
    )


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unimeas",
        description="Build, verify, and collapse premeasurement models.",
    )
    _add_common_flags(parser, top=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build a canonical model from an observable file")
    p_build.add_argument("observable", help="JSON file: Hermitian matrix or spectral form")
    p_build.add_argument("--out", required=True, help="path for the model file")
    _add_common_flags(p_build, top=False)
    p_build.set_defaults(handler=_cmd_build)

    p_verify = sub.add_parser("verify", help="run the condition checks on a model file")
    p_verify.add_argument("model", help="JSON model file")
    p_verify.add_argument(
        "--phi", default=None, help="object state file (default: uniform superposition)"
    )
    _add_common_flags(p_verify, top=False)
    p_verify.set_defaults(handler=_cmd_verify)

    p_collapse = sub.add_parser("collapse", help="weights, butchered state, sampled counts")
    p_collapse.add_argument("model", help="JSON model file")
    p_collapse.add_argument("phi", help="object state file")
    p_collapse.add_argument("--n", type=int, default=100000, help="number of draws")
    p_collapse.add_argument("--seed", type=int, default=0, help="sampling seed (uint64)")
    _add_common_flags(p_collapse, top=False)
    p_collapse.set_defaults(handler=_cmd_collapse)

    p_forms = sub.add_parser("forms", help="evaluate the three probability forms")
    p_forms.add_argument("psi", help="state vector file")
    p_forms.add_argument("projector", help="projector matrix file")
    _add_common_flags(p_forms, top=False)
    p_forms.set_defaults(handler=_cmd_forms)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        validate_tolerance(args.tol)
        return args.handler(args)
    except (ModelFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
