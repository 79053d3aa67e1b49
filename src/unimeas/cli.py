"""Command-line surface: build models, verify them, collapse, evaluate forms.

Exit codes: 0 all checks passed, 1 a check failed (collapse: prc), 2 unreadable
or invalid input. Each command's handler returns one report document and its
exit code; --json prints that document, and otherwise its text renderer turns
the same document into lines, so both modes carry the same content.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from .branches import check_prc, verify
from .collapse import OutcomeDistribution, sample, weights
from .linalg import DEFAULT_EPS, uniform_ket, validate_tolerance, validate_unit_state
from .measurement import _pointer_weights, build_canonical_model
from .modelio import (
    ModelFormatError,
    load_matrix,
    load_model,
    load_observable,
    load_vector,
    save_model,
)
from .probability import forms_triple


def _load_phi(path, model, tol: float) -> np.ndarray:
    """Object state file, checked to be a finite unit vector of shape (dim_a,)."""
    phi = load_vector(path)
    try:
        return validate_unit_state(phi, model.dim_a, tol)
    except ValueError as exc:
        raise ModelFormatError(f"phi: {exc}") from exc


def _cmd_build(args) -> tuple[dict, int]:
    observable = load_observable(args.observable, args.tol)
    model = build_canonical_model(observable)
    save_model(model, args.out)
    return {
        "out": str(args.out),
        "dim_a": model.dim_a,
        "dim_b": model.dim_b,
        "outcomes": model.outcomes,
    }, 0


def _text_build(doc: dict) -> list[str]:
    return [
        f"wrote model with {doc['outcomes']} outcomes "
        f"(dim_a={doc['dim_a']}, dim_b={doc['dim_b']}) to {doc['out']}"
    ]


def _cmd_verify(args) -> tuple[dict, int]:
    tol = args.tol
    model = load_model(args.model, tol)
    phi = uniform_ket(model.dim_a) if args.phi is None else _load_phi(args.phi, model, tol)
    checks, start = [], time.perf_counter()
    for name, report in verify(model, phi, tol):  # each check runs as its pair is reached
        elapsed = time.perf_counter() - start
        checks.append(dict(name=name, passed=report.passed, max_residual=report.max_residual,
                           elapsed_s=elapsed, witness=report.witness))
        start = time.perf_counter()
    passed = all(row["passed"] for row in checks)
    return {"checks": checks, "passed": passed}, 0 if passed else 1


def _text_verify(doc: dict) -> list[str]:
    width = max(len(row["name"]) for row in doc["checks"])
    lines = [f"{'check':<{width}}  passed  max_residual  time"]
    for row in doc["checks"]:
        name, flag = row["name"], "yes" if row["passed"] else "NO"
        residual, elapsed = row["max_residual"], row["elapsed_s"]
        lines.append(f"{name:<{width}}  {flag:<6}  {residual:<12.3e}  {elapsed:.3f}s")
        if row["witness"] is not None:
            lines.append(f"  {name}: {row['witness']}")
    return lines + [f"overall: {'PASS' if doc['passed'] else 'FAIL'}"]


def _cmd_collapse(args) -> tuple[dict, int]:
    tol = args.tol
    model = load_model(args.model, tol)
    phi = _load_phi(args.phi, model, tol)
    dist = OutcomeDistribution(_pointer_weights(model, phi))
    prc = check_prc(model, phi, tol)
    report = sample(dist, args.n, args.seed)
    return {
        "outcomes": [int(k) for k in dist.outcomes],
        "weights": [float(w) for w in dist.weights],
        "object_weights": [float(w) for w in weights(phi, model.observable, tol).weights],
        "counts": [int(c) for c in report.counts],
        "total": report.total,
        "seed": report.seed,
        "generator": report.generator,
        "max_residual": prc.max_residual,
        "witness": prc.witness,
        "passed": prc.passed,
    }, 0 if prc.passed else 1


def _text_collapse(doc: dict) -> list[str]:
    lines = ["outcome  weight                  count"]
    for k, w, c in zip(doc["outcomes"], doc["weights"], doc["counts"]):
        lines.append(f"{k:<7d}  {w!r:<22}  {c}")
    lines.append(f"total: {doc['total']}  seed: {doc['seed']}  generator: {doc['generator']}")
    lines.append(f"prc: max_residual {doc['max_residual']:.3e}  {'PASS' if doc['passed'] else 'FAIL'}")
    return lines + ([] if doc["witness"] is None else [f"  prc: {doc['witness']}"])


def _cmd_forms(args) -> tuple[dict, int]:
    triple = forms_triple(load_vector(args.psi), load_matrix(args.projector), args.tol)
    return {
        "expectation_form": triple.expectation_form,
        "born_form": triple.born_form,
        "trace_form": triple.trace_form,
        "max_pairwise_diff": triple.max_pairwise_diff,
    }, 0


def _text_forms(doc: dict) -> list[str]:
    forms = [f"{key}: {doc[key]!r}" for key in ("expectation_form", "born_form", "trace_form")]
    return forms + [f"max pairwise difference: {doc['max_pairwise_diff']:.3e}"]


def _parser() -> argparse.ArgumentParser:
    # One parent declares --tol and --json with SUPPRESS defaults, so a flag left out after
    # the subcommand never clobbers one before it; main parses into the real defaults.
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--tol", type=float, help="numerical tolerance (default 1e-9)")
    common.add_argument("--json", action="store_true", help="emit machine-readable JSON reports")
    parser = argparse.ArgumentParser(
        prog="unimeas",
        description="Build, verify, and collapse premeasurement models.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser(
        "build", parents=[common], help="build a canonical model from an observable file"
    )
    p_build.add_argument("observable", help="JSON file: Hermitian matrix or spectral form")
    p_build.add_argument("--out", required=True, help="path for the model file")
    p_build.set_defaults(handler=_cmd_build, render=_text_build)

    p_verify = sub.add_parser(
        "verify", parents=[common], help="run the condition checks on a model file"
    )
    p_verify.add_argument("model", help="JSON model file")
    p_verify.add_argument(
        "--phi", default=None, help="object state file (default: uniform superposition)"
    )
    p_verify.set_defaults(handler=_cmd_verify, render=_text_verify)

    p_collapse = sub.add_parser(
        "collapse", parents=[common], help="pointer weights, sampled counts and the prc check"
    )
    p_collapse.add_argument("model", help="JSON model file")
    p_collapse.add_argument("phi", help="object state file")
    p_collapse.add_argument("--n", type=int, default=100000, help="number of draws")
    p_collapse.add_argument("--seed", type=int, default=0, help="sampling seed (uint64)")
    p_collapse.set_defaults(handler=_cmd_collapse, render=_text_collapse)

    p_forms = sub.add_parser("forms", parents=[common], help="evaluate the three probability forms")
    p_forms.add_argument("psi", help="state vector file")
    p_forms.add_argument("projector", help="projector matrix file")
    p_forms.set_defaults(handler=_cmd_forms, render=_text_forms)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv, argparse.Namespace(tol=DEFAULT_EPS, json=False))
    try:
        validate_tolerance(args.tol)
        doc, code = args.handler(args)
        print(json.dumps(doc, indent=2) if args.json else "\n".join(args.render(doc)))
    except (ValueError, OSError) as exc:  # ModelFormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
