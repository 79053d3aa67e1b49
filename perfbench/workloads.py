"""The benchmark's workloads: seeded inputs, one op, and the op's correctness gate.

Each workload is a closed loop with one client in one process. Its inputs
are generated with unimeas.rand from the run's seed during set-up, and an op
receives only those inputs. `op` returns the op's failure reasons, empty
when every output checked out.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

from unimeas import rand
from unimeas.collapse import sample, weights
from unimeas.linalg import DEFAULT_EPS
from unimeas.measurement import MeasurementModel
from unimeas.modelio import save_matrix, save_vector
from unimeas.spectral import spectral_decompose

TOL = DEFAULT_EPS
DRAWS = 100_000
CLI_TIMEOUT_S = 60

# every public function the workloads call, by module; each call is one span
# named "<module>.<function>" in a traced run
PUBLIC = {
    "modelio": ("load_observable", "save_model", "load_model", "load_vector"),
    "linalg": ("validate_ket",),
    "spectral": ("spectral_decompose",),
    "measurement": ("build_canonical_model", "check_calibration", "check_dynamical", "premeasure"),
    "branches": ("check_prc", "decompose_final", "evolve_branch"),
    "collapse": ("weights", "butcher", "sample"),
    "mixed": ("mixed_probability",),
    "probability": ("forms_triple",),
    "rand": ("with_redundant_pointer", "perturb_model", "swap_pointer"),
}
LIBRARY_SPANS = tuple(f"{m}.{f}" for m, fs in PUBLIC.items() for f in fs) + (
    "measurement.validate",
)
CLI_COMMANDS = ("build", "verify", "collapse")


def program_api(rec) -> SimpleNamespace:
    """The program's public functions, each wrapped by the recorder."""
    api = SimpleNamespace()
    for module, names in PUBLIC.items():
        mod = importlib.import_module(f"unimeas.{module}")
        for name in names:
            setattr(api, name, rec.wrap(f"{module}.{name}", getattr(mod, name)))
    api.validate = rec.wrap("measurement.validate", MeasurementModel.validate)
    return api


@dataclass(frozen=True)
class ModelInput:
    h: np.ndarray  # Hermitian observable
    phi: np.ndarray  # object state
    rho: np.ndarray  # mixed object state
    variant: str
    seed: int  # for the variant constructor and the sampler


def _model_input(rng: np.random.Generator, dim: int, variant: str) -> ModelInput:
    if variant == "degenerate":
        # a random composition of dim into 2..dim-1 outcomes, eigenvalues
        # kept 0.4 apart as in rand.rand_observable
        k = int(rng.integers(2, dim))
        cuts = np.sort(rng.choice(np.arange(1, dim), size=k - 1, replace=False))
        mult = np.diff(np.concatenate(([0], cuts, [dim])))
        vals = np.arange(k) + rng.uniform(-0.3, 0.3, size=k)
        u = rand.rand_unitary(dim, rng)
        h = (u * np.repeat(vals, mult)) @ u.conj().T
    else:
        h = rand.rand_hermitian(dim, rng)
    return ModelInput(
        h=h,
        phi=rand.rand_ket(dim, rng),
        rho=rand.rand_density(dim, rng),
        variant=variant,
        seed=int(rng.integers(2**63)),
    )


def _close(a, b) -> bool:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) <= TOL


def check_model(api, model, inp: ModelInput, positive: bool, draws: int | None) -> list[str]:
    """Validate, run both condition checks and, on a positive model, the rest
    of the verifier chain; every output is checked against a direct formula."""
    fails = []
    api.validate(model, TOL)
    cal = api.check_calibration(model, TOL)
    dyn = api.check_dynamical(model, TOL)
    if cal.passed != positive or dyn.passed != positive:
        fails.append(
            f"{inp.variant}: calibration {cal.passed}, dynamical {dyn.passed}, expected {positive}"
        )
    if not positive and (cal.witness is None or dyn.witness is None):
        fails.append(f"{inp.variant}: failing check without a witness")
    phi = inp.phi
    projs = model.observable.projectors
    object_w = np.array([np.linalg.norm(p @ phi) ** 2 for p in projs])
    if positive:
        if not api.check_prc(model, phi, TOL).passed:
            fails.append("prc failed")
        final = api.premeasure(model, phi)
        dec = api.decompose_final(model, phi, TOL)
        if np.linalg.norm(dec.reconstruct() - final) > TOL:
            fails.append("final state not reconstructed from its branches")
        # (I (x) F_k) final, applying F_k on the instrument axis
        sectors = final.reshape(model.dim_a, model.dim_b)
        for k, f in enumerate(model.pointer.projectors):
            want = (sectors @ f.T).reshape(-1)
            if np.linalg.norm(api.evolve_branch(model, phi, k) - want) > TOL:
                fails.append(f"branch {k} does not evolve onto its pointer sector")
        dist = api.weights(phi, model.observable)
        if not _close(dist.weights, object_w):
            fails.append("weights differ from ||E_k phi||^2")
        rho = api.butcher(model, phi, TOL)
        if abs(np.trace(rho).real - 1.0) > TOL:
            fails.append("butchered state does not have unit trace")
        if draws is not None:
            counts = api.sample(dist, draws, inp.seed).counts
            w = dist.weights
            slack = 6.0 * np.sqrt(draws * w * (1.0 - w)) + 1.0
            if counts.sum() != draws or np.any(np.abs(counts - draws * w) > slack):
                fails.append(f"sampled counts {counts.tolist()} far from weights")
    e0 = projs[0]
    if not _close(api.mixed_probability(inp.rho, e0, TOL), np.trace(inp.rho @ e0).real):
        fails.append("mixed probability differs from tr(rho E_0)")
    triple = api.forms_triple(phi, e0, TOL)
    if triple.max_pairwise_diff > TOL or not _close(triple.expectation_form, object_w[0]):
        fails.append("probability forms disagree")
    return fails


class ZooVerify:
    """A seeded zoo of small models, dim_a 2..8, cycling through five variants.

    Why: the matrices are small, so per-call Python overhead and the
    small-matrix paths set the time, spread over every check layer. The
    negatives (perturbed unitary, swapped pointer) exercise the failing-check
    and witness paths. Ops do no file IO, so modelio and cli are absent.

    Every variant cycles through every dim_a in turn, so each seed's zoo has
    the same mix of sizes and the seed draws only the matrices.
    """

    VARIANTS = ("plain", "degenerate", "redundant", "perturbed", "swapped")
    POSITIVE = ("plain", "degenerate", "redundant")
    DIMS = tuple(range(2, 9))  # a degenerate model needs dim_a >= 3
    POOL = 420  # per variant 84 models, a whole number of cycles of 7 and of 6 sizes
    setup_repeats = 5
    min_ops = 100  # so that ten op times lie beyond the 90th percentile

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.inputs = []
        for j in range(self.POOL):
            variant = self.VARIANTS[j % len(self.VARIANTS)]
            dims = self.DIMS[1:] if variant == "degenerate" else self.DIMS
            dim = dims[(j // len(self.VARIANTS)) % len(dims)]
            self.inputs.append(_model_input(rng, dim, variant))
        self.warmup_input = _model_input(rng, 8, "plain")

    def op(self, api, rec, inp: ModelInput) -> list[str]:
        model = api.build_canonical_model(api.spectral_decompose(inp.h, TOL))
        if inp.variant == "redundant":
            model = api.with_redundant_pointer(model, 2, np.random.default_rng(inp.seed))
        elif inp.variant == "perturbed":
            model = api.perturb_model(model, np.random.default_rng(inp.seed))
        elif inp.variant == "swapped":
            model = api.swap_pointer(model)
        return check_model(api, model, inp, inp.variant in self.POSITIVE, DRAWS)


class LargeModel:
    """One canonical model of a non-degenerate observable at dim_a = 32.

    Why: at joint dimension 1024 dense work growing as dim^3 dominates, above
    all the Gram-Schmidt completion in build_canonical_model, then the
    dynamical check; this is where a closed-form unitary or isometry-centred
    checks show. sample, modelio and cli are absent. One 1024^2 complex
    operator is 16 MB, inside the last-level cache, so this is not a
    memory-bandwidth measurement.

    BENCHMARK.json does not schedule it: at 15-20 s per op and as long again
    for set-up, its runs do not fit the time the other workloads need to run
    long enough to be steady. Run it by name to measure the dim^3 path.
    """

    DIM = 32
    POOL = 4
    # the first full-size op runs about a quarter slower than later ones, so
    # the warm-up is full size, and set-up runs once: it costs a timed op
    setup_repeats = 1
    min_ops = 1

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.inputs = [_model_input(rng, self.DIM, "plain") for _ in range(self.POOL)]
        self.warmup_input = _model_input(rng, self.DIM, "plain")

    def op(self, api, rec, inp: ModelInput) -> list[str]:
        model = api.build_canonical_model(api.spectral_decompose(inp.h, TOL))
        return check_model(api, model, inp, positive=True, draws=None)


@dataclass(frozen=True)
class CliInput:
    observable: Path
    phi: Path
    model: Path
    seed: int
    weights: np.ndarray  # expected, from the in-process library
    counts: np.ndarray  # expected, from in-process sample with the same seed


class CliPipeline:
    """`unimeas build -> verify --phi -> collapse` as three CLI processes per op.

    Why: this is the package's end-to-end path as a user runs it. A fresh
    random observable with dim_a = 16 outcomes gives joint dimension 256 and a
    model file of about 5.7 MB, so JSON save/load and interpreter start-up
    dominate and the check layers barely show. It is the only workload that
    writes a model (once) and reads it (twice), so a save-side gain that costs
    load shows here.
    """

    DIM = 16
    POOL = 8
    STARTUP_RUNS = 5
    setup_repeats = 3
    min_ops = 1

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        workdir.mkdir(parents=True, exist_ok=True)
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(Path(rand.__file__).parents[1]))
        self.inputs = [self._make(rng, j) for j in range(self.POOL)]
        self.warmup_input = self._make(rng, self.POOL)

    def _make(self, rng: np.random.Generator, j: int) -> CliInput:
        h = rand.rand_hermitian(self.DIM, rng)
        phi = rand.rand_ket(self.DIM, rng)
        seed = int(rng.integers(2**63))
        dist = weights(phi, spectral_decompose(h, TOL))
        inp = CliInput(
            observable=self.workdir / f"observable{j}.json",
            phi=self.workdir / f"phi{j}.json",
            model=self.workdir / f"model{j}.json",
            seed=seed,
            weights=dist.weights,
            counts=sample(dist, DRAWS, seed).counts,
        )
        save_matrix(h, inp.observable)
        save_vector(phi, inp.phi)
        return inp

    def _cli(self, rec, *args: str) -> subprocess.CompletedProcess:
        with rec.span(f"cli.{args[0]}"):
            return subprocess.run(
                [sys.executable, "-m", "unimeas.cli", *args],
                capture_output=True,
                text=True,
                env=self.env,
                timeout=CLI_TIMEOUT_S,
            )

    def op(self, api, rec, inp: CliInput) -> list[str]:
        inp.model.unlink(missing_ok=True)
        procs = [
            self._cli(rec, "build", str(inp.observable), "--out", str(inp.model)),
            self._cli(rec, "verify", "--json", str(inp.model), "--phi", str(inp.phi)),
            self._cli(
                rec, "collapse", "--json", str(inp.model), str(inp.phi),
                "--n", str(DRAWS), "--seed", str(inp.seed),
            ),
        ]
        for command, proc in zip(CLI_COMMANDS, procs):
            if proc.returncode != 0:
                return [f"{command} exited {proc.returncode}: {proc.stderr.strip()[-300:]}"]
        fails = []
        verify = json.loads(procs[1].stdout)
        if not verify["passed"] or not all(c["passed"] for c in verify["checks"]):
            fails.append(f"verify report: {verify}")
        collapse = json.loads(procs[2].stdout)
        if not _close(collapse["weights"], inp.weights):
            fails.append("collapse weights differ from ||E_k phi||^2")
        if collapse["counts"] != inp.counts.tolist() or collapse["total"] != DRAWS:
            fails.append("collapse counts differ from in-process sample with the same seed")
        return fails

    def replay(self, api, rec, inp: CliInput) -> None:
        """The library calls each subcommand makes, in the CLI's order."""
        model = api.build_canonical_model(api.load_observable(inp.observable, TOL))
        copy = self.workdir / "replayed-model.json"
        api.save_model(model, copy)
        rec.count("modelio.save_model.bytes", copy.stat().st_size)
        for command in ("verify", "collapse"):
            model = api.load_model(inp.model, TOL)
            rec.count("modelio.load_model.bytes", inp.model.stat().st_size)
            phi = api.load_vector(inp.phi)
            api.validate_ket(phi, TOL)
            if command == "verify":
                api.check_calibration(model, TOL)
                api.check_dynamical(model, TOL)
                api.check_prc(model, phi, TOL)
                api.premeasure(model, phi)
                api.decompose_final(model, phi, TOL)
            else:
                dist = api.weights(phi, model.observable)
                api.butcher(model, phi, TOL)
                api.sample(dist, DRAWS, inp.seed)

    def startup_s(self) -> float:
        """Median wall time of a process that only imports unimeas.cli."""
        times = []
        for _ in range(self.STARTUP_RUNS):
            start = perf_counter()
            subprocess.run(
                [sys.executable, "-c", "import unimeas.cli"],
                env=self.env, check=True, timeout=CLI_TIMEOUT_S,
            )
            times.append(perf_counter() - start)
        return float(np.median(times))


WORKLOADS = {
    "cli_pipeline": CliPipeline,
    "zoo_verify": ZooVerify,
    "large_model": LargeModel,
}
