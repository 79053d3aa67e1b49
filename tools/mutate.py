"""Mutation audit of src/unimeas: change one site at a time and see whether a test notices.

Usage, from the repository root:

    python tools/mutate.py [MODULE ...] [--out results.jsonl]

MODULE is a module name under src/unimeas, such as `branches` or `__init__`; with none,
every module is audited. The operators, one site per mutant, are: flip a comparison at its
boundary (< and <=, > and >=, == and !=, is and is not, in and not in), swap + with - and
* with / (augmented assignments too), drop a `.conj()`, change a constant (0 to 1, 1 to 0,
2 to 1, 0.5 to 1) and drop a `not` or `~`.

Each mutant is the module's tree, mutated and written back with ast.unparse. It runs in a
temporary copy of the repository whose modules are all written that way, so that the
unmutated baseline differs from a mutant only by its mutation, and the working tree and its
.hypothesis/ stay untouched. It first runs the test files that import the mutated module
(directly, or through tests/support.py), under `-x` with a fixed hypothesis seed; a mutant
that survives them is run again on every test. A mutant counts as killed when pytest fails
and as timed out, which also counts as killed, when pytest outlives TIMEOUT_FACTOR times the
unmutated run of the same tests plus 10 s. At most JOBS pytest processes run at once, each
with one BLAS thread and at most MEMORY_LIMIT bytes of address space. The tool imports only
the standard library; CI runs it on one module, and pytest does not collect it.

Each mutant's result is one JSON line in --out. A killed mutant's line names in `killed_by`
the node id of the first failing test, read from pytest's JUnit XML report; a timed-out one has
null there. The end of the run prints one table row per module and every survivor.
"""

from __future__ import annotations

import argparse
import ast
import copy
import json
import os
import queue
import re
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path
from xml.etree import ElementTree

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "unimeas"
JOBS = 2
HYPOTHESIS_SEED = 0
TIMEOUT_FACTOR = 4
MEMORY_LIMIT = 3 << 30  # bytes of address space per pytest process
COPY_IGNORE = shutil.ignore_patterns(".git", ".hypothesis", ".pytest_cache", ".benchmarks", "__pycache__", "out")

FLIP = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq,
    ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.In: ast.NotIn, ast.NotIn: ast.In,
}
SWAP = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult}
CONSTANT = {0: 1, 1: 0, 2: 1, 0.5: 1.0}


@dataclass
class Mutant:
    module: str
    index: int  # position of the mutated node in ast.walk order
    line: int
    operator: str
    before: str
    after: str
    source: str  # the whole mutated module, unparsed


@dataclass
class Result:
    module: str
    index: int
    line: int
    operator: str
    before: str
    after: str
    status: str  # killed, timeout or survived
    stage: str  # "module" for the selected test files, "tier-1" for every test
    seconds: float
    killed_by: str | None  # node id of the first failing test; None unless killed


def _replacement(node: ast.AST):
    """(operator name, mutated copy of node) of each mutant at node."""
    if isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            if type(op) in FLIP:
                new = copy.deepcopy(node)
                new.ops[i] = FLIP[type(op)]()
                yield "compare", new
    elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAP:
        new = copy.deepcopy(node)
        new.op = SWAP[type(node.op)]()
        yield "arith", new
    elif (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "conj" and not node.args and not node.keywords
    ):
        yield "conj", copy.deepcopy(node.func.value)
    elif isinstance(node, ast.Constant) and type(node.value) in (int, float) and node.value in CONSTANT:
        yield "constant", ast.Constant(type(node.value)(CONSTANT[node.value]))
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.Not, ast.Invert)):
        yield "not", copy.deepcopy(node.operand)


def mutants(module: str) -> list[Mutant]:
    """Every mutant of src/unimeas/<module>.py."""
    source = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    tree = ast.parse(source)
    found = []
    for index, node in enumerate(ast.walk(tree)):
        for operator, new in _replacement(node):
            mutated = copy.deepcopy(tree)
            target = next(n for i, n in enumerate(ast.walk(mutated)) if i == index)
            _replace_in(mutated, target, new)
            before = ast.get_source_segment(source, node) or ast.unparse(node)
            text = ast.unparse(mutated)
            found.append(Mutant(module, index, node.lineno, operator, before, ast.unparse(new), text))
    return found


def _replace_in(tree: ast.AST, target: ast.AST, new: ast.AST) -> None:
    """Put new where target stands in tree."""
    for parent in ast.walk(tree):
        for field, value in ast.iter_fields(parent):
            if value is target:
                setattr(parent, field, new)
                return
            if isinstance(value, list) and any(v is target for v in value):
                value[[v is target for v in value].index(True)] = new
                return
    raise ValueError(f"{ast.dump(target)} is not in the tree")


def _imported_modules(path: Path) -> set[str]:
    """The unimeas modules a file imports by name, and "support" for tests/support.py;
    `from unimeas import X` counts X's owner."""
    owner = {}
    for node in ast.parse((PACKAGE / "__init__.py").read_text()).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "_EXPORTS":
            owner = {name: mod for mod, names in ast.literal_eval(node.value).items() for name in names}
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "unimeas":
                    found.add("__init__")
                elif alias.name.startswith("unimeas."):
                    found.add(alias.name.split(".")[1])
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module == "support":
                found.add("support")
            elif node.module == "unimeas":
                found.add("__init__")
                found.update(owner.get(alias.name, alias.name) for alias in node.names)
            elif node.module.startswith("unimeas."):
                found.add(node.module.split(".")[1])
    return found


def selected_tests(module: str) -> list[str]:
    """The test files that import module, or import tests/support.py when it does;
    tests/test_<module>.py first, so that most kills come early."""
    through = {module, "support"} if module in _imported_modules(ROOT / "tests" / "support.py") else {module}
    chosen = []
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        if through & _imported_modules(path):
            chosen.append(f"tests/{path.name}")
    first = f"tests/test_{module}.py"
    return sorted(chosen, key=lambda name: name != first)


def _first_failure(report: Path) -> str | None:
    """The node id of the first test case that failed or errored in pytest's JUnit XML report:
    a test, a test file that failed to import, or, for an internal error of pytest such as a
    test module exiting as it is imported, the last test file in its traceback. None when there
    is no report or it names none."""
    try:
        cases = list(ElementTree.parse(report).getroot().iter("testcase"))
    except (OSError, ElementTree.ParseError):
        return None
    for case in cases:
        fault = next((child for child in case if child.tag in ("failure", "error")), None)
        if fault is None:
            continue
        classname, name = case.get("classname", ""), case.get("name", "")
        if classname == "pytest":
            files = re.findall(r'/(tests/test_\w+\.py)", line', fault.text or "")
            return files[-1] if files else None
        # classname is the module's dotted path and any classes; a module that failed to import
        # has an empty classname and its dotted path as the name
        parts = (classname or name).split(".")
        return "::".join([f"{parts[0]}/{parts[1]}.py", *parts[2:], *([name] if classname else [])])
    return None


def pytest(workdir: Path, tests: list[str], timeout: float | None) -> tuple[str, float, str | None]:
    """("passed", "failed" or "timeout", seconds, first failing node id) of one pytest run in
    workdir."""
    env = {
        **os.environ, "PYTHONPATH": str(workdir / "src"), "PYTHONDONTWRITEBYTECODE": "1",
        "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    }
    report = workdir / "junit.xml"
    report.unlink(missing_ok=True)
    command = [
        sys.executable, "-m", "pytest", "-x", "-q", "--no-header", "-p", "no:cacheprovider",
        f"--hypothesis-seed={HYPOTHESIS_SEED}", f"--junitxml={report}", *tests,
    ]
    start = time.perf_counter()
    proc = subprocess.Popen(command, cwd=workdir, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return "timeout", time.perf_counter() - start, None
    if code == 0:
        return "passed", time.perf_counter() - start, None
    return "failed", time.perf_counter() - start, _first_failure(report)


def run(modules: list[str], out: Path) -> list[Result]:
    # the pytest processes inherit the limit; this process stays far below it
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))
    with tempfile.TemporaryDirectory(prefix="unimeas-mutate-") as scratch:
        copies = queue.Queue()
        for j in range(JOBS):
            shutil.copytree(ROOT, Path(scratch) / f"copy{j}", ignore=COPY_IGNORE)
            for path in (Path(scratch) / f"copy{j}" / "src" / "unimeas").glob("*.py"):
                # a mutant is an unparsed module, so the baseline runs on unparsed modules too
                path.write_text(ast.unparse(ast.parse(path.read_text(encoding="utf-8"))), encoding="utf-8")
            copies.put(Path(scratch) / f"copy{j}")
        plan = {m: (selected_tests(m), mutants(m)) for m in modules}
        baseline = {}
        workdir = copies.get()
        for key, tests in [("tier-1", []), *((m, t) for m, (t, _) in plan.items())]:
            verdict, seconds, _ = pytest(workdir, tests, None)
            if verdict != "passed":
                sys.exit(f"the unmutated tree fails {' '.join(tests) or 'tier-1'}")
            baseline[key] = seconds
            print(f"baseline {key}: {seconds:.1f} s, {len(tests) or 'all'} test files", flush=True)
        copies.put(workdir)

        def attempt(mutant: Mutant) -> Result:
            workdir = copies.get()
            path = workdir / "src" / "unimeas" / f"{mutant.module}.py"
            original = path.read_text(encoding="utf-8")
            try:
                path.write_text(mutant.source, encoding="utf-8")
                tests = plan[mutant.module][0]
                stage, total = "module", 0.0
                verdict, seconds, killed_by = pytest(workdir, tests, TIMEOUT_FACTOR * baseline[mutant.module] + 10)
                total += seconds
                if verdict == "passed":
                    stage = "tier-1"
                    verdict, seconds, killed_by = pytest(workdir, [], TIMEOUT_FACTOR * baseline["tier-1"] + 10)
                    total += seconds
            finally:
                path.write_text(original, encoding="utf-8")
                copies.put(workdir)
            status = {"passed": "survived", "failed": "killed", "timeout": "timeout"}[verdict]
            fields = {k: v for k, v in asdict(mutant).items() if k != "source"}
            return Result(**fields, status=status, stage=stage, seconds=round(total, 2), killed_by=killed_by)

        todo = sorted((m for _, found in plan.values() for m in found), key=lambda m: (m.module, m.line, m.index))
        print(f"{len(todo)} mutants in {len(modules)} modules", flush=True)
        results = []
        with ThreadPoolExecutor(JOBS) as pool, out.open("w", encoding="utf-8") as log:
            for i, result in enumerate(pool.map(attempt, todo), 1):
                results.append(result)
                log.write(json.dumps(asdict(result)) + "\n")
                log.flush()
                if result.status == "survived":
                    print(f"[{i}/{len(todo)}] SURVIVED {result.module}.py:{result.line} "
                          f"{result.before} -> {result.after}", flush=True)
        return results


def report(results: list[Result], modules: list[str]) -> None:
    print("| module | sites | mutants run | killed | timed out | survived |")
    print("|---|---|---|---|---|---|")
    for m in modules:
        rows = [r for r in results if r.module == m]
        count = {s: sum(r.status == s for r in rows) for s in ("killed", "timeout", "survived")}
        sites = len({r.index for r in rows})
        print(f"| {m} | {sites} | {len(rows)} | {count['killed']} | {count['timeout']} | {count['survived']} |")
    for r in results:
        if r.status == "survived":
            print(f"survivor {r.module}.py:{r.line} [{r.operator}] {r.before} -> {r.after}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    everything = sorted(p.stem for p in PACKAGE.glob("*.py"))
    parser.add_argument("modules", nargs="*", metavar="MODULE", help="default: every module")
    parser.add_argument("--out", type=Path, default=Path("mutants.jsonl"), help="JSON lines, one per mutant")
    args = parser.parse_args()
    unknown = sorted(set(args.modules) - set(everything))
    if unknown:
        parser.error(f"no module {', '.join(unknown)} in {PACKAGE}")
    args.modules = args.modules or everything
    start = time.perf_counter()
    results = run(args.modules, args.out)
    report(results, args.modules)
    print(f"wall time {time.perf_counter() - start:.0f} s")


if __name__ == "__main__":
    main()
