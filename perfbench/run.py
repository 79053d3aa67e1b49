"""Benchmark of unimeas: one seeded workload per run, untraced or traced.

    python3 perfbench/run.py --workload zoo_verify --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 50 --trace 0

Run from the repository root; the program is imported from ./src. A run
sets up (import, input generation from --seed, file writing, one warm-up op),
repeating all but the import when that is cheap, then runs ops in a closed
loop for --seconds, checking every op's outputs. It prints run metadata and a readable table, then, as its last
line, one JSON object with the keys correct, attempted, failed and metrics.
With --trace 0 the metrics are the end-to-end ones. With --trace 1 they are
per-layer ones, from spans recorded around every call the run makes into a
public function of a unimeas module; the spans are written to
perfbench/out/ when the run ends.
"""

import time

HARNESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOAD_NAMES = ("cli_pipeline", "zoo_verify", "large_model")

# what each end-to-end metric measures on the workload, as printed beside it
FIGURE_NAMES = {
    "cli_pipeline": {"op_median_s": "pipeline_s"},
    "zoo_verify": {"ops_per_s": "models_per_s", "op_p90_s": "model_p90_s"},
    "large_model": {"op_median_s": "large_verify_s"},
}


def import_program():
    """Import workloads (and with it unimeas) from this checkout's src/, or exit."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import unimeas
        import workloads
    except ImportError as exc:
        sys.exit(f"cannot import the program from {ROOT / 'src'}: {exc}")
    if Path(unimeas.__file__).resolve().parent != ROOT / "src" / "unimeas":
        sys.exit(f"unimeas imported from {unimeas.__file__}, not from {ROOT / 'src'}")
    return workloads


def blas_threads():
    import ctypes

    import numpy as np

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            fn = ctypes.CDLL(str(path)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.argtypes = []
        fn.restype = ctypes.c_int
        return fn()
    return None


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def metadata(args) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    sources = sorted((ROOT / "src").rglob("*.py"))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "threads": blas_threads(),
        },
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in sources),
    }


def attempt(fn, failures: list) -> None:
    """Run one op; count, report and survive any failure."""
    try:
        reasons = fn() or []
    except Exception:  # an op that raises is a failed op, never the end of the run
        reasons = [traceback.format_exc()]
    if reasons and len(failures) < 5:
        print("op failed: " + "; ".join(reasons), file=sys.stderr)
    failures.extend(reasons[:1])


def peak_rss_mb() -> float:
    """This process's peak plus the largest child's: the children run one at
    a time while this process lives, so the sum bounds the tree's peak."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def layer_metrics(wl, rec, workloads, op_times) -> dict:
    """Per-layer figures of a traced run, per timed op so that a faster layer
    does not inflate the others through the extra ops it lets into the run."""
    stats = rec.self_times()
    ops = len(op_times)

    def per_op(name):
        calls, busy = stats.get(name, (0, 0.0))
        return calls / ops, busy / ops

    m = {}
    for name in workloads.LIBRARY_SPANS:
        calls, busy = per_op(name)
        m[f"{name}.calls"] = (calls, "calls/op")
        m[f"{name}.busy_s"] = (busy, "s/op")
    for command in workloads.CLI_COMMANDS:
        calls, wall = per_op(f"cli.{command}")
        m[f"cli.{command}.calls"] = (calls, "calls/op")
        m[f"cli.{command}.wall_s"] = (wall, "s/op")
    cli_wall = sum(m[f"cli.{c}.wall_s"][0] for c in workloads.CLI_COMMANDS)
    library_busy = sum(m[f"{name}.busy_s"][0] for name in workloads.LIBRARY_SPANS)
    # in a cli run every library span is a replay of a subcommand's calls
    m["cli.self_s"] = (cli_wall - library_busy if cli_wall else 0.0, "s/op")
    m["cli.startup_s"] = (wl.startup_s() if hasattr(wl, "startup_s") else 0.0, "s")
    for name, unit in (
        ("modelio.save_model.bytes", "bytes/op"),
        ("modelio.load_model.bytes", "bytes/op"),
        ("measurement.lifted_pointer.calls", "calls/op"),
        ("measurement.lifted_pointer.bytes", "bytes/op"),
    ):
        m[name] = (rec.counts[name] / ops, unit)
    m["bench.self_s"] = (per_op("bench.op")[1], "s/op")
    m["trace.ops"] = (ops, "count")
    m["trace.op_median_s"] = (statistics.median(op_times), "s")
    m["trace.overhead_s"] = (rec.overhead_s / ops, "s/op")
    return m


def count_lifted_pointers(rec):
    """Count I (x) F_k materialisations, which happen inside the program."""
    from unimeas.measurement import MeasurementModel

    lifted = getattr(MeasurementModel, "lifted_pointer", None)
    if lifted is None:  # a program that no longer builds lifted operators
        return

    def counted(model, k):
        rec.count("measurement.lifted_pointer.calls")
        rec.count("measurement.lifted_pointer.bytes", model.dim**2 * 16)
        return lifted(model, k)

    MeasurementModel.lifted_pointer = counted


def run(args) -> dict:
    workloads = import_program()
    from spans import NullRecorder, Recorder

    imported_s = time.perf_counter() - HARNESS_START
    meta = metadata(args)
    print(json.dumps({"metadata": meta}))
    cls = workloads.WORKLOADS[args.workload]
    failures: list = []
    untraced = workloads.program_api(NullRecorder())
    workdir = OUT / f"work-{os.getpid()}"
    try:
        setups = []
        for _ in range(cls.setup_repeats):
            start = time.perf_counter()
            wl = cls(args.seed, workdir)
            attempt(lambda: wl.op(untraced, NullRecorder(), wl.warmup_input), failures)
            setups.append(time.perf_counter() - start)

        rec = Recorder() if args.trace else NullRecorder()
        api = workloads.program_api(rec) if args.trace else untraced
        if args.trace:
            count_lifted_pointers(rec)
        op_times = []
        begin = time.perf_counter()
        while True:
            inp = wl.inputs[len(op_times) % len(wl.inputs)]
            rec.op = len(op_times)
            start = time.perf_counter()
            with rec.span("bench.op"):
                attempt(lambda: wl.op(api, rec, inp), failures)
            end = time.perf_counter()
            op_times.append(end - start)
            if args.trace and hasattr(wl, "replay"):
                attempt(lambda: wl.replay(api, rec, inp), failures)
            if end - begin >= args.seconds and len(op_times) >= wl.min_ops:
                break
        measured_s = time.perf_counter() - begin

        if args.trace:
            metrics = layer_metrics(wl, rec, workloads, op_times)
            rec.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json", meta)
        else:
            metrics = {
                # the import happens once; the rest of set-up is a median
                "setup_s": (imported_s + statistics.median(setups), "s"),
                "op_median_s": (statistics.median(op_times), "s"),
                "op_p90_s": (percentile90(op_times), "s"),
                "ops_per_s": (len(op_times) / measured_s, "1/s"),
                "peak_rss_mb": (peak_rss_mb(), "MB"),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(op_times) + cls.setup_repeats  # warm-up ops are checked too
    print_table(args, metrics, len(op_times), attempted, len(failures))
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def percentile90(times: list) -> float:
    """90th percentile; below 100 ops fewer than ten times lie beyond it, and
    it reads close to the slowest op."""
    if len(times) < 2:
        return times[0]
    return statistics.quantiles(times, n=10, method="inclusive")[-1]


def print_table(args, metrics, ops, attempted, failed) -> None:
    names = FIGURE_NAMES[args.workload]
    print(f"{args.workload}: {ops} timed ops, fail_ratio {failed}/{attempted}")
    if not args.trace:
        for key, (value, unit) in metrics.items():
            alias = f" ({names[key]})" if key in names else ""
            print(f"  {key}{alias}: {value:.6g} {unit}")
        return
    # self times of all spans: library calls, CLI processes and the harness
    rows = [
        (k.rsplit(".", 1)[0], v)
        for k, (v, _) in metrics.items()
        if k.endswith((".busy_s", ".wall_s")) or k == "bench.self_s"
    ]
    traced = sum(v for _, v in rows)
    print(f"  {'span':<36} {'calls/op':>8} {'self s/op':>10} {'share':>6}")
    for name, busy in sorted(rows, key=lambda r: -r[1]):
        if busy > 0:
            calls = metrics.get(f"{name}.calls", (1.0,))[0]
            print(f"  {name:<36} {calls:>8.3g} {busy:>10.4g} {busy / traced:>6.1%}")
    for key in ("cli.self_s", "cli.startup_s", "trace.op_median_s", "trace.overhead_s"):
        print(f"  {key}: {metrics[key][0]:.6g} {metrics[key][1]}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        codes = [
            subprocess.run([
                sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ]).returncode
            for name in WORKLOAD_NAMES
        ]
        return max(codes)
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
