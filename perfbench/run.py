"""pmlab's benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {cli-session,acquisition,analysis}
        --seed N --seconds S --trace {0,1} [--size tiny]

Each workload is a closed loop with one client: the next operation starts
when the previous one has finished and been checked.  Set-up imports
pmlab, then runs the warm-up operation three times (untimed, same input);
``setup_s`` is the median repetition plus, for the in-process workloads,
the import time.  The three warm-up outputs must be byte-identical.

``--trace 0`` measures for ``--seconds`` and reports the end-to-end
metrics named in BENCHMARK.json.  ``--trace 1`` measures a fixed,
seed-determined sample of operations, each once untraced and once with
every public pmlab function wrapped (see tracing.py), so the exact
counters repeat between runs of one seed; it reports the per-layer
metrics.  Every operation's output is checked against oracles written
in workloads.py; a failed check makes the run exit 1.

The last line of stdout is the result object.  The lines before it give
the environment and failures (prefixed ``#``) and every metric the run
measured as ``name value unit``; ``perfbench/out/results/`` keeps the
full record: environment, all metrics, per-op digests and failures.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_REPS = 3
PROBE_REPS = 3


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli-session", "acquisition", "analysis"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every operation, for the smoke test")
    return parser.parse_args(argv)


def _import_pmlab() -> float:
    """Import pmlab from this checkout's src/ and return the seconds it took."""
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    pmlab = importlib.import_module("pmlab")
    elapsed = time.perf_counter() - start
    if Path(pmlab.__file__).resolve().parent != SRC / "pmlab":
        raise SystemExit(f"perfbench: imported pmlab from {pmlab.__file__}, not {SRC}")
    return elapsed


def _child(args: list[str]) -> tuple[float, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return time.perf_counter() - start, proc.stderr


def _importtime(report: str) -> dict[str, float]:
    """Cumulative import seconds of pmlab, and of the outermost numpy and scipy modules.

    ``-X importtime`` prints one line per module, children before their
    parent, indented two spaces per level of nesting.
    """
    entries = []
    for line in report.splitlines():
        if line.startswith("import time:") and "cumulative" not in line:
            _, cumulative, name = line.split("|")
            entries.append((len(name) - len(name.lstrip()), name.strip(), int(cumulative)))
    totals = {"pmlab": 0, "numpy": 0, "scipy": 0}
    stack: list[tuple[int, str]] = []  # ancestors, walking parents before children
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        root = name.split(".")[0]
        parent_root = stack[-1][1].split(".")[0] if stack else None
        if root in totals and parent_root != root:
            totals[root] += cumulative
        stack.append((depth, name))
    return {f"import.{root}_s": us / 1e6 for root, us in totals.items()}


def _probes() -> dict[str, float]:
    """Interpreter start and import costs, measured in fresh child processes."""
    starts = [_child(["-c", "pass"])[0] for _ in range(PROBE_REPS)]
    imports = [_importtime(_child(["-X", "importtime", "-c", "import pmlab"])[1])
               for _ in range(PROBE_REPS)]
    probes = {"process.python_start_s": statistics.median(starts)}
    for key in imports[0]:
        probes[key] = statistics.median(sample[key] for sample in imports)
    return probes


def _environment(args) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next(l.split(":", 1)[1].strip() for l in info if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = None  # a checkout without .git has no commit to report
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        commit = head.read_text().strip()
        branch = ROOT / ".git" / commit.removeprefix("ref: ")
        if commit.startswith("ref: ") and branch.is_file():
            commit = branch.read_text().strip()
    return {
        "cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "git_commit": commit,
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
    }


def _peak_rss_mib(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "pmlab" / "__init__.py").is_file():
        print(f"perfbench: no pmlab sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    import_s = _import_pmlab()
    import workloads  # after the timed import, so numpy is not preloaded
    import tracing

    wl = workloads.WORKLOADS[args.workload](
        args.seed, args.size == "tiny", OUT / args.workload, SRC)
    # The traced run measures the in-process path, so that is what it warms.
    run = wl.run_in_process if args.trace else wl.run
    failures: list[str] = []
    attempted = failed = 0
    record: dict = {"digests": []}

    def checked(inp, output, label):
        nonlocal attempted, failed
        problems, out_digest = wl.check(inp, output)
        attempted += 1
        failed += bool(problems)
        failures.extend(problems)
        record["digests"].append({"op": label, "digest": out_digest})
        return out_digest

    setup_reps, warm_digests = [], set()
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        inp = wl.input(-1)
        output = run(inp)
        setup_reps.append(time.perf_counter() - start)
        warm_digests.add(checked(inp, output, "warm-up"))
        del output
    if len(warm_digests) != 1:
        failures.append("warm-up repetitions gave different outputs")

    times: list[float] = []
    if not args.trace:
        deadline = time.perf_counter() + args.seconds
        i = 0
        while i < wl.min_ops or time.perf_counter() < deadline:
            inp = wl.input(i)
            start = time.perf_counter()
            output = run(inp)
            times.append(time.perf_counter() - start)
            checked(inp, output, i)
            del output
            i += 1
        peak = _peak_rss_mib(resource.RUSAGE_SELF if wl.in_process
                             else resource.RUSAGE_CHILDREN)
        measured = {
            # A child process imports pmlab inside each warm-up call.
            "setup_s": ((import_s if wl.in_process else 0.0) + statistics.median(setup_reps),
                        "s"),
            "op_p50_s": (statistics.median(times), "s"),
            "ops_per_s": (len(times) / sum(times), "1/s"),
            "peak_rss_mib": (peak, "MiB"),
        }
        measured.update(wl.named_metrics(times))
        wanted = spec["end_to_end"]
        record["sample_counts"] = {"setup_s": len(setup_reps), "op_p50_s": len(times),
                                   "ops_per_s": len(times), "peak_rss_mib": 1}
    else:
        tracer = tracing.Tracer()
        plain = traced = 0.0
        for i in range(wl.trace_ops):
            inp = wl.input(i)
            start = time.perf_counter()
            output = run(inp)
            plain += time.perf_counter() - start
            want = checked(inp, output, i)
            del output
            with tracer.installed():
                tracer.op = i
                start = time.perf_counter()
                output = run(inp)
                traced += time.perf_counter() - start
            if checked(inp, output, f"{i} traced") != want:
                failures.append(f"op {i}: traced output differs from untraced")
            del output
        layers = tracing.layer_metrics(tracer.spans)
        layers.update(_probes())
        layers["trace.overhead_ratio"] = traced / plain
        measured = {name: (value, tracing.unit_of(name)) for name, value in layers.items()}
        wanted = spec["per_layer"]
        record["exact_counters"] = {name: layers[name] for name in (
            "landscape.minimize_s.evaluations", "bench.simulate_setting.calls",
            "bench.estimate_joint.calls", "bench.estimate_joint.distinct_joints",
            "landscape.grid_scan.nodes", "classical.fit_classical.feasible_ratio")}
        record["sample_counts"] = {"traced_ops": wl.trace_ops, "probes": PROBE_REPS}

    measured["error_ratio"] = (failed / attempted, "1")
    correct = not failures
    record.update({
        "environment": _environment(args), "correct": correct, "attempted": attempted,
        "failed": failed, "failures": failures,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in measured.items()},
        "op_times_s": times, "setup_reps_s": setup_reps, "import_s": import_s,
    })
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print("# environment " + json.dumps(record["environment"]))
    for name, (value, unit) in sorted(measured.items()):
        print(f"{name:45s} {value:.6g} {unit}")
    for failure in failures[:20]:
        print(f"# FAILED {failure}")

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": measured[m["name"]][0], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
