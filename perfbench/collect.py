"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 perfbench/collect.py --seeds 1-10 [--workloads analysis,...]
        [--trace 1] [--repeat] [--out perfbench/out/summary.json]

For every workload and seed it runs ``run.py`` once, sequentially, with
BENCHMARK.json's ``run_seconds``.  Per metric it reports the median, the
quartiles from ``statistics.quantiles(values, n=4)`` and the spread
(q3 - q1) / median, flagged when it exceeds a third of the metric's
bound.  ``--repeat`` runs the first seed once more and compares the two
runs' output digests (the common prefix of operations) and, for traced
runs, the exact counters, which must match.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "out" / "results"


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    record = json.loads((RESULTS / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


def _compare(first: dict, second: dict) -> list[str]:
    problems = []
    a, b = first["digests"], second["digests"]
    n = min(len(a), len(b))
    if a[:n] != b[:n]:
        problems.append("output digests differ")
    if first.get("exact_counters") != second.get("exact_counters"):
        problems.append(f"exact counters differ: {first.get('exact_counters')} "
                        f"vs {second.get('exact_counters')}")
    return problems


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=_seeds, required=True)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", action="store_true")
    parser.add_argument("--out", type=Path, default=HERE / "out" / "summary.json")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    summary = {"run_seconds": spec["run_seconds"], "trace": args.trace, "seeds": args.seeds,
               "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units = {}
        records = []
        for seed in args.seeds:
            result, record = _run(workload, seed, spec["run_seconds"], args.trace)
            records.append(record)
            summary.setdefault("environment", record["environment"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        rows = {}
        for name, vals in values.items():
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds.get(name)
            rows[name] = {"unit": units[name], "median": median, "q1": q1, "q3": q3,
                          "spread": spread, "bound": bound, "values": vals}
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  <-- above a third of the bound"
            print(f"  {name:42s} median {median:.5g} {units[name]}  spread {spread:.3f}"
                  f"  bound {bound}{flag}")
        if args.repeat:
            _, again = _run(workload, args.seeds[0], spec["run_seconds"], args.trace)
            problems = _compare(records[0], again)
            rows["repeat_seed"] = {"seed": args.seeds[0], "problems": problems}
            print(f"  repeat of seed {args.seeds[0]}: {problems or 'identical'}")
            ok = ok and not problems
        summary["workloads"][workload] = rows
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
