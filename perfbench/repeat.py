"""Run the benchmark repeatedly and report each metric's median and spread.

Run from the repository root:

    python3 perfbench/repeat.py --runs 10 --workloads lse-tight protocol

Run i uses seed 1000 i, so instance pools do not overlap between runs.  For
every end-to-end metric the spread is the distance between the first and
third quartile of the runs, as ``statistics.quantiles(values, n=4)`` gives
them, over their median; it is flagged when it reaches a third of the
metric's bound in BENCHMARK.json.  ``--out`` writes the summary, with the
machine facts of the first run, as JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    details = json.loads(lines[-2].removeprefix("details "))
    return details, json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]} if not args.trace else {}
    summary = {"runs": args.runs, "seconds": args.seconds, "trace": args.trace,
               "seeds": [1000 * i for i in range(args.runs)],
               "workloads": {}}
    steady = True
    for workload in args.workloads:
        results = []
        for seed in summary["seeds"]:
            details, result = run_once(workload, seed, args.seconds, args.trace)
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}", file=sys.stderr)
                steady = False
            summary.setdefault("machine", details["machine"])
            results.append(result)
        rows = summary["workloads"][workload] = {}
        for name, entry in results[0]["metrics"].items():
            rows[name] = summarize([r["metrics"][name]["value"] for r in results])
            rows[name]["unit"] = entry["unit"]
            bound = bounds.get(name)
            flag = ""
            if bound is not None and rows[name]["spread"] >= bound / 3:
                flag = "  <-- spread >= bound/3"
                steady = False
            print(f"{workload:10s} {name:34s} median {rows[name]['median']:12.5g} "
                  f"{entry['unit']:12s} spread {rows[name]['spread']:7.4f}"
                  + (f" bound {bound}" if bound is not None else "") + flag)
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
