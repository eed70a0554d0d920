"""Run-to-run spread of the end-to-end metrics, and comparison of two sets of runs.

    python3 perfbench/spread.py --workload dpsgd_desk --seeds 1-10 --seconds 20 --save a.json
    python3 perfbench/spread.py --compare a.json b.json

The first form runs ``run.py`` once per seed, one process at a time, and
prints for every metric its median and its spread: the distance between the
first and third quartiles (``statistics.quantiles(values, n=4)``) as a share
of the median, next to the metric's bound from BENCHMARK.json. A spread
above a third of the bound is marked. The second form reports, per workload
and metric, how far the median of the second set is from the first, and
marks a change worse than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def bounds() -> dict[str, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m for m in spec["end_to_end"]}


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def collect(workloads: list[str], seeds: list[int], seconds: float) -> dict:
    runs: dict[str, list[dict]] = {}
    for workload in workloads:
        for seed in seeds:
            cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
            result = json.loads(proc.stdout.splitlines()[-1])
            result["seed"] = seed
            runs.setdefault(workload, []).append(result)
            values = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {values}", flush=True)
    return runs


def summarize(runs: dict) -> bool:
    spec = bounds()
    steady = True
    for workload, results in runs.items():
        print(f"\n{workload}: {len(results)} runs, "
              f"all correct={all(r['correct'] for r in results)}, "
              f"failed={sum(r['failed'] for r in results)}")
        print(f"  {'metric':<22}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound/3':>9}")
        for name, m in spec.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = ""
            if name != "setup_s" and spread > m["bound"] / 3:
                flag, steady = "  WIDE", False
            print(f"  {name:<22}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{spread:>9.4f}{m['bound'] / 3:>9.4f}{flag}")
    return steady


def compare(first: dict, second: dict) -> bool:
    spec = bounds()
    ok = True
    print(f"{'workload':<12}{'metric':<22}{'median 1':>14}{'median 2':>14}{'worse by':>10}{'bound':>7}")
    for workload in first:
        for name, m in spec.items():
            a = statistics.median(r["metrics"][name]["value"] for r in first[workload])
            b = statistics.median(r["metrics"][name]["value"] for r in second[workload])
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            flag = ""
            if worse > m["bound"]:
                flag, ok = "  WORSE", False
            print(f"{workload:<12}{name:<22}{a:>14.6g}{b:>14.6g}{worse:>10.4f}{m['bound']:>7}{flag}")
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", default=[])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--save", type=Path, default=None)
    parser.add_argument("--compare", nargs=2, type=Path, default=None)
    args = parser.parse_args(argv)
    if args.compare:
        first, second = (json.loads(p.read_text(encoding="utf-8")) for p in args.compare)
        return 0 if compare(first, second) else 1
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    runs = collect(args.workload, args.seeds, seconds)
    if args.save:
        args.save.write_text(json.dumps(runs, indent=1) + "\n", encoding="utf-8")
    return 0 if summarize(runs) else 1


if __name__ == "__main__":
    sys.exit(main())
