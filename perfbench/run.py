"""privlm benchmark: one workload per process, end-to-end or traced per-layer metrics.

Usage (from the checkout root):

    python3 perfbench/run.py --workload dpsgd_desk --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

A run sets up its inputs from ``--seed`` several times (the median is
``setup_s``), then repeats the workload's measured unit while the next
repetition is expected to end within ``--seconds``. ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json; ``--trace 1`` makes the first
repetition untraced and traces the rest, and reports the per-layer metrics.
Every repetition's outputs are checked; ``attempted``/``failed`` count
operations and their ratio is the error rate. The last stdout line is one
JSON object; a full record, with the environment fingerprint and the
determinism hashes, goes to ``.perfbench-out/results/``.

``--workload all`` runs every workload in its own process, one after
another, and prints one table.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(".perfbench-out")
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True
    os.chdir(ROOT)
    if args.workload == "all":
        return run_all(args)
    # Pin BLAS before numpy loads it; the pinned and runtime counts are recorded.
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    try:
        pl = import_privlm()
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (ImportError, OSError, ValueError) as exc:
        print(f"error: cannot load the program or BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    from measure import run_workload
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    record = run_workload(pl, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), OUT)
    record["environment"] = environment()
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    compare_with_earlier_runs(record, results_dir)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": record["metrics"][m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / name).write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")
    print_human(args.workload, record, wanted)
    print(json.dumps(result))
    return 0


def compare_with_earlier_runs(record: dict, results_dir: Path) -> None:
    """Same code, seed and environment must give the same output bytes.

    Earlier records of this workload and seed, traced or not, whose
    environment fingerprint (which includes the source digest) matches are
    compared by their determinism hashes; each mismatch is a failed operation.
    """
    for path in sorted(results_dir.glob(f"{record['workload']}-seed{record['seed']}-trace*.json")):
        earlier = json.loads(path.read_text(encoding="utf-8"))
        if earlier.get("environment") != record["environment"]:
            continue
        if earlier.get("determinism") != record["determinism"]:
            record["failed"] = min(record["attempted"], record["failed"] + 1)
            record["failures"].append(f"output bytes differ from the earlier run {path.name}")


def import_privlm():
    """Import privlm from this checkout's ``src``, never from site-packages."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import privlm
    import privlm.attacks
    import privlm.corpus
    import privlm.detector
    import privlm.experiment
    import privlm.lm
    import privlm.privacy
    import privlm.report
    import privlm.synth

    if Path(privlm.__file__).resolve().parent != (src / "privlm").resolve():
        raise ImportError(f"privlm was imported from {privlm.__file__}, not from {src}")
    return privlm


def environment() -> dict:
    """Fingerprint of the interpreter, libraries, machine and source tree."""
    import ctypes
    import glob
    import hashlib
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    runtime_threads = None
    for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                runtime_threads = int(getattr(handle, symbol)())
                break
    def tree_digest(directory: Path) -> str:
        digest = hashlib.sha256()
        for path in sorted(directory.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
        return digest.hexdigest()

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_runtime": runtime_threads,
        "machine": platform.machine(),
        "git_sha": git_sha(),
        "src_sha256": tree_digest(ROOT / "src"),
        "bench_sha256": tree_digest(Path(__file__).resolve().parent),
    }


def git_sha() -> str | None:
    """HEAD commit read from ``.git`` directly; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def print_human(workload: str, record: dict, wanted: list[dict]) -> None:
    env, shapes = record["environment"], record["shapes"]
    print(f"workload {workload} seed {record['seed']} trace {record['trace']}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("shapes " + " ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}" for k, v in shapes.items()))
    print(f"repetitions {len(record['rep_walls'])}  setups {len(record['setup_walls'])}")
    for m in wanted:
        print(f"  {m['name']:<44} {record['metrics'][m['name']]:>14.6g} {m['unit']}")
    print(f"  {'error_rate':<44} {record['failed'] / record['attempted']:>14.6g} failed/attempted"
          f" ({record['failed']}/{record['attempted']})")
    for msg in record["failures"]:
        print(f"  FAILED: {msg}")
    if record["untraced_targets"]:
        print("  not traced, missing from the program: " + ", ".join(record["untraced_targets"]))


def run_all(args) -> int:
    """Each workload in its own process, in sequence; one table at the end."""
    from workloads import WORKLOADS

    rows = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write("".join(proc.stdout.splitlines(keepends=True)[:-1]))
        if proc.returncode != 0 or not proc.stdout.strip():
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        rows[name] = json.loads(proc.stdout.splitlines()[-1])
    names = list(next(iter(rows.values()))["metrics"])
    print()
    print(f"{'metric':<40}" + "".join(f"{w:>14}" for w in rows) + "  unit")
    for metric in names:
        unit = next(iter(rows.values()))["metrics"][metric]["unit"]
        print(f"{metric:<40}" + "".join(f"{r['metrics'][metric]['value']:>14.6g}" for r in rows.values()) + f"  {unit}")
    print(f"{'error_rate':<40}" + "".join(f"{r['failed'] / r['attempted']:>14.6g}" for r in rows.values())
          + "  failed/attempted")
    ok = all(r["correct"] for r in rows.values())
    print(json.dumps({"correct": ok, "workloads": rows}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
