"""Seeded end-to-end and per-layer benchmark of fdesearch.

Run from the repository root:

    python3 perfbench/run.py --workload dense-10k --seed 1 --seconds 5 --trace 0

One invocation runs one workload in its own process as a single-client
closed loop against the library in ./src. It prints a metadata line, one
line per metric (name, value, unit) and, as the last line, one JSON
object with correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics of a traced run.
--workload all runs every workload, each in a child process.

The serve phase lasts at least --seconds; an untraced run also serves
every query of the workload at least once, a traced run at least 20.
Results, metadata and spans are also written to perfbench/out/. BLAS
threads are capped at the number of usable CPUs before numpy is imported.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> int:
    """Limit every BLAS thread-count variable to the usable CPUs; returns the cap."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        cur = os.environ.get(var, "")
        os.environ[var] = str(min(int(cur), nproc) if cur.isdigit() and int(cur) > 0 else nproc)
    return nproc


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", help="a workload name, or all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=5.0)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    return p.parse_args(argv)


def run_all(args, names) -> int:
    worst = 0
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def main(argv) -> int:
    args = parse_args(argv)
    cap = cap_blas_threads()
    sys.path.insert(0, str(SRC))
    try:
        import fdesearch
    except ImportError as e:
        print(f"perfbench: cannot import fdesearch from {SRC}: {e}", file=sys.stderr)
        return 2
    if not Path(fdesearch.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: fdesearch was imported from {fdesearch.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    from harness import format_lines, run_workload
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args, WORKLOADS)
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    outdir = HERE / "out"
    run = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), outdir, ROOT)
    run["meta"]["blas_threads"] = {"cap": cap, **{var: os.environ[var] for var in BLAS_THREAD_VARS}}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (outdir / f"{stem}.json").write_text(json.dumps(run, indent=1))
    for problem in run["problems"]:
        print(f"perfbench: FAILED: {problem}", file=sys.stderr)
    print("# meta " + json.dumps(run["meta"], separators=(",", ":")))
    for line in format_lines(run["result"]):
        print(line)
    print(json.dumps(run["result"], separators=(",", ":")), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
