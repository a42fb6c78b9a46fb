"""Record the end-to-end benchmark of a source tree as one BENCH_<n>.json file.

Runs perfbench/run.py --trace 0 for every BENCHMARK.json workload at
its run_seconds, once per fixed seed, cycling through the workloads
within each seed so that a slow or fast spell of the machine spreads over
all of them. Writes per-metric medians, quartiles and per-seed values
with the git SHA, python, numpy and BLAS versions and nproc. Seeds and
run length are fixed so that every record compares with every other:

    python scripts/bench_record.py --out BENCH_2.json
    python scripts/bench_record.py --out BENCH_2.json --check BENCH_1.json

--root runs another checkout's perfbench/ and src/ (default: this one).
--check PREV compares the new record with PREV. It exits 1 only when a
figure that the code alone decides changes: recall_1nn_at10,
index_bytes_per_doc or success_rate, at any seed both files ran. Timing
and memory medians are reported against their BENCHMARK.json bounds but
never fail the check, since they move with the machine. A run that exits
non-zero or prints no result exits 2.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (101, 102, 103, 104, 105)
EXACT = ("recall_1nn_at10", "index_bytes_per_doc", "success_rate")


def run_once(root: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(meta, result) of one untraced perfbench run."""
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[0].startswith("# meta "):
        sys.stderr.write(proc.stderr + f"bench_record: {workload} seed {seed} failed (exit {proc.returncode})\n")
        raise SystemExit(2)
    return json.loads(lines[0][len("# meta "):]), json.loads(lines[-1])


def git_state(root: Path) -> tuple[str | None, bool | None]:
    """HEAD and whether the checkout has uncommitted changes; (None, None) outside a clone."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=True)
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"], cwd=root,
                                capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None, None
    return sha.stdout.strip(), bool(status.stdout.strip())


def summarize(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3), "values": values}


def record(root: Path, workloads: list[str], seeds: list[int], seconds: float) -> dict:
    runs = {name: [] for name in workloads}
    meta = None
    for seed in seeds:
        for name in workloads:
            meta, result = run_once(root, name, seed, seconds)
            runs[name].append(result)
            print(f"{name} seed {seed}: " + ", ".join(f"{k} {m['value']:.4g}" for k, m in result["metrics"].items()),
                  file=sys.stderr, flush=True)
    sha, dirty = git_state(root)
    out = {"git_sha": sha, "dirty": dirty, "python": meta["python"], "numpy": meta["numpy"], "blas": meta["blas"],
           "nproc": meta["nproc"], "machine": meta["machine"], "seconds": seconds, "seeds": seeds, "workloads": {}}
    for name, results in runs.items():
        metrics = {key: {"unit": m["unit"], **summarize([r["metrics"][key]["value"] for r in results])}
                   for key, m in results[0]["metrics"].items()}
        out["workloads"][name] = {"attempted": sum(r["attempted"] for r in results),
                                  "failed": sum(r["failed"] for r in results),
                                  "correct": all(r["correct"] for r in results), "metrics": metrics}
    return out


def compare(prev: dict, new: dict, bounds: dict) -> list[str]:
    """Print the change of every shared median; return the exact figures that differ."""
    changed = []
    for name, wl in new["workloads"].items():
        old = prev["workloads"].get(name)
        if old is None:
            continue
        shared = [(i, prev["seeds"].index(s)) for i, s in enumerate(new["seeds"]) if s in prev["seeds"]]
        for key, m in wl["metrics"].items():
            if key not in old["metrics"]:
                continue
            o = old["metrics"][key]
            if key in EXACT:
                pairs = [(o["values"][j], m["values"][i]) for i, j in shared] or [(o["median"], m["median"])]
                if any(a != b for a, b in pairs):
                    changed.append(f"{name} {key}")
            before, after = o["median"], m["median"]
            rel = (after - before) / before if before else 0.0
            note = ""
            if key in bounds and key not in EXACT:
                better, bound = bounds[key]
                worse = rel > bound if better == "lower" else rel < -bound
                spread = (o["q3"] - o["q1"]) / before if before else 0.0
                note = (f"  WORSE beyond bound {bound}" if worse else f"  (bound {bound})") + f", PREV IQR {spread:.0%}"
            print(f"{name:<15} {key:<20} {before:>12.5g} -> {after:<12.5g} {rel:+7.1%}{note}")
    return changed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, metavar="FILE", help="where to write the record")
    ap.add_argument("--root", default=str(ROOT), help="checkout whose perfbench/ and src/ run (default: this one)")
    ap.add_argument("--check", metavar="PREV", help="compare with PREV; exit 1 if an exact figure changed")
    args = ap.parse_args()
    root = Path(args.root).resolve()
    bench = json.loads((root / "BENCHMARK.json").read_text())
    prev = json.loads(Path(args.check).read_text()) if args.check else None
    new = record(root, [w["name"] for w in bench["workloads"]], list(SEEDS), float(bench["run_seconds"]))
    Path(args.out).write_text(json.dumps(new, indent=1) + "\n")
    if prev is None:
        return 0
    bounds = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
    changed = compare(prev, new, bounds)
    for item in changed:
        print(f"CHANGED: {item}", file=sys.stderr)
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
