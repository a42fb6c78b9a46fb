"""Record the end-to-end benchmark of a source tree as one BENCH_<n>.json file.

Runs perfbench/run.py --trace 0 for every BENCHMARK.json workload at
its run_seconds, once per fixed seed, cycling through the workloads
within each seed so that a slow or fast spell of the machine spreads over
all of them. Writes per-metric medians, quartiles and per-seed values
with the git SHA, python, numpy and BLAS versions and nproc. Seeds and
run length are fixed so that every record compares with every other:

    python scripts/bench_record.py --out BENCH_2.json
    python scripts/bench_record.py --out BENCH_2.json --check BENCH_1.json
    python scripts/bench_record.py --out pair.json --baseline ../parent

--root runs another checkout's perfbench/ and src/ (default: this one).
--check PREV compares the new record with PREV. It exits 1 only when a
figure that the code alone decides changes: recall_1nn_at10,
index_bytes_per_doc or success_rate, at any seed both files ran. Timing
and memory medians are reported against their BENCHMARK.json bounds but
never fail the check, since they move with the machine.

--baseline DIR records a second checkout (the parent of a change) in the
same session: every seed and workload runs both trees back to back, and
which goes first alternates over the seeds of each workload. The parent's record is
written beside --out as <out>.baseline.json, and the new record gets a
"baseline" entry holding, for each workload and metric, the change/parent
ratio of the medians and its min and max over the per-seed ratios.
Timing and memory verdicts then come from that pair alone (--check still
judges the exact figures), and an exact figure that differs between the
two trees at any seed exits 1. A run that exits non-zero or prints no
result exits 2.
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


def record(roots: list[Path], workloads: list[str], seeds: list[int], seconds: float) -> list[dict]:
    """One record per root. Each seed and workload runs every root back to back, and which goes
    first alternates from seed to seed and from workload to workload, so that two roots share the
    machine's spells and neither always runs first on a workload."""
    runs = [{name: [] for name in workloads} for _ in roots]
    metas = [None] * len(roots)
    for i, seed in enumerate(seeds):
        for j, name in enumerate(workloads):
            order = range(len(roots)) if (i + j) % 2 == 0 else range(len(roots) - 1, -1, -1)
            for k in order:
                metas[k], result = run_once(roots[k], name, seed, seconds)
                runs[k][name].append(result)
                tag = ("change ", "parent ")[k] if len(roots) > 1 else ""
                print(f"{tag}{name} seed {seed}: " + ", ".join(f"{key} {m['value']:.4g}"
                                                             for key, m in result["metrics"].items()),
                      file=sys.stderr, flush=True)
    return [summarize_runs(root, meta, by_name, seeds, seconds) for root, meta, by_name in zip(roots, metas, runs)]


def summarize_runs(root: Path, meta: dict, runs: dict, seeds: list[int], seconds: float) -> dict:
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


def worse(rel: float, better: str, bound: float) -> bool:
    """Whether a relative change rel of a metric that is better when lower or higher exceeds its bound."""
    return rel > bound if better == "lower" else rel < -bound


def pair_ratios(parent: dict, new: dict) -> dict:
    """For each workload and metric of two records of the same seeds: the change/parent ratio of the
    medians and the min and max of the per-seed ratios (None where the parent's figure is 0)."""
    out = {}
    for name, wl in new["workloads"].items():
        base = parent["workloads"][name]["metrics"]
        out[name] = {}
        for key, m in wl["metrics"].items():
            b = base[key]
            per_seed = [c / p for c, p in zip(m["values"], b["values"]) if p]
            out[name][key] = {"ratio": m["median"] / b["median"] if b["median"] else None,
                              "min": min(per_seed, default=None), "max": max(per_seed, default=None)}
    return out


def pair_verdicts(parent: dict, new: dict, ratios: dict, bounds: dict) -> list[str]:
    """Print each metric's change/parent ratio, its per-seed range and, for timing and memory, its verdict
    against the BENCHMARK.json bound; return the exact figures that differ at some seed."""
    changed = []
    for name, by_key in ratios.items():
        for key, r in by_key.items():
            if key in EXACT:
                if parent["workloads"][name]["metrics"][key]["values"] != new["workloads"][name]["metrics"][key]["values"]:
                    changed.append(f"{name} {key}")
                continue
            if r["ratio"] is None:
                continue
            note = ""
            if key in bounds:
                bound = bounds[key][1]
                note = f"  WORSE beyond bound {bound}" if worse(r["ratio"] - 1, *bounds[key]) else f"  (bound {bound})"
            print(f"{name:<15} {key:<20} change/parent {r['ratio']:.3f} [{r['min']:.3f}-{r['max']:.3f}]{note}")
    return changed


def compare(prev: dict, new: dict, bounds: dict, timing: bool = True) -> list[str]:
    """Print the change of every shared median (of the exact figures alone without timing); return
    the exact figures that differ."""
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
            elif not timing:
                continue
            before, after = o["median"], m["median"]
            rel = (after - before) / before if before else 0.0
            note = ""
            if key in bounds and key not in EXACT:
                bound = bounds[key][1]
                spread = (o["q3"] - o["q1"]) / before if before else 0.0
                note = (f"  WORSE beyond bound {bound}" if worse(rel, *bounds[key]) else f"  (bound {bound})")
                note += f", PREV IQR {spread:.0%}"
            print(f"{name:<15} {key:<20} {before:>12.5g} -> {after:<12.5g} {rel:+7.1%}{note}")
    return changed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, metavar="FILE", help="where to write the record")
    ap.add_argument("--root", default=str(ROOT), help="checkout whose perfbench/ and src/ run (default: this one)")
    ap.add_argument("--check", metavar="PREV", help="compare with PREV; exit 1 if an exact figure changed")
    ap.add_argument("--baseline", metavar="DIR", help="also record checkout DIR, interleaved, and compare with it")
    args = ap.parse_args()
    root = Path(args.root).resolve()
    roots = [root] if args.baseline is None else [root, Path(args.baseline).resolve()]
    bench = json.loads((root / "BENCHMARK.json").read_text())
    prev = json.loads(Path(args.check).read_text()) if args.check else None
    records = record(roots, [w["name"] for w in bench["workloads"]], list(SEEDS), float(bench["run_seconds"]))
    new, out = records[0], Path(args.out)
    bounds = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
    changed = []
    if args.baseline is not None:
        parent = records[1]
        new["baseline"] = {"root": str(roots[1]), "git_sha": parent["git_sha"], "dirty": parent["dirty"],
                           "ratios": pair_ratios(parent, new)}
        out.with_suffix(".baseline.json").write_text(json.dumps(parent, indent=1) + "\n")
        changed += pair_verdicts(parent, new, new["baseline"]["ratios"], bounds)
    out.write_text(json.dumps(new, indent=1) + "\n")
    if prev is not None:
        changed += compare(prev, new, bounds, timing=args.baseline is None)
    for item in changed:
        print(f"CHANGED: {item}", file=sys.stderr)
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
