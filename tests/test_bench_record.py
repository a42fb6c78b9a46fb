import importlib.util
import json
import sys
from pathlib import Path

spec = importlib.util.spec_from_file_location("bench_record", Path(__file__).resolve().parent.parent / "scripts" / "bench_record.py")
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)

BOUNDS = {"setup_s": ("lower", 0.25), "qps": ("higher", 0.25), "recall_1nn_at10": ("higher", 0.05)}


def record(seeds, setup, qps, recall, name="w"):
    metrics = {"setup_s": ("s", setup), "qps": ("1/s", qps), "recall_1nn_at10": ("ratio", recall)}
    return {"seeds": seeds, "workloads": {name: {"metrics": {
        key: {"unit": unit, **bench_record.summarize(values)} for key, (unit, values) in metrics.items()}}}}


def test_check_fails_only_on_an_exact_figure(capsys):
    prev = record([1, 2, 3], [2.0, 2.1, 2.2], [70.0, 75.0, 80.0], [1.0, 0.99, 1.0])
    # far slower and lower throughput, same recall at every seed: reported, not failed
    assert bench_record.compare(prev, record([1, 2, 3], [4.0, 4.1, 4.2], [30.0, 31.0, 32.0], [1.0, 0.99, 1.0]),
                                BOUNDS) == []
    out = capsys.readouterr().out
    assert out.count("WORSE beyond bound 0.25") == 2 and "recall_1nn_at10" in out
    # recall moved at one seed, its median did not
    assert bench_record.compare(prev, record([3, 2], [2.0, 2.0], [75.0, 75.0], [1.0, 1.0]),
                                BOUNDS) == ["w recall_1nn_at10"]
    # no seed in common: the medians are compared
    assert bench_record.compare(prev, record([7], [2.0], [75.0], [1.0]), BOUNDS) == []
    assert bench_record.compare(prev, record([7], [2.0], [75.0], [0.98]), BOUNDS) == ["w recall_1nn_at10"]


def fake_runs(calls, recall_of_parent=1.0):
    """A run_once stub: the tree named "parent" sets up 2x (seed 1) and 4x (seed 2) slower than the change."""
    def run_once(root, workload, seed, seconds):
        calls.append((root.name, workload, seed))
        parent = root.name == "parent"
        metrics = {"setup_s": ("s", (1.0 + seed) if parent else 1.0), "qps": ("1/s", 100.0),
                   "recall_1nn_at10": ("ratio", recall_of_parent if parent and seed == 2 else 1.0)}
        meta = {"python": "3", "numpy": "2", "blas": {}, "nproc": 2, "machine": "x86_64"}
        return meta, {"attempted": 4, "failed": 0, "correct": True,
                      "metrics": {key: {"unit": unit, "value": value} for key, (unit, value) in metrics.items()}}
    return run_once


def test_baseline_interleaves_the_two_trees_and_records_their_ratios(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(bench_record, "run_once", fake_runs(calls))
    change, parent = bench_record.record([tmp_path / "change", tmp_path / "parent"], ["a", "b"], [1, 2], 1.0)
    # every seed and workload runs both trees back to back; the first alternates over workloads and seeds
    assert calls == [("change", "a", 1), ("parent", "a", 1), ("parent", "b", 1), ("change", "b", 1),
                     ("parent", "a", 2), ("change", "a", 2), ("change", "b", 2), ("parent", "b", 2)]
    assert parent["workloads"]["a"]["metrics"]["setup_s"]["values"] == [2.0, 3.0]
    ratios = bench_record.pair_ratios(parent, change)
    assert ratios["a"]["setup_s"] == {"ratio": 1.0 / 2.5, "min": 1.0 / 3.0, "max": 0.5}
    assert ratios["b"]["qps"] == {"ratio": 1.0, "min": 1.0, "max": 1.0}
    assert bench_record.pair_verdicts(parent, change, ratios, BOUNDS) == []
    # the parent is the slower one here: swapped, setup_s is worse beyond its bound
    swapped = bench_record.pair_ratios(change, parent)
    assert bench_record.pair_verdicts(change, parent, swapped, BOUNDS) == []
    assert capsys.readouterr().out.count("WORSE beyond bound 0.25") == 2  # setup_s of a and b


def test_baseline_writes_both_records_and_fails_on_an_exact_figure(tmp_path, monkeypatch, capsys):
    roots = {}
    for name in ("change", "parent"):
        roots[name] = tmp_path / name
        roots[name].mkdir()
        (roots[name] / "BENCHMARK.json").write_text(json.dumps({
            "run_seconds": 1, "workloads": [{"name": "a"}],
            "end_to_end": [{"name": key, "better": better, "bound": bound} for key, (better, bound) in BOUNDS.items()]}))
    out = tmp_path / "pair.json"
    argv = ["bench_record.py", "--out", str(out), "--root", str(roots["change"]), "--baseline", str(roots["parent"])]
    monkeypatch.setattr(bench_record, "SEEDS", (1, 2))
    monkeypatch.setattr(sys, "argv", argv)
    monkeypatch.setattr(bench_record, "run_once", fake_runs([]))
    assert bench_record.main() == 0
    new, parent = json.loads(out.read_text()), json.loads((tmp_path / "pair.baseline.json").read_text())
    assert new["baseline"]["ratios"]["a"]["setup_s"]["ratio"] == 1.0 / 2.5
    assert parent["workloads"]["a"]["metrics"]["setup_s"]["median"] == 2.5
    assert "change/parent 0.400 [0.333-0.500]" in capsys.readouterr().out
    # the parent's recall differs at seed 2 only: the pair names it
    monkeypatch.setattr(bench_record, "run_once", fake_runs([], recall_of_parent=0.9))
    assert bench_record.main() == 1
    assert "CHANGED: a recall_1nn_at10" in capsys.readouterr().err
    # --check against an older record judges only its exact figures once a baseline is given
    prev = tmp_path / "prev.json"
    prev.write_text(json.dumps(record([1, 2], [9.0, 9.0], [1.0, 1.0], [1.0, 1.0], name="a")))
    monkeypatch.setattr(sys, "argv", argv + ["--check", str(prev)])
    monkeypatch.setattr(bench_record, "run_once", fake_runs([]))
    assert bench_record.main() == 0
    against_prev = [line for line in capsys.readouterr().out.splitlines() if " -> " in line]
    assert against_prev and all("recall_1nn_at10" in line for line in against_prev)
