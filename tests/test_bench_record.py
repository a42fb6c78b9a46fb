import importlib.util
from pathlib import Path

spec = importlib.util.spec_from_file_location("bench_record", Path(__file__).resolve().parent.parent / "scripts" / "bench_record.py")
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)

BOUNDS = {"setup_s": ("lower", 0.25), "qps": ("higher", 0.25), "recall_1nn_at10": ("higher", 0.05)}


def record(seeds, setup, qps, recall):
    metrics = {"setup_s": ("s", setup), "qps": ("1/s", qps), "recall_1nn_at10": ("ratio", recall)}
    return {"seeds": seeds, "workloads": {"w": {"metrics": {
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
