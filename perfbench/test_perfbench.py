"""Tests of the benchmark itself: smoke-size runs of every workload, the
oracle, the ranking checks, the span reduction and the entry point.

Run from the repository root with: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from fdesearch import FdeConfig, ball_carve, chamfer_one_nn  # noqa: E402
from harness import E2E_UNITS, PER_LAYER_UNITS, check_ranking, format_lines, run_workload  # noqa: E402
from oracle import ChamferOracle  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke(wl):
    """The workload on a 40-document corpus with a 32-dim encoding."""
    spec = dataclasses.replace(wl.spec, num_docs=40, num_queries=12)
    config = None if wl.config is None else FdeConfig(dim=wl.spec.dim, k_sim=2, d_proj=4, r_reps=2)
    return dataclasses.replace(wl, spec=spec, config=config)


def declared(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_benchmark_file_matches_the_harness():
    assert declared("end_to_end") == E2E_UNITS
    assert declared("per_layer") == PER_LAYER_UNITS
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {w.name: w.why for w in WORKLOADS.values()}


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run_emits_every_metric_with_its_unit(name, trace, tmp_path):
    run = run_workload(smoke(WORKLOADS[name]), seed=3, seconds=0.0, trace=trace, outdir=tmp_path, root=ROOT)
    result = run["result"]
    assert run["problems"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 12
    want = declared("per_layer" if trace else "end_to_end")
    assert {k: m["unit"] for k, m in result["metrics"].items()} == want
    assert all(np.isfinite(m["value"]) for m in result["metrics"].values())
    lines = format_lines(result)
    for line, (metric, unit) in zip(lines, want.items()):
        assert line.split()[0] == metric and line.split()[-1] == unit
    if not trace:
        assert all(result["metrics"][m]["value"] > 0 for m in want)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_seed_changes_inputs_but_not_metric_names(name, tmp_path):
    wl = smoke(WORKLOADS[name])
    docs_a, queries_a = make_inputs(wl, 3)
    docs_b, queries_b = make_inputs(wl, 4)
    docs_again, queries_again = make_inputs(wl, 3)
    assert all(np.array_equal(a[1], b[1]) for a, b in zip(docs_a, docs_again))
    assert all(np.array_equal(a, b) for a, b in zip(queries_a, queries_again))
    assert not all(a[1].shape == b[1].shape and np.array_equal(a[1], b[1]) for a, b in zip(docs_a, docs_b))
    assert not all(a.shape == b.shape and np.array_equal(a, b) for a, b in zip(queries_a, queries_b))
    names = [list(run_workload(wl, seed, 0.0, False, tmp_path, ROOT)["result"]["metrics"]) for seed in (3, 4)]
    assert names[0] == names[1] == list(E2E_UNITS)


def test_padded_queries_carve_back_to_their_own_tokens():
    wl = WORKLOADS["rerank-carve"]
    _, queries = make_inputs(smoke(wl), 3)
    assert all(q.shape == (wl.pad_to, wl.spec.dim) for q in queries)
    assert all(np.allclose(np.linalg.norm(q, axis=1), 1.0, atol=1e-5) for q in queries)
    assert all(ball_carve(q, wl.carve_tau).num_clusters <= wl.spec.query_tokens for q in queries)


def test_oracle_matches_chamfer_one_nn_and_takes_lowest_id_on_ties():
    rng = np.random.default_rng(5)

    def unit_rows(m):
        x = rng.standard_normal((m, 6))
        return x / np.linalg.norm(x, axis=1, keepdims=True)

    corpus = [unit_rows(int(rng.integers(1, 9))) for _ in range(30)]
    corpus[17] = corpus[4].copy()  # documents 4 and 17 tie exactly
    queries = [unit_rows(int(rng.integers(1, 6))) for _ in range(25)]
    queries.append(corpus[4][:2].copy())  # only 4 and 17 hold both tokens
    oracle = ChamferOracle(corpus)
    ref = chamfer_one_nn(queries, corpus)
    assert [oracle.one_nn(Q) for Q in queries] == [ref[i] for i in range(len(queries))]
    assert oracle.one_nn(queries[-1]) == 4


def test_check_ranking_accepts_valid_and_names_each_defect():
    good = [(3, 2.0), (1, 1.5), (7, 1.5), (0, -1.0)]
    assert check_ranking(good, 4, 10) is None
    cases = {
        "entries": good[:3],
        "invalid doc id": [(3, 2.0), (1, 1.5), (10, 1.0), (0, -1.0)],
        "repeats": [(3, 2.0), (1, 1.5), (1, 1.0), (0, -1.0)],
        "non-finite": [(3, 2.0), (1, float("nan")), (7, 1.0), (0, -1.0)],
        "not sorted": [(3, 2.0), (7, 1.5), (1, 1.5), (0, -1.0)],
        "pairs": [3, 1, 7, 0],
    }
    for needle, ranking in cases.items():
        problem = check_ranking(ranking, 4, 10)
        assert problem is not None and needle in problem, (needle, problem)


def test_self_time_subtracts_children():
    tr = Tracer()
    tr.request = 0
    with tr.span("outer"):
        with tr.span("inner"):
            pass
        with tr.span("inner"):
            pass
    outer, inner1, inner2 = tr.spans
    assert inner1["parent"] == inner2["parent"] == outer["id"] and outer["parent"] is None
    times = tr.self_times("request")
    children = sum(s["end"] - s["start"] for s in (inner1, inner2))
    assert times["inner"][0] == pytest.approx(children)
    assert times["outer"][0] == pytest.approx(outer["end"] - outer["start"] - children)


def test_entry_point_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = BENCHMARK["command"][1:] + ["--workload", "pq-1k", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run([sys.executable, *cmd], cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
