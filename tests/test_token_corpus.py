"""Every public entry point that takes token sets checks them as one TokenCorpus: non-finite tokens,
mixed widths and repeated doc ids raise ValueError, and the stack holds each document bit for bit."""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from fdesearch import (
    FdeConfig,
    brute_force_topk,
    build_index,
    build_token_index,
    chamfer_one_nn,
    fde_rankings,
    generate_doc_fdes,
    generate_query_fdes,
    query,
    sv_candidates,
)
from fdesearch.chamfer import TokenCorpus

CFG = FdeConfig(dim=8, k_sim=2, r_reps=2, seed=1)
IDS = [10, 11, 12, 13, 14, 15]
Q = np.random.default_rng(0).standard_normal((3, 8))


def attach_corpus(docs, ids):
    index = build_index(clean_docs(), CFG, doc_ids=IDS)
    index.attach_corpus(docs)


# entry point -> call(docs, ids); ids is None for the ones that take no doc ids
ENTRY_POINTS = {
    "generate_query_fdes": lambda docs, ids: generate_query_fdes(docs, CFG),
    "generate_doc_fdes": lambda docs, ids: generate_doc_fdes(docs, CFG),
    "fde_rankings": lambda docs, ids: fde_rankings(docs, [Q], CFG),
    "brute_force_topk": lambda docs, ids: brute_force_topk(Q, docs, 3, doc_ids=ids),
    "chamfer_one_nn": lambda docs, ids: chamfer_one_nn([Q], docs),
    "build_index": lambda docs, ids: build_index(docs, CFG, doc_ids=ids),
    "attach_corpus": attach_corpus,
    "build_token_index": lambda docs, ids: build_token_index(docs, doc_ids=ids),
    # single-query entry points: docs[2] is the query
    "query": lambda docs, ids: query(build_index(clean_docs(), CFG), docs[2], 3, 2),
    "sv_candidates": lambda docs, ids: sv_candidates(docs[2], build_token_index(clean_docs()), 2, dedup=False),
}
TAKES_IDS = {"brute_force_topk", "build_index", "build_token_index"}
ONE_QUERY = {"query", "sv_candidates"}


def clean_docs():
    rng = np.random.default_rng(1)
    return [rng.standard_normal((int(rng.integers(3, 6)), 8)) for _ in IDS]


@pytest.mark.parametrize("entry, bad", [(entry, bad) for entry in sorted(ENTRY_POINTS)
                                        for bad in ("nan", "inf", "-inf", "mixed widths", "repeated ids")
                                        if (bad != "repeated ids" or entry in TAKES_IDS)
                                        and (bad in ("nan", "inf", "-inf") or entry not in ONE_QUERY)])
def test_token_set_entry_points_reject_bad_input(entry, bad):
    docs = clean_docs()
    ENTRY_POINTS[entry](docs, IDS if entry in TAKES_IDS else None)  # the clean input is accepted
    ids = IDS if entry in TAKES_IDS or entry == "attach_corpus" else range(len(docs))
    if bad == "repeated ids":
        with pytest.raises(ValueError, match="doc ids"):
            ENTRY_POINTS[entry](docs, [7, 7, 7, 8, 9, 10])
        return
    named = "query 0" if entry in ONE_QUERY else f"query {ids[2]}" if entry == "generate_query_fdes" \
        else f"document {ids[2]}"
    if bad == "mixed widths":
        docs[2] = docs[2][:, :7]
        match = f"{named} tokens have d=7"
    else:
        docs[2][1, 3] = float(bad)
        match = f"{named} tokens must be finite"
    with pytest.raises(ValueError, match=match):
        ENTRY_POINTS[entry](docs, IDS if entry in TAKES_IDS else None)


def test_query_and_sv_candidates_check_the_query_once(monkeypatch):
    """One TokenCorpus per call is the query's only check: no require_finite pass over its tokens."""
    index = build_index(clean_docs(), CFG)
    tokens = build_token_index(clean_docs())
    checks = []
    init = TokenCorpus.__init__

    def counted_init(self, *args, **kwargs):
        checks.append("TokenCorpus")
        init(self, *args, **kwargs)

    def require_finite(x, what):
        if np.shape(x) == Q.shape:  # the query tokens; the query encoding is (fde_dim,)
            checks.append("require_finite")
        return x

    monkeypatch.setattr(TokenCorpus, "__init__", counted_init)
    for module in ("fdesearch.engine", "fdesearch.svheuristic"):
        monkeypatch.setattr(importlib.import_module(module), "require_finite", require_finite, raising=False)
    for call in (lambda: query(index, Q, 3, 2), lambda: sv_candidates(Q, tokens, 2, dedup=False)):
        checks.clear()
        call()
        assert checks == ["TokenCorpus"]


def test_brute_force_topk_takes_ids_from_a_token_corpus_only():
    docs = clean_docs()
    with pytest.raises(ValueError, match="carries its own doc ids"):
        brute_force_topk(Q, TokenCorpus(docs, IDS), 3, doc_ids=IDS)
    assert brute_force_topk(Q, TokenCorpus(docs, IDS), 3) == brute_force_topk(Q, docs, 3, doc_ids=IDS)


@st.composite
def token_sets(draw):
    d = draw(st.integers(1, 6))
    elements = {np.float32: st.floats(width=32, allow_nan=False, allow_infinity=False),
                np.float64: st.floats(allow_nan=False, allow_infinity=False, max_value=1e150, min_value=-1e150)}
    docs = []
    for _ in range(draw(st.integers(1, 8))):
        dtype = draw(st.sampled_from([np.float32, np.float64]))
        docs.append(draw(arrays(dtype, (draw(st.integers(1, 4)), d), elements=elements[dtype])))
    return docs


@settings(max_examples=200, deadline=None)
@given(token_sets())
def test_token_corpus_holds_each_document_bit_for_bit(docs):
    corpus = TokenCorpus(docs)
    all32 = all(m.dtype == np.float32 for m in docs)
    assert corpus.tokens.dtype == (np.float32 if all32 else np.float64)
    assert len(corpus) == len(docs) and corpus.ids.tolist() == list(range(len(docs)))
    for i, m in enumerate(docs):
        # float32 -> float64 is exact, so casting back must give the document's own bytes
        assert corpus.doc(i).astype(m.dtype).tobytes() == m.tobytes()
        assert corpus.doc(i).shape == m.shape
