"""One property attacks every float32 screen: ExactScanBackend.search, chamfer_top_k and
sv_candidates each rank exactly as their exact path (the same call with every row rescored) on rows
whose exact dots tie with the k-th best or sit an ulp from it, at subnormal and ~1e30 scales."""

import importlib
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from fdesearch import engine, svheuristic
from fdesearch.chamfer import chamfer_top_k
from fdesearch.engine import ExactScanBackend
from fdesearch.svheuristic import build_token_index, sv_candidates
from fdesearch.util import TokenCorpus

chamfer_module = importlib.import_module("fdesearch.chamfer")  # the package attribute is the function


def rescore_all(approx, slack, k):
    return slice(None)


@st.composite
def near_ties(draw):
    """(Q, tokens, lengths, ids, rows, k). The first `near` tokens start from one base row: each is
    a copy of an earlier one (an exact tie), then maybe nudged in a few coordinates: by one ulp of its
    dtype, by up to one float32 ulp, or by up to 2^-9 of the entry. Their negations
    follow, which no screen should keep. Both are scaled by 2^e, the m query tokens (near the base
    direction, float32-exact or not) by 2^f. The tokens are then shuffled and cut into documents
    of 1-3 tokens with ids; rows picks the documents chamfer_top_k ranks."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d = draw(st.integers(1, 8))
    near = draw(st.integers(2, 24))
    m = draw(st.integers(1, 4))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    # (row, query) scales: plain, products below float32's normal range, subnormal float32 rows
    # against a plain and a large query, ~1e30 rows against a plain query and one float32 keeps a
    # few bits of, overflow
    row_exp, query_exp = draw(st.sampled_from([(0, 0), (-70, -70), (-140, 0), (-140, 30), (100, 0), (100, -148),
                                               (100, 30)]))
    k = draw(st.integers(-(-near // 4), near))  # the token scan screens only when <= 4k tokens tie
    direction = rng.standard_normal(d)
    close = np.empty((near, d), dtype=dtype)
    for i in range(near):
        close[i] = close[rng.integers(i)] if i else np.ldexp(direction, row_exp)
        cols = np.flatnonzero(rng.random(d) < 0.5)
        nudge = rng.integers(4)
        if nudge == 1:
            close[i, cols] = np.nextafter(close[i, cols], rng.choice([-np.inf, np.inf], len(cols)).astype(dtype))
        elif nudge == 2:  # up to one float32 ulp, so that float64 rows round to float32 out of their order
            close[i, cols] += rng.uniform(-1, 1, len(cols)) * np.spacing(np.abs(close[i, cols]).astype(np.float32))
        elif nudge == 3:  # a spread that a query rounded to float32 subnormals can misorder
            close[i, cols] *= 1 + rng.uniform(-1, 1, len(cols)) / 512
    tokens = np.concatenate([close, -close])[rng.permutation(2 * near)]
    Q = np.ldexp(direction / np.linalg.norm(direction) + 0.3 * rng.standard_normal((m, d)), query_exp)
    if draw(st.booleans()):
        Q = Q.astype(np.float32).astype(np.float64)  # only summation rounding separates the scans
    lengths = []
    while sum(lengths) < len(tokens):
        lengths.append(min(int(rng.integers(1, 4)), len(tokens) - sum(lengths)))
    ids = rng.permutation(3 * len(tokens))[:len(tokens)]  # enough for a token a document
    rows = rng.permutation(len(lengths))[:draw(st.integers(1, len(lengths)))]
    return Q, tokens, lengths, ids, rows, k


@settings(max_examples=600, deadline=None)
@given(near_ties())
def test_every_screen_ranks_as_its_exact_path(case):
    Q, tokens, lengths, ids, rows, k = case
    backend = ExactScanBackend(ids, tokens.astype(np.float32))
    got = backend.search(Q[0], k)
    with mock.patch.object(engine, "shortlist", rescore_all):
        want = backend.search(Q[0], k)
    assert got[0].tolist() == want[0].tolist() and got[1].tobytes() == want[1].tobytes()

    corpus = TokenCorpus(np.split(tokens, np.cumsum(lengths)[:-1]), ids[:len(lengths)])
    got = chamfer_top_k(Q, corpus, rows, k)
    with mock.patch.object(chamfer_module, "shortlist", rescore_all):
        want = chamfer_top_k(Q, corpus, rows, k)
    assert [(i, s.hex()) for i, s in got] == [(i, s.hex()) for i, s in want]

    index = build_token_index(tokens[:, None], ids)  # a token a document: the candidates name each token
    got = sv_candidates(Q, index, k, dedup=False)
    with mock.patch.object(svheuristic, "_screen", lambda q, index, k: None):
        want = sv_candidates(Q, index, k, dedup=False)
    assert got == want
