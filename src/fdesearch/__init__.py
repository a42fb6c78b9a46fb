"""Multi-vector (Chamfer) retrieval via fixed dimensional encodings.

Sets of token embeddings are encoded into single fixed-length vectors
whose dot products approximate Chamfer similarity, so candidate
generation becomes plain maximum inner product search; candidates are
then reranked with the exact similarity. Includes product quantization
for the stored encodings, a single-vector heuristic baseline, an
evaluation harness, binary file formats, and a CLI.
"""

from .chamfer import brute_force_topk, chamfer, nchamfer
from .encoding import (
    Fde,
    FdeConfig,
    config_fingerprint,
    fde_dim,
    generate_doc_fdes,
    generate_query_fde,
    generate_query_fdes,
    with_kmeans_partitions,
)
from .engine import (
    DEFAULT_CARVE_TAU,
    CarvedQuery,
    FdeIndex,
    PqSpec,
    RetrievalResult,
    ball_carve,
    batch_query,
    build_index,
    mips_search,
    query,
)
from .evaluation import (
    GridRow,
    RecallReport,
    VarianceReport,
    candidates_to_threshold,
    chamfer_one_nn,
    fde_rankings,
    grid_search,
    oracle_qrels,
    recall_at_n,
    variance_study,
)
from .partition import (
    KMeansPartitioner,
    SimHashPartitioner,
    assign_many,
    kmeans_train,
    simhash_new,
)
from .pq import (
    PqCodebook,
    pq_encode_many,
    pq_train,
)
from .svheuristic import TokenIndex, build_token_index, sv_candidates
from .synth import SynthSpec, generate_synthetic, synth_gen

__version__ = "0.1.0"
