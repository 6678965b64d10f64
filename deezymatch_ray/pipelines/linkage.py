"""Flagship record-linkage pipeline: spans docs → blocks → scored pairs
→ entity clusters (SURVEY §7.1).

Model management: the engine scores with a trained siamese char-GRU.
``get_or_train_default_model`` trains one on deterministic synthetic
labeled pairs (the sandbox stand-in for the reference's bundled toponym
training set, README.md:168-176) and caches the npz + vocab parquet
under a models dir — mirroring the reference's ``models/<name>/``
artifact layout (DeezyMatch.py:100-108) without pickle.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import ray
import ray.data

from deezymatch_ray.config import DEFAULT_CONFIG, EngineConfig
from deezymatch_ray.data.synth import make_labeled_pairs
from deezymatch_ray.functions.text import encode_strings, normalize_string
from deezymatch_ray.model.chargru import init_weights, load_weights, save_weights
from deezymatch_ray.model.train import SiameseTrainer, fit
from deezymatch_ray.model.vocab import build_vocab_local, load_vocab, save_vocab
from deezymatch_ray.sources.spans import add_join_text
from deezymatch_ray.stages.clustering import (
    connected_components_distributed,
    connected_components_driver,
    edges_from_ranked,
)
from deezymatch_ray.stages.ranking import (
    _KeyAndCarry,
    blocked_pairs,
    dedup_pairs,
    prepare_side,
    rank_blocked,
    rank_global,
)

_REPO_ARTIFACT_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "artifacts", "default_model",
)
DEFAULT_MODEL_DIR = (
    _REPO_ARTIFACT_DIR
    if os.path.exists(os.path.join(_REPO_ARTIFACT_DIR, "model.npz"))
    else "/tmp/deezymatch_ray_models/default"
)


def train_model(
    model_dir: str,
    n_pairs: int = 6000,
    seed: int = 11,
    cfg: EngineConfig = DEFAULT_CONFIG,
    epochs: int = 15,
    embedding_dim: int = 48,
    hidden_dim: int = 48,
    log=lambda *a: None,
) -> str:
    """Train on deterministic synthetic pairs; write model.npz +
    vocab.parquet + meta.json. Char tokenization (the EMNLP config used
    char mode; BASELINE.md)."""
    os.makedirs(model_dir, exist_ok=True)
    pairs = make_labeled_pairs(n_pairs, seed=seed)
    s1 = [normalize_string(s) for s in pairs["s1"].to_pylist()]
    s2 = [normalize_string(s) for s in pairs["s2"].to_pylist()]
    y = np.array(pairs["label"].to_pylist(), dtype=np.int64)
    tok2index, counts = build_vocab_local(
        s1 + s2, tokenize=("char",), prefix_suffix=("<", ">")
    )
    enc = lambda S: encode_strings(
        S, tok2index, tokenize=("char",), prefix_suffix=("<", ">"),
        max_seq_len=cfg.tokenization.max_seq_len,
    )
    x1, l1, _ = enc(s1)
    x2, l2, _ = enc(s2)
    n_train = int(len(y) * 0.85)
    w = init_weights(
        len(tok2index), embedding_dim, hidden_dim, num_layers=2,
        fc1_out_dim=64, seed=7,
    )
    tr = SiameseTrainer(w, num_layers=2)
    fit(
        tr, (x1[:n_train], l1[:n_train], x2[:n_train], l2[:n_train], y[:n_train]),
        valid_data=(x1[n_train:], l1[n_train:], x2[n_train:], l2[n_train:], y[n_train:]),
        epochs=epochs, batch_size=64, lr=3e-3, seed=1, log=log,
    )
    # Calibration on held-out pairs:
    # - shortlist (squared-L2) threshold = a high percentile of the positive
    #   distances — loose on purpose, it only bounds candidate generation;
    # - edge (confidence) threshold = smallest grid point whose held-out
    #   precision reaches 0.99 (transitive clustering punishes false edges
    #   far more than missed ones: one bad edge merges two clusters).
    from deezymatch_ray.model.chargru import CharGRU

    model = CharGRU(tr.w, num_layers=2)
    f1v, b1v = model.embed(x1[n_train:], l1[n_train:])
    f2v, b2v = model.embed(x2[n_train:], l2[n_train:])
    e1 = np.concatenate([f1v, b1v], axis=1).astype(np.float64)
    e2 = np.concatenate([f2v, b2v], axis=1).astype(np.float64)
    dist = ((e1 - e2) ** 2).sum(axis=1)
    yv = y[n_train:]
    pos_d = dist[yv == 1]
    faiss_thr = float(np.percentile(pos_d, 90)) * 1.75 if len(pos_d) else 10.0
    p1 = model.match_probability(x1[n_train:], l1[n_train:], x2[n_train:], l2[n_train:])
    # 0.97 model-level precision suffices: the classical agreement gate
    # (jw/lev) multiplies in the rest before an edge is accepted
    conf_thr = 0.95
    for t in (0.5, 0.8, 0.9, 0.95, 0.99, 0.995, 0.999):
        sel = p1 >= t
        tp = int((sel & (yv == 1)).sum())
        fp = int((sel & (yv == 0)).sum())
        if tp + fp > 0 and tp / (tp + fp) >= 0.97:
            conf_thr = t
            break
    meta = {
        "num_layers": 2, "bidirectional": True, "arch": "gru",
        "pooling_mode": "hstates_layers_simple",
        "tokenize": ["char"], "prefix_suffix": ["<", ">"],
        "suggested_faiss_threshold": faiss_thr,
        "suggested_conf_threshold": conf_thr,
        # classical agreement gate for clustering edges (either suffices)
        "edge_jw_gate": 0.85, "edge_lev_gate": 2,
    }
    save_weights(os.path.join(model_dir, "model.npz"), tr.w, meta=meta)
    save_vocab(os.path.join(model_dir, "vocab.parquet"), tok2index, counts)
    with open(os.path.join(model_dir, "meta.json"), "w") as f:
        json.dump(meta, f)
    return model_dir


def get_or_train_default_model(model_dir: str = DEFAULT_MODEL_DIR) -> str:
    if not os.path.exists(os.path.join(model_dir, "model.npz")):
        train_model(model_dir)
    return model_dir


def load_model_artifacts(model_dir: str):
    """Returns (weights_ref, vocab_ref, meta, model_cfg) with the arrays
    broadcast into the object store (one copy cluster-wide)."""
    weights, meta = load_weights(os.path.join(model_dir, "model.npz"))
    # meta.json (if present) overrides the npz-embedded copy — it is the
    # editable calibration surface (thresholds/gates), the npz is frozen
    meta_path = os.path.join(model_dir, "meta.json")
    if os.path.exists(meta_path):
        with open(meta_path) as f:
            meta = {**meta, **json.load(f)}
    tok2index = load_vocab(os.path.join(model_dir, "vocab.parquet"))
    cfg = DEFAULT_CONFIG.replace(
        tokenization=DEFAULT_CONFIG.tokenization.__class__(
            tokenize=tuple(meta.get("tokenize", ["char"])),
            prefix_suffix=tuple(meta.get("prefix_suffix", ["<", ">"])),
        )
    )
    return ray.put(weights), ray.put(tok2index), meta, cfg


def docs_with_join_text(docs: ray.data.Dataset) -> ray.data.Dataset:
    """spans table → (doc_id, join_text); spans are projected away here
    and re-joined only at final output (wide-row rule, SURVEY §7.4)."""
    return docs.map_batches(add_join_text, batch_format="pyarrow").select_columns(
        ["doc_id", "join_text"]
    )


def score_self_pairs(
    docs: ray.data.Dataset,
    cfg: EngineConfig,
    weights_ref,
    vocab_ref,
    meta: dict,
) -> ray.data.Dataset:
    """Blocked self-join: (query_id, candidate_id, faiss_dist,
    cosine_dist) for unordered within-block doc pairs under threshold."""
    prepared = prepare_side(docs, cfg, weights_ref, vocab_ref, meta,
                            "doc_id", "join_text")
    keyed = prepared.map_batches(_KeyAndCarry(cfg), batch_format="pyarrow")
    return blocked_pairs(keyed, cfg, self_join=True)


def cluster_near_dup_documents(
    docs: ray.data.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    shingle_n: int = 3,
    jaccard_threshold: float = 0.5,
    minhash_k: int = 64,
    n_bands: int = 16,
    distributed_cc: bool | None = None,
    driver_edge_limit: int = 2_000_000,
) -> ray.data.Dataset:
    """Near-duplicate clustering for LONG-document corpora → (doc_id,
    cluster_id).

    Character-q-gram blocking (the name-linkage path) degenerates on
    long texts — every common q-gram becomes a giant block — so the
    document flagship blocks on MinHash LSH bands (only k×8-byte
    signatures shuffle), verifies candidates with exact word-shingle
    Jaccard, and clusters accepted edges transitively. Candidate recall
    is the standard LSH band bound (≥ 1-(1-t^r)^b; ~0.9997 at t=0.5,
    r=4, b=16).
    """
    from deezymatch_ray.stages.dedup import (
        _pack16,
        _shingle_hashes,
        minhash_lsh_near_dup,
    )

    cand = minhash_lsh_near_dup(
        docs, text_col=text_col, id_col=id_col, n=shingle_n, k=minhash_k,
        n_bands=n_bands, threshold=0.0,
    ).materialize()
    n_cand = cand.count()

    # Each doc is shingled+hashed ONCE (round-3 fix: the old verify
    # re-built set(word_shingles(text)) for both docs of EVERY candidate
    # pair — a doc in p pairs was re-shingled p times, O(pairs×doc_len)
    # Python in the flagship's verify stage). Verification intersects
    # the precomputed sorted 128-bit hash arrays with searchsorted;
    # hash-identity stands in for shingle identity (see _shingle_hashes).
    def hash_docs(batch: pa.Table) -> pa.Table:
        hs = _shingle_hashes(batch[text_col].to_pylist(), shingle_n)
        return pa.table({
            id_col: batch[id_col],
            "sh_blob": pa.array([_pack16(h) for h in hs], type=pa.binary()),
        })

    def _inter_count(a: np.ndarray, b: np.ndarray) -> int:
        if a.size == 0 or b.size == 0:
            return 0
        idx = np.minimum(np.searchsorted(a, b), a.size - 1)
        return int(np.count_nonzero(a[idx] == b))

    def _jaccard_ok(sa: np.ndarray, sb: np.ndarray) -> bool:
        """THE accept predicate for both verify paths (broadcast and
        join) — one definition so a threshold/denominator tweak can
        never diverge them."""
        inter = _inter_count(sa, sb)
        denom = sa.size + sb.size - inter
        return denom > 0 and inter / denom >= jaccard_threshold

    def _blob_pairs_ok(a_blobs: list, b_blobs: list) -> list[int]:
        return [
            i
            for i in range(len(a_blobs))
            if _jaccard_ok(
                np.frombuffer(a_blobs[i] or b"", dtype="S16"),
                np.frombuffer(b_blobs[i] or b"", dtype="S16"),
            )
        ]

    if n_cand <= 500_000:
        # small candidate set: broadcast the involved docs' shingle-hash
        # arrays instead of two hash joins (join actor spin-up dwarfs
        # the work at this size)
        involved = set()
        for r in cand.iter_rows():
            involved.add(r["doc_a"])
            involved.add(r["doc_b"])
        inv_ref = ray.put(involved)

        def pick(batch: pa.Table) -> pa.Table:
            inv = ray.get(inv_ref)
            mask = pa.array([v in inv for v in batch[id_col].to_pylist()])
            return hash_docs(batch.select([id_col, text_col]).filter(mask))

        hmap: dict = {}
        for b in docs.map_batches(pick, batch_format="pyarrow").iter_batches(batch_format="pyarrow"):
            hmap.update(zip(
                b[id_col].to_pylist(),
                (np.frombuffer(x or b"", dtype="S16") for x in b["sh_blob"].to_pylist()),
            ))
        hmap_ref = ray.put(hmap)

        def verify_bc(batch: pa.Table) -> pa.Table:
            hm = ray.get(hmap_ref)
            a_ids = batch["doc_a"].to_pylist()
            b_ids = batch["doc_b"].to_pylist()
            empty = np.array([], dtype="S16")
            keep = [
                i
                for i in range(len(a_ids))
                if _jaccard_ok(hm.get(a_ids[i], empty), hm.get(b_ids[i], empty))
            ]
            t = batch.take(pa.array(keep, type=pa.int64()))
            return pa.table({"src": t["doc_a"], "dst": t["doc_b"]})

        edges = cand.map_batches(verify_bc, batch_format="pyarrow")
    else:
        # large candidate set: hash-join the (much smaller than text)
        # shingle-hash blobs back by id — the scale path
        hashed = docs.map_batches(hash_docs, batch_format="pyarrow").materialize()
        j1 = cand.join(hashed, join_type="inner", num_partitions=16,
                       on=("doc_a",), right_on=(id_col,))
        # explicit projection between joins: leftover right-side columns
        # make the second join's key reference ambiguous
        j1 = j1.map_batches(
            lambda b: pa.table({"doc_a": b["doc_a"], "doc_b": b["doc_b"],
                                "blob_a": b["sh_blob"]}),
            batch_format="pyarrow",
        )
        j2 = j1.join(hashed, join_type="inner", num_partitions=16,
                     on=("doc_b",), right_on=(id_col,))

        def verify(batch: pa.Table) -> pa.Table:
            keep = _blob_pairs_ok(batch["blob_a"].to_pylist(),
                                  batch["sh_blob"].to_pylist())
            t = batch.take(pa.array(keep, type=pa.int64()))
            return pa.table({"src": t["doc_a"], "dst": t["doc_b"]})

        edges = j2.map_batches(verify, batch_format="pyarrow")
    return _cluster(edges, docs.select_columns([id_col]), id_col,
                    distributed_cc, driver_edge_limit,
                    DEFAULT_CONFIG.execution.cluster_max_rounds)


def _cluster(
    edges: ray.data.Dataset,
    nodes: ray.data.Dataset,
    id_col: str,
    distributed: bool | None,
    limit: int,
    max_rounds: int,
) -> ray.data.Dataset:
    """The clustering tail of both flagships: accepted (src, dst) edges
    + every node id (column ``id_col``) → (doc_id, cluster_id), keeping
    the id type on both paths.

    Driver union-find while max(edges, nodes) ≤ ``limit``, otherwise
    (or when ``distributed`` forces it) distributed min-label
    propagation. The gate counts NODES too (round-3 VERDICT #5): a
    corpus with billions of docs and few duplicate edges must not
    take_all() every doc id onto the driver. Both inputs materialize
    once, so the counts are metadata-free and neither path re-runs the
    caller's pipeline."""
    # r5 interleaved A/B (BASELINE.md §Linkage-gate A/B): this node
    # materialize against a lazy docs.count() gate differed by −5.3 to
    # +4.6 s per pair while identical code swung 14.5→31.1 s — drift
    nodes = nodes.materialize()
    edges = edges.materialize()
    if distributed is None:
        distributed = max(edges.count(), nodes.count()) > limit
    if distributed:
        return connected_components_distributed(
            edges, nodes=nodes.rename_columns({id_col: "doc_id"}),
            max_rounds=max_rounds,
        )
    assign = connected_components_driver(
        [(r["src"], r["dst"]) for r in edges.take_all()],
        [r[id_col] for r in nodes.take_all()],
    )
    items = sorted(assign.items())
    sch = nodes.schema()
    id_type = dict(zip(sch.names, sch.types))[id_col]
    return ray.data.from_arrow(pa.table({
        "doc_id": pa.array([k for k, _ in items], type=id_type),
        "cluster_id": pa.array([v for _, v in items], type=id_type),
    }))


def link_documents(
    docs: ray.data.Dataset,
    cfg: EngineConfig | None = None,
    model_dir: str | None = None,
    edge_threshold: float | None = None,
    distributed_cc: bool | None = None,
    checkpoint_dir: str | None = None,
) -> ray.data.Dataset:
    """End-to-end: spans docs → (doc_id, cluster_id).

    Two-phase edge decision mirroring the reference's own split between
    retrieval and confirmation (faiss shortlist → model confidence,
    candidateRanker.py:390-441): within-block pairs under the calibrated
    squared-L2 shortlist threshold are re-scored by the siamese
    classifier, and an edge is kept only when the model confidence
    clears its precision-calibrated threshold AND a classical metric
    agrees (Jaro-Winkler or Levenshtein gate) — transitive clustering
    punishes false edges far more than missed ones. ``edge_threshold``
    overrides the confidence threshold when given.
    """
    import dataclasses

    import pyarrow.compute as pc

    cfg = cfg or DEFAULT_CONFIG
    weights_ref, vocab_ref, meta, mcfg = load_model_artifacts(
        model_dir or get_or_train_default_model()
    )
    shortlist_thr = meta.get("suggested_faiss_threshold", cfg.ranking.selection_threshold)
    conf_thr = (
        edge_threshold
        if edge_threshold is not None
        else meta.get("suggested_conf_threshold", 0.95)
    )
    jw_gate = meta.get("edge_jw_gate", 0.75)
    lev_gate = meta.get("edge_lev_gate", 2)
    cfg = cfg.replace(
        tokenization=mcfg.tokenization,
        ranking=dataclasses.replace(cfg.ranking, selection_threshold=shortlist_thr),
    )
    jt = docs_with_join_text(docs)
    if checkpoint_dir is not None:
        # resumable variant: the embedding stage (the expensive per-row
        # work) runs through the partitioned-manifest machinery — a killed
        # run re-embeds only unfinished partitions (state/checkpoint.py)
        from deezymatch_ray.state.checkpoint import read_stage_output, run_stage

        def embed_stage(part: ray.data.Dataset) -> ray.data.Dataset:
            return prepare_side(part, cfg, weights_ref, vocab_ref, meta,
                                "doc_id", "join_text")

        run_stage(jt, embed_stage, checkpoint_dir, "embed", "doc_id",
                  n_partitions=cfg.execution.checkpoint_partitions)
        prepared = read_stage_output(checkpoint_dir)
        keyed = prepared.map_batches(_KeyAndCarry(cfg), batch_format="pyarrow")
        pairs = blocked_pairs(keyed, cfg, self_join=True)
    else:
        pairs = score_self_pairs(jt, cfg, weights_ref, vocab_ref, meta)
    # D1 pair dedup (SURVEY §2.7): a pair sharing k block keys is emitted k
    # times; dedup BEFORE the model re-scores, keeping each pair's
    # lowest-distance copy
    pairs = dedup_pairs(pairs, cfg.execution.shuffle_partitions)
    from deezymatch_ray.stages.scoring import PairScorer

    scored = pairs.map_batches(
        PairScorer(
            weights_ref=weights_ref, vocab_ref=vocab_ref, meta=meta,
            s1_col="query", s2_col="candidate", with_classical=True,
            # ids + scores only: the edge filter never reads the pair
            # strings, so they stop traveling through the scored stream
            emit=("query_id", "candidate_id"),
            preprocessing=cfg.preprocessing, tokenization=cfg.tokenization,
        ),
        batch_format="pyarrow",
        batch_size=cfg.execution.score_batch_size,
    )

    def to_edges(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.greater_equal(batch["pred_score"], conf_thr),
            pc.or_(
                pc.greater_equal(batch["jw_sim"], jw_gate),
                pc.less_equal(batch["lev_dist"], lev_gate),
            ),
        )
        t = batch.filter(pc.fill_null(keep, False))
        return pa.table({"src": t["query_id"], "dst": t["candidate_id"]})

    return _cluster(
        scored.map_batches(to_edges, batch_format="pyarrow"),
        jt.select_columns(["doc_id"]), "doc_id", distributed_cc,
        cfg.execution.cluster_driver_edge_limit, cfg.execution.cluster_max_rounds,
    )
