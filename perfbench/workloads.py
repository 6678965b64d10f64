"""The benchmark's workloads: seeded inputs, one operation, its check,
and the traced variant that reports per-layer numbers.

``link`` runs the record-linkage flagship over a synthetic spans corpus
with the library's shipped configuration; ``near_dup`` runs
near-duplicate clustering over a seeded row sample of the repository's
test-data ``documents`` table. The traced run of each also probes the
layers of a workload the one-core time budget leaves out of the timed
set: ranking calls ride with ``link`` (they share ``stages.ranking``)
and pair scoring through ``api.inference`` rides with ``near_dup``.
"""

from __future__ import annotations

import itertools
import os
from collections import Counter, defaultdict

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data

from deezymatch_ray import api
from deezymatch_ray.config import DEFAULT_CONFIG
from deezymatch_ray.data.synth import make_documents, make_labeled_pairs, make_query_candidates
from deezymatch_ray.functions.dedup import word_shingles
from deezymatch_ray.functions.metrics import classification_metrics, confusion_counts
from deezymatch_ray.functions.text import encode_strings, normalize_string
from deezymatch_ray.model.chargru import CharGRU, load_weights
from deezymatch_ray.model.vocab import load_vocab
from deezymatch_ray.pipelines import linkage
from deezymatch_ray.pipelines.oracle import oracle_rank
from deezymatch_ray.sources import spans
from deezymatch_ray.stages import dedup, ranking, scoring

from tracing import Tracer, duration, execution_records

# a link job with the shipped 64-partition shuffles takes ~17 s on one
# core whatever the corpus size, most of it shuffle task overhead
LINK_DOCS = 1000
NEAR_DUP_DOCS = 1000
RANK_QUERIES = 20
RANK_CANDIDATES = 1000
SCORE_PAIRS = 1000

# 2,500 rows of the doc_id and text columns of the sf0.1 ``documents``
# test-data table (TESTDATA.md; 5,000 rows), drawn without replacement
# by numpy.random.default_rng(0).choice and kept in table order. Its
# near-duplicates are the table's own: every pair of rows at word
# 3-shingle Jaccard >= 0.5 in the full table lies at >= 0.8.
DOCUMENTS_SAMPLE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "data", "documents_sample.parquet")
# cluster_near_dup_documents' shingle size and accept threshold, passed
# explicitly so the exact recount in ``near_dup_truth`` uses the same
SHINGLE_N = 3
JACCARD_THRESHOLD = 0.5


def consume(ds: ray.data.Dataset) -> pa.Table:
    """Pull every row of ``ds`` into this process as one Arrow table."""
    batches = list(ds.iter_batches(batch_format="pyarrow", batch_size=None))
    return pa.concat_tables(batches) if batches else pa.table({})


def pair_f1(pred: list, truth: list) -> float:
    """Pairwise F1 of a predicted partition against the true one (both
    given as one label per item, aligned)."""
    def n_pairs(counts):
        return sum(c * (c - 1) // 2 for c in counts)

    both = n_pairs(Counter(zip(pred, truth)).values())
    total = n_pairs(Counter(pred).values()) + n_pairs(Counter(truth).values())
    return 2.0 * both / total if total else 1.0


def check_partition(out: pa.Table, ids: list, truth: dict, reference: dict | None,
                    min_f1: float) -> tuple[bool, float, str, dict]:
    """Every input id exactly once, the same partition as ``reference``
    (an earlier run on the same input) and pair F1 ≥ ``min_f1``.
    Returns (ok, pair F1, why not, doc → cluster)."""
    got = out["doc_id"].to_pylist() if out.num_rows else []
    if len(got) != len(ids) or set(got) != set(ids):
        return False, 0.0, f"{len(got)} output rows for {len(ids)} ids ({len(set(got))} distinct)", {}
    assign = dict(zip(got, out["cluster_id"].to_pylist()))
    f1 = pair_f1([assign[i] for i in ids], [truth[i] for i in ids])
    if reference is not None and assign != reference:
        return False, f1, "partition differs from the first run on the same input", assign
    if f1 < min_f1:
        return False, f1, f"pair F1 {f1:.4f} below {min_f1}", assign
    return True, f1, "", assign


def near_dup_truth(texts: list[str], n: int, threshold: float) -> list[int]:
    """Exact near-duplicate partition: documents joined by word n-gram
    shingle Jaccard >= ``threshold`` (every pair that shares a shingle
    is compared), closed transitively. One label per document."""
    sh = [set(word_shingles(t, n)) for t in texts]
    postings = defaultdict(list)
    for i, s in enumerate(sh):
        for x in s:
            postings[x].append(i)
    parent = list(range(len(texts)))

    def root(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    compared = set()
    for ids in postings.values():
        for pair in itertools.combinations(ids, 2):
            if pair in compared:
                continue
            compared.add(pair)
            a, b = pair
            inter = len(sh[a] & sh[b])
            if inter / (len(sh[a]) + len(sh[b]) - inter) >= threshold:
                parent[root(a)] = root(b)
    return [root(i) for i in range(len(texts))]


def _model_parts(model_dir: str):
    weights, meta = load_weights(os.path.join(model_dir, "model.npz"))
    model = CharGRU(weights, num_layers=meta.get("num_layers", 2),
                    bidirectional=meta.get("bidirectional", True),
                    arch=meta.get("arch", "gru"),
                    pooling_mode=meta.get("pooling_mode", "hstates_layers_simple"))
    return model, load_vocab(os.path.join(model_dir, "vocab.parquet"))


class _Workload:
    def __init__(self, model_dir: str, workdir: str):
        self.model_dir = model_dir
        self.workdir = workdir

    def _write(self, table: pa.Table, seed: int, filename: str) -> str:
        path = os.path.join(self.workdir, f"{self.name}-{seed}", filename)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        pq.write_table(table, path)
        return path

    def check(self, inputs: dict, out: pa.Table, reference: dict | None):
        return check_partition(out, inputs["ids"], inputs["truth"], reference, self.min_f1)


class Link(_Workload):
    """``link_documents`` with the shipped configuration over a seeded
    ``make_documents`` spans corpus, checked against the corpus's
    ground-truth entities (the documented pair F1 of the shipped model
    on this corpus is about 0.6)."""

    name = "link"
    min_f1 = 0.5

    def make_inputs(self, seed: int) -> dict:
        docs, truth = make_documents(LINK_DOCS, seed=seed)
        ids = truth["doc_id"].to_pylist()
        return {"path": self._write(docs, seed, "documents_spans.parquet"),
                "ids": ids, "items": len(ids),
                "truth": dict(zip(ids, truth["entity_id"].to_pylist())),
                "sizes": {"docs": len(ids),
                          "shuffle_partitions": DEFAULT_CONFIG.execution.shuffle_partitions,
                          "rank_queries": RANK_QUERIES, "rank_candidates": RANK_CANDIDATES}}

    def op(self, inputs: dict) -> pa.Table:
        docs = spans.read_documents(inputs["path"])
        return consume(linkage.link_documents(docs, model_dir=self.model_dir))

    def traced_op(self, tr: Tracer, inputs: dict) -> pa.Table:
        tr.wrap(spans, "read_documents", "sources.spans.read_documents")
        tr.wrap(linkage, "link_documents", "pipelines.linkage.link_documents")
        tr.wrap(linkage, "prepare_side", "stages.ranking.prepare_side")
        tr.wrap(linkage, "blocked_pairs", "stages.ranking.blocked_pairs",
                input_span="stages.blocking.block_keys")
        tr.wrap(linkage, "dedup_pairs", "stages.ranking.dedup_pairs")
        tr.wrap(linkage, "connected_components_driver", "stages.clustering.cc_driver")
        tr.wrap(linkage, "connected_components_distributed", "stages.clustering.cc_distributed")
        tr.wrap_materialize()
        try:
            return self.op(inputs)
        finally:
            tr.restore()

    def layer_metrics(self, tr: Tracer, inputs: dict) -> dict:
        def span(name):
            return tr.first(name, "traced")

        keys = span("stages.blocking.block_keys")
        blocked = span("stages.ranking.blocked_pairs")
        dd = span("stages.ranking.dedup_pairs")
        cand, kept = blocked["ray_data.rows_out"], dd["ray_data.rows_out"]
        # the scorer runs, fused with the edge filter, in the pipeline's
        # own materialization of the edge set
        scored = [s for s in tr.find("ray_data.materialize", "traced")
                  if any("CachedStage" in o or "PairScorer" in o for o in s.get("operators", ()))]
        scorer_s = sum(duration(s) for s in scored)
        edges = sum(s["ray_data.rows_out"] for s in scored)
        cc_dist = span("stages.clustering.cc_distributed")
        return {
            "sources.spans.read_s": duration(span("sources.spans.read_documents")),
            "stages.ranking.prepare_side_s": duration(span("stages.ranking.prepare_side")),
            "stages.blocking.keys_per_doc": keys["ray_data.rows_out"] / inputs["items"],
            "stages.ranking.blocked_pairs_s": duration(blocked) - duration(keys),
            "stages.ranking.blocked_pairs_tasks": blocked["ray_data.tasks"],
            "stages.ranking.candidate_pairs": cand,
            "stages.ranking.dedup_pairs_s": duration(dd),
            "stages.ranking.dedup_pairs_tasks": dd["ray_data.tasks"],
            "stages.ranking.dedup_keep_ratio": kept / cand if cand else 0.0,
            "stages.scoring.pair_scorer_s": scorer_s,
            "stages.scoring.pairs_per_s": kept / scorer_s if scorer_s else 0.0,
            "pipelines.linkage.edge_accept_ratio": edges / kept if kept else 0.0,
            "stages.clustering.cc_s": duration(cc_dist) + duration(span("stages.clustering.cc_driver")),
            "stages.clustering.distributed": int(duration(cc_dist) > 0),
        }

    def probe(self, tr: Tracer, seed: int) -> tuple[dict, bool, str]:
        """One ``candidate_ranker(plan="global")`` call on a seeded query
        batch and gazetteer, traced and compared with ``oracle_rank``."""
        q, c = make_query_candidates(RANK_QUERIES, RANK_CANDIDATES, seed=seed)
        queries = [(f"q-{i:04d}", n) for i, n in enumerate(q["name"].to_pylist())]
        cands = [(f"c-{i:05d}", n) for i, n in enumerate(c["name"].to_pylist())]

        def as_ds(rows):
            return ray.data.from_arrow(pa.table({"id": [i for i, _ in rows],
                                                 "name": [n for _, n in rows]}))

        tr.op_id = "rank"
        tr.wrap(ranking, "prepare_side", "stages.ranking.prepare_side")
        tr.wrap(ranking, "rank_pairs", "stages.ranking.rank_pairs",
                input_span="stages.ranking.global_topk")
        try:
            got = consume(api.candidate_ranker(as_ds(queries), as_ds(cands),
                                               self.model_dir, plan="global"))
        finally:
            tr.restore()
        model, tok2index = _model_parts(self.model_dir)
        cfg = linkage.load_model_artifacts(self.model_dir)[3]
        want = oracle_rank(queries, cands, model, tok2index, cfg)
        got_rows = sorted(zip(got["query_id"].to_pylist(), got["rank"].to_pylist(),
                              got["candidate_id"].to_pylist())) if got.num_rows else []
        want_rows = sorted(zip(want["query_id"], map(int, want["rank"]), want["candidate_id"]))
        hit = {(q, c) for q, _, c in got_rows} & {(q, c) for q, _, c in want_rows}
        # rank_global prepares both sides through prepare_side; the row
        # count tells them apart
        side = {s["ray_data.rows_out"]: s for s in tr.find("stages.ranking.prepare_side", "rank")}
        topk = tr.first("stages.ranking.global_topk", "rank")
        none = tr.first("", "rank")
        m = {
            "stages.ranking.prepare_side_candidates_s": duration(side.get(len(cands), none)),
            "stages.ranking.prepare_side_queries_s": duration(side.get(len(queries), none)),
            "stages.ranking.global_topk_s": duration(topk),
            "stages.ranking.rank_pairs_s":
                duration(tr.first("stages.ranking.rank_pairs", "rank")) - duration(topk),
            "stages.ranking.result_rows": got.num_rows,
            "stages.ranking.rank_recall": len(hit) / len(want_rows) if want_rows else 1.0,
        }
        ok = got_rows == want_rows
        return m, ok, "" if ok else "candidate_ranker differs from oracle_rank"


class NearDup(_Workload):
    """``cluster_near_dup_documents`` over a seeded row sample of the
    committed ``documents`` sample, checked against the exact Jaccard
    partition of the same rows."""

    name = "near_dup"
    # 16 bands of 4 MinHash rows miss a pair at Jaccard >= 0.8 with
    # probability < 3e-4, so the partition must equal the exact one
    min_f1 = 1.0

    def make_inputs(self, seed: int) -> dict:
        sample = pq.read_table(DOCUMENTS_SAMPLE)
        rows = np.sort(np.random.default_rng((seed, 9)).choice(
            sample.num_rows, NEAR_DUP_DOCS, replace=False))
        table = sample.take(rows)
        ids = table["doc_id"].to_pylist()
        group = near_dup_truth(table["text"].to_pylist(), SHINGLE_N, JACCARD_THRESHOLD)
        return {"path": self._write(table, seed, "documents.parquet"),
                "ids": ids, "items": len(ids), "truth": dict(zip(ids, group)),
                "sizes": {"docs": len(ids), "sample_rows": sample.num_rows,
                          "score_pairs": SCORE_PAIRS}}

    def op(self, inputs: dict) -> pa.Table:
        docs = ray.data.read_parquet(inputs["path"])
        return consume(linkage.cluster_near_dup_documents(
            docs, shingle_n=SHINGLE_N, jaccard_threshold=JACCARD_THRESHOLD))

    def traced_op(self, tr: Tracer, inputs: dict) -> pa.Table:
        tr.wrap(linkage, "cluster_near_dup_documents", "pipelines.linkage.cluster_near_dup_documents")
        tr.wrap(dedup, "minhash_lsh_near_dup", "stages.dedup.minhash_lsh_near_dup")
        tr.wrap(linkage, "connected_components_driver", "stages.clustering.cc_driver")
        tr.wrap(linkage, "connected_components_distributed", "stages.clustering.cc_distributed")
        try:
            return self.op(inputs)
        finally:
            tr.restore()

    def layer_metrics(self, tr: Tracer, inputs: dict) -> dict:
        def span(name):
            return tr.first(name, "traced")

        mh = span("stages.dedup.minhash_lsh_near_dup")
        cc_drv = span("stages.clustering.cc_driver")
        cc_dist = span("stages.clustering.cc_distributed")
        cc_s = duration(cc_drv) + duration(cc_dist)
        cand = mh["ray_data.rows_out"]
        # the in-process union-find receives the accepted edge list
        edges = cc_drv.get("rows_in", 0)
        return {
            "stages.dedup.minhash_lsh_near_dup_s": duration(mh),
            "stages.dedup.minhash_lsh_near_dup_tasks": mh["ray_data.tasks"],
            "stages.dedup.candidate_pairs": cand,
            # everything the pipeline does between candidate generation
            # and clustering: shingle hashing, Jaccard verify, node gather
            "pipelines.linkage.verify_s":
                duration(span("pipelines.linkage.cluster_near_dup_documents")) - duration(mh) - cc_s,
            "pipelines.linkage.verify_keep_ratio": edges / cand if cand else 0.0,
            "stages.clustering.cc_s": cc_s,
            "stages.clustering.distributed": int(duration(cc_dist) > 0),
        }

    def probe(self, tr: Tracer, seed: int) -> tuple[dict, bool, str]:
        """``api.inference(mode="test")`` on seeded labeled pairs and one
        read of its result, its Ray Data executions counted and its
        metrics recounted from the rows it returned; ``confusion_counts``
        over those rows; one bare ``map_batches(PairScorer)`` pass over
        the same pairs; the model kernel and string encoding in-process."""
        tr.op_id = "score"
        pairs = make_labeled_pairs(SCORE_PAIRS, seed=seed)
        pairs_ds = ray.data.from_arrow(pairs)
        before = execution_records()
        with tr.span("api.inference") as call:
            scored, metrics = api.inference(self.model_dir, pairs_ds, mode="test")
            # the caller's one read of the result
            rows = consume(scored)
            call["ray_data.rows_out"] = rows.num_rows
        after = execution_records()
        if before is None or after is None:
            tr.stats_fallback = True
            executions = -1
        else:
            executions = sum(1 for tag, ops in after.items()
                             if tag not in before and any("PairScorer" in o for o in ops))

        label = np.asarray(rows["label"].to_pylist(), dtype=bool)
        pred = np.asarray(pc.fill_null(rows["pred"], False).to_pylist(), dtype=bool)
        recount = {"tp": int((label & pred).sum()), "fp": int((~label & pred).sum()),
                   "tn": int((~label & ~pred).sum()), "fn": int((label & ~pred).sum())}
        with tr.span("functions.metrics.confusion_counts") as cc:
            counted = confusion_counts(ray.data.from_arrow(rows.select(["label", "pred"])))
        ok = (rows.num_rows == pairs.num_rows and counted == recount
              and classification_metrics(recount) == metrics)

        # one bare scorer pass over the same pairs, for the stage's own time
        weights_ref, vocab_ref, meta, mcfg = linkage.load_model_artifacts(self.model_dir)
        with tr.span("stages.scoring.single_pass") as single:
            consume(tr.record_output(single, pairs_ds.map_batches(
                scoring.PairScorer,
                fn_constructor_kwargs=dict(
                    weights_ref=weights_ref, vocab_ref=vocab_ref, meta=meta,
                    s1_col="s1", s2_col="s2", with_classical=False,
                    preprocessing=mcfg.preprocessing, tokenization=mcfg.tokenization),
                batch_format="pyarrow",
                batch_size=mcfg.execution.score_batch_size,
                concurrency=mcfg.execution.score_concurrency,
            )))

        model, tok2index = _model_parts(self.model_dir)
        tok = mcfg.tokenization
        norm = [[normalize_string(s) for s in pairs[c].to_pylist()] for c in ("s1", "s2")]
        with tr.span("functions.text.encode_strings") as encode:
            (x1, l1, _), (x2, l2, _) = [
                encode_strings(s, tok2index, tokenize=tok.tokenize,
                               prefix_suffix=tok.prefix_suffix, max_seq_len=tok.max_seq_len)
                for s in norm]
        with tr.span("model.chargru.match_probability") as kernel:
            model.match_probability(x1, l1, x2, l2)
        m = {
            "api.inference.scorer_executions": executions,
            "api.inference.call_s": duration(call),
            "api.inference.macro_f1": metrics["macro_f1"],
            "stages.scoring.single_pass_s": duration(single),
            "model.chargru.match_probability_pairs_per_s": pairs.num_rows / duration(kernel),
            "functions.text.encode_strings_s": duration(encode),
            "functions.metrics.confusion_counts_s": duration(cc),
        }
        return m, ok, "" if ok else "inference metrics differ from the NumPy recount"


WORKLOADS = {w.name: w for w in (Link, NearDup)}
