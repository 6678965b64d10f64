"""Candidate ranking: exact per-query top-k with DeezyMatch semantics.

Reproduces the reference ``candidate_ranker`` result set
(candidateRanker.py:369-570) without its sequential per-query loop:

- The adaptive faiss window loop (:369-510) converges to exactly
  {candidates with metric ≤ threshold}, ranked, deduped (keep lowest
  distance first, :483-492), truncated to ``num_candidates`` (:533-544)
  — because faiss returns neighbors in ascending distance (SURVEY §2.6
  K2). We compute that fixpoint directly.
- ``faiss_dist`` is squared L2 (faiss IndexFlatL2 convention);
  ``cosine_dist`` = 1 − cosine similarity (:420-429); ``pred_score`` =
  siamese p1 (:431-441), in the blocked plan the head alone on the
  embedder's pooled legs (bit-equal to a full forward). Both distances come from
  ``functions.vectors.pair_dist``, so a pair's value depends only on
  its two embeddings, never on the plan or batch layout: identical
  embeddings (byte-identical names) give a ``faiss_dist`` of exactly 0.
- Tie-breaking at equal metric values is pinned to ascending
  ``candidate_id`` (stable) — faiss leaves tie order unspecified
  (SURVEY §7.4), so a distributed engine must fix it.

Two physical plans, same output schema:

- ``rank_blocked``: queries ∪ candidates → block keys → per-block exact
  scoring → global per-query merge. Scales to any candidate count; the
  result equals the reference restricted to pairs sharing a blocking key
  (the F1-gate population). As in the reference (candidateRanker.py:
  390-441), a float32 shortlist (``pair_shortlist``) comes first; exact
  distances, top-k, gathers and the head run on its survivors only.
- ``rank_global``: broadcast the full candidate matrix via ``ray.put``
  once, stream queries through ``map_batches`` computing exact global
  top-k (``dense_pairs``: a chunked gram shortlist, recomputed per
  pair; predictions from the head on the broadcast pooled legs). It
  returns the reference's global search result for the
  ``faiss`` metric, with ties at equal distance (duplicate names)
  going to the lowest candidate ids; usable while candidates fit in
  the object store.

Documented DELIBERATE deviations from the reference (exact-parity
claims above are scoped by these):

1. Candidate-string dedup: the reference dedups duplicate candidate
   *strings* (``s2_orig``, candidateRanker.py:483-492), so two distinct
   candidate ids with the same name yield ONE row; the DEFAULT here
   dedups on (query_id, candidate_id) — duplicate-named candidates each
   keep a row. Deterministic ids are the primary key of a distributed
   result; collapsing by display string would make output depend on id
   order. Opt-in reference parity: ``ranking.dedup_on =
   "candidate_string"`` collapses spellings keep-lowest-(metric, id) —
   exact parity for ``ranking_metric="faiss"`` only (the reference
   keeps the first duplicate in faiss-walk L2 order,
   candidateRanker.py:483-492; under ``cosine``/``conf`` our
   keep-lowest-metric row can differ, consistent with deviation 2).
2. ``cosine``/``conf`` metrics: the reference walks faiss L2-ordered
   windows and breaks on a *cosine/conf* threshold (:406-476) — the
   break is non-monotone in the walk order, and ``conf`` stops once
   ``num_candidates`` accumulate in faiss order, so its result set is
   not a pure threshold fixpoint. We compute the threshold fixpoint in
   the chosen metric directly: a superset-or-equal, order-deterministic
   result. Only the ``faiss`` metric is bit-parity.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from deezymatch_ray.config import EngineConfig
from deezymatch_ray.functions.vectors import (
    dense_pairs,
    pair_dist,
    pair_shortlist,
    run_starts,
    select_topk,
    to_matrix,
)
from deezymatch_ray.stages.blocking import (
    DeriveBlockKeys,
    bucket_map,
    collect_side,
    walk_segments,
)
from deezymatch_ray.stages.scoring import Embedder, _ModelStage

RANK_SCHEMA_COLS = [
    "query_id", "query", "candidate_id", "candidate",
    "faiss_dist", "cosine_dist", "pred_score", "rank",
]


def _metric_column(metric: str) -> str:
    return {"faiss": "faiss_dist", "cosine": "cosine_dist", "conf": "pred_score"}[metric]


def prepare_side(
    ds: ray.data.Dataset,
    cfg: EngineConfig,
    weights_ref,
    vocab_ref,
    meta: dict,
    id_col: str,
    text_col: str,
    with_leg: bool = False,
) -> ray.data.Dataset:
    """Normalize + embed one side; output (id, orig, norm_text, emb,
    emb_valid[, leg for the siamese head with ``with_leg``]). Projection
    happens here — spans/media never travel further (SURVEY §7.4)."""
    from deezymatch_ray.functions.text import normalize_array

    prep = cfg.preprocessing

    def norm_batch(batch: pa.Table) -> pa.Table:
        norm = normalize_array(
            batch[text_col], uni2ascii=prep.uni2ascii, lowercase=prep.lowercase,
            strip=prep.strip, only_latin_letters=prep.only_latin_letters,
        )
        return pa.table({
            "id": batch[id_col].combine_chunks() if isinstance(batch[id_col], pa.ChunkedArray) else batch[id_col],
            "orig": batch[text_col].combine_chunks() if isinstance(batch[text_col], pa.ChunkedArray) else batch[text_col],
            "norm_text": norm,
        })

    return ds.map_batches(norm_batch, batch_format="pyarrow").map_batches(
        Embedder(weights_ref=weights_ref, vocab_ref=vocab_ref, meta=meta,
                 text_col="norm_text", with_leg=with_leg,
                 preprocessing=cfg.preprocessing, tokenization=cfg.tokenization),
        batch_format="pyarrow",
        batch_size=cfg.execution.score_batch_size,
    )


_HEAD_SLAB = 1 << 16  # pairs per siamese-head call in a bucket
_TILE = "\x1ftile:"  # salted tile keys: "<block_key>\x1ftile:a-b"


def score_block_bucket(t: pa.Table, *, cfg: EngineConfig,
                       self_join: bool = False, head=None) -> pa.Table:
    """Score every block of a table of whole hash buckets
    (``blocked_pairs``' step, callable in-process): one
    ``walk_segments`` pass over the pairs with valid embeddings (within
    ``length_diff``) — the unordered pairs of a self-join block
    (query_id < candidate_id), the q × c rows of a salted tile or of a
    ``self_join=False`` block; blocks over
    ``max_block_size`` members or ``max_pairs_per_block`` pairs are
    skipped with a warning, salted tiles never. Under the faiss and
    cosine metrics the walk drops the pairs ``pair_shortlist`` proves
    beyond the threshold and each (block, query) keeps its own
    selection; ``pair_dist``, the gathers and ``_pred_scores`` run on
    the kept pairs alone."""
    r, caps = cfg.ranking, cfg.blocking
    want_cos = r.calc_cosine or r.ranking_metric == "cosine"
    emb = to_matrix(t["emb"], np.float32)
    valid = t["emb_valid"].to_numpy()
    lens = None if r.length_diff is None else pc.fill_null(  # NaN: never pairs
        pc.cast(pc.utf8_length(t["norm_text"]), pa.float64()), np.nan).to_numpy()
    # no shortlist under the conf metric: pred_score decides there
    short = {"faiss": ("l2", r.selection_threshold),
             "cosine": ("cos", 1.0 - r.selection_threshold)}.get(r.ranking_metric)

    def kernel(cols, a, b, key):
        keep = valid[a] & valid[b]
        if lens is not None:
            keep &= np.abs(lens[a] - lens[b]) <= r.length_diff
        a, b = a[keep], b[keep]
        if short is not None:
            keep = pair_shortlist(emb, a, b, *short)
            a, b = a[keep], b[keep]
        return a, b

    def oversize(seg):
        big = np.where(seg["right"] > 0, np.maximum(seg["left"], seg["right"]), seg["rows"])
        cap = np.where(seg["pairs"] > caps.max_pairs_per_block,
                       f"max_pairs_per_block={caps.max_pairs_per_block}", "")
        cap = np.where((seg["pairs"] > 0) & (big > caps.max_block_size),
                       f"max_block_size={caps.max_block_size}", cap)
        return np.where([_TILE in k for k in seg["key"]], "", cap)

    tag = ("role", "q", "c") if "role" in t.column_names else None
    q, c = walk_segments(t, "block_key", kernel, oversize, "blocked_pairs",
                         tag, self_join) or (np.empty(0, dtype=np.int64),) * 2
    fd, cos = pair_dist(emb, emb, q, c, cos=want_cos)
    cd = 1.0 - cos if want_cos else np.full(len(fd), np.nan)
    pairs = pa.table({"__qrow": q, "__crow": c, "candidate_id": t["id"].take(c),
                      "faiss_dist": fd.astype(np.float32), "cosine_dist": cd.astype(np.float32)})
    if r.ranking_metric != "conf":
        if r.dedup_on == "candidate_string":
            pairs = pairs.append_column("candidate", t["orig"].take(c))
        pairs = _select(pairs, cfg, ("__qrow",))
    q, c = pairs["__qrow"].to_numpy(), pairs["__crow"].to_numpy()
    leg = None if head is None else to_matrix(t["leg"], np.float32)
    pred = _pred_scores(head, leg, leg, q, c)
    return pa.table({"query_id": t["id"].take(q), "query": t["orig"].take(q),
                     "candidate_id": pairs["candidate_id"], "candidate": t["orig"].take(c),
                     "faiss_dist": pairs["faiss_dist"], "cosine_dist": pairs["cosine_dist"],
                     "pred_score": pred})


def _pred_scores(head, q_leg, c_leg, qi, ci) -> np.ndarray:
    """``pred_score`` of the pairs (qi, ci): ``head.head`` on their
    pooled legs in slabs of ``_HEAD_SLAB`` pairs (bounding the gathered
    legs), NaN without a head; a score depends on its two legs alone."""
    pred = np.full(len(qi), np.nan, dtype=np.float32)
    for i in range(0, len(qi) if head is not None else 0, _HEAD_SLAB):
        s = slice(i, i + _HEAD_SLAB)
        pred[s] = head.head(q_leg[qi[s]], c_leg[ci[s]])
    return pred


def _select(t: pa.Table, cfg: EngineConfig, group) -> pa.Table:
    r = cfg.ranking
    return select_topk(
        t, _metric_column(r.ranking_metric), r.num_candidates, group=group,
        descending=r.ranking_metric == "conf",
        threshold=r.selection_threshold,
        # reference parity (candidateRanker.py:483-492): duplicate
        # candidate SPELLINGS collapse to the lowest-(metric, id) row
        dedup_string="candidate" if r.dedup_on == "candidate_string" else None,
    )


def select_bucket(t: pa.Table, *, cfg: EngineConfig, group=("query_id",)) -> pa.Table:
    """Per-``group`` selection over whole hash buckets, in the rank
    schema (int32 ``rank``): dedup, threshold on the ranking metric,
    (metric, candidate_id) order, top-k, rank
    (candidateRanker.py:483-544)."""
    t = _select(t, cfg, group)
    t = t.set_column(t.schema.get_field_index("rank"), "rank",
                     pc.cast(t["rank"], pa.int32()))
    return t.select([c for c in RANK_SCHEMA_COLS if c in t.column_names])


def distinct_pairs(t: pa.Table) -> pa.Table:
    """One row per (query_id, candidate_id) of ``t``, sorted by that
    key: the first row of each run. Exact when a pair's copies are
    bit-equal, as ``score_block_bucket``'s are (a pair shared by k
    blocks arrives k times with equal distances and scores: each
    depends on the two rows' vectors only)."""
    t = t.sort_by([("query_id", "ascending"), ("candidate_id", "ascending")])
    return t.filter(pa.array(run_starts(t, ["query_id", "candidate_id"])))


def dedup_pairs(ds: ray.data.Dataset, num_buckets: int = 64) -> ray.data.Dataset:
    """Drop duplicate (query_id, candidate_id) rows across a whole
    Dataset — the D1 pattern (SURVEY §2.7): hash-bucket the pair key,
    then one ``distinct_pairs`` pass per ``bucket_map`` call. No
    pipeline runs this shuffle: link drops the copies each walk call
    emits in its edge step (connected components ignore the copies that
    fall in different calls), and ``rank_pairs`` collapses them per
    query. Tests build the globally deduplicated reference with it."""
    return bucket_map(ds, ["query_id", "candidate_id"], distinct_pairs, num_buckets)


def rank_blocked(
    queries: ray.data.Dataset,
    candidates: ray.data.Dataset,
    cfg: EngineConfig,
    weights_ref,
    vocab_ref,
    meta: dict,
    query_id="id", query_text="name", cand_id="id", cand_text="name",
) -> ray.data.Dataset:
    """Blocked ranking plan. Input datasets carry (id, text) columns.
    Under the 'conf' metric or calc_predict the sides carry their pooled
    legs and the bucket kernel scores pairs with the siamese head (the
    model runs only when asked, candidateRanker.py:431-441)."""
    want_pred = cfg.ranking.ranking_metric == "conf" or cfg.ranking.calc_predict
    q = prepare_side(queries, cfg, weights_ref, vocab_ref, meta, query_id,
                     query_text, with_leg=want_pred)
    c = prepare_side(candidates, cfg, weights_ref, vocab_ref, meta, cand_id,
                     cand_text, with_leg=want_pred)

    def tag(role):
        def fn(batch: pa.Table) -> pa.Table:
            return batch.append_column("role", pa.array([role] * len(batch)))
        return fn

    both = q.map_batches(tag("q"), batch_format="pyarrow").union(
        c.map_batches(tag("c"), batch_format="pyarrow")
    )
    head = _ModelStage(weights_ref, vocab_ref, meta) if want_pred else None
    return rank_pairs(blocked_pairs(both, cfg, key=_KeyAndCarry(cfg), head=head), cfg)


def salt_hot_blocks(
    keyed: ray.data.Dataset, cfg: EngineConfig, id_col: str = "id",
    census: ray.data.Dataset | None = None,
) -> ray.data.Dataset:
    """Skew-aware repartitioning of hot self-join blocks (SURVEY §4).

    A block of n > max_block_size members is tile-decomposed: members
    hash into s = ceil(n / ceil(max_block_size/2)) groups — the 2×
    headroom keeps every crc32-uniform group under max_block_size with
    overwhelming probability (expected group size ≤ cap/2; P(group >
    2×mean) is Chernoff-negligible for cap ≥ 64) — and each member is
    re-emitted once per tile it participates in (key "k␟tile:a-b",
    role q for the lower group, c for the upper), so every unordered
    within-block pair is produced by exactly one tile. Tiles are exempt
    from score_block_bucket's size caps (they are already bounded here),
    making the every-pair-exactly-once guarantee unconditional. Blocks
    needing more than ``salt_max_tiles`` groups are dropped (their key
    carries no signal at that frequency) with one driver-side warning
    giving the number of dropped keys and their keyed rows.

    The hot-key census is one Ray execution over slim keys (``census``,
    by default ``keyed``'s ``block_key`` column): an Arrow group_by
    reduces each batch to (block_key, n) partials, materialized so
    their row count is free. Up to ``driver_census_limit`` partial rows
    the driver sums them with one more group_by (a Ray shuffle's fixed
    cost would dwarf the work); past it a Ray ``Sum`` aggregate does.
    Only the hot keys become Python objects, and the re-emit is an
    Arrow UDF streaming over ``keyed``.
    """
    import math
    import warnings
    import zlib

    from ray.data.aggregate import Sum

    cap = cfg.blocking.max_block_size

    def partial_counts(batch: pa.Table) -> pa.Table:
        t = batch.group_by("block_key").aggregate([("block_key", "count")])
        return pa.table({"block_key": t["block_key"], "n": t["block_key_count"]})

    partials = (keyed if census is None else census).select_columns(
        ["block_key"]).map_batches(partial_counts,
                                   batch_format="pyarrow").materialize()
    if partials.count() <= cfg.blocking.driver_census_limit:
        parts = list(partials.iter_batches(batch_format="pyarrow",
                                           batch_size=None))
        if not parts:
            return keyed
        tot = pa.concat_tables(parts).group_by("block_key").aggregate(
            [("n", "sum")])
        tot = tot.filter(pc.greater(tot["n_sum"], cap))
        hot_rows = zip(tot["block_key"].to_pylist(), tot["n_sum"].to_pylist())
    else:
        sizes = partials.groupby("block_key").aggregate(Sum("n", alias_name="n"))
        hot_rows = [(r["block_key"], r["n"])
                    for r in sizes.filter(expr=f"n > {cap}").take_all()]
    target = max(1, cap // 2)
    sizes = dict(hot_rows)
    tiles = {k: math.ceil(n / target) for k, n in sizes.items()}
    if not tiles:
        return keyed
    hot = {k: s for k, s in tiles.items()
           if s <= cfg.blocking.salt_max_tiles}
    if len(hot) < len(tiles):
        warnings.warn(
            f"salt_hot_blocks: {len(tiles) - len(hot)} block keys need more "
            f"than salt_max_tiles={cfg.blocking.salt_max_tiles} tile groups; "
            f"their {sum(n for k, n in sizes.items() if k not in hot)} keyed "
            "rows are SKIPPED (no pairs). Raise salt_max_tiles or "
            "max_block_size if these pairs matter.",
            stacklevel=2,
        )
    # the hot keys with their tile counts, and the keys dropped for
    # needing more than salt_max_tiles
    hot_ref = ray.put((
        pa.array(list(hot), type=pa.string()),
        pa.array(list(hot.values()), type=pa.int64()),
        pa.array([k for k in tiles if k not in hot], type=pa.string()),
    ))

    def explode(batch: pa.Table) -> pa.Table:
        hot_keys, hot_s, dropped = ray.get(hot_ref)
        keys = batch["block_key"]
        is_hot = pc.is_in(keys, value_set=hot_keys)
        cold = batch.filter(pc.invert(pc.or_(
            is_hot, pc.is_in(keys, value_set=dropped))))
        cold = cold.append_column(
            "role", pa.array(np.full(cold.num_rows, "q"), type=pa.string()))
        hrows = batch.filter(is_hot)
        if hrows.num_rows == 0:
            return cold
        s_per = hot_s.take(pc.index_in(
            hrows["block_key"], value_set=hot_keys)).to_numpy()
        g_per = np.array(
            [zlib.crc32(x.encode()) % s for x, s in zip(
                pc.cast(hrows[id_col], pa.string()).to_pylist(), s_per)],
            dtype=np.int64,
        )
        # member i is re-emitted once per tile group o in 0..s_i-1
        rep = np.repeat(np.arange(hrows.num_rows), s_per)
        o_vals = np.arange(len(rep)) - np.repeat(np.cumsum(s_per) - s_per, s_per)
        g_rep = g_per[rep]
        a = np.minimum(g_rep, o_vals)
        b = np.maximum(g_rep, o_vals)
        exploded = hrows.take(rep)
        new_keys = pc.binary_join_element_wise(
            exploded["block_key"], "\x1ftile:",
            pc.cast(pa.array(a), pa.string()), "-",
            pc.cast(pa.array(b), pa.string()), "")
        exploded = exploded.set_column(
            exploded.schema.get_field_index("block_key"), "block_key",
            new_keys,
        ).append_column(
            "role", pa.array(np.where(g_rep == a, "q", "c"), type=pa.string()))
        return pa.concat_tables([cold, exploded])

    return keyed.map_batches(explode, batch_format="pyarrow")


def blocked_pairs(
    rows: ray.data.Dataset, cfg: EngineConfig, self_join: bool = False,
    key=None, head=None,
) -> ray.data.Dataset:
    """Keyed (block_key + payload) rows → scored within-block pairs: one
    ``score_block_bucket`` call per range of hash buckets of block keys
    (``blocking.bucket_map``). With ``key`` (a ``_KeyAndCarry``),
    ``rows`` are prepared rows that ``key`` explodes on their way into
    the shuffle (never held in the object store), and the hot-key
    census counts the slim ``key.block_keys``. Self-join inputs are
    materialized, then hot blocks tile-salted (``salt_hot_blocks``):
    the census and the re-emit would otherwise each re-execute the lazy
    upstream."""
    salt = self_join and cfg.blocking.salt_hot_blocks
    if salt:
        rows = rows.materialize()
    keyed = rows if key is None else rows.map_batches(key, batch_format="pyarrow")
    if salt:
        keyed = salt_hot_blocks(keyed, cfg, census=None if key is None else
                                rows.map_batches(key.block_keys, batch_format="pyarrow"))
    return bucket_map(keyed, ["block_key"],
                      functools.partial(score_block_bucket, cfg=cfg,
                                        self_join=self_join, head=head),
                      cfg.execution.shuffle_partitions)


def rank_pairs(pairs: ray.data.Dataset, cfg: EngineConfig) -> ray.data.Dataset:
    """Final per-query dedup + threshold + top-k + rank over scored
    pairs, one ``select_bucket`` call per range of hash buckets of
    query ids (``blocking.bucket_map``)."""
    return bucket_map(pairs, ["query_id"],
                      functools.partial(select_bucket, cfg=cfg),
                      cfg.execution.shuffle_partitions)


class _KeyAndCarry:
    """Explode each prepared row to (block_key, id, orig, norm_text, emb,
    emb_valid[, leg][, role]) rows — key derivation + payload carry in
    one vectorized step. ``block_keys`` derives the same keys without
    the payload, for the hot-key census."""

    def __init__(self, cfg: EngineConfig):
        self.derive = DeriveBlockKeys(
            text_col="norm_text", id_col="id", qgram=cfg.blocking.qgram,
            use_phonetic=cfg.blocking.use_phonetic,
            preprocessing=cfg.preprocessing.__class__(
                uni2ascii=False, lowercase=False, strip=False,
                only_latin_letters=False,
            ),  # text is already normalized
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        keys = self.derive(batch)  # (id, block_key) distinct
        # gather keys back to this batch's rows: index_in resolves a
        # duplicated id to its FIRST row, exact because duplicate input
        # rows carry identical payloads (the SAME id on DIFFERENT
        # payloads is out of contract)
        take = pc.index_in(keys["id"], value_set=batch["id"].combine_chunks())
        carried = batch.take(take)
        return carried.append_column("block_key", keys["block_key"])

    def block_keys(self, batch: pa.Table) -> pa.Table:
        return self.derive(batch).select(["block_key"])


def rank_global(
    queries: ray.data.Dataset,
    candidates: ray.data.Dataset,
    cfg: EngineConfig,
    weights_ref,
    vocab_ref,
    meta: dict,
    query_id="id", query_text="name", cand_id="id", cand_text="name",
    broadcast_limit: int = 2_000_000,
) -> ray.data.Dataset:
    """Global exact ranking: broadcast candidates once, stream queries.

    Refuses LOUDLY past ``broadcast_limit`` candidate rows — the
    driver-side concat + broadcast would OOM long before producing
    wrong results; ``rank_blocked`` is the no-broadcast scale path. The
    limit is a default, not a hard cap: candidates that fit in the
    object store may raise it (as for ``embedding_near_dup``)."""
    # the model runs only when asked (candidateRanker.py:431-441): then
    # both sides carry their pooled legs and the head scores the pairs
    want_pred = cfg.ranking.ranking_metric == "conf" or cfg.ranking.calc_predict
    c = prepare_side(candidates, cfg, weights_ref, vocab_ref, meta, cand_id,
                     cand_text, with_leg=want_pred)
    # global mode materializes the candidate payload ONCE on the driver and
    # broadcasts it (ray.put) — valid while candidates fit in the object
    # store; beyond that use rank_blocked
    ctab = collect_side(
        c, broadcast_limit,
        f"rank_global materializes every candidate on the driver and "
        f"broadcasts them (>{broadcast_limit} rows seen); use rank_blocked "
        "for candidate sets past the object-store bound")
    cand = ctab.filter(ctab["emb_valid"])
    payload_ref = ray.put((
        to_matrix(cand["emb"], np.float32),
        cand["id"].combine_chunks(),
        cand["orig"].combine_chunks(),
        pc.utf8_length(cand["norm_text"]).to_numpy(),
        to_matrix(cand["leg"], np.float32) if want_pred else None,
    ))

    q = prepare_side(queries, cfg, weights_ref, vocab_ref, meta, query_id,
                     query_text, with_leg=want_pred)
    head = _ModelStage(weights_ref, vocab_ref, meta) if want_pred else None
    pairs = q.map_batches(
        functools.partial(_global_topk, payload_ref=payload_ref, cfg=cfg, head=head),
        batch_format="pyarrow",
        batch_size=256,
    )
    return rank_pairs(pairs, cfg)


def _global_topk(batch: pa.Table, *, payload_ref, cfg: EngineConfig,
                 head=None) -> pa.Table:
    """Per query batch, against the broadcast candidate payload (valid
    candidates' embeddings, ids, names, normalized lengths, legs): the
    ``dense_pairs`` shortlist of each query's fixpoint set (the
    threshold of the faiss or cosine metric, within ``length_diff``),
    scored by ``_pred_scores``. Ids and names are gathered with Arrow
    ``take``, so they keep their input types."""
    c_emb, c_ids, c_orig, c_len, c_leg = ray.get(payload_ref)
    r = cfg.ranking
    q_emb = to_matrix(batch["emb"], np.float32)
    q_valid = batch["emb_valid"].to_numpy()
    q_len = pc.utf8_length(batch["norm_text"]).to_numpy()

    def allow(rows, cols):
        ok = q_valid[rows, None]
        if r.length_diff is not None:
            ok = ok & (np.abs(c_len[None, cols] - q_len[rows, None]) <= r.length_diff)
        return ok

    # no shortlist under the conf metric: pred_score comes later
    thr = {"faiss": r.selection_threshold, "cosine": 1.0 - r.selection_threshold}
    qi, ci, fd, cos = dense_pairs(
        q_emb, c_emb, by="l2" if r.ranking_metric == "faiss" else "cos",
        threshold=thr.get(r.ranking_metric), allow=allow)
    if not (r.calc_cosine or r.ranking_metric == "cosine"):
        cos = np.full(len(qi), np.nan)
    q_leg = None if head is None else to_matrix(batch["leg"], np.float32)
    pred = _pred_scores(head, q_leg, c_leg, qi, ci)
    qi, ci = pa.array(qi), pa.array(ci)
    return pa.table({
        "query_id": batch["id"].take(qi),
        "query": batch["orig"].take(qi),
        "candidate_id": c_ids.take(ci),
        "candidate": c_orig.take(ci),
        "faiss_dist": pa.array(fd.astype(np.float32)),
        "cosine_dist": pa.array((1.0 - cos).astype(np.float32)),
        "pred_score": pa.array(pred),
    })
