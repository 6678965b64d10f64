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
  siamese p1 (:431-441).
- Tie-breaking at equal metric values is pinned to ascending
  ``candidate_id`` (stable) — faiss leaves tie order unspecified
  (SURVEY §7.4), so a distributed engine must fix it.

Two physical plans, same output schema:

- ``rank_blocked``: queries ∪ candidates → block keys → per-block exact
  scoring → global per-query merge. Scales to any candidate count; the
  result equals the reference restricted to pairs sharing a blocking key
  (the F1-gate population).
- ``rank_global``: broadcast the full candidate matrix via ``ray.put``
  once, stream queries through ``map_batches`` computing exact global
  top-k (chunked matmuls). Bit-identical to the reference's global
  search for the ``faiss`` metric with unique candidate strings;
  usable while candidates fit in the object store.

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
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from deezymatch_ray.config import EngineConfig
from deezymatch_ray.stages.blocking import (
    DeriveBlockKeys,
    _group_width,
    _role_pairs,
    _self_pairs,
    bucketize,
    segment_pairs,
    walk_segments,
)
from deezymatch_ray.stages.scoring import Embedder, PairScorer, emb_matrix

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
) -> ray.data.Dataset:
    """Normalize + embed one side; output (id, orig, norm_text, emb,
    emb_valid). Projection happens here — spans/media never travel
    further (SURVEY §7.4 wide-row rule)."""
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

    out = ds.map_batches(norm_batch, batch_format="pyarrow")
    # task pool + per-worker stage cache (scoring.CachedStage): model
    # state is a zero-copy plasma fetch, so an actor pool would only add
    # its per-run process forks to every ranking pipeline
    from deezymatch_ray.stages.scoring import CachedStage

    return out.map_batches(
        CachedStage.of(
            Embedder,
            weights_ref=weights_ref, vocab_ref=vocab_ref, meta=meta,
            text_col="norm_text", preprocessing=cfg.preprocessing,
            tokenization=cfg.tokenization,
        ),
        batch_format="pyarrow",
        batch_size=cfg.execution.score_batch_size,
    )


_TILE = "\x1ftile:"  # salted tile keys: "<block_key>\x1ftile:a-b"


def _block_walk(cfg: EngineConfig, self_join: bool) -> dict:
    """``walk_segments`` arguments of ranking's blocked pairs: the
    oversize predicate and the gram-distance kernel. Emits (query_id,
    query, candidate_id, candidate, faiss_dist, cosine_dist) for the
    within-block query × candidate pairs: every unordered pair of a
    self-join block (canonical query_id < candidate_id), the q × c rows
    of a salted cross-tile or of a ``self_join=False`` block."""
    caps, r = cfg.blocking, cfg.ranking
    want_cos = r.calc_cosine or r.ranking_metric == "cosine"
    by_metric = r.ranking_metric in ("faiss", "cosine")

    def oversize(key, seg):
        # salted tiles are EXEMPT: salt_hot_blocks already bounded them
        # (groups sized with 2× headroom), and skipping one would lose
        # every pair the tile owns
        if _TILE in key:
            return None
        if self_join:
            n = len(seg["id"])
            big, pairs = n, n * (n - 1) // 2
        else:
            nq = int((seg["role"] == "q").sum())
            nc = len(seg["role"]) - nq
            big, pairs = max(nq, nc), nq * nc
        if pairs and big > caps.max_block_size:
            return f"max_block_size={caps.max_block_size}"
        if pairs > caps.max_pairs_per_block:
            return f"max_pairs_per_block={caps.max_pairs_per_block}"
        return None

    def kernel(key, seg):
        cross = not self_join or ("role" in seg and (seg["role"] == "c").any())
        chunks = list((_role_pairs if cross else _self_pairs)(seg))
        if not chunks:
            return
        a, b = (np.concatenate(x) for x in zip(*chunks))
        valid = seg["emb_valid"]
        m = valid[a] & valid[b]
        a, b = a[m], b[m]
        if self_join:
            # canonical orientation (query_id < candidate_id; rows are
            # id-sorted), so a pair surfacing in several blocks meets
            # itself in dedup_pairs
            a, b = np.minimum(a, b), np.maximum(a, b)
        # per-block gram matmul: the same float64 ||a||² + ||b||² − 2·a·b
        # that _GlobalTopK uses, gathering only scalars per pair
        emb = seg["emb"].astype(np.float64)
        nrm2 = (emb * emb).sum(axis=1)
        dot = (emb @ emb.T)[a, b]
        faiss_d = nrm2[a] + nrm2[b] - 2.0 * dot
        np.maximum(faiss_d, 0.0, out=faiss_d)
        faiss_d = faiss_d.astype(np.float32)
        if want_cos:
            nrm = np.sqrt(nrm2)
            cos_d = (1.0 - dot / np.maximum(nrm[a] * nrm[b], 1e-10)).astype(np.float32)
        else:
            cos_d = np.full(len(a), np.nan, dtype=np.float32)
        keep = np.ones(len(a), dtype=bool)
        if r.length_diff is not None:
            lens = np.array([np.nan if s is None else len(s)
                             for s in seg["norm_text"]])
            keep &= np.abs(lens[a] - lens[b]) <= r.length_diff
        metric = faiss_d if r.ranking_metric == "faiss" else cos_d
        if by_metric:
            # monotone filter: pairs over the threshold never enter the
            # result, so the pair shuffle does not carry them
            keep &= metric <= r.selection_threshold
        a, b, faiss_d, cos_d, metric = (
            x[keep] for x in (a, b, faiss_d, cos_d, metric))
        if by_metric:
            # per-(block, query) top-k by (metric, candidate_id): sound
            # because the global top-k ⊆ the union of per-block top-k
            o = np.lexsort((b, metric, a))
            a, b, faiss_d, cos_d = (x[o] for x in (a, b, faiss_d, cos_d))
            pos = np.arange(len(a))
            first = np.maximum.accumulate(
                np.where(np.r_[True, a[1:] != a[:-1]], pos, 0))
            top = pos - first < r.num_candidates
            a, b, faiss_d, cos_d = (x[top] for x in (a, b, faiss_d, cos_d))
        yield a, b, faiss_d, cos_d

    return dict(
        key_col="block_key", kernel=kernel, oversize=oversize,
        kind="blocked_pairs",
        ends={"id": ("query_id", "candidate_id"), "orig": ("query", "candidate")},
        values={"faiss_dist": pa.float32(), "cosine_dist": pa.float32()},
    )


def score_block_bucket(t: pa.Table, *, cfg: EngineConfig,
                       self_join: bool = False) -> pa.Table:
    """Score every block of one hash bucket (``blocked_pairs``' per-bucket
    step, callable in-process): one ``walk_segments`` pass with the
    ranking kernel. Blocks over ``max_block_size`` members or
    ``max_pairs_per_block`` pairs are skipped with a warning, except
    salted tiles."""
    return walk_segments(t, **_block_walk(cfg, self_join))


def select_bucket(df: pd.DataFrame, *, cfg: EngineConfig) -> pd.DataFrame:
    """Final per-query selection over a whole query-hash bucket: dedup
    keep-lowest-metric-first (candidateRanker.py:483-492), threshold on
    the ranking metric, stable sort, truncate, assign rank — one
    vectorized pandas pass for every query in the bucket."""
    r = cfg.ranking
    mcol = _metric_column(r.ranking_metric)
    asc = r.ranking_metric != "conf"
    if "__bucket" in df.columns:
        df = df.drop(columns=["__bucket"])
    if len(df) == 0:
        return pd.DataFrame({c: [] for c in RANK_SCHEMA_COLS})
    g = df.sort_values(["query_id", mcol, "candidate_id"],
                       ascending=[True, asc, True], kind="stable")
    g = g.drop_duplicates(subset=["query_id", "candidate_id"], keep="first")
    if getattr(r, "dedup_on", "candidate_id") == "candidate_string":
        # reference parity (candidateRanker.py:483-492): duplicate
        # candidate SPELLINGS collapse to the lowest-(metric, id) row —
        # the sort above already orders exactly that way per query
        g = g.drop_duplicates(subset=["query_id", "candidate"], keep="first")
    if r.ranking_metric == "conf":
        g = g[g["pred_score"] >= r.selection_threshold]
    else:
        g = g[g[mcol] <= r.selection_threshold]
    g = g.groupby("query_id", sort=False).head(r.num_candidates)
    g = g.reset_index(drop=True)
    g["rank"] = (g.groupby("query_id", sort=False).cumcount() + 1).astype(np.int32)
    return g[[c for c in RANK_SCHEMA_COLS if c in g.columns]]


def dedup_pairs(ds: ray.data.Dataset, num_buckets: int = 64) -> ray.data.Dataset:
    """Drop duplicate (query_id, candidate_id) rows — the D1 pattern
    (SURVEY §2.7): hash-bucket the pair key, then one vectorized Arrow
    pass per bucket. A pair shared by k blocks arrives k times, and its
    gram-form distance can differ in the last bits between blocks
    (byte-identical embeddings give 0 in one block, ~1e-14 in another),
    so each pair keeps its copy with the lowest (faiss_dist,
    cosine_dist): the result does not depend on row or block order."""
    keyed = bucketize(ds, ["query_id", "candidate_id"], num_buckets)

    def fn(batch: pa.Table) -> pa.Table:
        t = batch.drop_columns(["__bucket"]).sort_by([
            ("query_id", "ascending"), ("candidate_id", "ascending"),
            ("faiss_dist", "ascending"), ("cosine_dist", "ascending"),
        ])
        if t.num_rows < 2:
            return t
        # keep the first row of each (query_id, candidate_id) run
        head, tail = t.slice(0, t.num_rows - 1), t.slice(1)
        new = pc.or_(
            pc.not_equal(tail["query_id"], head["query_id"]),
            pc.not_equal(tail["candidate_id"], head["candidate_id"]),
        )
        return t.filter(pa.concat_arrays(
            [pa.array([True])] + new.chunks))

    return keyed.groupby("__bucket").map_groups(fn, batch_format="pyarrow")


def _with_pred(pairs: ray.data.Dataset, cfg: EngineConfig, weights_ref, vocab_ref, meta):
    """Attach pred_score via the PairScorer actor pool (needed for the
    'conf' metric or calc_predict; skipped otherwise — the reference
    only runs the model when asked, candidateRanker.py:431-441)."""
    return pairs.map_batches(
        PairScorer,
        fn_constructor_kwargs=dict(
            weights_ref=weights_ref, vocab_ref=vocab_ref, meta=meta,
            s1_col="query", s2_col="candidate", with_classical=False,
            preprocessing=cfg.preprocessing, tokenization=cfg.tokenization,
        ),
        batch_format="pyarrow",
        batch_size=cfg.execution.score_batch_size,
        concurrency=cfg.execution.score_concurrency,
    )


def _ensure_pred_col(ds: ray.data.Dataset) -> ray.data.Dataset:
    def add_nan(batch: pa.Table) -> pa.Table:
        if "pred_score" in batch.column_names:
            return batch
        return batch.append_column(
            "pred_score", pa.array(np.full(len(batch), np.nan, dtype=np.float32))
        )
    return ds.map_batches(add_nan, batch_format="pyarrow")


def rank_blocked(
    queries: ray.data.Dataset,
    candidates: ray.data.Dataset,
    cfg: EngineConfig,
    weights_ref,
    vocab_ref,
    meta: dict,
    query_id="id", query_text="name", cand_id="id", cand_text="name",
) -> ray.data.Dataset:
    """Blocked ranking plan. Input datasets carry (id, text) columns."""
    q = prepare_side(queries, cfg, weights_ref, vocab_ref, meta, query_id, query_text)
    c = prepare_side(candidates, cfg, weights_ref, vocab_ref, meta, cand_id, cand_text)

    def tag(role):
        def fn(batch: pa.Table) -> pa.Table:
            return batch.append_column("role", pa.array([role] * len(batch)))
        return fn

    both = q.map_batches(tag("q"), batch_format="pyarrow").union(
        c.map_batches(tag("c"), batch_format="pyarrow")
    )
    keyed = both.map_batches(
        _KeyAndCarry(cfg), batch_format="pyarrow"
    )
    pairs = blocked_pairs(keyed, cfg)
    if cfg.ranking.ranking_metric == "conf" or cfg.ranking.calc_predict:
        # D1 dedup before the model pass: a pair surfaces once per shared
        # block key with identical distances — scoring each copy would
        # multiply the siamese forward cost by the key multiplicity
        pairs = dedup_pairs(pairs, cfg.execution.shuffle_partitions)
        pairs = _with_pred(pairs, cfg, weights_ref, vocab_ref, meta)
    else:
        pairs = _ensure_pred_col(pairs)
    return rank_pairs(pairs, cfg)


def salt_hot_blocks(
    keyed: ray.data.Dataset, cfg: EngineConfig, id_col: str = "id",
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

    The hot-key census is Arrow end to end: each batch is reduced to
    one (block_key, n) row per distinct key by an Arrow group_by, so
    the census never passes over the keyed payload twice. Up to
    ``driver_census_limit`` keyed rows, the driver reads those partials
    as Arrow batches and sums them with one more group_by (a Ray
    shuffle's fixed cost would dwarf the work); past it a Ray ``Sum``
    aggregate sums them. Only the hot keys become Python objects, and
    the re-emit is an Arrow UDF too: no driver or worker step reads the
    keyed rows one by one.
    """
    import math
    import warnings
    import zlib

    from ray.data.aggregate import Sum

    cap = cfg.blocking.max_block_size

    def partial_counts(batch: pa.Table) -> pa.Table:
        t = batch.group_by("block_key").aggregate([("block_key", "count")])
        return pa.table({"block_key": t["block_key"], "n": t["block_key_count"]})

    partials = keyed.select_columns(["block_key"]).map_batches(
        partial_counts, batch_format="pyarrow"
    )
    if keyed.count() <= cfg.blocking.driver_census_limit:
        # callers pass keyed MATERIALIZED, so count() here is free
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
    keyed: ray.data.Dataset, cfg: EngineConfig, self_join: bool = False,
) -> ray.data.Dataset:
    """keyed (block_key + payload) rows → scored within-block pairs,
    through the segment core (``blocking.segment_pairs``: hash buckets
    of block keys, one ``score_block_bucket`` call per bucket) behind a
    sort shuffle of ``_group_width`` blocks. Self-join inputs get hot
    blocks tile-salted first (salt_hot_blocks).

    ``keyed`` is materialized first when salting is on: the hot-key
    census, the salted re-emit and the pair groupby would otherwise each
    RE-EXECUTE the lazy upstream (including the embedding actor pool —
    observed 3× the flagship's embed cost). Materialize pins blocks to
    the (spill-backed) object store — the right trade even at scale,
    since the alternative is recomputing the most expensive stage."""
    if self_join and cfg.blocking.salt_hot_blocks:
        keyed = salt_hot_blocks(keyed.materialize(), cfg)
    return segment_pairs(keyed, cfg.execution.shuffle_partitions,
                         width=_group_width(cfg), **_block_walk(cfg, self_join))


def rank_pairs(pairs: ray.data.Dataset, cfg: EngineConfig) -> ray.data.Dataset:
    """Final per-query dedup + threshold + top-k + rank over scored
    pairs (bucketed by query hash; see bucketize), behind a sort
    shuffle of _group_width blocks."""
    b = bucketize(pairs, ["query_id"], cfg.execution.shuffle_partitions)
    return b.repartition(_group_width(cfg)).groupby("__bucket").map_groups(
        functools.partial(select_bucket, cfg=cfg), batch_format="pandas"
    )


class _KeyAndCarry:
    """Explode each prepared row to (block_key, id, orig, norm_text, emb,
    emb_valid, role) rows — key derivation + payload carry in one
    vectorized step."""

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
        # gather keys back to this batch's rows with an Arrow kernel (the
        # round-1 Python dict + per-row comprehension was the last row
        # loop in the hot blocking path). index_in resolves a duplicated
        # id to its FIRST row in the batch — prepare_side emits one row
        # per input row, so duplicate ids (duplicate input rows) carry
        # identical payloads here and first-occurrence is exact; an input
        # with the SAME id on DIFFERENT payloads is out of contract.
        take = pc.index_in(keys["id"], value_set=batch["id"].combine_chunks())
        carried = batch.take(take)
        return carried.append_column("block_key", keys["block_key"])


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
    wrong results; ``rank_blocked`` is the no-broadcast scale path.

    NOTE (behavior since round 3): the default limit is 2,000,000 rows.
    Callers whose candidate sets exceed it but fit in the object store
    can raise ``broadcast_limit`` explicitly — the guard is a default,
    not a hard cap (same contract as ``embedding_near_dup`` /
    ``embedding_near_dup_incremental``)."""
    c = prepare_side(candidates, cfg, weights_ref, vocab_ref, meta, cand_id, cand_text)
    # global mode materializes the candidate payload ONCE on the driver and
    # broadcasts it (ray.put) — valid while candidates fit in the object
    # store; beyond that use rank_blocked
    batches = []
    n_rows = 0
    for b in c.iter_batches(batch_format="pyarrow"):
        n_rows += b.num_rows
        if n_rows > broadcast_limit:
            # abort DURING the single driver pass, before the concat +
            # broadcast can OOM (no extra pipeline consumption for the check)
            raise ValueError(
                f"rank_global materializes every candidate on the driver "
                f"and broadcasts them (>{broadcast_limit} rows seen); use "
                "rank_blocked for candidate sets past the object-store bound"
            )
        batches.append(b)
    ctab = pa.concat_tables(batches)
    cand_emb = emb_matrix(ctab["emb"])
    valid = np.asarray(ctab["emb_valid"].to_pylist())
    cand_emb = cand_emb[valid]
    cand_ids = np.asarray(ctab["id"].to_pylist(), dtype=object)[valid]
    cand_orig = np.asarray(ctab["orig"].to_pylist(), dtype=object)[valid]
    cand_norm_len = np.asarray(
        [len(s) for s in ctab["norm_text"].to_pylist()], dtype=np.int64
    )[valid]
    payload_ref = ray.put((cand_emb, cand_ids, cand_orig, cand_norm_len))

    q = prepare_side(queries, cfg, weights_ref, vocab_ref, meta, query_id, query_text)
    pairs = q.map_batches(
        _GlobalTopK,
        fn_constructor_kwargs=dict(payload_ref=payload_ref, cfg=cfg),
        batch_format="pyarrow",
        batch_size=256,
        concurrency=cfg.execution.score_concurrency,
    )
    if cfg.ranking.ranking_metric == "conf" or cfg.ranking.calc_predict:
        pairs = _with_pred(pairs, cfg, weights_ref, vocab_ref, meta)
    else:
        pairs = _ensure_pred_col(pairs)
    return rank_pairs(pairs, cfg)


class _GlobalTopK:
    """Actor: holds the broadcast candidate matrix; per query batch
    computes exact distances in candidate chunks and keeps the per-query
    fixpoint set (threshold + top-k)."""

    _CHUNK = 65536

    def __init__(self, payload_ref, cfg: EngineConfig):
        self.c_emb, self.c_ids, self.c_orig, self.c_len = ray.get(payload_ref)
        self.cfg = cfg

    def __call__(self, batch: pa.Table) -> pa.Table:
        r = self.cfg.ranking
        q_emb = emb_matrix(batch["emb"])
        q_valid = np.asarray(batch["emb_valid"].to_pylist())
        q_ids = batch["id"].to_pylist()
        q_orig = batch["orig"].to_pylist()
        q_len = np.asarray([len(s) for s in batch["norm_text"].to_pylist()])
        want_cos = r.calc_cosine or r.ranking_metric == "cosine"
        rows = {k: [] for k in ["query_id", "query", "candidate_id", "candidate",
                                 "faiss_dist", "cosine_dist"]}
        N = len(self.c_emb)
        for qs in range(0, len(q_emb), 64):
            qe = min(qs + 64, len(q_emb))
            Q = q_emb[qs:qe]
            best = [([], [], []) for _ in range(qe - qs)]  # per query: idx, faiss, cos
            Q64 = Q.astype(np.float64)
            for cs in range(0, N, self._CHUNK):
                C = self.c_emb[cs : cs + self._CHUNK].astype(np.float64)
                qc = Q64 @ C.T
                d2 = (
                    (Q64 * Q64).sum(axis=1)[:, None]
                    + (C * C).sum(axis=1)[None, :]
                    - 2.0 * qc
                )
                np.maximum(d2, 0.0, out=d2)
                d2 = d2.astype(np.float32)
                if want_cos:
                    qn = np.linalg.norm(Q64, axis=1)[:, None]
                    cn = np.linalg.norm(C, axis=1)[None, :]
                    cosd = (1.0 - qc / np.maximum(qn * cn, 1e-10)).astype(np.float32)
                else:
                    cosd = None
                metric = d2 if r.ranking_metric != "cosine" else cosd
                for i in range(qe - qs):
                    if not q_valid[qs + i]:
                        continue
                    mrow = metric[i]
                    if r.ranking_metric in ("faiss", "cosine"):
                        sel = np.flatnonzero(mrow <= r.selection_threshold)
                    else:
                        sel = np.arange(len(mrow))
                    if r.length_diff is not None:
                        sel = sel[np.abs(self.c_len[cs : cs + self._CHUNK][sel] - q_len[qs + i]) <= r.length_diff]
                    best[i][0].append(sel + cs)
                    best[i][1].append(d2[i][sel])
                    best[i][2].append(cosd[i][sel] if cosd is not None else np.full(len(sel), np.nan, np.float32))
            for i in range(qe - qs):
                idx = np.concatenate(best[i][0]) if best[i][0] else np.array([], dtype=np.int64)
                if len(idx) == 0:
                    continue
                fd = np.concatenate(best[i][1])
                cd = np.concatenate(best[i][2])
                rows["query_id"] += [q_ids[qs + i]] * len(idx)
                rows["query"] += [q_orig[qs + i]] * len(idx)
                rows["candidate_id"] += list(self.c_ids[idx])
                rows["candidate"] += list(self.c_orig[idx])
                rows["faiss_dist"] += list(fd)
                rows["cosine_dist"] += list(cd)
        return pa.table({
            "query_id": pa.array(rows["query_id"], type=pa.string()),
            "query": pa.array(rows["query"], type=pa.string()),
            "candidate_id": pa.array(rows["candidate_id"], type=pa.string()),
            "candidate": pa.array(rows["candidate"], type=pa.string()),
            "faiss_dist": pa.array(np.array(rows["faiss_dist"], dtype=np.float32)),
            "cosine_dist": pa.array(np.array(rows["cosine_dist"], dtype=np.float32)),
        })
