"""Driver-testdata pipelines: one function per `queries()` entry.

Each function takes ``sf_dir`` and returns a Ray Dataset / pandas
DataFrame whose column names match the paired DuckDB oracle SQL in
``__ray_entry__.oracle_sql`` exactly (the driver sorts columns by name
and hashes values). Inputs are the driver's parquet tables
(TESTDATA.md); reads prune columns at the source.

These exercise the engine surface end-to-end: stateless map_batches
kernels (normalize, stats, fingerprints), flat_map + groupby shuffles
(token counts, shingle blocks), partial-aggregate combiners, co-group
joins, per-group top-k, dedup families, and brute-force/IVF similarity
search.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data
from ray.data.aggregate import Count, Max, Mean, Min, Sum

from deezymatch_ray.config import DEFAULT_CONFIG
from deezymatch_ray.functions.similarity import jaro_winkler_batch, levenshtein_batch
from deezymatch_ray.stages import ann, dedup, textstats
from deezymatch_ray.stages.blocking import cogroup, inner_join


def _read(sf_dir: str, table: str, columns: list[str] | None = None) -> ray.data.Dataset:
    return ray.data.read_parquet(f"{sf_dir}/{table}.parquet", columns=columns)


def _join(left: ray.data.Dataset, right: ray.data.Dataset, on: str,
          right_on: str) -> ray.data.Dataset:
    """Inner join on ``on`` = ``right_on`` through ``blocking.cogroup``."""
    return cogroup(left, right, [on], inner_join([on], [right_on]),
                   DEFAULT_CONFIG.execution.shuffle_partitions, right_on=[right_on])


def _round_col(col, ndigits: int) -> pa.Array:
    """Correctly-rounded decimal rounding (Python round = shortest-repr
    rounding), matching DuckDB's round() bit-for-bit — pc.round/np.round
    scale-multiply-divide and can land one ulp off, which breaks the
    driver's value-hash compare. Only used on small aggregate outputs."""
    vals = col.to_pylist() if hasattr(col, "to_pylist") else list(col)
    return pa.array([None if v is None else round(float(v), ndigits) for v in vals],
                    type=pa.float64())


# ---------------------------------------------------------------------------
# reference text kernels over driver tables (M1, A2-style ops)
# ---------------------------------------------------------------------------


def q_normalize(sf_dir: str) -> ray.data.Dataset:
    """M1 subset that DuckDB can mirror: lower + trim."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def fn(batch: pa.Table) -> pa.Table:
        norm = pc.utf8_lower(pc.utf8_trim_whitespace(batch["text"]))
        return pa.table({"doc_id": batch["doc_id"], "norm_text": norm})

    return ds.map_batches(fn, batch_format="pyarrow")


def q_token_counts(sf_dir: str) -> ray.data.Dataset:
    """A2 vocabulary-build shape: corpus token frequencies."""
    return textstats.token_counts(_read(sf_dir, "documents", ["text"]))


def q_text_stats(sf_dir: str) -> ray.data.Dataset:
    return textstats.text_stats(_read(sf_dir, "documents", ["doc_id", "text"]))


def q_fingerprints(sf_dir: str) -> ray.data.Dataset:
    return textstats.fingerprints(_read(sf_dir, "documents", ["doc_id", "text"]))


def q_token_counts_bpe(sf_dir: str) -> ray.data.Dataset:
    return textstats.token_counts_regex(_read(sf_dir, "documents", ["text"]))


def q_rolling_fingerprints(sf_dir: str) -> ray.data.Dataset:
    return textstats.rolling_fingerprints(
        _read(sf_dir, "documents", ["doc_id", "text"]), k=8, w=4
    )


def q_lang_id(sf_dir: str) -> ray.data.Dataset:
    return textstats.lang_id(_read(sf_dir, "documents", ["doc_id", "text"]))


def q_split_assign(sf_dir: str) -> ray.data.Dataset:
    """K3 deterministic split (modulo keying — SQL-mirrorable; the
    library's hash split uses md5 buckets, same pattern)."""
    ds = _read(sf_dir, "documents", ["doc_id", "lang"])

    def fn(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        m = ids % 10
        split = np.where(m < 7, "train", np.where(m < 9, "valid", "test"))
        return pa.table({
            "doc_id": batch["doc_id"], "lang": batch["lang"],
            "split": pa.array(split, type=pa.string()),
        })

    return ds.map_batches(fn, batch_format="pyarrow")


def q_label_counts(sf_dir: str) -> ray.data.Dataset:
    """A1/A3 shape: group counts (per (lang, split))."""
    return (
        q_split_assign(sf_dir)
        .groupby(["lang", "split"])
        .aggregate(Count(alias_name="n"))
    )


# ---------------------------------------------------------------------------
# dedup family
# ---------------------------------------------------------------------------


def q_exact_dedup(sf_dir: str) -> ray.data.Dataset:
    return dedup.exact_dedup(_read(sf_dir, "documents", ["doc_id", "text"]))


def q_jaccard_near_dup(sf_dir: str) -> ray.data.Dataset:
    return dedup.jaccard_near_dup(
        _read(sf_dir, "documents", ["doc_id", "text"]), n=3, threshold=0.5
    )


def q_minhash_near_dup(sf_dir: str) -> ray.data.Dataset:
    """MinHash-LSH near-dup on the SQL-mirrorable md5 hash basis: the
    DuckDB oracle recomputes signatures, est_jaccard and banding
    bit-for-bit (production default stays the faster siphash basis)."""
    return dedup.minhash_lsh_near_dup(
        _read(sf_dir, "documents", ["doc_id", "text"]), n=3, k=64, n_bands=16,
        threshold=0.5, hash_basis="md5",
    )


def _mod10_sides(
    ds: ray.data.Dataset, id_col: str
) -> tuple[ray.data.Dataset, ray.data.Dataset]:
    """Deterministic incremental-dedup fixture split: rows with
    id % 10 == 0 play the NEW batch, the rest the CORPUS (mirrored by
    the same predicate in the SQL oracles)."""

    def mod_is(rem_zero: bool):
        def fn(batch: pa.Table) -> pa.Table:
            mask = (batch[id_col].to_numpy() % 10 == 0) == rem_zero
            return batch.filter(pa.array(mask))

        return fn

    return (
        ds.map_batches(mod_is(True), batch_format="pyarrow"),
        ds.map_batches(mod_is(False), batch_format="pyarrow"),
    )


def _new_corpus_split(sf_dir: str) -> tuple[ray.data.Dataset, ray.data.Dataset]:
    return _mod10_sides(_read(sf_dir, "documents", ["doc_id", "text"]), "doc_id")


def q_exact_dedup_incremental(sf_dir: str) -> ray.data.Dataset:
    new, corpus = _new_corpus_split(sf_dir)
    return dedup.exact_dedup_incremental(new, corpus)


def q_minhash_dedup_incremental(sf_dir: str) -> ray.data.Dataset:
    """New-vs-corpus banded LSH near-dup on the md5 basis (bit-exact
    SQL oracle, same mirror as q_minhash_near_dup)."""
    new, corpus = _new_corpus_split(sf_dir)
    return dedup.minhash_lsh_dedup_incremental(
        new, corpus, n=3, k=64, n_bands=16, threshold=0.5, hash_basis="md5"
    )


def q_simhash(sf_dir: str) -> ray.data.Dataset:
    return dedup.simhash_fingerprints(
        _read(sf_dir, "documents", ["doc_id", "text"]), hash_basis="md5"
    )


def q_simhash_near_dup(sf_dir: str) -> ray.data.Dataset:
    return dedup.simhash_near_dup(
        _read(sf_dir, "documents", ["doc_id", "text"]), max_hamming=3,
        hash_basis="md5",
    )


def q_embedding_near_dup(sf_dir: str) -> ray.data.Dataset:
    return dedup.embedding_near_dup(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]), threshold=0.4
    )


def q_embedding_near_dup_incremental(sf_dir: str) -> ray.data.Dataset:
    """NEW (vec_id % 10 == 0) vs CORPUS cosine near-dup; the NEW side
    broadcasts, the CORPUS streams."""
    new, corpus = _mod10_sides(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]), "vec_id"
    )
    return dedup.embedding_near_dup_incremental(new, corpus, threshold=0.4)


# ---------------------------------------------------------------------------
# similarity search
# ---------------------------------------------------------------------------


def q_ann_topk(sf_dir: str) -> ray.data.Dataset:
    cands = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    q_ids, q_mat = ann.load_queries(cands, n_queries=10)
    return ann.brute_force_topk(cands, q_ids, q_mat, k=5)


def q_ann_ivf_topk(sf_dir: str) -> ray.data.Dataset:
    cands = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    q_ids, q_mat = ann.load_queries(cands, n_queries=10)
    return ann.ivf_topk(cands, q_ids, q_mat, k=5, n_centroids=16, nprobe=16)


def q_ann_lsh_topk(sf_dir: str) -> ray.data.Dataset:
    """Random-hyperplane LSH ANN (rows-only: recall is probabilistic;
    the seeded run is deterministic and pytest pins recall vs exact)."""
    cands = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    q_ids, q_mat = ann.load_queries(cands, n_queries=10)
    return ann.lsh_topk(cands, q_ids, q_mat, k=5, n_bits=4, n_tables=32)


# ---------------------------------------------------------------------------
# classical-similarity ranking over relational tables (M9/K1 shapes)
# ---------------------------------------------------------------------------


def q_similar_supplier_names(sf_dir: str) -> ray.data.Dataset:
    """All supplier-name pairs with Levenshtein ≤ 3 (s1 < s2): the
    pairwise classical-scorer path with an integer-exact oracle."""
    sup = _read(sf_dir, "supplier", ["s_suppkey", "s_name"])
    tbl = pa.concat_tables(sup.iter_batches(batch_format="pyarrow"))
    import ray as _ray

    payload = _ray.put((
        np.asarray(tbl["s_suppkey"].to_pylist(), dtype=np.int64),
        tbl["s_name"].to_pylist(),
    ))

    def fn(batch: pa.Table) -> pa.Table:
        c_keys, c_names = _ray.get(payload)
        q_keys = np.asarray(batch["s_suppkey"].to_pylist(), dtype=np.int64)
        q_names = batch["s_name"].to_pylist()
        qi, ci = np.nonzero(q_keys[:, None] < c_keys[None, :])
        lev = levenshtein_batch([q_names[i] for i in qi], [c_names[j] for j in ci])
        keep = lev <= 3
        qi, ci, lev = qi[keep], ci[keep], lev[keep]
        jw = jaro_winkler_batch([q_names[i] for i in qi], [c_names[j] for j in ci])
        return pa.table({
            "suppkey_a": pa.array(q_keys[qi]),
            "suppkey_b": pa.array(c_keys[ci]),
            "lev": pa.array(lev.astype(np.int64)),
            "jw": pa.array([round(float(v), 6) for v in jw], type=pa.float64()),
        })

    return sup.map_batches(fn, batch_format="pyarrow")


def q_rank_by_levenshtein(sf_dir: str) -> ray.data.Dataset:
    """K1 per-query top-k with the classical metric: for the first 20
    customer names, the 5 nearest supplier names by (lev asc, suppkey
    asc)."""
    import functools

    import ray as _ray

    sup = _read(sf_dir, "supplier", ["s_suppkey", "s_name"])
    tbl = pa.concat_tables(sup.iter_batches(batch_format="pyarrow"))
    payload = _ray.put((
        np.asarray(tbl["s_suppkey"].to_pylist(), dtype=np.int64),
        tbl["s_name"].to_pylist(),
    ))
    cust = _read(sf_dir, "customer", ["c_custkey", "c_name"]).filter(
        expr="c_custkey < 20"
    )

    def score(batch: pa.Table) -> pa.Table:
        c_keys, c_names = _ray.get(payload)
        q_keys = batch["c_custkey"].to_pylist()
        q_names = batch["c_name"].to_pylist()
        nq, nc = len(q_keys), len(c_keys)
        qi = np.repeat(np.arange(nq), nc)
        ci = np.tile(np.arange(nc), nq)
        lev = levenshtein_batch([q_names[i] for i in qi], [c_names[j] for j in ci])
        return pa.table({
            "c_custkey": pa.array(np.asarray(q_keys, dtype=np.int64)[qi]),
            "s_suppkey": pa.array(c_keys[ci]),
            "lev": pa.array(lev.astype(np.int64)),
        })

    def topk(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["lev", "s_suppkey"], kind="stable").head(5)
        g = g.reset_index(drop=True)
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g[["c_custkey", "s_suppkey", "lev", "rank"]]

    scored = cust.map_batches(score, batch_format="pyarrow")
    return scored.groupby("c_custkey").map_groups(topk, batch_format="pandas")


# ---------------------------------------------------------------------------
# relational coverage: aggregate / join / sort / window shapes
# ---------------------------------------------------------------------------


def q_pricing_summary(sf_dir: str) -> ray.data.Dataset:
    """TPC-H-Q1-shaped aggregate with a per-batch combiner: partial sums
    inside map_batches, then a small groupby — the pre-aggregation
    pattern that keeps the shuffle tiny at 100 TB."""
    li = _read(
        sf_dir, "lineitem",
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"],
    )

    def partial(batch: pa.Table) -> pa.Table:
        disc_price = pc.multiply(
            batch["l_extendedprice"], pc.subtract(pa.scalar(1.0), batch["l_discount"])
        )
        t = batch.append_column("disc_price", disc_price)
        g = t.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [("l_quantity", "sum"), ("l_extendedprice", "sum"),
             ("disc_price", "sum"), ("l_quantity", "count")]
        )
        return g.rename_columns([
            "l_returnflag", "l_linestatus", "p_qty", "p_price", "p_disc", "p_n"
        ])

    partials = li.map_batches(partial, batch_format="pyarrow")
    agg = partials.groupby(["l_returnflag", "l_linestatus"]).aggregate(
        Sum("p_qty", alias_name="sum_qty"),
        Sum("p_price", alias_name="sum_base_price"),
        Sum("p_disc", alias_name="sum_disc_price"),
        Sum("p_n", alias_name="count_order"),
    )

    def final(batch: pa.Table) -> pa.Table:
        return pa.table({
            "l_returnflag": batch["l_returnflag"],
            "l_linestatus": batch["l_linestatus"],
            "sum_qty": batch["sum_qty"],
            "sum_base_price": _round_col(batch["sum_base_price"], 2),
            "sum_disc_price": _round_col(batch["sum_disc_price"], 2),
            "count_order": batch["count_order"],
        })

    return agg.map_batches(final, batch_format="pyarrow")


def q_top_customers(sf_dir: str) -> pd.DataFrame:
    """Join + aggregate + global top-k (sort + limit)."""
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    cust = _read(sf_dir, "customer", ["c_custkey", "c_name", "c_mktsegment"])
    spend = orders.groupby("o_custkey").aggregate(
        Sum("o_totalprice", alias_name="total_spend"), Count(alias_name="n_orders")
    ).materialize()  # the co-group reads its schema
    joined = _join(spend, cust, "o_custkey", "c_custkey")
    top = joined.sort(["total_spend", "o_custkey"], descending=[True, False]).limit(10)
    df = top.to_pandas()
    df["total_spend"] = [round(float(v), 2) for v in df["total_spend"]]
    return df[["o_custkey", "c_name", "c_mktsegment", "total_spend", "n_orders"]]


def q_events_hourly(sf_dir: str) -> ray.data.Dataset:
    """Tumbling-window aggregate over the event stream (windowed
    groupby: the batch engine's stand-in for streaming windows)."""
    ev = _read(sf_dir, "events", ["ts", "event_type", "value"])

    def keyed(batch: pa.Table) -> pa.Table:
        # keep microsecond precision: floor_temporal narrows to
        # timestamp[s]; DuckDB's date_trunc stays timestamp[us]. Values
        # are identical either way, but matching the unit keeps the
        # schema bit-identical to the oracle's pandas rendering.
        hour = pc.floor_temporal(batch["ts"], unit="hour").cast(
            pa.timestamp("us")
        )
        return pa.table({
            "event_type": batch["event_type"], "hour": hour, "value": batch["value"],
        })

    agg = (
        ev.map_batches(keyed, batch_format="pyarrow")
        .groupby(["event_type", "hour"])
        .aggregate(
            Count(alias_name="n"),
            Sum("value", alias_name="sum_value"),
            Min("value", alias_name="min_value"),
            Max("value", alias_name="max_value"),
        )
    )

    def final(batch: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": batch["event_type"],
            # Ray's aggregate re-infers the key as timestamp[s] (the
            # floor_temporal unit); cast AFTER it so the emitted schema
            # matches the oracle's timestamp[us] rendering bit-for-bit
            "hour": batch["hour"].cast(pa.timestamp("us")),
            "n": batch["n"],
            "sum_value": _round_col(batch["sum_value"], 2),
            "min_value": batch["min_value"],
            "max_value": batch["max_value"],
        })

    return agg.map_batches(final, batch_format="pyarrow")


def q_user_sessions(sf_dir: str) -> ray.data.Dataset:
    """Gap-based sessionization of the event stream (session = run of a
    user's events with < 30 min between consecutive ones) — the
    order-sensitive windowed op: per-user sort + cumulative boundary
    sum inside map_groups, vectorized."""
    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts"])
    gap_us = 30 * 60 * 1_000_000

    def sessions(df: pd.DataFrame) -> pd.DataFrame:
        g = df.sort_values(["ts", "event_id"], kind="stable")
        ts = g["ts"].to_numpy()
        gaps = np.diff(ts).astype("timedelta64[us]").astype(np.int64)
        brk = np.concatenate([[0], (gaps > gap_us).astype(np.int64)])
        sid = np.cumsum(brk)
        g = g.assign(session_id=sid)
        out = g.groupby("session_id", sort=False).agg(
            n_events=("event_id", "size"),
            session_start=("ts", "min"),
            session_end=("ts", "max"),
        ).reset_index()
        out["user_id"] = g["user_id"].iloc[0]
        return out[["user_id", "session_id", "n_events",
                    "session_start", "session_end"]]

    return ev.groupby("user_id").map_groups(sessions, batch_format="pandas")


def q_events_rolling(sf_dir: str) -> ray.data.Dataset:
    """Sliding-window aggregate: per event, how many of the same user's
    events fall in the 1-hour value window ending at (and including)
    this event — SQL ``RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND
    CURRENT ROW`` semantics (value range, ties included both sides),
    computed per user with two vectorized searchsorted passes."""
    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts"])
    one_hour = np.timedelta64(1, "h")

    def rolling(df: pd.DataFrame) -> pd.DataFrame:
        g = df.sort_values(["ts", "event_id"], kind="stable")
        ts = g["ts"].to_numpy()
        lo = np.searchsorted(ts, ts - one_hour, side="left")
        hi = np.searchsorted(ts, ts, side="right")  # RANGE includes peers
        return pd.DataFrame({
            "event_id": g["event_id"].to_numpy(),
            "user_id": g["user_id"].to_numpy(),
            "n_win": (hi - lo).astype(np.int64),
        })

    return ev.groupby("user_id").map_groups(rolling, batch_format="pandas")


def q_events_asof_purchase(sf_dir: str) -> ray.data.Dataset:
    """AS-OF join: every event annotated with the same user's most
    recent strictly-prior purchase timestamp and the exact gap in
    microseconds (stages/joins.asof_join_latest vs DuckDB ASOF JOIN).

    ``gap_us`` is NON-nullable by contract: -1 is the sentinel for "no
    prior purchase" (the oracle SQL coalesces identically). A nullable
    int renders as float64 through the driver's pandas fetch ("123.0")
    while the engine emits Arrow int64 ("123"), so the value hash would
    differ even when every value matches."""
    import pyarrow.compute as _pc

    from deezymatch_ray.stages.joins import asof_join_latest

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])
    left = ev.select_columns(["event_id", "user_id", "ts"])
    right = ev.filter(expr="event_type == 'purchase'").select_columns(["user_id", "ts"])
    joined = asof_join_latest(left, right, key="user_id", ts_col="ts",
                              out_col="last_purchase_ts")

    def gap(t: pa.Table) -> pa.Table:
        g = _pc.cast(_pc.subtract(t["ts"], t["last_purchase_ts"]), pa.int64())
        return t.append_column(
            "gap_us", _pc.fill_null(g, pa.scalar(-1, pa.int64()))
        )

    return joined.map_batches(gap, batch_format="pyarrow")


def _media_store(sf_dir: str) -> ray.data.Dataset:
    """Media refs from the interleaved spans → deterministic media
    store (real PNG payloads for images). Store rows derive from each
    ref alone, so the table builds per batch — refs never materialize
    on the driver (the round-1 plan collected every ref into a Python
    list)."""
    import pyarrow.compute as _pc

    from deezymatch_ray.sources.spans import flat_docs_to_spans
    from deezymatch_ray.stages.multimodal import make_media_table

    docs = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        flat_docs_to_spans, batch_format="pyarrow"
    )

    def refs(batch: pa.Table) -> pa.Table:
        spans = batch["spans"]
        if isinstance(spans, pa.ChunkedArray):
            spans = spans.combine_chunks()
        v = spans.flatten()
        m = v.filter(_pc.equal(v.field("kind"), "media"))
        return pa.table({"media_ref": m.field("media_ref")})

    return docs.map_batches(refs, batch_format="pyarrow").map_batches(
        lambda b: make_media_table(b["media_ref"].to_pylist(), seed=42),
        batch_format="pyarrow",
    )


def q_media_features(sf_dir: str) -> ray.data.Dataset:
    """Multimodal decode over driver data: media store → decode stage
    → (media_ref, mime, decode_ok). PNG payloads decode real
    pixels; audio/video remain digest-stubbed (stages/multimodal.py)."""
    from deezymatch_ray.stages.multimodal import decode_media

    out = decode_media(_media_store(sf_dir), dim=32)
    return out.select_columns(["media_ref", "mime", "decode_ok"])


def q_media_resize(sf_dir: str) -> ray.data.Dataset:
    """Resizer metadata math over the media store: aspect-preserving
    fit into 16×16 for images, zeros for audio/video. Value-exact SQL
    oracle: mime/width/height derive from sha256 digests and the
    half-up rounding is FLOOR(x+0.5) on both sides."""
    from deezymatch_ray.stages.multimodal import ImageResizer

    media = _media_store(sf_dir)
    out = media.map_batches(ImageResizer(max_side=16), batch_format="pyarrow")

    def final(batch: pa.Table) -> pa.Table:
        return pa.table({
            "media_ref": batch["media_ref"],
            "mime": batch["mime"],
            "out_width": pc.cast(batch["out_width"], pa.int64()),
            "out_height": pc.cast(batch["out_height"], pa.int64()),
        })

    return out.map_batches(final, batch_format="pyarrow")


def q_nation_balance(sf_dir: str) -> ray.data.Dataset:
    """Two-table join + mean aggregate (broadcast-small-side shape)."""
    sup = _read(sf_dir, "supplier", ["s_nationkey", "s_acctbal"])
    nat = _read(sf_dir, "nation", ["n_nationkey", "n_name"])
    agg = sup.groupby("s_nationkey").aggregate(
        Mean("s_acctbal", alias_name="avg_bal"), Count(alias_name="n_suppliers")
    ).materialize()  # the co-group reads its schema
    # groupby promotes the left key to int64; the co-group casts the
    # right key to it
    joined = _join(agg, nat, "s_nationkey", "n_nationkey")

    def final(batch: pa.Table) -> pa.Table:
        return pa.table({
            "n_name": batch["n_name"],
            "avg_bal": _round_col(batch["avg_bal"], 2),
            "n_suppliers": batch["n_suppliers"],
        })

    return joined.map_batches(final, batch_format="pyarrow")
