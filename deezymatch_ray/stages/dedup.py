"""Deduplication stages over a flat document table (id, text).

The dedup families a large-scale training-data pipeline needs, each a
Ray Data plan (the reference has only per-ranker exact dedup,
candidateRanker.py:483-492 — SURVEY §2.7 D1; everything else here is
the engine's own scale surface):

- ``exact_dedup``: hash-partition on the full text, keep min id per
  group — one ``groupby`` shuffle, no driver materialization.
- ``jaccard_near_dup``: EXACT word-shingle Jaccard near-dup. Candidate
  generation = share-a-shingle blocking (complete: J(a,b) > 0 ⟹ a and b
  share a shingle): each non-hot shingle's block emits every pair it
  holds, so a pair arrives once per shared shingle, and one
  ``groupby(pair).count`` turns the copies into the exact shared-shingle
  count that the Jaccard verify needs. Matches the brute-force SQL
  oracle row-for-row.
- ``minhash_lsh_near_dup``: the 100 TB path. Docs → k-perm MinHash
  signatures → banded LSH keys → per-band candidate pairs → signature-
  estimated Jaccard filter; pairs dedup via min-band emission.
- ``simhash_fingerprints`` / ``simhash_near_dup``: 64-bit SimHash;
  near-dup candidates from (r+1)-segment band blocking (Hamming ≤ r
  pairs must share one full segment — pigeonhole), verified by exact
  Hamming distance.
- Every pair-emitting plan here (Jaccard, both MinHash plans, SimHash
  near-dup and embedding LSH) emits through the segment core
  ``blocking.segment_pairs``, which ranking's ``blocked_pairs`` shares:
  one Arrow UDF call per key bucket generates the key segments' pairs,
  skips (with a warning) the segments past the plan's cap, and runs
  the plan's vectorized verify kernel on bounded chunks of them.
- ``embedding_near_dup``: exact cosine over an embedding column against
  a broadcast matrix (valid while one side fits in the object store;
  the blocked/IVF variant is `ann.py`).
- ``exact_dedup_incremental`` / ``minhash_lsh_dedup_incremental`` /
  ``embedding_near_dup_incremental``: the new-vs-archive variants
  ("dedup today's crawl against the corpus"): content-hash anti-join
  (only (id, md5, side) shuffles), cross-side-only banded LSH (new×new
  / corpus×corpus pairs are never formed), and a cosine join that
  broadcasts the small NEW side while the archive streams.
"""

from __future__ import annotations

import functools
import warnings

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data
from ray.data.aggregate import Min

from deezymatch_ray.config import DEFAULT_CONFIG
from deezymatch_ray.functions.dedup import (
    band_keys_int,
    hamming64,
    minhash_signatures,
    simhash64_batch,
    word_shingles,
    words,
)
from deezymatch_ray.functions.vectors import dense_pairs, pair_dist, pair_shortlist, to_matrix
from deezymatch_ray.stages.ann import lsh_signatures
from deezymatch_ray.stages.blocking import (
    _np_rows,
    _warn_skipped_group,  # noqa: F401 (the banded plans' skip warning)
    cogroup,
    collect_side,
    inner_join,
    segment_pairs,
)


def exact_dedup(
    ds: ray.data.Dataset, text_col: str = "text", id_col: str = "doc_id"
) -> ray.data.Dataset:
    """(text, doc_id=min id among exact duplicates). One shuffle.

    The groupby keys on a 128-bit content hash (two independent
    vectorized siphashes as int64 columns — collision odds m²/2¹²⁹,
    the same argument as ``_shingle_hashes``) instead of the raw text,
    after a block-local keep-min-id partial dedup: the shuffle carries
    ONE exemplar text per distinct content per block rather than every
    duplicate's full body (r3 VERDICT #8). ``Min(text)`` over a group
    is exact because rows in a (h1, h2) group share identical text."""

    def partial(b: pa.Table) -> pa.Table:
        id_type = b.schema.field(id_col).type
        if b.num_rows == 0:
            return pa.table({
                "__h1": pa.array([], type=pa.int64()),
                "__h2": pa.array([], type=pa.int64()),
                text_col: pa.array([], type=pa.string()),
                id_col: pa.array([], type=id_type),
            })
        df = b.select([id_col, text_col]).to_pandas()
        # dropna=False: null texts form a group like any other value
        # (one surviving row, min id) instead of silently vanishing;
        # hash_array maps None and NaN to the same digest, so the null
        # group's (h1, h2) is stable across blocks.
        g = (
            df.groupby(text_col, sort=False, dropna=False)[id_col]
            .min().reset_index()
        )
        arr = g[text_col].to_numpy(dtype=object)
        h1 = pd.util.hash_array(arr, hash_key="0123456789123456")
        h2 = pd.util.hash_array(arr, hash_key="fedcba9876543210")
        return pa.table({
            "__h1": pa.array(h1.view(np.int64)),
            "__h2": pa.array(h2.view(np.int64)),
            text_col: pa.array(g[text_col], type=pa.string(),
                               from_pandas=True),
            id_col: pa.array(g[id_col], type=id_type),
        })

    deduped = (
        ds.select_columns([id_col, text_col])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["__h1", "__h2"])
        .aggregate(Min(text_col, alias_name=text_col),
                   Min(id_col, alias_name=id_col))
    )
    return deduped.map_batches(
        lambda b: b.drop_columns(["__h1", "__h2"]), batch_format="pyarrow"
    )


def _shingle_hashes(texts: list, n: int) -> list[np.ndarray]:
    """Per-text distinct word-n-gram shingles as sorted 128-bit hashes
    (dtype 'S16'): two independent 64-bit siphashes (pandas' vectorized
    C kernel, fixed keys) concatenated. 128 bits makes hash-identity a
    collision-safe stand-in for string identity on non-adversarial data
    (P[collision] ≈ m²/2¹²⁹ — negligible at any corpus size), so every
    downstream count over hashes equals the count over the shingle
    strings themselves. One flattened batch hash call — no per-shingle
    Python digest."""
    import pandas as pd

    all_sh = [word_shingles(t or "", n) for t in texts]
    counts = [len(sh) for sh in all_sh]
    flat = [s for sh in all_sh for s in sh]
    empty = np.array([], dtype="S16")
    if not flat:
        return [empty for _ in texts]
    arr = np.asarray(flat, dtype=object)
    h1 = pd.util.hash_array(arr, hash_key="0123456789123456")
    h2 = pd.util.hash_array(arr, hash_key="fedcba9876543210")
    comb = np.empty((len(flat), 2), dtype=np.uint64)
    comb[:, 0] = h1
    comb[:, 1] = h2
    packed = np.ascontiguousarray(comb).view("S16")[:, 0]
    out = []
    pos = 0
    for c in counts:
        if c:
            h = np.sort(packed[pos : pos + c])
        else:
            h = empty
        out.append(h)
        pos += c
    return out


def _hot_member(h: np.ndarray, hot: np.ndarray) -> np.ndarray:
    """Boolean mask: which of (sorted) ``h`` are in sorted ``hot``."""
    if hot.size == 0 or h.size == 0:
        return np.zeros(len(h), dtype=bool)
    idx = np.searchsorted(hot, h)
    idx = np.minimum(idx, len(hot) - 1)
    return hot[idx] == h


def _pack16(arr: np.ndarray) -> bytes:
    """Pack an 'S16' hash array into one blob (Acero joins reject
    list<binary> non-key fields; a flat binary column joins fine): the
    array's own 16-byte cells, zero-padded as NumPy stores them."""
    return np.ascontiguousarray(arr).tobytes()


def _unpack16(blob: bytes | None) -> set[bytes]:
    if not blob:
        return set()
    return {blob[i : i + 16].rstrip(b"\0") for i in range(0, len(blob), 16)}


def jaccard_near_dup(
    ds: ray.data.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    n: int = 3,
    threshold: float = 0.5,
    max_block: int = 2_000,
    num_partitions: int = 64,
    stats_out: dict | None = None,
    broadcast_stats_limit: int = 2_000_000,
) -> ray.data.Dataset:
    """EXACT word-n-gram-Jaccard near-dup pairs (doc_a < doc_b, jaccard).

    Scale design (round-2 rewrite — the round-1 plan shipped the full
    shingle list with every exploded row, an O(S²)-bytes-per-doc shuffle,
    and lost pairs whose min-shingle owner block was oversized):

    1. Hot-shingle census: per-batch partial counts of shingle hashes →
       tiny groupby → shingles with document frequency > ``max_block``
       are "hot" (broadcast to every stage via ``ray.put``; Zipf heads
       are few). No full-payload shuffle.
    2. Explode ``(shingle_hash: 16 bytes, id)`` rows for NON-hot shingles
       only — shuffle volume is O(total distinct shingles), linear in
       corpus size.
    3. Per-shingle blocks (≤ max_block by construction) emit each
       co-occurring pair once; a global ``groupby(pair).count`` yields the
       exact non-hot intersection size |A∩B \\ hot|.
    4. Each candidate pair picks up per-doc stats (|A|, and A's — short
       — hot-shingle subset); |A∩B| = non-hot count + |hotA ∩ hotB|, so
       hot shingles still contribute exactly to every verified pair.
       Stats attach with one Arrow inner join per pair end: against the
       per-doc stats table broadcast once (ray.put, zero shuffles) while
       it is ≤ ``broadcast_stats_limit`` rows, beyond that through one
       ``blocking.cogroup`` per end. Either way a pair with a null id
       matches no stats row and is dropped.

    The only loss: a pair sharing *exclusively* hot shingles never
    becomes a candidate (finding it would cost O(freq²) on a key with
    freq > max_block). ``stats_out`` (if given) receives
    ``{"hot_shingles": count}`` so the drop surface is visible; with an
    empty hot set the result is unconditionally exact.
    """
    from ray.data.aggregate import Count, Sum

    docs = ds.select_columns([id_col, text_col])

    # --- hash ONCE: (id, n_sh, packed sorted shingle hashes) per doc,
    # materialized — census, stats and explode all read this instead of
    # re-running blake2b over the corpus (3× → 1× hashing) ---
    def hash_docs(batch: pa.Table) -> pa.Table:
        hs = _shingle_hashes(batch[text_col].to_pylist(), n)
        return pa.table({
            id_col: batch[id_col],
            "n_sh": pa.array(np.array([len(h) for h in hs], dtype=np.int64)),
            "sh_blob": pa.array([_pack16(h) for h in hs], type=pa.binary()),
        })

    hashed = docs.map_batches(hash_docs, batch_format="pyarrow").materialize()

    def _unpack_col(blobs: list) -> list[np.ndarray]:
        return [np.frombuffer(b or b"", dtype="S16") for b in blobs]

    # --- pass 0: hot-shingle census (partial counts → small groupby) ---
    def partial_counts(batch: pa.Table) -> pa.Table:
        hs = _unpack_col(batch["sh_blob"].to_pylist())
        nonempty = [h for h in hs if h.size]
        if not nonempty:
            return pa.table({"sh": pa.array([], type=pa.binary()),
                             "cnt": pa.array([], type=pa.int64())})
        u, c = np.unique(np.concatenate(nonempty), return_counts=True)
        return pa.table({"sh": pa.array(u.tolist(), type=pa.binary()),
                         "cnt": pa.array(c)})

    sizes = (
        hashed.map_batches(partial_counts, batch_format="pyarrow")
        .groupby("sh").aggregate(Sum("cnt", alias_name="cnt"))
    )
    hot_rows = sizes.filter(expr=f"cnt > {max_block}").take_all()
    hot = np.array(sorted(r["sh"] for r in hot_rows), dtype="S16")
    if stats_out is not None:
        stats_out["hot_shingles"] = len(hot)
    hot_ref = ray.put(hot)

    # --- per-doc stats: shingle count + (short) hot subset ---
    def doc_stats(batch: pa.Table) -> pa.Table:
        hot_arr = ray.get(hot_ref)
        hs = _unpack_col(batch["sh_blob"].to_pylist())
        hot_sub = [_pack16(h[_hot_member(h, hot_arr)]) for h in hs]
        return pa.table({
            id_col: batch[id_col],
            "n_sh": batch["n_sh"],
            "hot_sh": pa.array(hot_sub, type=pa.binary()),
        })

    stats = hashed.map_batches(doc_stats, batch_format="pyarrow")

    # --- explode non-hot (shingle_hash, id) rows ---
    def explode(batch: pa.Table) -> pa.Table:
        hot_arr = ray.get(hot_ref)
        ids = batch[id_col].to_pylist()
        hs = _unpack_col(batch["sh_blob"].to_pylist())
        # a null id pairs with nothing (no stats row matches it either)
        keep = [h[~_hot_member(h, hot_arr)] if i is not None else h[:0]
                for i, h in zip(ids, hs)]
        counts = [len(h) for h in keep]
        flat = (np.concatenate([h for h in keep if h.size])
                if any(counts) else np.array([], dtype="S16"))
        rep_ids = [ids[i] for i, c in enumerate(counts) for _ in range(c)]
        return pa.table({
            "sh": pa.array(flat.tolist(), type=pa.binary()),
            "id": pa.array(rep_ids),
        })

    keyed = hashed.map_batches(explode, batch_format="pyarrow")

    # --- per-shingle pair emission (blocks ≤ max_block by construction):
    # every pair of a block, ids sorted so doc_a < doc_b ---
    pairs = segment_pairs(
        keyed, num_partitions, key_col="sh",
        kernel=lambda cols, a, b, key: (a, b),
        ends={"id": ("doc_a", "doc_b")}, values={},
    )

    # --- exact non-hot intersection size per pair ---
    cand = pairs.groupby(["doc_a", "doc_b"]).aggregate(Count(alias_name="inter_nh"))

    # --- attach per-doc stats: one Arrow inner join per pair end ---
    sch = docs.schema()
    id_type = dict(zip(sch.names, sch.types))[id_col]
    stats = stats.materialize()  # consumed once per side; don't re-hash docs

    def attach(end: str):
        """The kernel of both attach plans: pairs ⋈ stats on ``end``,
        the stats named n_a/hot_a (or n_b/hot_b)."""
        def fn(pairs: pa.Table, st: pa.Table) -> pa.Table:
            return inner_join([end])(pairs, st.rename_columns(
                [end, "n" + end[3:], "hot" + end[3:]]))

        return fn

    if stats.count() <= broadcast_stats_limit:
        # small corpus: the stats table broadcast once, zero shuffles
        parts = [b.select([id_col, "n_sh", "hot_sh"])
                 for b in stats.iter_batches(batch_format="pyarrow", batch_size=None)
                 if b.num_rows]
        stats_ref = ray.put(pa.concat_tables(parts) if parts else None)

        def attach_broadcast(batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0:  # empty buckets arrive schema-less
                return pa.table({
                    "doc_a": pa.array([], type=id_type),
                    "doc_b": pa.array([], type=id_type),
                    "inter_nh": pa.array([], type=pa.int64()),
                    "n_a": pa.array([], type=pa.int64()),
                    "hot_a": pa.array([], type=pa.binary()),
                    "n_b": pa.array([], type=pa.int64()),
                    "hot_b": pa.array([], type=pa.binary()),
                })
            s = ray.get(stats_ref)
            return attach("doc_b")(attach("doc_a")(batch, s), s)

        cand = cand.map_batches(attach_broadcast, batch_format="pyarrow")
    else:
        for end in ("doc_a", "doc_b"):
            cand = cogroup(cand.materialize(), stats, [end], attach(end),
                           num_partitions, right_on=[id_col])

    # --- exact Jaccard + threshold ---
    def finish(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:  # empty buckets arrive schema-less
            return pa.table({
                "doc_a": pa.array([], type=id_type),
                "doc_b": pa.array([], type=id_type),
                "jaccard": pa.array([], type=pa.float64()),
            })
        cnt = np.asarray(batch["inter_nh"].to_pylist(), dtype=np.float64)
        n_a = np.asarray(batch["n_a"].to_pylist(), dtype=np.float64)
        n_b = np.asarray(batch["n_b"].to_pylist(), dtype=np.float64)
        hot_arr = ray.get(hot_ref)
        inter = cnt
        if hot_arr.size:
            hot_a = batch["hot_a"].to_pylist()
            hot_b = batch["hot_b"].to_pylist()
            extra = np.array(
                [len(_unpack16(x) & _unpack16(y)) for x, y in zip(hot_a, hot_b)],
                dtype=np.float64,
            )
            inter = cnt + extra
        denom = n_a + n_b - inter
        jac = np.divide(inter, denom, out=np.zeros_like(inter), where=denom > 0)
        keep = jac >= threshold
        kept = batch.filter(pa.array(keep))
        return pa.table({
            "doc_a": kept["doc_a"].cast(id_type),
            "doc_b": kept["doc_b"].cast(id_type),
            # Python round (correctly rounded) — np.round can land one ulp
            # off DuckDB's round and break value-hash compares
            "jaccard": pa.array([round(float(v), 6) for v in jac[keep]],
                                type=pa.float64()),
        })

    return cand.map_batches(finish, batch_format="pyarrow")


def _band_group_stats(keyed: ray.data.Dataset, max_block: int,
                      stats_out: dict, key_col: str = "band_key") -> None:
    """One count-aggregation over the exploded band/segment keys: how
    many groups exist and how many exceed ``max_block`` (and are
    therefore skipped by the verify stage). Diagnostic path — opt-in
    via ``stats_out`` because it consumes the keyed dataset once more."""
    from ray.data.aggregate import Count

    sizes = (
        keyed.select_columns([key_col]).groupby(key_col)
        .aggregate(Count(alias_name="cnt")).materialize()
    )
    stats_out["n_band_groups"] = sizes.count()
    stats_out["oversized_band_groups"] = sizes.filter(
        expr=f"cnt > {max_block}"
    ).count()


def _banded(keyed: ray.data.Dataset, key_col: str, verify, names,
            value: tuple[str, pa.DataType], max_block: int,
            kind: str, tag: tuple | None = None) -> ray.data.Dataset:
    """A banded plan's pairs through the segment core: band/segment
    groups of more than ``max_block`` rows are skipped with a warning,
    the chunk kernel ``verify`` keeps (a, b, value) rows, and ``tag``
    pairs left × right rows only (``walk_segments``)."""

    def oversize(seg):
        return np.where(seg["rows"] > max_block, f"max_block={max_block}", "")

    return segment_pairs(
        keyed, DEFAULT_CONFIG.execution.shuffle_partitions, key_col=key_col,
        kernel=verify, oversize=oversize, kind=kind, ends={"id": names},
        values=dict([value]), tag=tag, self_join=tag is None,
    )


def _minhash_verify(rows_per_band: int, n_bands: int, threshold: float):
    """Chunk kernel of both MinHash plans: signature equality, band
    ownership (the first fully-equal band owns the pair, so each pair is
    emitted by exactly one band group) and the estimate threshold
    evaluate as [pairs, k] matrix ops."""

    def verify(cols, a, b, key):
        sigs = cols("sig").view(np.uint64)
        nb = sigs.shape[1] // rows_per_band
        eq = sigs[a] == sigs[b]  # [c, k]
        est = eq.mean(axis=1)
        full = eq[:, : nb * rows_per_band].reshape(
            len(a), nb, rows_per_band).all(axis=2)
        has = full.any(axis=1)  # false only on a band-digest collision
        own = full.argmax(axis=1) == (key % n_bands).astype(np.int64)
        keep = has & own & (est >= threshold)
        return a[keep], b[keep], [round(float(v), 6) for v in est[keep]]

    return verify


class _MinHashStage:
    """map_batches stage: (id, text) → (id, sig fixed_size_list<uint64
    as int64-bitcast>, int64 band_key exploded rows), plus an int8
    ``side`` column when given (the incremental plan's NEW = 1 / CORPUS
    = 0 tag). Runs as a stateless TASK pool (an instance is passed, not
    the class): the only per-call state (the k permutation params)
    costs microseconds to build, and a task pool reuses already-warm
    workers instead of paying actor spin-up — which dominated this
    stage's wall time on short runs."""

    def __init__(self, text_col: str, id_col: str, n: int, k: int, n_bands: int,
                 seed: int, hash_basis: str = "siphash", side: int | None = None):
        self.text_col, self.id_col = text_col, id_col
        self.n, self.k, self.n_bands, self.seed = n, k, n_bands, seed
        self.hash_basis, self.side = hash_basis, side

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch[self.id_col]
        texts = batch[self.text_col].to_pylist()
        shingles = [word_shingles(t or "", self.n) for t in texts]
        # docs with zero shingles (< n words) emit no rows: their
        # all-max sentinel signatures would otherwise band-match EACH
        # OTHER and surface as est_jaccard=1.0 "near-dups"
        nonempty = [i for i, s in enumerate(shingles) if s]
        if len(nonempty) < len(shingles):
            shingles = [shingles[i] for i in nonempty]
            ids = ids.take(pa.array(nonempty, type=pa.int64()))
        n = len(shingles)
        sigs = minhash_signatures(shingles, k=self.k, seed=self.seed,
                                  basis=self.hash_basis)
        keys = band_keys_int(sigs, self.n_bands)  # [N, n_bands] int64
        # explode fully vectorized: np.repeat on the signature matrix +
        # one Arrow take (the per-row/per-band Python append loop was
        # ~40% of this stage's profile)
        rep = np.repeat(np.arange(n), self.n_bands)
        sig_flat = np.repeat(sigs.view(np.int64), self.n_bands, axis=0).reshape(-1)
        out = {
            "band_key": pa.array(keys.reshape(-1)),
            "id": ids.take(pa.array(rep)),
            "sig": pa.FixedSizeListArray.from_arrays(pa.array(sig_flat), self.k),
        }
        if self.side is not None:
            out["side"] = pa.array(np.full(len(rep), self.side, dtype=np.int8))
        return pa.table(out)


def minhash_lsh_near_dup(
    ds: ray.data.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    n: int = 3,
    k: int = 64,
    n_bands: int = 16,
    threshold: float = 0.5,
    seed: int = 7,
    max_block: int = 10_000,
    hash_basis: str = "siphash",
    stats_out: dict | None = None,
) -> ray.data.Dataset:
    """Approximate near-dup pairs (doc_a < doc_b, est_jaccard) at scale:
    only signatures shuffle; candidate pairs come from banded LSH.
    ``hash_basis="md5"`` switches the shingle hash + permutation family
    to the SQL-mirrorable one (functions/dedup.minhash_params32) so a
    DuckDB oracle can reproduce signatures, est values and banding
    bit-for-bit; "siphash" (default) is the faster production basis.

    Band groups larger than ``max_block`` are SKIPPED (a band shared by
    >10k docs means degenerate boilerplate whose O(m²) pair list is
    itself pathological output); pass ``stats_out`` to pay one extra
    count-aggregation and receive ``n_band_groups`` /
    ``oversized_band_groups`` so the skip is visible — the same
    contract as ``jaccard_near_dup`` / ``embedding_near_dup_lsh``."""
    keyed = ds.map_batches(
        _MinHashStage(text_col=text_col, id_col=id_col, n=n, k=k,
                      n_bands=n_bands, seed=seed, hash_basis=hash_basis),
        batch_format="pyarrow",
    )
    if stats_out is not None:
        _band_group_stats(keyed, max_block, stats_out)
    return _banded(
        keyed, "band_key", _minhash_verify(k // n_bands, n_bands, threshold),
        ("doc_a", "doc_b"), ("est_jaccard", pa.float64()), max_block,
        "minhash_lsh_near_dup",
    )


def exact_dedup_incremental(
    new_ds: ray.data.Dataset,
    corpus_ds: ray.data.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_buckets: int = 64,
) -> ray.data.Dataset:
    """Incremental exact dedup: ids of NEW docs whose content does not
    already exist in the CORPUS (the "dedup today's crawl against the
    archive" anti-join).

    Scale plan: each side projects to (id, fp=md5-hex of text) — the
    text itself never shuffles — then one ``blocking.cogroup`` on the
    fingerprint co-locates equal contents; a new id survives iff its
    call's corpus slice holds no row with the same fp. Within-new
    duplicates are NOT collapsed (that is ``exact_dedup``'s job); the
    contract is purely new-vs-corpus. md5 is content identity here
    exactly as in DuckDB's ``md5(text)``, so the SQL oracle matches
    even in the (negligible) collision case.
    """
    import hashlib

    def project(batch: pa.Table) -> pa.Table:
        fps = [hashlib.md5((t or "").encode()).hexdigest()
               for t in batch[text_col].to_pylist()]
        return pa.table({"id": batch[id_col], "fp": pa.array(fps, type=pa.string())})

    def keep_new(new: pa.Table, corpus: pa.Table) -> pa.Table:
        out = new.filter(pc.invert(pc.is_in(new["fp"], value_set=corpus["fp"])))
        return pa.table({id_col: out["id"]})

    return cogroup(new_ds.map_batches(project, batch_format="pyarrow"),
                   corpus_ds.map_batches(project, batch_format="pyarrow"),
                   ["fp"], keep_new, num_buckets)


def minhash_lsh_dedup_incremental(
    new_ds: ray.data.Dataset,
    corpus_ds: ray.data.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    n: int = 3,
    k: int = 64,
    n_bands: int = 16,
    threshold: float = 0.5,
    seed: int = 7,
    max_block: int = 10_000,
    hash_basis: str = "siphash",
    stats_out: dict | None = None,
) -> ray.data.Dataset:
    """Incremental near-dup: (new_id, corpus_id, est_jaccard) for every
    NEW doc whose MinHash signature estimates Jaccard ≥ threshold
    against a CORPUS doc — the LSH-banded new-vs-archive join. Only
    signatures + an int8 side tag shuffle; candidate pairs are
    cross-side only (new×new and corpus×corpus pairs are never formed),
    and each surviving pair is emitted once by its first fully-equal
    band (same ownership rule as ``minhash_lsh_near_dup``, so the same
    SQL mirror applies on the md5 basis).

    Band groups past ``max_block`` rows are skipped like the symmetric
    plan's (degenerate boilerplate bands); pass ``stats_out`` to get
    ``n_band_groups`` / ``oversized_band_groups`` so skips are never
    silent."""
    stage = functools.partial(
        _MinHashStage, text_col=text_col, id_col=id_col, n=n, k=k,
        n_bands=n_bands, seed=seed, hash_basis=hash_basis,
    )
    keyed = new_ds.map_batches(stage(side=1), batch_format="pyarrow").union(
        corpus_ds.map_batches(stage(side=0), batch_format="pyarrow")
    )
    if stats_out is not None:
        _band_group_stats(keyed, max_block, stats_out)
    return _banded(
        keyed, "band_key",
        _minhash_verify(k // n_bands, n_bands, threshold),
        ("new_id", "corpus_id"), ("est_jaccard", pa.float64()), max_block,
        "minhash_dedup_incremental", tag=("side", 1, 0),
    )


def simhash_fingerprints(
    ds: ray.data.Dataset, text_col: str = "text", id_col: str = "doc_id",
    hash_basis: str = "siphash",
) -> ray.data.Dataset:
    """(id, simhash hex string) per document. ``hash_basis="md5"`` uses
    the DuckDB-mirrorable token hash (md5_number_lower) so the driver's
    SQL oracle reproduces fingerprints exactly."""

    def fn(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pylist()
        sigs = simhash64_batch([words(t or "") for t in texts], basis=hash_basis)
        hexes = [f"{int(s):016x}" for s in sigs]
        return pa.table({
            id_col: batch[id_col],
            "simhash": pa.array(hexes, type=pa.string()),
        })

    return ds.map_batches(fn, batch_format="pyarrow")


def simhash_near_dup(
    ds: ray.data.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    max_hamming: int = 3,
    max_block: int = 10_000,
    hash_basis: str = "siphash",
    stats_out: dict | None = None,
) -> ray.data.Dataset:
    """Pairs (doc_a < doc_b, hamming) with SimHash Hamming ≤ r, found by
    (r+1)-segment band blocking (pigeonhole-complete) + exact verify.
    Blocking is exhaustive for Hamming ≤ r, so with ``hash_basis="md5"``
    the output equals an all-pairs SQL mirror exactly at any scale —
    below ``max_block``: segment groups past it are skipped (degenerate
    near-constant fingerprints); pass ``stats_out`` for
    ``n_band_groups`` / ``oversized_band_groups`` so skips are never
    silent (same contract as the MinHash plans)."""
    n_seg = max_hamming + 1
    seg_bits = 64 // n_seg
    segs = np.arange(n_seg, dtype=np.uint64)
    shifts = segs * np.uint64(seg_bits)
    seg_mask = np.uint64((1 << seg_bits) - 1)

    def explode(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pylist()
        n = len(texts)
        sigs = simhash64_batch(
            [words(t or "") for t in texts], basis=hash_basis
        )  # [N] uint64
        # vectorized: int64 seg keys (part folded with the segment index
        # via wraparound part*n_seg+seg; seg = key % n_seg recovers it —
        # exact: parts are < 2^seg_bits so the fold only wraps when
        # n_seg == 1, where key == part)
        parts = (sigs[:, None] >> shifts) & seg_mask
        with np.errstate(over="ignore"):
            keys = parts * np.uint64(n_seg) + segs[None, :]
        rep = np.repeat(np.arange(n), n_seg)
        return pa.table({
            "seg_key": pa.array(keys.reshape(-1).view(np.int64)),
            "id": batch[id_col].take(pa.array(rep)),
            "sig": pa.array(np.repeat(sigs.view(np.int64), n_seg)),
        })

    def verify(cols, a, b, key):
        sigs = cols("sig").view(np.uint64)
        hd = hamming64(sigs[a], sigs[b])
        keep = hd <= max_hamming
        a, b, hd, key = a[keep], b[keep], hd[keep], key[keep]
        # min-segment emission: the first matching segment owns the
        # pair (≥1 segment matches by pigeonhole: hd ≤ r, r+1 segments)
        diff = ((sigs[a] ^ sigs[b])[:, None] >> shifts) & seg_mask  # [p, n_seg]
        own = (diff == 0).argmax(axis=1) == (key % n_seg).astype(np.int64)
        return a[own], b[own], hd[own]

    keyed = ds.map_batches(explode, batch_format="pyarrow")
    if stats_out is not None:
        _band_group_stats(keyed, max_block, stats_out, key_col="seg_key")
    return _banded(
        keyed, "seg_key", verify, ("doc_a", "doc_b"), ("hamming", pa.int64()),
        max_block, "simhash_near_dup",
    )


def embedding_near_dup_lsh(
    ds: ray.data.Dataset,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    threshold: float = 0.4,
    round_to: int = 3,
    n_bits: int | None = None,
    n_tables: int | None = None,
    seed: int = 7,
    max_block: int = 20_000,
    num_partitions: int = 64,
    stats_out: dict | None = None,
) -> ray.data.Dataset:
    """Scale path for ``embedding_near_dup``: hyperplane-LSH candidate
    generation + EXACT cosine verification — same output schema, no
    broadcast of the full matrix.

    Each vector hashes to ``n_tables`` sign-pattern buckets
    (``ann.lsh_signatures``). Every bucket verifies ALL of its pairs in
    bounded chunks (``pair_shortlist``, then exact ``pair_dist``);
    oversized buckets warn but are never skipped, so pair loss is
    impossible inside a shared bucket. A pair sharing several buckets is emitted by each and deduplicated
    by a global ``groupby(pair).min`` — a small shuffle over surviving
    pairs only (the verified sim is identical in every copy).

    Recall for a pair at angle θ is 1 − (1 − (1−θ/π)^n_bits)^n_tables;
    verified similarities are exact, so false positives are impossible.

    ``n_bits=None`` auto-sizes from the corpus: expected per-table
    bucket ≈ n/2^n_bits is held to ``max_block/4`` (floor 5 — identical
    to the documented reference point on small corpora), and
    ``n_tables=None`` then grows the table count to preserve the
    (n_bits=5, 48-table) recall at the configured ``threshold``. Auto
    mode costs one ``ds.count()`` (metadata-cheap on a parquet read;
    pass both explicitly to skip it on an expensive lazy input).

    Shuffle volume: each vector ships ``n_tables`` times as an
    (int64 bucket key, id, float32 vector) row — linear in the corpus
    with an n_tables constant, the standard LSH trade: more tables buy
    recall with proportional shuffle. Auto mode caps n_tables at 512
    and WARNS (with the achieved recall in ``stats_out``) if the recall
    target would need more.

    ``stats_out`` (if given) receives n_bits / n_tables / n_buckets /
    oversized_buckets so bucket skew is visible (costs one extra small
    aggregation over the exploded keys)."""
    import math

    rng = np.random.default_rng(seed)

    if n_bits is None or n_tables is None:
        n_rows = ds.count()
        p = 1.0 - math.acos(min(max(threshold, -1.0), 1.0)) / math.pi
        if n_bits is None:
            n_bits = max(5, math.ceil(math.log2(max(4 * n_rows / max_block, 1))))
        if n_tables is None:
            target_recall = 1 - (1 - p ** 5) ** 48
            miss = max(1.0 - p ** n_bits, 1e-12)
            n_tables_target = max(48, math.ceil(
                math.log(max(1 - target_recall, 1e-12)) / math.log(miss) - 1e-9
            ))
            # shuffle-volume guard: past 512 tables the linear-in-tables
            # shuffle dominates; if the recall target needs more, WARN —
            # a silent cap would quietly void the documented recall bound
            n_tables = min(n_tables_target, 512)
            if n_tables < n_tables_target:
                achieved = 1 - (1 - p ** n_bits) ** n_tables
                warnings.warn(
                    f"embedding_near_dup_lsh: auto n_tables target "
                    f"{n_tables_target} capped to 512 (shuffle-volume "
                    f"guard); per-pair recall at threshold falls to "
                    f"~{achieved:.3f} instead of the documented "
                    f"{target_recall:.3f}. Pass n_tables explicitly to "
                    f"override, or raise max_block to lower n_bits.",
                    stacklevel=2,
                )
                if stats_out is not None:
                    stats_out["n_tables_target"] = n_tables_target
                    stats_out["recall_at_threshold"] = achieved
    if stats_out is not None:
        stats_out["n_bits"] = n_bits
        stats_out["n_tables"] = n_tables

    def dim_of() -> int:
        sch = ds.schema()
        t = dict(zip(sch.names, sch.types))[vec_col]
        if pa.types.is_fixed_size_list(t):
            return t.list_size
        first = ds.limit(1).take_all()[0][vec_col]
        return len(first)

    d = dim_of()
    planes = rng.standard_normal((n_tables * n_bits, d))
    planes_ref = ray.put(planes)

    def explode(batch: pa.Table) -> pa.Table:
        pl = ray.get(planes_ref)
        ids = batch[id_col]
        n = batch.num_rows
        if n == 0:  # filters upstream routinely emit empty blocks
            return pa.table({
                "bkey": pa.array([], type=pa.int64()),
                "id": pa.array([], type=ids.type),
                "vec": pa.array(
                    [], type=pa.list_(pa.float32(), d)
                ),
            })
        mat = to_matrix(batch[vec_col])
        sig = lsh_signatures(mat, pl, n_bits)  # [N, T]
        # int64 key fold pattern*n_tables + t (pattern < 2^n_bits, so no
        # overflow for any realistic n_bits) — vectorized, and an int64
        # shuffles fewer bytes than the old "t:int" f-string per row
        keys = (
            sig.astype(np.int64) * n_tables
            + np.arange(n_tables, dtype=np.int64)[None, :]
        ).reshape(-1)
        rep = np.repeat(np.arange(n), n_tables)
        vecs = mat.astype(np.float32)[rep]
        return pa.table({
            "bkey": pa.array(keys),
            "id": ids.take(pa.array(rep)),
            "vec": pa.FixedSizeListArray.from_arrays(
                pa.array(vecs.reshape(-1)), d),
        })

    keyed = ds.select_columns([id_col, vec_col]).map_batches(
        explode, batch_format="pyarrow"
    )

    if stats_out is not None:
        from ray.data.aggregate import Count

        keyed = keyed.materialize()  # census + verify both consume it
        sizes = (
            keyed.select_columns(["bkey"]).groupby("bkey")
            .aggregate(Count(alias_name="cnt")).materialize()
        )
        stats_out["n_buckets"] = sizes.count()
        stats_out["oversized_buckets"] = sizes.filter(
            expr=f"cnt > {max_block}"
        ).count()

    def loud(seg):  # big buckets are verified in full, never skipped
        for key, m in zip(seg["key"], seg["rows"]):
            if m > max_block:
                warnings.warn(f"embedding_near_dup_lsh: bucket {int(key)!r} holds {m} "
                              f"rows > max_block={max_block}; verifying IN FULL at "
                              "O(m²) cosine cost. Raise n_bits/max_block or pre-dedup "
                              "degenerate vectors if this recurs.", stacklevel=2)
        return ""

    def verify(cols, a, b, key):
        vec = cols("vec")
        keep = pair_shortlist(vec, a, b, "cos", threshold)
        a, b = a[keep], b[keep]
        _, sims = pair_dist(vec, vec, a, b, l2=False)
        hit = sims >= threshold
        # Python round (correctly rounded) — np.round can land one
        # ulp off DuckDB's round and break value-hash compares
        return a[hit], b[hit], [round(float(v), round_to) for v in sims[hit]]

    per_bucket = segment_pairs(
        keyed, num_partitions, key_col="bkey", kernel=verify, oversize=loud,
        ends={"id": ("vec_a", "vec_b")}, values={"cos_sim": pa.float64()},
    )
    # global pair dedup: sims are identical across a pair's shared
    # buckets, so min == the value; the shuffle is over surviving pairs
    # only (ownership is no longer tied to buckets, so an unverified
    # bucket can never suppress a pair another bucket found)
    return per_bucket.groupby(["vec_a", "vec_b"]).aggregate(
        Min("cos_sim", alias_name="cos_sim")
    )


def embedding_near_dup(
    ds: ray.data.Dataset,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    threshold: float = 0.4,
    round_to: int = 3,
    broadcast_limit: int = 2_000_000,
) -> ray.data.Dataset:
    """Exact cosine near-dup pairs (vec_a < vec_b, cos_sim) via one pass
    of row-blocks against the broadcast full matrix (``ray.put`` once).
    Refuses LOUDLY past ``broadcast_limit`` rows (the driver-side
    concat + broadcast would OOM long before producing wrong results) —
    beyond it, ``embedding_near_dup_lsh`` is the no-broadcast scale
    path (exact verification, LSH-bounded recall)."""
    tbl = collect_side(
        ds.select_columns([id_col, vec_col]), broadcast_limit,
        f"embedding_near_dup materializes every vector on the driver and "
        f"broadcasts them (>{broadcast_limit} rows seen); use "
        "embedding_near_dup_lsh for corpora past the object-store bound"
    ) or pa.table({id_col: [], vec_col: []})  # no rows: no pairs
    payload = ray.put((_np_rows(tbl[id_col]), to_matrix(tbl[vec_col])))

    def fn(batch: pa.Table) -> pa.Table:
        c_ids, c_mat = ray.get(payload)
        q_ids = _np_rows(batch[id_col])
        qi, ci, _, sims = dense_pairs(
            to_matrix(batch[vec_col]), c_mat, by="cos", threshold=threshold,
            allow=lambda r, c: q_ids[r][:, None] < c_ids[c][None, :])
        hit = sims >= threshold
        return pa.table({
            "vec_a": batch[id_col].take(pa.array(qi[hit])),
            "vec_b": pa.array(c_ids[ci[hit]], type=batch[id_col].type),
            # Python round (correctly rounded) — np.round can land one ulp
            # off DuckDB's round and break value-hash compares
            "cos_sim": pa.array([round(float(v), round_to) for v in sims[hit]],
                                type=pa.float64()),
        })

    return ds.map_batches(fn, batch_format="pyarrow")


def embedding_near_dup_incremental(
    new_ds: ray.data.Dataset,
    corpus_ds: ray.data.Dataset,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    threshold: float = 0.4,
    round_to: int = 3,
    broadcast_limit: int = 2_000_000,
) -> ray.data.Dataset:
    """Incremental embedding near-dup: (new_id, corpus_id, cos_sim) for
    NEW vectors with cosine ≥ threshold against the CORPUS. The scale
    asymmetry drives the plan: the NEW side (a crawl increment) is the
    small one, so it is the side that materializes + broadcasts
    (``ray.put`` once, loud abort past ``broadcast_limit``) while the
    archive-sized CORPUS only streams through ``map_batches`` — the
    opposite orientation of ``embedding_near_dup``'s self-join."""
    tbl = collect_side(
        new_ds.select_columns([id_col, vec_col]), broadcast_limit,
        f"embedding_near_dup_incremental broadcasts the NEW side "
        f"(>{broadcast_limit} rows seen); batch the increment or use "
        "embedding_near_dup_lsh over the union for symmetric "
        "no-broadcast matching"
    ) or pa.table({id_col: [], vec_col: []})  # no rows: no pairs
    payload = ray.put((_np_rows(tbl[id_col]), to_matrix(tbl[vec_col])))

    def fn(batch: pa.Table) -> pa.Table:
        n_ids, n_mat = ray.get(payload)
        qi, ci, _, sims = dense_pairs(n_mat, to_matrix(batch[vec_col]),
                                      by="cos", threshold=threshold)
        hit = sims >= threshold
        return pa.table({
            "new_id": pa.array(n_ids[qi[hit]], type=batch[id_col].type),
            "corpus_id": batch[id_col].take(pa.array(ci[hit])),
            "cos_sim": pa.array(
                [round(float(v), round_to) for v in sims[hit]],
                type=pa.float64(),
            ),
        })

    return corpus_ds.map_batches(fn, batch_format="pyarrow")
