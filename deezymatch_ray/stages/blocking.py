"""Blocking stage: derive join keys, control skew, group co-candidates,
and walk key segments into candidate pairs.

The reference has no blocking — its candidate_ranker brute-forces a
global faiss index over every candidate (candidateRanker.py:361-364),
which cannot scale past one node. Blocking is our scale path (SURVEY
§7.1): documents sharing a q-gram of their normalized join text (or a
phonetic Soundex key) land in the same block; only within-block pairs
are scored. The pairwise-F1 target is defined on labeled pairs *sharing
a blocking key*.

Skew policy (explicit, logged — SURVEY §4): q-gram keys are Zipf-like;
a key appearing in more than ``max_block_size`` docs carries little
discriminative signal and would generate O(n²) pairs. Hot self-join
blocks are tile-salted (``ranking.salt_hot_blocks``); a block still
over its plan's cap is skipped with a warning, never silently.

Every plan that turns key groups into pairs runs through one core,
``segment_pairs``: rows hash-bucket with ``bucketize``, a sort at
fixed bucket boundaries hands each CPU's range of whole buckets to one
UDF call (``bucket_map``), and ``walk_segments`` generates the pairs of
all the call's key segments in one NumPy pass (self pairs i < j, or
left × right rows by a tag column), skipping the segments
over the plan's caps with one warning each. The kernel contract is
chunked: the plan's kernel is one vectorized filter per chunk of
≤ 2^18 pairs on bucket row positions, and only the pairs it keeps are
gathered, with Arrow ``take``. Its users: ranking's ``blocked_pairs``
(``score_block_bucket``: a float32 distance shortlist),
``jaccard_near_dup``, both MinHash plans, ``simhash_near_dup`` and
``embedding_near_dup_lsh``.

Two keyed sides meet in one way, ``cogroup``: both sides tagged and
null-padded to one schema, one ``bucket_map`` on the key, and one
``fn(left_slice, right_slice)`` call per range of buckets. Its inner
join (``inner_join``, pyarrow's ``Table.join``) serves every library
join: clustering's label lookups, near_dup's scale verify, Jaccard's
stats attach, the driver queries' joins; the as-of join and the
incremental exact dedup's anti join bring their own ``fn``. Ray's
``Dataset.join`` is not used: it stalls on a one-CPU cluster and fails
on empty partitions.

All batch fns are Arrow-vectorized; `derive_block_keys` is a flat_map
implemented as `map_batches` returning more rows than in (the idiomatic
vectorized explode).
"""
from __future__ import annotations

import functools
import warnings

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from deezymatch_ray.config import PreprocessingConfig
from deezymatch_ray.functions.similarity import soundex_batch
from deezymatch_ray.functions.text import normalize_array, qgram_keys_table
from deezymatch_ray.functions.vectors import run_starts


class DeriveBlockKeys:
    """map_batches fn: (doc_id, <text_col>) → exploded (doc_id, block_key).

    Emits distinct q-gram keys of the bounded normalized text plus an
    optional Soundex key prefixed "snd:". Stateless and deterministic.
    """

    def __init__(
        self,
        text_col: str = "join_text",
        id_col: str = "doc_id",
        qgram: int = 3,
        use_phonetic: bool = True,
        preprocessing: PreprocessingConfig | None = None,
        prefix: str = "|",
        suffix: str = "|",
    ):
        self.text_col = text_col
        self.id_col = id_col
        self.qgram = qgram
        self.use_phonetic = use_phonetic
        self.prep = preprocessing or PreprocessingConfig()

    def __call__(self, batch: pa.Table) -> pa.Table:
        norm = normalize_array(
            batch[self.text_col],
            uni2ascii=self.prep.uni2ascii,
            lowercase=self.prep.lowercase,
            strip=self.prep.strip,
            only_latin_letters=self.prep.only_latin_letters,
        )
        out = qgram_keys_table(
            batch[self.id_col], norm, n=self.qgram, prefix="|", suffix="|",
            distinct=True, id_name=self.id_col, key_name="block_key",
        )
        if self.use_phonetic:
            snd = soundex_batch(norm.to_pylist())
            mask = np.array([bool(k) for k in snd])
            if mask.any():
                sel = pa.array(np.flatnonzero(mask), type=pa.int64())
                ids = (batch[self.id_col].combine_chunks()
                       if isinstance(batch[self.id_col], pa.ChunkedArray)
                       else batch[self.id_col]).take(sel)
                keys = pa.array([f"snd:{snd[i]}" for i in np.flatnonzero(mask)])
                out = pa.concat_tables(
                    [out, pa.table({self.id_col: ids, "block_key": keys})]
                )
        return out


_FNV_PRIME = np.uint64(0x100000001B3)


def _resolve_hash_backend() -> tuple[str, str | None]:
    """Decide the bucket-hash backend ONCE (on the driver, at bucketize
    call time) and ship the decision through the UDF closure. Deciding
    per worker would let a heterogeneous cluster (polars on some nodes,
    or mixed polars versions — ``pl.hash`` is only stable within one
    version) silently send identical keys to different buckets, losing
    cross-bucket matches in every bucketized groupby. Workers verify
    the shipped decision and fail loudly on mismatch instead. The
    version comes from the package metadata, so a plan whose keys are
    all integers never imports polars."""
    from importlib.metadata import PackageNotFoundError, version

    try:
        return ("polars", version("polars"))
    except PackageNotFoundError:
        return ("pandas", None)


def _hash_col_u64(col, backend: tuple[str, str | None]) -> np.ndarray:
    """Vectorized per-row uint64 hash of one Arrow column, no Python
    objects in the loop. Integer columns mix their values with the
    splitmix64 finalizer in NumPy. Other columns hash with polars'
    xxhash directly on the Arrow buffers (zero-copy; ~3× faster than
    pandas' object-path siphash on strings); ``backend`` is the
    driver's resolved (name, version) — see ``_resolve_hash_backend``.
    Falls back to pandas' fixed-key siphash when the driver had no
    polars."""
    if pa.types.is_integer(col.type):
        x = pc.fill_null(col, 0).to_numpy().astype(np.int64).view(np.uint64)
        with np.errstate(over="ignore"):
            x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
            x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return x ^ (x >> np.uint64(31))
    name, want_version = backend
    if name == "polars":
        try:
            import polars as pl
        except ImportError:
            raise RuntimeError(
                "bucketize hash backend mismatch: driver resolved polars "
                f"{want_version} but this worker has no polars — "
                "heterogeneous environments would silently split hash "
                "buckets; install polars on every node or force the "
                "pandas backend"
            ) from None
        if pl.__version__ != want_version:
            raise RuntimeError(
                "bucketize hash backend mismatch: driver polars "
                f"{want_version} vs worker polars {pl.__version__} — "
                "pl.hash is only stable within one version; a mixed-"
                "version cluster would silently split hash buckets"
            )
        return pl.from_arrow(col).hash(seed=0).to_numpy()
    return pd.util.hash_pandas_object(
        col.to_pandas(), index=False
    ).to_numpy().astype(np.uint64, copy=False)


def _stable_bucket(batch: pa.Table, key_cols: list[str],
                   num_buckets: int,
                   backend: tuple[str, str | None] | None = None) -> np.ndarray:
    """Process-stable hash buckets, fully vectorized (unlike the
    per-process-salted Python ``hash()``): one 64-bit column hash per
    key column, FNV-combined across columns in fixed order — the same
    construction as the content hash in ``state/checkpoint``."""
    if backend is None:
        backend = _resolve_hash_backend()
    acc = None
    with np.errstate(over="ignore"):
        for c in key_cols:
            h = _hash_col_u64(batch[c], backend)
            acc = h if acc is None else (acc ^ h) * _FNV_PRIME
    return (acc % np.uint64(num_buckets)).astype(np.int64)


def bucketize(ds: ray.data.Dataset, key_cols: list[str], num_buckets: int,
              col: str = "__bucket") -> ray.data.Dataset:
    """Append a stable hash-bucket column over one or more key columns.

    A fine key (50k q-gram blocks, one million query ids) cannot be a
    shuffle's partition key, and a call per key pays fixed overhead
    that dwarfs the math. ``hash(key) % num_buckets`` is an integer
    domain that ``bucket_map`` cuts into ranges at fixed boundaries:
    each key's rows stay together, and one UDF call handles a whole
    range of buckets, vectorized.

    Schema metadata is dropped: a pandas-format UDF upstream leaves
    ``pandas`` metadata that can name tensor columns by Ray's pandas
    tensor dtype, and a bucket UDF's ``to_pandas`` fails on any worker
    that has not imported that dtype yet."""
    backend = _resolve_hash_backend()  # driver-side; shipped in closure

    def fn(batch: pa.Table) -> pa.Table:
        return batch.replace_schema_metadata(None).append_column(
            col,
            pa.array(_stable_bucket(batch, key_cols, num_buckets, backend)),
        )

    return ds.map_batches(fn, batch_format="pyarrow")


def collect_side(ds: ray.data.Dataset, limit: int, message: str) -> pa.Table | None:
    """Every row of ``ds`` as one Arrow table on the driver, for a
    broadcast plan. Raises ``ValueError(message)`` as soon as more than
    ``limit`` rows have arrived, during the single driver pass and
    before the concat and broadcast could run the driver out of memory.
    None when ``ds`` yields no batch."""
    batches, n_rows = [], 0
    for b in ds.iter_batches(batch_format="pyarrow"):
        n_rows += b.num_rows
        if n_rows > limit:
            raise ValueError(message)
        batches.append(b)
    return pa.concat_tables(batches) if batches else None


def _warn_skipped_group(kind: str, key_name: str, key, m: int, cap) -> None:
    """Loud-by-default visibility for size-capped segment skips: a
    degenerate key (boilerplate shingle/band, a q-gram in every name)
    silently losing its O(m²) pairs is a correctness trap.
    Fires on the worker that hit the segment; Ray forwards worker
    warnings/stderr to the driver log."""
    warnings.warn(
        f"{kind}: {key_name}={key!r} holds {m} rows, over {cap}; its "
        "candidate pairs are SKIPPED. Raise the cap if these pairs "
        "matter (the banded dedup plans census oversized groups with "
        "stats_out=).",
        stacklevel=2,
    )


def _np_rows(col: pa.ChunkedArray) -> np.ndarray:
    """A column as NumPy rows; a fixed-size list becomes an [n, k]
    matrix (``flatten`` honours slice offsets, ``.values`` would not)."""
    arr = col.combine_chunks()
    if pa.types.is_fixed_size_list(arr.type):
        return arr.flatten().to_numpy().reshape(len(arr), arr.type.list_size)
    return arr.to_numpy(zero_copy_only=False)


def walk_segments(t: pa.Table, key_col: str, kernel, oversize=None,
                  kind: str = "", tag: tuple | None = None,
                  self_join: bool = True, chunk: int = 1 << 18):
    """The one segment walk, every pair-emitting plan's per-call step:
    sorts the bucket's (key, id) indices (no other column moves) and
    generates all its key segments' pairs in one NumPy pass — ``left`` ×
    ``right`` rows of ``tag = (col, left, right)`` in a segment holding
    ``right`` rows, else (with ``self_join``) rows i < j with distinct
    ids; with ``self_join`` a pair comes lower (key, id) row first.
    ``oversize(seg)`` gets the segments of ≥ 2 rows as arrays (``key``,
    unsigned if int; ``rows``; tag counts ``left``/``right``; ``pairs``)
    and returns per segment the cap it breaks or "" (those are skipped
    with ``_warn_skipped_group``). ``kernel(cols, a, b, key)`` filters
    ≤ ``chunk`` pairs per call (bigger segments split by row slabs):
    bucket row positions a/b, their segment keys, ``cols(name)`` a
    column as NumPy rows. It returns (a, b, *values) for the pairs it
    keeps; the walk concatenates them, or returns () when no segment
    is left to pair."""
    n = t.num_rows
    perm = pc.sort_indices(t, sort_keys=[(key_col, "ascending"),
                                         ("id", "ascending")]).to_numpy()
    st = t.select([key_col, "id"]).take(perm)
    key_new = run_starts(st, [key_col])
    starts = np.flatnonzero(key_new)
    ends = np.append(starts[1:], n)
    rows = ends - starts
    seg = np.repeat(np.arange(len(starts)), rows)  # per sorted row
    keys = _np_rows(st[key_col].take(pa.array(starts, type=pa.int64())))
    if keys.dtype.kind == "i":
        keys = keys.astype(np.int64).view(np.uint64)
    left, right = ((pc.fill_null(pc.equal(t[tag[0]], v), False).to_numpy()[perm] for v in tag[1:])
                   if tag else (np.ones(n, dtype=bool), np.zeros(n, dtype=bool)))
    n_left, n_right = (np.add.reduceat(x.astype(np.int64), starts) if n else rows
                       for x in (left, right))
    cross = n_right > 0
    pairs = np.where(cross, n_left * n_right, rows * (rows - 1) // 2 * self_join)
    live = rows >= 2
    if oversize is not None and live.any():
        idx = np.flatnonzero(live)
        caps = np.broadcast_to(oversize({
            "key": keys[idx], "rows": rows[idx], "left": n_left[idx],
            "right": n_right[idx], "pairs": pairs[idx]}), idx.shape)
        bad = np.flatnonzero(caps != "")
        for j in bad:
            k = keys[idx[j]]
            _warn_skipped_group(kind, key_col, int(k) if keys.dtype.kind == "u"
                                else k, int(rows[idx[j]]), str(caps[j]))
        live[idx[bad]] = False
    if not live.any():
        return ()
    # per sorted row: its pair count, and where its partners start in
    # ``order`` (the sorted rows, each cross segment's right rows moved
    # to its front); a self row pairs with the rows after its id run
    id_new = key_new | run_starts(st, ["id"])
    off = np.append(np.flatnonzero(id_new)[1:], n)[np.cumsum(id_new) - 1]
    cnt = np.where(live[seg] & ~cross[seg] & self_join, ends[seg] - off, 0)
    x = live[seg] & cross[seg] & left
    cnt[x], off[x] = n_right[seg[x]], starts[seg[x]]
    order = np.argsort(seg * 2 + ~right, kind="stable") if tag else np.arange(n)
    cum = np.cumsum(cnt)
    base = off - (cum - cnt)  # partner of pair g of row r: order[base[r] + g]
    cols = functools.cache(lambda name: _np_rows(t[name]))
    parts, r0, done = [], 0, 0
    while r0 < n:
        r1 = min(n, max(r0 + 1, int(np.searchsorted(cum, done + chunk, "right"))))
        a = np.repeat(np.arange(r0, r1), cnt[r0:r1])
        b = order[np.repeat(base[r0:r1], cnt[r0:r1]) + np.arange(done, done + len(a))]
        if self_join:
            a, b = np.minimum(a, b), np.maximum(a, b)
        parts.append(kernel(cols, perm[a], perm[b], keys[seg[a]]))
        r0, done = r1, done + len(a)
    return tuple(np.concatenate(x) for x in zip(*parts))


def bucket_ranges(num_buckets: int) -> int:
    """How many ranges ``bucket_map`` cuts ``[0, num_buckets)`` into:
    min(num_buckets, cluster CPUs), one reduce task each."""
    return min(num_buckets, int(ray.cluster_resources().get("CPU", 1)) or 1)


def bucket_map(ds: ray.data.Dataset, key_cols: list[str], fn,
               num_buckets: int) -> ray.data.Dataset:
    """``fn`` over whole hash buckets of ``key_cols``: ``bucketize``, one
    sort on ``__bucket`` at fixed boundaries that split
    ``[0, num_buckets)`` into w = min(num_buckets, cluster CPUs) ranges,
    and one pyarrow ``fn(table)`` call per non-empty range. A bucket is
    never split across calls (rows at a boundary go to the upper range),
    so each key's rows reach ``fn`` in one call, beside other keys'.
    ``fn`` sees the rows without their ``__bucket`` column.

    Fixed boundaries need no sampling pass, and the sort's reduce width
    is w whatever the input's block count: a 1-block input still gets
    one task per CPU, and a one-core job one call for all buckets.
    ``sort(boundaries=[])`` would sample, so one range is the boundary
    ``[0]`` with an empty lower range: empty ranges never reach ``fn``,
    and a schema-less empty block ahead of the data draws no Ray
    schema warning (one behind it would)."""
    w = bucket_ranges(num_buckets)
    bounds = [num_buckets * i // w for i in range(1, w)] or [0]
    return bucketize(ds, key_cols, num_buckets).sort(
        "__bucket", boundaries=bounds).map_batches(
        lambda t: fn(t.drop_columns(["__bucket"])),
        batch_format="pyarrow", batch_size=None)


def segment_pairs(keyed: ray.data.Dataset, num_buckets: int, *,
                  ends: dict[str, tuple[str, str]],
                  values: dict[str, pa.DataType], **walk) -> ray.data.Dataset:
    """Pairs from exploded (key, id, payload…) rows: one pyarrow
    ``walk_segments(**walk)`` call per range of hash buckets of
    ``walk["key_col"]`` (``bucket_map``). Per ``ends`` entry
    ``col: (a_name, b_name)`` the output carries column ``col`` of row a
    and of row b (Arrow ``take``, so types survive), then the kernel's
    ``values`` columns, typed."""

    def pairs(t: pa.Table) -> pa.Table:
        a, b, *vals = walk_segments(t, **walk) or ([], [], *([] for _ in values))
        a, b = pa.array(a, type=pa.int64()), pa.array(b, type=pa.int64())
        out = {names[0]: t[c].take(a) for c, names in ends.items()}
        out.update({names[1]: t[c].take(b) for c, names in ends.items()})
        out.update({name: pa.array(v, type=typ)
                    for (name, typ), v in zip(values.items(), vals)})
        return pa.table(out)

    return bucket_map(keyed, [walk["key_col"]], pairs, num_buckets)


def cogroup(left: ray.data.Dataset, right: ray.data.Dataset, on, fn,
            num_buckets: int, right_on=None) -> ray.data.Dataset:
    """``fn(left_slice, right_slice)`` over whole hash buckets of the key
    ``on`` (``right_on`` on the right side): the one two-sided keyed
    exchange, for joins, anti joins and as-of lookups alike. Each side
    is tagged and null-padded to one union schema, its keys cast to the
    left key types so equal keys share a bucket, and one ``bucket_map``
    runs over the union. Per non-empty range of buckets, ``fn`` gets
    each side's rows under that side's own column names and types (an
    empty table when the range holds none) and returns one table.

    The padding needs both schemas on the driver: free on a
    materialized Dataset, one ``limit(1)`` execution on a lazy one, so
    a caller materializes a side whose plan is expensive to start."""
    on, right_on = list(on), list(right_on or on)
    sides = [(pa.schema(list(zip(s.names, s.types))), ks, f"__{c}:")
             for s, ks, c in ((left.schema(), on, "l"), (right.schema(), right_on, "r"))]
    keys = [f"__k{i}" for i in range(len(on))]
    key_types = [sides[0][0].field(k).type for k in on]
    payload = [(pre + f.name, f.type) for sch, ks, pre in sides for f in sch if f.name not in ks]
    union = pa.schema(list(zip(keys, key_types)) + [("__side", pa.int8())] + payload)

    def tag(side: int):
        _, ks, pre = sides[side]

        def pad(b: pa.Table) -> pa.Table:
            n = b.num_rows
            if not n:  # an empty block may arrive schema-less
                return union.empty_table()
            return pa.Table.from_arrays(
                [b[k].cast(typ) for k, typ in zip(ks, key_types)]
                + [pa.array(np.full(n, side, dtype=np.int8))]
                + [b[name[len(pre):]] if name.startswith(pre) else pa.nulls(n, typ)
                   for name, typ in payload], schema=union)

        return pad

    def call(t: pa.Table) -> pa.Table:
        is_left = pc.equal(t["__side"], 0)
        slices = []
        for (sch, ks, pre), mask in zip(sides, (is_left, pc.invert(is_left))):
            part = t.select([keys[ks.index(f.name)] if f.name in ks else pre + f.name
                             for f in sch]).filter(mask)
            slices.append(pa.Table.from_arrays(
                [c.cast(f.type) for c, f in zip(part.columns, sch)], schema=sch))
        return fn(*slices)

    return bucket_map(
        left.map_batches(tag(0), batch_format="pyarrow").union(
            right.map_batches(tag(1), batch_format="pyarrow")),
        keys, call, num_buckets)


def inner_join(on, right_on=None):
    """``cogroup``'s inner-join fn, and a broadcast join's kernel:
    pyarrow ``Table.join`` of a left and a right table, as in Ray's hash
    join (null keys match nothing, duplicate keys give every matching
    pair, the right key columns are dropped), with the right keys cast
    to the left key types first."""
    on, right_on = list(on), list(right_on or on)

    def fn(left: pa.Table, right: pa.Table) -> pa.Table:
        for a, b in zip(on, right_on):
            right = right.set_column(right.schema.get_field_index(b), b,
                                     right[b].cast(left.schema.field(a).type))
        return pa.Table.join(left, right, keys=on, right_keys=right_on, join_type="inner")

    return fn
