"""The segment walk, its bucket carrier and the aligned-pair shortlist
against naive references: a per-segment Python walk, a per-key
aggregate, and exact distances on every pair."""

from __future__ import annotations

import dataclasses
import functools
import uuid
import warnings

import numpy as np
import pyarrow as pa
import pytest
import ray

from deezymatch_ray.config import DEFAULT_CONFIG
from deezymatch_ray.functions.vectors import pair_dist, pair_shortlist, select_topk
from deezymatch_ray.stages.blocking import bucket_map, walk_segments
from deezymatch_ray.stages.ranking import _TILE, score_block_bucket

CAP = 9  # segments of more rows are skipped in the walk tests


def naive_walk(t: pa.Table, key_col: str, tag=None, self_join=True, skip=None):
    """The per-segment walk, one Python loop per segment: sorted (a, b,
    key) triples of bucket row positions, and the keys of the segments
    ``skip(key, rows)`` marked."""
    rows = t.to_pylist()
    order = sorted(range(len(rows)), key=lambda i: (rows[i][key_col], rows[i]["id"]))
    segs: dict = {}
    for i in order:
        segs.setdefault(rows[i][key_col], []).append(i)
    out, skipped = [], []
    for key, seg in segs.items():
        if len(seg) < 2:
            continue
        if skip is not None and skip(key, [rows[i] for i in seg]):
            skipped.append(key)
            continue
        if tag is not None and any(rows[i][tag[0]] == tag[2] for i in seg):
            left = [i for i in seg if rows[i][tag[0]] == tag[1]]
            right = [i for i in seg if rows[i][tag[0]] == tag[2]]
            pairs = [(a, b) for a in left for b in right]
            if self_join:  # unordered: the lower (key, id) row first
                pos = {i: p for p, i in enumerate(seg)}
                pairs = [(a, b) if pos[a] < pos[b] else (b, a) for a, b in pairs]
        elif self_join:
            pairs = [(seg[x], seg[y]) for x in range(len(seg))
                     for y in range(x + 1, len(seg))
                     if rows[seg[x]]["id"] != rows[seg[y]]["id"]]
        else:
            pairs = []
        out += [(a, b, key) for a, b in pairs]
    return sorted(out), skipped


def _bucket(rng, n, key_kind, tagged):
    """A shuffled bucket of n rows over a handful of keys, with duplicate
    ids (same id in one segment and across segments), and a tag column."""
    n_keys = int(rng.integers(1, 8))
    if key_kind == "int":
        pool = rng.integers(-2**63, 2**63 - 1, size=n_keys, dtype=np.int64)
        keys = pa.array(pool[rng.integers(0, n_keys, n)])
    else:
        pool = [f"k{j}" if j % 3 else f"k{j}{_TILE}0-{j}" for j in range(n_keys)]
        keys = pa.array([pool[i] for i in rng.integers(0, n_keys, n)])
    cols = {"key": keys, "id": pa.array(rng.integers(0, max(2, n // 2), n))}
    if tagged == "role":
        cols["role"] = pa.array(rng.choice(["q", "c"], n, p=[0.6, 0.4]))
    elif tagged == "side":
        cols["side"] = pa.array(rng.integers(0, 2, n).astype(np.int8))
    return pa.table(cols)


@pytest.mark.parametrize("case", [
    ("int", None, True), ("str", None, True), ("str", "role", True),
    ("str", "role", False), ("int", "side", False),
], ids=["self-int", "self-str", "tiles", "qxc", "new-x-corpus"])
def test_walk_matches_naive_walk(case):
    """Every pair, key and skip of the vectorized walk equals the naive
    walk's on random buckets, with chunks small enough that segments
    split into row slabs; each skipped segment warns once."""
    key_kind, tagged, self_join = case
    tag = {"role": ("role", "q", "c"), "side": ("side", 1, 0)}.get(tagged)
    rng = np.random.default_rng(11)
    for trial in range(40):
        t = _bucket(rng, int(rng.integers(0, 40)), key_kind, tagged)

        def kernel(cols, a, b, key):
            assert (cols("id") == t["id"].to_numpy()).all()
            return a, b, key

        def oversize(seg):
            return np.where(seg["rows"] > CAP, f"cap={CAP}", "")

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            a, b, key = walk_segments(
                t, "key", kernel, oversize, "walk", tag, self_join,
                chunk=int(rng.integers(1, 30))) or (np.empty(0, dtype=np.int64),) * 3
        if key_kind == "int":
            key = key.view(np.int64)
        want, skipped = naive_walk(t, "key", tag, self_join,
                                   lambda key, rows: len(rows) > CAP)
        assert sorted(zip(a.tolist(), b.tolist(), key.tolist())) == want
        assert len(caught) == len(skipped)
        assert all(f"cap={CAP}" in str(w.message) for w in caught)


def _ranking_bucket(rng, n, self_join, dim=6):
    """Roles q/c at random; in a self-join bucket only salted tiles hold
    c rows, as ``salt_hot_blocks`` emits them."""
    ids = rng.integers(0, n, n)
    texts = [None if rng.random() < 0.1 else "x" * int(rng.integers(1, 6))
             for _ in range(n)]
    emb = rng.standard_normal((n, dim)).astype(np.float32)
    emb[rng.random(n) < 0.2] = emb[0]  # byte-identical embeddings tie
    keys = [f"b{j}" if j % 4 or not self_join else f"b{j}{_TILE}0-1"
            for j in rng.integers(0, 6, n)]
    roles = rng.choice(["q", "c"], n)
    if self_join:
        roles = np.where([_TILE in k for k in keys], roles, "q")
    return pa.table({
        "id": pa.array(ids), "orig": pa.array([f"s{i}" for i in ids]),
        "norm_text": pa.array(texts, type=pa.string()),
        "emb": pa.FixedSizeListArray.from_arrays(pa.array(emb.reshape(-1)), dim),
        "emb_valid": pa.array(rng.random(n) > 0.1),
        "block_key": pa.array(keys),
        "role": pa.array(roles),
    })


def naive_block_bucket(t, cfg, self_join):
    """Ranking's bucket step the slow way: the naive walk, the validity
    and length filters, exact distances on every pair, then the
    per-(block, query) selection."""
    r = cfg.ranking
    pairs, skipped = naive_walk(t, "block_key", ("role", "q", "c"), self_join,
                                functools.partial(_block_over_caps, cfg, self_join))
    valid = t["emb_valid"].to_pylist()
    texts = t["norm_text"].to_pylist()
    keep = [(a, b) for a, b, _ in pairs if valid[a] and valid[b] and (
        r.length_diff is None or (texts[a] is not None and texts[b] is not None
                                  and abs(len(texts[a]) - len(texts[b])) <= r.length_diff))]
    q = np.array([a for a, _ in keep], dtype=np.int64)
    c = np.array([b for _, b in keep], dtype=np.int64)
    emb = t["emb"].combine_chunks().flatten().to_numpy().reshape(t.num_rows, -1)
    fd, cos = pair_dist(emb, emb, q, c)
    ids, orig = t["id"].to_numpy(), np.array(t["orig"].to_pylist(), dtype=object)
    out = pa.table({
        "__qrow": q, "query_id": ids[q], "query": orig[q].tolist(),
        "candidate_id": ids[c], "candidate": orig[c].tolist(),
        "faiss_dist": fd.astype(np.float32),
        "cosine_dist": (1.0 - cos).astype(np.float32),
    })
    return select_topk(out, {"faiss": "faiss_dist", "cosine": "cosine_dist"}[
        r.ranking_metric], r.num_candidates, group=("__qrow",),
        threshold=r.selection_threshold), skipped


def _block_over_caps(cfg, self_join, key, rows):
    """Ranking's block caps, per segment: salted tiles are exempt; a
    q × c segment counts its larger side and q·c pairs, a self-join
    block its rows and their unordered pairs."""
    if _TILE in key:
        return False
    nq = sum(r["role"] == "q" for r in rows)
    nc = len(rows) - nq
    if nc:
        big, pairs = max(nq, nc), nq * nc
    else:
        big, pairs = len(rows), len(rows) * (len(rows) - 1) // 2 if self_join else 0
    caps = cfg.blocking
    return bool(pairs and big > caps.max_block_size) or pairs > caps.max_pairs_per_block


@pytest.mark.parametrize("metric", ["faiss", "cosine"])
@pytest.mark.parametrize("self_join", [True, False], ids=["self", "qxc"])
@pytest.mark.parametrize("length_diff", [None, 0, 1, 2])
def test_block_bucket_matches_naive_reference(metric, self_join, length_diff):
    """``score_block_bucket`` (shortlist, exact distances on the
    survivors, late gather) returns the naive reference's rows with
    every value bit-equal, with null texts, duplicate ids, salted tiles
    and oversized blocks (one warning each) in the bucket."""
    rng = np.random.default_rng(5 if self_join else 6)
    for trial in range(6):
        t = _ranking_bucket(rng, int(rng.integers(2, 60)), self_join)
        t_sel = rng.choice([0.5, 4.0, 12.0]) if metric == "faiss" else rng.choice([0.3, 0.9])
        cfg = DEFAULT_CONFIG.replace(
            ranking=dataclasses.replace(
                DEFAULT_CONFIG.ranking, ranking_metric=metric,
                selection_threshold=float(t_sel), num_candidates=3,
                length_diff=length_diff, calc_cosine=True),
            blocking=dataclasses.replace(DEFAULT_CONFIG.blocking, max_block_size=8))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = score_block_bucket(t, cfg=cfg, self_join=self_join)
        want, skipped = naive_block_bucket(t, cfg, self_join)
        order = [("query_id", "ascending"), ("candidate_id", "ascending"),
                 ("faiss_dist", "ascending")]
        got = got.drop_columns(["pred_score"]).sort_by(order)
        want = want.drop_columns(["__qrow", "rank"]).sort_by(order)
        assert got.num_rows == want.num_rows
        for col in got.column_names:
            g, w = got[col].to_numpy(zero_copy_only=False), want[col].to_numpy(zero_copy_only=False)
            if g.dtype.kind == "f":
                assert np.array_equal(g.view(np.uint32), w.view(np.uint32)), col
            else:
                assert g.tolist() == w.tolist(), col
        assert len(caught) == len(skipped)


def _pairs_at_threshold(rng, d, n=400):
    """Float32 vector pairs: random, near-duplicate, and byte-identical."""
    x = rng.standard_normal((2 * n, d)).astype(np.float32) * rng.choice(
        [1e-3, 1.0, 1e3], (2 * n, 1)).astype(np.float32)
    x[1::2] = x[0::2] + (rng.standard_normal((n, d)) * rng.choice(
        [0.0, 1e-6, 1e-2], (n, 1))).astype(np.float32) * x[0::2]
    return x, np.arange(0, 2 * n, 2), np.arange(1, 2 * n, 2)


@pytest.mark.parametrize("d", [1, 7, 120])
def test_shortlist_keeps_pairs_at_the_threshold(d):
    """A pair whose exact value lies at the threshold, or within 1 ulp of
    it on the passing side, or whose float32-stored value passes, is
    never dropped — for squared L2 (≤) and cosine similarity (≥)."""
    rng = np.random.default_rng(d)
    x, ix, iy = _pairs_at_threshold(rng, d)
    l2, cos = pair_dist(x, x, ix, iy)
    for i in range(len(ix)):
        one = (ix[i : i + 1], iy[i : i + 1])
        for thr in (l2[i], np.nextafter(l2[i], np.inf), float(np.float32(l2[i]))):
            assert pair_shortlist(x, *one, "l2", thr)[0], (i, thr)
        dist = 1.0 - cos[i]  # the cosine metric's stored distance
        for thr in (cos[i], np.nextafter(cos[i], -np.inf),
                    1.0 - float(np.float32(dist)), 1.0 - np.nextafter(dist, np.inf)):
            assert pair_shortlist(x, *one, "cos", thr)[0], (i, thr)
    # and it does drop: unrelated pairs clearly beyond the threshold go
    x = rng.standard_normal((2 * len(ix), d)).astype(np.float32)
    l2, cos = pair_dist(x, x, ix, iy)
    for by, v, thr, beyond in (("l2", l2, np.median(l2), l2 > 1.01 * np.median(l2)),
                               ("cos", cos, np.median(cos), cos < np.median(cos) - 0.01)):
        keep = pair_shortlist(x, ix, iy, by, thr)
        assert not keep[beyond].any(), by
        assert beyond.any() or d == 1  # one column: every cosine is ±1


@pytest.mark.parametrize("num_buckets", [16, 1], ids=["ranges", "one-range"])
def test_bucket_map_hands_whole_buckets_to_few_calls(num_buckets):
    """On a 12-block input of 400 keys, every key's rows reach ``fn`` in
    one call, ``fn`` runs at most w = min(buckets, CPUs) times and never
    on an empty or column-less table, and the output equals a per-key
    reference. 16 buckets over the test cluster's CPUs cut several ranges;
    1 bucket is the one-range plan, whose sort leaves an empty range."""
    rng = np.random.default_rng(num_buckets)
    n = 6000
    tbl = pa.table({"k": pa.array([f"k{x}" for x in rng.integers(0, 400, n)]),
                    "v": pa.array(rng.integers(0, 1000, n))})
    ds = ray.data.from_arrow([tbl.slice(i, 500) for i in range(0, n, 500)])
    w = min(num_buckets, int(ray.cluster_resources()["CPU"]))

    def fn(t: pa.Table) -> pa.Table:
        assert t.num_rows > 0 and t.column_names == ["k", "v"], t.schema
        g = t.group_by("k").aggregate([("v", "count"), ("v", "sum")])
        return g.append_column("call", pa.array([uuid.uuid4().hex] * g.num_rows))

    got = bucket_map(ds, ["k"], fn, num_buckets).to_pandas()
    assert got["k"].is_unique  # a key split over calls would repeat
    assert 1 <= got["call"].nunique() <= w
    if num_buckets > 1:
        assert w > 1 and got["call"].nunique() > 1
    want = tbl.group_by("k").aggregate([("v", "count"), ("v", "sum")]).to_pandas()
    cols = ["k", "v_count", "v_sum"]
    assert (got[cols].sort_values("k").reset_index(drop=True)
            .equals(want[cols].sort_values("k").reset_index(drop=True)))
