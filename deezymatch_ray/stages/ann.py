"""Similarity search over an embedding column (list<float>).

Baseline: exact brute-force cosine top-k — the query matrix is small
and broadcast once (``ray.put``); the CANDIDATE side streams through
``map_batches``, each block emitting its local per-query top-k, and one
pyarrow ``select_topk`` call per range of query-id hash buckets merges the
local top-k's into the global one. This is the map-combine-reduce shape
that scales to any candidate count: per-candidate work is one
[B, D] × [D, Q] gram shortlist (``functions.vectors.dense_pairs``) and
the shuffle carries only O(n_blocks · Q · k) rows. Every plan scores a
pair with ``pair_dist``, so a pair's similarity, and with it the
(sim desc, candidate_id asc) order, does not depend on the plan or the
block a candidate arrives in.

Scale path: ``ivf_topk`` — k-means-style coarse quantizer (seeded,
trained on a sample) assigns every vector to a centroid bucket;
queries probe only the ``nprobe`` nearest buckets. Same output schema,
approximate recall, shuffle bounded by bucket sizes.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data

from deezymatch_ray.config import DEFAULT_CONFIG
from deezymatch_ray.functions.vectors import dense_pairs, pair_dist, select_topk, to_matrix
from deezymatch_ray.model.chargru import row_matmul
from deezymatch_ray.stages.blocking import _np_rows, bucket_map


def _topk(q_ids, c_ids, sim, k: int) -> pa.Table:
    """(query_id, candidate_id, sim, rank) rows cut to each query's top-k
    by the pinned (sim desc, candidate_id asc) order: a block's local
    top-k, and (``_merge_topk``) the global one."""
    return select_topk(pa.table({"query_id": q_ids, "candidate_id": c_ids, "sim": sim}),
                       "sim", k, descending=True)


def _merge_topk(local: ray.data.Dataset, k: int) -> ray.data.Dataset:
    """The global per-query top-k of the local ones, shared by every ANN
    plan: a pair may surface from several blocks, buckets or tables
    with one similarity; one ``_topk`` call per ``bucket_map`` range of
    query-id hash buckets."""
    def fn(t: pa.Table) -> pa.Table:
        return _topk(t["query_id"], t["candidate_id"], t["sim"], k).drop_columns(["sim"])

    return bucket_map(local, ["query_id"], fn,
                      DEFAULT_CONFIG.execution.shuffle_partitions)


def brute_force_topk(
    candidates: ray.data.Dataset,
    query_ids: np.ndarray,
    query_mat: np.ndarray,
    k: int = 5,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
) -> ray.data.Dataset:
    """Exact cosine top-k: (query_id, candidate_id, rank) per query.

    Tie-break pinned to ascending candidate id at equal similarity.
    """
    payload = ray.put((query_ids, query_mat.astype(np.float64)))

    def local_topk(batch: pa.Table) -> pa.Table:
        q_ids, qm = ray.get(payload)
        c_ids = _np_rows(batch[id_col])
        c = to_matrix(batch[vec_col])
        qi, ci, _, sim = dense_pairs(qm, c, by="cos", k=k)
        return _topk(q_ids[qi], c_ids[ci], sim, k)

    return _merge_topk(candidates.map_batches(local_topk, batch_format="pyarrow"), k)


def load_queries(
    ds: ray.data.Dataset,
    n_queries: int,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
) -> tuple[np.ndarray, np.ndarray]:
    """Take the first ``n_queries`` by id as the (small) query side."""
    import pyarrow.compute as pc

    tbl = pa.concat_tables(
        ds.filter(expr=f"{id_col} < {n_queries}")
        .select_columns([id_col, vec_col])
        .iter_batches(batch_format="pyarrow")
    )
    order = pc.sort_indices(tbl[id_col])
    tbl = tbl.take(order)
    return _np_rows(tbl[id_col]), to_matrix(tbl[vec_col])


def ivf_topk(
    candidates: ray.data.Dataset,
    query_ids: np.ndarray,
    query_mat: np.ndarray,
    k: int = 5,
    n_centroids: int = 16,
    nprobe: int = 4,
    sample_size: int = 4096,
    seed: int = 7,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
) -> ray.data.Dataset:
    """IVF-style approximate top-k: coarse centroids from a seeded
    sample (Lloyd iterations on the driver — the quantizer is tiny),
    candidates bucketed by nearest centroid inside ``map_batches``,
    queries probe their ``nprobe`` nearest buckets; exact cosine within
    probed buckets, merged per query. Output (query_id, candidate_id,
    rank) like the exact path."""
    sample = candidates.limit(sample_size)
    smat = to_matrix(
        pa.concat_tables(sample.select_columns([vec_col]).iter_batches(batch_format="pyarrow"))[vec_col]
    )
    rng = np.random.default_rng(seed)
    cent = smat[rng.choice(len(smat), size=min(n_centroids, len(smat)), replace=False)]
    for _ in range(10):  # Lloyd
        d = ((smat[:, None, :] - cent[None, :, :]) ** 2).sum(axis=2)
        assign = d.argmin(axis=1)
        for c in range(len(cent)):
            m = assign == c
            if m.any():
                cent[c] = smat[m].mean(axis=0)
    cent_ref = ray.put(cent)

    q = query_mat.astype(np.float64)
    qd = ((q[:, None, :] - cent[None, :, :]) ** 2).sum(axis=2)
    probe = np.argsort(qd, axis=1)[:, :nprobe]  # [Q, nprobe]
    # queries grouped by probed bucket
    bucket_queries: dict[int, list[int]] = {}
    for qi in range(len(query_ids)):
        for b in probe[qi]:
            bucket_queries.setdefault(int(b), []).append(qi)
    payload = ray.put((query_ids, q, bucket_queries))

    def local_topk(batch: pa.Table) -> pa.Table:
        centroids = ray.get(cent_ref)
        q_ids, qm, bq = ray.get(payload)
        c_ids = _np_rows(batch[id_col])
        c = to_matrix(batch[vec_col])
        qs, cs, sims = [np.empty(0, np.int64)], [np.empty(0, np.int64)], [np.empty(0)]
        if len(c_ids):
            d = ((c[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
            cb = d.argmin(axis=1)
            for b, qidxs in bq.items():
                sel = np.flatnonzero(cb == b)
                qi, ci, _, sim = dense_pairs(qm[qidxs], c[sel], by="cos", k=k)
                qs.append(np.asarray(qidxs)[qi])
                cs.append(sel[ci])
                sims.append(sim)
        qi, ci = np.concatenate(qs), np.concatenate(cs)
        return _topk(q_ids[qi], c_ids[ci], np.concatenate(sims), k)

    return _merge_topk(candidates.map_batches(local_topk, batch_format="pyarrow"), k)


def lsh_signatures(mat: np.ndarray, planes: np.ndarray, n_bits: int) -> np.ndarray:
    """[N, n_tables] bucket ids: per table, the sign pattern of its
    ``n_bits`` rows of ``planes``, projected through ``row_matmul`` so
    a row's signature does not depend on its batch."""
    bits = row_matmul(mat, planes) > 0
    return bits.reshape(len(mat), len(planes) // n_bits, n_bits) @ (
        1 << np.arange(n_bits, dtype=np.int64))


def lsh_topk(
    candidates: ray.data.Dataset,
    query_ids: np.ndarray,
    query_mat: np.ndarray,
    k: int = 5,
    n_bits: int = 8,
    n_tables: int = 8,
    seed: int = 7,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
) -> ray.data.Dataset:
    """Random-hyperplane LSH top-k (cosine): the second scale path next
    to IVF. Each of ``n_tables`` tables hashes a vector to the sign
    pattern of ``n_bits`` seeded Gaussian projections; a candidate is
    scored against a query only when they collide in SOME table.

    P[bit agrees] = 1 − θ/π per hyperplane, so per-table collision is
    (1−θ/π)^n_bits and recall ≈ 1 − (1 − (1−θ/π)^n_bits)^n_tables —
    tunable toward 1 for near neighbors with more tables. Same
    map-combine-reduce shape and output schema as the exact path;
    per-candidate extra cost is one [B, n_tables·n_bits] matmul, and
    only colliding (candidate, query) pairs are scored.
    """
    rng = np.random.default_rng(seed)
    d = query_mat.shape[1]
    planes = rng.standard_normal((n_tables * n_bits, d))
    q = query_mat.astype(np.float64)
    qsig = lsh_signatures(q, planes, n_bits)  # [Q, n_tables]
    # per-table sorted query buckets: collision matching in the workers
    # is then two searchsorted calls + index arithmetic per table — no
    # per-candidate Python loop (round-3 fix: the dict/set walk was
    # O(B × n_tables) Python per batch)
    qs_sorted = [np.sort(qsig[:, t]) for t in range(n_tables)]
    qorder = [np.argsort(qsig[:, t], kind="stable") for t in range(n_tables)]
    payload = ray.put((query_ids, q, qs_sorted, qorder))

    def local_topk(batch: pa.Table) -> pa.Table:
        q_ids, qm, qss, qoo = ray.get(payload)
        c_ids = _np_rows(batch[id_col])
        c = to_matrix(batch[vec_col])
        B = len(c_ids)
        pair_keys = [np.empty(0, np.int64)]
        if B:
            csig = lsh_signatures(c, planes, n_bits)  # [B, n_tables]
            for t in range(n_tables):
                qs, qo = qss[t], qoo[t]
                cb = csig[:, t]
                lo = np.searchsorted(qs, cb, side="left")
                hi = np.searchsorted(qs, cb, side="right")
                counts = hi - lo
                total = int(counts.sum())
                # expand each candidate's [lo, hi) query-run into flat
                # (query, candidate) pairs, all index arithmetic
                ci_rep = np.repeat(np.arange(B), counts)
                starts = np.repeat(lo, counts)
                offs = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
                qi_rep = qo[starts + offs]
                pair_keys.append(qi_rep.astype(np.int64) * B + ci_rep)
        # unique = dedup across tables
        keys = np.unique(np.concatenate(pair_keys))
        qi, ci = keys // max(B, 1), keys % max(B, 1)
        _, sim = pair_dist(qm, c, qi, ci, l2=False)
        return _topk(q_ids[qi], c_ids[ci], sim, k)

    return _merge_topk(candidates.map_batches(local_topk, batch_format="pyarrow"), k)
