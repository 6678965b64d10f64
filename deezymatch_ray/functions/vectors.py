"""Vector distances and per-query top-k selection.

The one place the engine turns embeddings into squared-L2 and cosine
values. Contract: a pair's values depend only on its two vectors — not
on which other rows share its batch, block or matmul — so a query
returns the same rows under every physical plan and batch layout.
Identical vectors give a squared L2 of exactly 0 and a cosine
similarity of exactly 1, and ties go by ``candidate_id``.

- ``pair_dist`` computes aligned row pairs in the difference form
  ``Σ (a − b)²`` and a per-pair dot/norm cosine, each row reduced in a
  fixed order (NumPy's own reductions pick their summation order from
  the array's shape).
- ``pair_shortlist`` is the blocked paths' aligned-pair shortlist: a
  float32 value per pair, kept within a proven rounding bound of the
  threshold; only the survivors pay for ``pair_dist``.
- ``dense_pairs`` serves the Q × C paths: the gram matmul
  ``‖q‖² + ‖c‖² − 2·q·c`` (or ``q·c / ‖q‖‖c‖``) is only a shortlist,
  kept within its own error bound of the threshold or of the k-th
  value, and the survivors are recomputed with ``pair_dist``.
- ``select_topk`` is the per-query selector: threshold, one row per
  candidate, optional dedup on the candidate string, a stable
  (metric, ``candidate_id``) order, head(k) and rank.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

CHUNK = 4096  # aligned pairs per pair_dist step
_GRAM_CELLS = 1 << 21  # q rows × c rows per gram block (16 MB float64)
_EPS = np.finfo(np.float64).eps
# relative slack on the shortlist bounds: callers may compare float32
# copies of the values, which round by up to 2^-24 relative
_F32_SLACK = 2.0 ** -20


def to_matrix(col, dtype=np.float64, on_null: str = "raise") -> np.ndarray:
    """Vector column → [n, d] matrix of ``dtype``. ``fixed_size_list``
    (and uniform-length ``list``) columns flatten and reshape without
    per-row Python (zero-copy when ``dtype`` matches); ragged or
    null-bearing lists take the per-row path at the same precision.

    ``on_null``: "raise" (default) rejects null rows loudly — a NaN
    row would rank as a match and poison IVF centroid training; "nan"
    returns NaN rows for callers that mask them explicitly."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    if n == 0:
        return np.empty((0, 0), dtype=dtype)
    t = col.type
    if col.null_count == 0:
        d = 0
        if pa.types.is_fixed_size_list(t):
            d = t.list_size
        elif pa.types.is_list(t) or pa.types.is_large_list(t):
            lens = col.value_lengths().to_numpy(zero_copy_only=False)
            if (lens == lens[0]).all():
                d = int(lens[0])
        if d:
            flat = col.flatten().to_numpy(zero_copy_only=False)
            return flat.reshape(n, d).astype(dtype, copy=False)
    if col.null_count and on_null == "raise":
        raise ValueError(
            f"embedding column has {col.null_count} null rows — a NaN "
            "vector would silently rank as a match; filter null "
            "embeddings upstream (or pass on_null='nan' and mask)"
        )
    vals = col.to_pylist()
    dim = next((len(v) for v in vals if v is not None), 0)
    out = np.full((n, dim), np.nan, dtype=dtype)
    for i, v in enumerate(vals):
        if v is not None:
            out[i, :] = np.asarray(v, dtype=dtype)  # raises on ragged rows
    return out


def _row_sum(x: np.ndarray) -> np.ndarray:
    """Σ of each row of ``x`` by a pairwise tree over its columns whose
    shape depends on the width alone: a row's sum is a function of that
    row, in a handful of elementwise adds."""
    while x.shape[1] > 1:
        h = x.shape[1] // 2
        y = x[:, :h] + x[:, h : 2 * h]
        x = np.concatenate([y, x[:, 2 * h :]], axis=1) if x.shape[1] % 2 else y
    return x[:, 0]


def pair_dist(x: np.ndarray, y: np.ndarray, ix: np.ndarray, iy: np.ndarray,
              l2: bool = True, cos: bool = True):
    """Squared L2 and cosine similarity of the row pairs (x[ix[i]],
    y[iy[i]]) in float64 (float32 rows widen exactly), ``CHUNK`` pairs
    at a time: (l2 values or None, cosine values or None), symmetric in
    the two vectors."""
    x, y = np.asarray(x, np.float64), np.asarray(y, np.float64)
    l2s, coss = [np.empty(0)], [np.empty(0)]
    for s in range(0, len(ix), CHUNK):
        a, b = x[ix[s : s + CHUNK]], y[iy[s : s + CHUNK]]
        if l2:
            d = a - b
            l2s.append(_row_sum(d * d))
        if cos:
            # sqrt(‖a‖²·‖b‖²) is exactly ‖a‖² when a == b, so a vector's
            # similarity with itself is exactly 1
            nrm = np.sqrt(_row_sum(a * a) * _row_sum(b * b))
            coss.append(_row_sum(a * b) / np.maximum(nrm, 1e-12))
    return (np.concatenate(l2s) if l2 else None,
            np.concatenate(coss) if cos else None)


def pair_shortlist(x: np.ndarray, ix: np.ndarray, iy: np.ndarray,
                   by: str = "l2", threshold: float = 0.0) -> np.ndarray:
    """Mask of the aligned pairs (x[ix[i]], x[iy[i]]) whose ``pair_dist``
    value can pass ``threshold`` (squared L2 ≤ it, or cosine ≥ it with
    ``by="cos"``), also once stored as float32: their float32 value
    passes it widened by a proven bound. With u = 2^-24, a float32 sum
    of d products is within (d + 2)·u of exact relative to Σ|terms|
    (the value for squared L2, ≤ ‖a‖‖b‖ for a dot) in any order;
    (2d + 8)·u adds ``pair_dist``'s error and the float32 store, and
    underflow ≤ d·2^-149. Cosine pairs with a squared norm outside
    [2^-30, 2^60] and squared-L2 thresholds past 2^100 are kept."""
    x, d = np.asarray(x, np.float32), np.shape(x)[-1]
    tol = (2 * d + 8) * 2.0 ** -24
    keep = np.ones(len(ix), dtype=bool)
    if by == "l2" and not abs(threshold) < 2.0 ** 100:
        return keep
    dots = lambda u, v: np.einsum("ij,ij->i", u, v).astype(np.float64)  # noqa: E731
    bound = threshold + tol * abs(threshold) + d * 2.0 ** -148
    for s in range(0, len(ix), CHUNK):
        a, b = x[ix[s : s + CHUNK]], x[iy[s : s + CHUNK]]
        if by == "l2":
            diff = a - b
            keep[s : s + CHUNK] = ~(dots(diff, diff) > bound)
            continue
        n1, n2 = dots(a, a), dots(b, b)
        with np.errstate(all="ignore"):
            cos = dots(a, b) / np.sqrt(n1 * n2)
        sure = (np.minimum(n1, n2) >= 2.0 ** -30) & (np.maximum(n1, n2) <= 2.0 ** 60)
        keep[s : s + CHUNK] = ~sure | (cos >= threshold - tol - 2.0 ** -40)
    return keep


def dense_pairs(q: np.ndarray, c: np.ndarray, by: str = "l2",
                threshold: float | None = None, k: int | None = None,
                allow=None):
    """Every q × c pair that can pass ``threshold`` or be among a q
    row's ``k`` best, with ``pair_dist`` values: (qi, ci, l2, cos).

    ``by`` is "l2" (squared L2, lower is better, kept ≤ threshold) or
    "cos" (cosine similarity, higher is better, kept ≥ threshold).
    ``allow(rows, cols)`` (optional) returns a bool mask, broadcastable
    to [len(rows), len(cols)], of the pairs that may be emitted; the
    k-th value is taken over allowed pairs only.

    The gram form is a shortlist only: its value of a pair is within
    ``tol`` of ``pair_dist``'s, so every pair whose exact value passes
    survives, plus the pairs within ``tol`` of the bound. Callers apply
    the exact threshold and top-k to the returned values."""
    q64, c64 = q.astype(np.float64), c.astype(np.float64)
    qn2, cn2 = (q64 * q64).sum(axis=1), (c64 * c64).sum(axis=1)
    # dot-product and norm error bounds of both forms (γ_d ≈ d·u each),
    # doubled; cosine values carry the bound relative to ‖q‖‖c‖
    gamma = (4 * q.shape[1] + 16) * _EPS
    cb = max(1, min(len(c), 65536))
    qb = max(1, _GRAM_CELLS // cb)
    sign = 1.0 if by == "l2" else -1.0  # cost: lower is better
    bound = None if threshold is None else sign * threshold
    if bound is not None:
        bound += _F32_SLACK * max(1.0, abs(bound))
    qis, cis = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    for q0 in range(0, len(q), qb):
        rows = np.arange(q0, min(q0 + qb, len(q)))
        for c0 in range(0, len(c), cb):
            cols = np.arange(c0, min(c0 + cb, len(c)))
            keep = np.ones((len(rows), len(cols)), dtype=bool)
            if allow is not None:
                keep &= allow(rows, cols)
            if bound is not None or k is not None:
                g = q64[rows] @ c64[cols].T
                if by == "l2":
                    cost = qn2[rows, None] + cn2[None, cols] - 2.0 * g
                    tol = gamma * (qn2[rows, None] + cn2[None, cols])
                else:
                    cost = -g / np.maximum(np.sqrt(qn2[rows, None] * cn2[None, cols]), 1e-12)
                    tol = gamma
                if bound is not None:
                    keep &= cost - tol <= bound
                if k is not None and len(cols) > k:
                    ub = np.where(keep, cost + tol, np.inf)
                    kth = np.partition(ub, k - 1, axis=1)[:, k - 1 : k]
                    keep &= cost - tol <= kth + _F32_SLACK * np.abs(kth)
            i, j = np.nonzero(keep)
            qis.append(rows[i])
            cis.append(cols[j])
    qi, ci = np.concatenate(qis), np.concatenate(cis)
    return (qi, ci, *pair_dist(q64, c64, qi, ci))


def run_starts(t: pa.Table, cols) -> np.ndarray:
    """True at each row whose ``cols`` values differ from the previous
    row's (nulls equal nulls): the starts of the runs of a sorted
    table."""
    new = np.ones(t.num_rows, dtype=bool)
    if t.num_rows > 1:
        same = np.ones(t.num_rows - 1, dtype=bool)
        for c in cols:
            a, b = t[c].slice(1), t[c].slice(0, t.num_rows - 1)
            eq = pc.equal(a, b)
            if t[c].null_count:
                eq = pc.fill_null(pc.or_kleene(
                    eq, pc.and_(pc.is_null(a), pc.is_null(b))), False)
            same &= eq.to_numpy()
        new[1:] = ~same
    return new


def select_topk(t: pa.Table, by: str, k: int, group=("query_id",),
                descending: bool = False, threshold: float | None = None,
                dedup_string: str | None = None) -> pa.Table:
    """Per ``group``: the rows whose ``by`` passes ``threshold`` (≤, or
    ≥ when ``descending``), one row per candidate_id, optionally one
    per ``dedup_string`` value (the first in order), ordered by (``by``,
    candidate_id) stably, cut to the first ``k``, with a 1-based int64
    ``rank`` column.

    Copies of a (group, candidate_id) pair carry equal values (the
    ``pair_dist`` contract), so they sort next to each other and any
    one of them is kept."""
    group = list(group)
    if threshold is not None:
        cmp = pc.greater_equal if descending else pc.less_equal
        t = t.filter(cmp(t[by], threshold))
    t = t.sort_by([(g, "ascending") for g in group]
                  + [(by, "descending" if descending else "ascending"),
                     ("candidate_id", "ascending")])
    t = t.filter(pa.array(run_starts(t, group + ["candidate_id"])))
    if dedup_string is not None:
        pos = pa.array(np.arange(t.num_rows))
        order = pa.table({**{g: t[g] for g in group},
                          "s": t[dedup_string], "p": pos}).sort_by(
            [(g, "ascending") for g in group + ["s", "p"]])
        keep = np.zeros(t.num_rows, dtype=bool)
        keep[order["p"].to_numpy()[run_starts(order, group + ["s"])]] = True
        t = t.filter(pa.array(keep))
    pos = np.arange(t.num_rows)
    first = np.maximum.accumulate(np.where(run_starts(t, group), pos, 0))
    rank = pos - first
    keep = rank < k
    return t.filter(pa.array(keep)).append_column(
        "rank", pa.array(rank[keep] + 1, type=pa.int64()))
