"""Evaluation aggregates: classification metrics and Mean Average
Precision, computed the Ray way — per-batch partial counts summed by a
tiny aggregate, full per-group work in whole hash buckets (``bucket_map``).

Reference parity:
- A4 accuracy/precision/recall/F1 (macro + weighted) as in
  rnn_networks.py:415-419/:675-681 (sklearn semantics, zero_division=0).
- A5 MAP as in utils.py:67-95: group pair scores by query string, AP per
  group with the reference's skip-all-negative-groups rule. The
  reference shuffles each group before its sort to randomize ties
  (utils.py:83-86); AP here scores a run of tied scores as one step
  (sklearn semantics), and NaN scores (``PairScorer``'s invalid legs)
  as one tie run ranked last, so no row order can change an AP and no
  shuffle is drawn.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data
from ray.data.aggregate import Sum

from deezymatch_ray.config import DEFAULT_CONFIG
from deezymatch_ray.functions.vectors import run_starts
from deezymatch_ray.stages.blocking import bucket_map


def confusion_counts(
    scored: ray.data.Dataset, label_col: str = "label", pred_col: str = "pred",
) -> dict[str, int]:
    """Distributed confusion counts: per-batch partials summed by one
    aggregate, so the scored input executes once."""

    def fn(batch: pa.Table) -> pa.Table:
        y = np.asarray(batch[label_col].to_pylist(), dtype=bool)
        p = np.asarray(batch[pred_col].to_pylist(), dtype=bool)
        return pa.table({
            "tp": pa.array([int((y & p).sum())], type=pa.int64()),
            "fp": pa.array([int((~y & p).sum())], type=pa.int64()),
            "tn": pa.array([int((~y & ~p).sum())], type=pa.int64()),
            "fn": pa.array([int((y & ~p).sum())], type=pa.int64()),
        })

    keys = ("tp", "fp", "tn", "fn")
    tot = scored.map_batches(fn, batch_format="pyarrow").aggregate(
        *(Sum(k, alias_name=k) for k in keys)) or {}
    return {k: int(tot.get(k) or 0) for k in keys}


def classification_metrics(counts: dict[str, int]) -> dict[str, float]:
    """accuracy, per-class P/R/F1, macro-F1, weighted-F1 from confusion
    counts (sklearn `average='macro'/'weighted'` semantics, binary)."""
    tp, fp, tn, fn = counts["tp"], counts["fp"], counts["tn"], counts["fn"]
    n = tp + fp + tn + fn

    def prf(tp_, fp_, fn_):
        p = tp_ / (tp_ + fp_) if tp_ + fp_ else 0.0
        r = tp_ / (tp_ + fn_) if tp_ + fn_ else 0.0
        f = 2 * p * r / (p + r) if p + r else 0.0
        return p, r, f

    p1, r1, f1_pos = prf(tp, fp, fn)
    p0, r0, f1_neg = prf(tn, fn, fp)
    n_pos, n_neg = tp + fn, tn + fp
    return {
        "accuracy": (tp + tn) / n if n else 0.0,
        "precision_pos": p1, "recall_pos": r1, "f1_pos": f1_pos,
        "precision_neg": p0, "recall_neg": r0, "f1_neg": f1_neg,
        "macro_f1": (f1_pos + f1_neg) / 2.0,
        "weighted_f1": (f1_pos * n_pos + f1_neg * n_neg) / n if n else 0.0,
    }


def average_precision(y: np.ndarray, scores: np.ndarray) -> float:
    """sklearn ``average_precision_score`` semantics: AP = Σ (R_k - R_{k-1})
    · P_k over descending-score prefixes (ties grouped). NaN scores rank
    last, as one tie run, so the row order never changes the result."""
    s = np.asarray(scores, dtype=np.float64)
    s = np.where(np.isnan(s), -np.inf, s)
    order = np.argsort(-s, kind="stable")
    y = np.asarray(y, dtype=np.float64)[order]
    s = s[order]
    # group ties: evaluate only at the last index of each tie run
    distinct = np.flatnonzero(np.concatenate([s[1:] != s[:-1], [True]]))
    tp_cum = np.cumsum(y)
    n_pos = tp_cum[-1]
    if n_pos == 0:
        return 0.0
    ks = distinct + 1
    prec = tp_cum[distinct] / ks
    rec = tp_cum[distinct] / n_pos
    rec_prev = np.concatenate([[0.0], rec[:-1]])
    return float(((rec - rec_prev) * prec).sum())


def map_score(
    scored: ray.data.Dataset,
    query_col: str = "s1",
    label_col: str = "label",
    score_col: str = "pred_score",
) -> float:
    """A5 MAP: per-query AP, one pyarrow call per ``bucket_map`` range
    of query-key hash buckets walking its query segments, mean on
    the driver, skipping groups with no positive label
    (utils.py:88-93)."""
    def ap_bucket(t: pa.Table) -> pa.Table:
        t = t.sort_by(query_col)
        y, s = t[label_col].to_numpy().astype(bool), t[score_col].to_numpy()
        ends = np.append(np.flatnonzero(run_starts(t, [query_col])), t.num_rows)
        return pa.table({"ap": pa.array(
            [average_precision(y[a:b], s[a:b])
             for a, b in zip(ends[:-1], ends[1:]) if y[a:b].any()],
            type=pa.float64())})

    aps = bucket_map(scored, [query_col], ap_bucket,
                     DEFAULT_CONFIG.execution.shuffle_partitions)
    # the AP column is read batch-wise and sorted before the mean, so the
    # result does not depend on the order the groups come back in
    vals = np.concatenate([np.empty(0)] + [
        b["ap"].to_numpy() for b in aps.iter_batches(
            batch_format="pyarrow", batch_size=None)])
    return float(np.sort(vals).mean()) if len(vals) else 0.0
