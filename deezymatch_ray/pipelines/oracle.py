"""Brute-force reference-faithful oracle (driver-side NumPy/pandas).

Reimplements the candidate_ranker loop semantics exactly as the
reference computes them (candidateRanker.py:369-570) with no blocking
and no Ray — the correctness yardstick for the distributed plans
(FIXTURES.md F7). torch/faiss are not installable here, so this oracle
(validated by the ported goldens and invariants) *is* the stand-in for
the reference's outputs, as documented in SURVEY §7.4.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from deezymatch_ray.config import EngineConfig
from deezymatch_ray.functions.text import encode_strings, normalize_string, string_split
from deezymatch_ray.functions.vectors import pair_dist
from deezymatch_ray.model.chargru import CharGRU


def _embed_all(model: CharGRU, names: list[str], tok2index, cfg: EngineConfig):
    prep, tok = cfg.preprocessing, cfg.tokenization
    norm = [
        normalize_string(s, prep.uni2ascii, prep.lowercase, prep.strip,
                         prep.only_latin_letters)
        for s in names
    ]
    x, lens, valid = encode_strings(
        norm, tok2index, tokenize=tok.tokenize, min_gram=tok.min_gram,
        max_gram=tok.max_gram, token_sep=tok.token_sep,
        prefix_suffix=tok.prefix_suffix, max_seq_len=tok.max_seq_len,
        missing_char_threshold=prep.missing_char_threshold,
    )
    fwd, bwd = model.embed(x, lens)
    emb = np.concatenate([fwd, bwd], axis=1) if bwd is not None else fwd
    return emb.astype(np.float32), norm, valid, (x, lens)


def oracle_rank(
    queries: list[tuple[str, str]],
    candidates: list[tuple[str, str]],
    model: CharGRU,
    tok2index: dict[str, int],
    cfg: EngineConfig,
    restrict_to_shared_block: bool = False,
) -> pd.DataFrame:
    """(id, name) lists → long-form ranking table.

    Sequential per-query global scan: metric threshold → dedup keep
    lowest-first → stable sort by (metric, candidate_id) → head(k) —
    the fixpoint of the reference's adaptive window loop (SURVEY K2).
    ``restrict_to_shared_block`` additionally requires the pair to share
    a blocking key (the F1-gate population).
    """
    r = cfg.ranking
    q_ids = [i for i, _ in queries]
    q_names = [n for _, n in queries]
    c_ids = [i for i, _ in candidates]
    c_names = [n for _, n in candidates]
    q_emb, q_norm, q_valid, q_enc = _embed_all(model, q_names, tok2index, cfg)
    c_emb, c_norm, c_valid, c_enc = _embed_all(model, c_names, tok2index, cfg)

    shared = None
    if restrict_to_shared_block:
        from deezymatch_ray.functions.similarity import soundex

        def keys(norm_s: str) -> set[str]:
            ks = set(string_split(norm_s, tokenize=["ngram"],
                                  min_gram=cfg.blocking.qgram,
                                  max_gram=cfg.blocking.qgram,
                                  prefix_suffix=["|", "|"]))
            if cfg.blocking.use_phonetic:
                snd = soundex(norm_s)
                if snd:
                    ks.add("snd:" + snd)
            return ks

        q_keys = [keys(s) for s in q_norm]
        c_keys = [keys(s) for s in c_norm]
        shared = np.zeros((len(queries), len(candidates)), dtype=bool)
        for i, qk in enumerate(q_keys):
            for j, ck in enumerate(c_keys):
                if qk & ck:
                    shared[i, j] = True

    rows = []
    for i in range(len(queries)):
        if not q_valid[i]:
            continue
        # the spec of both physical plans: per-pair difference-form L2
        # and dot/norm cosine, functions of the two embeddings only
        faiss_d, cos_sim = pair_dist(q_emb, c_emb, np.full(len(c_emb), i),
                                     np.arange(len(c_emb)))
        faiss_d = faiss_d.astype(np.float32)
        cos_d = (1.0 - cos_sim).astype(np.float32)
        mask = c_valid.copy()
        if shared is not None:
            mask &= shared[i]
        if r.length_diff is not None:
            mask &= np.abs(
                np.array([len(s) for s in c_norm]) - len(q_norm[i])
            ) <= r.length_diff
        pred = np.full(len(candidates), np.nan, dtype=np.float32)
        if r.ranking_metric == "conf" or r.calc_predict:
            sel = np.flatnonzero(mask)
            if len(sel):
                from deezymatch_ray.functions.text import encode_strings as enc
                x1 = np.repeat(q_enc[0][i : i + 1], len(sel), axis=0)
                l1 = np.repeat(q_enc[1][i : i + 1], len(sel), axis=0)
                x2, l2 = c_enc[0][sel], c_enc[1][sel]
                L = max(x1.shape[1], x2.shape[1])
                x1 = np.pad(x1, ((0, 0), (0, L - x1.shape[1])))
                x2 = np.pad(x2, ((0, 0), (0, L - x2.shape[1])))
                pred[sel] = model.match_probability(x1, l1, x2, l2)
        if r.ranking_metric == "faiss":
            metric, asc = faiss_d, True
        elif r.ranking_metric == "cosine":
            metric, asc = cos_d, True
        else:
            metric, asc = pred, False
        if asc:
            mask &= metric <= r.selection_threshold
        else:
            mask &= metric >= r.selection_threshold
        sel = np.flatnonzero(mask)
        order = np.lexsort((np.asarray(c_ids, dtype=object)[sel],
                            metric[sel] if asc else -metric[sel]))
        sel = sel[order][: r.num_candidates]
        for rank, j in enumerate(sel, 1):
            rows.append({
                "query_id": q_ids[i], "query": q_names[i],
                "candidate_id": c_ids[j], "candidate": c_names[j],
                "faiss_dist": faiss_d[j], "cosine_dist": cos_d[j],
                "pred_score": pred[j], "rank": rank,
            })
    df = pd.DataFrame(rows, columns=[
        "query_id", "query", "candidate_id", "candidate",
        "faiss_dist", "cosine_dist", "pred_score", "rank",
    ])
    df["rank"] = df["rank"].astype("int32")
    for c in ("faiss_dist", "cosine_dist", "pred_score"):
        df[c] = df[c].astype("float32")
    return df
