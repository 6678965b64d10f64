"""Distributed ranking plans vs the reference-faithful brute-force
oracle, plus the ported reference invariants (FIXTURES.md F7)."""

from __future__ import annotations

import dataclasses
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray
import ray.data

from deezymatch_ray.config import DEFAULT_CONFIG
from deezymatch_ray.data.synth import make_query_candidates
from deezymatch_ray.model.chargru import CharGRU
from deezymatch_ray.model.vocab import load_vocab
from deezymatch_ray.pipelines.linkage import load_model_artifacts, train_model
from deezymatch_ray.pipelines.oracle import oracle_rank
from deezymatch_ray.stages.ranking import rank_blocked, rank_global


@pytest.fixture(scope="session")
def model_dir(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("model"))
    train_model(d, n_pairs=1000, epochs=8, embedding_dim=24, hidden_dim=24)
    return d


@pytest.fixture(scope="session")
def qc_tables():
    q, c = make_query_candidates(30, 40, seed=42)
    queries = [(f"q-{i:03d}", n) for i, n in enumerate(q["name"].to_pylist())]
    cands = [(f"c-{i:03d}", n) for i, n in enumerate(c["name"].to_pylist())]
    return queries, cands


def _to_ds(pairs):
    return ray.data.from_arrow(pa.table({
        "id": pa.array([i for i, _ in pairs], type=pa.string()),
        "name": pa.array([n for _, n in pairs], type=pa.string()),
    }))


def _cfg(model_dir, **ranking_kw):
    _, _, meta, cfg = load_model_artifacts(model_dir)
    thr = meta["suggested_faiss_threshold"]
    ranking_kw.setdefault("selection_threshold", thr)
    return cfg.replace(ranking=dataclasses.replace(cfg.ranking, **ranking_kw)), meta


def _run(plan, queries, cands, cfg, model_dir, meta):
    weights_ref, vocab_ref, _, _ = load_model_artifacts(model_dir)
    ds = plan(_to_ds(queries), _to_ds(cands), cfg, weights_ref, vocab_ref, meta)
    df = ds.to_pandas()
    return df.sort_values(["query_id", "rank"]).reset_index(drop=True)


def _oracle(queries, cands, cfg, model_dir, restrict=False):
    from deezymatch_ray.model.chargru import load_weights

    weights, meta = load_weights(os.path.join(model_dir, "model.npz"))
    model = CharGRU(weights, num_layers=meta["num_layers"],
                    pooling_mode=meta["pooling_mode"])
    tok2index = load_vocab(os.path.join(model_dir, "vocab.parquet"))
    df = oracle_rank(queries, cands, model, tok2index, cfg,
                     restrict_to_shared_block=restrict)
    return df.sort_values(["query_id", "rank"]).reset_index(drop=True)


def test_global_plan_matches_oracle_exactly(model_dir, qc_tables):
    queries, cands = qc_tables
    cfg, meta = _cfg(model_dir)
    got = _run(rank_global, queries, cands, cfg, model_dir, meta)
    want = _oracle(queries, cands, cfg, model_dir, restrict=False)
    assert len(got) == len(want), (len(got), len(want))
    pd.testing.assert_frame_equal(
        got[["query_id", "rank", "candidate_id"]],
        want[["query_id", "rank", "candidate_id"]],
    )
    np.testing.assert_allclose(got["faiss_dist"], want["faiss_dist"], atol=1e-6)


def test_blocked_plan_matches_blocked_oracle(model_dir, qc_tables):
    """The F1 gate: on pairs sharing a blocking key, the blocked plan
    must reproduce the oracle ranker (target pairwise F1 ≥ 0.99; exact
    match expected)."""
    queries, cands = qc_tables
    cfg, meta = _cfg(model_dir)
    got = _run(rank_blocked, queries, cands, cfg, model_dir, meta)
    want = _oracle(queries, cands, cfg, model_dir, restrict=True)
    got_pairs = set(zip(got["query_id"], got["candidate_id"]))
    want_pairs = set(zip(want["query_id"], want["candidate_id"]))
    tp = len(got_pairs & want_pairs)
    prec = tp / max(len(got_pairs), 1)
    rec = tp / max(len(want_pairs), 1)
    f1 = 2 * prec * rec / max(prec + rec, 1e-12)
    assert f1 >= 0.99, (f1, got_pairs ^ want_pairs)
    # distances and ranks agree on the intersection
    merged = got.merge(want, on=["query_id", "candidate_id"], suffixes=("_g", "_o"))
    np.testing.assert_allclose(merged["faiss_dist_g"], merged["faiss_dist_o"], atol=1e-6)
    assert (merged["rank_g"] == merged["rank_o"]).all()


def test_self_match_distance_zero(model_dir, qc_tables):
    """Port of tests/test_pipeline_ngram.py:102-105: when queries ==
    candidates each query retrieves itself at faiss distance ≈ 0."""
    _, cands = qc_tables
    cfg, meta = _cfg(model_dir)
    got = _run(rank_global, cands, cands, cfg, model_dir, meta)
    top = got[got["rank"] == 1].set_index("query_id")
    for cid, name in cands:
        assert top.loc[cid, "candidate_id"] == cid
        assert top.loc[cid, "faiss_dist"] < 1e-6


def test_calc_predict_does_not_change_distances(model_dir, qc_tables):
    """Port of tests/test_pipeline_one_col_input.py:156-170."""
    queries, cands = qc_tables
    cfg0, meta = _cfg(model_dir, calc_predict=False)
    cfg1, _ = _cfg(model_dir, calc_predict=True)
    a = _run(rank_global, queries, cands, cfg0, model_dir, meta)
    b = _run(rank_global, queries, cands, cfg1, model_dir, meta)
    pd.testing.assert_frame_equal(
        a[["query_id", "rank", "candidate_id", "faiss_dist"]],
        b[["query_id", "rank", "candidate_id", "faiss_dist"]],
    )
    assert b["pred_score"].notna().all()
    assert a["pred_score"].isna().all()


def test_length_diff_postcondition(model_dir, qc_tables):
    """Port of tests/test_pipeline_one_col_input.py:177-199: with
    length_diff=2 every output pair differs by ≤ 2 NFKD chars."""
    from deezymatch_ray.functions.text import normalize_string

    queries, cands = qc_tables
    cfg, meta = _cfg(model_dir, length_diff=2, selection_threshold=1e9)
    got = _run(rank_global, queries, cands, cfg, model_dir, meta)
    assert len(got) > 0
    for _, row in got.iterrows():
        lq = len(normalize_string(row["query"]))
        lc = len(normalize_string(row["candidate"]))
        assert abs(lq - lc) <= 2


def test_cosine_metric_mode(model_dir, qc_tables):
    queries, cands = qc_tables
    cfg, meta = _cfg(model_dir, ranking_metric="cosine", selection_threshold=0.5)
    got = _run(rank_global, queries, cands, cfg, model_dir, meta)
    want = _oracle(queries, cands, cfg, model_dir)
    pd.testing.assert_frame_equal(
        got[["query_id", "rank", "candidate_id"]],
        want[["query_id", "rank", "candidate_id"]],
    )
    assert (got["cosine_dist"] <= 0.5 + 1e-9).all()


def test_conf_metric_mode(model_dir, qc_tables):
    queries, cands = qc_tables
    cfg, meta = _cfg(model_dir, ranking_metric="conf", selection_threshold=0.5)
    got = _run(rank_global, queries, cands, cfg, model_dir, meta)
    want = _oracle(queries, cands, cfg, model_dir)
    assert (got["pred_score"] >= 0.5).all()
    got_pairs = set(zip(got["query_id"], got["candidate_id"]))
    want_pairs = set(zip(want["query_id"], want["candidate_id"]))
    assert got_pairs == want_pairs


def test_salted_hot_block_produces_exact_pair_set():
    """Tile-salting must yield every unordered within-block pair exactly
    once — identical to the unsalted computation with a raised cap."""
    import dataclasses

    import pyarrow as pa

    from deezymatch_ray.stages.ranking import blocked_pairs

    n = 30
    rng = np.random.default_rng(3)
    emb = rng.standard_normal((n, 4)).astype(np.float32)
    keyed = ray.data.from_arrow(pa.table({
        "block_key": pa.array(["hot"] * n),
        "id": pa.array([f"d{i:03d}" for i in range(n)]),
        "orig": pa.array([f"name{i}" for i in range(n)]),
        "norm_text": pa.array([f"name{i}" for i in range(n)]),
        "emb": pa.FixedSizeListArray.from_arrays(pa.array(emb.reshape(-1)), 4),
        "emb_valid": pa.array([True] * n),
    }))
    base = DEFAULT_CONFIG.replace(
        ranking=dataclasses.replace(
            DEFAULT_CONFIG.ranking, selection_threshold=1e9,
            num_candidates=10**6),
    )
    cfg_salt = base.replace(
        blocking=dataclasses.replace(base.blocking, max_block_size=8,
                                     salt_hot_blocks=True))
    cfg_plain = base.replace(
        blocking=dataclasses.replace(base.blocking, max_block_size=10_000,
                                     salt_hot_blocks=False))
    got = blocked_pairs(keyed, cfg_salt, self_join=True).to_pandas()
    want = blocked_pairs(keyed, cfg_plain, self_join=True).to_pandas()
    key = lambda df: sorted(zip(df.query_id, df.candidate_id))
    assert len(got) == len(want) == n * (n - 1) // 2
    assert key(got) == key(want)
    assert not got.duplicated(subset=["query_id", "candidate_id"]).any()
    m = got.merge(want, on=["query_id", "candidate_id"], suffixes=("_s", "_p"))
    np.testing.assert_allclose(m["faiss_dist_s"], m["faiss_dist_p"], atol=1e-6)


def _self_rows(key, ids, rng, dim=4):
    emb = rng.standard_normal((len(ids), dim)).astype(np.float32)
    return pa.table({
        "block_key": pa.array([key] * len(ids)),
        "id": pa.array(ids),
        "orig": pa.array(ids),
        "norm_text": pa.array(ids),
        "emb": pa.FixedSizeListArray.from_arrays(pa.array(emb.reshape(-1)), dim),
        "emb_valid": pa.array([True] * len(ids)),
    })


@pytest.mark.parametrize("census_limit", [10**6, 0], ids=["driver", "distributed"])
def test_census_sums_hot_key_counts_across_blocks(census_limit):
    """A key is hot by its total over every block, not by any one
    block's count: each block below holds at most 4 members of a key
    (max_block_size 8), yet "hot" (20 members over 10 blocks) must be
    salted, with exactly the unsalted pair set. "edge" (exactly 8
    members over 8 blocks) is not salted, and "huge" (40 members, 10
    tiles > salt_max_tiles 6) is dropped. Both census branches: summed
    on the driver, and by a Ray aggregate past driver_census_limit."""
    from deezymatch_ray.stages.ranking import blocked_pairs, salt_hot_blocks

    rng = np.random.default_rng(7)
    members = {"hot": 20, "edge": 8, "huge": 40}
    tables = {k: _self_rows(k, [f"{k}{i:02d}" for i in range(n)], rng)
              for k, n in members.items()}
    # block j holds members j, j+10, j+20, ... of every key: ≤ 4 per key
    blocks = [pa.concat_tables([t.take(np.arange(j, t.num_rows, 10))
                                for t in tables.values()]) for j in range(10)]
    keyed = ray.data.from_arrow(blocks)
    assert keyed.materialize().num_blocks() == 10
    base = DEFAULT_CONFIG.replace(
        ranking=dataclasses.replace(
            DEFAULT_CONFIG.ranking, selection_threshold=1e9,
            num_candidates=10**6),
    )
    cfg = base.replace(blocking=dataclasses.replace(
        base.blocking, max_block_size=8, salt_max_tiles=6,
        salt_hot_blocks=True, driver_census_limit=census_limit))

    salted = salt_hot_blocks(keyed.materialize(), cfg).to_pandas()
    base_key = salted["block_key"].str.split("\x1f").str[0]
    assert set(base_key) == {"hot", "edge"}
    assert (salted.loc[base_key == "hot", "block_key"]
            .str.startswith("hot\x1ftile:").all())
    assert (salted.loc[base_key == "edge", "block_key"] == "edge").sum() == 8
    # 20 members, tiles of ceil(8/2): 5 groups, 5 tile slots per member
    assert (base_key == "hot").sum() == 20 * 5

    got = blocked_pairs(keyed, cfg, self_join=True).to_pandas()
    plain = base.replace(blocking=dataclasses.replace(
        base.blocking, max_block_size=10_000, salt_hot_blocks=False))
    want = blocked_pairs(
        ray.data.from_arrow([tables["hot"], tables["edge"]]), plain,
        self_join=True).to_pandas()
    key = lambda df: sorted(zip(df.query_id, df.candidate_id))
    assert len(got) == (20 * 19 + 8 * 7) // 2
    assert key(got) == key(want)


@pytest.mark.parametrize("self_join", [True, False], ids=["self", "qxc"])
def test_oversized_block_warns_and_skips(self_join):
    """No silent drops: with salting off, a block over max_block_size
    (or over max_pairs_per_block) is skipped with a warning naming it,
    in the self-join path and in the query × candidate role path; with
    the caps raised the same input pairs in full. With salting on, a
    block past salt_max_tiles is dropped with one driver-side warning
    giving the dropped keys and rows."""
    from deezymatch_ray.stages.ranking import blocked_pairs, score_block_bucket

    n = 12
    tbl = _self_rows("big", [f"d{i:02d}" for i in range(n)],
                     np.random.default_rng(2))
    if self_join:
        want = n * (n - 1) // 2
    else:
        tbl = tbl.append_column("role", pa.array(["q"] * 5 + ["c"] * 7))
        want = 5 * 7
    base = DEFAULT_CONFIG.replace(ranking=dataclasses.replace(
        DEFAULT_CONFIG.ranking, selection_threshold=1e9,
        num_candidates=10**6))

    def cfg(cap, pairs=10**6, salt=False, tiles=64):
        return base.replace(blocking=dataclasses.replace(
            base.blocking, max_block_size=cap, max_pairs_per_block=pairs,
            salt_hot_blocks=salt, salt_max_tiles=tiles))

    for c, cap in [(cfg(6), "max_block_size=6"),
                   (cfg(n, pairs=10), "max_pairs_per_block=10")]:
        with pytest.warns(UserWarning, match=f"'big'.*{cap}.*SKIPPED"):
            out = score_block_bucket(tbl, cfg=c, self_join=self_join)
        assert out.num_rows == 0
        assert blocked_pairs(ray.data.from_arrow(tbl), c,
                             self_join=self_join).count() == 0
    got = blocked_pairs(ray.data.from_arrow(tbl), cfg(n),
                        self_join=self_join).to_pandas()
    assert len(got) == want
    assert not got.duplicated(subset=["query_id", "candidate_id"]).any()
    if self_join:
        with pytest.warns(UserWarning, match="1 block keys.*12 keyed rows"):
            dropped = blocked_pairs(ray.data.from_arrow(tbl),
                                    cfg(2, salt=True, tiles=2), self_join=True)
        assert dropped.count() == 0


def test_hot_block_beyond_salt_cap_is_dropped_not_wedged():
    import dataclasses

    import pyarrow as pa

    from deezymatch_ray.stages.ranking import blocked_pairs

    n = 40
    emb = np.zeros((n, 4), dtype=np.float32)
    keyed = ray.data.from_arrow(pa.table({
        "block_key": pa.array(["huge"] * n),
        "id": pa.array([f"d{i}" for i in range(n)]),
        "orig": pa.array(["x"] * n),
        "norm_text": pa.array(["x"] * n),
        "emb": pa.FixedSizeListArray.from_arrays(pa.array(emb.reshape(-1)), 4),
        "emb_valid": pa.array([True] * n),
    }))
    cfg = DEFAULT_CONFIG.replace(
        blocking=dataclasses.replace(DEFAULT_CONFIG.blocking,
                                     max_block_size=4, salt_max_tiles=2,
                                     salt_hot_blocks=True))
    assert blocked_pairs(keyed, cfg, self_join=True).count() == 0


def test_salted_tiles_survive_group_imbalance():
    """Regression (round-2 ADVICE): crc32 group assignment is uneven, so
    some tile group WILL exceed max_block_size for a large hot block.
    Salted tiles must be exempt from the size caps — every unordered
    pair still appears exactly once."""
    from deezymatch_ray.stages.ranking import blocked_pairs

    n = 200
    rng = np.random.default_rng(11)
    emb = rng.standard_normal((n, 4)).astype(np.float32)
    keyed = ray.data.from_arrow(pa.table({
        "block_key": pa.array(["hot"] * n),
        "id": pa.array([f"d{i:04d}" for i in range(n)]),
        "orig": pa.array([f"name{i}" for i in range(n)]),
        "norm_text": pa.array([f"name{i}" for i in range(n)]),
        "emb": pa.FixedSizeListArray.from_arrays(pa.array(emb.reshape(-1)), 4),
        "emb_valid": pa.array([True] * n),
    }))
    base = DEFAULT_CONFIG.replace(
        ranking=dataclasses.replace(
            DEFAULT_CONFIG.ranking, selection_threshold=1e9,
            num_candidates=10**6),
    )
    cfg = base.replace(
        blocking=dataclasses.replace(base.blocking, max_block_size=16,
                                     salt_max_tiles=64, salt_hot_blocks=True))
    got = blocked_pairs(keyed, cfg, self_join=True).to_pandas()
    assert len(got) == n * (n - 1) // 2
    assert not got.duplicated(subset=["query_id", "candidate_id"]).any()


def test_rank_global_broadcast_gate_raises(model_dir, qc_tables):
    """rank_global materializes + broadcasts the candidate payload;
    past broadcast_limit it must abort loudly and point at
    rank_blocked, not OOM the driver (round-3 VERDICT #6)."""
    queries, cands = qc_tables
    cfg, meta = _cfg(model_dir)
    weights_ref, vocab_ref, _, _ = load_model_artifacts(model_dir)
    with pytest.raises(ValueError, match="rank_blocked"):
        rank_global(_to_ds(queries), _to_ds(cands), cfg,
                    weights_ref, vocab_ref, meta, broadcast_limit=10)


@pytest.mark.parametrize("plan", [rank_global, rank_blocked],
                         ids=["global", "blocked"])
def test_rank_plans_keep_the_input_id_type(plan, model_dir, qc_tables):
    """String and int64 ids over the same names: each plan returns ids
    of its input type and the same (query, candidate, rank) rows."""
    queries, cands = qc_tables
    queries = queries[:5]
    cfg, meta = _cfg(model_dir, selection_threshold=1e9)
    weights_ref, vocab_ref, _, _ = load_model_artifacts(model_dir)
    rows = {}
    for kind, qids, cids in (
        ("string", [i for i, _ in queries], [i for i, _ in cands]),
        ("int64", list(range(len(queries))), list(range(100, 100 + len(cands)))),
    ):
        def ds(ids, side):
            return ray.data.from_arrow(pa.table({
                "id": pa.array(ids, type=pa.string() if kind == "string" else pa.int64()),
                "name": pa.array([n for _, n in side], type=pa.string()),
            }))

        out = plan(ds(qids, queries), ds(cids, cands), cfg, weights_ref,
                   vocab_ref, meta).to_pandas()
        want_dtype = object if kind == "string" else np.int64
        assert out["query_id"].dtype == want_dtype
        assert out["candidate_id"].dtype == want_dtype
        qpos = {q: i for i, q in enumerate(qids)}
        cpos = {c: i for i, c in enumerate(cids)}
        rows[kind] = sorted(
            (qpos[q], cpos[c], r)
            for q, c, r in zip(out["query_id"], out["candidate_id"], out["rank"]))
    assert rows["string"] and rows["string"] == rows["int64"]


def test_candidate_string_dedup_parity_mode(model_dir):
    """dedup_on='candidate_string' (reference parity,
    candidateRanker.py:483-492): duplicate candidate SPELLINGS under
    different ids collapse to the lowest-(metric, id) row; the default
    mode keeps one row per (query_id, candidate_id)."""
    queries = [("q-000", "alpha town"), ("q-001", "beta city")]
    # two ids share the spelling "alpha town"; a third is distinct
    cands = [("c-000", "alpha town"), ("c-001", "alpha town"),
             ("c-002", "alpha towne"), ("c-003", "beta city")]
    cfg, meta = _cfg(model_dir, selection_threshold=1e9, num_candidates=100)
    got_default = _run(rank_global, queries, cands, cfg, model_dir, meta)
    cfg_s = cfg.replace(
        ranking=dataclasses.replace(cfg.ranking, dedup_on="candidate_string"))
    got_parity = _run(rank_global, queries, cands, cfg_s, model_dir, meta)
    # default: every (query, candidate_id) pair survives
    assert len(got_default) == len(queries) * len(cands)
    # parity expectation derived from the default output: per query,
    # keep the first row per spelling under the (metric, id) order,
    # then re-rank contiguously
    exp = (
        got_default.sort_values(["query_id", "faiss_dist", "candidate_id"],
                                kind="stable")
        .drop_duplicates(subset=["query_id", "candidate"], keep="first")
        .reset_index(drop=True)
    )
    exp["rank"] = exp.groupby("query_id", sort=False).cumcount() + 1
    exp = exp.sort_values(["query_id", "rank"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got_parity[["query_id", "candidate_id", "candidate", "rank"]],
        exp[["query_id", "candidate_id", "candidate", "rank"]].astype(
            got_parity[["query_id", "candidate_id", "candidate", "rank"]].dtypes
        ),
    )
    # both ids spelled "alpha town" never co-survive in parity mode
    per_q = got_parity.groupby("query_id")["candidate"].nunique()
    assert (got_parity.groupby("query_id").size() == per_q).all()


def test_bucketize_hash_backend_version_guard():
    """r4 ADVICE (low) / r4 VERDICT #5: the hash backend is resolved
    once on the driver and shipped through the closure; a worker whose
    polars version differs must fail loudly (silently splitting hash
    buckets loses cross-bucket matches in every bucketized groupby)."""
    from deezymatch_ray.stages.blocking import (
        _hash_col_u64,
        _resolve_hash_backend,
        _stable_bucket,
    )

    col = pa.chunked_array([pa.array(["x", "y", "z"])])
    backend = _resolve_hash_backend()
    assert backend[0] == "polars"  # sandbox has polars
    ok = _hash_col_u64(col, backend)
    assert ok.dtype == np.uint64 and len(ok) == 3
    with pytest.raises(RuntimeError, match="mismatch.*polars"):
        _hash_col_u64(col, ("polars", "0.0.0-not-installed"))
    # pandas fallback still produces stable hashes without polars
    pd_hash = _hash_col_u64(col, ("pandas", None))
    np.testing.assert_array_equal(pd_hash, _hash_col_u64(col, ("pandas", None)))
    # the shipped decision makes buckets process-stable end to end
    t = pa.table({"k": ["x", "y", "z"]})
    np.testing.assert_array_equal(
        _stable_bucket(t, ["k"], 16, backend),
        _stable_bucket(t, ["k"], 16, backend),
    )


def test_bucketized_salted_rows_convert_to_pandas_in_a_fresh_process(tmp_path):
    """The bucket UDFs read their input with to_pandas on whichever
    worker runs them, so salted rows must not carry pandas metadata
    that only a process which has imported Ray's pandas tensor dtype
    can parse."""
    import subprocess
    import sys

    from deezymatch_ray.stages.blocking import bucketize
    from deezymatch_ray.stages.ranking import salt_hot_blocks

    cfg = DEFAULT_CONFIG.replace(
        blocking=dataclasses.replace(DEFAULT_CONFIG.blocking,
                                     max_block_size=24))
    salted = salt_hot_blocks(ray.data.from_arrow(_keyed_rows()), cfg)
    blocks = ray.get(bucketize(salted, ["block_key"], 64).to_arrow_refs())
    path = tmp_path / "bucketized.arrow"
    with pa.ipc.new_file(str(path), blocks[0].schema) as w:
        for b in blocks:
            w.write_table(b)
    code = ("import sys, pyarrow as pa, ray.air.util.tensor_extensions.arrow\n"
            "df = pa.ipc.open_file(sys.argv[1]).read_all().to_pandas()\n"
            "print(len(df))")
    out = subprocess.run([sys.executable, "-c", code, str(path)],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert int(out.stdout) == sum(b.num_rows for b in blocks) > 0


def _keyed_rows(n=150, n_keys=40, hot=60, dim=8, seed=5) -> pa.Table:
    """Keyed self-join rows: every doc under 3 of ``n_keys`` block keys
    (pairs share up to 3 keys, so dedup has work), plus one key over
    the test's max_block_size that salt_hot_blocks tiles."""
    rng = np.random.default_rng(seed)
    emb = rng.standard_normal((n, dim)).astype(np.float32)
    docs = np.concatenate([
        np.repeat(np.arange(n), 3), rng.choice(n, hot, replace=False)])
    keys = np.concatenate([
        np.concatenate([rng.choice(n_keys, 3, replace=False) for _ in range(n)]),
        np.full(hot, -1)])
    return pa.table({
        "block_key": pa.array([f"k{k}" if k >= 0 else "hot" for k in keys]),
        "id": pa.array([f"d{i:03d}" for i in docs]),
        "orig": pa.array([f"name{i}" for i in docs]),
        "norm_text": pa.array([f"name{i}" for i in docs]),
        "emb": pa.FixedSizeListArray.from_arrays(
            pa.array(emb[docs].reshape(-1)), dim),
        "emb_valid": pa.array([True] * len(docs)),
    })


@pytest.mark.parametrize("n_blocks", [1, 7])
def test_shuffle_width_does_not_change_results(n_blocks):
    """The bucketed sort groupbys shuffle min(buckets, cluster CPUs)
    blocks whatever the input's block count (a 1-block input must not
    collapse them to one task); blocked_pairs → dedup_pairs and
    rank_pairs must return the rows (faiss_dist included, bit for bit)
    that one in-process call of each bucket kernel over the whole input
    returns. The 7-block input also permutes the rows, so each bucket
    sees them in another order."""
    from deezymatch_ray.stages.ranking import (
        blocked_pairs,
        dedup_pairs,
        rank_pairs,
        salt_hot_blocks,
        score_block_bucket,
        select_bucket,
    )

    tbl = _keyed_rows()
    cfg = DEFAULT_CONFIG.replace(
        blocking=dataclasses.replace(DEFAULT_CONFIG.blocking,
                                     max_block_size=24),
        ranking=dataclasses.replace(DEFAULT_CONFIG.ranking,
                                    selection_threshold=14.0,
                                    num_candidates=3),
    )
    keyed = ray.data.from_arrow(tbl)
    if n_blocks > 1:
        perm = np.random.default_rng(n_blocks).permutation(len(tbl))
        keyed = ray.data.from_arrow(tbl.take(perm)).repartition(n_blocks)
    assert keyed.materialize().num_blocks() == n_blocks

    salted_ds = salt_hot_blocks(ray.data.from_arrow(tbl), cfg).materialize()
    salted = salted_ds.to_pandas()
    assert salted["block_key"].str.startswith("hot\x1ftile:").any()
    want_pairs = (score_block_bucket(
        pa.concat_tables(ray.get(salted_ds.to_arrow_refs())),
        cfg=cfg, self_join=True).to_pandas()
                  .drop_duplicates(subset=["query_id", "candidate_id"]))
    want_rank = select_bucket(want_pairs, cfg=cfg)

    pairs = dedup_pairs(blocked_pairs(keyed, cfg, self_join=True)).materialize()
    ranked = rank_pairs(pairs, cfg).materialize()
    width = min(cfg.execution.shuffle_partitions,
                int(ray.cluster_resources()["CPU"]))
    assert width > 1
    assert pairs.num_blocks() == ranked.num_blocks() == width

    def rows(df, cols):
        return (df[cols].sort_values(["query_id", "candidate_id"])
                .reset_index(drop=True))

    pair_cols = list(want_pairs.columns)
    got_pairs = rows(pairs.to_pandas(), pair_cols)
    assert len(got_pairs) > 0
    pd.testing.assert_frame_equal(
        got_pairs, rows(want_pairs, pair_cols).astype(got_pairs.dtypes),
        check_exact=True)
    rank_cols = list(want_rank.columns)
    got_rank = rows(ranked.to_pandas(), rank_cols)
    assert got_rank["rank"].max() == 3
    pd.testing.assert_frame_equal(
        got_rank, rows(want_rank, rank_cols).astype(got_rank.dtypes),
        check_exact=True)


def test_dedup_pairs_keeps_lowest_distance_copy_in_any_order():
    """A pair shared by several blocks arrives once per block, and its
    distance can differ in the last bits between copies. dedup_pairs
    must keep the copy with the lowest faiss_dist, whatever the row
    order and block split of its input."""
    from deezymatch_ray.stages.ranking import dedup_pairs

    rng = np.random.default_rng(4)
    n_pairs, copies = 120, 3
    q = rng.integers(0, 40, n_pairs)
    c = 40 + rng.permutation(n_pairs)  # distinct pairs
    base = rng.random(n_pairs).astype(np.float32)
    rows = []
    for k in range(copies):
        # copy 0 holds the minimum; the others sit one ulp above it
        d = np.nextafter(base, np.float32(2), dtype=np.float32) if k else base
        rows.append(pd.DataFrame({
            "query_id": [f"d{i:03d}" for i in q],
            "query": [f"name{i}" for i in q],
            "candidate_id": [f"d{i:03d}" for i in c],
            "candidate": [f"name{i}" for i in c],
            "faiss_dist": d,
            "cosine_dist": (d / 2).astype(np.float32),
        }))
    dup = pd.concat(rows, ignore_index=True)
    want = (dup.sort_values("faiss_dist", kind="stable")
            .drop_duplicates(subset=["query_id", "candidate_id"])
            .sort_values(["query_id", "candidate_id"]).reset_index(drop=True))

    def run(order, n_blocks):
        tbl = pa.Table.from_pandas(dup.iloc[order], preserve_index=False)
        parts = [tbl.slice(o, len(tbl) // n_blocks + 1)
                 for o in range(0, len(tbl), len(tbl) // n_blocks + 1)]
        out = dedup_pairs(ray.data.from_arrow(parts), 8).to_pandas()
        return (out[list(dup.columns)].sort_values(["query_id", "candidate_id"])
                .reset_index(drop=True))

    # reversed puts an off-by-ulps copy first in every pair
    got_a = run(np.arange(len(dup))[::-1], 1)
    got_b = run(rng.permutation(len(dup)), 5)
    pd.testing.assert_frame_equal(got_a, got_b, check_exact=True)
    pd.testing.assert_frame_equal(got_a, want, check_exact=True)
    mins = dup.groupby(["query_id", "candidate_id"])["faiss_dist"].min()
    np.testing.assert_array_equal(got_a["faiss_dist"], mins.to_numpy())
