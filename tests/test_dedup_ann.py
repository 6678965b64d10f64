"""Dedup + similarity-search operators vs DuckDB brute-force oracles
(sf0.001 driver tables), plus structural invariants for the
probabilistic paths (MinHash, SimHash, IVF)."""

from __future__ import annotations

import duckdb
import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data

from deezymatch_ray.functions.dedup import (
    hamming64,
    minhash_signatures,
    simhash64_batch,
    word_shingles,
    words,
)
from deezymatch_ray.functions.vectors import to_matrix
from deezymatch_ray.stages import ann, dedup

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ("documents", "embeddings"):
        c.execute(f"create view {t} as select * from read_parquet('{SF}/{t}.parquet')")
    return c


@pytest.fixture(scope="module")
def docs_ds():
    return ray.data.read_parquet(f"{SF}/documents.parquet", columns=["doc_id", "text"])


def test_exact_dedup_matches_sql(docs_ds, con):
    got = dedup.exact_dedup(docs_ds).to_pandas().sort_values("text").reset_index(drop=True)
    want = con.execute(
        "select text, min(doc_id) as doc_id from documents group by text order by text"
    ).fetchdf()
    assert got[["text", "doc_id"]].equals(want[["text", "doc_id"]])


def test_jaccard_near_dup_matches_bruteforce(docs_ds, con):
    got = dedup.jaccard_near_dup(docs_ds, n=3, threshold=0.5).to_pandas()
    got = got.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    want = con.execute("""
        WITH w AS (SELECT doc_id, string_split_regex(trim(text), '\\s+') AS words FROM documents),
        s AS (SELECT doc_id, list_distinct(list_transform(generate_series(1, greatest(len(words)-2,0)),
              i -> words[i] || ' ' || words[i+1] || ' ' || words[i+2])) AS sh FROM w)
        SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
               round(CAST(len(list_intersect(a.sh,b.sh)) AS DOUBLE) /
                     (len(a.sh)+len(b.sh)-len(list_intersect(a.sh,b.sh))), 6) AS jaccard
        FROM s a JOIN s b ON a.doc_id < b.doc_id
        WHERE len(a.sh) > 0 AND len(b.sh) > 0 AND
              CAST(len(list_intersect(a.sh,b.sh)) AS DOUBLE) /
              (len(a.sh)+len(b.sh)-len(list_intersect(a.sh,b.sh))) >= 0.5
        ORDER BY 1, 2
    """).fetchdf()
    assert len(got) == len(want) > 0
    assert got["doc_a"].tolist() == want["doc_a"].tolist()
    assert got["doc_b"].tolist() == want["doc_b"].tolist()
    np.testing.assert_allclose(got["jaccard"], want["jaccard"], atol=1e-12)


def test_jaccard_near_dup_with_hot_shingle_emits_every_pair():
    """Regression (round-2 VERDICT #2): a shingle hotter than max_block
    must not silently lose pairs. Every doc here shares one hot shingle
    (freq 8 > max_block=3); each near-dup pair also shares non-hot
    shingles, so candidates come from cold blocks and the hot shingle
    must still count toward the intersection — results must equal brute
    force exactly."""
    texts = []
    for i in range(4):
        # pairs (2i, 2i+1) are near dups; "alpha beta gamma" in all docs
        core = f"left{i} mid{i} right{i} tail{i} end{i}"
        texts.append(f"{core} alpha beta gamma")
        texts.append(f"{core} extra{i} alpha beta gamma")
    ids = [f"d{i}" for i in range(len(texts))]
    ds = ray.data.from_arrow(pa.table({"doc_id": ids, "text": texts}))

    stats: dict = {}
    got = dedup.jaccard_near_dup(ds, n=3, threshold=0.3, max_block=3,
                                 stats_out=stats).to_pandas()
    got = got.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    assert stats["hot_shingles"] >= 1  # "alpha beta gamma" has freq 8 > 3

    # brute force
    sh = [set(word_shingles(t, 3)) for t in texts]
    want = []
    for i in range(len(texts)):
        for j in range(i + 1, len(texts)):
            inter = len(sh[i] & sh[j])
            if inter == 0:
                continue
            jac = inter / (len(sh[i]) + len(sh[j]) - inter)
            if jac >= 0.3:
                want.append((ids[i], ids[j], round(jac, 6)))
    want.sort()
    assert len(want) >= 4
    assert list(zip(got.doc_a, got.doc_b, got.jaccard)) == want

    # the large-corpus path (a stats co-group per pair end instead of
    # the broadcast join) must produce the identical result
    got2 = dedup.jaccard_near_dup(ds, n=3, threshold=0.3, max_block=3,
                                  broadcast_stats_limit=0).to_pandas()
    got2 = got2.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    assert list(zip(got2.doc_a, got2.doc_b, got2.jaccard)) == want


@pytest.mark.parametrize("limit", [2_000_000, 0], ids=["broadcast", "cogroup"])
def test_jaccard_near_dup_null_doc_id_is_dropped_not_fatal(limit):
    """A null ``doc_id`` matches no per-doc stats row on either attach
    path: its pairs are dropped, the rest verify as usual."""
    texts = ["a b c d e", "a b c d e f", "a b c d e h", "a b c d e g", "x y z w"]
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(["d0", "d1", None, "d3", "d4"]), "text": texts}))
    got = dedup.jaccard_near_dup(ds, n=3, threshold=0.3,
                                 broadcast_stats_limit=limit).to_pandas()
    assert not got["doc_a"].isna().any() and not got["doc_b"].isna().any()
    assert {("d0", "d1"), ("d0", "d3"), ("d1", "d3")} == set(zip(got.doc_a, got.doc_b))


def test_minhash_estimates_track_exact_jaccard(docs_ds):
    """LSH candidates at threshold 0.5 must (a) be a subset of pairs the
    exact path could emit (same shingle universe) and (b) estimate
    jaccard within MinHash sampling error (k=64 → σ≈0.0625)."""
    got = dedup.minhash_lsh_near_dup(docs_ds, n=3, k=64, n_bands=16,
                                     threshold=0.5).to_pandas()
    assert len(got) > 0
    texts = dict(zip(
        *[pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
          .to_pandas()[c] for c in ("doc_id", "text")]
    ))
    for _, r in got.iterrows():
        sa = set(word_shingles(texts[r.doc_a], 3))
        sb = set(word_shingles(texts[r.doc_b], 3))
        exact = len(sa & sb) / (len(sa) + len(sb) - len(sa & sb))
        assert abs(r.est_jaccard - exact) < 0.25, (r.doc_a, r.doc_b, r.est_jaccard, exact)
    # high-jaccard pairs must be recalled (P[miss] ≈ (1-t^4)^16 < 1e-3 at t≈0.95)
    exact_pairs = dedup.jaccard_near_dup(docs_ds, n=3, threshold=0.9).to_pandas()
    got_set = set(zip(got.doc_a, got.doc_b))
    missed = [p for p in zip(exact_pairs.doc_a, exact_pairs.doc_b) if p not in got_set]
    assert len(missed) <= max(1, len(exact_pairs) // 10)


def test_minhash_zero_shingle_docs_never_pair():
    """Docs with < n words have no shingles; they must NOT surface as
    est_jaccard=1.0 pairs via the all-max sentinel signatures (round-3
    regression: the sentinel rows used to band-match each other)."""
    ds = ray.data.from_items([
        {"doc_id": 1, "text": "one two"},          # < 3 words: no shingles
        {"doc_id": 2, "text": "three four"},       # < 3 words: no shingles
        {"doc_id": 3, "text": "a b c d e f g h"},
        {"doc_id": 4, "text": "a b c d e f g h"},
    ])
    got = dedup.minhash_lsh_near_dup(ds, n=3, k=64, n_bands=16, threshold=0.5)
    pairs = set(zip(*[got.to_pandas()[c] for c in ("doc_a", "doc_b")]))
    assert pairs == {(3, 4)}


def test_md5_basis_matches_duckdb_and_preserves_semantics(con):
    """The md5 hash basis exists so SQL oracles can mirror signatures:
    (a) md5_lower64_batch == DuckDB md5_number_lower per token, and
    (b) md5-basis minhash/simhash keep the family's semantic guarantees
    (identical sets → identical signatures; ~k/2 expected bit agreement
    for unrelated sets)."""
    from deezymatch_ray.functions.dedup import md5_lower64_batch

    toks = ["", "abc", "αβγ", "a b", "zzz", "abc"]
    got = md5_lower64_batch(toks)
    want = [con.execute("select md5_number_lower(?)", [t]).fetchone()[0]
            for t in toks]
    assert [int(v) for v in got] == want
    sh = [word_shingles("a b c d e f g h i j k", 3),
          word_shingles("a b c d e f g h i j k", 3),
          word_shingles("z y x w v u t s r q p", 3)]
    sig = minhash_signatures(sh, k=64, seed=7, basis="md5")
    assert (sig[0] == sig[1]).all()
    assert (sig[0] == sig[2]).mean() < 0.2
    assert (sig < (1 << 32)).all()  # 32-bit family: SQL UBIGINT-exact
    s = simhash64_batch([words("the quick brown fox")], basis="md5")
    assert s[0] != simhash64_batch([words("the quick brown fox")])[0]  # basis differs
    assert s[0] == simhash64_batch([words("the quick brown fox")], basis="md5")[0]


def test_exact_dedup_incremental_anti_join():
    new = ray.data.from_items([
        {"doc_id": 10, "text": "shared content alpha"},
        {"doc_id": 20, "text": "fresh content beta"},
        {"doc_id": 30, "text": "fresh content beta"},   # dup within NEW: kept
        {"doc_id": 40, "text": "shared content gamma"},
    ])
    corpus = ray.data.from_items([
        {"doc_id": 1, "text": "shared content alpha"},
        {"doc_id": 2, "text": "shared content gamma"},
        {"doc_id": 3, "text": "archive only delta"},
    ])
    got = sorted(dedup.exact_dedup_incremental(new, corpus).to_pandas()["doc_id"])
    # new docs matching corpus content drop; within-new dups both survive
    assert got == [20, 30]


def test_minhash_incremental_matches_cross_side_brute_force(docs_ds):
    """The incremental plan must equal a brute-force cross-side filter
    of the full near-dup pair set: split the corpus by doc_id % 10, run
    both the symmetric and the incremental pipelines, and check the
    incremental output is exactly the symmetric pairs with one NEW and
    one CORPUS side (est values identical)."""
    import pyarrow as _pa

    def side(rem_zero):
        def fn(b):
            mask = (b["doc_id"].to_numpy() % 10 == 0) == rem_zero
            return b.filter(_pa.array(mask))
        return fn

    new = docs_ds.map_batches(side(True), batch_format="pyarrow")
    corpus = docs_ds.map_batches(side(False), batch_format="pyarrow")
    inc = dedup.minhash_lsh_dedup_incremental(
        new, corpus, n=3, k=64, n_bands=16, threshold=0.5
    ).to_pandas()
    full = dedup.minhash_lsh_near_dup(
        docs_ds, n=3, k=64, n_bands=16, threshold=0.5
    ).to_pandas()
    want = {}
    for _, r in full.iterrows():
        a_new, b_new = r.doc_a % 10 == 0, r.doc_b % 10 == 0
        if a_new != b_new:  # exactly one side is NEW
            nid, cid = (r.doc_a, r.doc_b) if a_new else (r.doc_b, r.doc_a)
            want[(nid, cid)] = r.est_jaccard
    got = {(r.new_id, r.corpus_id): r.est_jaccard for _, r in inc.iterrows()}
    assert got == want and len(got) > 0


def test_embedding_incremental_matches_cross_side_brute_force():
    rng = np.random.default_rng(3)
    mat = rng.normal(size=(40, 8)).astype(np.float32)
    mat[7] = mat[3] + 0.01  # a cross-side near-dup (3 corpus, 7 … depends on split)
    rows = [{"vec_id": i, "embedding": list(map(float, mat[i]))} for i in range(40)]
    ds = ray.data.from_items(rows)
    new = ds.filter(lambda r: r["vec_id"] % 10 == 0)
    corpus = ds.filter(lambda r: r["vec_id"] % 10 != 0)
    got = dedup.embedding_near_dup_incremental(new, corpus, threshold=0.4).to_pandas()
    m64 = mat.astype(np.float64)
    sims = (m64 @ m64.T) / np.maximum(
        np.linalg.norm(m64, axis=1)[:, None] * np.linalg.norm(m64, axis=1)[None, :], 1e-12
    )
    want = {
        (i, j): round(float(sims[i, j]), 3)
        for i in range(40) for j in range(40)
        if i % 10 == 0 and j % 10 != 0 and sims[i, j] >= 0.4
    }
    assert {(r.new_id, r.corpus_id): r.cos_sim for _, r in got.iterrows()} == want
    # the broadcast gate is on the NEW side and aborts loudly
    with pytest.raises(ValueError, match="broadcasts the NEW side"):
        dedup.embedding_near_dup_incremental(
            new, corpus, threshold=0.4, broadcast_limit=2
        ).to_pandas()


def test_minhash_non_power_of_two_band_count_loses_no_pairs():
    """Round-3 regression: the int64 band-key fold must recover the
    band index exactly for ANY n_bands (the old wraparound fold
    mis-assigned ~2/3 of groups at n_bands=3, silently dropping
    pairs). Near-identical docs must all pair at n_bands ∈ {3, 5}."""
    base = "alpha beta gamma delta epsilon zeta eta theta"
    # 4 identical docs (est 1.0 → every band agrees → must ALL pair at
    # any n_bands) + 2 distinct ones
    texts = [base] * 4 + [base + " iota kappa", "totally different words here now"]
    ds = ray.data.from_items(
        [{"doc_id": i, "text": t} for i, t in enumerate(texts)]
    )
    for nb in (3, 5):
        got = dedup.minhash_lsh_near_dup(
            ds, n=3, k=60, n_bands=nb, threshold=0.3
        ).to_pandas()
        pairs = set(zip(got.doc_a, got.doc_b))
        # brute-force the signature-level truth with the same kernel
        sh = [word_shingles(t, 3) for t in texts]
        sig = minhash_signatures(sh, k=60, seed=7)
        rpb = 60 // nb
        want = set()
        for i in range(6):
            for j in range(i + 1, 6):
                eq = sig[i] == sig[j]
                est = eq.mean()
                bands = eq[: nb * rpb].reshape(nb, rpb).all(axis=1)
                if bands.any() and est >= 0.3:
                    want.add((i, j))
        assert pairs == want and len(want) > 0, (nb, pairs, want)


def test_embedding_incremental_empty_sides_and_stats_out():
    rows = [{"vec_id": i, "embedding": [float(i), 1.0]} for i in range(8)]
    ds = ray.data.from_items(rows)
    none = ds.filter(lambda r: False)
    # empty NEW side → empty typed result, no crash
    out = dedup.embedding_near_dup_incremental(none, ds).to_pandas()
    assert len(out) == 0
    # empty corpus blocks (filter-produced) → no crash either
    out2 = dedup.embedding_near_dup_incremental(ds, none).to_pandas()
    assert len(out2) == 0
    # minhash stats_out surfaces band-group counts
    docs = ray.data.from_items([
        {"doc_id": i, "text": "a b c d e f g h"} for i in range(4)
    ])
    stats: dict = {}
    got = dedup.minhash_lsh_near_dup(docs, threshold=0.5, stats_out=stats).to_pandas()
    assert len(got) == 6  # all 4 identical docs pair
    assert stats["n_band_groups"] > 0 and stats["oversized_band_groups"] == 0


@pytest.mark.parametrize("plan", [
    "minhash_lsh_near_dup", "minhash_lsh_dedup_incremental", "simhash_near_dup",
])
def test_oversized_band_group_warns_and_skips(plan):
    """Round-4 (r3 VERDICT #4): band groups past max_block must not be
    lost silently, in every banded plan. The warn helper fires a
    UserWarning (it runs on the worker that hits the group, so the unit
    assertion targets the helper directly), and a constructed hot band
    — identical docs, so every band/segment group exceeds max_block —
    is skipped AND visible via stats_out; with the cap above the group
    size the same input pairs in full."""
    with pytest.warns(UserWarning, match="SKIPPED"):
        dedup._warn_skipped_group(plan, "band_key", 7, 123, 100)
    docs = ray.data.from_items([
        {"doc_id": i, "text": "x y z w v u t s"} for i in range(12)
    ])

    def run(max_block, stats_out=None):
        if plan == "minhash_lsh_dedup_incremental":
            return dedup.minhash_lsh_dedup_incremental(
                docs.filter(expr="doc_id < 4"), docs.filter(expr="doc_id >= 4"),
                threshold=0.5, max_block=max_block, stats_out=stats_out,
            ).to_pandas()
        kwargs = {} if plan == "simhash_near_dup" else {"threshold": 0.5}
        return getattr(dedup, plan)(
            docs, max_block=max_block, stats_out=stats_out, **kwargs
        ).to_pandas()

    stats: dict = {}
    assert len(run(8, stats)) == 0
    assert stats["n_band_groups"] > 0
    assert stats["oversized_band_groups"] == stats["n_band_groups"]
    want = 4 * 8 if plan == "minhash_lsh_dedup_incremental" else 12 * 11 // 2
    assert len(run(12)) == want


def test_embedding_lsh_table_cap_warns_with_achieved_recall():
    """Auto mode must WARN (not silently cap) when the recall target
    needs more than 512 tables, and report target vs achieved."""
    rng = np.random.default_rng(0)
    rows = [{"vec_id": i, "embedding": list(map(float, rng.normal(size=4)))}
            for i in range(6)]
    ds = ray.data.from_items(rows)
    stats: dict = {}
    with pytest.warns(UserWarning, match="capped to 512"):
        out = dedup.embedding_near_dup_lsh(
            ds, threshold=0.4, n_bits=20, n_tables=None, stats_out=stats
        )
        out.materialize()
    assert stats["n_tables"] == 512 and stats["n_tables_target"] > 512
    assert 0.0 < stats["recall_at_threshold"] < 1.0


def test_minhash_signature_determinism_and_self_similarity():
    sh = [word_shingles("a b c d e f g h i j k", 3),
          word_shingles("a b c d e f g h i j k", 3),
          word_shingles("z y x w v u t s r q p", 3)]
    sig = minhash_signatures(sh, k=64, seed=7)
    assert (sig[0] == sig[1]).all()  # identical sets → identical signatures
    assert (sig[0] == sig[2]).mean() < 0.2
    assert (minhash_signatures(sh, k=64, seed=7) == sig).all()  # deterministic


def test_simhash_hamming_properties():
    t1 = words("the quick brown fox jumps over the lazy dog")
    t2 = words("the quick brown fox jumps over the lazy cat")
    t3 = words("completely different content with other tokens entirely")
    sigs = simhash64_batch([t1, t2, t3])
    d12 = hamming64(sigs[:1], sigs[1:2])[0]
    d13 = hamming64(sigs[:1], sigs[2:3])[0]
    assert d12 < d13
    assert hamming64(sigs[:1], sigs[:1])[0] == 0


def test_simhash_near_dup_verified_by_exact_hamming(docs_ds):
    got = dedup.simhash_near_dup(docs_ds, max_hamming=3).to_pandas()
    texts = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"]).to_pandas()
    tmap = dict(zip(texts.doc_id, texts.text))
    sig_of = lambda t: simhash64_batch([words(t)])[0:1]
    for _, r in got.iterrows():
        hd = hamming64(sig_of(tmap[r.doc_a]), sig_of(tmap[r.doc_b]))[0]
        assert hd == r.hamming <= 3
    # no duplicate pair emissions (min-segment ownership)
    assert not got.duplicated(subset=["doc_a", "doc_b"]).any()


def test_embedding_near_dup_lsh_scale_path(docs_ds, con):
    """No-broadcast LSH scale path: verified similarities are exact
    (zero false positives, values equal the broadcast path's) and
    recall at the default params clears 0.95 on the driver embeddings."""
    ds = ray.data.read_parquet(f"{SF}/embeddings.parquet",
                               columns=["vec_id", "embedding"])
    exact = dedup.embedding_near_dup(ds, threshold=0.4).to_pandas()
    approx = dedup.embedding_near_dup_lsh(ds, threshold=0.4).to_pandas()
    e = set(zip(exact.vec_a, exact.vec_b))
    a = set(zip(approx.vec_a, approx.vec_b))
    assert not (a - e)  # exact verification → no false positives
    assert len(e & a) / len(e) >= 0.95
    merged = approx.merge(exact, on=["vec_a", "vec_b"], suffixes=("_l", "_e"))
    assert (merged.cos_sim_l == merged.cos_sim_e).all()
    assert not approx.duplicated(subset=["vec_a", "vec_b"]).any()  # global pair dedup


def test_embedding_near_dup_lsh_oversized_buckets_not_skipped():
    """Round-3 regression (ADVICE high): buckets past max_block must be
    verified in bounded tiles, not silently dropped — a tiny max_block
    (every bucket oversized) must yield the identical pair set, with the
    skew surfaced via stats_out."""
    ds = ray.data.read_parquet(f"{SF}/embeddings.parquet",
                               columns=["vec_id", "embedding"])
    base = dedup.embedding_near_dup_lsh(ds, threshold=0.4).to_pandas()
    stats: dict = {}
    tiny = dedup.embedding_near_dup_lsh(
        ds, threshold=0.4, max_block=2, n_bits=5, n_tables=48,
        stats_out=stats,
    ).to_pandas()
    key = ["vec_a", "vec_b"]
    assert (set(zip(tiny.vec_a, tiny.vec_b))
            == set(zip(base.vec_a, base.vec_b)))
    m = base.sort_values(key).reset_index(drop=True)
    t = tiny.sort_values(key).reset_index(drop=True)
    assert (m["cos_sim"] == t["cos_sim"]).all()
    assert stats["oversized_buckets"] > 0
    assert stats["n_buckets"] >= stats["oversized_buckets"]
    assert stats["n_bits"] == 5 and stats["n_tables"] == 48


def test_embedding_near_dup_lsh_auto_params_scale_with_corpus():
    """n_bits=None sizes buckets from the corpus count; n_tables grows
    to preserve the (5, 48) operating point's recall bound."""
    import math

    from deezymatch_ray.stages.dedup import embedding_near_dup_lsh  # noqa: F401

    # small corpus → the floor (identical to the documented defaults)
    ds = ray.data.read_parquet(f"{SF}/embeddings.parquet",
                               columns=["vec_id", "embedding"])
    stats: dict = {}
    embedding_near_dup_lsh(ds, threshold=0.4, stats_out=stats).to_pandas()
    assert stats["n_bits"] == 5 and stats["n_tables"] == 48
    # the sizing formula itself at a 2M-row corpus: buckets stay bounded
    n, max_block = 2_000_000, 20_000
    n_bits = max(5, math.ceil(math.log2(4 * n / max_block)))
    assert n / 2 ** n_bits <= max_block / 4
    p = 1.0 - math.acos(0.4) / math.pi
    target = 1 - (1 - p ** 5) ** 48
    n_tables = max(48, math.ceil(math.log(1 - target) / math.log(1 - p ** n_bits) - 1e-9))
    # recall bound at the auto point ≥ the documented (5, 48) bound
    assert 1 - (1 - p ** n_bits) ** n_tables >= target - 1e-9


def test_ann_topk_matches_sql(con):
    cands = ray.data.read_parquet(f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"])
    q_ids, q_mat = ann.load_queries(cands, n_queries=5)
    got = ann.brute_force_topk(cands, q_ids, q_mat, k=5).to_pandas()
    got = got.sort_values(["query_id", "rank"]).reset_index(drop=True)
    want = con.execute("""
        SELECT query_id, candidate_id, "rank" FROM (
          SELECT q.vec_id AS query_id, c.vec_id AS candidate_id,
                 row_number() OVER (PARTITION BY q.vec_id
                   ORDER BY list_cosine_similarity(q.embedding, c.embedding) DESC, c.vec_id)
                 AS "rank"
          FROM embeddings q, embeddings c WHERE q.vec_id < 5)
        WHERE "rank" <= 5 ORDER BY query_id, "rank"
    """).fetchdf()
    assert got["query_id"].tolist() == want["query_id"].tolist()
    assert got["candidate_id"].tolist() == want["candidate_id"].tolist()


def test_ann_topk_duplicate_embedding_ties_keep_lowest_ids():
    """Regression (round-2 ADVICE): with duplicate embeddings tied at
    the k-th similarity, the local per-block top-k must keep the
    lower candidate ids so the global (sim desc, id asc) tie-break
    holds — argpartition alone kept an arbitrary tied subset."""
    n, d = 40, 4
    base = np.arange(1, d + 1, dtype=np.float32)
    emb = np.tile(base, (n, 1))  # all identical → every sim ties at 1.0
    tbl = pa.table({
        "vec_id": pa.array(np.arange(n, dtype=np.int64)),
        "embedding": pa.FixedSizeListArray.from_arrays(pa.array(emb.reshape(-1)), d),
    })
    cands = ray.data.from_arrow(tbl).repartition(5)  # ties span blocks
    q_ids = np.array([0], dtype=np.int64)
    got = ann.brute_force_topk(cands, q_ids, emb[:1], k=5).to_pandas()
    got = got.sort_values("rank")
    assert got["candidate_id"].tolist() == [0, 1, 2, 3, 4]
    approx = ann.ivf_topk(cands, q_ids, emb[:1], k=5, n_centroids=4, nprobe=4).to_pandas()
    assert approx.sort_values("rank")["candidate_id"].tolist() == [0, 1, 2, 3, 4]


def test_lsh_topk_recall_and_validity():
    """Hyperplane-LSH ANN: seeded run is deterministic; at (4 bits, 32
    tables) recall vs exact must be ≥ 0.9 on the driver embeddings, and
    every returned row must be a correctly-ranked true similarity."""
    cands = ray.data.read_parquet(f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"])
    q_ids, q_mat = ann.load_queries(cands, n_queries=10)
    exact = ann.brute_force_topk(cands, q_ids, q_mat, k=5).to_pandas()
    approx = ann.lsh_topk(cands, q_ids, q_mat, k=5, n_bits=4, n_tables=32).to_pandas()
    e = set(zip(exact.query_id, exact.candidate_id))
    a = set(zip(approx.query_id, approx.candidate_id))
    assert len(e & a) / len(e) >= 0.9
    # per-query ranks are 1..n with no duplicate candidates
    for _, g in approx.groupby("query_id"):
        assert g["rank"].sort_values().tolist() == list(range(1, len(g) + 1))
        assert not g["candidate_id"].duplicated().any()


def test_ivf_topk_recall_vs_exact():
    cands = ray.data.read_parquet(f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"])
    q_ids, q_mat = ann.load_queries(cands, n_queries=5)
    exact = ann.brute_force_topk(cands, q_ids, q_mat, k=5).to_pandas()
    approx = ann.ivf_topk(cands, q_ids, q_mat, k=5, n_centroids=8, nprobe=8).to_pandas()
    # nprobe == n_centroids → every bucket probed → must equal exact
    e = set(zip(exact.query_id, exact.candidate_id))
    a = set(zip(approx.query_id, approx.candidate_id))
    assert e == a


def test_exact_dedup_keeps_null_text_rows():
    """r4 ADVICE (medium): null texts must form a group (one surviving
    row, min id), not silently vanish through pandas' dropna default."""
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([5, 3, 9, 1, 7], type=pa.int64()),
        "text": pa.array(["a", None, "a", None, "b"]),
    })).repartition(3)  # nulls split across blocks → shuffle must merge them
    got = dedup.exact_dedup(ds).to_pandas()
    got = got.sort_values("doc_id").reset_index(drop=True)
    assert len(got) == 3
    null_rows = got[got["text"].isna()]
    assert len(null_rows) == 1 and null_rows["doc_id"].iloc[0] == 1
    assert got[got["text"] == "a"]["doc_id"].iloc[0] == 5
    assert got[got["text"] == "b"]["doc_id"].iloc[0] == 7


def test_to_matrix_precision_identical_across_layouts():
    """r4 ADVICE (low): the same float64 vectors must produce the same
    matrix whether they arrive fixed_size_list (fast path) or as a
    null-bearing list column (fallback) — no float32 truncation on one
    side only. Null rows come back as NaN rows at the right width."""
    rng = np.random.default_rng(7)
    data = rng.standard_normal((4, 3))  # float64, not float32-representable
    fsl = pa.FixedSizeListArray.from_arrays(
        pa.array(data.ravel(), type=pa.float64()), 3
    )
    lst_with_null = pa.array(
        [list(r) for r in data[:2]] + [None] + [list(r) for r in data[2:]],
        type=pa.list_(pa.float64()),
    )
    fast = to_matrix(fsl, dtype=np.float64)
    slow = to_matrix(lst_with_null, dtype=np.float64, on_null="nan")
    np.testing.assert_array_equal(fast, data)  # bit-exact, native precision
    np.testing.assert_array_equal(slow[[0, 1, 3, 4]], data)
    assert np.isnan(slow[2]).all() and slow.shape == (5, 3)
    # default contract: null rows are rejected loudly, never ranked
    with pytest.raises(ValueError, match="null"):
        to_matrix(lst_with_null, dtype=np.float64)


def test_lsh_signatures_do_not_depend_on_the_batch():
    """Both LSH plans hash a vector by the signs of its projections
    (``ann.lsh_signatures``). Each row here is orthogonal to one
    hyperplane, so that projection is rounding noise whose sign a
    batch-level matmul sets by the batch layout; through ``row_matmul``
    the same rows hash bit-equal in batches of 1, 3, 7 and 101."""
    from deezymatch_ray.stages.ann import lsh_signatures

    rng = np.random.default_rng(0)
    n_tables, n_bits, d, n = 8, 6, 24, 101
    planes = rng.standard_normal((n_tables * n_bits, d))
    mat = rng.standard_normal((n, d))
    p = planes[np.arange(n) % len(planes)]
    mat -= (np.einsum("ij,ij->i", mat, p) / np.einsum("ij,ij->i", p, p))[:, None] * p
    whole = lsh_signatures(mat, planes, n_bits)
    assert whole.shape == (n, n_tables)
    for size in (1, 3, 7, 101):
        parts = [lsh_signatures(mat[s : s + size], planes, n_bits)
                 for s in range(0, n, size)]
        np.testing.assert_array_equal(np.concatenate(parts), whole)


def test_pack16_is_the_per_hash_join_and_round_trips():
    """``_pack16`` writes each hash's 16 zero-padded bytes, as the
    per-hash ``ljust`` join did, also for hashes ending in ``\\0``
    bytes (NumPy drops those when it hands out an item); ``_unpack16``
    gives the items back."""
    from deezymatch_ray.stages.dedup import _pack16, _unpack16

    arr = np.sort(np.array([b"\x01" * 16, b"ab\x00\x00", b"\x00" * 15 + b"z", b"",
                            b"q" * 15 + b"\x00"], dtype="S16"))
    blob = _pack16(arr)
    assert blob == b"".join(bytes(v).ljust(16, b"\0") for v in arr)
    assert len(blob) == 16 * len(arr)
    assert _unpack16(blob) == {bytes(v) for v in arr}
    assert _pack16(arr[::2]) == b"".join(bytes(v).ljust(16, b"\0") for v in arr[::2])
    assert _pack16(np.array([], dtype="S16")) == b"" and _unpack16(b"") == set()
