"""Connected-components plans: driver union-find vs distributed
min-label propagation with pointer doubling (cross-check, long-chain
convergence in O(log D) rounds, loud non-convergence)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data

from deezymatch_ray.stages.clustering import (
    connected_components_distributed,
    connected_components_driver,
)


def _edges_ds(pairs):
    return ray.data.from_arrow(pa.table({
        "src": pa.array([a for a, _ in pairs], type=pa.string()),
        "dst": pa.array([b for _, b in pairs], type=pa.string()),
    }))


def test_distributed_matches_driver_on_random_graph():
    rng = np.random.default_rng(5)
    ids = [f"n{i:03d}" for i in range(80)]
    pairs = [tuple(sorted(rng.choice(ids, 2, replace=False))) for _ in range(120)]
    pairs = [p for p in pairs if p[0] != p[1]]
    want = connected_components_driver(pairs, nodes=ids)
    nodes = ray.data.from_arrow(pa.table({"doc_id": pa.array(ids)}))
    got = connected_components_distributed(
        _edges_ds(pairs), nodes=nodes, num_partitions=8
    ).to_pandas()
    got_map = dict(zip(got.doc_id, got.cluster_id))
    assert got_map == want


def test_long_chain_converges_in_log_rounds():
    """A 150-node path has diameter 149; plain min-propagation needs
    ~150 rounds, pointer doubling must finish within 10 (≥ log2(150)+
    margin) and label everything with the chain minimum."""
    n = 150
    ids = [f"c{i:04d}" for i in range(n)]
    pairs = [(ids[i], ids[i + 1]) for i in range(n - 1)]
    got = connected_components_distributed(
        _edges_ds(pairs), max_rounds=10, num_partitions=4
    ).to_pandas()
    assert set(got.cluster_id) == {ids[0]}
    assert len(got) == n


def test_many_nodes_few_edges_takes_distributed_path(monkeypatch):
    """Round-4 (r3 VERDICT #5): the driver CC path is gated on
    max(n_edges, n_nodes) — a corpus whose NODE count exceeds the limit
    must cluster distributed even when the edge set is tiny (the driver
    path take_all()s every node id). The driver union-find is
    monkeypatched to raise, so a correct result proves the distributed
    path ran; singletons must still all be emitted."""
    from deezymatch_ray.pipelines import linkage

    monkeypatch.setattr(
        linkage, "connected_components_driver",
        lambda *a, **k: (_ for _ in ()).throw(
            AssertionError("driver CC path used despite node count > limit")
        ),
    )
    n = 30
    docs = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([f"d{i:03d}" for i in range(n)]),
        # docs 0 and 1 are identical long texts → the single edge
        "text": pa.array(["the quick brown fox jumps over the lazy dog"] * 2
                         + [f"unique document body number {i} with words "
                            f"{i * 7} {i * 13} {i * 29}" for i in range(2, n)]),
    }))
    got = linkage.cluster_near_dup_documents(
        docs, jaccard_threshold=0.5, driver_edge_limit=10,
    ).to_pandas()
    assert len(got) == n
    m = dict(zip(got.doc_id, got.cluster_id))
    assert m["d000"] == m["d001"]
    # every other doc is its own singleton cluster
    assert len(set(m.values())) == n - 1


def test_int_ids_cluster_identically_on_both_paths():
    """Both clustering paths keep integer ids and order them as
    integers: docs 9 and 10 (identical text) cluster under 9, not under
    the string-smaller "10", and the driver and distributed tables are
    identical."""
    from deezymatch_ray.pipelines import linkage

    docs = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([9, 10, 11], type=pa.int64()),
        "text": pa.array(["the quick brown fox jumps over the lazy dog"] * 2
                         + ["an unrelated document about something else"]),
    }))
    got = [
        linkage.cluster_near_dup_documents(docs, distributed_cc=d)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
        for d in (False, True)
    ]
    pd.testing.assert_frame_equal(got[0], got[1])
    assert list(zip(got[0].doc_id, got[0].cluster_id)) == [(9, 9), (10, 9), (11, 11)]


def _near_dup_corpus() -> pa.Table:
    """Docs 0/1 share 17 of 39 word 3-shingles (Jaccard 0.44) and two
    MinHash bands; docs 2/3 are identical; doc 4 is shorter than a
    shingle; docs 5-7 share nothing."""
    base = [f"w1t{i}" for i in range(30)]
    texts = [" ".join(base), " ".join(base[:19] + [f"v1t{i}" for i in range(11)]),
             "the quick brown fox jumps over the lazy dog",
             "the quick brown fox jumps over the lazy dog", "two words"]
    texts += [f"unrelated body {i} with words {i * 7} {i * 13} {i * 29}" for i in range(3)]
    return pa.table({"doc_id": pa.array([f"d{i}" for i in range(len(texts))]),
                     "text": pa.array(texts)})


def _clusters(ds: ray.data.Dataset) -> list[tuple]:
    t = pa.concat_tables(ds.iter_batches(batch_format="pyarrow", batch_size=None))
    return sorted(zip(t["doc_id"].to_pylist(), t["cluster_id"].to_pylist()))


def test_scale_verify_branch_matches_driver_branch(monkeypatch):
    """Over ``DRIVER_VERIFY_LIMIT`` candidates the shingle-hash blobs
    are co-grouped with the pairs by id, once per end; that branch keeps
    and rejects the same candidates as the driver verify, including a
    band-matched pair under the Jaccard threshold."""
    from deezymatch_ray.pipelines import linkage
    from deezymatch_ray.stages.dedup import minhash_lsh_near_dup

    docs = ray.data.from_arrow(_near_dup_corpus())
    cand = {(r["doc_a"], r["doc_b"]) for r in
            minhash_lsh_near_dup(docs, threshold=0.0).take_all()}
    assert ("d0", "d1") in cand and ("d2", "d3") in cand
    driver = _clusters(linkage.cluster_near_dup_documents(docs))
    calls = []
    cogroup = linkage.cogroup
    monkeypatch.setattr(linkage, "cogroup",
                        lambda *a, **k: calls.append(1) or cogroup(*a, **k))
    monkeypatch.setattr(linkage, "DRIVER_VERIFY_LIMIT", 0)
    scale = _clusters(linkage.cluster_near_dup_documents(docs))
    assert len(calls) == 2
    assert scale == driver
    m = dict(driver)
    assert m["d1"] == "d1" and m["d3"] == "d2"


@pytest.mark.parametrize("rows", [range(8), range(4, 8)], ids=["pairs", "no-pairs"])
def test_short_doc_is_a_singleton_on_both_paths(rows):
    """A doc shorter than ``shingle_n`` words has no MinHash rows and
    no candidate pair; it is still a node of both clustering paths,
    also in a corpus without any candidate pair."""
    from deezymatch_ray.pipelines import linkage

    docs = ray.data.from_arrow(_near_dup_corpus().take(list(rows)))
    got = [_clusters(linkage.cluster_near_dup_documents(docs, distributed_cc=d))
           for d in (False, True)]
    assert got[0] == got[1]
    assert len(got[0]) == len(rows) and ("d4", "d4") in got[0]


def test_driver_path_reads_its_input_twice(tmp_path):
    """The band walk and the doc pass read the docs; verify, clustering
    and the caller's read of the result read them no more."""
    from deezymatch_ray.pipelines import linkage

    log = tmp_path / "reads"

    def mark(batch: pa.Table) -> pa.Table:
        with open(log, "a") as f:
            f.write("read\n")
        return batch

    docs = ray.data.from_arrow(_near_dup_corpus()).map_batches(
        mark, batch_format="pyarrow", batch_size=None)
    got = _clusters(linkage.cluster_near_dup_documents(docs))
    assert len(log.read_text().splitlines()) == 2
    assert dict(got)["d3"] == "d2"


def test_link_distributed_path_matches_driver_path():
    """link clusters the same partition on both paths; its nodes are
    the id column of the wide prepared side."""
    from deezymatch_ray.data.synth import make_documents
    from deezymatch_ray.pipelines.linkage import link_documents

    docs, _ = make_documents(60, seed=3)
    ds = ray.data.from_arrow(docs)
    got = [_clusters(link_documents(ds, distributed_cc=d)) for d in (False, True)]
    assert got[0] == got[1]
    assert len(got[0]) == 60
    assert len({c for _, c in got[0]}) < 60



@pytest.mark.parametrize("distributed", [False, True], ids=["driver", "distributed"])
def test_cluster_ignores_duplicate_edges(distributed):
    """``_cluster`` given every edge twice (as a driver-side table) or
    three times (as a Dataset), in shuffled order, returns the partition
    of the deduplicated edges: link's edge step leaves the copies of a
    pair that fall in different walk calls."""
    from deezymatch_ray.pipelines.linkage import _cluster

    rng = np.random.default_rng(11)
    ids = [f"n{i:03d}" for i in range(60)]
    pairs = sorted({tuple(sorted(rng.choice(ids, 2, replace=False))) for _ in range(45)})
    nodes = ray.data.from_arrow(pa.table({"id": ids})).materialize()
    want = sorted(connected_components_driver(pairs, ids).items())
    assert len({c for _, c in want}) < len(ids)  # some nodes linked
    for k, as_table in ((2, True), (3, False)):
        rep = [pairs[i] for i in rng.permutation(np.repeat(np.arange(len(pairs)), k))]
        t = pa.table({"src": [a for a, _ in rep], "dst": [b for _, b in rep]})
        got = _cluster(t if as_table else ray.data.from_arrow(t), nodes, "id",
                       distributed, 10_000, 30)
        assert _clusters(got) == want, (k, as_table)


def test_non_convergence_raises_instead_of_splitting():
    n = 64
    ids = [f"c{i:04d}" for i in range(n)]
    pairs = [(ids[i], ids[i + 1]) for i in range(n - 1)]
    with pytest.raises(RuntimeError, match="did not converge"):
        connected_components_distributed(
            _edges_ds(pairs), max_rounds=1, num_partitions=8
        )


def test_giant_star_component_salted_and_exact():
    """r4 VERDICT #2 (the last named scale-killer): one ~10⁵-edge star
    component must flow through the distributed path with its hot node
    AND its collapsing hot label salted (bounded per-partition rows ≈
    max_hot/P instead of the component size), and the assignment must
    equal driver union-find exactly. A chain hangs off one leaf so the
    round count still exercises pointer doubling."""
    n = 100_000
    center = f"n{n // 2:07d}"  # center is NOT the min id → labels move
    ids = [f"n{i:07d}" for i in range(n)]
    pairs = [(center, x) for x in ids if x != center]
    chain = [f"c{j:03d}" for j in range(30)]
    pairs += list(zip(chain, chain[1:])) + [(ids[0], chain[0])]
    want = connected_components_driver(pairs)
    assert len(set(want.values())) == 1  # one giant component

    stats: dict = {}
    got = connected_components_distributed(
        _edges_ds(pairs), num_partitions=8, hot_key_threshold=2_000,
        stats=stats,
    ).to_pandas()
    # the static degree census caught the hub; the per-round label
    # census caught the collapsing component label at least once
    assert stats["hot_nodes"] >= 1
    assert stats["hot_label_rounds"] >= 1
    assert stats["max_hot_label_count"] >= n - 1
    assert stats["salt_width"] > 1
    got_map = dict(zip(got.doc_id, got.cluster_id))
    assert len(got_map) == len(want)
    assert got_map == want


def test_salting_helpers_invariants():
    """Unit pins for the skew machinery: census exactness, fact-salt
    bounds, dim replication multiplicity, and salted-join equivalence
    with the plain join, both through ``cogroup``."""
    import pyarrow as pa

    from deezymatch_ray.stages.blocking import cogroup, inner_join
    from deezymatch_ray.stages.clustering import (
        _hot_keys,
        _salt_dim,
        _salt_fact,
    )

    R = 3
    fact = ray.data.from_arrow(pa.table({
        "k": pa.array(["h"] * 10 + ["c1", "c2", "c3"]),
        "v": pa.array(list(range(13)), type=pa.int64()),
    }))
    dim = ray.data.from_arrow(pa.table({
        "k": pa.array(["h", "c1", "c2", "c3"]),
        "lab": pa.array(["H", "A", "B", "C"]),
    }))
    hot = _hot_keys(fact, "k", 5)
    assert hot == {"h": 10}
    assert _hot_keys(fact, "k", 11) == {}

    sf = pa.concat_tables(
        _salt_fact(fact, "k", set(hot), R).iter_batches(batch_format="pyarrow")
    ).to_pandas()
    assert len(sf) == 13
    assert (sf.loc[sf["k"] != "h", "__salt"] == 0).all()
    assert set(sf.loc[sf["k"] == "h", "__salt"]) == {0, 1, 2}

    sd = pa.concat_tables(
        _salt_dim(dim, "k", set(hot), R).iter_batches(batch_format="pyarrow")
    ).to_pandas()
    assert len(sd) == 3 + R  # cold rows once, hot row replicated R times
    assert sorted(sd.loc[sd["k"] == "h", "__salt"]) == [0, 1, 2]
    assert (sd.loc[sd["k"] != "h", "__salt"] == 0).all()

    # salted co-group ≡ plain co-group (same (k, v, lab) rows)
    def rows(ds):
        t = pa.concat_tables(ds.iter_batches(batch_format="pyarrow", batch_size=None))
        return sorted(zip(t["k"].to_pylist(), t["v"].to_pylist(), t["lab"].to_pylist()))

    plain = rows(cogroup(fact, dim, ["k"], inner_join(["k"]), 8))
    on = ["k", "__salt"]
    salted = rows(cogroup(_salt_fact(fact, "k", set(hot), R),
                          _salt_dim(dim, "k", set(hot), R), on, inner_join(on), 8))
    assert salted == plain
    assert len(plain) == 13
