"""Link over documents: the GRU runs once per string (also in the global
ranking plan with predictions on), the block walk is link's one
shuffle, and the edge gate."""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

# surrogates excluded (not encodable)
TEXT = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=16)

# a fresh one-CPU Ray session in which every worker process (and the
# driver) writes one marker file per ``CharGRU.encode`` call, holding
# the call's row count
_COUNT_ENCODES = r"""
import os, sys, uuid
import ray

marks = sys.argv[1]

def count_encoded_rows():
    from deezymatch_ray.model import chargru
    encode = chargru.CharGRU.encode

    def counted(self, x, lens):
        with open(os.path.join(marks, f"{os.getpid()}-{uuid.uuid4().hex}"), "w") as f:
            f.write(str(len(x)))
        return encode(self, x, lens)

    chargru.CharGRU.encode = counted

ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR",
         runtime_env={"worker_process_setup_hook": count_encoded_rows})
count_encoded_rows()
import ray.data
ray.data.DataContext.get_current().enable_progress_bars = False
"""

_EMBED_ONCE = _COUNT_ENCODES + r"""
from deezymatch_ray.data.synth import make_documents
from deezymatch_ray.pipelines.linkage import link_documents

docs, _ = make_documents(int(sys.argv[2]), seed=5)
out = link_documents(ray.data.from_arrow(docs)).to_pandas()
print(len(out), out["cluster_id"].nunique())
"""

_RANK_GLOBAL = _COUNT_ENCODES + r"""
import dataclasses
import pyarrow as pa
from deezymatch_ray.data.synth import make_query_candidates
from deezymatch_ray.pipelines.linkage import get_or_train_default_model, load_model_artifacts
from deezymatch_ray.stages.ranking import rank_global

q, c = make_query_candidates(20, 1000, seed=3)
w, v, meta, cfg = load_model_artifacts(get_or_train_default_model())
cfg = cfg.replace(ranking=dataclasses.replace(
    cfg.ranking, calc_predict=True,
    selection_threshold=meta["suggested_faiss_threshold"]))

def side(t, p):
    return ray.data.from_arrow(pa.table({
        "id": [f"{p}-{i:04d}" for i in range(t.num_rows)], "name": t["name"]}))

rank_global(side(q, "q"), side(c, "c"), cfg, w, v, meta).to_pandas().to_parquet(sys.argv[2])
"""


def _run(script, marks, *args):
    marks.mkdir()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {**os.environ, "PYTHONPATH": root}
    p = subprocess.run([sys.executable, "-c", script, str(marks), *map(str, args)],
                       capture_output=True, text=True, env=env, timeout=600)
    assert p.returncode == 0, p.stderr[-2000:]
    return p.stdout, [int((marks / f).read_text()) for f in os.listdir(marks)]


def test_link_runs_the_gru_once_per_document(tmp_path):
    """Link over N docs runs ``CharGRU.encode`` on exactly N rows in
    total: the embedder emits each doc's pooled leg, and the block walk
    scores the pairs with the siamese head alone."""
    n = 200
    out, counts = _run(_EMBED_ONCE, tmp_path / "marks", n)
    rows, clusters = map(int, out.split()[-2:])
    assert rows == n and clusters < n  # every doc out, some linked
    assert sum(counts) == n, counts


def test_rank_global_runs_the_gru_once_per_string(tmp_path):
    """``rank_global`` with ``calc_predict`` encodes each of its 20 +
    1,000 strings once: the broadcast candidates and the query batches
    carry their pooled legs, and the shortlisted pairs are scored with
    the siamese head alone. Its ``pred_score`` is bit-equal to the
    reference-faithful oracle's full forward."""
    import dataclasses

    import pandas as pd

    from deezymatch_ray.data.synth import make_query_candidates
    from deezymatch_ray.model.chargru import CharGRU, load_weights
    from deezymatch_ray.model.vocab import load_vocab
    from deezymatch_ray.pipelines.linkage import get_or_train_default_model, load_model_artifacts
    from deezymatch_ray.pipelines.oracle import oracle_rank

    _, counts = _run(_RANK_GLOBAL, tmp_path / "marks", tmp_path / "got.parquet")
    assert sum(counts) == 20 + 1000, counts
    got = pd.read_parquet(tmp_path / "got.parquet")

    model_dir = get_or_train_default_model()
    _, _, meta, cfg = load_model_artifacts(model_dir)
    cfg = cfg.replace(ranking=dataclasses.replace(
        cfg.ranking, calc_predict=True,
        selection_threshold=meta["suggested_faiss_threshold"]))
    weights, wmeta = load_weights(os.path.join(model_dir, "model.npz"))
    model = CharGRU(weights, num_layers=wmeta["num_layers"],
                    pooling_mode=wmeta["pooling_mode"])
    q, c = make_query_candidates(20, 1000, seed=3)
    want = oracle_rank(
        [(f"q-{i:04d}", n) for i, n in enumerate(q["name"].to_pylist())],
        [(f"c-{i:04d}", n) for i, n in enumerate(c["name"].to_pylist())],
        model, load_vocab(os.path.join(model_dir, "vocab.parquet")), cfg)
    m = got.merge(want, on=["query_id", "candidate_id"], suffixes=("_g", "_o"))
    assert len(m) == len(got) == len(want) > 0
    assert not m["pred_score_g"].isna().any()
    np.testing.assert_array_equal(m["pred_score_g"].to_numpy().view(np.uint32),
                                  m["pred_score_o"].to_numpy().view(np.uint32))


@pytest.mark.parametrize("seed", [3, 8])
def test_link_runs_one_bucket_map_and_matches_global_dedup(monkeypatch, seed):
    """Link's only shuffle is the block walk (one ``bucket_map`` call):
    its edge step runs inside the walk's bucket call. Its partition
    equals the one built from the walk's pairs through the global
    ``dedup_pairs`` shuffle, the full classical gate and driver
    union-find. The test session has 4 CPUs, so the walk has 4 sort
    ranges and copies of a pair in different ranges reach clustering."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from deezymatch_ray.data.synth import make_documents
    from deezymatch_ray.functions.similarity import jaro_winkler_batch, levenshtein_batch
    from deezymatch_ray.pipelines import linkage
    from deezymatch_ray.stages import blocking, ranking
    from deezymatch_ray.stages.clustering import connected_components_driver

    calls, seen = [], {}
    for mod in (blocking, ranking):
        def counted(*a, _fn=mod.bucket_map, **kw):
            calls.append(a[1])
            return _fn(*a, **kw)
        monkeypatch.setattr(mod, "bucket_map", counted)

    walk_, cluster_ = linkage.blocked_pairs, linkage._cluster

    def walk(*a, **kw):
        seen["walk"] = (a, kw)
        return walk_(*a, **kw)

    def cluster(edges, *a):
        seen["edges"] = linkage._read(edges.materialize(), ["src", "dst"])
        return cluster_(edges, *a)

    monkeypatch.setattr(linkage, "blocked_pairs", walk)
    monkeypatch.setattr(linkage, "_cluster", cluster)
    docs, _ = make_documents(300, seed=seed)
    got = linkage.link_documents(ray.data.from_arrow(docs)).to_pandas()
    assert calls == [["block_key"]]
    monkeypatch.undo()

    a, kw = seen["walk"]
    t = linkage._read(ranking.dedup_pairs(walk_(*a, **kw)).materialize(),
                      ["query_id", "query", "candidate_id", "candidate", "pred_score"])
    meta = linkage.load_model_artifacts(linkage.get_or_train_default_model())[2]
    t = t.filter(pc.greater_equal(t["pred_score"], meta.get("suggested_conf_threshold", 0.95)))
    q, c = t["query"].to_pylist(), t["candidate"].to_pylist()
    agree = ((jaro_winkler_batch(q, c) >= meta.get("edge_jw_gate", 0.75))
             | (levenshtein_batch(q, c) <= meta.get("edge_lev_gate", 2)))
    t = t.filter(pa.array(agree))
    edges = list(zip(t["query_id"].to_pylist(), t["candidate_id"].to_pylist()))
    ids = linkage._read(a[0], ["id"])["id"].to_pylist()
    assert sorted(got.itertuples(index=False, name=None)) == sorted(
        connected_components_driver(edges, ids).items())

    e = seen["edges"]
    rows = list(zip(e["src"].to_pylist(), e["dst"].to_pylist()))
    assert set(rows) == set(edges)
    assert len(rows) > len(edges)  # cross-range copies were exercised


@settings(max_examples=150, deadline=None)
@given(pairs=st.lists(st.tuples(TEXT, TEXT), max_size=12), lev_gate=st.integers(0, 6),
       jw_gate=st.one_of(st.floats(0.0, 1.0), st.sampled_from([-1.0, 2.0])))
def test_classical_gate_equals_the_full_or(pairs, jw_gate, lev_gate):
    """The gate equals both metrics over every pair, OR-ed, with
    Levenshtein run only on the pairs Jaro-Winkler rejects: on empty
    and non-ASCII strings, and when every (-1) or no (2) pair passes
    Jaro-Winkler."""
    from deezymatch_ray.functions.similarity import jaro_winkler_batch, levenshtein_batch
    from deezymatch_ray.pipelines.linkage import classical_gate

    q, c = [a for a, _ in pairs], [b for _, b in pairs]
    want = (jaro_winkler_batch(q, c) >= jw_gate) | (levenshtein_batch(q, c) <= lev_gate)
    np.testing.assert_array_equal(classical_gate(q, c, jw_gate, lev_gate), want)


# a fresh one-CPU Ray session: the join query and distributed clustering
# run their co-groups to completion (Ray's hash join gave no result on
# one CPU); argv: marks dir (unused), sf dir, output parquet
_ONE_CPU = r"""
import sys
import numpy as np
import pyarrow as pa
import ray

ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")
import ray.data
ray.data.DataContext.get_current().enable_progress_bars = False
from deezymatch_ray.pipelines.analysis import q_top_customers
from deezymatch_ray.stages.clustering import (
    connected_components_distributed, connected_components_driver)

q_top_customers(sys.argv[2]).to_parquet(sys.argv[3])
n = 20_000
rng = np.random.default_rng(7)
src, dst = rng.integers(0, n, 8_000), rng.integers(0, n, 8_000)
keep = src != dst
edges = pa.table({"src": src[keep], "dst": dst[keep]})
got = connected_components_distributed(
    ray.data.from_arrow(edges),
    nodes=ray.data.from_arrow(pa.table({"doc_id": np.arange(n)}))).to_pandas()
want = connected_components_driver(list(zip(src[keep].tolist(), dst[keep].tolist())),
                                   list(range(n)))
assert dict(zip(got.doc_id.tolist(), got.cluster_id.tolist())) == want
print(len(got), len(set(want.values())))
"""


def test_cogroup_sites_complete_on_one_cpu(tmp_path):
    """On a one-CPU cluster ``q_top_customers`` returns the rows of this
    four-CPU session, and distributed clustering of a 20,000-node graph
    equals driver union-find."""
    import pandas as pd

    from deezymatch_ray.pipelines.analysis import q_top_customers
    from test_entry_contract import SF

    out, _ = _run(_ONE_CPU, tmp_path / "marks", SF, tmp_path / "top.parquet")
    rows, clusters = map(int, out.split()[-2:])
    assert rows == 20_000 and 1 < clusters < rows
    pd.testing.assert_frame_equal(pd.read_parquet(tmp_path / "top.parquet"),
                                  q_top_customers(SF).reset_index(drop=True))
