"""The GRU runs once per string: link over documents, and the global
ranking plan with predictions on."""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np

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
