"""Linkage flagship: the GRU runs once per document."""

from __future__ import annotations

import os
import subprocess
import sys

_EMBED_ONCE = r"""
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
from deezymatch_ray.data.synth import make_documents
from deezymatch_ray.pipelines.linkage import link_documents

docs, _ = make_documents(int(sys.argv[2]), seed=5)
out = link_documents(ray.data.from_arrow(docs)).to_pandas()
print(len(out), out["cluster_id"].nunique())
"""


def test_link_runs_the_gru_once_per_document(tmp_path):
    """Link over N docs runs ``CharGRU.encode`` on exactly N rows in
    total: the embedder emits each doc's pooled leg, and the block walk
    scores the pairs with the siamese head alone. Every worker process
    of a fresh one-CPU session (and the driver) writes one marker file
    per encode call, holding the call's row count."""
    n = 200
    marks = tmp_path / "marks"
    marks.mkdir()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {**os.environ, "PYTHONPATH": root}
    p = subprocess.run([sys.executable, "-c", _EMBED_ONCE, str(marks), str(n)],
                       capture_output=True, text=True, env=env, timeout=600)
    assert p.returncode == 0, p.stderr[-2000:]
    rows, clusters = map(int, p.stdout.split()[-2:])
    assert rows == n and clusters < n  # every doc out, some linked
    counts = [int((marks / f).read_text()) for f in os.listdir(marks)]
    assert sum(counts) == n, counts
