"""Checkpoint/resume + lineage (FIXTURES.md kill-and-resume contract):
a stage re-run is a no-op on completed partitions, an interrupted run
re-executes exactly the missing partitions, and the final output is
identical either way."""

from __future__ import annotations

import os
import shutil

import pyarrow as pa
import pytest
import ray.data

from deezymatch_ray.state.checkpoint import (
    load_manifest,
    read_stage_output,
    run_stage,
)


def _docs(n=100):
    return ray.data.from_arrow(pa.table({
        "doc_id": pa.array([f"d-{i:04d}" for i in range(n)]),
        "text": pa.array([f"text number {i} " + "x" * (i % 7) for i in range(n)]),
    }))


def _stage(ds: ray.data.Dataset) -> ray.data.Dataset:
    def fn(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table({
            "doc_id": batch["doc_id"],
            "n_chars": pc.utf8_length(batch["text"]).cast(pa.int64()),
        })

    return ds.map_batches(fn, batch_format="pyarrow")


@pytest.fixture()
def out_dir(tmp_path):
    return str(tmp_path / "stage_out")


def test_run_writes_partitions_manifest_and_lineage(out_dir):
    ran = run_stage(_docs(), _stage, out_dir, "n_chars", "doc_id", n_partitions=8)
    assert ran == list(range(8))
    m = load_manifest(out_dir)
    assert set(m) == set(range(8))
    for row in m.values():
        assert row["stage"] == "n_chars"
        assert row["rows_in"] == row["rows_out"] > 0
        assert "input_fingerprint" in row and "wall_ms" in row
    assert sum(r["rows_in"] for r in m.values()) == 100
    out = read_stage_output(out_dir).to_pandas().sort_values("doc_id")
    assert len(out) == 100
    assert out["n_chars"].tolist() == [
        len(f"text number {i} " + "x" * (i % 7)) for i in range(100)
    ]


def test_rerun_is_noop_and_resume_runs_only_missing(out_dir):
    run_stage(_docs(), _stage, out_dir, "n_chars", "doc_id", n_partitions=8)
    before = read_stage_output(out_dir).to_pandas().sort_values("doc_id").reset_index(drop=True)
    # completed run → no partition re-executes
    assert run_stage(_docs(), _stage, out_dir, "n_chars", "doc_id", n_partitions=8) == []
    # simulate a crash that lost partition 3's done-marker and data
    os.remove(os.path.join(out_dir, "_manifest", "part-00003.json"))
    shutil.rmtree(os.path.join(out_dir, "part=3"))
    ran = run_stage(_docs(), _stage, out_dir, "n_chars", "doc_id", n_partitions=8)
    assert ran == [3]
    after = read_stage_output(out_dir).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert before.equals(after)


def test_changed_input_invalidates_only_touched_partitions(out_dir):
    run_stage(_docs(100), _stage, out_dir, "n_chars", "doc_id", n_partitions=8)
    # adding rows changes the fingerprint only of the buckets they hash to
    ran = run_stage(_docs(110), _stage, out_dir, "n_chars", "doc_id", n_partitions=8)
    assert 0 < len(ran) <= 8
    out = read_stage_output(out_dir).to_pandas()
    assert len(out) == 110


def test_content_edit_invalidates_touched_partition(out_dir):
    """Regression (round-2 ADVICE): same row membership but edited
    payload must re-run the touched partition — the fingerprint covers
    row content, not just the key column."""
    run_stage(_docs(50), _stage, out_dir, "n_chars", "doc_id", n_partitions=8)

    def edited(n=50):
        t = _docs(n).to_pandas()
        t.loc[t.doc_id == "d-0007", "text"] = "totally different content"
        return ray.data.from_arrow(pa.Table.from_pandas(t, preserve_index=False))

    ran = run_stage(edited(), _stage, out_dir, "n_chars", "doc_id", n_partitions=8)
    assert len(ran) == 1  # exactly the bucket holding d-0007
    out = read_stage_output(out_dir).to_pandas()
    assert out.loc[out.doc_id == "d-0007", "n_chars"].iloc[0] == len(
        "totally different content"
    )


def test_link_documents_checkpoint_resume(tmp_path):
    """Kill-and-resume on the flagship: a lost partition re-embeds and
    the final cluster assignment is identical to the uninterrupted run."""
    import shutil

    from deezymatch_ray.data.synth import write_documents
    from deezymatch_ray.pipelines.linkage import link_documents
    from deezymatch_ray.sources.spans import read_documents
    from deezymatch_ray.state.checkpoint import load_manifest

    src = write_documents(str(tmp_path / "docs"), 150, seed=17)
    ds = read_documents(f"{src}/documents_spans.parquet")
    ck = str(tmp_path / "ckpt")
    a = link_documents(ds, checkpoint_dir=ck).to_pandas().sort_values("doc_id").reset_index(drop=True)
    m = load_manifest(ck)
    assert len(m) == 16 and all(r["stage"] == "embed_leg" for r in m.values())
    # simulate crash: lose one partition's marker + data
    os.remove(os.path.join(ck, "_manifest", "part-00005.json"))
    shutil.rmtree(os.path.join(ck, "part=5"), ignore_errors=True)
    b = link_documents(ds, checkpoint_dir=ck).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert a.equals(b)


def test_link_documents_re_embeds_a_stale_checkpoint(tmp_path):
    """A checkpoint whose embed partitions carry no pooled legs (written
    by an older embed stage, under the stage name "embed") is
    re-embedded on resume, not read; link with that checkpoint, with a
    fresh one and without one gives the same partition."""
    from deezymatch_ray.data.synth import write_documents
    from deezymatch_ray.pipelines.linkage import (
        docs_with_join_text,
        get_or_train_default_model,
        link_documents,
        load_model_artifacts,
    )
    from deezymatch_ray.sources.spans import read_documents
    from deezymatch_ray.stages.ranking import prepare_side

    src = write_documents(str(tmp_path / "docs"), 150, seed=23)
    ds = read_documents(f"{src}/documents_spans.parquet")
    weights_ref, vocab_ref, meta, cfg = load_model_artifacts(get_or_train_default_model())
    ck = str(tmp_path / "ckpt")
    run_stage(docs_with_join_text(ds),
              lambda part: prepare_side(part, cfg, weights_ref, vocab_ref, meta,
                                        "doc_id", "join_text"),
              ck, "embed", "doc_id", n_partitions=16)
    assert "leg" not in read_stage_output(ck).schema().names

    def run(**kw):
        out = link_documents(ds, **kw).to_pandas()
        return out.sort_values("doc_id").reset_index(drop=True)

    stale = run(checkpoint_dir=ck)
    m = load_manifest(ck)
    assert len(m) == 16 and all(r["stage"] == "embed_leg" for r in m.values())
    assert "leg" in read_stage_output(ck).schema().names
    plain = run()
    assert plain["cluster_id"].nunique() < len(plain)  # some docs link
    assert stale.equals(plain)
    assert run(checkpoint_dir=str(tmp_path / "fresh")).equals(plain)
