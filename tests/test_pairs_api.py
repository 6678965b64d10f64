"""Pair sources, metrics, and the reference-parity module API."""

from __future__ import annotations

import dataclasses

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data

from deezymatch_ray import api
from deezymatch_ray.config import DEFAULT_CONFIG
from deezymatch_ray.functions.metrics import (
    average_precision,
    classification_metrics,
    confusion_counts,
)
from deezymatch_ray.sources.pairs import (
    label_counts,
    parse_pairs_batch,
    read_pairs_tsv,
    stratified_split,
)


def _lines_table(lines):
    return pa.table({"text": pa.array(lines, type=pa.string())})


def test_tsv_parse_reference_semantics(tmp_path):
    """S1 semantics: keep first 3 fields, strip, drop bad labels
    (data_processing.py:45-67)."""
    out = parse_pairs_batch(_lines_table([
        "la dolce vita\tLA DOLCE VITA \tTRUE",
        "a\tb\tfalse\textra\tignored",     # extra cols discarded
        "x\ty\tmaybe",                     # bad label → dropped
        "only two\tfields",                # too few fields → dropped
        "p\tq\t1",
        "p\tq\t0",
    ]))
    assert out["s1"].to_pylist() == ["la dolce vita", "a", "p", "p"]
    assert out["s2"].to_pylist() == ["LA DOLCE VITA", "b", "q", "q"]
    assert out["label"].to_pylist() == [True, False, True, False]


def test_one_column_expansion():
    """M8: (s) → (s, s, true) (data_processing.py:292-296)."""
    out = parse_pairs_batch(_lines_table(["alpha ", "beta"]), one_column=True)
    assert out["s1"].to_pylist() == ["alpha", "beta"]
    assert out["s2"].to_pylist() == ["alpha", "beta"]
    assert out["label"].to_pylist() == [True, True]


def test_read_pairs_tsv_and_label_counts(tmp_path):
    p = tmp_path / "pairs.txt"
    p.write_text("a\tb\ttrue\nc\td\tFalse\ne\tf\ttrue\nbad\trow\tnope\n")
    ds = read_pairs_tsv(str(p))
    assert ds.count() == 3
    assert label_counts(ds) == {True: 2, False: 1}


def test_stratified_split_deterministic_and_proportional():
    n = 4000
    tbl = pa.table({
        "s1": pa.array([f"s{i}" for i in range(n)]),
        "s2": pa.array([f"t{i}" for i in range(n)]),
        "label": pa.array([i % 2 == 0 for i in range(n)]),
    })
    a = stratified_split(ray.data.from_arrow(tbl)).to_pandas()
    b = stratified_split(ray.data.from_arrow(tbl)).to_pandas()
    assert a.sort_values("s1")["split"].tolist() == b.sort_values("s1")["split"].tolist()
    frac = a["split"].value_counts(normalize=True)
    assert abs(frac["train"] - 0.7) < 0.05
    assert abs(frac["valid"] - 0.15) < 0.03
    # stratification: per-label proportions hold too
    for lab in (True, False):
        f = a[a.label == lab]["split"].value_counts(normalize=True)
        assert abs(f["train"] - 0.7) < 0.07


def test_confusion_and_classification_metrics():
    ds = ray.data.from_arrow(pa.table({
        "label": pa.array([True, True, True, False, False, False]),
        "pred": pa.array([True, True, False, False, False, True]),
    }))
    c = confusion_counts(ds)
    assert c == {"tp": 2, "fp": 1, "tn": 2, "fn": 1}
    m = classification_metrics(c)
    assert m["accuracy"] == pytest.approx(4 / 6)
    assert m["precision_pos"] == pytest.approx(2 / 3)
    assert m["recall_pos"] == pytest.approx(2 / 3)
    assert m["macro_f1"] == pytest.approx(2 / 3)


def test_average_precision_matches_manual():
    y = np.array([1, 0, 1, 0], dtype=bool)
    s = np.array([0.9, 0.8, 0.7, 0.1])
    # ranks: pos@1 (P=1), pos@3 (P=2/3) → AP = 0.5*1 + 0.5*(2/3)
    assert average_precision(y, s) == pytest.approx(0.5 + 0.5 * 2 / 3)
    # all-negative → 0 (caller skips these groups)
    assert average_precision(np.zeros(3, dtype=bool), np.arange(3.0)) == 0.0


def test_confusion_counts_executes_its_input_once(tmp_path):
    """The four counts come from one aggregate: the scored input (a
    model stage in api.inference) runs once, not once per count."""
    def mark(batch: pa.Table) -> pa.Table:
        import uuid

        (tmp_path / uuid.uuid4().hex).touch()
        return batch

    tbl = pa.table({
        "label": pa.array([True, True, True, False, False, False]),
        "pred": pa.array([True, True, False, False, False, True]),
    })
    ds = ray.data.from_arrow([tbl.slice(0, 2), tbl.slice(2, 2), tbl.slice(4)])
    c = confusion_counts(ds.map_batches(mark, batch_format="pyarrow"))
    assert c == {"tp": 2, "fp": 1, "tn": 2, "fn": 1}
    assert len(list(tmp_path.iterdir())) == 3  # one marker per block


def test_inference_scores_its_input_once(tiny_model_dir, tmp_path):
    """api.inference(mode="test") runs its scorer once: the metrics and
    the caller's read share one materialized result, so an upstream UDF
    on the input pairs runs once per input batch."""
    d, cfg, pairs = tiny_model_dir

    def mark(batch: pa.Table) -> pa.Table:
        import uuid

        (tmp_path / uuid.uuid4().hex).touch()
        return batch

    tbl = pa.concat_tables(pairs.limit(120).iter_batches(batch_format="pyarrow"))
    ds = ray.data.from_arrow([tbl.slice(0, 40), tbl.slice(40, 40), tbl.slice(80)])
    scored, metrics = api.inference(
        d, ds.map_batches(mark, batch_format="pyarrow"), mode="test", cfg=cfg)
    assert scored.to_pandas().shape[0] == 120
    assert 0.0 <= metrics["macro_f1"] <= 1.0
    assert len(list(tmp_path.iterdir())) == 3  # one marker per input batch


def test_map_does_not_depend_on_row_order_with_nan_scores():
    """NaN scores (PairScorer's invalid legs) are one tie run ranked
    last, so a group's MAP is the same in every arrival order: scores
    0.9+, 0.4-, 0.2-, then NaN with 2 positives and 1 negative give
    AP = 1/3 · 1 + 2/3 · 3/6."""
    from deezymatch_ray.functions.metrics import map_score

    tbl = pa.table({
        "s1": pa.array(["q"] * 6),
        "label": pa.array([True, False, False, True, True, False]),
        "pred_score": pa.array([0.9, 0.4, 0.2, np.nan, np.nan, np.nan]),
    })
    rng = np.random.default_rng(0)
    got = [map_score(ray.data.from_arrow(tbl.take(rng.permutation(6))))
           for _ in range(8)]
    assert len(set(got)) == 1 and got[0] == pytest.approx(2 / 3), got


def _numpy_map(df):
    """MAP recount: per-query AP, skipping queries without a positive
    (utils.py:88-93)."""
    aps = []
    for _, g in df.groupby("s1", sort=False):
        y = g["label"].to_numpy(dtype=bool)
        if y.any():
            aps.append(average_precision(y, g["pred_score"].to_numpy()))
    return float(np.mean(aps))


def test_api_inference_map_matches_numpy_recount(tiny_model_dir):
    """api.inference(calc_map=True) over 320 queries, each with one
    positive, five negatives and a duplicated row, equals a NumPy
    recount of the scored rows."""
    from deezymatch_ray.data.synth import make_labeled_pairs

    d, cfg, _ = tiny_model_dir
    pos = make_labeled_pairs(1200, seed=9).to_pandas()
    pos = pos[pos["label"]].drop_duplicates("s1").head(320)
    assert len(pos) == 320
    s1, s2 = pos["s1"].tolist(), pos["s2"].tolist()
    rows = []
    for i, q in enumerate(s1):
        rows.append((q, s2[i], True))
        rows += [(q, s2[(i + k) % len(s2)], False) for k in range(1, 6)]
        rows.append(rows[-1])
    pairs = pd.DataFrame(rows, columns=["s1", "s2", "label"])
    scored, metrics = api.inference(
        d, ray.data.from_arrow(pa.Table.from_pandas(pairs, preserve_index=False)),
        mode="test", cfg=cfg, calc_map=True)
    df = scored.to_pandas()
    assert len(df) == len(pairs) and df["s1"].nunique() == 320
    # average_precision scores a run of tied scores at its last row, so
    # the recount does not depend on the order a group's rows arrive in
    want = _numpy_map(df)
    assert 0.0 < want < 1.0
    assert metrics["map"] == pytest.approx(want, rel=1e-12)


@pytest.fixture(scope="module")
def tiny_model_dir(tmp_path_factory):
    from deezymatch_ray.data.synth import make_labeled_pairs

    cfg = DEFAULT_CONFIG.replace(
        model=dataclasses.replace(
            DEFAULT_CONFIG.model, embedding_dim=24, rnn_hidden_dim=24,
            fc1_out_dim=32, epochs=12, batch_size=64, learning_rate=3e-3,
        ),
        tokenization=dataclasses.replace(
            DEFAULT_CONFIG.tokenization, tokenize=("char",),
            prefix_suffix=("<", ">"),
        ),
    )
    pairs = ray.data.from_arrow(make_labeled_pairs(1500, seed=5))
    d = api.train(pairs, model_name="tiny",
                  models_dir=str(tmp_path_factory.mktemp("models")),
                  cfg=cfg, log=lambda *a: None)
    return d, cfg, pairs


def test_api_train_inference_roundtrip(tiny_model_dir):
    d, cfg, pairs = tiny_model_dir
    scored, metrics = api.inference(d, pairs, mode="test", cfg=cfg)
    df = scored.to_pandas()
    assert {"s1", "s2", "label", "pred_score", "pred", "p0"} <= set(df.columns)
    assert len(df) > 500
    np.testing.assert_allclose(df["p0"] + df["pred_score"], 1.0, atol=1e-6)
    assert metrics["accuracy"] > 0.65  # tiny model still learns the easy pairs


def test_api_inference_vect_mode(tiny_model_dir):
    d, cfg, pairs = tiny_model_dir
    emb, _ = api.inference(d, pairs.limit(50), mode="vect", cfg=cfg)
    df = emb.to_pandas()
    assert len(df) == 50
    assert len(df["emb"].iloc[0]) == 2 * 24  # fwd ++ bwd


def test_api_inference_cutoff_overread_then_trim(tiny_model_dir):
    """Reference cutoff rule (data_processing.py:332-335,403): read the
    first 2*cutoff rows, drop missing-char failures, keep the first
    cutoff survivors."""
    d, cfg, pairs = tiny_model_dir
    base = pairs.limit(40).to_pandas()
    # poison rows 3 and 7 with chars outside the trained char vocab so
    # they fail the missing-char filter inside the over-read window
    base.loc[3, "s1"] = "好好好好好"
    base.loc[7, "s2"] = "€€€€€€€€"
    poisoned = ray.data.from_arrow(pa.Table.from_pandas(base, preserve_index=False))

    cutoff = 10
    scored, _ = api.inference(d, poisoned, mode="test", cfg=cfg, cutoff=cutoff)
    df = scored.to_pandas()
    assert len(df) == cutoff
    assert df["pred_score"].notna().all()
    # = first `cutoff` valid rows among the first 2*cutoff inputs
    want_s1 = [base.loc[i, "s1"] for i in range(2 * cutoff) if i not in (3, 7)][:cutoff]
    assert df["s1"].tolist() == want_s1

    # vect mode: same rule via emb_valid
    emb, _ = api.inference(d, poisoned, mode="vect", cfg=cfg, cutoff=cutoff)
    assert emb.count() == cutoff

    # determinism on MULTI-block inputs (Ray's default preserve_order=
    # False would let limit() keep an arbitrary subset): repeated runs
    # over a 10-block input must return the same first-N rows
    multi = ray.data.from_arrow(
        pa.Table.from_pandas(base, preserve_index=False)
    ).repartition(10)
    runs = []
    for _ in range(2):
        s, _ = api.inference(d, multi, mode="test", cfg=cfg, cutoff=cutoff)
        runs.append(s.to_pandas()["s1"].tolist())
    assert runs[0] == runs[1] == want_s1


def test_api_candidate_ranker_number_test_rows(tiny_model_dir):
    """candidateRanker.py:355-358: only the first number_test_rows
    queries are ranked."""
    d, cfg, pairs = tiny_model_dir
    from deezymatch_ray.data.synth import make_entity_names

    ent = make_entity_names(12, seed=3)
    names = pa.table({
        "id": pa.array([f"c{i:02d}" for i in range(12)]),
        "name": pa.array(ent),
    })
    cands = ray.data.from_arrow(names)
    out = api.candidate_ranker(cands, cands, d, selection_threshold=1e9,
                               num_candidates=3, cfg=cfg,
                               number_test_rows=4).to_pandas()
    assert set(out["query_id"]) == {f"c{i:02d}" for i in range(4)}


def test_api_finetune_freezes_layers(tiny_model_dir, tmp_path):
    d, cfg, pairs = tiny_model_dir
    from deezymatch_ray.model.chargru import load_weights

    w0, _ = load_weights(f"{d}/model.npz")
    d2 = api.finetune(pairs.limit(200), d, model_name="ft",
                      models_dir=str(tmp_path), cfg=cfg,
                      layers_to_freeze=("emb", "rnn_1"), log=lambda *a: None)
    w1, _ = load_weights(f"{d2}/model.npz")
    assert np.array_equal(w0["emb"], w1["emb"])  # frozen
    assert np.array_equal(w0["rnn_1.W_ih_l0_d0"], w1["rnn_1.W_ih_l0_d0"])
    assert not np.array_equal(w0["fc1.W"], w1["fc1.W"])  # trained


def test_api_candidate_ranker(tiny_model_dir):
    d, cfg, pairs = tiny_model_dir
    from deezymatch_ray.data.synth import make_entity_names

    # letter-only names (digits would be OOV for the char vocab and
    # collapse distinct strings onto one embedding)
    ent = make_entity_names(20, seed=9)
    names = pa.table({
        "id": pa.array([f"c{i:02d}" for i in range(20)]),
        "name": pa.array(ent),
    })
    cands = ray.data.from_arrow(names)
    out = api.candidate_ranker(cands, cands, d, selection_threshold=1e9,
                               num_candidates=3, cfg=cfg).to_pandas()
    top = out[out["rank"] == 1].set_index("query_id")
    for i in range(20):
        assert top.loc[f"c{i:02d}", "candidate_id"] == f"c{i:02d}"  # self-match
        assert top.loc[f"c{i:02d}", "faiss_dist"] < 1e-6


def test_cached_stage_task_pool_matches_actor_pool(tiny_model_dir):
    """PairScorer passed as an instance (task pool + per-worker stage
    cache) must produce identical scores to an actor pool of the
    class."""
    import ray as _ray

    from deezymatch_ray.model.chargru import load_weights
    from deezymatch_ray.model.vocab import load_vocab
    from deezymatch_ray.stages.scoring import PairScorer

    d, cfg, pairs = tiny_model_dir
    w, meta = load_weights(f"{d}/model.npz")
    weights_ref = _ray.put(w)
    vocab_ref = _ray.put(load_vocab(f"{d}/vocab.parquet"))
    kwargs = dict(weights_ref=weights_ref, vocab_ref=vocab_ref, meta=meta,
                  s1_col="s1", s2_col="s2", with_classical=False,
                  preprocessing=cfg.preprocessing, tokenization=cfg.tokenization)
    sub = pairs.limit(64)
    via_actor = sub.map_batches(
        PairScorer, fn_constructor_kwargs=kwargs, batch_format="pyarrow",
        batch_size=16, concurrency=(1, 2),
    ).to_pandas().sort_values("s1").reset_index(drop=True)
    via_task = sub.map_batches(
        PairScorer(**kwargs), batch_format="pyarrow",
        batch_size=16,
    ).to_pandas().sort_values("s1").reset_index(drop=True)
    np.testing.assert_allclose(via_actor["pred_score"], via_task["pred_score"],
                               atol=1e-7)


def test_plot_log_renders_svg_and_returns_table(tiny_model_dir, tmp_path):
    """S12: train writes log.json; plot_log renders the 4-panel figure
    and returns the per-epoch table (reference utils.py:726-965)."""
    import os

    d, cfg, pairs = tiny_model_dir
    assert os.path.exists(os.path.join(d, "log.json"))
    df = api.plot_log(d)
    assert {"epoch", "train_loss", "train_acc"} <= set(df.columns)
    assert len(df) == cfg.model.epochs
    svg = os.path.join(d, "log.svg")
    assert os.path.exists(svg)
    head = open(svg).read(200)
    assert head.startswith("<svg") and "polyline" in open(svg).read()
    # dict input works too
    df2 = api.plot_log({"train_loss": [1.0, 0.5], "train_acc": [0.5, 0.8]})
    assert len(df2) == 2


def test_from_yaml_parses_reference_config():
    """S3: the reference's own shipped YAML loads into the typed tree."""
    from deezymatch_ray.config import from_yaml

    cfg = from_yaml("/root/reference/inputs/input_dfm.yaml")
    assert cfg.tokenization.tokenize == ("char", "ngram")
    assert cfg.tokenization.prefix_suffix == ("<", ">")
    assert cfg.model.main_architecture == "gru"
    assert cfg.model.rnn_hidden_dim == 60
    assert cfg.model.pooling_mode == "hstates_layers_simple"
    assert cfg.model.learning_rate == 0.001
    assert cfg.model.layers_to_freeze == ("emb", "rnn_1", "attn")


def test_build_vocab_distributed_matches_local():
    from deezymatch_ray.model.vocab import build_vocab_distributed, build_vocab_local

    tbl = pa.table({
        "s1": pa.array(["abc", "abd", "xyz"]),
        "s2": pa.array(["abc", "zz", "aøé"]),
    })
    d_idx, d_cnt = build_vocab_distributed(
        ray.data.from_arrow(tbl), tokenize=("char",), prefix_suffix=("<", ">"),
        seed_tokens=["Q"],
    )
    l_idx, l_cnt = build_vocab_local(
        ["abc", "abd", "xyz", "abc", "zz", "aøé"], tokenize=("char",),
        prefix_suffix=("<", ">"), seed_tokens=["Q"],
    )
    assert d_idx == l_idx
    assert d_cnt == l_cnt
    assert "Q" in d_idx  # D3: seed list unioned in
