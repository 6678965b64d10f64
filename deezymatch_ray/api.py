"""Reference-parity module API.

The reference exports exactly ``train, finetune, inference, combine_vecs,
candidate_ranker, candidate_ranker_init, plot_log``
(DeezyMatch/__init__.py:1-7). This module provides the same seven names
with Ray-native semantics so a user of the reference can switch; data
moves as ``ray.data.Dataset``s instead of files, and artifacts are
npz/parquet instead of pickle.

Mapping (SURVEY §3):

- ``train`` / ``finetune``: pair preparation (tokenize, vocab, split)
  runs as Ray pipelines; the epoch loop runs on the driver (the model is
  tiny — vocab×E embedding + 2×H bi-GRU — and the reference's loop is a
  single device too, DeezyMatch.py:36-268). Artifacts land in
  ``models/<name>/`` like the reference (DeezyMatch.py:100-108).
- ``inference``: mode="test" scores labeled pairs (pred TSV writer S6 →
  ``write_parquet``) and returns (Dataset, metrics); mode="vect" emits
  the embedding column (T3).
- ``combine_vecs``: the reference merges per-batch tensor shards
  (combineVecs.py:30-153); our embeddings already co-travel as one
  Arrow column, so this is a thin materialize/persist for API parity.
- ``candidate_ranker``: rank_global (bit-parity with the reference's
  global faiss scan) or rank_blocked (the scale path).
- ``candidate_ranker_init``: returns a reusable closure like the
  reference's class wrapper (candidateRanker.py:62-182).
- ``plot_log``: matplotlib rendering is out of engine scope — raises
  with a pointer to the metrics table it would plot.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Any

import numpy as np
import ray
import ray.data

from deezymatch_ray.config import DEFAULT_CONFIG, EngineConfig
from deezymatch_ray.functions.metrics import classification_metrics, confusion_counts, map_score
from deezymatch_ray.functions.text import encode_strings, normalize_string
from deezymatch_ray.model.chargru import init_weights, load_weights, save_weights
from deezymatch_ray.model.train import SiameseTrainer, fit
from deezymatch_ray.model.vocab import load_vocab, save_vocab
from deezymatch_ray.pipelines.linkage import load_model_artifacts
from deezymatch_ray.sources.pairs import read_pairs_tsv, stratified_split
from deezymatch_ray.stages.ranking import rank_blocked, rank_global
from deezymatch_ray.stages.scoring import Embedder, PairScorer


def _as_pairs_ds(pairs: Any, one_column: bool = False) -> ray.data.Dataset:
    if isinstance(pairs, ray.data.Dataset):
        return pairs
    if isinstance(pairs, str):
        if pairs.endswith(".parquet"):
            return ray.data.read_parquet(pairs)
        return read_pairs_tsv(pairs, one_column=one_column)
    raise TypeError(f"pairs must be a Dataset or path, got {type(pairs)}")


def _collect_encoded(pairs: ray.data.Dataset, tok2index, cfg: EngineConfig):
    """Materialize (x1, l1, x2, l2, y) arrays for the driver-side epoch
    loop. Normalization/validation already ran distributed; this is the
    one deliberate driver materialization (training set ≪ corpus)."""
    import pyarrow as pa

    tbl = pa.concat_tables(pairs.iter_batches(batch_format="pyarrow"))
    prep, tok = cfg.preprocessing, cfg.tokenization
    s1 = [normalize_string(s, prep.uni2ascii, prep.lowercase, prep.strip,
                           prep.only_latin_letters) for s in tbl["s1"].to_pylist()]
    s2 = [normalize_string(s, prep.uni2ascii, prep.lowercase, prep.strip,
                           prep.only_latin_letters) for s in tbl["s2"].to_pylist()]
    y = np.asarray(tbl["label"].to_pylist(), dtype=np.int64)
    enc = lambda S: encode_strings(
        S, tok2index, tokenize=tok.tokenize, min_gram=tok.min_gram,
        max_gram=tok.max_gram, token_sep=tok.token_sep,
        prefix_suffix=tok.prefix_suffix, max_seq_len=tok.max_seq_len,
        missing_char_threshold=prep.missing_char_threshold,
    )
    x1, l1, v1 = enc(s1)
    x2, l2, v2 = enc(s2)
    keep = v1 & v2  # reference drops rows failing the missing-char filter
    L = max(x1.shape[1], x2.shape[1])
    x1 = np.pad(x1, ((0, 0), (0, L - x1.shape[1])))
    x2 = np.pad(x2, ((0, 0), (0, L - x2.shape[1])))
    return x1[keep], l1[keep], x2[keep], l2[keep], y[keep]


def train(
    pairs: Any,
    model_name: str = "model",
    models_dir: str = "models",
    cfg: EngineConfig = DEFAULT_CONFIG,
    pretrained_model_dir: str | None = None,
    layers_to_freeze: tuple[str, ...] = (),
    log=print,
) -> str:
    """Train (or fine-tune when ``pretrained_model_dir`` is given) the
    siamese model on labeled pairs; returns the model dir."""
    m = cfg.model
    pairs_ds = _as_pairs_ds(pairs)
    split = stratified_split(pairs_ds, train=m.train_proportion,
                             val=m.val_proportion, seed=m.random_seed)
    if pretrained_model_dir:
        weights, _meta = load_weights(os.path.join(pretrained_model_dir, "model.npz"))
        tok2index = load_vocab(os.path.join(pretrained_model_dir, "vocab.parquet"))
        counts = None
    else:
        import pyarrow as pa

        from deezymatch_ray.functions.text import normalize_array
        from deezymatch_ray.model.vocab import build_vocab_distributed

        prep, tok = cfg.preprocessing, cfg.tokenization

        def norm_cols(batch: pa.Table) -> pa.Table:
            return pa.table({
                c: normalize_array(batch[c], prep.uni2ascii, prep.lowercase,
                                   prep.strip, prep.only_latin_letters)
                for c in ("s1", "s2")
            })

        tok2index, counts = build_vocab_distributed(
            pairs_ds.map_batches(norm_cols, batch_format="pyarrow"),
            tokenize=tok.tokenize, min_gram=tok.min_gram,
            max_gram=tok.max_gram, token_sep=tok.token_sep,
            prefix_suffix=tok.prefix_suffix,
        )
        weights = init_weights(
            len(tok2index), m.embedding_dim, m.rnn_hidden_dim,
            num_layers=m.num_layers, bidirectional=m.bidirectional,
            fc1_out_dim=m.fc1_out_dim, output_dim=m.output_dim,
            pooling_mode=m.pooling_mode,
            main_architecture=m.main_architecture, seed=m.random_seed,
        )
    tr_ds = split.filter(expr="split == 'train'")
    va_ds = split.filter(expr="split == 'valid'")
    train_data = _collect_encoded(tr_ds, tok2index, cfg)
    valid_data = _collect_encoded(va_ds, tok2index, cfg)
    trainer = SiameseTrainer(
        weights, num_layers=m.num_layers, bidirectional=m.bidirectional,
        arch=m.main_architecture, pooling_mode=m.pooling_mode,
    )
    history = fit(trainer, train_data,
                  valid_data=valid_data if len(valid_data[-1]) else None,
                  epochs=m.epochs, batch_size=m.batch_size, lr=m.learning_rate,
                  shuffle=m.dl_shuffle, seed=m.random_seed,
                  early_stopping_patience=m.early_stopping_patience,
                  validation_every=m.validation, frozen=layers_to_freeze, log=log)
    model_dir = os.path.join(models_dir, model_name)
    os.makedirs(model_dir, exist_ok=True)
    meta = {
        "num_layers": m.num_layers, "bidirectional": m.bidirectional,
        "arch": m.main_architecture, "pooling_mode": m.pooling_mode,
        "tokenize": list(cfg.tokenization.tokenize),
        "prefix_suffix": list(cfg.tokenization.prefix_suffix),
    }
    save_weights(os.path.join(model_dir, "model.npz"), trainer.w, meta=meta)
    save_vocab(os.path.join(model_dir, "vocab.parquet"), tok2index, counts)
    # S12 log writer: per-epoch history (the reference writes log.txt,
    # utils.py:380-420; json is the structured equivalent plot_log reads)
    import json

    with open(os.path.join(model_dir, "log.json"), "w") as fh:
        json.dump(history, fh)
    return model_dir


def finetune(
    pairs: Any,
    pretrained_model_dir: str,
    model_name: str = "finetuned",
    models_dir: str = "models",
    cfg: EngineConfig = DEFAULT_CONFIG,
    layers_to_freeze: tuple[str, ...] = ("emb", "rnn_1", "attn"),
    log=print,
) -> str:
    """Fine-tune: load pretrained weights+vocab, freeze layers whose
    name contains any entry (rnn_networks.py:216-221), train the rest."""
    return train(pairs, model_name=model_name, models_dir=models_dir,
                 cfg=cfg, pretrained_model_dir=pretrained_model_dir,
                 layers_to_freeze=layers_to_freeze, log=log)


_ORDERED_LOCK = __import__("threading").Lock()


def _materialize_ordered(ds: ray.data.Dataset) -> ray.data.Dataset:
    """Execute ``ds`` with preserve_order=True and return the
    materialized result (for "first N rows" semantics — the flag is
    restored afterwards so other pipelines keep the faster default).

    The flag lives on the process-global DataContext, so the
    set → materialize → restore sequence holds a lock: a concurrent
    pipeline (e.g. checkpoint.run_stage's thread pool) could otherwise
    interleave a restore between our set and materialize and this
    trim would silently execute as an arbitrary-subset "first N". A
    non-ordered materialization that merely observes the flag as True
    meanwhile only loses a little speed, never correctness."""
    from ray.data import DataContext

    with _ORDERED_LOCK:
        opts = DataContext.get_current().execution_options
        prev = opts.preserve_order
        opts.preserve_order = True
        try:
            return ds.materialize()
        finally:
            opts.preserve_order = prev


def inference(
    model_dir: str,
    pairs: Any,
    mode: str = "test",
    cfg: EngineConfig | None = None,
    output_path: str | None = None,
    calc_map: bool = False,
    one_column: bool = False,
    cutoff: int | None = None,
) -> tuple[ray.data.Dataset, dict]:
    """mode="test": score labeled pairs (pred, p0, p1 like the S6 writer)
    → (Dataset, metrics). mode="vect": embedding column per s1 → (Dataset, {}).

    ``cutoff`` mirrors the reference's over-read-then-trim rule
    (data_processing.py:332-335,403): read the first ``2*cutoff`` input
    rows, drop rows that fail the missing-char filter, keep the first
    ``cutoff`` survivors. "First" is INPUT order: Ray's default
    ``preserve_order=False`` would make ``limit`` keep an arbitrary
    subset on multi-block inputs, so the trimmed pipeline executes
    order-preserving and is materialized here (bounded by the cutoff).
    With ``cutoff=None`` (default) every row is scored and invalid rows
    stay in the output flagged (NaN score / emb_valid=False) rather
    than dropped. In test mode the scored set is materialized here, so
    the writer, the metrics and the caller read one execution of the
    scorer."""
    weights_ref, vocab_ref, meta, mcfg = load_model_artifacts(model_dir)
    cfg = (cfg or DEFAULT_CONFIG).replace(tokenization=mcfg.tokenization)
    pairs_ds = _as_pairs_ds(pairs, one_column=one_column)
    if cutoff is not None:
        pairs_ds = pairs_ds.limit(2 * cutoff)
    if mode == "vect":
        import pyarrow as pa

        from deezymatch_ray.functions.text import normalize_array

        def norm(batch: pa.Table) -> pa.Table:
            return pa.table({
                "s1": batch["s1"],
                "norm_text": normalize_array(
                    batch["s1"], cfg.preprocessing.uni2ascii,
                    cfg.preprocessing.lowercase, cfg.preprocessing.strip,
                    cfg.preprocessing.only_latin_letters),
            })

        out = pairs_ds.map_batches(norm, batch_format="pyarrow").map_batches(
            Embedder(weights_ref=weights_ref, vocab_ref=vocab_ref, meta=meta,
                     text_col="norm_text", preprocessing=cfg.preprocessing,
                     tokenization=cfg.tokenization),
            batch_format="pyarrow",
            batch_size=cfg.execution.score_batch_size,
        )
        if cutoff is not None:
            out = _materialize_ordered(
                out.filter(expr="emb_valid == True").limit(cutoff)
            )
        if output_path:
            out.write_parquet(output_path)
        return out, {}
    scored = pairs_ds.map_batches(
        PairScorer(weights_ref=weights_ref, vocab_ref=vocab_ref, meta=meta,
                   s1_col="s1", s2_col="s2", with_classical=False,
                   preprocessing=cfg.preprocessing, tokenization=cfg.tokenization),
        batch_format="pyarrow",
        batch_size=cfg.execution.score_batch_size,
    )

    def finalize(batch):
        import pyarrow as pa
        import pyarrow.compute as pc

        p1 = batch["pred_score"]
        pred = pc.greater_equal(p1, 0.5)
        batch = batch.append_column("pred", pred)
        return batch.append_column("p0", pc.subtract(pa.scalar(1.0, pa.float32()), p1))

    scored = scored.map_batches(finalize, batch_format="pyarrow")
    if cutoff is not None:
        def drop_invalid(batch):
            import pyarrow.compute as pc

            return batch.filter(pc.invert(pc.is_nan(batch["pred_score"])))

        scored = _materialize_ordered(
            scored.map_batches(drop_invalid, batch_format="pyarrow").limit(cutoff)
        )
    else:
        # the scorer runs once: the writer, the metrics and the caller
        # all read this one result
        scored = scored.materialize()
    if output_path:
        scored.write_parquet(output_path)  # S6 writer, parquet not TSV
    metrics: dict = {}
    if "label" in scored.schema().names:
        metrics = classification_metrics(confusion_counts(scored))
        if calc_map:
            metrics["map"] = map_score(scored)
    return scored, metrics


def combine_vecs(embeddings: ray.data.Dataset, output_path: str | None = None) -> ray.data.Dataset:
    """API-parity shim: the reference merges positionally-aligned tensor
    shards (combineVecs.py:30-153); here embeddings are already one Arrow
    column co-traveling with ids, so combining = (optionally) persisting."""
    if output_path:
        embeddings.write_parquet(output_path)
    return embeddings


def candidate_ranker(
    queries: Any,
    candidates: Any,
    model_dir: str,
    ranking_metric: str = "faiss",
    selection_threshold: float = 10.0,
    num_candidates: int = 10,
    length_diff: int | None = None,
    calc_predict: bool = False,
    calc_cosine: bool = False,
    plan: str = "global",
    cfg: EngineConfig | None = None,
    number_test_rows: int = -1,
) -> ray.data.Dataset:
    """The reference's candidate_ranker (candidateRanker.py:186-582):
    long-form (query_id, query, candidate_id, candidate, faiss_dist,
    cosine_dist, pred_score, rank). ``plan="global"`` is bit-parity with
    the reference's global faiss scan for ``ranking_metric="faiss"``
    with unique candidate strings; ``plan="blocked"`` is the
    distributed-scale path (pairs sharing a blocking key).

    Deliberate deviations (rationale in stages/ranking.py header):
    duplicate-NAMED candidates keep one row per candidate id (the
    reference collapses by string, candidateRanker.py:483-492), and the
    ``cosine``/``conf`` metrics return the deterministic threshold
    fixpoint rather than the reference's faiss-window walk, whose break
    condition is non-monotone in walk order."""
    weights_ref, vocab_ref, meta, mcfg = load_model_artifacts(model_dir)
    cfg = (cfg or DEFAULT_CONFIG).replace(tokenization=mcfg.tokenization)
    cfg = cfg.replace(ranking=dataclasses.replace(
        cfg.ranking, ranking_metric=ranking_metric,
        selection_threshold=selection_threshold,
        num_candidates=num_candidates, length_diff=length_diff,
        calc_predict=calc_predict, calc_cosine=calc_cosine))

    def side(x):
        if isinstance(x, ray.data.Dataset):
            return x
        import pyarrow as pa

        if isinstance(x, str):
            ds = read_pairs_tsv(x, one_column=True)
            # one-column files carry the string in s1; synthesize ids
            tbl = pa.concat_tables(ds.iter_batches(batch_format="pyarrow"))
            return ray.data.from_arrow(pa.table({
                "id": pa.array([str(i) for i in range(len(tbl))]),
                "name": tbl["s1"],
            }))
        raise TypeError(type(x))

    q_ds = side(queries)
    if number_test_rows > 0:
        # reference: rank only the FIRST number_test_rows query vectors
        # (candidateRanker.py:355-358) — ordered-limit semantics need
        # preserve_order (see _materialize_ordered)
        q_ds = _materialize_ordered(q_ds.limit(number_test_rows))
    fn = rank_global if plan == "global" else rank_blocked
    return fn(q_ds, side(candidates), cfg, weights_ref, vocab_ref, meta)


def candidate_ranker_init(**fixed_kwargs):
    """Reusable ranker closure (parity with the reference's class
    wrapper, candidateRanker.py:62-182)."""

    def run(**overrides):
        kw = dict(fixed_kwargs)
        kw.update(overrides)
        return candidate_ranker(**kw)

    return run


def _svg_panel(x0, y0, w, h, title, series, colors=("#1f77b4", "#d62728")):
    """One line-chart panel as SVG fragments. ``series``: {label: [y...]}."""
    parts = [
        f'<text x="{x0 + w / 2}" y="{y0 - 6}" text-anchor="middle" '
        f'font-size="12" font-family="sans-serif">{title}</text>',
        f'<rect x="{x0}" y="{y0}" width="{w}" height="{h}" fill="none" '
        f'stroke="#888"/>',
    ]
    vals = [v for ys in series.values() for v in ys if v == v]  # drop NaN
    if not vals:
        return parts
    lo, hi = min(vals), max(vals)
    if hi - lo < 1e-12:
        hi = lo + 1.0
    n_max = max(len(ys) for ys in series.values())
    for ci, (label, ys) in enumerate(series.items()):
        if not ys:
            continue
        pts = []
        for i, v in enumerate(ys):
            px = x0 + (w * i / max(n_max - 1, 1))
            py = y0 + h - h * (v - lo) / (hi - lo)
            pts.append(f"{px:.1f},{py:.1f}")
        c = colors[ci % len(colors)]
        parts.append(
            f'<polyline points="{" ".join(pts)}" fill="none" stroke="{c}" '
            f'stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{x0 + 4}" y="{y0 + 14 + 14 * ci}" font-size="10" '
            f'font-family="sans-serif" fill="{c}">{label}</text>'
        )
    parts.append(
        f'<text x="{x0 - 4}" y="{y0 + 10}" text-anchor="end" font-size="9" '
        f'font-family="sans-serif">{hi:.3g}</text>'
    )
    parts.append(
        f'<text x="{x0 - 4}" y="{y0 + h}" text-anchor="end" font-size="9" '
        f'font-family="sans-serif">{lo:.3g}</text>'
    )
    return parts


def plot_log(path2log: Any, output_name: str | None = None):
    """Reference ``plot_log`` (utils.py:726-965): render the training
    history as the 4-panel figure (loss, accuracy, macro-F1, epoch time)
    and return the per-epoch metrics table.

    Accepts a fit-history dict, a model dir (reads ``log.json`` written
    by ``train``), or a path to a ``log.json``. The figure is written as
    self-contained SVG next to the log (matplotlib is not available in
    this environment); returns a pandas DataFrame of the history.
    """
    import json

    import pandas as pd

    out_svg = None
    if isinstance(path2log, dict):
        history = path2log
        if output_name:
            out_svg = f"{output_name}.svg"
    else:
        p = str(path2log)
        if os.path.isdir(p):
            p = os.path.join(p, "log.json")
        with open(p) as fh:
            history = json.load(fh)
        stem = output_name or os.path.splitext(os.path.basename(p))[0]
        out_svg = os.path.join(os.path.dirname(os.path.abspath(p)), f"{stem}.svg")

    panels = [
        ("loss", {"train": history.get("train_loss", []),
                  "valid": history.get("valid_loss", [])}),
        ("accuracy", {"train": history.get("train_acc", []),
                      "valid": history.get("valid_acc", [])}),
        ("macro F1", {"train": history.get("train_macro_f1", []),
                      "valid": history.get("valid_macro_f1", [])}),
        ("epoch time (s)", {"train": history.get("epoch_sec", [])}),
    ]
    if out_svg:
        W, H, PW, PH = 640, 520, 260, 200
        frags = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}">']
        for i, (title, series) in enumerate(panels):
            x0 = 50 + (i % 2) * (PW + 60)
            y0 = 30 + (i // 2) * (PH + 50)
            frags += _svg_panel(x0, y0, PW, PH, title, series)
        frags.append("</svg>")
        with open(out_svg, "w") as fh:
            fh.write("\n".join(frags))

    n = max((len(v) for v in history.values() if isinstance(v, list)), default=0)
    cols = {"epoch": list(range(1, n + 1))}
    for k, v in history.items():
        if isinstance(v, list):
            cols[k] = v + [float("nan")] * (n - len(v))
    return pd.DataFrame(cols)
