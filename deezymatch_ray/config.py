"""Engine configuration.

Mirrors the declarative surface of the reference's YAML config
(``/root/reference/inputs/input_dfm.yaml``, loaded at
``DeezyMatch/utils.py:514-560``) as a typed dataclass tree, with the
Ray-specific execution knobs (concurrency, batch sizes, blocking/skew
policy) that the reference — a single-process library — does not have.

Defaults follow the reference YAML defaults so that a user switching over
gets the same preprocessing/tokenization/model semantics out of the box.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class PreprocessingConfig:
    """Reference: ``preprocessing:`` block (input_dfm.yaml:9-21)."""

    uni2ascii: bool = True
    lowercase: bool = True
    strip: bool = True
    only_latin_letters: bool = False
    # Row is kept iff (chars found in vocab) / (total chars) >= threshold
    # (data_processing.py:196-212).
    missing_char_threshold: float = 0.5


@dataclass(frozen=True)
class TokenizationConfig:
    """Reference: ``gru_lstm.mode:`` block (input_dfm.yaml:26-44)."""

    tokenize: tuple[str, ...] = ("char", "ngram")
    prefix_suffix: tuple[str, str] = ("<", ">")
    min_gram: int = 2
    max_gram: int = 3
    token_sep: str = "default"
    max_seq_len: int = 120


@dataclass(frozen=True)
class ModelConfig:
    """Reference: ``gru_lstm:`` block (input_dfm.yaml:24-91)."""

    main_architecture: str = "gru"  # rnn | gru | lstm
    bidirectional: bool = True
    num_layers: int = 2
    embedding_dim: int = 60
    rnn_hidden_dim: int = 60
    fc1_out_dim: int = 120
    output_dim: int = 2
    pooling_mode: str = "hstates_layers_simple"
    rnn_dropout: float = 0.01
    fc_dropout: tuple[float, float] = (0.01, 0.01)
    att_dropout: tuple[float, float] = (0.01, 0.01)
    bias: bool = True
    learning_rate: float = 0.001
    epochs: int = 5
    batch_size: int = 256
    dl_shuffle: bool = True
    random_seed: int = 123
    early_stopping_patience: int = -1
    validation: int = 1
    train_proportion: float = 0.7
    val_proportion: float = 0.15
    test_proportion: float = 0.15
    layers_to_freeze: tuple[str, ...] = ("emb", "rnn_1", "attn")


@dataclass(frozen=True)
class BlockingConfig:
    """Blocking-stage policy (no reference equivalent: the reference's
    candidate_ranker brute-forces a global faiss index,
    candidateRanker.py:361-364; blocking is our scale path)."""

    # q-gram size for blocking keys, derived from the *bounded* normalized
    # string (same bounding as tokenization, utils.py:113-117).
    qgram: int = 3
    use_phonetic: bool = True
    # Blocks with more than this many members on one side are salted into
    # ceil(n / salt_target) sub-blocks (skew control; SURVEY §4).
    max_block_size: int = 512
    # Hard cap on pairs generated per unsalted block (salted tiles are
    # exempt); a block over this or max_block_size is skipped with a
    # warning naming it, never silently.
    max_pairs_per_block: int = 262_144
    # Self-join blocks larger than max_block_size are tile-salted into up
    # to this many groups (s(s+1)/2 tiles); blocks needing more tiles are
    # dropped with one driver-side warning (keys and rows dropped).
    # sized so the largest salvageable hot block matches the round-1
    # rule (tiles are now targeted at max_block_size/2 for cap headroom,
    # which doubles the tile count per block — 64 tiles × cap/2 keeps
    # the same ~max_block_size×32 member ceiling before a block drops)
    salt_max_tiles: int = 64
    # the hot-key census sums its per-batch (block_key, n) partials on
    # the driver up to this many partial rows, the rows it reads; past
    # it a Ray aggregate does (its fixed shuffle cost dwarfs small work)
    driver_census_limit: int = 5_000_000
    salt_hot_blocks: bool = True


@dataclass(frozen=True)
class RankingConfig:
    """Reference: candidate_ranker arguments (candidateRanker.py:186-295)."""

    ranking_metric: str = "faiss"  # faiss | cosine | conf
    selection_threshold: float = 10.0
    num_candidates: int = 10
    length_diff: int | None = None
    calc_predict: bool = False
    calc_cosine: bool = False
    # Pair-dedup key for the final selection. "candidate_id" (default)
    # keeps one row per (query_id, candidate_id); "candidate_string" is
    # the reference-parity mode that ALSO collapses duplicate candidate
    # SPELLINGS to the lowest-metric row (candidateRanker.py:483-492
    # dedups on s2_orig, so two ids sharing one name yield one row).
    # Parity is exact for ranking_metric="faiss" only: the reference
    # keeps the first duplicate in faiss-walk L2 order, which matches
    # keep-lowest-(metric, id) only when the metric IS faiss L2.
    dedup_on: str = "candidate_id"  # candidate_id | candidate_string


@dataclass(frozen=True)
class ExecutionConfig:
    """Ray Data execution knobs — per-stage sizing."""

    # rows per model call (embedder and pair scorer). 256 won the
    # round-3 pair-scoring A/B (~15% faster on one core than 512+: the
    # GRU's per-leg gate tensor, B·T·3H floats, stays cache-resident)
    # and is the value bench.py runs. On link (1,000 docs, one core)
    # 1024 ran 0.4-1.4 s faster per job, also inside the benchmark's
    # RSS bound; 4096 was not (BASELINE.md §Scorer batch size)
    score_batch_size: int = 256
    # Read only by perfbench's single_pass probe, which builds an actor
    # pool of PairScorer with these (min, max) bounds; the library runs
    # every stage as tasks and never reads it.
    score_concurrency: tuple[int, int] = (1, 8)
    # hash-bucket count for fine-keyed groupbys (block keys, query ids,
    # pair dedup, band keys). It is not the shuffle width: bucket_map
    # cuts [0, this) into min(this, cluster CPUs) ranges and makes one
    # UDF call per range (blocking.bucket_map).
    shuffle_partitions: int = 64
    # union-find on the driver only when BOTH edge and node counts fit
    # under this (a huge corpus with few duplicate edges must still
    # cluster distributed — the driver path take_all()s every node id)
    cluster_driver_edge_limit: int = 2_000_000
    cluster_max_rounds: int = 50
    # partitions for the resumable (checkpointed) embedding stage
    checkpoint_partitions: int = 16


@dataclass(frozen=True)
class EngineConfig:
    preprocessing: PreprocessingConfig = field(default_factory=PreprocessingConfig)
    tokenization: TokenizationConfig = field(default_factory=TokenizationConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    blocking: BlockingConfig = field(default_factory=BlockingConfig)
    ranking: RankingConfig = field(default_factory=RankingConfig)
    execution: ExecutionConfig = field(default_factory=ExecutionConfig)

    def replace(self, **kwargs: Any) -> "EngineConfig":
        return dataclasses.replace(self, **kwargs)


DEFAULT_CONFIG = EngineConfig()


def from_yaml(path: str) -> EngineConfig:
    """S3: load a reference-style YAML config (input_dfm.yaml layout,
    read by the reference at utils.py:514-560) into the typed tree.
    Unknown keys are ignored; learning rate is coerced to float exactly
    like the reference (utils.py:524-526)."""
    import yaml

    with open(path) as f:
        raw = yaml.safe_load(f) or {}
    gl = raw.get("gru_lstm", {})
    prep_raw = raw.get("preprocessing", {})
    mode = gl.get("mode", {})
    tokenize = mode.get("tokenize") or ["char"]
    prefix_suffix = mode.get("prefix_suffix") or ["<", ">"]
    prep = PreprocessingConfig(
        uni2ascii=bool(prep_raw.get("uni2ascii", True)),
        lowercase=bool(prep_raw.get("lowercase", True)),
        strip=bool(prep_raw.get("strip", True)),
        only_latin_letters=bool(prep_raw.get("only_latin_letters", False)),
        missing_char_threshold=float(
            prep_raw.get("missing_char_threshold", 0.5)),
    )
    tok = TokenizationConfig(
        tokenize=tuple(tokenize),
        prefix_suffix=tuple(prefix_suffix) if len(prefix_suffix) == 2 else ("", ""),
        min_gram=int(mode.get("min_gram", 2)),
        max_gram=int(mode.get("max_gram", 3)),
        token_sep=mode.get("token_sep", "default"),
        max_seq_len=int(gl.get("max_seq_len", 120)),
    )
    fc_dropout = gl.get("fc_dropout", [0.01, 0.01])
    att_dropout = gl.get("att_dropout", [0.01, 0.01])
    model = ModelConfig(
        main_architecture=gl.get("main_architecture", "gru"),
        bidirectional=bool(gl.get("bidirectional", True)),
        num_layers=int(gl.get("rnn_n_layers", 2)),
        embedding_dim=int(gl.get("embedding_dim", 60)),
        rnn_hidden_dim=int(gl.get("rnn_hidden_dim", 60)),
        fc1_out_dim=int(gl.get("fc1_out_dim", 120)),
        output_dim=int(gl.get("rnn_output_dim", 2)),
        pooling_mode=gl.get("pooling_mode", "hstates_layers_simple"),
        rnn_dropout=float(gl.get("rnn_dropout", 0.01)),
        fc_dropout=tuple(float(x) for x in fc_dropout),
        att_dropout=tuple(float(x) for x in att_dropout),
        bias=bool(gl.get("bias", True)),
        learning_rate=float(gl.get("learning_rate", 0.001)),
        epochs=int(gl.get("epochs", 5)),
        batch_size=int(gl.get("batch_size", 256)),
        dl_shuffle=bool(gl.get("dl_shuffle", True)),
        random_seed=int(gl.get("random_seed", 123)),
        early_stopping_patience=int(gl.get("early_stopping_patience", -1)),
        validation=int(gl.get("validation", 1)),
        train_proportion=float(gl.get("train_proportion", 0.7)),
        val_proportion=float(gl.get("val_proportion", 0.15)),
        test_proportion=float(gl.get("test_proportion", 0.15)),
        layers_to_freeze=tuple(gl.get("layers_to_freeze", [])),
    )
    return EngineConfig(preprocessing=prep, tokenization=tok, model=model)
