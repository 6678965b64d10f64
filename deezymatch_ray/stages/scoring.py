"""Stateful scoring stages: embedder and pair scorer.

Both are callable classes passed to ``map_batches`` as INSTANCES, so
they run as ordinary tasks on Ray's warm worker processes:
``ds.map_batches(PairScorer(weights_ref=..., ...), batch_format=
"pyarrow")``. An instance holds only its arguments (object-store refs
to the weights and vocab, meta, configs) and a token; its first call in
a worker process fetches the weights and vocab (a zero-copy plasma
read) and builds the model, which every later task of that stage on the
same worker reuses (``_TASK_STAGE_CACHE``). This is the Ray-native
replacement for the reference's driver-resident model
(rnn_networks.py:1180-1185, candidateRanker.py:315-323).

- ``Embedder`` ≙ inference ``vect`` mode (rnn_networks.py:874-918):
  emits the last layer's final fwd/bwd GRU states as one fixed-size-list
  column — replacing the reference's three positionally-aligned sidecar
  files (combineVecs.py:84-150) with a co-traveling Arrow column.
- ``PairScorer`` ≙ ``candidate_conf_calc`` (utils_candidate_ranker.py:
  88-133): re-tokenizes (s1, s2) pairs and runs the full siamese
  forward, emitting the match probability p1 plus classical
  Levenshtein / Jaro-Winkler baseline scores.
"""

from __future__ import annotations

import uuid

import numpy as np
import pyarrow as pa
import ray

from deezymatch_ray.config import PreprocessingConfig, TokenizationConfig
from deezymatch_ray.functions.similarity import jaro_winkler_batch, levenshtein_batch
from deezymatch_ray.functions.text import encode_strings, normalize_array
from deezymatch_ray.model.chargru import CharGRU


def _fetch(ref_or_val):
    return ray.get(ref_or_val) if isinstance(ref_or_val, ray.ObjectRef) else ref_or_val


# model + vocab per stage token, per worker process. Workers are
# long-lived: without a cap, every pipeline run (fresh token) would
# leak its model weights into the cache.
_TASK_STAGE_CACHE: dict[str, tuple] = {}
_CACHE_CAP = 8


class _ModelStage:
    def __init__(self, weights_ref, vocab_ref, meta: dict,
                 preprocessing: PreprocessingConfig | None = None,
                 tokenization: TokenizationConfig | None = None):
        self.weights_ref = weights_ref
        self.vocab_ref = vocab_ref
        self.meta = meta
        self.prep = preprocessing or PreprocessingConfig()
        self.tok = tokenization or TokenizationConfig()
        self.token = uuid.uuid4().hex

    def _state(self) -> tuple[CharGRU, dict]:
        """(model, tok2index), built on this stage's first call in a
        worker process and reused by its later calls there."""
        state = _TASK_STAGE_CACHE.get(self.token)
        if state is None:
            while len(_TASK_STAGE_CACHE) >= _CACHE_CAP:
                _TASK_STAGE_CACHE.pop(next(iter(_TASK_STAGE_CACHE)))
            meta = self.meta
            model = CharGRU(
                _fetch(self.weights_ref),
                num_layers=meta.get("num_layers", 2),
                bidirectional=meta.get("bidirectional", True),
                arch=meta.get("arch", "gru"),
                pooling_mode=meta.get("pooling_mode", "hstates_layers_simple"),
            )
            state = _TASK_STAGE_CACHE[self.token] = (model, _fetch(self.vocab_ref))
        return state

    def _encode(self, texts: pa.Array | pa.ChunkedArray):
        norm = normalize_array(
            texts, uni2ascii=self.prep.uni2ascii, lowercase=self.prep.lowercase,
            strip=self.prep.strip, only_latin_letters=self.prep.only_latin_letters,
        )
        return encode_strings(
            norm.to_pylist(), self._state()[1], tokenize=self.tok.tokenize,
            min_gram=self.tok.min_gram, max_gram=self.tok.max_gram,
            token_sep=self.tok.token_sep, prefix_suffix=self.tok.prefix_suffix,
            max_seq_len=self.tok.max_seq_len,
            missing_char_threshold=self.prep.missing_char_threshold,
        )


class Embedder(_ModelStage):
    """(…, <text_col>) → append ``emb`` fixed_size_list<float32>[2H]
    (fwd ++ bwd, the ranker's layout: candidateRanker.py:313) and
    ``emb_valid`` bool (False = row failed the missing-char filter,
    data_processing.py:380-397 — kept, flagged, excluded from search)."""

    def __init__(self, weights_ref, vocab_ref, meta, text_col="norm_text", **kw):
        super().__init__(weights_ref, vocab_ref, meta, **kw)
        self.text_col = text_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        x, lens, valid = self._encode(batch[self.text_col])
        fwd, bwd = self._state()[0].embed(x, lens)
        vec = np.concatenate([fwd, bwd], axis=1) if bwd is not None else fwd
        vec = np.ascontiguousarray(vec, dtype=np.float32)
        vec[~valid] = 0.0
        D = vec.shape[1]
        col = pa.FixedSizeListArray.from_arrays(pa.array(vec.reshape(-1)), D)
        batch = batch.append_column("emb", col)
        return batch.append_column("emb_valid", pa.array(valid))


class PairScorer(_ModelStage):
    """(…, <s1_col>, <s2_col>) → append ``pred_score`` (model p1),
    ``lev_dist`` (int64) and ``jw_sim`` (float64).

    ``emit``: optional tuple of input columns to KEEP in the output
    (score columns are always appended). Default None keeps everything
    — but a downstream that only needs ids + scores should pass
    ``emit=("id_a", "id_b")`` (or ``()``) so the pair strings stop
    traveling through every post-score block (r4 VERDICT #7: carried
    strings inflate the scored stream's shuffle/transfer payload)."""

    def __init__(self, weights_ref, vocab_ref, meta, s1_col="s1", s2_col="s2",
                 with_classical=True, emit=None, **kw):
        super().__init__(weights_ref, vocab_ref, meta, **kw)
        self.s1_col = s1_col
        self.s2_col = s2_col
        self.with_classical = with_classical
        self.emit = list(emit) if emit is not None else None

    def __call__(self, batch: pa.Table) -> pa.Table:
        x1, l1, v1 = self._encode(batch[self.s1_col])
        x2, l2, v2 = self._encode(batch[self.s2_col])
        p1 = self._state()[0].match_probability(x1, l1, x2, l2)
        p1 = np.where(v1 & v2, p1, np.nan)
        keep = self.emit if self.emit is not None else batch.column_names
        cols = {c: batch[c] for c in keep}
        cols["pred_score"] = pa.array(p1.astype(np.float32))
        if self.with_classical:
            s1 = batch[self.s1_col].to_pylist()
            s2 = batch[self.s2_col].to_pylist()
            cols["lev_dist"] = pa.array(levenshtein_batch(s1, s2).astype(np.int64))
            cols["jw_sim"] = pa.array(jaro_winkler_batch(s1, s2))
        return pa.table(cols)


def emb_matrix(batch_col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """fixed_size_list column → [N, D] float32 view (zero-copy when
    possible)."""
    if isinstance(batch_col, pa.ChunkedArray):
        batch_col = batch_col.combine_chunks()
    D = batch_col.type.list_size
    flat = batch_col.flatten().to_numpy(zero_copy_only=False)
    return flat.reshape(-1, D)
