"""Text kernels: normalization and tokenization with reference parity.

Scalar functions reproduce the semantics of the reference's
``normalizeString`` (utils.py:25-42) and ``string_split`` (utils.py:99-137)
exactly — verified against the golden cases ported from
``DeezyMatch/tests/test_utils.py`` — while the ``*_batch`` /
``*_arrow`` variants are the vectorized forms used inside
``map_batches`` hot paths.
"""

from __future__ import annotations

import re
import string
import unicodedata
from collections.abc import Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_PUNCT_BEFORE_RE = re.compile(r"([.!?])")
_NON_LATIN_RE = re.compile(r"[^a-zA-Z.!?]+")
# reference splits words on any punctuation char or whitespace
# (utils.py:130-134)
_DEFAULT_WORD_SEP_RE = re.compile(r"[" + string.punctuation + r"\s]")


def normalize_string(
    s: str,
    uni2ascii: bool = True,
    lowercase: bool = True,
    strip: bool = True,
    only_latin_letters: bool = False,
) -> str:
    """Parity with ``normalizeString`` (utils.py:25-42): NFKD → lower →
    strip → optional latin-only scrub, flags applied in that order."""
    if uni2ascii:
        s = unicodedata.normalize("NFKD", str(s))
    if lowercase:
        s = s.lower()
    if strip:
        s = s.strip()
    if only_latin_letters:
        s = _PUNCT_BEFORE_RE.sub(r" \1", s)
        s = _NON_LATIN_RE.sub(" ", s)
    return s


def _resolve_prefix_suffix(prefix_suffix) -> tuple[str, str]:
    """Reference semantics (utils.py:114-117): bounding applies only when
    prefix_suffix is a 2-element sequence; non-str elements become ""."""
    if isinstance(prefix_suffix, Sequence) and len(prefix_suffix) == 2:
        prefix = prefix_suffix[0] if isinstance(prefix_suffix[0], str) else ""
        suffix = prefix_suffix[1] if isinstance(prefix_suffix[1], str) else ""
        return prefix, suffix
    return "", ""


def string_split(
    x: str,
    tokenize: Sequence[str] = ("char",),
    min_gram: int = 1,
    max_gram: int = 3,
    token_sep: str = "default",
    prefix_suffix=("|", "|"),
) -> list[str]:
    """Parity with ``string_split`` (utils.py:99-137).

    char/ngram modes run on the *bounded* string (prefix + x + suffix);
    word mode runs on the raw string; empty tokens are dropped at the end.
    A 2-char prefix_suffix that isn't [str, str] degrades per-element to "".
    """
    tokens: list[str] = []
    prefix, suffix = _resolve_prefix_suffix(prefix_suffix)
    x_bounded = prefix + x + suffix

    if "char" in tokenize:
        tokens += list(x_bounded)

    if "ngram" in tokenize:
        assert min_gram >= 1, "min_gram must be >= 1"
        assert max_gram >= min_gram, "max_gram must be >= min_gram"
        for n in range(min_gram, max_gram + 1):
            tokens += [x_bounded[i : i + n] for i in range(len(x_bounded) - n + 1)]

    if "word" in tokenize:
        if token_sep == "default":
            tokens += _DEFAULT_WORD_SEP_RE.split(x)
        else:
            tokens += re.split("[" + re.escape(token_sep) + "]", x)

    return [t for t in tokens if t]


# ---------------------------------------------------------------------------
# vectorized forms (map_batches hot path)
# ---------------------------------------------------------------------------


def normalize_array(
    arr: pa.Array | pa.ChunkedArray,
    uni2ascii: bool = True,
    lowercase: bool = True,
    strip: bool = True,
    only_latin_letters: bool = False,
) -> pa.Array:
    """Vectorized ``normalize_string`` over an Arrow string array.

    lower/strip use pyarrow.compute kernels; NFKD has no Arrow kernel, so
    when enabled it falls back to one C-level ``unicodedata.normalize``
    call per value (unavoidable without extra deps).
    """
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if uni2ascii:
        arr = pa.array(
            [None if s is None else unicodedata.normalize("NFKD", s) for s in arr.to_pylist()],
            type=pa.string(),
        )
    if lowercase:
        arr = pc.utf8_lower(arr)
    if strip:
        arr = pc.utf8_trim_whitespace(arr)
    if only_latin_letters:
        arr = pc.replace_substring_regex(arr, _PUNCT_BEFORE_RE.pattern, r" \1")
        arr = pc.replace_substring_regex(arr, _NON_LATIN_RE.pattern, " ")
    return arr


def qgram_keys_table(
    ids: pa.Array | pa.ChunkedArray,
    texts: pa.Array | pa.ChunkedArray,
    n: int,
    prefix: str = "",
    suffix: str = "",
    distinct: bool = True,
    id_name: str = "id",
    key_name: str = "key",
) -> pa.Table:
    """Explode (id, text) → (id, qgram-key) rows, fully vectorized.

    For each row, keys are the character n-grams of ``prefix+text+suffix``
    (same bounding as tokenization, utils.py:113-117). Vectorization:
    one ``utf8_slice_codeunits`` per n-gram offset (≤ max string length
    iterations over columns, zero Python per-row work).
    """
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    if isinstance(ids, pa.ChunkedArray):
        ids = ids.combine_chunks()
    if prefix or suffix:
        bounded = pc.binary_join_element_wise(
            pa.array([prefix] * len(texts)), texts, pa.array([suffix] * len(texts)), ""
        )
    else:
        bounded = texts
    lengths = pc.utf8_length(bounded).to_numpy(zero_copy_only=False)
    max_len = int(lengths.max()) if len(lengths) else 0

    id_parts: list[pa.Array] = []
    key_parts: list[pa.Array] = []
    for i in range(0, max(max_len - n + 1, 0)):
        mask = lengths >= i + n
        if not mask.any():
            break
        sel = np.flatnonzero(mask)
        sub_ids = ids.take(pa.array(sel, type=pa.int64()))
        grams = pc.utf8_slice_codeunits(
            bounded.take(pa.array(sel, type=pa.int64())), start=i, stop=i + n
        )
        id_parts.append(sub_ids)
        key_parts.append(grams)
    if not id_parts:
        return pa.table({id_name: ids.slice(0, 0), key_name: pa.array([], type=pa.string())})
    out = pa.table(
        {
            id_name: pa.concat_arrays([a.combine_chunks() if isinstance(a, pa.ChunkedArray) else a for a in id_parts]),
            key_name: pa.concat_arrays([a.combine_chunks() if isinstance(a, pa.ChunkedArray) else a for a in key_parts]),
        }
    )
    if distinct:
        out = out.group_by([id_name, key_name]).aggregate([])
    return out


def encode_strings(
    strs: Sequence[str | None],
    tok2index: dict[str, int],
    tokenize: Sequence[str] = ("char", "ngram"),
    min_gram: int = 2,
    max_gram: int = 3,
    token_sep: str = "default",
    prefix_suffix=("<", ">"),
    max_seq_len: int = 120,
    missing_char_threshold: float = 0.5,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tokenize + index + clip a batch of strings for the model.

    Reproduces the reference chain: ``string_split`` → token→index with
    silent OOV drop (data_processing.py:368-375) → missing-char filter
    (``1 - len(indexed)/len(tokenized) > threshold`` or empty → invalid,
    data_processing.py:380-397) → length clip at ``max_seq_len``
    (data_processing.py:432-443).

    Returns ``(padded [N, L] int32, lengths [N] int32, valid [N] bool)``
    where L = min(batch max length, max_seq_len); invalid rows get
    length 1 with a single _PAD token (they must be filtered by caller
    before scoring, matching the reference's row drop).
    """
    seqs: list[list[int]] = []
    valid = np.ones(len(strs), dtype=bool)
    for i, s in enumerate(strs):
        if s is None:
            valid[i] = False
            seqs.append([0])
            continue
        toks = string_split(
            s,
            tokenize=tokenize,
            min_gram=min_gram,
            max_gram=max_gram,
            token_sep=token_sep,
            prefix_suffix=prefix_suffix,
        )
        idx = [tok2index[t] for t in toks if t in tok2index]
        if len(toks) == 0 or 1 - len(idx) / len(toks) > missing_char_threshold:
            valid[i] = False
            seqs.append([0])
            continue
        seqs.append(idx[:max_seq_len] if idx else [0])
        if not idx:
            valid[i] = False
    lengths = np.array([len(s) for s in seqs], dtype=np.int32)
    L = int(min(max(lengths.max() if len(lengths) else 1, 1), max_seq_len))
    padded = np.zeros((len(seqs), L), dtype=np.int32)
    for i, s in enumerate(seqs):
        s = s[:L]
        padded[i, : len(s)] = s
    lengths = np.minimum(lengths, L).astype(np.int32)
    return padded, lengths, valid
