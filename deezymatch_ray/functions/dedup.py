"""Deduplication kernels: shingling, stable hashing, MinHash, SimHash.

These are the scalar/batch building blocks for the dedup stages
(deezymatch_ray/stages/dedup.py) — all deterministic (seeded, fixed-key
siphash; never Python's randomized ``hash()``) so every actor replica and
every rerun produces identical signatures, which checkpoint/resume and
the driver's correctness compare both rely on.

Scale notes: MinHash signatures are the *small* representation a
100 TB dedup shuffles (k × 8 bytes per doc instead of the shingle set);
exact-jaccard verification only ever runs on candidate pairs emitted by
band blocking, never all-pairs. Signature computation is vectorized
across the whole batch (k passes over the flattened shingle array +
``np.minimum.reduceat``), not per document.
"""

from __future__ import annotations

import re

import numpy as np

_WS_RE = re.compile(r"\s+")
_U64_MAX = np.iinfo(np.uint64).max


def words(text: str) -> list[str]:
    """Whitespace tokens of the trimmed text — identical to DuckDB's
    ``string_split_regex(trim(text), '\\s+')`` used by the SQL oracles."""
    t = text.strip()
    return _WS_RE.split(t) if t else [""]


def word_shingles(text: str, n: int = 3) -> list[str]:
    """Distinct word n-gram shingles, first-occurrence order."""
    w = words(text)
    if len(w) < n:
        return []
    seen: dict[str, None] = {}
    for i in range(len(w) - n + 1):
        seen.setdefault(" ".join(w[i : i + n]), None)
    return list(seen)


def stable_hash64_batch(tokens: list[str], basis: str = "siphash") -> np.ndarray:
    """Vectorized stable 64-bit hashes.

    ``basis="siphash"`` (default, production): pandas' siphash with its
    fixed default key (C loop — ~30× faster than per-token hashlib,
    equally uniform; determinism across processes is what the dedup
    plans need, not cryptographic strength).

    ``basis="md5"``: lower 64 bits of md5 — bit-identical to DuckDB's
    ``md5_number_lower(token)``, which lets the driver's SQL oracles
    mirror MinHash/SimHash signature computation exactly. Slower (per
    unique token hashlib), so it is opt-in for oracle-checked queries;
    it is also pandas-version-independent, unlike siphash."""
    if not tokens:
        return np.array([], dtype=np.uint64)
    if basis == "md5":
        return md5_lower64_batch(tokens)
    import pandas as pd

    return pd.util.hash_array(np.asarray(tokens, dtype=object)).astype(
        np.uint64, copy=False
    )


def md5_lower64_batch(tokens: list[str]) -> np.ndarray:
    """Lower 64 bits of md5 (digest bytes 8..16, little-endian) — exactly
    DuckDB 1.0's ``md5_number_lower``. Hashes each *unique* token once
    (word/shingle batches repeat heavily), then scatters."""
    import hashlib

    arr = np.asarray(tokens, dtype=object)
    uniq, inv = np.unique(arr, return_inverse=True)
    vals = np.fromiter(
        (
            int.from_bytes(hashlib.md5(t.encode()).digest()[8:16], "little")
            for t in uniq
        ),
        dtype=np.uint64,
        count=len(uniq),
    )
    return vals[inv]


def minhash_params(k: int, seed: int = 7) -> tuple[np.ndarray, np.ndarray]:
    """k (a, b) pairs for h_i(x) = a_i * x + b_i in uint64 wrap-around
    arithmetic. a_i is forced odd, making x → a_i·x + b_i a bijection on
    Z/2^64 — a perfectly valid (and branch-free) MinHash permutation
    family given siphash-uniform inputs."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, _U64_MAX, size=k, dtype=np.uint64) | np.uint64(1)
    b = rng.integers(0, _U64_MAX, size=k, dtype=np.uint64)
    return a, b


def minhash_params32(k: int, seed: int = 7) -> tuple[np.ndarray, np.ndarray]:
    """k (a, b) pairs for the md5-basis family h_i(x) = (a_i·x + b_i)
    mod 2^32 over 32-bit inputs (a_i odd → injective on the domain).
    Every term fits uint64 exactly, so a DuckDB oracle reproduces the
    arithmetic with plain UBIGINT ops — the reason this family exists."""
    rng = np.random.default_rng(seed)
    m = np.uint64(0xFFFFFFFF)
    a = (rng.integers(0, _U64_MAX, size=k, dtype=np.uint64) & m) | np.uint64(1)
    b = rng.integers(0, _U64_MAX, size=k, dtype=np.uint64) & m
    return a, b


def minhash_signatures_flat(
    flat_hashes: np.ndarray,
    offsets: np.ndarray,
    k: int = 64,
    seed: int = 7,
    basis: str = "siphash",
) -> np.ndarray:
    """[N, k] uint64 signatures for N docs whose shingle hashes are
    concatenated in ``flat_hashes`` with boundaries ``offsets`` (len N+1).
    Empty docs get all-max signatures. ``basis="md5"`` switches to the
    SQL-mirrorable 32-bit family (see ``minhash_params32``); the input
    hashes are masked to their low 32 bits to match."""
    if basis == "md5":
        a, b = minhash_params32(k, seed)
        mask = np.uint64(0xFFFFFFFF)
        flat_hashes = flat_hashes & mask
    else:
        a, b = minhash_params(k, seed)
        mask = None
    n = len(offsets) - 1
    out = np.full((n, k), _U64_MAX, dtype=np.uint64)
    if len(flat_hashes) == 0:
        return out
    lens = np.diff(offsets)
    nonempty = np.flatnonzero(lens > 0)
    starts = offsets[nonempty]
    with np.errstate(over="ignore"):
        for i in range(k):
            hv = flat_hashes * a[i] + b[i]  # uint64 wrap-around, vectorized
            if mask is not None:
                hv &= mask
            out[nonempty, i] = np.minimum.reduceat(hv, starts)
    return out


def minhash_signatures(
    shingle_lists: list[list[str]], k: int = 64, seed: int = 7,
    basis: str = "siphash",
) -> np.ndarray:
    """[N, k] uint64 signatures for a batch of shingle lists."""
    offsets = np.zeros(len(shingle_lists) + 1, dtype=np.int64)
    np.cumsum([len(s) for s in shingle_lists], out=offsets[1:])
    flat = stable_hash64_batch(
        [t for sh in shingle_lists for t in sh], basis=basis
    )
    return minhash_signatures_flat(flat, offsets, k=k, seed=seed, basis=basis)


def band_keys_int(sigs: np.ndarray, n_bands: int) -> np.ndarray:
    """[N, n_bands] int64 LSH band keys (uint64 bitcast): FNV digest of
    the band's signature rows folded with the band index via
    ``(digest mod ⌊(2^64-1)/n_bands⌋) * n_bands + bidx`` — the fold can
    never wrap, so ``bidx = key % n_bands`` recovers the band EXACTLY
    for any n_bands (a plain wraparound ``digest*n_bands+bidx`` fold is
    only band-recoverable when n_bands divides 2^64, i.e. powers of
    two; non-power-of-two fan-outs silently mis-assigned ~(1-1/nb) of
    groups). Two docs share a key iff the whole band agrees (up to the
    same negligible digest-collision class as the string variant — the
    digest keeps 64 - log2(n_bands) bits). An int64 key shuffles ~3×
    fewer bytes than the old "bidx:hex" string and skips 16 f-string
    formats per row."""
    n, k = sigs.shape
    rows = k // n_bands
    segs = sigs[:, : n_bands * rows].reshape(n, n_bands, rows)
    acc = np.full((n, n_bands), np.uint64(0xCBF29CE484222325), dtype=np.uint64)
    # (2^64-1)//nb fits uint64 for every nb ≥ 1 and keeps the max key
    # (cap-1)*nb + nb-1 = cap*nb - 1 ≤ 2^64-2 — no wrap, exact recovery
    cap = np.uint64(((1 << 64) - 1) // n_bands)
    with np.errstate(over="ignore"):
        for r in range(rows):
            acc = (acc ^ segs[:, :, r]) * np.uint64(0x100000001B3)
        keys = (acc % cap) * np.uint64(n_bands) + np.arange(
            n_bands, dtype=np.uint64
        )[None, :]
    return keys.view(np.int64)


def simhash64_batch(
    token_lists: list[list[str]], basis: str = "siphash"
) -> np.ndarray:
    """[N] uint64 SimHash fingerprints (bitwise majority of token-hash
    bits). Vectorized across the flattened token axis."""
    n = len(token_lists)
    out = np.zeros(n, dtype=np.uint64)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([len(t) for t in token_lists], out=offsets[1:])
    flat = stable_hash64_batch(
        [t for toks in token_lists for t in toks], basis=basis
    )
    if len(flat) == 0:
        return out
    shifts = np.arange(64, dtype=np.uint64)
    bits = ((flat[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.int64)
    contrib = 2 * bits - 1  # [n_tokens, 64]
    lens = np.diff(offsets)
    nonempty = np.flatnonzero(lens > 0)
    score = np.add.reduceat(contrib, offsets[nonempty], axis=0)
    sig_bits = (score > 0).astype(np.uint64)
    out[nonempty] = (sig_bits << shifts[None, :]).sum(axis=1, dtype=np.uint64)
    return out


def hamming64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise Hamming distance between two uint64 arrays."""
    x = np.bitwise_xor(a, b)
    cnt = np.zeros(len(x), dtype=np.int64)
    for _ in range(64):
        cnt += (x & np.uint64(1)).astype(np.int64)
        x = x >> np.uint64(1)
    return cnt
