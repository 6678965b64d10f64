"""Hypothesis property tests over the kernel layer (no Ray): the
vectorized batch kernels must agree with scalar reference behavior on
arbitrary unicode input, and the edit-distance kernels must satisfy
their metric axioms."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from deezymatch_ray.functions.similarity import (
    jaro_batch,
    jaro_winkler_batch,
    levenshtein_batch,
    soundex,
)
from deezymatch_ray.functions.text import normalize_array, normalize_string

# surrogates excluded (not encodable); keep strings short so the
# O(L1*L2) reference DP stays fast
TEXT = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=24
)


def _lev_ref(a: str, b: str) -> int:
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1,
                           prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[len(b)]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(TEXT, TEXT), min_size=1, max_size=8))
def test_levenshtein_batch_matches_scalar_dp(pairs):
    s1 = [a for a, _ in pairs]
    s2 = [b for _, b in pairs]
    got = levenshtein_batch(s1, s2)
    want = [_lev_ref(a, b) for a, b in pairs]
    assert got.tolist() == want


@settings(max_examples=100, deadline=None)
@given(TEXT, TEXT)
def test_levenshtein_metric_axioms(a, b):
    d_ab = int(levenshtein_batch([a], [b])[0])
    d_ba = int(levenshtein_batch([b], [a])[0])
    assert d_ab == d_ba                      # symmetry
    assert d_ab >= abs(len(a) - len(b))      # length lower bound
    assert d_ab <= max(len(a), len(b))       # substitution upper bound
    assert int(levenshtein_batch([a], [a])[0]) == 0


@settings(max_examples=100, deadline=None)
@given(TEXT, TEXT)
def test_jaro_winkler_bounds_and_identity(a, b):
    jw = float(jaro_winkler_batch([a], [b])[0])
    assert 0.0 <= jw <= 1.0 + 1e-12
    j = float(jaro_batch([a], [b])[0])
    assert jw >= j - 1e-12                   # winkler only boosts
    if a == b and a:
        assert jw == 1.0


@settings(max_examples=150, deadline=None)
@given(st.lists(TEXT, min_size=1, max_size=8))
def test_normalize_array_matches_scalar(texts):
    import pyarrow as pa

    for kwargs in (
        dict(uni2ascii=True, lowercase=True, strip=True, only_latin_letters=False),
        dict(uni2ascii=False, lowercase=False, strip=True, only_latin_letters=False),
    ):
        arr = normalize_array(pa.array(texts, type=pa.string()), **kwargs)
        want = [normalize_string(t, **kwargs) for t in texts]
        assert arr.to_pylist() == want


@settings(max_examples=100, deadline=None)
@given(TEXT)
def test_soundex_shape(s):
    code = soundex(s)
    assert isinstance(code, str)
    if code:
        assert len(code) == 4
        assert code[0].isalpha() and code[0].isupper()
        assert all(c.isdigit() for c in code[1:])


@settings(max_examples=100, deadline=None)
@given(st.lists(TEXT, min_size=1, max_size=12))
def test_md5_hash_basis_matches_scalar_reference(tokens):
    """The vectorized md5 basis (unique-scatter path) must equal the
    per-token scalar definition (lower 8 md5 digest bytes, little
    endian — DuckDB's md5_number_lower) on arbitrary unicode input."""
    import hashlib

    from deezymatch_ray.functions.dedup import md5_lower64_batch

    got = md5_lower64_batch(tokens)
    want = [
        int.from_bytes(hashlib.md5(t.encode()).digest()[8:16], "little")
        for t in tokens
    ]
    assert [int(v) for v in got] == want


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(TEXT, min_size=0, max_size=6), min_size=1, max_size=5))
def test_md5_minhash_family_properties(shingle_lists):
    """md5-basis MinHash invariants: deterministic, 32-bit-bounded
    (the SQL UBIGINT-exactness contract), equal shingle SETS give equal
    signatures, and empty docs take the all-max sentinel."""
    from deezymatch_ray.functions.dedup import minhash_signatures

    sig = minhash_signatures(shingle_lists, k=16, seed=7, basis="md5")
    again = minhash_signatures(shingle_lists, k=16, seed=7, basis="md5")
    assert (sig == again).all()
    for i, sh in enumerate(shingle_lists):
        if sh:
            assert (sig[i] < (1 << 32)).all()
            dup = minhash_signatures([list(dict.fromkeys(sh))], k=16,
                                     seed=7, basis="md5")
            assert (sig[i] == dup[0]).all()  # set semantics
        else:
            assert (sig[i] == np.iinfo(np.uint64).max).all()


# ---- PNG codec properties (round 5: functions/png.py) ----

@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=24),
    st.integers(min_value=1, max_value=24),
    st.sampled_from([1, 2, 3, 4]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_png_roundtrip_property(h, w, c, seed):
    from deezymatch_ray.functions.png import decode_png, encode_png

    px = np.random.default_rng(seed).integers(0, 256, size=(h, w, c),
                                              dtype=np.uint8)
    np.testing.assert_array_equal(decode_png(encode_png(px)), px)


def _refilter_png(png: bytes, c: int, filters) -> bytes:
    """Re-filter encode_png's filter-0 scanlines with the given PNG
    filter type per row (PNG spec §9: 1 Sub, 2 Up, 3 Average, 4 Paeth)
    and re-deflate the IDAT — a forward filter independent of the
    decoder's inverse."""
    import struct
    import zlib

    chunks, pos = [], 8
    while pos < len(png):
        (n,) = struct.unpack(">I", png[pos:pos + 4])
        chunks.append((png[pos + 4:pos + 8], png[pos + 8:pos + 8 + n]))
        pos += 12 + n
    (ihdr,) = [body for tag, body in chunks if tag == b"IHDR"]
    w, h = struct.unpack(">II", ihdr[:8])
    (idat,) = [body for tag, body in chunks if tag == b"IDAT"]
    raw = np.frombuffer(zlib.decompress(idat), dtype=np.uint8)
    raw = raw.reshape(h, 1 + w * c)
    assert (raw[:, 0] == 0).all()
    rows = raw[:, 1:].astype(np.int16)
    out = raw.copy()
    for y, f in enumerate(filters):
        x = rows[y]
        up = rows[y - 1] if y else np.zeros_like(x)
        left = np.concatenate([np.zeros(c, np.int16), x[:-c]])
        upleft = np.concatenate([np.zeros(c, np.int16), up[:-c]])
        if f == 0:
            pred = np.zeros_like(x)
        elif f == 1:
            pred = left
        elif f == 2:
            pred = up
        elif f == 3:
            pred = (left + up) // 2
        else:
            p = left + up - upleft
            pa, pb, pc = np.abs(p - left), np.abs(p - up), np.abs(p - upleft)
            pred = np.where((pa <= pb) & (pa <= pc), left,
                            np.where(pb <= pc, up, upleft))
        out[y, 0] = f
        out[y, 1:] = (x - pred) % 256

    def chunk(tag: bytes, data: bytes) -> bytes:
        return (struct.pack(">I", len(data)) + tag + data
                + struct.pack(">I", zlib.crc32(tag + data) & 0xFFFFFFFF))

    body = {b"IDAT": zlib.compress(out.tobytes(), 6)}
    return png[:8] + b"".join(chunk(tag, body.get(tag, data))
                              for tag, data in chunks)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=16),
    st.integers(min_value=1, max_value=16),
    st.sampled_from([1, 2, 3, 4]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_png_decode_every_filter_type_property(h, w, c, seed):
    """decode_png inverts every scanline filter: each of Sub, Up,
    Average and Paeth on all rows, and all five types mixed row by
    row."""
    from deezymatch_ray.functions.png import decode_png, encode_png

    px = np.random.default_rng(seed).integers(0, 256, size=(h, w, c),
                                              dtype=np.uint8)
    png = encode_png(px)
    for filters in ([1] * h, [2] * h, [3] * h, [4] * h,
                    [y % 5 for y in range(h)]):
        np.testing.assert_array_equal(
            decode_png(_refilter_png(png, c, filters)), px)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_resize_nearest_properties(h, w, oh, ow, seed):
    """Output dims exact; every output pixel is SOME input pixel
    (nearest-neighbor never invents values); identity resize is
    exact."""
    from deezymatch_ray.functions.png import resize_nearest

    px = np.random.default_rng(seed).integers(0, 256, size=(h, w, 3),
                                              dtype=np.uint8)
    out = resize_nearest(px, ow, oh)
    assert out.shape == (oh, ow, 3)
    in_set = {tuple(p) for p in px.reshape(-1, 3)}
    assert all(tuple(p) in in_set for p in out.reshape(-1, 3))
    np.testing.assert_array_equal(resize_nearest(px, w, h), px)
