"""Model tests: gradient check (analytic BPTT vs numerical), shape/parity
properties of the forward pass, and small-scale learnability."""

from __future__ import annotations

import numpy as np
import pytest

from deezymatch_ray.data.synth import make_labeled_pairs
from deezymatch_ray.functions.text import encode_strings
from deezymatch_ray.model.chargru import CharGRU, fc1_input_dim, init_weights, load_weights, save_weights
from deezymatch_ray.model.train import Adam, SiameseTrainer, evaluate, fit
from deezymatch_ray.model.vocab import build_vocab_local


def _tiny_batch(seed=0, B=6, V=12, T=7):
    rng = np.random.default_rng(seed)
    x1 = rng.integers(2, V, (B, T)).astype(np.int32)
    x2 = rng.integers(2, V, (B, T)).astype(np.int32)
    l1 = rng.integers(1, T + 1, B).astype(np.int32)
    l2 = rng.integers(1, T + 1, B).astype(np.int32)
    y = rng.integers(0, 2, B)
    return x1, l1, x2, l2, y


@pytest.mark.parametrize("arch,pooling", [
    # every trainable pooling mode on the default arch...
    ("gru", "hstates_layers_simple"), ("gru", "hstates"),
    ("gru", "hstates_layers"), ("gru", "attention"), ("gru", "average"),
    ("gru", "max"), ("gru", "hstates_subtract"), ("gru", "hstates_l2_distance"),
    # ...and the other reference architectures (rnn_networks.py:72-90)
    ("lstm", "hstates_layers_simple"), ("lstm", "hstates_layers"),
    ("lstm", "attention"), ("lstm", "average"), ("lstm", "max"),
    ("rnn", "hstates_layers_simple"), ("rnn", "hstates"),
])
def test_gradient_check(arch, pooling):
    V, E, H, L = 12, 5, 4, 2
    w = init_weights(V, E, H, num_layers=L, bidirectional=True, fc1_out_dim=8,
                     pooling_mode=pooling, main_architecture=arch, seed=3,
                     dtype=np.float64)
    tr = SiameseTrainer(w, num_layers=L, bidirectional=True, arch=arch,
                        pooling_mode=pooling)
    x1, l1, x2, l2, y = _tiny_batch()
    loss0, grads, _ = tr.loss_and_grads(x1, l1, x2, l2, y, train=False)
    rng = np.random.default_rng(0)
    eps = 1e-6
    keys = ["emb", "rnn_1.W_ih_l0_d0", "rnn_1.W_hh_l1_d1", "rnn_1.b_hh_l0_d1",
            "fc1.W", "fc2.b", "rnn_1.W_ih_l1_d0"]
    if pooling == "attention":
        keys += ["attn.W1", "attn.b1", "attn.W2", "attn.b2"]
    for key in keys:
        p = w[key]
        flat_idx = rng.integers(0, p.size, 5)
        for fi in flat_idx:
            orig = p.flat[fi]
            p.flat[fi] = orig + eps
            lp, _, _ = tr.loss_and_grads(x1, l1, x2, l2, y, train=False)
            p.flat[fi] = orig - eps
            lm, _, _ = tr.loss_and_grads(x1, l1, x2, l2, y, train=False)
            p.flat[fi] = orig
            num = (lp - lm) / (2 * eps)
            ana = grads[key].flat[fi]
            assert abs(num - ana) < 1e-5 * max(1.0, abs(num)), (key, fi, num, ana)


def test_forward_batch_invariance():
    """Scoring must not depend on batch composition (required for
    deterministic distributed execution; reference quirk documented in
    chargru.py)."""
    V = 30
    w = init_weights(V, 8, 6, num_layers=2, fc1_out_dim=10, seed=5)
    model = CharGRU(w, num_layers=2)
    x1, l1, x2, l2, _ = _tiny_batch(seed=2, B=8, V=V, T=9)
    full = model.match_probability(x1, l1, x2, l2)
    # same rows scored in two halves, different padding widths
    half1 = model.match_probability(x1[:4, :6], np.minimum(l1[:4], 6),
                                    x2[:4, :6], np.minimum(l2[:4], 6))
    for i in range(4):
        if l1[i] <= 6 and l2[i] <= 6:
            assert abs(full[i] - half1[i]) < 1e-6


@pytest.mark.parametrize("pooling", ["hstates_layers_simple", "attention"])
def test_pair_scores_do_not_depend_on_batching(pooling):
    """A pair's confidence is a function of its two strings alone: the
    same 300 ``make_query_candidates`` pairs score bit-identically in
    one batch and in batches of 1, 3, 7, 33 and 101. OpenBLAS computes
    the last row of an odd-row-count sgemm with another kernel, so the
    head's fc layers and attention pooling run through ``row_matmul``
    like the GRU. The shipped model covers the default pooling."""
    import os

    from deezymatch_ray.data.synth import make_query_candidates
    from deezymatch_ray.functions.text import normalize_string
    from deezymatch_ray.model.vocab import load_vocab
    from deezymatch_ray.pipelines.linkage import DEFAULT_MODEL_DIR

    weights, meta = load_weights(os.path.join(DEFAULT_MODEL_DIR, "model.npz"))
    tok2index = load_vocab(os.path.join(DEFAULT_MODEL_DIR, "vocab.parquet"))
    if pooling != meta["pooling_mode"]:
        weights = init_weights(len(tok2index), 16, 16, num_layers=2,
                               fc1_out_dim=24, pooling_mode=pooling, seed=3)
    model = CharGRU(weights, num_layers=2, pooling_mode=pooling)
    q, c = make_query_candidates(300, 300, seed=7)
    s1 = [normalize_string(s) for s in q["name"].to_pylist()]
    s2 = [normalize_string(s) for s in c["name"].to_pylist()]

    def score(lo, hi):
        (x1, l1, _), (x2, l2, _) = [
            encode_strings(s[lo:hi], tok2index, tokenize=("char",),
                           prefix_suffix=("<", ">"), max_seq_len=120)
            for s in (s1, s2)]
        return model.match_probability(x1, l1, x2, l2)

    whole = score(0, 300)
    for size in (1, 3, 7, 33, 101):
        parts = np.concatenate([score(o, o + size) for o in range(0, 300, size)])
        np.testing.assert_array_equal(parts, whole, err_msg=f"batches of {size}")


def test_self_pair_symmetry_and_embed():
    V = 30
    w = init_weights(V, 8, 6, num_layers=2, fc1_out_dim=10, seed=5)
    model = CharGRU(w, num_layers=2)
    x1, l1, _, _, _ = _tiny_batch(seed=4, B=5, V=V, T=8)
    fwd, bwd = model.embed(x1, l1)
    assert fwd.shape == (5, 6) and bwd.shape == (5, 6)
    # identical strings → identical embeddings (self-match-distance-zero
    # invariant, tests/test_pipeline_ngram.py:102-105 in the reference)
    fwd2, bwd2 = model.embed(x1.copy(), l1.copy())
    np.testing.assert_allclose(fwd, fwd2)
    # embeddings must not depend on other rows in the batch
    fwd_single, _ = model.embed(x1[2:3, : l1[2]], l1[2:3])
    np.testing.assert_allclose(fwd[2], fwd_single[0], atol=1e-6)


def test_pooling_mode_dims():
    V, E, H, L = 12, 5, 4, 2
    for mode in ["hstates", "hstates_layers", "hstates_layers_simple",
                 "hstates_subtract", "hstates_l2_distance", "average", "max",
                 "attention"]:
        w = init_weights(V, E, H, num_layers=L, fc1_out_dim=8, pooling_mode=mode, seed=1)
        model = CharGRU(w, num_layers=L, pooling_mode=mode)
        x1, l1, x2, l2, _ = _tiny_batch(B=3, V=V)
        logits = model.forward(x1, l1, x2, l2)
        assert logits.shape == (3, 2), mode
    w = init_weights(V, E, H, num_layers=L, fc1_out_dim=8, pooling_mode="hstates_cosine", seed=1)
    model = CharGRU(w, num_layers=L, pooling_mode="hstates_cosine")
    out = model.forward(x1, l1, x2, l2)
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-6)


def test_training_learns_and_freeze(tmp_path):
    pairs = make_labeled_pairs(1200, seed=11)
    s1 = pairs["s1"].to_pylist()
    s2 = pairs["s2"].to_pylist()
    y = np.array(pairs["label"].to_pylist(), dtype=np.int64)
    tok2index, counts = build_vocab_local(s1 + s2, tokenize=("char",), prefix_suffix=("<", ">"))
    enc = lambda strs: encode_strings(strs, tok2index, tokenize=("char",), prefix_suffix=("<", ">"), max_seq_len=40)
    x1, l1, v1 = enc(s1)
    x2, l2, v2 = enc(s2)
    assert v1.all() and v2.all()
    V = len(tok2index)
    w = init_weights(V, 32, 32, num_layers=2, fc1_out_dim=48, seed=7)
    tr = SiameseTrainer(w, num_layers=2)
    n_train = 1000
    fit(tr, (x1[:n_train], l1[:n_train], x2[:n_train], l2[:n_train], y[:n_train]),
        valid_data=(x1[n_train:], l1[n_train:], x2[n_train:], l2[n_train:], y[n_train:]),
        epochs=12, batch_size=64, lr=3e-3, seed=1, log=lambda *_: None)
    _, metrics = evaluate(tr, (x1[n_train:], l1[n_train:], x2[n_train:], l2[n_train:], y[n_train:]))
    assert metrics["accuracy"] >= 0.85, metrics
    # freeze semantics: frozen params unchanged by an update step
    w2 = {k: v.copy() for k, v in tr.w.items()}
    tr2 = SiameseTrainer(w2, num_layers=2)
    opt = Adam(w2, lr=1e-2, frozen=("emb", "rnn_1", "attn"))
    loss, grads, _ = tr2.loss_and_grads(x1[:64], l1[:64], x2[:64], l2[:64], y[:64])
    opt.step(grads)
    assert np.array_equal(w2["emb"], tr.w["emb"])
    assert np.array_equal(w2["rnn_1.W_ih_l0_d0"], tr.w["rnn_1.W_ih_l0_d0"])
    assert not np.array_equal(w2["fc1.W"], tr.w["fc1.W"])
    # npz round-trip
    p = str(tmp_path / "model.npz")
    save_weights(p, tr.w, meta={"pooling_mode": "hstates_layers_simple", "num_layers": 2})
    loaded, meta = load_weights(p)
    assert meta["num_layers"] == 2
    np.testing.assert_array_equal(loaded["fc1.W"], tr.w["fc1.W"])


def test_lstm_forward_paths_agree_and_trains():
    """LSTM: the length-sorted fast path (inference) and the masked
    cache path (trainer forward) must produce identical logits, and a
    few Adam steps must reduce the loss."""
    V = 30
    w = init_weights(V, 8, 6, num_layers=2, fc1_out_dim=10,
                     main_architecture="lstm", seed=5, dtype=np.float64)
    x1, l1, x2, l2, y = _tiny_batch(seed=2, B=8, V=V, T=9)
    model = CharGRU(w, num_layers=2, arch="lstm")
    fast = model.forward(x1, l1, x2, l2)
    tr = SiameseTrainer({k: v.copy() for k, v in w.items()}, num_layers=2, arch="lstm")
    h1, t1 = tr._encode_tape(x1, l1, train=False)
    h2, t2 = tr._encode_tape(x2, l2, train=False)
    p = np.concatenate([tr._pool_final(h1), tr._pool_final(h2)], axis=1)
    slow = np.maximum(p @ w["fc1.W"].T + w["fc1.b"], 0.0) @ w["fc2.W"].T + w["fc2.b"]
    np.testing.assert_allclose(fast, slow, atol=1e-10)
    # batch invariance: single-row forward equals row of batch forward
    one = model.forward(x1[3:4, : l1[3]], l1[3:4], x2[3:4, : l2[3]], l2[3:4])
    np.testing.assert_allclose(fast[3], one[0], atol=1e-10)
    # training reduces loss
    opt = Adam(tr.w, lr=1e-2)
    loss0, grads, _ = tr.loss_and_grads(x1, l1, x2, l2, y)
    for _ in range(15):
        _, grads, _ = tr.loss_and_grads(x1, l1, x2, l2, y)
        opt.step(grads)
    loss1, _, _ = tr.loss_and_grads(x1, l1, x2, l2, y, train=False)
    assert loss1 < loss0


def test_lstm_yaml_config_round_trip(tmp_path):
    """A reference-style yaml with main_architecture: lstm loads and the
    resulting config drives init_weights + SiameseTrainer."""
    from deezymatch_ray.config import from_yaml

    yml = tmp_path / "input_dfm.yaml"
    yml.write_text(
        "gru_lstm:\n  main_architecture: lstm\n  rnn_hidden_dim: 8\n"
        "  embedding_dim: 8\n  num_layers: 2\n  bidirectional: true\n"
        "  pooling_mode: hstates_layers\n"
    )
    cfg = from_yaml(str(yml))
    m = cfg.model
    assert m.main_architecture == "lstm"
    w = init_weights(20, m.embedding_dim, m.rnn_hidden_dim,
                     num_layers=m.num_layers, bidirectional=m.bidirectional,
                     pooling_mode=m.pooling_mode,
                     main_architecture=m.main_architecture)
    assert w["rnn_1.W_ih_l0_d0"].shape[0] == 4 * m.rnn_hidden_dim  # i,f,g,o
    SiameseTrainer(w, num_layers=m.num_layers, arch="lstm",
                   pooling_mode=m.pooling_mode)


def test_fc1_input_dims_match_reference_multipliers():
    # rnn_networks.py:792-801 with H=60, layers=2, bidirectional
    H, L, nd, E = 60, 2, 2, 60
    assert fc1_input_dim("hstates", H, L, nd, E) == 60 * 4 * 2
    assert fc1_input_dim("hstates_layers", H, L, nd, E) == 60 * 8 * 2
    assert fc1_input_dim("hstates_layers_simple", H, L, nd, E) == 60 * 4 * 2
    assert fc1_input_dim("hstates_subtract", H, L, nd, E) == 60 * 2 * 2
    assert fc1_input_dim("attention", H, L, nd, E) == 60 * 4 * 2
