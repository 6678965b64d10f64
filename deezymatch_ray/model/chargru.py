"""NumPy char-level siamese bi-GRU/LSTM/RNN — forward pass.

Re-expresses the math of the reference's ``two_parallel_rnns``
(rnn_networks.py:753-1116) in pure NumPy (torch is not installable in
this sandbox): shared embedding + stacked (bi)directional GRU/RNN legs
with weight sharing between the two strings (rnn_networks.py:988-993),
the pooling zoo (:920-1099), combine modes (:1062-1099) and the
fc1→relu→fc2 head (:1101-1103).

Parity notes (documented deviations):
- PyTorch gate order (r, z, n) and GRU update equations are matched
  exactly, including packed-sequence semantics: per-row lengths mask
  state updates, outputs at padded positions are 0 (pad_packed parity,
  rnn_networks.py:879-889).
- ``attention`` / ``average`` / ``max`` pooling in the reference runs
  over the *batch-padded* timestep axis, making results depend on batch
  composition (zero pad rows enter the softmax/pool). We mask to each
  row's true length instead — deterministic under any batching, which a
  distributed engine requires.
- Dropout is inference-off here; the trainer applies inverted dropout
  masks during training only (rnn_networks.py:867-872 zeroes dropouts at
  evaluation).

Weights are a flat ``dict[str, np.ndarray]`` persisted as ``.npz`` —
never pickle in the data plane.
"""

from __future__ import annotations

import numpy as np

_SIGMOID_CLIP = 50.0


def sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -_SIGMOID_CLIP, _SIGMOID_CLIP)))


def row_matmul(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w.T`` over the last axis, each row's result a function of
    that row alone. OpenBLAS computes the last row of an sgemm with an
    odd row count in another kernel, whose last bits differ, so a
    string's embedding would depend on its batch; the rows go in as one
    2-D product with an even row count."""
    flat = x.reshape(-1, x.shape[-1])
    n = len(flat)
    if n % 2:
        flat = np.concatenate([flat, np.zeros((1, flat.shape[1]), flat.dtype)])
    return (flat @ w.T)[:n].reshape(*x.shape[:-1], w.shape[0])


def init_weights(
    vocab_size: int,
    embedding_dim: int = 60,
    rnn_hidden_dim: int = 60,
    num_layers: int = 2,
    bidirectional: bool = True,
    fc1_out_dim: int = 120,
    output_dim: int = 2,
    pooling_mode: str = "hstates_layers_simple",
    main_architecture: str = "gru",
    seed: int = 123,
    dtype=np.float32,
) -> dict[str, np.ndarray]:
    """Uniform(-1/sqrt(H)) init like torch's RNN default; embedding N(0,1)."""
    rng = np.random.default_rng(seed)
    H, E = rnn_hidden_dim, embedding_dim
    ndir = 2 if bidirectional else 1
    gate = {"gru": 3, "lstm": 4}.get(main_architecture, 1)
    w: dict[str, np.ndarray] = {
        "emb": rng.standard_normal((vocab_size, E)).astype(dtype),
    }
    k = 1.0 / np.sqrt(H)
    for l in range(num_layers):
        in_dim = E if l == 0 else H * ndir
        for d in range(ndir):
            w[f"rnn_1.W_ih_l{l}_d{d}"] = rng.uniform(-k, k, (gate * H, in_dim)).astype(dtype)
            w[f"rnn_1.W_hh_l{l}_d{d}"] = rng.uniform(-k, k, (gate * H, H)).astype(dtype)
            w[f"rnn_1.b_ih_l{l}_d{d}"] = rng.uniform(-k, k, gate * H).astype(dtype)
            w[f"rnn_1.b_hh_l{l}_d{d}"] = rng.uniform(-k, k, gate * H).astype(dtype)
    fc1_in = fc1_input_dim(pooling_mode, H, num_layers, ndir, E)
    kf = 1.0 / np.sqrt(fc1_in)
    w["fc1.W"] = rng.uniform(-kf, kf, (fc1_out_dim, fc1_in)).astype(dtype)
    w["fc1.b"] = rng.uniform(-kf, kf, fc1_out_dim).astype(dtype)
    k2 = 1.0 / np.sqrt(fc1_out_dim)
    w["fc2.W"] = rng.uniform(-k2, k2, (output_dim, fc1_out_dim)).astype(dtype)
    w["fc2.b"] = rng.uniform(-k2, k2, output_dim).astype(dtype)
    ka = 1.0 / np.sqrt(H * ndir)
    w["attn.W1"] = rng.uniform(-ka, ka, (E, H * ndir)).astype(dtype)
    w["attn.b1"] = rng.uniform(-ka, ka, E).astype(dtype)
    ke = 1.0 / np.sqrt(E)
    w["attn.W2"] = rng.uniform(-ke, ke, (1, E)).astype(dtype)
    w["attn.b2"] = rng.uniform(-ke, ke, 1).astype(dtype)
    return w


def fc1_input_dim(pooling_mode: str, H: int, n_layers: int, ndir: int, E: int) -> int:
    """fc1 in-features per pooling mode (rnn_networks.py:792-801,:848-851)."""
    if pooling_mode in ("attention", "average", "max", "maximum", "hstates"):
        mult = 4
    elif pooling_mode == "hstates_layers":
        mult = 4 * n_layers
    elif pooling_mode == "hstates_layers_simple":
        mult = 2 * n_layers
    elif pooling_mode in ("hstates_subtract", "hstates_l2_distance"):
        mult = 1 * n_layers
    else:
        mult = 1
    return H * mult * ndir


class CharGRU:
    """Stateless forward over a frozen weight dict.

    ``arch``: "gru" | "lstm" | "rnn" (LSTM gate order i,f,g,o matching
    ``nn.LSTM`` as built at rnn_networks.py:72-90). All arrays float32;
    inputs are
    ``(x [B,T] int32, lens [B] int32)`` produced by
    ``functions.text.encode_strings``.
    """

    def __init__(
        self,
        weights: dict[str, np.ndarray],
        num_layers: int = 2,
        bidirectional: bool = True,
        arch: str = "gru",
        pooling_mode: str = "hstates_layers_simple",
    ):
        self.w = weights
        self.num_layers = num_layers
        self.ndir = 2 if bidirectional else 1
        self.arch = arch
        self.pooling_mode = pooling_mode
        self.H = weights["rnn_1.W_hh_l0_d0"].shape[1]

    # -- one direction of one layer over the padded batch ------------------
    def _run_direction(
        self, inp: np.ndarray, lens: np.ndarray, l: int, d: int,
        cache: list | None = None, counts: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """inp [B,T,in] → (outputs [B,T,H] zero-padded, final state [B,H]).

        ``counts`` (inference fast path): rows sorted by length DESC and
        counts[t] = #rows with len > t — each step then touches only the
        contiguous active prefix (packed-sequence economics: avg-length
        work instead of max-length), with identical results.
        """
        B, T, _ = inp.shape
        H = self.H
        W_ih = self.w[f"rnn_1.W_ih_l{l}_d{d}"]
        W_hh = self.w[f"rnn_1.W_hh_l{l}_d{d}"]
        b_ih = self.w[f"rnn_1.b_ih_l{l}_d{d}"]
        b_hh = self.w[f"rnn_1.b_hh_l{l}_d{d}"]
        h = np.zeros((B, H), dtype=inp.dtype)
        c = np.zeros((B, H), dtype=inp.dtype) if self.arch == "lstm" else None
        out = np.zeros((B, T, H), dtype=inp.dtype)
        # precompute input gates for all t at once: [B,T,gate*H]
        gi_all = row_matmul(inp, W_ih) + b_ih
        steps = range(T) if d == 0 else range(T - 1, -1, -1)
        if counts is not None and cache is None:
            for t in steps:
                k = counts[t]
                if k == 0:
                    continue
                gh = row_matmul(h[:k], W_hh) + b_hh
                gi = gi_all[:k, t]
                if self.arch == "gru":
                    rz = sigmoid(gi[:, : 2 * H] + gh[:, : 2 * H])  # fused r,z
                    r = rz[:, :H]
                    z = rz[:, H:]
                    n = np.tanh(gi[:, 2 * H :] + r * gh[:, 2 * H :])
                    h_new = (1.0 - z) * n + z * h[:k]
                elif self.arch == "lstm":
                    a = gi + gh  # torch gate order i,f,g,o (nn.LSTM docs)
                    i = sigmoid(a[:, :H])
                    f = sigmoid(a[:, H : 2 * H])
                    g = np.tanh(a[:, 2 * H : 3 * H])
                    o = sigmoid(a[:, 3 * H :])
                    c_new = f * c[:k] + i * g
                    h_new = o * np.tanh(c_new)
                    c[:k] = c_new
                else:
                    h_new = np.tanh(gi + gh)
                h[:k] = h_new
                out[:k, t] = h_new
            return out, h
        for t in steps:
            valid = (t < lens)[:, None]  # [B,1]
            gh = row_matmul(h, W_hh) + b_hh
            gi = gi_all[:, t]
            if self.arch == "gru":
                r = sigmoid(gi[:, :H] + gh[:, :H])
                z = sigmoid(gi[:, H : 2 * H] + gh[:, H : 2 * H])
                n = np.tanh(gi[:, 2 * H :] + r * gh[:, 2 * H :])
                h_new = (1.0 - z) * n + z * h
                if cache is not None:
                    cache.append((t, h.copy(), r, z, n, gh[:, 2 * H :].copy(), valid))
            elif self.arch == "lstm":
                a = gi + gh
                i = sigmoid(a[:, :H])
                f = sigmoid(a[:, H : 2 * H])
                g = np.tanh(a[:, 2 * H : 3 * H])
                o = sigmoid(a[:, 3 * H :])
                c_new = f * c + i * g
                h_new = o * np.tanh(c_new)
                if cache is not None:
                    cache.append((t, h.copy(), c.copy(), (i, f, g, o), c_new, None, valid))
                c = np.where(valid, c_new, c)
            else:  # vanilla tanh RNN
                h_new = np.tanh(gi + gh)
                if cache is not None:
                    cache.append((t, h.copy(), None, None, h_new, None, valid))
            h = np.where(valid, h_new, h)
            out[:, t] = np.where(valid, h_new, 0.0)
        return out, h

    def encode(
        self, x: np.ndarray, lens: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """One leg: returns (rnn_out [B,T,H*ndir], h_n [n_layers, ndir, B, H]).

        h_n layout matches torch's ``h_n.view(num_layers, num_directions,
        batch, hidden)`` (rnn_networks.py:893-898).
        """
        lens = np.asarray(lens, dtype=np.int64)
        B, T = x.shape
        # sort rows by length desc → every timestep works on a contiguous
        # active prefix (see _run_direction counts path); unsort at the end
        order = np.argsort(-lens, kind="stable")
        identity = bool((order == np.arange(B)).all())
        if not identity:
            x = x[order]
            lens = lens[order]
        counts = (lens[None, :] > np.arange(T)[:, None]).sum(axis=1)
        inp = self.w["emb"][x]  # [B,T,E]
        h_n = np.zeros((self.num_layers, self.ndir, B, self.H), dtype=inp.dtype)
        for l in range(self.num_layers):
            outs = []
            for d in range(self.ndir):
                o, h = self._run_direction(inp, lens, l, d, counts=counts)
                outs.append(o)
                h_n[l, d] = h
            inp = np.concatenate(outs, axis=2) if self.ndir == 2 else outs[0]
        if not identity:
            inv = np.empty(B, dtype=np.int64)
            inv[order] = np.arange(B)
            inp = inp[inv]
            h_n = h_n[:, :, inv]
        return inp, h_n

    # -- pooling ----------------------------------------------------------
    def pool(self, rnn_out: np.ndarray, h_n: np.ndarray, lens: np.ndarray) -> np.ndarray:
        """Pool one leg per ``pooling_mode`` → [B, pool_dim]."""
        mode = self.pooling_mode
        B = rnn_out.shape[0]
        if mode == "hstates":
            parts = [h_n[-1, 0]]
            if self.ndir == 2:
                parts.append(h_n[-1, 1])
            return np.concatenate(parts, axis=1)
        if mode in ("hstates_layers", "hstates_layers_simple", "hstates_subtract",
                    "hstates_l2_distance", "hstates_cosine"):
            # fwd states of all layers, then bwd states of all layers
            # (rnn_networks.py:974-983)
            parts = [h_n[l, 0] for l in range(self.num_layers)]
            if self.ndir == 2:
                parts += [h_n[l, 1] for l in range(self.num_layers)]
            return np.concatenate(parts, axis=1)
        T = rnn_out.shape[1]
        mask = (np.arange(T)[None, :] < lens[:, None])[:, :, None]  # [B,T,1]
        if mode == "average":
            return rnn_out.sum(axis=1) / np.maximum(lens[:, None], 1)
        if mode in ("max", "maximum"):
            neg = np.where(mask, rnn_out, -np.inf)
            return neg.max(axis=1)
        if mode == "attention":
            # per-timestep MLP attention (rnn_networks.py:920-940), masked
            a1 = np.maximum(row_matmul(rnn_out, self.w["attn.W1"]) + self.w["attn.b1"], 0.0)
            scores = (row_matmul(a1, self.w["attn.W2"]) + self.w["attn.b2"])[:, :, 0]  # [B,T]
            scores = np.where(mask[:, :, 0], scores, -np.inf)
            scores = scores - scores.max(axis=1, keepdims=True)
            wts = np.exp(scores)
            # sequential sum: padded steps' zeros leave it unchanged, so
            # it does not depend on the batch's width (a pairwise .sum() does)
            wts = wts / np.cumsum(wts, axis=1)[:, -1:]
            return (rnn_out * wts[:, :, None]).sum(axis=1)
        raise ValueError(f"unknown pooling_mode {mode}")

    # -- full siamese forward --------------------------------------------
    def combine(self, p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
        """Combine pooled legs (rnn_networks.py:1062-1099)."""
        mode = self.pooling_mode
        if mode in ("attention", "average", "max", "maximum", "hstates", "hstates_layers"):
            return np.concatenate([p1, p2, p1 * p2, p1 - p2], axis=1)
        if mode == "hstates_layers_simple":
            return np.concatenate([p1, p2], axis=1)
        if mode == "hstates_subtract":
            return 1.0 - np.abs(p1 - p2)
        if mode == "hstates_l2_distance":
            return 1.0 - np.abs(p1 - p2) ** 2
        raise ValueError(f"no combine for pooling_mode {mode}")

    def forward(
        self,
        x1: np.ndarray,
        len1: np.ndarray,
        x2: np.ndarray,
        len2: np.ndarray,
    ) -> np.ndarray:
        """Logits [B,2]; for ``hstates_cosine`` returns [1-cos, cos] directly
        (rnn_networks.py:1093-1099)."""
        return self.head(*self.legs(x1, len1, x2, len2), logits=True)

    def legs(self, x1, len1, x2, len2) -> tuple[np.ndarray, np.ndarray]:
        """The two pooled legs of a pair batch. Both legs share weights
        (rnn_networks.py:988-993), so they run as ONE doubled batch: half
        the Python step-loop overhead, 2× larger matmuls — identical math."""
        B1, T1 = x1.shape
        B2, T2 = x2.shape
        T = max(T1, T2)
        x = np.zeros((B1 + B2, T), dtype=x1.dtype)
        x[:B1, :T1] = x1
        x[B1:, :T2] = x2
        lens = np.concatenate([np.asarray(len1), np.asarray(len2)])
        out, h_n = self.encode(x, lens)
        p1 = self.pool(out[:B1], h_n[:, :, :B1], np.asarray(len1))
        p2 = self.pool(out[B1:], h_n[:, :, B1:], np.asarray(len2))
        return p1, p2

    def head(self, p1: np.ndarray, p2: np.ndarray, logits: bool = False) -> np.ndarray:
        """The siamese head on pooled legs: combine → fc1 → relu → fc2 →
        softmax column 1, the match confidence (rnn_networks.py:1101-1103,
        :613-620); the [B,2] logits with ``logits``. ``hstates_cosine``
        has no fc layers: its confidence is the legs' cosine. fc1 and fc2
        run through ``row_matmul``, so a pair's score is a function of
        its two legs alone, whatever batch it is scored in."""
        if self.pooling_mode == "hstates_cosine":
            num = (p1 * p2).sum(axis=1)
            den = np.maximum(
                np.linalg.norm(p1, axis=1) * np.linalg.norm(p2, axis=1), 1e-10
            )
            cos = num / den
            return np.stack([1.0 - cos, cos], axis=1) if logits else cos
        y = np.maximum(row_matmul(self.combine(p1, p2), self.w["fc1.W"]) + self.w["fc1.b"], 0.0)
        out = row_matmul(y, self.w["fc2.W"]) + self.w["fc2.b"]
        if logits:
            return out
        e = np.exp(out - out.max(axis=1, keepdims=True))
        return (e[:, 1] / e.sum(axis=1)).astype(np.float32)

    def match_probability(self, x1, len1, x2, len2) -> np.ndarray:
        """softmax column 1 — the match confidence (rnn_networks.py:613-620)."""
        return self.head(*self.legs(x1, len1, x2, len2))

    def embed(self, x: np.ndarray, lens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Inference "vect" mode: last layer's final fwd/bwd states
        (rnn_networks.py:893-918). Returns (fwd [B,H], bwd [B,H] or None)."""
        _, h_n = self.encode(x, lens)
        fwd = h_n[self.num_layers - 1, 0]
        bwd = h_n[self.num_layers - 1, 1] if self.ndir == 2 else None
        return fwd, bwd


def save_weights(path: str, weights: dict[str, np.ndarray], meta: dict | None = None) -> None:
    arrays = dict(weights)
    if meta:
        arrays["__meta__"] = np.frombuffer(
            __import__("json").dumps(meta).encode(), dtype=np.uint8
        )
    np.savez(path, **arrays)


def load_weights(path: str) -> tuple[dict[str, np.ndarray], dict]:
    data = np.load(path)
    meta = {}
    weights = {}
    for k in data.files:
        if k == "__meta__":
            meta = __import__("json").loads(bytes(data[k]).decode())
        else:
            weights[k] = data[k]
    return weights, meta
