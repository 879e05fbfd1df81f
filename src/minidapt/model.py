"""Miniature pre-norm transformer encoder with two output heads.

The classifier head is dense(256) -> ReLU -> batch norm -> dense(128) -> ReLU
-> batch norm -> dropout(0.5) -> dense(1), a logit, pooled from the first
(CLS-slot) position; its sigmoid is the fake-news probability.
"""

from dataclasses import dataclass

import numpy as np

from .autodiff import (BatchNormState, Parameter, attention, batch_norm, dropout, layer_norm,
                       linear, residual)

ATTN_MASK_BIAS = -1e9  # additive bias for PAD keys; finite stand-in for -inf


@dataclass
class EncoderConfig:
    vocab_size: int
    num_layers: int = 2
    d_model: int = 64
    num_heads: int = 4
    d_ff: int = 128
    max_len: int = 128
    dropout_rate: float = 0.1
    head_hidden: tuple = (256, 128)
    head_dropout: float = 0.5
    seed: int = 0

    def __post_init__(self):
        for name in ("vocab_size", "num_layers", "d_model", "num_heads", "d_ff", "max_len"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an int, got {value!r}")
            if value <= 0:
                raise ValueError(f"{name} must be positive")
        if self.d_model % self.num_heads != 0:
            raise ValueError("d_model must be divisible by num_heads")
        for name in ("dropout_rate", "head_dropout"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not 0 <= value < 1):
                raise ValueError(f"{name} must be a number in [0, 1), got {value!r}")
        if len(self.head_hidden) != 2 or any(
                isinstance(n, bool) or not isinstance(n, int) or n <= 0 for n in self.head_hidden):
            raise ValueError(f"head_hidden must be two positive ints, got {self.head_hidden!r}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative int, got {self.seed!r}")

    def to_dict(self):
        d = self.__dict__.copy()
        d["head_hidden"] = list(self.head_hidden)
        return d

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        d["head_hidden"] = tuple(d["head_hidden"])
        return cls(**d)


INIT_STD = 0.02


class TransformerModel:
    """Parameter container plus forward passes for both heads."""

    def __init__(self, config, init=True):
        self.config = config
        self.params = {}
        self.bn_states = {}
        if init:
            self._init_params()

    # ---- initialization --------------------------------------------------

    def _add(self, name, value):
        self.params[name] = Parameter(name, value)

    def _init_params(self):
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)

        def w(*shape):
            return rng.normal(0.0, INIT_STD, size=shape)

        d, v = cfg.d_model, cfg.vocab_size
        self._add("embed.tok", w(v, d))
        self._add("embed.pos", w(cfg.max_len, d))
        for i in range(cfg.num_layers):
            p = f"layer{i}"
            for proj in ("wq", "wk", "wv", "wo"):
                self._add(f"{p}.attn.{proj}", w(d, d))
                self._add(f"{p}.attn.{proj}_b", np.zeros(d))
            self._add(f"{p}.ffn.w1", w(d, cfg.d_ff))
            self._add(f"{p}.ffn.b1", np.zeros(cfg.d_ff))
            self._add(f"{p}.ffn.w2", w(cfg.d_ff, d))
            self._add(f"{p}.ffn.b2", np.zeros(d))
            self._add(f"{p}.ln1.gamma", np.ones(d))
            self._add(f"{p}.ln1.beta", np.zeros(d))
            self._add(f"{p}.ln2.gamma", np.ones(d))
            self._add(f"{p}.ln2.beta", np.zeros(d))
        self._add("final_ln.gamma", np.ones(d))
        self._add("final_ln.beta", np.zeros(d))

        self._add("mlm.w", w(d, v))
        self._add("mlm.b", np.zeros(v))

        h1, h2 = cfg.head_hidden
        self._add("head.dense1.w", w(d, h1))
        self._add("head.dense1.b", np.zeros(h1))
        self._add("head.bn1.gamma", np.ones(h1))
        self._add("head.bn1.beta", np.zeros(h1))
        self._add("head.dense2.w", w(h1, h2))
        self._add("head.dense2.b", np.zeros(h2))
        self._add("head.bn2.gamma", np.ones(h2))
        self._add("head.bn2.beta", np.zeros(h2))
        self._add("head.out.w", w(h2, 1))
        self._add("head.out.b", np.zeros(1))
        self.bn_states["head.bn1"] = BatchNormState(h1)
        self.bn_states["head.bn2"] = BatchNormState(h2)

    # ---- parameter bookkeeping -------------------------------------------

    def encoder_param_names(self):
        return [n for n in self.params
                if not (n.startswith("head.") or n.startswith("mlm."))]

    def head_param_names(self):
        return [n for n in self.params if n.startswith("head.")]

    def zero_grads(self):
        for p in self.params.values():
            p.zero_grad()

    # ---- forward passes --------------------------------------------------

    def encode_forward(self, ids, pad_mask=None, mode="eval", rng=None):
        """ids: int ndarray [B, T]; pad_mask: bool [B, T], True at real tokens.
        Returns hidden Tensor [B, T, d]."""
        return self._encode(ids, pad_mask, mode, rng, None)

    def encode_at(self, ids, queries, pad_mask=None, mode="eval", rng=None):
        """The hidden states [B, L, d] at positions `queries` (int [B, L]) of
        each row: the last layer runs ln1, K and V at every position and the
        rest at the queries only, with the full path's dropout draws, so the
        result equals `encode_forward(...)` gathered at the queries up to
        summation order."""
        return self._encode(ids, pad_mask, mode, rng, queries)

    def encode_cls(self, ids, pad_mask=None, mode="eval", rng=None):
        """The CLS slot's hidden state [B, 1, d], all the classifier head reads:
        `encode_at` with query 0 in every row."""
        return self._encode(ids, pad_mask, mode, rng, np.zeros((len(ids), 1), dtype=np.intp))

    def _encode(self, ids, pad_mask, mode, rng, queries):
        cfg = self.config
        ids = np.asarray(ids)
        B, T = ids.shape
        if T > cfg.max_len:
            raise ValueError(f"sequence length {T} exceeds max_len {cfg.max_len}")
        if np.any(ids < 0) or np.any(ids >= cfg.vocab_size):
            raise ValueError("token id out of range")
        if queries is not None:
            queries = np.asarray(queries)
            if queries.ndim != 2 or len(queries) != B:
                raise ValueError(f"queries must have shape [{B}, L], got {queries.shape}")
            if np.any(queries < 0) or np.any(queries >= T):
                raise ValueError("query position out of range")
            at = (np.arange(B)[:, None], queries)
        P = self.params
        x = P["embed.tok"][ids] + P["embed.pos"][:T]
        if pad_mask is None:
            bias = None
        else:
            bias = np.where(np.asarray(pad_mask), 0.0, ATTN_MASK_BIAS)
            bias = bias[:, None, None, :]  # broadcast over heads and queries
        draw = None  # (full shape, index) of the dropout draw, when it is not the output's
        for i in range(cfg.num_layers):
            p = f"layer{i}"
            h = layer_norm(x, P[f"{p}.ln1.gamma"], P[f"{p}.ln1.beta"])
            last = queries is not None and i == cfg.num_layers - 1
            q = linear(h[at] if last else h, P[f"{p}.attn.wq"], P[f"{p}.attn.wq_b"])
            k, v = (linear(h, P[f"{p}.attn.{n}"], P[f"{p}.attn.{n}_b"]) for n in ("wk", "wv"))
            if last:
                x, draw = x[at], (x.shape, at)
            a = linear(attention(q, k, v, cfg.num_heads, bias),
                       P[f"{p}.attn.wo"], P[f"{p}.attn.wo_b"])
            x = residual(x, a, cfg.dropout_rate, rng, mode, draw)
            h = layer_norm(x, P[f"{p}.ln2.gamma"], P[f"{p}.ln2.beta"])
            ff = linear(h, P[f"{p}.ffn.w1"], P[f"{p}.ffn.b1"], relu=True)
            ff = linear(ff, P[f"{p}.ffn.w2"], P[f"{p}.ffn.b2"])
            x = residual(x, ff, cfg.dropout_rate, rng, mode, draw)
        return layer_norm(x, P["final_ln.gamma"], P["final_ln.beta"])

    def mlm_logits(self, hidden):
        return linear(hidden, self.params["mlm.w"], self.params["mlm.b"])

    def classify_logits(self, hidden, mode="eval", rng=None):
        """Raw pre-sigmoid scores [B] from the CLS-slot representation."""
        if mode == "train" and hidden.shape[0] < 2:
            raise ValueError("classify: train mode needs batch size >= 2")
        P = self.params
        pooled = hidden[:, 0, :]
        z = linear(pooled, P["head.dense1.w"], P["head.dense1.b"], relu=True)
        z = batch_norm(z, P["head.bn1.gamma"], P["head.bn1.beta"],
                       self.bn_states["head.bn1"], mode)
        z = linear(z, P["head.dense2.w"], P["head.dense2.b"], relu=True)
        z = batch_norm(z, P["head.bn2.gamma"], P["head.bn2.beta"],
                       self.bn_states["head.bn2"], mode)
        z = dropout(z, self.config.head_dropout, rng, mode)
        return linear(z, P["head.out.w"], P["head.out.b"])[:, 0]
