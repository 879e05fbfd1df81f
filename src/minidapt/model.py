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


def param_shapes(config):
    """Every parameter's (name, shape), in init order. The init follows from
    it: each matrix draws N(0, INIT_STD) in turn, a `*.gamma` is ones and
    every other vector is zeros."""
    d, v, f = config.d_model, config.vocab_size, config.d_ff
    yield "embed.tok", (v, d)
    yield "embed.pos", (config.max_len, d)
    for i in range(config.num_layers):
        p = f"layer{i}"
        for proj in ("wq", "wk", "wv", "wo"):
            yield f"{p}.attn.{proj}", (d, d)
            yield f"{p}.attn.{proj}_b", (d,)
        yield f"{p}.ffn.w1", (d, f)
        yield f"{p}.ffn.b1", (f,)
        yield f"{p}.ffn.w2", (f, d)
        yield f"{p}.ffn.b2", (d,)
        for ln in ("ln1", "ln2"):
            yield f"{p}.{ln}.gamma", (d,)
            yield f"{p}.{ln}.beta", (d,)
    yield "final_ln.gamma", (d,)
    yield "final_ln.beta", (d,)
    yield "mlm.w", (d, v)
    yield "mlm.b", (v,)
    n_in = d
    for j, n in enumerate(config.head_hidden, 1):
        yield f"head.dense{j}.w", (n_in, n)
        yield f"head.dense{j}.b", (n,)
        yield f"head.bn{j}.gamma", (n,)
        yield f"head.bn{j}.beta", (n,)
        n_in = n
    yield "head.out.w", (n_in, 1)
    yield "head.out.b", (1,)


class TransformerModel:
    """Parameter container plus forward passes for both heads."""

    def __init__(self, config, init=True):
        """With `init=False` the parameters are allocated unfilled, for a
        caller that writes every value."""
        self.config = config
        rng = np.random.default_rng(config.seed)
        self.params = {}
        for name, shape in param_shapes(config):
            if not init:
                value = np.empty(shape)
            elif len(shape) == 2:
                value = rng.normal(0.0, INIT_STD, size=shape)
            else:
                value = np.ones(shape) if name.endswith(".gamma") else np.zeros(shape)
            self.params[name] = Parameter(name, value)
        # one per `head.bn{j}` of the table
        self.bn_states = {f"head.bn{j}": BatchNormState(n)
                          for j, n in enumerate(config.head_hidden, 1)}

    # ---- parameter bookkeeping -------------------------------------------

    def encoder_param_names(self):
        return [n for n in self.params
                if not (n.startswith("head.") or n.startswith("mlm."))]

    def zero_grads(self):
        """Zero every trainable parameter's gradient; a frozen one is never
        written, so it keeps no array."""
        for p in self.params.values():
            if p.requires_grad:
                p.zero_grad()

    # ---- forward passes --------------------------------------------------

    def encode_forward(self, ids, pad_mask=None, mode="eval", rng=None):
        """Every position's hidden state [B, T, d]: `encode_at` with each
        position as a query. Kept only for the benchmark's checks, which call
        it; the pipeline calls `encode_cls` and `encode_at`."""
        B, T = np.shape(ids)
        return self.encode_at(ids, np.broadcast_to(np.arange(T), (B, T)), pad_mask, mode, rng)

    def encode_at(self, ids, queries, pad_mask=None, mode="eval", rng=None):
        """The hidden states [B, L, d] at positions `queries` (int [B, L]) of
        each row; ids: int [B, T]; pad_mask: bool [B, T], True at real
        tokens. Every layer but the last runs at all T positions. The last
        runs ln1, K and V at every position and the rest at the queries only,
        drawing its dropout masks at the full [B, T, d] shape and gathering
        them: the rng stream does not depend on which positions are queried,
        and a position's result does so only up to summation order."""
        cfg = self.config
        ids = np.asarray(ids)
        B, T = ids.shape
        if T > cfg.max_len:
            raise ValueError(f"sequence length {T} exceeds max_len {cfg.max_len}")
        if np.any(ids < 0) or np.any(ids >= cfg.vocab_size):
            raise ValueError("token id out of range")
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
            last = i == cfg.num_layers - 1
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

    def encode_cls(self, ids, pad_mask=None, mode="eval", rng=None):
        """The CLS slot's hidden state [B, 1, d], all the classifier head reads:
        `encode_at` with query 0 in every row."""
        return self.encode_at(ids, np.zeros((len(ids), 1), dtype=np.intp), pad_mask, mode, rng)

    def mlm_logits(self, hidden):
        return linear(hidden, self.params["mlm.w"], self.params["mlm.b"])

    def classify_logits(self, hidden, mode="eval", rng=None):
        """Raw pre-sigmoid scores [B] from the CLS-slot representation."""
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
