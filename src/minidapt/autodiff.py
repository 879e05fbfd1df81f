"""Dense float64 tensors with reverse-mode gradients.

Everything downstream (encoder, heads, losses) is built from the ops here:
`+` and indexing on `Tensor` (an integer-array index gathers embedding rows),
and one node each for `linear`, multi-head `attention`, `residual`, the
norms, `dropout` and the losses. `linear`, `attention` and `residual` give
bit for bit the values and gradients of the expressions their docstrings
state. `attention` takes [B, T, d] operands and keeps no [B, heads, T, S]
weights: it runs in blocks of batch rows, keeps each query's row max and sum,
and backward forms each block's weights again from them. A `grad` is None
until written. All arrays are 64-bit so finite-difference checks are
meaningful.
"""

from contextlib import contextmanager

import numpy as np


class ShapeError(ValueError):
    pass


def _unbroadcast(grad, shape):
    """Sum `grad` down to `shape` (inverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for i, (g, s) in enumerate(zip(grad.shape, shape)):
        if s == 1 and g != 1:
            grad = grad.sum(axis=i, keepdims=True)
    return grad


def _tape(root):
    """Depth-first post-order over `_prev`, in tuple order, without recursion."""
    tape, seen = [], {id(root)}
    stack = [(root, iter(root._prev))]
    while stack:
        node, parents = stack[-1]
        for p in parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append((p, iter(p._prev)))
                break
        else:
            stack.pop()
            tape.append(node)
    return tape


_recording = True


@contextmanager
def no_grad():
    """Within the block, op results link no inputs, so nothing is kept for a
    backward pass: for forwards whose loss is only read."""
    global _recording
    before, _recording = _recording, False
    try:
        yield
    finally:
        _recording = before


class Tensor:
    """An array plus, for op results, the links of the graph that made it.

    An op result holds its inputs in `_prev` and a `_backward(g)` that sends
    the upstream gradient `g` to them. Nothing refers back to the result, so
    a graph is freed as soon as the last reference to it goes.
    """

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = None  # the accumulated gradient; None until one is written
        self._backward = None
        self._prev = ()

    @property
    def shape(self):
        return self.data.shape

    def _accum(self, g):
        if not self.requires_grad:
            return
        g = _unbroadcast(g, self.data.shape)
        if self.grad is None:
            # a copy, never `g` itself, which `+` hands to both parents;
            # `empty_like` keeps the layout, and so the summation order, of
            # `zeros_like`
            self.grad = np.empty_like(self.data)
            np.copyto(self.grad, g)
        else:
            self.grad += g

    def zero_grad(self):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        else:
            self.grad.fill(0.0)

    # ---- graph construction helpers -------------------------------------

    def _child(self, data, prevs, backward):
        if not _recording:
            return Tensor(data)
        out = Tensor(data, requires_grad=any(p.requires_grad for p in prevs))
        out._prev = tuple(prevs)
        out._backward = backward
        return out

    # ---- arithmetic and indexing -----------------------------------------

    def __add__(self, other):
        def _backward(g):
            self._accum(g)
            other._accum(g)

        return self._child(self.data + other.data, (self, other), _backward)

    def __getitem__(self, idx):
        def _backward(g):
            full = np.zeros_like(self.data)
            np.add.at(full, idx, g)  # a repeated index adds, not overwrites
            self._accum(full)

        return self._child(self.data[idx], (self,), _backward)

    # ---- backward pass (the tape replay) ---------------------------------

    def backward(self):
        """Accumulate d(self)/d(leaf) into the `grad` of every leaf that
        requires one.

        One-shot: each op result is popped off the tape, replayed once, and
        its `grad`, `_prev` and `_backward` are dropped. Its consumers were
        replayed before it and no closure reads a consumer's output, so the
        graph below `self` is freed node by node and cannot be replayed
        again. Leaf grads (parameters) stay.
        """
        if self.data.ndim != 0 and self.data.size != 1:
            raise ShapeError(f"backward: loss must be scalar, got shape {self.data.shape}")
        if self.grad is None:
            self.grad = np.ones_like(self.data)
        tape = _tape(self)
        while tape:
            node = tape.pop()
            if node._prev:
                if node.grad is not None:
                    node._backward(node.grad)
                node.grad, node._prev, node._backward = None, (), None


class Parameter(Tensor):
    """A named leaf tensor; `requires_grad` is its freeze flag. Its `grad` is
    None until `zero_grad` or a first gradient writes an array."""

    def __init__(self, name, value, trainable=True):
        super().__init__(value, requires_grad=trainable)
        self.name = name


def stable_sigmoid(x):
    """Overflow-free sigmoid on ndarrays (branch on sign)."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def linear(x, w, b, relu=False):
    """x @ w + b as one node, then ReLU with `relu`: the bias and the ReLU are
    applied in place to the product, which is all the node keeps.

    Values and gradients equal, bit for bit, the NumPy expressions
    `z = x @ w + b` (then `np.maximum(z, 0)`) with `g @ wᵀ`,
    `_unbroadcast(xᵀ @ g)` and `_unbroadcast(g)` for x, w and b, where `g` is
    first masked with `out > 0` (equal to `z > 0`) under `relu`."""
    if x.data.ndim < 1 or w.data.ndim < 2 or x.data.shape[-1] != w.data.shape[-2]:
        raise ShapeError(
            "linear: inner dimensions disagree for shapes "
            f"{tuple(x.data.shape)} and {tuple(w.data.shape)}"
        )
    out = x.data @ w.data
    out += b.data
    if relu:
        np.maximum(out, 0.0, out=out)

    def _backward(g):
        if relu:
            g = g * (out > 0)
        b._accum(g)
        if x.requires_grad:
            x._accum(g @ np.swapaxes(w.data, -1, -2))
        if w.requires_grad:
            w._accum(np.swapaxes(x.data, -1, -2) @ g)

    return x._child(out, (x, w, b), _backward)


# the most bytes one block of attention weights [rows, heads, T, S] takes:
# forward and backward run the batch rows a block at a time, so no weights
# array larger than this exists and the node keeps none
ATTN_BLOCK_BYTES = 1 << 20


def attention(q, k, v, num_heads, bias=None):
    """Multi-head attention as one node: q [B, T, d] and k, v [B, S, d] are
    split into `num_heads` strided head views of width hd, each head gives
    softmax(q kᵀ / √hd + bias) v, and the heads are joined to [B, T, d].
    `bias` is None or a constant [B, 1, 1, S] added to the scores.

    The heads run over blocks of batch rows, each block's weights `p` in one
    buffer of at most ATTN_BLOCK_BYTES (one row if a row is larger). The node
    keeps no weights, only each query's row max and row sum
    ([B, heads, T, 1]): backward forms each block's `p` again in the
    forward's order (scores, × 1/√hd, + bias, − max, exp, ÷ sum). With
    upstream `g` made contiguous per block, it forms `gs = p * (g vᵀ -
    rowsum(g vᵀ * p)) / √hd` in place and writes `gs @ k`, `(qᵀ @ gs)ᵀ` and
    `pᵀ @ g` into contiguous [B, T, d]: values and gradients equal those
    NumPy expressions over the whole batch bit for bit.
    """
    hd = q.data.shape[-1] // num_heads
    d = num_heads * hd
    scale = 1.0 / np.sqrt(hd)

    def split(a):
        return np.swapaxes(a.reshape(a.shape[:-1] + (num_heads, hd)), -2, -3)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    B, _, T, _ = qh.shape
    S = kh.shape[-2]
    n = max(1, ATTN_BLOCK_BYTES // max(8 * num_heads * T * S, 1))
    blocks = [slice(i, i + n) for i in range(0, B, n)]
    m = np.empty((B, num_heads, T, 1))
    l = np.empty_like(m)

    def weights(blk, fresh=False):
        """The block's weights; `fresh` first stores their row max and sum."""
        p = qh[blk] @ np.swapaxes(kh[blk], -1, -2)
        p *= scale
        if bias is not None:
            p += bias[blk]
        if fresh:
            m[blk] = p.max(axis=-1, keepdims=True)
        p -= m[blk]
        np.exp(p, out=p)
        if fresh:
            l[blk] = p.sum(axis=-1, keepdims=True)
        p /= l[blk]
        return p

    out = np.empty((B, T, d))
    for blk in blocks:
        np.matmul(weights(blk, fresh=True), vh[blk], out=split(out)[blk])

    def _backward(g):
        g = split(g)
        gv, gq, gk = (np.empty((B, a.shape[-2], d)) if t.requires_grad else None
                      for t, a in ((v, vh), (q, qh), (k, kh)))
        for blk in blocks:
            p = weights(blk)
            gb = np.ascontiguousarray(g[blk])
            if gv is not None:
                np.matmul(np.swapaxes(p, -1, -2), gb, out=split(gv)[blk])
            gs = gb @ np.swapaxes(vh[blk], -1, -2)
            gs -= (gs * p).sum(axis=-1, keepdims=True)
            gs *= p
            gs *= scale
            del p, gb  # freed before the q and k products are formed
            if gq is not None:
                np.matmul(gs, kh[blk], out=split(gq)[blk])
            if gk is not None:
                split(gk)[blk] = np.swapaxes(np.swapaxes(qh[blk], -1, -2) @ gs, -1, -2)
        for t, grad in ((v, gv), (q, gq), (k, gk)):
            if grad is not None:
                t._accum(grad)

    return q._child(out, (q, k, v), _backward)


def layer_norm(x, gamma, beta, eps=1e-5):
    """Normalize the last axis, then scale/shift by gamma/beta (shape [d]).
    The node keeps `mu` and `inv` ([..., 1]), not `xhat`: backward forms it
    again with the forward's expression, so the gradients keep their bits."""
    d = x.data.shape[-1]
    mu = x.data.mean(axis=-1, keepdims=True)
    out = x.data - mu
    # np.var's own steps on the centred input, so `inv` keeps its bits
    inv = 1.0 / np.sqrt(np.square(out).sum(axis=-1, keepdims=True) / d + eps)
    out *= inv
    out *= gamma.data
    out += beta.data

    def _backward(g):
        xhat = (x.data - mu) * inv
        sum_axes = tuple(range(g.ndim - 1))
        gamma._accum((g * xhat).sum(axis=sum_axes))
        beta._accum(g.sum(axis=sum_axes))
        gx = g * gamma.data
        x._accum(inv / d * (d * gx - gx.sum(axis=-1, keepdims=True)
                            - xhat * (gx * xhat).sum(axis=-1, keepdims=True)))

    return x._child(out, (x, gamma, beta), _backward)


class BatchNormState:
    """Running statistics for one batch-norm layer (mutated only in train mode)."""

    def __init__(self, dim):
        self.running_mean = np.zeros(dim, dtype=np.float64)
        self.running_var = np.ones(dim, dtype=np.float64)


def batch_norm(x, gamma, beta, state, mode, momentum=0.1, eps=1e-5):
    """Batch normalization over axis 0 of a [B, d] tensor.

    Train mode uses batch statistics and updates `state` in place; eval mode
    reads `state` only.
    """
    if mode == "train":
        if x.data.shape[0] < 2:
            raise ShapeError("batch_norm: train mode needs batch size >= 2")
        mu = x.data.mean(axis=0)
        var = x.data.var(axis=0)
        state.running_mean = (1 - momentum) * state.running_mean + momentum * mu
        state.running_var = (1 - momentum) * state.running_var + momentum * var
    elif mode == "eval":
        mu = state.running_mean
        var = state.running_var
    else:
        raise ValueError(f"batch_norm: unknown mode {mode!r}")
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv

    def _backward(g):
        gamma._accum((g * xhat).sum(axis=0))
        beta._accum(g.sum(axis=0))
        gx = g * gamma.data
        if mode == "train":
            n = x.data.shape[0]
            x._accum(inv / n * (n * gx - gx.sum(axis=0)
                                - xhat * (gx * xhat).sum(axis=0)))
        else:
            x._accum(gx * inv)

    return x._child(xhat * gamma.data + beta.data, (x, gamma, beta), _backward)


def _keep_mask(shape, rate, rng):
    if rng is None:
        raise ValueError("dropout: train mode needs an rng")
    return rng.random(shape) >= rate


def dropout(x, rate, rng, mode):
    """Inverted dropout; identity in eval mode or at rate 0. The node keeps
    the boolean keep-mask and scales it by 1 / (1 - rate) when used."""
    if mode != "train" or rate == 0.0:
        return x
    keep = _keep_mask(x.data.shape, rate, rng)
    return x._child(x.data * (keep / (1.0 - rate)), (x,),
                    lambda g: x._accum(g * (keep / (1.0 - rate))))


def residual(x, a, rate, rng, mode, draw=None):
    """x + dropout(a) as one node: the same draw from `rng` as `dropout`, and
    only the boolean keep-mask is kept, not the dropped-out `a`. Values and
    gradients equal that composition's bit for bit. A `draw` of (shape,
    index) draws the mask at that larger shape and keeps its entries at
    `index`, so a gather from a stream gets the full stream's mask bits and
    rng state."""
    if mode != "train" or rate == 0.0:
        return x + a
    if draw is None:
        keep = _keep_mask(a.data.shape, rate, rng)
    else:
        shape, index = draw
        keep = _keep_mask(shape, rate, rng)[index]
    out = keep / (1.0 - rate)
    out *= a.data
    out += x.data

    def _backward(g):
        x._accum(g)
        a._accum(g * (keep / (1.0 - rate)))

    return x._child(out, (x, a), _backward)


IGNORE_LABEL = -100


def masked_cross_entropy(logits, labels):
    """Mean cross-entropy in nats over positions whose label != IGNORE_LABEL.

    logits: Tensor [..., V]; labels: integer ndarray of the leading shape,
    each in [0, V) or IGNORE_LABEL (else a ValueError names it).
    Returns a scalar Tensor; zero (no gradient) when nothing is labeled.
    """
    labels = np.asarray(labels)
    V = logits.data.shape[-1]
    flat = logits.data.reshape(-1, V)
    lab = labels.reshape(-1)
    sel = lab != IGNORE_LABEL
    target = lab[sel]
    bad = (target < 0) | (target >= V)
    if bad.any():
        raise ValueError(f"masked_cross_entropy: label {int(target[bad][0])} "
                         f"out of range [0, {V})")
    n = len(target)
    if n == 0:
        return Tensor(0.0)
    rows = flat[sel]
    m = rows.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(rows - m).sum(axis=1))
    picked = rows[np.arange(n), target]
    loss = float((lse - picked).mean())

    def _backward(g):
        # in place, in the order of `float(g) * full` with `full[sel] = sm /
        # n`, so the bits (signed zeros too) are that expression's
        sm = rows - lse[:, None]
        np.exp(sm, out=sm)
        sm[np.arange(n), target] -= 1.0
        sm /= n
        full = np.zeros_like(flat)
        full[sel] = sm
        del sm
        full *= float(g)
        logits._accum(full.reshape(logits.data.shape))

    return logits._child(loss, (logits,), _backward)


def bce_with_logits(logits, targets):
    """Mean binary cross-entropy from raw scores; stable for large |z|."""
    z = logits.data.reshape(-1)
    y = np.asarray(targets, dtype=np.float64).reshape(-1)
    loss = float((np.maximum(z, 0) - z * y + np.log1p(np.exp(-np.abs(z)))).mean())

    def _backward(g):
        dz = (stable_sigmoid(z) - y) / z.size
        logits._accum(float(g) * dz.reshape(logits.data.shape))

    return logits._child(loss, (logits,), _backward)


def grad_check(f, params, fd_step=1e-5):
    """Max relative error between analytic gradients and central differences.

    f: zero-argument callable returning a scalar Tensor built from `params`.
    """
    for p in params:
        p.zero_grad()
    out = f()
    if not np.isfinite(out.data):
        raise ValueError("grad_check: non-finite objective")
    out.backward()
    analytic = [p.grad.copy() for p in params]

    worst = 0.0
    for p, a in zip(params, analytic):
        flat = p.data.reshape(-1)
        aflat = a.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + fd_step
            hi = float(f().data)
            flat[i] = orig - fd_step
            lo = float(f().data)
            flat[i] = orig
            if not (np.isfinite(hi) and np.isfinite(lo)):
                raise ValueError("grad_check: non-finite objective during perturbation")
            fd = (hi - lo) / (2 * fd_step)
            denom = max(abs(aflat[i]), abs(fd), 1e-8)
            worst = max(worst, abs(aflat[i] - fd) / denom)
    return worst
