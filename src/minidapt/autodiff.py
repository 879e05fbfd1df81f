"""Dense float64 tensors with reverse-mode gradients.

Everything downstream (encoder, heads, losses) is built from the ops here.
All arrays are 64-bit so finite-difference checks are meaningful.
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


def _check_inner(op, x, w):
    if x.data.ndim < 1 or w.data.ndim < 2 or x.data.shape[-1] != w.data.shape[-2]:
        raise ShapeError(
            f"{op}: inner dimensions disagree for shapes "
            f"{tuple(x.data.shape)} and {tuple(w.data.shape)}"
        )


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
        self.grad = None
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
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def zero_grad(self):
        self.grad = np.zeros_like(self.data)

    # ---- graph construction helpers -------------------------------------

    def _child(self, data, prevs, backward):
        if not _recording:
            return Tensor(data)
        out = Tensor(data, requires_grad=any(p.requires_grad for p in prevs))
        out._prev = tuple(prevs)
        out._backward = backward
        return out

    # ---- arithmetic ------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Tensor):
            other = Tensor(other)

        def _backward(g):
            self._accum(g)
            other._accum(g)

        return self._child(self.data + other.data, (self, other), _backward)

    __radd__ = __add__

    def __neg__(self):
        return self._child(-self.data, (self,), lambda g: self._accum(-g))

    def __sub__(self, other):
        if not isinstance(other, Tensor):
            other = Tensor(other)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Tensor):
            other = Tensor(other)

        def _backward(g):
            if self.requires_grad:
                self._accum(g * other.data)
            if other.requires_grad:
                other._accum(g * self.data)

        return self._child(self.data * other.data, (self, other), _backward)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self * (1.0 / float(scalar))

    def matmul(self, other):
        if not isinstance(other, Tensor):
            other = Tensor(other)
        _check_inner("matmul", self, other)

        def _backward(g):
            if self.requires_grad:
                self._accum(g @ np.swapaxes(other.data, -1, -2))
            if other.requires_grad:
                other._accum(np.swapaxes(self.data, -1, -2) @ g)

        return self._child(self.data @ other.data, (self, other), _backward)

    __matmul__ = matmul

    # ---- shape ops -------------------------------------------------------

    def reshape(self, *shape):
        orig = self.data.shape
        return self._child(self.data.reshape(*shape), (self,),
                           lambda g: self._accum(g.reshape(orig)))

    def transpose(self, *axes):
        inv = np.argsort(axes)
        return self._child(self.data.transpose(axes), (self,),
                           lambda g: self._accum(g.transpose(inv)))

    def __getitem__(self, idx):
        def _backward(g):
            full = np.zeros_like(self.data)
            full[idx] = g
            self._accum(full)

        return self._child(self.data[idx], (self,), _backward)

    # ---- reductions & nonlinearities ------------------------------------

    def sum(self):
        return self._child(self.data.sum(), (self,),
                           lambda g: self._accum(np.broadcast_to(g, self.data.shape)))

    def mean(self):
        return self.sum() / self.data.size

    def relu(self):
        return self._child(np.maximum(self.data, 0.0), (self,),
                           lambda g: self._accum(g * (self.data > 0)))

    # ---- backward pass (the tape replay) ---------------------------------

    def backward(self):
        """Accumulate d(self)/d(leaf) into the `grad` of every leaf that
        requires one.

        One-shot: each op result is replayed once, then its `grad`, `_prev`
        and `_backward` are dropped, so the graph below `self` is freed as it
        goes and cannot be replayed again. Leaf grads (parameters) stay.
        """
        if self.data.ndim != 0 and self.data.size != 1:
            raise ShapeError(f"backward: loss must be scalar, got shape {self.data.shape}")
        if self.grad is None:
            self.grad = np.ones_like(self.data)
        for node in reversed(_tape(self)):
            if node._prev:
                if node.grad is not None:
                    node._backward(node.grad)
                node.grad, node._prev, node._backward = None, (), None


class Parameter(Tensor):
    """A named leaf tensor; `requires_grad` is its freeze flag, and a frozen
    parameter keeps a zero gradient."""

    def __init__(self, name, value, trainable=True):
        super().__init__(value, requires_grad=trainable)
        self.name = name
        self.zero_grad()


def stable_sigmoid(x):
    """Overflow-free sigmoid on ndarrays (branch on sign)."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def linear(x, w, b):
    """x @ w + b as one node: the bias is added in place into the product.
    The backward runs the expressions of `matmul` followed by `+`, so values
    and gradients equal that composition's bit for bit."""
    _check_inner("linear", x, w)
    out = x.data @ w.data
    out += b.data

    def _backward(g):
        b._accum(g)
        if x.requires_grad:
            x._accum(g @ np.swapaxes(w.data, -1, -2))
        if w.requires_grad:
            w._accum(np.swapaxes(x.data, -1, -2) @ g)

    return x._child(out, (x, w, b), _backward)


def attention(q, k, v, scale, bias=None):
    """softmax(q @ kᵀ * scale + bias) @ v as one node, over [..., T, hd]
    heads; `bias` is a constant array that broadcasts to the scores.

    The scores are scaled, biased, shifted by their row maximum, exponentiated
    and normalized inside the one `q @ kᵀ` buffer, and only those weights are
    kept for the backward pass. The backward does the arithmetic of `matmul`,
    `*`, `+` and a row softmax's backward in their order, with the score
    gradient worked out in place in one buffer, so values and gradients equal
    that composition's bit for bit.
    """
    w = q.data @ np.swapaxes(k.data, -1, -2)
    w *= scale
    if bias is not None:
        w += bias
    w -= w.max(axis=-1, keepdims=True)
    np.exp(w, out=w)
    w /= w.sum(axis=-1, keepdims=True)

    def _backward(g):
        if v.requires_grad:
            v._accum(np.swapaxes(w, -1, -2) @ g)
        gs = g @ np.swapaxes(v.data, -1, -2)
        gs -= (gs * w).sum(axis=-1, keepdims=True)
        gs *= w
        gs *= scale
        if q.requires_grad:
            q._accum(gs @ k.data)
        if k.requires_grad:
            k._accum(np.swapaxes(np.swapaxes(q.data, -1, -2) @ gs, -1, -2))

    return q._child(w @ v.data, (q, k, v), _backward)


def layer_norm(x, gamma, beta, eps=1e-5):
    """Normalize the last axis, then scale/shift by gamma/beta (shape [d])."""
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv

    def _backward(g):
        d = x.data.shape[-1]
        sum_axes = tuple(range(g.ndim - 1))
        gamma._accum((g * xhat).sum(axis=sum_axes))
        beta._accum(g.sum(axis=sum_axes))
        gx = g * gamma.data
        x._accum(inv / d * (d * gx - gx.sum(axis=-1, keepdims=True)
                            - xhat * (gx * xhat).sum(axis=-1, keepdims=True)))

    return x._child(xhat * gamma.data + beta.data, (x, gamma, beta), _backward)


class BatchNormState:
    """Running statistics for one batch-norm layer (mutated only in train mode)."""

    def __init__(self, dim):
        self.running_mean = np.zeros(dim, dtype=np.float64)
        self.running_var = np.ones(dim, dtype=np.float64)

    def copy(self):
        c = BatchNormState(len(self.running_mean))
        c.running_mean = self.running_mean.copy()
        c.running_var = self.running_var.copy()
        return c


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


def embedding(table, ids):
    """Row lookup: table [V, d] indexed by an integer ndarray of any shape."""
    ids = np.asarray(ids)

    def _backward(g):
        full = np.zeros_like(table.data)
        np.add.at(full, ids.reshape(-1), g.reshape(-1, table.data.shape[1]))
        table._accum(full)

    return table._child(table.data[ids], (table,), _backward)


def dropout(x, rate, rng, mode):
    """Inverted dropout; identity in eval mode or at rate 0."""
    if mode != "train" or rate == 0.0:
        return x
    if rng is None:
        raise ValueError("dropout: train mode needs an rng")
    mask = (rng.random(x.data.shape) >= rate) / (1.0 - rate)
    return x._child(x.data * mask, (x,), lambda g: x._accum(g * mask))


IGNORE_LABEL = -100


def masked_cross_entropy(logits, labels, ignore=IGNORE_LABEL):
    """Mean cross-entropy in nats over positions whose label != ignore.

    logits: Tensor [..., V]; labels: integer ndarray of the leading shape.
    Returns a scalar Tensor; zero (no gradient) when nothing is labeled.
    """
    labels = np.asarray(labels)
    flat = logits.data.reshape(-1, logits.data.shape[-1])
    lab = labels.reshape(-1)
    sel = lab != ignore
    n = int(sel.sum())
    if n == 0:
        return Tensor(0.0)
    rows = flat[sel]
    m = rows.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(rows - m).sum(axis=1))
    picked = rows[np.arange(n), lab[sel]]
    loss = float((lse - picked).mean())

    def _backward(g):
        full = np.zeros_like(flat)
        sm = np.exp(rows - lse[:, None])
        sm[np.arange(n), lab[sel]] -= 1.0
        full[sel] = sm / n
        logits._accum(float(g) * full.reshape(logits.data.shape))

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
