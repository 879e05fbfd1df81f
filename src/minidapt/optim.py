"""Adam with decoupled weight decay, linear warmup/decay schedule, freezing."""

import numpy as np


def lr_at(step, peak_lr, warmup_steps, total_steps):
    """Learning rate at a 1-indexed step of total_steps: a linear ramp to
    peak_lr over warmup_steps, capped at a tenth of the run and at least 1,
    then a linear decay to 0 at the last step."""
    warmup = max(1, min(warmup_steps, total_steps // 10))
    if step <= warmup:
        return peak_lr * step / warmup
    return peak_lr * (total_steps - step) / (total_steps - warmup)


class AdamState:
    """One training loop's step count and moments; each loop starts its own."""
    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self):
        self.step = 0
        self.m = {}
        self.v = {}


def adam_step(params, state, lr, weight_decay=0.0):
    """Bias-corrected Adam on parameters with requires_grad; decoupled decay
    applied after the Adam delta. Frozen parameters and their moments are untouched."""
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    for p in params:
        if not p.requires_grad:
            continue
        g = p.grad
        if not np.all(np.isfinite(g)):
            raise ValueError(f"adam_step: non-finite gradient for parameter {p.name!r}")
        if p.name not in state.m:
            state.m[p.name] = np.zeros_like(p.data)
            state.v[p.name] = np.zeros_like(p.data)
        m = state.m[p.name]
        v = state.v[p.name]
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        p.data -= lr * mhat / (np.sqrt(vhat) + state.eps)
        if weight_decay:
            p.data -= lr * weight_decay * p.data


def set_trainable(model, selector):
    """selector: 'head-only' trains the classifier head alone, 'encoder+mlm'
    everything outside it, 'all' every parameter; frozen parameters get a zero
    gradient. Returns the trainable tensor count."""
    if selector not in ("head-only", "encoder+mlm", "all"):
        raise ValueError(f"unknown selector {selector!r}")
    head = set(model.head_param_names())
    for name, p in model.params.items():
        p.requires_grad = selector == "all" or (name in head) == (selector == "head-only")
        p.zero_grad()
    return sum(p.requires_grad for p in model.params.values())
