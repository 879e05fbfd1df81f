"""Adam with decoupled weight decay, linear warmup/decay schedule, freezing."""

from dataclasses import dataclass

import numpy as np


@dataclass
class Schedule:
    peak_lr: float
    warmup_steps: int
    total_steps: int
    weight_decay: float = 0.0

    def __post_init__(self):
        if not (0 < self.warmup_steps <= self.total_steps):
            raise ValueError("need 0 < warmup_steps <= total_steps")
        if self.peak_lr <= 0 or self.weight_decay < 0:
            raise ValueError("peak_lr must be positive, weight_decay non-negative")


def lr_at(schedule, step):
    """Learning rate at a 1-indexed step: linear ramp to peak, linear decay to 0."""
    if not (1 <= step <= schedule.total_steps):
        raise ValueError(f"step {step} outside [1, {schedule.total_steps}]")
    if step <= schedule.warmup_steps:
        return schedule.peak_lr * step / schedule.warmup_steps
    span = schedule.total_steps - schedule.warmup_steps
    return schedule.peak_lr * (schedule.total_steps - step) / span


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
    """Bias-corrected Adam on trainable parameters; decoupled decay applied
    after the Adam delta. Frozen parameters and their moments are untouched."""
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    for p in params:
        if not p.trainable:
            continue
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
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
    """selector: 'head-only' freezes everything outside the classifier head;
    'all' unfreezes every parameter. Returns the trainable tensor count."""
    if selector == "head-only":
        head = set(model.head_param_names())
        for name, p in model.params.items():
            p.set_trainable(name in head)
    elif selector == "all":
        for p in model.params.values():
            p.set_trainable(True)
    else:
        raise ValueError(f"unknown selector {selector!r}")
    return sum(1 for p in model.params.values() if p.trainable)
