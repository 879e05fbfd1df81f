"""Spans and counts at the program's layer boundaries, recorded by wrapping
each layer's public functions and methods from outside the program.

A span is (name, start, end, parent index). Spans stay in memory and are
written out when the round ends. A layer's self time is its span's duration
minus the durations of the spans it directly contains.
"""

import functools
import gc
import json
import resource
import time
from collections import Counter, defaultdict

import numpy as np

from minidapt import autodiff, baseline, corpus, masking, model, optim, tokenizer, trainer
from minidapt.checkpoint import Checkpoint


def maxrss_mb():
    """Peak RSS of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._undo = []
        self._gc_start = None
        self._retained_from = None  # (encode_forward calls, peak RSS MB)

    # ---- wrapping --------------------------------------------------------

    def wrap(self, owner, attr, name, count=None):
        """Replace owner.attr by a wrapper that records a span per call.
        name: a span name, or a function of the call's arguments giving one."""
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name(*args, **kwargs) if callable(name) else name,
                    time.perf_counter(), None,
                    tracer._stack[-1] if tracer._stack else None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if count is not None:
                count(result, *args, **kwargs)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, fn))

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.counts["gc.collections"] += 1
            self.counts["gc.pause_s"] += time.perf_counter() - self._gc_start
            self._gc_start = None

    def install(self):
        c = self.counts

        def encoded(result, *args, **kwargs):
            c["tokenizer.encode.tokens"] += len(result.ids)

        def forwarded(result, model_, ids, pad_mask=None, mode="eval", rng=None):
            B, T = np.shape(ids)
            c["model.encode_forward.calls"] += 1
            c["model.encode_forward.positions"] += B * T
            c["model.encode_forward.real"] += B * T if pad_mask is None else int(np.sum(pad_mask))

        def forward_name(model_, ids, pad_mask=None, mode="eval", rng=None):
            if mode != "train" and self._retained_from is None:
                # the first eval-mode forward comes after the first epoch's training
                self._retained_from = (c["model.encode_forward.calls"], maxrss_mb())
            return f"model.encode_forward.{mode}"

        def scored(result, logits, labels, *args, **kwargs):
            labels = np.asarray(labels)
            c["model.mlm_logits.scored"] += labels.size
            c["model.mlm_logits.labelled"] += int((labels != autodiff.IGNORE_LABEL).sum())

        def lsvm_trained(result, X, y, lam, epochs, seed=0):
            c["baseline.train_lsvm.updates"] += epochs * len(X)

        def called(key):
            def count(result, *args, **kwargs):
                c[key] += 1
            return count

        wraps = [
            ([tokenizer], "train_vocab", "tokenizer.train_vocab", None),
            ([tokenizer, corpus], "encode", "tokenizer.encode", encoded),
            ([corpus], "load_documents", "corpus.load_documents", None),
            ([corpus], "chunk_stream", "corpus.chunk_stream", None),
            ([masking, trainer], "collate", "masking.collate", called("masking.collate.calls")),
            ([model.TransformerModel], "encode_forward", forward_name, forwarded),
            ([model.TransformerModel], "mlm_logits", "model.mlm_logits", None),
            ([model.TransformerModel], "classify_logits", "model.classify_logits", None),
            ([autodiff.Tensor], "backward", "autodiff.backward", called("autodiff.backward.calls")),
            ([autodiff, trainer], "masked_cross_entropy", "autodiff.loss", scored),
            ([autodiff, trainer], "bce_with_logits", "autodiff.loss", None),
            ([optim, trainer], "adam_step", "optim.adam_step", called("optim.adam_step.calls")),
            ([trainer], "adapt_mlm", "trainer.adapt_mlm", None),
            ([trainer], "finetune_staged", "trainer.finetune_staged", None),
            ([trainer], "mlm_validation_loss", "trainer.mlm_validation_loss", None),
            ([trainer], "evaluate", "trainer.evaluate", None),
            ([Checkpoint], "copy", "checkpoint.copy", called("checkpoint.copy.calls")),
            ([baseline], "fit_tfidf", "baseline.fit_tfidf", None),
            ([baseline], "transform_all", "baseline.transform_all", None),
            ([baseline], "train_lsvm", "baseline.train_lsvm", lsvm_trained),
        ]
        for owners, attr, name, count in wraps:
            for owner in owners:
                self.wrap(owner, attr, name, count)
        gc.callbacks.append(self._on_gc)

    def uninstall(self):
        gc.callbacks.remove(self._on_gc)
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    # ---- results ---------------------------------------------------------

    def metrics(self):
        """Per-layer metrics of everything traced so far; call after the stage."""
        busy = defaultdict(float)
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            busy[name] += end - start
            if parent is not None:
                child[self.spans[parent][0]] += end - start
        c = self.counts
        retained = 0.0
        if self._retained_from is not None:
            calls, rss = self._retained_from
            batches = c["model.encode_forward.calls"] - calls
            retained = (maxrss_mb() - rss) / batches if batches else 0.0
        out = {f"{n}.busy_s": busy[n] for n in (
            "tokenizer.train_vocab", "tokenizer.encode", "corpus.load_documents",
            "corpus.chunk_stream", "masking.collate", "model.encode_forward.train",
            "model.encode_forward.eval", "model.mlm_logits", "model.classify_logits",
            "autodiff.backward", "autodiff.loss", "optim.adam_step",
            "trainer.mlm_validation_loss", "trainer.evaluate", "checkpoint.copy",
            "baseline.fit_tfidf", "baseline.transform_all", "baseline.train_lsvm")}
        for n in ("trainer.adapt_mlm", "trainer.finetune_staged"):
            out[f"{n}.self_s"] = busy[n] - child[n]
        for n in ("tokenizer.encode.tokens", "masking.collate.calls",
                  "model.encode_forward.calls", "model.encode_forward.positions",
                  "autodiff.backward.calls", "optim.adam_step.calls",
                  "checkpoint.copy.calls", "baseline.train_lsvm.updates",
                  "gc.collections", "gc.pause_s"):
            out[n] = c[n]
        positions = c["model.encode_forward.positions"]
        out["model.encode_forward.real_frac"] = (
            c["model.encode_forward.real"] / positions if positions else 0.0)
        scored_ = c["model.mlm_logits.scored"]
        out["model.mlm_logits.useful_frac"] = (
            c["model.mlm_logits.labelled"] / scored_ if scored_ else 0.0)
        out["autodiff.retained_mb_per_step"] = retained
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent}) + "\n")
