"""Command-line pipeline driver.

Subcommands: fixtures, vocab, adapt, finetune, evaluate, baseline, compare.
Each run writes a manifest with the settings the step read, its seed and its
input hashes, so a run can be reproduced byte-for-byte.
"""

import argparse
import copy
import hashlib
import json
import math
import os
import sys
from dataclasses import fields

import numpy as np

from . import baseline as bl
from . import fixtures
from .checkpoint import Checkpoint
from .corpus import MLM_RATIOS, SplitSpec, chunk_stream, load_documents, split
from .masking import MaskingConfig
from .metrics import EvalReport, classification_report
from .model import EncoderConfig, TransformerModel
from .tokenizer import DEFAULT_TARGET_SIZE, Vocabulary, encode, train_vocab
from .trainer import (FinetuneConfig, MLMConfig, TrainConfig, adapt_mlm,
                      evaluate, finetune_staged, write_curves)


def _section_defaults(cls):
    """A config class's defaults as JSON values; vocab_size and seed are set
    per run, not per section."""
    return {f.name: list(f.default) if isinstance(f.default, tuple) else f.default
            for f in fields(cls) if f.name not in ("vocab_size", "seed")}


DEFAULTS = {
    "seed": None,
    "chunk_size": TrainConfig.chunk_size,
    "vocab_target_size": DEFAULT_TARGET_SIZE,
    "encoder": _section_defaults(EncoderConfig),
    "mlm": _section_defaults(MLMConfig),
    "finetune": _section_defaults(FinetuneConfig),
    "masking": _section_defaults(MaskingConfig),
    "mlm_split": list(MLM_RATIOS),
    "cls_split": list(SplitSpec.ratios),
    "baseline": {"lambda_grid": list(bl.DEFAULT_LAMBDA_GRID),
                 "epochs": bl.DEFAULT_EPOCHS},
}


class CliError(Exception):
    def __init__(self, message, code=2):
        super().__init__(message)
        self.code = code


def _type_needed(default, value):
    """None if value has default's JSON type, else that type: an int (not a
    bool) for an int and for the seed (default None), a finite number for a
    float (JSON's NaN and Infinity are not), and a list of those for a list."""
    if isinstance(default, list):
        if isinstance(value, list) and not any(_type_needed(default[0], x) for x in value):
            return None
        return "a list of " + ("finite numbers" if isinstance(default[0], float) else "ints")
    if isinstance(default, float):
        ok = isinstance(value, int) or isinstance(value, float) and math.isfinite(value)
        needed = "a finite number"
    else:
        ok, needed = isinstance(value, int), "an int"
    return None if ok and not isinstance(value, bool) else needed


def _merge(base, override, prefix=""):
    """Merge override into base in place. Every key path must exist in base:
    a key base lacks, or one below a value that is not a section, is an error,
    as is a value in place of a section or of another JSON type."""
    for k, v in override.items():
        key = prefix + k
        if not isinstance(base, dict) or k not in base:
            raise CliError(f"unknown config key {key!r}")
        if isinstance(base[k], dict) and not isinstance(v, dict):
            raise CliError(f"config key {key!r} is a section; set its keys instead")
        if isinstance(v, dict):
            _merge(base[k], v, key + ".")
        elif needed := _type_needed(base[k], v):
            raise CliError(f"config key {key!r} must be {needed}, got {v!r}")
        else:
            base[k] = v


def resolve_config(args):
    cfg = copy.deepcopy(DEFAULTS)
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as f:
            try:
                loaded = json.load(f)
            except ValueError as e:
                raise CliError(f"{args.config}: not UTF-8 JSON ({e})") from None
        if not isinstance(loaded, dict):
            raise CliError(f"{args.config}: expected a JSON object")
        _merge(cfg, loaded)
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise CliError(f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        for part in reversed(key.split(".")):
            value = {part: value}
        _merge(cfg, value)
    if getattr(args, "seed", None) is not None:
        cfg["seed"] = args.seed
    if cfg["seed"] is None:
        raise CliError("a seed is required: pass --seed or set it in the config")
    if cfg["seed"] < 0:
        raise CliError(f"seed must be a non-negative int, got {cfg['seed']}")
    return cfg


def _section(cls, cfg, name, **fixed):
    """cls built from config section `name` (JSON lists as tuples) plus `fixed`."""
    values = {k: tuple(v) if isinstance(v, list) else v for k, v in cfg[name].items()}
    return cls(**values, **fixed)


def _train_config(cfg, keys):
    """TrainConfig from the config keys the step reads, its manifest keys; a
    section it does not read keeps its default, so a bad value there is
    neither checked nor used."""
    built = {name: _section(cls, cfg, name)
             for name, cls in [("mlm", MLMConfig), ("finetune", FinetuneConfig),
                               ("masking", MaskingConfig)]
             if name in keys}
    if "chunk_size" in keys:
        built["chunk_size"] = cfg["chunk_size"]
    return TrainConfig(seed=cfg["seed"], **built)


def _encoder_config(cfg, vocab_size):
    return _section(EncoderConfig, cfg, "encoder", vocab_size=vocab_size,
                    seed=cfg["seed"])


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def _first_output(out, name):
    """The path of `name` in directory `out`, made here: each command calls
    this at its first write, so one that fails before it leaves no empty
    directory behind."""
    os.makedirs(out, exist_ok=True)
    return os.path.join(out, name)


def _labeled_documents(path):
    """The records at `path`, every one of which must carry a label."""
    docs = load_documents(path, _load_format(path))
    if any(d.label is None for d in docs):
        raise CliError(f"{path}: missing label on one or more records")
    return docs


def _write_manifest(out, cfg, keys, inputs, extra=None):
    """Records the top-level config keys the step read, and the inputs: each
    role (vocab, corpus, ...) maps to a path or a list of paths, and only
    their hashes are recorded, so the manifest does not depend on where the
    files live."""
    hashes = {role: [_sha256(p) for p in path] if isinstance(path, list) else _sha256(path)
              for role, path in inputs.items()}
    manifest = {"config": {k: cfg[k] for k in keys}, "inputs": hashes}
    if extra:
        manifest.update(extra)
    path = os.path.join(out, "manifest.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
    return path


def _cls_splits(docs, cfg):
    """Train/val/test document splits for classification; shared with the
    baseline via the split seed so comparisons use identical test sets."""
    idx = split(range(len(docs)), SplitSpec(ratios=tuple(cfg["cls_split"]), seed=cfg["seed"]))
    parts = tuple([docs[i] for i in part] for part in idx)
    return parts, idx


def _load_format(path):
    return "csv" if path.endswith(".csv") else "jsonl"


# ---- commands -----------------------------------------------------------


def cmd_fixtures(args):
    cfg = resolve_config(args)
    paths = fixtures.generate_all(args.out, cfg["seed"])
    print("\n".join(f"{k}: {v}" for k, v in sorted(paths.items())))
    return 0


def cmd_vocab(args):
    cfg = resolve_config(args)
    out = args.out
    docs = []
    for path in args.corpus:
        docs.extend(load_documents(path, _load_format(path)))
    vocab = train_vocab([d.text for d in docs], cfg["vocab_target_size"])
    vocab_path = _first_output(out, "vocab.json")
    vocab.save(vocab_path)
    ids = [i for d in docs for i in encode(vocab, d.text).ids]
    total, unk = len(ids), ids.count(vocab.unk_id)
    stats = {"vocab_size": vocab.size, "corpus_tokens": total,
             "coverage": 1.0 - unk / max(total, 1)}
    with open(os.path.join(out, "vocab_stats.json"), "w", encoding="utf-8") as f:
        json.dump(stats, f, indent=2, sort_keys=True)
    _write_manifest(out, cfg, ["seed", "vocab_target_size"], {"corpus": args.corpus},
                    {"outputs": ["vocab.json", "vocab_stats.json"]})
    print(f"wrote {vocab_path} ({vocab.size} tokens, coverage {stats['coverage']:.4f})")
    return 0


def _fresh_checkpoint(cfg, vocab):
    return Checkpoint(TransformerModel(_encoder_config(cfg, vocab.size)))


def _load_checkpoint(path, vocab, vocab_path):
    """The checkpoint at path, which must be built for the vocabulary's size."""
    ckpt = Checkpoint.load(path)
    if ckpt.model.config.vocab_size != vocab.size:
        raise CliError(f"{vocab_path} has {vocab.size} tokens but {path} was built for "
                       f"{ckpt.model.config.vocab_size}")
    return ckpt


def cmd_adapt(args):
    cfg = resolve_config(args)
    out = args.out
    vocab = Vocabulary.load(args.vocab)
    docs = load_documents(args.corpus, _load_format(args.corpus))
    keys = ["seed", "chunk_size", "mlm_split", "mlm", "masking"]
    tc = _train_config(cfg, keys)
    parts = split(docs, SplitSpec(ratios=tuple(cfg["mlm_split"]), seed=tc.seed))
    chunk_parts = [chunk_stream(part, vocab, tc.chunk_size) for part in parts]
    inputs = {"vocab": args.vocab, "corpus": args.corpus}
    if args.init:
        init = _load_checkpoint(args.init, vocab, args.vocab)
        inputs["init"] = args.init
    else:
        init = _fresh_checkpoint(cfg, vocab)
        keys.append("encoder")
    ckpt, curves = adapt_mlm(init, chunk_parts, tc, vocab)
    ckpt_path = _first_output(out, "adapted.ckpt")
    ckpt.save(ckpt_path)
    write_curves(curves, os.path.join(out, "curves.csv"))
    report = evaluate(ckpt, chunk_parts[2], "mlm", tc, vocab)
    report.save(os.path.join(out, "report.json"))
    _write_manifest(out, cfg, keys, inputs,
                    {"outputs": ["adapted.ckpt", "curves.csv", "report.json"],
                     "provenance": ckpt.provenance})
    print(f"wrote {ckpt_path}; test perplexity {report.perplexity:.4f}")
    return 0


def cmd_finetune(args):
    cfg = resolve_config(args)
    out = args.out
    vocab = Vocabulary.load(args.vocab)
    docs = _labeled_documents(args.dataset)
    keys = ["seed", "cls_split", "finetune"]
    tc = _train_config(cfg, keys)
    (train_docs, val_docs, test_docs), idx = _cls_splits(docs, cfg)
    inputs = {"vocab": args.vocab, "dataset": args.dataset}
    if args.base == "vanilla":
        base = _fresh_checkpoint(cfg, vocab)
        keys.append("encoder")
    else:
        base = _load_checkpoint(args.base, vocab, args.vocab)
        inputs["base"] = args.base
    ckpt, curves = finetune_staged(base, (train_docs, val_docs, test_docs), tc, vocab)
    ckpt_path = _first_output(out, "classifier.ckpt")
    ckpt.save(ckpt_path)
    write_curves(curves, os.path.join(out, "curves.csv"))
    report = evaluate(ckpt, test_docs, "classify", tc, vocab)
    report.save(os.path.join(out, "report.json"))
    _write_manifest(out, cfg, keys, inputs,
                    {"outputs": ["classifier.ckpt", "curves.csv", "report.json"],
                     "provenance": ckpt.provenance,
                     "test_indices": list(idx[2])})
    print(f"wrote {ckpt_path}; test F1 {report.f1:.4f}, accuracy {report.accuracy:.4f}")
    return 0


def cmd_evaluate(args):
    cfg = resolve_config(args)
    out = args.out
    vocab = Vocabulary.load(args.vocab)
    ckpt = _load_checkpoint(args.ckpt, vocab, args.vocab)
    docs = load_documents(args.data, _load_format(args.data))
    mlm = args.task == "mlm"
    keys = ["seed", "chunk_size", "mlm", "masking"] if mlm else ["seed", "finetune"]
    tc = _train_config(cfg, keys)
    data = chunk_stream(docs, vocab, tc.chunk_size) if mlm else docs
    report = evaluate(ckpt, data, args.task, tc, vocab)
    report_path = _first_output(out, "report.json")
    report.save(report_path)
    _write_manifest(out, cfg, keys, {"vocab": args.vocab, "ckpt": args.ckpt, "data": args.data},
                    {"outputs": ["report.json"]})
    print(report.to_json())
    return 0


def cmd_baseline(args):
    cfg = resolve_config(args)
    if cfg["baseline"]["epochs"] < 1:
        raise CliError("baseline.epochs must be at least 1")
    out = args.out
    docs = _labeled_documents(args.dataset)
    (train_docs, val_docs, test_docs), idx = _cls_splits(docs, cfg)
    for part, name in [(train_docs, "train"), (val_docs, "val")]:
        if len({d.label for d in part}) < 2:
            raise CliError(f"baseline: {name} split contains a single class", code=1)
    tfidf = bl.fit_tfidf(train_docs)
    X_tr = bl.transform_all(tfidf, train_docs)
    X_va = bl.transform_all(tfidf, val_docs)
    X_te = bl.transform_all(tfidf, test_docs)
    y = lambda part: np.array([d.label for d in part])
    lsvm, lam = bl.tune_lsvm((X_tr, y(train_docs)), (X_va, y(val_docs)),
                             tuple(cfg["baseline"]["lambda_grid"]),
                             cfg["baseline"]["epochs"], seed=cfg["seed"])
    report = classification_report(lsvm.predict(X_te), y(test_docs))
    bl.save_baseline(tfidf, lsvm, _first_output(out, "baseline.json"))
    report.save(os.path.join(out, "report.json"))
    _write_manifest(out, cfg, ["seed", "cls_split", "baseline"], {"dataset": args.dataset},
                    {"outputs": ["baseline.json", "report.json"],
                     "chosen_lambda": lam,
                     "test_indices": list(idx[2])})
    print(f"baseline lambda {lam}; test F1 {report.f1:.4f}")
    return 0


COMPARE_COLUMNS = [("Precision", "precision"), ("Recall", "recall"),
                   ("F1-score", "f1"), ("Accuracy", "accuracy")]


def compare_table(reports):
    """reports: (name, classify EvalReport) pairs; bolds each column's
    maxima with **."""
    rows = [(name, {col: getattr(rep, attr) for col, attr in COMPARE_COLUMNS})
            for name, rep in reports]
    maxima = {col: max(r[1][col] for r in rows) for col, _ in COMPARE_COLUMNS}
    lines = ["Model," + ",".join(c for c, _ in COMPARE_COLUMNS)]
    text = ["Model      " + "  ".join(f"{c:>12}" for c, _ in COMPARE_COLUMNS)]
    for name, vals in rows:
        lines.append(name + "," + ",".join(repr(vals[c]) for c, _ in COMPARE_COLUMNS))
        cells = []
        for c, _ in COMPARE_COLUMNS:
            s = f"{vals[c]:.4f}"
            if vals[c] == maxima[c]:
                s = f"**{s}**"
            cells.append(f"{s:>12}")
        text.append(f"{name:<11}" + "  ".join(cells))
    return "\n".join(text), "\n".join(lines) + "\n"


def cmd_compare(args):
    if len(args.reports) < 2:
        raise CliError("compare needs at least 2 report files")
    reports = []
    for path in args.reports:
        name = os.path.basename(os.path.dirname(path)) or os.path.basename(path)
        try:
            rep = EvalReport.load(path)
        except (TypeError, ValueError) as e:  # ValueError: not UTF-8 or not JSON
            raise CliError(f"{path}: schema mismatch ({e})", code=1)
        if rep.task != "classify":
            raise CliError(f"{path}: not a classification report", code=1)
        for _, attr in COMPARE_COLUMNS:
            value = getattr(rep, attr)
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or isinstance(value, float) and not math.isfinite(value)):
                raise CliError(f"{path}: schema mismatch ({attr} is {value!r}, "
                               "not a finite number)", code=1)
        reports.append((name, rep))
    text, csv_text = compare_table(reports)
    with open(_first_output(args.out, "comparison.csv"), "w", encoding="utf-8") as f:
        f.write(csv_text)
    print(text)
    return 0


# ---- argument parsing ----------------------------------------------------


def _common(p):
    p.add_argument("--seed", type=int)
    p.add_argument("--config")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.add_argument("--out", required=True)


def build_parser():
    ap = argparse.ArgumentParser(prog="minidapt",
                                 description="Domain-adaptation pipeline for "
                                             "low-resource fake news detection")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fixtures", help="generate synthetic fixture data")
    p.add_argument("action", choices=["generate"])
    _common(p)
    p.set_defaults(fn=cmd_fixtures)

    p = sub.add_parser("vocab", help="train a subword vocabulary")
    p.add_argument("--corpus", nargs="+", required=True)
    _common(p)
    p.set_defaults(fn=cmd_vocab)

    p = sub.add_parser("adapt", help="MLM domain adaptation")
    p.add_argument("--vocab", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--init", help="checkpoint whose weights to continue from, with a "
                                  "fresh optimizer and schedule (default: fresh init)")
    _common(p)
    p.set_defaults(fn=cmd_adapt)

    p = sub.add_parser("finetune", help="two-stage classifier fine-tuning")
    p.add_argument("--vocab", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--base", required=True,
                   help="'vanilla' or path to an adapted checkpoint")
    _common(p)
    p.set_defaults(fn=cmd_finetune)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint")
    p.add_argument("--vocab", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--task", choices=["mlm", "classify"], required=True)
    _common(p)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("baseline", help="TF-IDF + linear SVM baseline")
    p.add_argument("--dataset", required=True)
    _common(p)
    p.set_defaults(fn=cmd_baseline)

    p = sub.add_parser("compare", help="render a model/metric comparison table")
    p.add_argument("reports", nargs="+")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_compare)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except (OSError, ValueError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
