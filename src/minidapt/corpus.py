"""Document loading, seeded train/val/test splits, and fixed-length chunking."""

import csv
import json
from dataclasses import dataclass

import numpy as np

from .tokenizer import encode, normalize_whitespace


@dataclass
class Document:
    text: str
    label: int = None
    category: str = None

    def __post_init__(self):
        if not normalize_whitespace(self.text):
            raise ValueError("Document: empty text")
        if self.label is not None and self.label not in (0, 1):
            raise ValueError(f"Document: label must be 0 or 1, got {self.label!r}")


MLM_RATIOS = (0.8, 0.1, 0.1)  # train/val/test split of an unlabelled corpus


@dataclass
class SplitSpec:
    ratios: tuple = (0.68, 0.12, 0.20)
    seed: int = 0

    def __post_init__(self):
        if len(self.ratios) != 3 or any(r < 0 for r in self.ratios):
            raise ValueError("SplitSpec: need three non-negative ratios")
        if abs(sum(self.ratios) - 1.0) > 1e-9:
            raise ValueError(f"SplitSpec: ratios sum to {sum(self.ratios)}, expected 1")


@dataclass
class Chunk:
    ids: list
    word_begin: list


def _parse_label(raw, lineno):
    if raw is None or raw == "":
        return None
    try:
        # an int or its digits: a JSON 0.7 or true is no label, not 0 or 1
        if isinstance(raw, bool) or not isinstance(raw, (int, str)):
            raise TypeError
        label = int(raw)
    except (TypeError, ValueError):
        raise ValueError(f"line {lineno}: label {raw!r} is not an integer")
    if label not in (0, 1):
        raise ValueError(f"line {lineno}: label must be 0 or 1, got {label}")
    return label


def load_documents(path, format):
    """Read documents from CSV (header text,label,category) or JSON lines."""
    docs = []
    if format == "csv":
        with open(path, newline="", encoding="utf-8") as f:
            reader = csv.DictReader(f)
            for lineno, row in enumerate(reader, start=2):
                if row.get("text") in (None, ""):
                    raise ValueError(f"line {lineno}: missing text field")
                docs.append(Document(text=row["text"],
                                     label=_parse_label(row.get("label"), lineno),
                                     category=row.get("category") or None))
    elif format == "jsonl":
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, start=1):
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as e:
                    raise ValueError(f"line {lineno}: malformed JSON ({e})")
                if not isinstance(obj, dict):
                    raise ValueError(f"line {lineno}: expected a JSON object")
                if not obj.get("text"):
                    raise ValueError(f"line {lineno}: missing text field")
                if not isinstance(obj["text"], str):
                    raise ValueError(f"line {lineno}: text {obj['text']!r} is not a string")
                docs.append(Document(text=obj["text"],
                                     label=_parse_label(obj.get("label"), lineno),
                                     category=obj.get("category")))
    else:
        raise ValueError(f"unknown format {format!r}")
    return docs


def split(docs, spec):
    """Seeded shuffle, then contiguous cuts at floor(n*r1) and floor(n*(r1+r2))."""
    docs = list(docs)
    if not docs:
        raise ValueError("split: no documents")
    rng = np.random.default_rng(spec.seed)
    order = rng.permutation(len(docs))
    n = len(docs)
    c1 = int(np.floor(n * spec.ratios[0]))
    c2 = int(np.floor(n * (spec.ratios[0] + spec.ratios[1])))
    shuffled = [docs[i] for i in order]
    return shuffled[:c1], shuffled[c1:c2], shuffled[c2:]


def chunk_stream(docs, vocab, chunk_size=128):
    """Encode, concatenate in document order, cut into full blocks of
    chunk_size; the trailing partial block is dropped."""
    if chunk_size < 2:
        raise ValueError("chunk_size must be >= 2")
    ids = []
    word_begin = []
    for doc in docs:
        enc = encode(vocab, doc.text)
        ids.extend(enc.ids)
        word_begin.extend(enc.word_begin)
    chunks = []
    for start in range(0, len(ids) - chunk_size + 1, chunk_size):
        chunks.append(Chunk(ids=ids[start:start + chunk_size],
                            word_begin=word_begin[start:start + chunk_size]))
    return chunks
