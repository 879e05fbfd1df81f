"""Document loading, seeded train/val/test splits, and fixed-length chunking."""

import csv
import json
from dataclasses import dataclass

import numpy as np

from .tokenizer import EncodedText, encode, normalize_whitespace


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
        # r >= 0 is False for NaN
        if len(self.ratios) != 3 or not all(
                isinstance(r, (int, float)) and not isinstance(r, bool) and r >= 0
                for r in self.ratios):
            raise ValueError("SplitSpec: need three non-negative ratios")
        if abs(sum(self.ratios) - 1.0) > 1e-9:
            raise ValueError(f"SplitSpec: ratios sum to {sum(self.ratios)}, expected 1")


def _parse_label(raw):
    if raw is None or raw == "":
        return None
    try:
        # an int or its digits: a JSON 0.7 or true is no label, not 0 or 1
        if isinstance(raw, bool) or not isinstance(raw, (int, str)):
            raise TypeError
        label = int(raw)
    except (TypeError, ValueError):
        raise ValueError(f"label {raw!r} is not an integer")
    return label  # Document checks that it is 0 or 1


def _document(record):
    """A Document from a CSV row or a parsed JSON line; an empty category is
    none, as a CSV cell cannot tell the two apart."""
    if not isinstance(record, dict):
        raise ValueError("expected a JSON object")
    if not record.get("text"):
        raise ValueError("missing text field")
    if not isinstance(record["text"], str):
        raise ValueError(f"text {record['text']!r} is not a string")
    return Document(text=record["text"], label=_parse_label(record.get("label")),
                    category=record.get("category") or None)


def _json_record(line):
    try:
        return json.loads(line)
    except json.JSONDecodeError as e:
        raise ValueError(f"malformed JSON ({e})")


def load_documents(path, format):
    """Read documents from CSV (header text,label,category) or JSON lines; a
    leading UTF-8 byte-order mark, as Excel writes, is skipped. A malformed
    record raises a ValueError that names the path and its line."""
    if format not in ("csv", "jsonl"):
        raise ValueError(f"unknown format {format!r}")
    docs = []
    with open(path, newline="" if format == "csv" else None, encoding="utf-8-sig") as f:
        try:
            if format == "csv":
                reader = csv.DictReader(f)
                for row in reader:
                    try:
                        docs.append(_document(row))
                    except ValueError as e:  # line_num: the record's last line
                        raise ValueError(f"{path}: line {reader.line_num}: {e}") from None
            else:
                for lineno, line in enumerate(f, start=1):
                    if line.strip():
                        try:
                            docs.append(_document(_json_record(line)))
                        except ValueError as e:
                            raise ValueError(f"{path}: line {lineno}: {e}") from None
        except UnicodeDecodeError as e:
            raise ValueError(f"{path}: not UTF-8 ({e})") from None
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


def chunk_stream(docs, vocab, chunk_size):
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
        chunks.append(EncodedText(ids=ids[start:start + chunk_size],
                                  word_begin=word_begin[start:start + chunk_size]))
    return chunks
