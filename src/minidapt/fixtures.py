"""Synthetic corpora for the pipeline and the tests.

Two word inventories with disjoint character sets stand in for a general
domain (A) and a target domain (B); the labeled dataset ties labels to
domain-B vocabulary. The marker words are reserved: no lexicon draws them,
so a dataset that plants them can be classified perfectly by a
bag-of-words linear rule.
"""

import json

import numpy as np

from .corpus import Document

_SYLLABLES_A = [c + v for c in "bdgkmn" for v in "aeo"]
_SYLLABLES_B = [c + v for c in "prstvz" for v in "iuy"]

TRUE_MARKERS = ["gomeda", "nakebo", "dagemo"]
FAKE_MARKERS = ["zupivi", "tirusu", "vypizy"]


def _lexicon(rng, syllables, n_words):
    reserved = set(TRUE_MARKERS) | set(FAKE_MARKERS)
    words = set()
    while len(words) < n_words:
        k = rng.integers(2, 5)  # 2 to 4 syllables
        w = "".join(syllables[i] for i in rng.integers(len(syllables), size=k))
        if w not in reserved:
            words.add(w)
    return sorted(words)


def _doc(rng, lexicon, n_words):
    # Zipf-ish usage: earlier lexicon entries are more frequent
    ranks = np.arange(1, len(lexicon) + 1, dtype=np.float64)
    p = (1.0 / ranks) / (1.0 / ranks).sum()
    return " ".join(lexicon[i] for i in rng.choice(len(lexicon), size=n_words, p=p))


def two_domain_corpus(seed, n_docs=60):
    """(domain A docs, domain B docs), unlabeled, each of 30 to 79 words
    from its domain's 40-word lexicon."""
    rng = np.random.default_rng([seed, 10])
    lex_a = _lexicon(rng, _SYLLABLES_A, 40)
    lex_b = _lexicon(rng, _SYLLABLES_B, 40)
    docs_a, docs_b = [], []
    for _ in range(n_docs):
        n = int(rng.integers(30, 80))
        docs_a.append(Document(text=_doc(rng, lex_a, n), category="A"))
        n = int(rng.integers(30, 80))
        docs_b.append(Document(text=_doc(rng, lex_b, n), category="B"))
    return docs_a, docs_b


def classification_dataset(seed, n=120):
    """Labeled dataset whose labels correlate with domain-B vocabulary:
    fake (1) articles draw mostly from domain B, true (0) from domain A,
    20 to 39 words each."""
    rng = np.random.default_rng([seed, 11])
    lex_a = _lexicon(rng, _SYLLABLES_A, 40)
    lex_b = _lexicon(rng, _SYLLABLES_B, 40)
    docs = []
    for i in range(n):
        label = i % 2
        major, minor = (lex_b, lex_a) if label == 1 else (lex_a, lex_b)
        n_words = int(rng.integers(20, 40))
        n_minor = n_words // 5
        words = (_doc(rng, major, n_words - n_minor) + " "
                 + _doc(rng, minor, n_minor))
        docs.append(Document(text=words, label=label))
    return docs


def write_jsonl(docs, path):
    with open(path, "w", encoding="utf-8") as f:
        for d in docs:
            obj = {"text": d.text}
            if d.label is not None:
                obj["label"] = d.label
            if d.category is not None:
                obj["category"] = d.category
            f.write(json.dumps(obj, ensure_ascii=False) + "\n")


def generate_all(out_dir, seed):
    """Write the pipeline's inputs: both corpora and the labeled dataset;
    returns their paths."""
    import os
    os.makedirs(out_dir, exist_ok=True)
    docs_a, docs_b = two_domain_corpus(seed)
    dataset = classification_dataset(seed)
    paths = {}
    for name, docs in [("corpus_a", docs_a), ("corpus_b", docs_b),
                       ("dataset", dataset)]:
        path = os.path.join(out_dir, f"{name}.jsonl")
        write_jsonl(docs, path)
        paths[name] = path
    return paths
