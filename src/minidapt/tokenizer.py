"""Subword vocabulary learned from a corpus, with word-boundary tracking.

Merge-based (byte-pair style) training over whitespace words; continuation
pieces carry a "##" prefix so whole words can be reassembled losslessly.
"""

import json
from collections import Counter
from dataclasses import dataclass, field

PAD, UNK, CLS, SEP, MASK = "[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]"
SPECIALS = [PAD, UNK, CLS, SEP, MASK]
CONT = "##"


def normalize_whitespace(text):
    return " ".join(text.split())


@dataclass
class Vocabulary:
    tokens: list
    token_to_id: dict = field(init=False)
    special_ids: frozenset = field(init=False, repr=False)

    def __post_init__(self):
        self.token_to_id = {t: i for i, t in enumerate(self.tokens)}
        if len(self.token_to_id) != len(self.tokens):
            raise ValueError("duplicate token in vocabulary")
        for s in SPECIALS:
            if s not in self.token_to_id:
                raise ValueError(f"missing special token {s}")
        self.special_ids = frozenset(self.token_to_id[s] for s in SPECIALS)

    @property
    def size(self):
        return len(self.tokens)

    @property
    def pad_id(self):
        return self.token_to_id[PAD]

    @property
    def unk_id(self):
        return self.token_to_id[UNK]

    @property
    def cls_id(self):
        return self.token_to_id[CLS]

    @property
    def sep_id(self):
        return self.token_to_id[SEP]

    @property
    def mask_id(self):
        return self.token_to_id[MASK]

    def to_json(self):
        return json.dumps({"tokens": self.tokens, "specials": SPECIALS},
                          ensure_ascii=False, indent=0)

    @classmethod
    def from_json(cls, text):
        obj = json.loads(text)
        return cls(tokens=list(obj["tokens"]))

    def save(self, path):
        with open(path, "w", encoding="utf-8") as f:
            f.write(self.to_json())

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as f:
            return cls.from_json(f.read())


@dataclass
class EncodedText:
    ids: list
    word_begin: list

    def __post_init__(self):
        assert len(self.ids) == len(self.word_begin)


def _word_symbols(word):
    return [word[0]] + [CONT + c for c in word[1:]]


def base_symbols(corpus):
    """Distinct word-initial and continuation symbols over a corpus."""
    syms = set()
    for doc in corpus:
        for word in normalize_whitespace(doc).split(" "):
            if word:
                syms.update(_word_symbols(word))
    return syms


def train_vocab(corpus, target_size, seed=0):
    """Learn a merge vocabulary: start from characters, repeatedly join the
    most frequent adjacent pair (lexicographic tie-break) until `target_size`
    tokens exist or no pair occurs twice. Deterministic; `seed` is accepted
    for interface uniformity but unused.
    """
    corpus = list(corpus)
    if not corpus or not any(normalize_whitespace(d) for d in corpus):
        raise ValueError("train_vocab: empty corpus")

    word_freq = Counter()
    for doc in corpus:
        for word in normalize_whitespace(doc).split(" "):
            if word:
                word_freq[word] += 1

    symbols = sorted(base_symbols(corpus))
    minimum = len(SPECIALS) + len(symbols)
    if target_size < minimum:
        raise ValueError(
            f"train_vocab: target_size {target_size} below minimum {minimum} "
            f"(specials + base symbols)")

    # each word as a mutable symbol sequence, weighted by frequency
    words = [( _word_symbols(w), f) for w, f in sorted(word_freq.items())]
    vocab = list(SPECIALS) + symbols
    seen = set(vocab)
    while len(vocab) < target_size:
        pairs = Counter()
        for syms, f in words:
            for a, b in zip(syms, syms[1:]):
                pairs[(a, b)] += f
        candidates = [(c, p) for p, c in pairs.items() if c >= 2]
        if not candidates:
            break
        best_count = max(c for c, _ in candidates)
        pair = min(p for c, p in candidates if c == best_count)
        merged = pair[0] + pair[1].removeprefix(CONT)
        words = [(_merge_pair(syms, pair, merged), f) for syms, f in words]
        if merged not in seen:
            vocab.append(merged)
            seen.add(merged)
    return Vocabulary(tokens=vocab)


def _merge_pair(syms, pair, merged):
    out = []
    i = 0
    while i < len(syms):
        if i + 1 < len(syms) and (syms[i], syms[i + 1]) == pair:
            out.append(merged)
            i += 2
        else:
            out.append(syms[i])
            i += 1
    return out


def _segment_word(vocab, word):
    """Greedy longest-match segmentation; None if the word cannot be covered."""
    pieces = []
    i = 0
    while i < len(word):
        prefix = "" if i == 0 else CONT
        match = None
        for j in range(len(word), i, -1):
            cand = prefix + word[i:j]
            # structural specials never come from raw text
            if cand in vocab.token_to_id and cand not in SPECIALS:
                match = cand
                i = j
                break
        if match is None:
            return None
        pieces.append(match)
    return pieces


def encode(vocab, text):
    """Whitespace-split then greedy-segment each word; unsegmentable words
    become a single UNK. word_begin marks each word's first token."""
    ids = []
    word_begin = []
    for word in normalize_whitespace(text).split(" "):
        if not word:
            continue
        pieces = _segment_word(vocab, word)
        if pieces is None:
            ids.append(vocab.unk_id)
            word_begin.append(True)
        else:
            for k, p in enumerate(pieces):
                ids.append(vocab.token_to_id[p])
                word_begin.append(k == 0)
    return EncodedText(ids=ids, word_begin=word_begin)


def decode(vocab, ids):
    special = vocab.special_ids
    words = []
    current = None
    for i in ids:
        if not (0 <= i < vocab.size):
            raise ValueError(f"decode: id {i} out of range for vocabulary size {vocab.size}")
        if i in special:
            continue
        tok = vocab.tokens[i]
        if tok.startswith(CONT) and current is not None:
            current += tok[len(CONT):]
        else:
            if current is not None:
                words.append(current)
            current = tok.removeprefix(CONT)
    if current is not None:
        words.append(current)
    return " ".join(words)
