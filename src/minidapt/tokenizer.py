"""Subword vocabulary learned from a corpus, with word-boundary tracking.

Merge-based (byte-pair style) training over whitespace words; continuation
pieces carry a "##" prefix so whole words can be reassembled losslessly.
"""

import json
from collections import Counter, defaultdict
from dataclasses import dataclass, field

PAD, UNK, CLS, SEP, MASK = "[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]"
SPECIALS = [PAD, UNK, CLS, SEP, MASK]
CONT = "##"
DEFAULT_TARGET_SIZE = 512  # vocabulary size when a run sets none


def normalize_whitespace(text):
    return " ".join(text.split())


@dataclass
class Vocabulary:
    tokens: list
    token_to_id: dict = field(init=False)
    special_ids: frozenset = field(init=False, repr=False)
    # encode's state: the ids a word's first and later pieces may take,
    # keyed by the piece's text without "##" (a first piece is never a
    # special or a "##" token), and the ids of every word it has segmented
    _first: dict = field(init=False, repr=False, compare=False)
    _later: dict = field(init=False, repr=False, compare=False)
    _word_ids: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.token_to_id = {t: i for i, t in enumerate(self.tokens)}
        if len(self.token_to_id) != len(self.tokens):
            raise ValueError("duplicate token in vocabulary")
        for s in SPECIALS:
            if s not in self.token_to_id:
                raise ValueError(f"missing special token {s}")
        self.special_ids = frozenset(self.token_to_id[s] for s in SPECIALS)
        self._first = {t: i for t, i in self.token_to_id.items()
                       if t not in SPECIALS and not t.startswith(CONT)}
        self._later = {t[len(CONT):]: i for t, i in self.token_to_id.items()
                       if t.startswith(CONT)}
        self._word_ids = {}

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
        tokens = obj.get("tokens") if isinstance(obj, dict) else None
        if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
            raise ValueError('vocabulary: expected a JSON object with a "tokens" list of strings')
        return cls(tokens=tokens)

    def save(self, path):
        with open(path, "w", encoding="utf-8") as f:
            f.write(self.to_json())

    @classmethod
    def load(cls, path):
        try:
            with open(path, encoding="utf-8") as f:
                return cls.from_json(f.read())
        except ValueError as e:  # not UTF-8, not JSON or not a vocabulary
            raise ValueError(f"{path}: {e}") from None


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
    words = {word for doc in corpus for word in doc.split()}
    return {s for word in words for s in _word_symbols(word)}


def train_vocab(corpus, target_size, seed=0):
    """Learn a merge vocabulary: start from characters, repeatedly join the
    most frequent adjacent pair (lexicographic tie-break) until `target_size`
    tokens exist or no pair occurs twice. Deterministic; `seed` is accepted
    for interface uniformity but unused.

    Pair counts are kept across merges, as in Sennrich et al.'s BPE: a merge
    re-segments only the distinct words that hold the chosen pair.
    """
    word_freq = Counter(word for doc in corpus for word in doc.split())
    if not word_freq:
        raise ValueError("train_vocab: empty corpus")

    symbols = sorted(base_symbols(word_freq))  # a distinct word is a one-word text
    minimum = len(SPECIALS) + len(symbols)
    if target_size < minimum:
        raise ValueError(
            f"train_vocab: target_size {target_size} below minimum {minimum} "
            f"(specials + base symbols)")

    # each distinct word as a symbol sequence, weighted by frequency; `where`
    # maps a pair to the words that may hold it (a superset: entries go stale)
    freqs = list(word_freq.values())
    words = [_word_symbols(w) for w in word_freq]
    pairs = Counter()
    where = defaultdict(set)
    for k, syms in enumerate(words):
        for p in zip(syms, syms[1:]):
            pairs[p] += freqs[k]
            where[p].add(k)
    vocab = list(SPECIALS) + symbols
    seen = set(vocab)
    while len(vocab) < target_size:
        best_count = max(pairs.values(), default=0)
        if best_count < 2:
            break
        pair = min(p for p, c in pairs.items() if c == best_count)
        merged = pair[0] + pair[1].removeprefix(CONT)
        for k in where.pop(pair):
            syms, f = words[k], freqs[k]
            for p in zip(syms, syms[1:]):
                pairs[p] -= f
            words[k] = syms = _merge_pair(syms, pair, merged)
            for p in zip(syms, syms[1:]):
                pairs[p] += f
                where[p].add(k)
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
    """Greedy longest-match segmentation into token ids; None if the word
    cannot be covered."""
    table = vocab._first
    ids = []
    i = 0
    while i < len(word):
        for j in range(len(word), i, -1):
            k = table.get(word[i:j])
            if k is not None:
                ids.append(k)
                i = j
                break
        else:
            return None
        table = vocab._later
    return ids


def encode(vocab, text):
    """Whitespace-split then greedy-segment each word; unsegmentable words
    become a single UNK. word_begin marks each word's first token. Each
    distinct word is segmented once per vocabulary and its ids cached."""
    cache = vocab._word_ids
    ids = []
    word_begin = []
    for word in text.split():
        word_ids = cache.get(word)
        if word_ids is None:
            segmented = _segment_word(vocab, word)
            word_ids = cache[word] = ((vocab.unk_id,) if segmented is None
                                      else tuple(segmented))
        ids += word_ids
        word_begin.append(True)
        word_begin += [False] * (len(word_ids) - 1)
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
