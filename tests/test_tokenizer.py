from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from minidapt.tokenizer import (CONT, SPECIALS, Vocabulary, _merge_pair,
                                _word_symbols, base_symbols,
                                decode, encode, normalize_whitespace,
                                train_vocab)

N_SPECIALS = len(SPECIALS)


def brute_force_top_pair(words):
    """Independent pair-count oracle: most frequent adjacent symbol pair over
    whitespace words, chars as base symbols with ## continuations."""
    counts = Counter()
    for w in words:
        syms = [w[0]] + [CONT + c for c in w[1:]]
        for a, b in zip(syms, syms[1:]):
            counts[(a, b)] += 1
    best = max(counts.values())
    return min(p for p, c in counts.items() if c == best)


def reference_train_vocab(corpus, target_size):
    """The textbook merge loop: recount every pair over every word before
    each merge."""
    word_freq = Counter()
    for doc in corpus:
        for word in normalize_whitespace(doc).split(" "):
            if word:
                word_freq[word] += 1
    symbols = sorted({s for w in word_freq for s in _word_symbols(w)})
    words = [(_word_symbols(w), f) for w, f in sorted(word_freq.items())]
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
    return vocab


def reference_segment(vocab, word):
    """Greedy longest-match over vocab.token_to_id, building each candidate
    piece with its "##" prefix; a first piece never starts with "##", so
    decode can tell it from a continuation. None if the word cannot be
    covered."""
    pieces = []
    i = 0
    while i < len(word):
        prefix = "" if i == 0 else CONT
        match = None
        for j in range(len(word), i, -1):
            cand = prefix + word[i:j]
            if (cand in vocab.token_to_id and cand not in SPECIALS
                    and not (i == 0 and cand.startswith(CONT))):
                match = cand
                i = j
                break
        if match is None:
            return None
        pieces.append(match)
    return pieces


def reference_encode(vocab, text):
    """Segment every word occurrence afresh, with no cache."""
    ids = []
    word_begin = []
    for word in normalize_whitespace(text).split(" "):
        if not word:
            continue
        pieces = reference_segment(vocab, word)
        if pieces is None:
            ids.append(vocab.unk_id)
            word_begin.append(True)
        else:
            for k, p in enumerate(pieces):
                ids.append(vocab.token_to_id[p])
                word_begin.append(k == 0)
    return ids, word_begin


class TestTrainVocab:
    def test_merge_matches_pair_oracle(self):
        corpus = ["ab"] * 10
        pair = brute_force_top_pair(["ab"] * 10)
        assert pair == ("a", "##b")
        vocab = train_vocab(corpus, N_SPECIALS + 2 + 1)
        assert "ab" in vocab.tokens

    def test_exact_alphabet_budget_means_no_merges(self):
        corpus = ["abc abc", "cab"]
        alphabet = base_symbols(corpus)
        vocab = train_vocab(corpus, N_SPECIALS + len(alphabet))
        assert set(vocab.tokens) == set(SPECIALS) | alphabet

    def test_deterministic(self):
        corpus = ["the cat sat", "the hat", "a cat"]
        v1 = train_vocab(corpus, 40, seed=1)
        v2 = train_vocab(corpus, 40, seed=1)
        assert v1.to_json() == v2.to_json()

    def test_empty_corpus_errors(self):
        with pytest.raises(ValueError):
            train_vocab([], 50)
        with pytest.raises(ValueError):
            train_vocab(["   "], 50)

    def test_too_small_target_names_minimum(self):
        corpus = ["abc"]
        minimum = N_SPECIALS + len(base_symbols(corpus))
        with pytest.raises(ValueError, match=str(minimum)):
            train_vocab(corpus, minimum - 1)

    def test_stops_when_no_pair_repeats(self):
        # every word distinct and single-use: no pair reaches count 2
        corpus = ["ab cd ef"]
        vocab = train_vocab(corpus, 100)
        assert vocab.size == N_SPECIALS + len(base_symbols(corpus))


class TestVocabulary:
    def test_specials_present_and_distinct(self):
        vocab = train_vocab(["abc"], 40)
        ids = {vocab.pad_id, vocab.unk_id, vocab.cls_id, vocab.sep_id, vocab.mask_id}
        assert len(ids) == 5
        assert vocab.size == len(vocab.tokens)

    def test_duplicate_token_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary(tokens=SPECIALS + ["a", "a"])

    def test_json_round_trip_bit_exact(self, tmp_path):
        vocab = train_vocab(["the cat sat on the mat"], 40)
        path = tmp_path / "vocab.json"
        vocab.save(path)
        reloaded = Vocabulary.load(path)
        assert reloaded.tokens == vocab.tokens
        assert reloaded.token_to_id == vocab.token_to_id
        reloaded.save(tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


    @pytest.mark.parametrize("text", ['{"toks": []}', "[1]", '{"tokens": "abc"}',
                                      '{"tokens": [1, 2]}'])
    def test_malformed_file_rejected(self, text):
        with pytest.raises(ValueError, match='a "tokens" list of strings'):
            Vocabulary.from_json(text)


class TestEncode:
    def test_empty_text(self):
        vocab = train_vocab(["ab"], 10)
        enc = encode(vocab, "")
        assert enc.ids == [] and enc.word_begin == []

    def test_unknown_character_is_single_unk(self):
        vocab = train_vocab(["ab"], 10)
        enc = encode(vocab, "z")
        assert enc.ids == [vocab.unk_id]
        assert enc.word_begin == [True]

    def test_word_begin_marks_word_starts(self):
        vocab = train_vocab(["abc abc abc"], N_SPECIALS + 3)  # char-level
        enc = encode(vocab, "abc abc")
        assert enc.word_begin == [True, False, False, True, False, False]

    def test_never_emits_structural_specials(self):
        vocab = train_vocab(["a b c"], 20)
        enc = encode(vocab, "[PAD] [CLS] a")
        structural = {vocab.pad_id, vocab.cls_id, vocab.sep_id, vocab.mask_id}
        assert not structural & set(enc.ids)

    def test_greedy_prefers_longest_match(self):
        corpus = ["abab"] * 5
        vocab = train_vocab(corpus, N_SPECIALS + len(base_symbols(corpus)) + 3)
        enc = encode(vocab, "abab")
        # merges give multi-char pieces, so fewer tokens than characters
        assert len(enc.ids) < 4
        assert decode(vocab, enc.ids) == "abab"


class TestDecode:
    def test_empty(self):
        vocab = train_vocab(["ab"], 10)
        assert decode(vocab, []) == ""

    def test_specials_dropped(self):
        vocab = train_vocab(["ab"], 10)
        assert decode(vocab, [vocab.cls_id, vocab.sep_id]) == ""

    def test_out_of_range_errors(self):
        vocab = train_vocab(["ab"], 10)
        with pytest.raises(ValueError):
            decode(vocab, [vocab.size])

    def test_round_trip_simple(self):
        vocab = train_vocab(["aa bb"], 12)
        assert decode(vocab, encode(vocab, "aa bb").ids) == "aa bb"


words = st.lists(st.text(alphabet="abcd", min_size=1, max_size=6),
                 min_size=1, max_size=8)


class TestProperties:
    @given(words)
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, ws):
        corpus = ["abcd dcba ab cd a b c d"]
        vocab = train_vocab(corpus, 40)
        text = normalize_whitespace(" ".join(ws))
        assert decode(vocab, encode(vocab, text).ids) == text

    @given(words)
    @settings(max_examples=50, deadline=None)
    def test_word_begin_reconstructs_whitespace_split(self, ws):
        vocab = train_vocab(["abcd abc ab a"], 40)
        text = normalize_whitespace(" ".join(ws))
        enc = encode(vocab, text)
        n_words = sum(enc.word_begin)
        assert n_words == len(text.split())
        # every continuation position belongs to the preceding word
        for k, begin in enumerate(enc.word_begin):
            if not begin:
                assert k > 0


# few letters, so words repeat symbols (aaaa: overlapping pairs) and share
# pairs across words, and "#", so a word can start like a "##" piece;
# Unicode whitespace (ideographic space, NBSP, tabs, newlines) between them
SEPARATORS = [" ", "  ", "\t", "\n", "\u3000", "\u00a0", " \r\n "]
doc = st.lists(st.text(alphabet="aabc#", min_size=1, max_size=9), max_size=12).flatmap(
    lambda ws: st.lists(st.sampled_from(SEPARATORS), min_size=len(ws) + 1,
                        max_size=len(ws) + 1).map(
        lambda seps: seps[0] + "".join(w + s for w, s in zip(ws, seps[1:]))))


class TestAgainstReference:
    @given(st.lists(doc, min_size=1, max_size=6), st.integers(0, 60))
    @settings(max_examples=200, deadline=None)
    def test_train_vocab_matches_full_recount(self, corpus, extra):
        if not any(d.split() for d in corpus):
            return
        target = N_SPECIALS + len(base_symbols(corpus)) + extra
        assert train_vocab(corpus, target).tokens == reference_train_vocab(corpus, target)

    @pytest.mark.parametrize("corpus", [
        ["aaaa aaaa aaa aa a"],               # overlapping pairs in one word
        ["aaaaaaa\taaaaa aaaaaa"] * 3,
        ["abab baba abba", "aabb\u3000bbaa"],
        # "#" + "###" gives "##", then "##" + "##a" gives "##a" again, a base
        # symbol; the words still merge, so "##ab" follows
        ["##ab ##ab ##ab"],
    ])
    def test_train_vocab_runs_to_exhaustion(self, corpus):
        # a target far above the reachable size merges until no pair repeats
        vocab = train_vocab(corpus, 10_000)
        assert vocab.tokens == reference_train_vocab(corpus, 10_000)

    @given(st.lists(doc, max_size=4), st.sampled_from([0, 3, 12, 40]))
    @settings(max_examples=200, deadline=None)
    def test_encode_matches_uncached_segmentation(self, texts, extra):
        train = ["aaaa abca cab ##a", "ba ab\taab a#b"]
        vocab = train_vocab(train, N_SPECIALS + len(base_symbols(train)) + extra)
        # "z" and "[UNK]" cannot be segmented: one UNK each
        for text in texts + [" ".join(texts) + " z [UNK] a ##a", "\u3000z\tab\n"]:
            enc = encode(vocab, text)
            assert (enc.ids, enc.word_begin) == reference_encode(vocab, text)

    def test_word_cache_is_per_vocabulary(self):
        short = Vocabulary(tokens=SPECIALS + ["a", "##b"])
        long = Vocabulary(tokens=SPECIALS + ["##b", "a", "ab"])
        for _ in range(2):
            assert encode(short, "ab ab").ids == [5, 6, 5, 6]
            assert encode(long, "ab ab").ids == [7, 7]

    def test_encoding_leaves_equality_and_repr(self):
        tokens = SPECIALS + ["a", "##b", "ab"]
        used, fresh = Vocabulary(tokens=list(tokens)), Vocabulary(tokens=list(tokens))
        encode(used, "ab a z")
        assert used == fresh
        assert repr(used) == repr(fresh)


class TestRoundTripWithHashes:
    """A word may start like a "##" piece; it still decodes to itself."""

    @given(st.lists(doc, min_size=1, max_size=4), doc, st.integers(0, 60))
    @settings(max_examples=300, deadline=None)
    def test_decode_inverts_encode(self, corpus, text, extra):
        if not any(d.split() for d in corpus):
            return
        vocab = train_vocab(corpus, N_SPECIALS + len(base_symbols(corpus)) + extra)
        ids = encode(vocab, text).ids
        if vocab.unk_id not in ids:
            assert decode(vocab, ids) == normalize_whitespace(text)

    def test_word_starting_with_continuation_marker(self):
        vocab = train_vocab(["##a ##a ##ab x#a"], 100)
        assert "##a" in vocab.tokens
        assert decode(vocab, encode(vocab, "##a").ids) == "##a"
        assert decode(vocab, encode(vocab, "x ##ab").ids) == "x ##ab"
        # "y" is not in the vocabulary: its UNK is dropped, the words before
        # it stay apart
        ids = encode(vocab, "x ##ab y").ids
        assert ids[-1] == vocab.unk_id
        assert decode(vocab, ids) == "x ##ab"
