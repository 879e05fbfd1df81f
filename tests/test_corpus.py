import json
import math
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from minidapt.corpus import Document, SplitSpec, chunk_stream, load_documents, split
from minidapt.tokenizer import encode, train_vocab


@pytest.fixture
def char_vocab():
    # pure character vocabulary: token count == character count per word
    return train_vocab(["abcd"], 5 + 7)


def make_docs(n_words_each, word="ab"):
    return [Document(text=" ".join([word] * n)) for n in n_words_each]


class TestLoadDocuments:
    def test_csv_in_order(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("text,label,category\nx,0,S\ny,1,\n")
        docs = load_documents(p, "csv")
        assert [(d.text, d.label) for d in docs] == [("x", 0), ("y", 1)]
        assert docs[0].category == "S" and docs[1].category is None

    def test_jsonl_in_order(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text('{"text": "x", "label": 0}\n{"text": "y", "label": 1}\n')
        docs = load_documents(p, "jsonl")
        assert [(d.text, d.label) for d in docs] == [("x", 0), ("y", 1)]

    def test_empty_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("text,label,category\n")
        assert load_documents(p, "csv") == []

    def test_bad_label_names_line(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text('{"text": "x", "label": 0}\n{"text": "y", "label": 2}\n')
        with pytest.raises(ValueError, match="line 2"):
            load_documents(p, "jsonl")

    def test_missing_text_names_line(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text('{"label": 0}\n')
        with pytest.raises(ValueError, match="line 1"):
            load_documents(p, "jsonl")

    def test_malformed_row_names_line(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text('{"text": "x"}\n{not json\n')
        with pytest.raises(ValueError, match="line 2"):
            load_documents(p, "jsonl")

    @pytest.mark.parametrize("record, message", [
        ("[1, 2]", "expected a JSON object"),
        ('"abc"', "expected a JSON object"),
        ('{"text": 5}', "text 5 is not a string"),
        ('{"text": "y", "label": 0.7}', "label 0.7 is not an integer"),
        ('{"text": "y", "label": true}', "label True is not an integer"),
        ('{"text": " \\t "}', "Document: empty text"),
        ('{"text": "y", "label": "2"}', "Document: label must be 0 or 1, got 2"),
    ])
    def test_malformed_record_names_line(self, tmp_path, record, message):
        p = tmp_path / "d.jsonl"
        p.write_text('{"text": "x", "label": 1}\n' + record + "\n")
        with pytest.raises(ValueError) as e:
            load_documents(p, "jsonl")
        assert str(e.value) == f"{p}: line 2: {message}"

    @pytest.mark.parametrize("text, line", [
        ('text,label\nx,0\n" \t",1\n', 3),
        ('text,label\n"x\ny",0\n" \t",1\n', 4),  # a field spans lines 2-3
    ])
    def test_csv_record_names_path_and_its_line(self, tmp_path, text, line):
        p = tmp_path / "d.csv"
        p.write_text(text)
        with pytest.raises(ValueError) as e:
            load_documents(p, "csv")
        assert str(e.value) == f"{p}: line {line}: Document: empty text"

    @pytest.mark.parametrize("format", ["jsonl", "csv"])
    def test_not_utf8_names_path(self, tmp_path, format):
        p = tmp_path / f"d.{format}"
        p.write_bytes(b'{"text": "\xff"}\n' if format == "jsonl" else b"text\n\xff\n")
        with pytest.raises(ValueError) as e:
            load_documents(p, format)
        assert str(e.value).startswith(f"{p}: not UTF-8 (")

    def test_rfc4180_quoting(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text('text,label,category\n"a, quoted ""word""",1,\n')
        docs = load_documents(p, "csv")
        assert docs[0].text == 'a, quoted "word"'


class TestSplit:
    def test_floor_sizes_10(self):
        parts = split(make_docs(range(1, 11)), SplitSpec((0.8, 0.1, 0.1), seed=3))
        assert [len(p) for p in parts] == [8, 1, 1]

    def test_paper_sizes_100(self):
        parts = split(make_docs([1] * 100), SplitSpec((0.68, 0.12, 0.20), seed=3))
        assert [len(p) for p in parts] == [68, 12, 20]

    def test_deterministic(self):
        docs = make_docs(range(1, 21))
        a = split(docs, SplitSpec((0.8, 0.1, 0.1), seed=7))
        b = split(docs, SplitSpec((0.8, 0.1, 0.1), seed=7))
        assert all([x is y for x, y in zip(pa, pb)] for pa, pb in zip(a, b))

    def test_partition(self):
        docs = make_docs(range(1, 31))
        parts = split(docs, SplitSpec((0.5, 0.25, 0.25), seed=0))
        combined = [d for p in parts for d in p]
        assert Counter(id(d) for d in combined) == Counter(id(d) for d in docs)

    def test_invalid_ratios(self):
        # a NaN ratio passes "< 0" and makes the sum check compare NaN
        for ratios in [(0.5, 0.5, 0.5), (0.5, -0.1, 0.6), (math.nan, 0.5, 0.5),
                       (0.5, math.nan, 0.5), ("0.5", 0.25, 0.25), (True, False, False)]:
            with pytest.raises(ValueError, match="SplitSpec: "):
                SplitSpec(ratios)

    def test_empty_docs(self):
        with pytest.raises(ValueError):
            split([], SplitSpec())


class TestChunkStream:
    def test_300_tokens_gives_2_chunks(self, char_vocab):
        docs = make_docs([150])  # "ab" -> 2 tokens each, 300 total
        chunks = chunk_stream(docs, char_vocab, 128)
        assert len(chunks) == 2
        assert all(len(c.ids) == 128 for c in chunks)

    def test_exact_multiple(self, char_vocab):
        chunks = chunk_stream(make_docs([64]), char_vocab, 128)
        assert len(chunks) == 1

    def test_under_one_chunk(self, char_vocab):
        docs = [Document(text=" ".join(["a"] * 127))]
        assert chunk_stream(docs, char_vocab, 128) == []

    def test_chunk_size_too_small(self, char_vocab):
        with pytest.raises(ValueError):
            chunk_stream(make_docs([5]), char_vocab, 1)

    def test_order_preservation(self, char_vocab):
        docs = [Document(text="ab cd"), Document(text="dcba ab"), Document(text="abcd")]
        stream = []
        for d in docs:
            stream.extend(encode(char_vocab, d.text).ids)
        chunks = chunk_stream(docs, char_vocab, 4)
        flat = [i for c in chunks for i in c.ids]
        assert flat == stream[:len(flat)]

    @given(st.lists(st.integers(1, 40), min_size=1, max_size=12),
           st.integers(2, 17))
    @settings(max_examples=50, deadline=None)
    def test_conservation(self, sizes, chunk_size, ):
        vocab = train_vocab(["ab"], 12)
        docs = make_docs(sizes)
        total = sum(len(encode(vocab, d.text).ids) for d in docs)
        chunks = chunk_stream(docs, vocab, chunk_size)
        assert sum(len(c.ids) for c in chunks) == (total // chunk_size) * chunk_size
        assert all(len(c.ids) == chunk_size for c in chunks)


class TestDocument:
    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            Document(text="   ")

    def test_label_validation(self):
        with pytest.raises(ValueError):
            Document(text="x", label=3)
