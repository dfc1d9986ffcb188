import json
import os
import string
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convres.encoder import FilterBank, encode_batch
from convres.exceptions import ConfigError, ConvresError, EmptyDocumentError, ParseError
from convres.numeric import SeededRng
from convres.text import (
    PAD_ID,
    UNK_ID,
    Notes,
    build_vocab,
    encode_doc,
    load_corpus,
    load_embeddings,
    tokenize,
    write_label_file,
)
from convres.synthbench import build_benchmark_corpus
from convres.training import collect_labels, evaluate, prepare_docs
from oracles import tokenize_per_char
from toymodels import build_toy_model

# where the pattern and the character loop could part: the joiners, "_" and
# the rest of ASCII punctuation; letters and digits past ASCII ("İ" lowercases
# to two characters, U+0301 is a combining mark, not alphanumeric); and
# whitespace other than the space
_TOKENIZER_EDGES = (
    "/-'_" + string.punctuation + "ab1" + "ß\u0130²٣中\u0301"
    + " \t\n\xa0\x1c\x1d\x1e\x1f\u2028"
)


class TestTokenize:
    def test_clinical_jargon_preserved(self):
        text = "76 yo woman with hx of cad s/p stent"
        assert tokenize(text) == ["76", "yo", "woman", "with", "hx", "of", "cad", "s/p", "stent"]

    def test_trailing_punctuation_split(self):
        assert tokenize("Fever.") == ["fever", "."]

    def test_whitespace_collapse(self):
        assert tokenize("a  b") == ["a", "b"]

    def test_lowercases(self):
        assert tokenize("Chest PAIN") == ["chest", "pain"]

    def test_leading_punctuation(self):
        assert tokenize("? dementia ? past tia") == ["?", "dementia", "?", "past", "tia"]

    def test_quoted_word(self):
        assert tokenize('"spells"') == ['"', "spells", '"']

    def test_apostrophe_inside_word(self):
        assert tokenize("patient's d/o") == ["patient's", "d/o"]

    def test_dangling_joiner_splits(self):
        assert tokenize("a- -b c/") == ["a", "-", "-", "b", "c", "/"]

    def test_empty_raises(self):
        with pytest.raises(EmptyDocumentError):
            tokenize("   ")

    @given(st.text(alphabet=st.one_of(
        st.sampled_from("/-'_ab1 "), st.sampled_from(_TOKENIZER_EDGES), st.characters(),
    )))
    @example("x-ray a--b s/-p /a b' pt's a_b \u0130\xa0\u2028")
    @settings(max_examples=500, deadline=None)
    def test_equals_the_character_loop(self, text):
        try:
            expected = tokenize_per_char(text)
        except EmptyDocumentError:
            with pytest.raises(EmptyDocumentError):
                tokenize(text)
            return
        assert tokenize(text) == expected

    def test_equals_the_character_loop_on_every_code_point(self):
        # each non-space character between two letters, one chunk per character
        text = " ".join(
            f"a{chr(c)}b" for c in range(sys.maxunicode + 1)
            if not 0xD800 <= c <= 0xDFFF and not chr(c).isspace()
        )
        assert tokenize(text) == tokenize_per_char(text)

    @given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), min_size=1))
    @settings(max_examples=200, deadline=None)
    def test_idempotent_on_rejoined_output(self, text):
        try:
            tokens = tokenize(text)
        except EmptyDocumentError:
            return
        assert tokenize(" ".join(tokens)) == tokens


class TestBuildVocab:
    def test_basic(self):
        vocab = build_vocab([["a", "b"], ["a"]])
        assert "a" in vocab and "b" in vocab
        assert len(vocab) == 4  # pad, unk, a, b
        assert vocab.lookup("a") == 2  # most frequent first

    def test_determinism(self):
        corpus = [["x", "y", "z"], ["y", "z"], ["z"]]
        a = build_vocab(corpus)
        b = build_vocab(corpus)
        assert a.id_to_token == b.id_to_token

    def test_frequency_then_alpha_ordering(self):
        vocab = build_vocab([["b", "a", "b", "a", "c"]])
        assert vocab.id_to_token[2:] == ["a", "b", "c"]

    def test_empty_corpus(self):
        with pytest.raises(ConfigError):
            build_vocab([])


class TestEmbeddings:
    def _vocab(self):
        return build_vocab([["fever", "cough", "rare"]])

    def test_file_vector_passthrough(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("2 4\nfever 1.0 2.0 3.0 4.0\nother 9 9 9 9\n")
        table = load_embeddings(path, self._vocab(), SeededRng(0), dim=4)
        row = table.weights.value[self._vocab().token_to_id["fever"]]
        assert np.array_equal(row, [1.0, 2.0, 3.0, 4.0])

    def test_missing_token_random_in_range(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("fever 1.0 2.0 3.0 4.0\n")  # no header, cough absent
        vocab = self._vocab()
        table = load_embeddings(path, vocab, SeededRng(0), dim=4)
        row = table.weights.value[vocab.token_to_id["cough"]]
        assert (row >= -0.25).all() and (row < 0.25).all()

    def test_no_file_all_random_deterministic(self):
        vocab = self._vocab()
        a = load_embeddings(None, vocab, SeededRng(3), dim=8)
        b = load_embeddings(None, vocab, SeededRng(3), dim=8)
        assert np.array_equal(a.weights.value, b.weights.value)
        nonpad = a.weights.value[1:]
        assert (nonpad >= -0.25).all() and (nonpad < 0.25).all()

    def test_pad_row_zero(self):
        table = load_embeddings(None, self._vocab(), SeededRng(1), dim=4)
        assert np.array_equal(table.weights.value[PAD_ID], np.zeros(4))

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("fever 1.0 2.0 3.0 4.0\ncough 1.0 2.0\n")
        with pytest.raises(ParseError) as exc:
            load_embeddings(path, self._vocab(), SeededRng(0), dim=4)
        assert "line 2" in str(exc.value)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN", "-Infinity"])
    def test_non_finite_value_names_the_line(self, tmp_path, bad):
        path = tmp_path / "vecs.txt"
        path.write_text(f"2 4\nfever 1.0 2.0 3.0 4.0\ncough 1.0 {bad} 3.0 4.0\n")
        with pytest.raises(ParseError) as exc:
            load_embeddings(path, self._vocab(), SeededRng(0), dim=4)
        assert exc.value.line == 3
        assert "non-finite" in str(exc.value) and str(path) in str(exc.value)


def _prepare(vocab, token_lists, max_len, label_lists=None, labels=()):
    """prepare_docs over known tokens; each note names `label_lists[i]` (none by default)."""
    label_lists = label_lists or [[] for _ in token_lists]
    docs = [{"labels": names} for names in label_lists]
    return prepare_docs(docs, vocab, list(labels), max_len, token_lists)


class TestEncodeDoc:
    def _vocab(self):
        return build_vocab([["a", "b"]])

    def test_pad_and_valid_len(self):
        # padded to the longest note, not to max_len
        notes = _prepare(self._vocab(), [["a", "b"], ["b"]], max_len=4)
        a, b = self._vocab().lookup("a"), self._vocab().lookup("b")
        assert notes.lens.tolist() == [2, 1]
        assert notes.ids.tolist() == [[a, b], [b, PAD_ID]]

    def test_unknown_token(self):
        ids = encode_doc(["zzz"], self._vocab(), max_len=2)
        assert ids[0] == UNK_ID

    def test_ids_are_the_token_lookups(self):
        vocab = self._vocab()
        tokens = ["b", "zzz", "a", "b", "", "a"]
        ids = encode_doc(tokens, vocab, max_len=8)
        assert ids.tolist() == [vocab.lookup(t) for t in tokens] + [PAD_ID] * 2
        assert encode_doc(tokens, vocab, max_len=3).tolist() == ids[:3].tolist()

    def test_truncation(self):
        notes = _prepare(self._vocab(), [["a"] * 700], max_len=600)
        assert notes.lens.tolist() == [600]
        assert notes.ids.shape == (1, 600)

    def test_label_vector(self):
        notes = _prepare(self._vocab(), [["a"], ["a"]], max_len=2,
                         label_lists=[["l0", "l2"], []], labels=["l0", "l1", "l2", "l3"])
        assert notes.Y.tolist() == [[1.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 0.0]]

    def test_empty_token_list_rejected(self):
        with pytest.raises(EmptyDocumentError):
            encode_doc([], self._vocab(), max_len=2)


class TestEmptyDocument:
    """The library API takes raw notes without load_corpus, so a note with no
    tokens reaches it; it is refused, not scored as a note of padding alone."""

    def test_evaluate_refuses_a_blank_note(self):
        model, _ = build_toy_model("logistic")
        with pytest.raises(EmptyDocumentError) as exc:
            evaluate(model, [{"text": "  ", "labels": []}])
        assert "\n" not in str(exc.value)

    def test_prepare_docs_refuses_an_empty_token_list(self):
        with pytest.raises(EmptyDocumentError) as exc:
            prepare_docs([{"labels": []}], build_vocab([["a"]]), [], 8, token_lists=[[]])
        assert "\n" not in str(exc.value)


class TestNotes:
    """prepare_docs' batch against the per-note reference, and row slicing."""

    LABELS = ["l0", "l1", "l2"]

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.lists(st.sampled_from(["a", "b", "c", "zzz"]), min_size=1, max_size=9),
                st.lists(st.sampled_from(LABELS), max_size=4),
            ),
            min_size=1, max_size=6,
        ),
        st.integers(1, 7),
    )
    def test_rows_match_the_per_note_reference(self, notes_in, max_len):
        vocab = build_vocab([["a", "b", "b"]])
        docs = [{"labels": names} for _, names in notes_in]
        notes = prepare_docs(docs, vocab, self.LABELS, max_len, [t for t, _ in notes_in])
        assert len(notes) == len(notes_in)
        width = notes.lens.max()
        assert notes.ids.shape == (len(notes_in), width) and notes.ids.dtype == np.int64
        for i, (tokens, names) in enumerate(notes_in):
            n = min(len(tokens), max_len)
            row = [vocab.lookup(t) for t in tokens[:n]] + [PAD_ID] * (width - n)
            assert notes.ids[i].tolist() == row
            assert notes.lens[i] == n
            assert notes.Y[i].tolist() == [float(l in names) for l in self.LABELS]

    def test_benchmark_notes_prepare_within_4_mib(self):
        # 5000 notes of 15-30 tokens at the CLI default max_len of 600: padding
        # to max_len held 22.9 MiB of ids, padding to the longest note 1.1 MiB
        _, docs, _ = build_benchmark_corpus()
        token_lists = [tokenize(doc["text"]) for doc in docs]
        vocab = build_vocab(token_lists)
        labels = collect_labels(docs)
        tracemalloc.start()
        try:
            notes = prepare_docs(docs, vocab, labels, 600, token_lists)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert notes.ids.shape == (5000, notes.lens.max()) and notes.lens.max() <= 30
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("idx", [[2, 0], [1], [], slice(1, 3), np.array([True, False, True])])
    def test_indexing_slices_ids_lens_and_truth_together(self, idx):
        notes = Notes(
            np.arange(12, dtype=np.int64).reshape(3, 4), np.array([4, 2, 3]),
            np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
        )
        part = notes[idx]
        assert isinstance(part, Notes)
        assert len(part) == len(notes.ids[idx])
        assert np.array_equal(part.ids, notes.ids[idx])
        assert np.array_equal(part.lens, notes.lens[idx])
        assert np.array_equal(part.Y, notes.Y[idx])
        assert part.ids.shape[1:] == (4,) and part.Y.shape[1:] == (2,)


class TestEmbed:
    """The batched encoder's embedding gather, seen through a window-1 bank
    whose filter f reads embedding dimension f alone: a note of one token
    encodes to tanh of that token's table row."""

    def _encode(self, notes, table):
        bank = FilterBank(1, table.dim, table.dim, SeededRng(0))
        bank.weights.value[...] = np.eye(table.dim)
        x, _ = encode_batch(notes.ids, notes.lens, table, [bank])
        return x

    def test_columns_match_rows(self):
        vocab = build_vocab([["a", "b"]])
        table = load_embeddings(None, vocab, SeededRng(0), dim=3)
        x = self._encode(_prepare(vocab, [["a"], ["b"]], max_len=4), table)
        assert x.shape == (2, 3)
        assert np.array_equal(x[0], np.tanh(table.weights.value[vocab.lookup("a")]))
        assert np.array_equal(x[1], np.tanh(table.weights.value[vocab.lookup("b")]))

    def test_all_pad_doc_is_zero_matrix(self):
        vocab = build_vocab([["a"]])
        table = load_embeddings(None, vocab, SeededRng(0), dim=3)
        notes = Notes(np.zeros((1, 5), dtype=np.int64), np.array([1]), np.zeros((1, 0)))
        assert np.array_equal(self._encode(notes, table), np.zeros((1, 3)))

    def test_reproducible(self):
        vocab = build_vocab([["a", "b"]])
        table = load_embeddings(None, vocab, SeededRng(0), dim=3)
        notes = _prepare(vocab, [["a", "b"]], max_len=4)
        assert np.array_equal(self._encode(notes, table), self._encode(notes, table))


class TestCorpusIO:
    def test_load_corpus_roundtrip(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"text": "fever and cough", "labels": ["flu"]}\n'
                        '{"text": "well visit", "labels": []}\n')
        docs = load_corpus(path)
        assert len(docs) == 2
        assert docs[0]["labels"] == ["flu"]
        assert docs[1]["labels"] == []

    def test_load_corpus_rejects_bad_json(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"text": "ok", "labels": []}\nnot json\n')
        with pytest.raises(ParseError) as exc:
            load_corpus(path)
        assert "line 2" in str(exc.value)

    def test_label_file_roundtrip(self, tmp_path):
        path = tmp_path / "labels.txt"
        write_label_file(path, ["anxiety", "hypertension"])
        assert path.read_text(encoding="utf-8").splitlines() == ["anxiety", "hypertension"]

    @pytest.mark.parametrize("text", ["", " ", "\t\n "])
    def test_empty_note_names_its_line(self, tmp_path, text):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"text": "fever", "labels": []}\n'
                        + json.dumps({"text": text, "labels": ["flu"]}) + "\n")
        with pytest.raises(ParseError) as exc:
            load_corpus(path)
        assert exc.value.line == 2 and str(path) in str(exc.value)


_JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=20)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: (
        st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4)
    ),
    max_leaves=12,
)
_NEAR_DOCS = st.fixed_dictionaries(
    {"text": _JSON_VALUES | st.text(), "labels": _JSON_VALUES | st.lists(st.text(max_size=6))},
    optional={"extra": _JSON_VALUES},
)
_CORPUS_LINES = st.one_of(
    st.binary(max_size=80),
    st.text(max_size=80).map(lambda t: t.encode("utf-8", "surrogatepass")),
    (_JSON_VALUES | _NEAR_DOCS).map(lambda v: json.dumps(v).encode("utf-8", "surrogatepass")),
    _NEAR_DOCS.flatmap(lambda d: st.binary(max_size=4).map(
        lambda junk: json.dumps(d).encode()[:-1] + junk + b"}")),
    st.integers(1, 3000).map(lambda n: b"[" * n + b"]" * n),
)


@given(st.lists(_CORPUS_LINES, min_size=1, max_size=3))
@settings(max_examples=300, deadline=None)
def test_fuzzed_corpus_lines_parse_or_raise_a_library_error(lines):
    fd, path = tempfile.mkstemp(suffix=".jsonl")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(b"\n".join(lines) + b"\n")
        try:
            docs = load_corpus(path)
        except ConvresError:
            return
        for doc in docs:
            assert set(doc) == {"text", "labels"} and isinstance(doc["text"], str)
            assert all(isinstance(l, str) for l in doc["labels"])
    finally:
        os.unlink(path)
