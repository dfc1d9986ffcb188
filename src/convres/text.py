"""Text pipeline: tokenization, vocabulary, embeddings, index encoding.

Documents are kept as raw as possible: lowercased and split, with typos,
jargon and abbreviations (s/p, d/o, hx, ...) passed through untouched.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from .exceptions import ConfigError, EmptyDocumentError, ParseError
from .numeric import ParamTensor, SeededRng

PAD_ID = 0
UNK_ID = 1
PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"

# A token is a run of alphanumerics ([^\W_] is exactly str.isalnum) that may
# hold a joiner between two of them, so clinical shorthand like "s/p", "d/o"
# or "x-ray" survives; any other non-space character is a token of its own.
_TOKEN = re.compile(r"[^\W_]+(?:[/'-][^\W_]+)*|\S")


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, split punctuation into its own tokens."""
    if not text or not text.strip():
        raise EmptyDocumentError("document has no tokens")
    return _TOKEN.findall(text.lower())


@dataclass
class Vocabulary:
    token_to_id: dict[str, int]
    id_to_token: list[str]

    def __len__(self) -> int:
        return len(self.id_to_token)

    def lookup(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_id


def build_vocab(corpus_tokens: list[list[str]]) -> Vocabulary:
    """Vocabulary over every token of the corpus.

    Ids are assigned by (frequency desc, token asc) after the fixed pad and
    unknown entries, so two builds over the same corpus agree exactly.
    """
    if not corpus_tokens:
        raise ConfigError("cannot build a vocabulary from an empty corpus")
    counts: dict[str, int] = {}
    for tokens in corpus_tokens:
        for t in tokens:
            counts[t] = counts.get(t, 0) + 1
    id_to_token = [PAD_TOKEN, UNK_TOKEN] + sorted(counts, key=lambda t: (-counts[t], t))
    token_to_id = {t: i for i, t in enumerate(id_to_token)}
    return Vocabulary(token_to_id, id_to_token)


@dataclass
class EmbeddingTable:
    """Trainable word vectors, one row per vocabulary id; pad row frozen at zero."""

    weights: ParamTensor
    dim: int

    def freeze_pad(self) -> None:
        """Keep the pad row out of training: zero its value and gradient."""
        self.weights.value[PAD_ID, :] = 0.0
        self.weights.grad[PAD_ID, :] = 0.0


def load_embeddings(
    path: str | Path | None,
    vocab: Vocabulary,
    rng: SeededRng,
    dim: int = 300,
) -> EmbeddingTable:
    """Embedding table from a text vector file, or random if no file is given.

    File format: optional "<count> <dim>" header line, then one line per
    token: the token followed by `dim` finite decimal reals (a nan or inf is
    a ParseError naming the line). Vocabulary tokens not in the file get
    entries drawn uniformly from [-0.25, 0.25), matching the variance of
    typical pretrained vectors. The pad row is zero.
    """
    mat = rng.uniform(-0.25, 0.25, (len(vocab), dim))
    if path is not None:
        file_vecs = _read_embedding_file(Path(path), dim)
        for token, vec in file_vecs.items():
            if token in vocab:
                mat[vocab.token_to_id[token], :] = vec
    table = EmbeddingTable(ParamTensor("embedding", mat), dim)
    table.freeze_pad()
    return table


def _utf8_lines(path: str | Path):
    """(line number, line) of a text file; bytes that are not UTF-8 raise a ParseError."""
    # surrogateescape maps each undecodable byte to a lone surrogate, which
    # valid UTF-8 never decodes to and which cannot be encoded back
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise ParseError(f"{path}: not UTF-8 text", line=lineno)
            yield lineno, line


def _read_embedding_file(path: Path, dim: int) -> dict[str, np.ndarray]:
    vectors: dict[str, np.ndarray] = {}
    for lineno, line in _utf8_lines(path):
        parts = line.rstrip("\n").split()
        if not parts:
            continue
        if lineno == 1 and len(parts) == 2:
            try:
                int(parts[0]), int(parts[1])
                continue  # header line
            except ValueError:
                pass
        if len(parts) != dim + 1:
            raise ParseError(
                f"{path}: expected token plus {dim} values, got {len(parts)} fields",
                line=lineno,
            )
        try:
            vec = np.array([float(x) for x in parts[1:]], dtype=np.float64)
        except ValueError:
            raise ParseError(f"{path}: non-numeric embedding entry", line=lineno)
        if not np.isfinite(vec).all():
            raise ParseError(f"{path}: non-finite embedding entry", line=lineno)
        vectors[parts[0]] = vec
    return vectors


@dataclass
class Notes:
    """A batch of prepared notes; indexing takes the same rows of all three arrays."""

    ids: np.ndarray  # (notes, width) int64 token ids, PAD_ID past each note's length
    lens: np.ndarray  # (notes,) valid length of each id row
    Y: np.ndarray  # (notes, labels) 0/1 truth

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, idx) -> "Notes":
        return Notes(self.ids[idx], self.lens[idx], self.Y[idx])


def encode_doc(tokens: list[str], vocab: Vocabulary, max_len: int = 600) -> np.ndarray:
    """The note's id row: tokens mapped to ids, truncated at max_len, padded with the pad id."""
    if max_len < 1:
        raise ConfigError(f"max_len must be >= 1, got {max_len}")
    if not tokens:
        raise EmptyDocumentError("cannot encode a document with no tokens")
    ids = np.full(max_len, PAD_ID, dtype=np.int64)
    ids[: len(tokens)] = list(map(vocab.token_to_id.get, tokens[:max_len], repeat(UNK_ID)))
    return ids


def load_corpus(path: str | Path) -> list[dict]:
    """JSON Lines corpus: one {"text": ..., "labels": [...]} object per line.

    A text that is empty or only whitespace is a ParseError naming its line.
    """
    docs = []
    for lineno, line in _utf8_lines(path):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as e:  # not JSON, or past the decoder's limits
            raise ParseError(f"{path}: invalid JSON ({getattr(e, 'msg', e)})", line=lineno)
        if not isinstance(obj, dict) or "text" not in obj or "labels" not in obj:
            raise ParseError(f"{path}: document needs 'text' and 'labels'", line=lineno)
        text, labels = obj["text"], obj["labels"]
        if not isinstance(text, str):
            raise ParseError(f"{path}: 'text' must be a string", line=lineno)
        if not text.strip():
            raise ParseError(f"{path}: 'text' has no tokens", line=lineno)
        if not isinstance(labels, list) or not all(isinstance(l, str) for l in labels):
            raise ParseError(f"{path}: 'labels' must be a list of strings", line=lineno)
        docs.append({"text": text, "labels": labels})
    if not docs:
        raise ParseError(f"{path}: corpus is empty")
    return docs


def write_label_file(path: str | Path, labels: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for label in labels:
            fh.write(label + "\n")
