"""Bag-of-words documents with tf-idf weights, for tokens or transcripts.

A corpus is one :class:`DocBatch`: CSR entries (term, count, weight) per
document. ``bag_of_words`` counts token sequences, ``compute_stats`` takes
document frequencies over bags, and ``tfidf`` weighs a bag against them.

tf(v, doc) is the raw count divided by document length; idf uses the smoothed
form log((1 + D) / (1 + df(v))) + 1, which is always >= 1, so every present
term keeps a positive weight.

Between stages a batch lives in one ``.adoc`` file (``save_docs``/
``load_docs``), token bags and weighted documents alike: a :mod:`container`
whose arrays are the ids and the CSR entries. The reader checks the entries
vectorized on the container's views; weights are stored to nine significant
digits.
"""

import math
import struct
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import container
from .errors import FormatError, ValidationError


@dataclass
class DocBatch:
    """Documents as CSR entries: document d owns entries indptr[d]:indptr[d+1],
    terms strictly ascending within a document. A plain bag of words has
    weight = count."""

    ids: list[str]
    indptr: np.ndarray = field(compare=False)
    terms: np.ndarray = field(compare=False)
    counts: np.ndarray = field(compare=False)
    weights: np.ndarray = field(compare=False)

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, rows) -> "DocBatch":
        """The documents ``rows`` (a non-negative index or a unit-step slice)."""
        if not isinstance(rows, slice):
            rows = slice(rows, rows + 1)
        lo, hi, _ = rows.indices(len(self))
        hi = max(hi, lo)
        a, b = self.indptr[lo], self.indptr[hi]
        return DocBatch(
            self.ids[lo:hi], self.indptr[lo:hi + 1] - a, self.terms[a:b],
            self.counts[a:b], self.weights[a:b],
        )

    def owners(self) -> np.ndarray:
        """Document index of every entry."""
        return np.repeat(np.arange(len(self)), np.diff(self.indptr))

    def doc_of(self, entry: int) -> str:
        """Id of the document owning ``entry``."""
        return self.ids[int(np.searchsorted(self.indptr, entry, side="right")) - 1]

    def check_vocab(self, vocab_size: int) -> None:
        """Reject terms outside ``[0, vocab_size)``, naming the first document."""
        bad = np.flatnonzero((self.terms < 0) | (self.terms >= vocab_size))
        if bad.size:
            raise ValidationError(
                f"document '{self.doc_of(bad[0])}' has terms outside vocabulary "
                f"size {vocab_size}"
            )

    @classmethod
    def concat(cls, batches) -> "DocBatch":
        """The documents of every batch, in order."""
        batches = list(batches)
        offsets = np.cumsum([0] + [b.terms.size for b in batches])
        return cls(
            [i for b in batches for i in b.ids],
            np.concatenate([[0]] + [b.indptr[1:] + o for b, o in zip(batches, offsets)]),
            *(np.concatenate([getattr(b, f) for b in batches])
              for f in ("terms", "counts", "weights")),
        )


@dataclass
class CorpusStats:
    """Document-frequency table over a fixed vocabulary."""

    vocab_size: int
    doc_count: int
    doc_freq: np.ndarray = field(compare=False)


def bag_of_words(ids, token_docs, vocab_size: int) -> DocBatch:
    """Distinct terms of each token sequence with their counts, terms
    ascending; the weight of every entry is its count."""
    if vocab_size < 1:
        raise ValidationError(f"vocab_size must be >= 1, got {vocab_size}")
    ids = list(ids)
    docs = [np.asarray(t, dtype=np.int64) for t in token_docs]
    if len(docs) != len(ids):
        raise ValidationError(f"{len(ids)} document ids for {len(docs)} documents")
    lengths = np.fromiter((d.size for d in docs), np.int64, len(docs))
    flat = np.concatenate(docs) if docs else np.zeros(0, dtype=np.int64)
    owner = np.repeat(np.arange(len(docs)), lengths)
    bad = np.flatnonzero((flat < 0) | (flat >= vocab_size))
    if bad.size:
        raise ValidationError(
            f"token {flat[bad[0]]} of document '{ids[owner[bad[0]]]}' out of range "
            f"for vocabulary size {vocab_size}"
        )
    keys, counts = np.unique(owner * vocab_size + flat, return_counts=True)
    doc, terms = np.divmod(keys, vocab_size)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(doc, minlength=len(docs)))))
    return DocBatch(ids, indptr, terms, counts, counts.astype(np.float64))


def compute_stats(bags, vocab_size: int) -> CorpusStats:
    """Count, per term, the number of documents of ``bags`` containing it."""
    if vocab_size < 1:
        raise ValidationError(f"vocab_size must be >= 1, got {vocab_size}")
    doc_freq = np.zeros(vocab_size, dtype=np.int64)
    doc_count = 0
    for bag in bags:
        bag.check_vocab(vocab_size)
        doc_count += len(bag)
        doc_freq += np.bincount(bag.terms, minlength=vocab_size)
    return CorpusStats(vocab_size=vocab_size, doc_count=doc_count, doc_freq=doc_freq)


def tfidf(bag: DocBatch, stats: CorpusStats) -> DocBatch:
    """``bag`` with every weight set to count / document length * idf(term)."""
    bag.check_vocab(stats.vocab_size)
    if bag.terms.size and stats.doc_count < 1:
        raise ValidationError("corpus statistics cover zero documents")
    # math.log, one vocabulary entry at a time: np.log differs from it in the
    # last bit on some inputs.
    idf = np.array([
        math.log((1 + stats.doc_count) / (1 + df)) + 1.0 for df in stats.doc_freq.tolist()
    ])
    total = np.concatenate(([0], np.cumsum(bag.counts)))
    lengths = (total[bag.indptr[1:]] - total[bag.indptr[:-1]])[bag.owners()]
    return DocBatch(
        bag.ids, bag.indptr, bag.terms, bag.counts,
        (bag.counts / lengths) * idf[bag.terms],
    )


_STRIP = ".,;:!?\"'()[]{}<>`"


def normalize_tokens(text: str) -> list[str]:
    """Lowercase, whitespace-split, strip edge punctuation, drop empty tokens."""
    return [tok for tok in (raw.strip(_STRIP) for raw in text.lower().split()) if tok]


def tokenize_transcript(text: str, vocab: dict[str, int]) -> list[int]:
    """Token ids of the normalized tokens of ``text``; OOV tokens are dropped."""
    return [vocab[tok] for tok in normalize_tokens(text) if tok in vocab]


def build_text_vocab(transcripts, cap: int) -> dict[str, int]:
    """The ``cap`` most frequent normalized tokens, ties broken lexically,
    mapped to dense ids in that order."""
    if cap < 1:
        raise ValidationError(f"vocabulary cap must be >= 1, got {cap}")
    freq: Counter[str] = Counter()
    for text in transcripts:
        freq.update(normalize_tokens(text))
    ranked = sorted(freq.items(), key=lambda kv: (-kv[1], kv[0]))[:cap]
    return {tok: i for i, (tok, _) in enumerate(ranked)}


# ---------------------------------------------------------------------------
# Document container (.adoc): token bags and weighted documents alike

DOCS_MAGIC = b"ADOC"
DOCS_VERSION = 1
# magic, version, document count, entry count, id bytes
_DOCS_HEADER = struct.Struct("<4sIQQQ")
# Terms and counts are 32-bit: the cache hashes every container in full.
_INDPTR, _INT32, _WEIGHT = np.dtype("<i8"), np.dtype("<i4"), np.dtype("<f8")

# 10**k for k = 0..22, every one exact in float64.
_POW10 = 10.0 ** np.arange(23)


def _nine_digits(w: np.ndarray) -> np.ndarray:
    """``float(f"{x:.9g}")`` of every x in ``w``.

    For 0 < x and |k| <= 22, y = x * 10**k (or x / 10**-k) is one correctly
    rounded operation on exact operands. The halves m + 0.5 and the bounds
    1e8 and 1e9 are doubles, so rounding never carries y across one: where
    y lies in [1e8, 1e9) and is not a half, d = rint(y) holds the nine digits.
    d / 10**k (or d * 10**-k) is then again one correctly rounded operation,
    which is what parsing the digits gives (Clinger's fast path). Zeros,
    halves, the far exponents and any y that ``log10`` put out of range (it
    can be one off next to a power of ten) go through the string.
    """
    out = np.empty_like(w)
    with np.errstate(divide="ignore", invalid="ignore"):
        k = 8 - np.floor(np.log10(w))
    fast = np.flatnonzero((w > 0) & (np.abs(k) <= 22))
    x, k = w[fast], k[fast].astype(np.int64)
    scale, up = _POW10[np.abs(k)], k >= 0
    y = np.where(up, x * scale, x / scale)
    d = np.rint(y)
    out[fast] = np.where(up, d / scale, d * scale)
    exact = (y >= 1e8) & (y < 1e9) & (y - np.floor(y) != 0.5)
    slow = np.ones(w.size, dtype=bool)
    slow[fast[exact]] = False
    slow = np.flatnonzero(slow)
    out[slow] = [float(f"{v:.9g}") for v in w[slow].tolist()]
    return out


def _int32(values: np.ndarray, what: str) -> np.ndarray:
    """``values`` as little-endian int32, refusing any that would wrap."""
    narrow = values.astype(_INT32)
    if not np.array_equal(narrow, values):
        raise ValidationError(f"document {what} do not fit in 32 bits")
    return narrow


def save_docs(docs: DocBatch, path) -> None:
    """Write ``docs`` as an ``.adoc`` container, little-endian: the header,
    the ids in UTF-8 each ended by a newline, then ``indptr`` (int64),
    ``terms`` and ``counts`` (int32) and ``weights`` (float64). Weights are
    stored to nine significant digits, ``float(f"{x:.9g}")``."""
    if any(not i or "\n" in i for i in docs.ids):
        raise ValidationError("document ids must be non-empty and hold no newline")
    ids = "".join(i + "\n" for i in docs.ids).encode("utf-8")
    container.write(
        path, _DOCS_HEADER, (DOCS_MAGIC, DOCS_VERSION, len(docs), docs.terms.size, len(ids)),
        [ids, np.asarray(docs.indptr, dtype=_INDPTR), _int32(docs.terms, "terms"),
         _int32(docs.counts, "counts"), _nine_digits(np.asarray(docs.weights, dtype=_WEIGHT))],
    )


def load_docs(path) -> DocBatch:
    """Read an ``.adoc`` container, checking its magic, version, exact size,
    layout (``indptr`` rising from 0 to the entry count, one non-empty id per
    document) and entries (terms non-negative and strictly ascending within a
    document, counts >= 1, weights finite and >= 0)."""
    data = Path(path).read_bytes()
    n, nnz, id_bytes = container.read(
        data, path, _DOCS_HEADER, DOCS_MAGIC, DOCS_VERSION, "document container"
    )
    ids, indptr, terms_counts, weights = container.arrays(
        data, path, _DOCS_HEADER, ("u1", id_bytes), (_INDPTR, n + 1), (_INT32, 2 * nnz),
        (_WEIGHT, nnz),
    )
    try:
        ids = ids.tobytes().decode("utf-8").split("\n")
    except UnicodeDecodeError:
        raise FormatError(f"{path}: document ids are not UTF-8") from None
    if ids.pop() != "" or len(ids) != n:
        raise FormatError(f"{path}: expected {n} newline-ended document ids")
    if "" in ids:
        raise FormatError(f"{path}: empty document id")
    indptr, weights = indptr.astype(np.int64), weights.astype(np.float64)
    terms, counts = terms_counts.astype(np.int64).reshape(2, nnz)
    if indptr[0] != 0 or indptr[-1] != nnz or np.any(np.diff(indptr) < 0):
        raise FormatError(f"{path}: document offsets must rise from 0 to {nnz} entries")
    docs = DocBatch(ids, indptr, terms, counts, weights)
    # Each entry's predecessor within its document; -1 where a document starts.
    prev = np.empty_like(terms)
    prev[1:] = terms[:-1]
    prev[indptr[:-1][indptr[:-1] < nnz]] = -1
    bad = np.flatnonzero(terms <= prev)
    if bad.size:
        raise FormatError(
            f"{path}: document '{docs.doc_of(bad[0])}': terms must be non-negative "
            "and strictly ascending"
        )
    bad = np.flatnonzero((counts < 1) | ~(np.isfinite(weights) & (weights >= 0)))
    if bad.size:
        raise FormatError(
            f"{path}: document '{docs.doc_of(bad[0])}': invalid count or weight"
        )
    return docs
