"""Bag-of-words documents with tf-idf weights, for tokens or transcripts.

A corpus is one :class:`DocBatch`: CSR entries (term, weight) per
document, and its vocabulary size. ``bag_of_words`` counts token sequences
into bags weighted by count (``bag_of_tokens`` the same held back to back in
one array), ``compute_stats`` takes document frequencies over bags, and
``tfidf`` weighs a bag against them.

tf(v, doc) is the count divided by document length; idf uses the smoothed
form log((1 + D) / (1 + df(v))) + 1, which is always >= 1, so every present
term keeps a positive weight.

Between stages a batch lives in one ``.adoc`` file (``save_docs``/
``load_docs``), token bags and weighted documents alike: a :mod:`container`
whose header holds the vocabulary size and whose arrays are the ids and the
CSR entries. Weights are stored as the float64 values they are, so a batch
reads back bit for bit. The reader checks the entries vectorized on the
container's views.
"""

import math
import struct
import sys
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import container
from .corpus import read_file
from .errors import FormatError, ValidationError, validate_count


@dataclass
class DocBatch:
    """Documents as CSR entries over the terms ``0 .. vocab_size - 1``:
    document d owns entries indptr[d]:indptr[d+1], terms strictly ascending
    within a document. A bag of words weighs each term by its count."""

    ids: list[str]
    indptr: np.ndarray = field(compare=False)
    terms: np.ndarray = field(compare=False)
    weights: np.ndarray = field(compare=False)
    vocab_size: int

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
            self.weights[a:b], self.vocab_size,
        )

    def owners(self) -> np.ndarray:
        """Document index of every entry."""
        return np.repeat(np.arange(len(self)), np.diff(self.indptr))

    def doc_of(self, entry: int) -> str:
        """Id of the document owning ``entry``."""
        return self.ids[int(np.searchsorted(self.indptr, entry, side="right")) - 1]

    def check(self) -> None:
        """Reject a size below 1, terms outside ``[0, vocab_size)``, and a
        weight that is not finite and >= 0."""
        validate_count(self.vocab_size, "vocab_size")
        bad = np.flatnonzero((self.terms < 0) | (self.terms >= self.vocab_size))
        if bad.size:
            raise ValidationError(
                f"document '{self.doc_of(bad[0])}' has terms outside vocabulary "
                f"size {self.vocab_size}"
            )
        bad = np.flatnonzero(~(np.isfinite(self.weights) & (self.weights >= 0)))
        if bad.size:
            raise ValidationError(
                f"document '{self.doc_of(bad[0])}' weights must be finite and >= 0, "
                f"got {self.weights[bad[0]]}"
            )

    @classmethod
    def concat(cls, batches) -> "DocBatch":
        """The documents of every batch, in order; there must be at least one
        batch, and all over one vocabulary size."""
        batches = list(batches)
        if not batches:
            raise ValidationError("no document batches to concatenate")
        sizes = sorted({b.vocab_size for b in batches})
        if len(sizes) > 1:
            raise ValidationError(f"document batches over different vocabulary sizes {sizes}")
        offsets = np.cumsum([0] + [b.terms.size for b in batches])
        return cls(
            [i for b in batches for i in b.ids],
            np.concatenate([[0]] + [b.indptr[1:] + o for b, o in zip(batches, offsets)]),
            *(np.concatenate([getattr(b, f) for b in batches]) for f in ("terms", "weights")),
            sizes[0],
        )


@dataclass
class CorpusStats:
    """Document-frequency table over a fixed vocabulary."""

    vocab_size: int
    doc_count: int
    doc_freq: np.ndarray = field(compare=False)


def bag_of_words(ids, token_docs, vocab_size: int) -> DocBatch:
    """Distinct terms of each token sequence with their counts, terms
    ascending; the weight of every entry is its count. Ids must be distinct,
    and tokens integers: a string or fractional token is refused, not cast."""
    docs = [np.asarray(t) for t in token_docs]
    bad = next((i for i, d in enumerate(docs) if d.size and d.dtype.kind not in "iu"), None)
    if bad is not None:
        raise ValidationError(
            f"tokens must be integers; token_docs[{bad}] holds {docs[bad].dtype} values"
        )
    docs = [d.astype(np.int64, copy=False) for d in docs]
    lengths = np.fromiter((d.size for d in docs), np.int64, len(docs))
    flat = np.concatenate(docs) if docs else np.zeros(0, dtype=np.int64)
    return bag_of_tokens(ids, flat, lengths, vocab_size)


def bag_of_tokens(ids, tokens: np.ndarray, lengths: np.ndarray, vocab_size: int) -> DocBatch:
    """:func:`bag_of_words` of the documents that the int64 array ``tokens``
    holds back to back, ``lengths[d]`` tokens for document ``d``."""
    validate_count(vocab_size, "vocab_size")
    ids = list(ids)
    repeated = [i for i, n in Counter(ids).items() if n > 1]
    if repeated:
        raise ValidationError(f"duplicate document id '{repeated[0]}'")
    if len(lengths) != len(ids):
        raise ValidationError(f"{len(ids)} document ids for {len(lengths)} documents")
    owner = np.repeat(np.arange(len(ids)), lengths)
    bad = np.flatnonzero((tokens < 0) | (tokens >= vocab_size))
    if bad.size:
        raise ValidationError(
            f"token {tokens[bad[0]]} of document '{ids[owner[bad[0]]]}' out of range "
            f"for vocabulary size {vocab_size}"
        )
    keys, counts = np.unique(owner * vocab_size + tokens, return_counts=True)
    doc, terms = np.divmod(keys, vocab_size)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(doc, minlength=len(ids)))))
    return DocBatch(ids, indptr, terms, counts.astype(np.float64), vocab_size)


def compute_stats(bags) -> CorpusStats:
    """Count, per term, the number of documents of ``bags`` containing it."""
    docs = DocBatch.concat(bags)
    docs.check()
    return CorpusStats(
        vocab_size=docs.vocab_size, doc_count=len(docs),
        doc_freq=np.bincount(docs.terms, minlength=docs.vocab_size),
    )


def tfidf(bag: DocBatch, stats: CorpusStats) -> DocBatch:
    """``bag`` with every weight, a count, set to count / document length *
    idf(term), the length being the document's total weight."""
    bag.check()
    if bag.vocab_size != stats.vocab_size:
        raise ValidationError(f"documents over vocabulary size {bag.vocab_size}, "
                              f"statistics over {stats.vocab_size}")
    if bag.terms.size and stats.doc_count < 1:
        raise ValidationError("corpus statistics cover zero documents")
    # math.log, one vocabulary entry at a time: np.log differs from it in the
    # last bit on some inputs.
    idf = np.array([
        math.log((1 + stats.doc_count) / (1 + df)) + 1.0 for df in stats.doc_freq.tolist()
    ])
    total = np.concatenate(([0], np.cumsum(bag.weights)))
    lengths = (total[bag.indptr[1:]] - total[bag.indptr[:-1]])[bag.owners()]
    return DocBatch(
        bag.ids, bag.indptr, bag.terms, (bag.weights / lengths) * idf[bag.terms],
        bag.vocab_size,
    )


_STRIP = ".,;:!?\"'()[]{}<>`"


def normalize_tokens(text: str) -> list[str]:
    """Lowercase, whitespace-split, strip edge punctuation, drop empty tokens.
    Tokens are interned: a corpus's token lists, held together while its
    vocabulary is built, keep one string per distinct word."""
    return [sys.intern(tok) for tok in (raw.strip(_STRIP) for raw in text.lower().split()) if tok]


def token_ids(tokens: list[str], vocab: dict[str, int]) -> list[int]:
    """Ids of the normalized ``tokens`` in ``vocab``; OOV tokens are dropped."""
    return [vocab[tok] for tok in tokens if tok in vocab]


def build_text_vocab(token_docs, cap: int) -> dict[str, int]:
    """The ``cap`` most frequent tokens of ``token_docs``, each transcript's
    :func:`normalize_tokens`, ties broken lexically, mapped to dense ids in
    that order."""
    validate_count(cap, "vocabulary cap")
    freq: Counter[str] = Counter()
    for tokens in token_docs:
        freq.update(tokens)
    ranked = sorted(freq.items(), key=lambda kv: (-kv[1], kv[0]))[:cap]
    return {tok: i for i, (tok, _) in enumerate(ranked)}


# ---------------------------------------------------------------------------
# Document container (.adoc): token bags and weighted documents alike

DOCS_MAGIC = b"ADOC"
DOCS_VERSION = 3
# magic, version, vocabulary size, document count, entry count, id bytes
_DOCS_HEADER = struct.Struct("<4sIQQQQ")
# Terms are 32-bit: the cache hashes every container in full.
_INDPTR, _TERM, _WEIGHT = np.dtype("<i8"), np.dtype("<i4"), np.dtype("<f8")


def save_docs(docs: DocBatch, path) -> None:
    """Write ``docs`` as an ``.adoc`` container, little-endian: the header,
    the ids in UTF-8 each ended by a newline, then ``indptr`` (int64),
    ``terms`` (int32) and ``weights`` (float64, as they are). The vocabulary
    size may be at most 2**31, so that every term fits."""
    docs.check()
    if docs.vocab_size > 1 << 31:
        raise ValidationError(f"vocabulary size {docs.vocab_size} exceeds 32-bit terms")
    if any(not i or "\n" in i for i in docs.ids):
        raise ValidationError("document ids must be non-empty and hold no newline")
    ids = "".join(i + "\n" for i in docs.ids).encode("utf-8")
    container.write(
        path, _DOCS_HEADER,
        (DOCS_MAGIC, DOCS_VERSION, docs.vocab_size, len(docs), docs.terms.size, len(ids)),
        [ids, np.asarray(docs.indptr, dtype=_INDPTR), docs.terms.astype(_TERM),
         np.asarray(docs.weights, dtype=_WEIGHT)],
    )


def load_docs(path) -> DocBatch:
    """Read an ``.adoc`` container, checking its magic, version (3 only: the
    older layouts are refused, not converted), exact size,
    vocabulary size (at least 1), layout (``indptr`` rising from 0 to the
    entry count, one non-empty id per document) and entries (terms
    non-negative, below the vocabulary size and strictly ascending within a
    document, weights finite and >= 0)."""
    data = read_file(path)
    vocab_size, n, nnz, id_bytes = container.read(
        data, path, _DOCS_HEADER, DOCS_MAGIC, DOCS_VERSION, "document container"
    )
    if vocab_size < 1:
        raise FormatError(f"{path}: vocabulary size must be at least 1, got {vocab_size}")
    ids, indptr, terms, weights = container.arrays(
        data, path, _DOCS_HEADER, ("u1", id_bytes), (_INDPTR, n + 1), (_TERM, nnz),
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
    indptr, terms = indptr.astype(np.int64), terms.astype(np.int64)
    weights = weights.astype(np.float64)
    if indptr[0] != 0 or indptr[-1] != nnz or np.any(np.diff(indptr) < 0):
        raise FormatError(f"{path}: document offsets must rise from 0 to {nnz} entries")
    docs = DocBatch(ids, indptr, terms, weights, vocab_size)
    # Each entry's predecessor within its document; -1 where a document starts.
    prev = np.empty_like(terms)
    prev[1:] = terms[:-1]
    prev[indptr[:-1][indptr[:-1] < nnz]] = -1
    bad = np.flatnonzero((terms <= prev) | (terms >= vocab_size))
    if bad.size:
        raise FormatError(
            f"{path}: document '{docs.doc_of(bad[0])}': terms must be non-negative, "
            f"strictly ascending and below the vocabulary size {vocab_size}"
        )
    bad = np.flatnonzero(~(np.isfinite(weights) & (weights >= 0)))
    if bad.size:
        raise FormatError(f"{path}: document '{docs.doc_of(bad[0])}': invalid weight")
    return docs
