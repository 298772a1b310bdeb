"""Bag-of-words documents with tf-idf weights, for tokens or transcripts.

A corpus is one :class:`DocBatch`: CSR entries (term, count, weight) per
document. ``bag_of_words`` counts token sequences, ``compute_stats`` takes
document frequencies over bags, and ``tfidf`` weighs a bag against them.

tf(v, doc) is the raw count divided by document length; idf uses the smoothed
form log((1 + D) / (1 + df(v))) + 1, which is always >= 1, so every present
term keeps a positive weight.
"""

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

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

    def check_vocab(self, vocab_size: int) -> None:
        """Reject terms outside ``[0, vocab_size)``, naming the first document."""
        bad = np.flatnonzero((self.terms < 0) | (self.terms >= vocab_size))
        if bad.size:
            doc = self.ids[int(np.searchsorted(self.indptr, bad[0], side="right")) - 1]
            raise ValidationError(
                f"document '{doc}' has terms outside vocabulary size {vocab_size}"
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


@dataclass
class TextVocab:
    """Dense token-to-id map ordered by (frequency desc, token asc)."""

    ids: dict[str, int] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, token: str) -> bool:
        return token in self.ids


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


def tokenize_transcript(text: str, vocab: TextVocab) -> list[int]:
    """Token ids of the normalized tokens of ``text``; OOV tokens are dropped."""
    return [vocab.ids[tok] for tok in normalize_tokens(text) if tok in vocab.ids]


def build_text_vocab(transcripts, cap: int) -> TextVocab:
    """The ``cap`` most frequent normalized tokens, ties broken lexically."""
    if cap < 1:
        raise ValidationError(f"vocabulary cap must be >= 1, got {cap}")
    freq: Counter[str] = Counter()
    for text in transcripts:
        freq.update(normalize_tokens(text))
    ranked = sorted(freq.items(), key=lambda kv: (-kv[1], kv[0]))[:cap]
    return TextVocab(ids={tok: i for i, (tok, _) in enumerate(ranked)})


# ---------------------------------------------------------------------------
# Weighted-corpus text format


def write_weighted(docs: DocBatch, path) -> None:
    """Per line: ``id <TAB> term:count:weight,...`` with 9-digit weights."""
    terms, counts, weights = docs.terms.tolist(), docs.counts.tolist(), docs.weights.tolist()
    bounds = docs.indptr.tolist()
    with open(path, "w", encoding="utf-8") as fh:
        for d, utt_id in enumerate(docs.ids):
            body = ",".join(
                f"{terms[e]}:{counts[e]}:{weights[e]:.9g}"
                for e in range(bounds[d], bounds[d + 1])
            )
            fh.write(utt_id + "\t" + body + "\n")


def read_weighted(path) -> DocBatch:
    ids: list[str] = []
    indptr = [0]
    entries: list[tuple[int, int, float]] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            fields = line.split("\t")
            if len(fields) > 2 or not fields[0]:
                raise FormatError(f"{path}:{lineno}: malformed weighted-corpus line")
            body = fields[1] if len(fields) == 2 else ""
            if body:
                prev = -1
                for item in body.split(","):
                    parts = item.split(":")
                    if len(parts) != 3:
                        raise FormatError(
                            f"{path}:{lineno}: malformed entry '{item}'"
                        )
                    try:
                        term, count, weight = int(parts[0]), int(parts[1]), float(parts[2])
                    except ValueError:
                        raise FormatError(
                            f"{path}:{lineno}: malformed entry '{item}'"
                        ) from None
                    if term <= prev:
                        raise FormatError(
                            f"{path}:{lineno}: terms must be strictly ascending"
                        )
                    if count < 1 or weight < 0 or not math.isfinite(weight):
                        raise FormatError(
                            f"{path}:{lineno}: invalid count or weight in '{item}'"
                        )
                    entries.append((term, count, weight))
                    prev = term
            ids.append(fields[0])
            indptr.append(len(entries))
    terms, counts, weights = zip(*entries) if entries else ((), (), ())
    return DocBatch(
        ids, np.array(indptr, dtype=np.int64), np.array(terms, dtype=np.int64),
        np.array(counts, dtype=np.int64), np.array(weights, dtype=np.float64),
    )
