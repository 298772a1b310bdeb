"""Build and unpack document batches from per-document entry lists.

A document is written as ``(utt_id, [(term, count, weight), ...])`` with terms
ascending, the layout the oracles in ``reference.py`` read.
"""

import numpy as np

from ldaselect.docmodel import DocBatch


def batch(docs) -> DocBatch:
    """The documents ``[(utt_id, entries), ...]`` as one batch."""
    flat = [e for _, ents in docs for e in ents]
    return DocBatch(
        [uid for uid, _ in docs],
        np.cumsum([0] + [len(ents) for _, ents in docs], dtype=np.int64),
        np.array([t for t, _, _ in flat], dtype=np.int64),
        np.array([c for _, c, _ in flat], dtype=np.int64),
        np.array([w for _, _, w in flat], dtype=np.float64),
    )


def doc(utt_id, entries=()) -> DocBatch:
    """One document as a batch."""
    return batch([(utt_id, list(entries))])


def entries(docs: DocBatch, i: int = 0) -> list[tuple[int, int, float]]:
    """The (term, count, weight) entries of document ``i``."""
    lo, hi = docs.indptr[i], docs.indptr[i + 1]
    return list(zip(
        docs.terms[lo:hi].tolist(), docs.counts[lo:hi].tolist(),
        docs.weights[lo:hi].tolist(),
    ))
