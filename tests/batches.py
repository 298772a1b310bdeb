"""Build and unpack document batches from per-document entry lists, and run
the topic model's E-step on them sweep by sweep.

A document is written as ``(utt_id, [(term, weight), ...])`` with terms
ascending, the layout the oracles in ``reference.py`` read.
"""

from typing import NamedTuple

import numpy as np

from ldaselect import lda
from ldaselect.docmodel import DocBatch


def batch(docs, vocab_size: int) -> DocBatch:
    """The documents ``[(utt_id, entries), ...]`` over ``vocab_size`` terms as
    one batch."""
    flat = [e for _, ents in docs for e in ents]
    return DocBatch(
        [uid for uid, _ in docs],
        np.cumsum([0] + [len(ents) for _, ents in docs], dtype=np.int64),
        np.array([t for t, _ in flat], dtype=np.int64),
        np.array([w for _, w in flat], dtype=np.float64),
        vocab_size,
    )


def doc(utt_id, vocab_size: int, entries=()) -> DocBatch:
    """One document over ``vocab_size`` terms as a batch."""
    return batch([(utt_id, list(entries))], vocab_size)


class Sweep(NamedTuple):
    """One sweep of :func:`e_step`: the gamma of the documents it updated
    (the non-empty ones not yet settled, in batch order) before and after it,
    and their bounds."""

    gamma0: np.ndarray
    gamma1: np.ndarray
    bounds: np.ndarray


def e_step(model, docs: DocBatch, tol=1e-4, max_iters=100, gamma=None):
    """The E-step ``extract_posteriors`` runs: ``lda._infer_block`` over the
    full topic-term table, here with ``docs`` as one block, from ``gamma``
    (default: ``extract_posteriors``' start). Returns the final gamma, the
    sweeps per document and the list of :class:`Sweep` records."""
    if gamma is None:
        gamma = lda._initial_gamma(model.alpha, docs)
    gamma = np.array(gamma, dtype=np.float64, ndmin=2)
    trace: list[Sweep] = []
    before = gamma[np.diff(docs.indptr) > 0]

    def record(sweep, done):
        nonlocal before
        trace.append(Sweep(before, sweep.gamma, sweep.bounds(slice(None))))
        before = sweep.gamma[~done]

    sweeps = lda._infer_block(
        model.alpha, gamma, lda._topics(model.log_beta, docs), docs, tol, max_iters,
        on_sweep=record,
    )
    return gamma, sweeps, trace


def entries(docs: DocBatch, i: int = 0) -> list[tuple[int, float]]:
    """The (term, weight) entries of document ``i``."""
    lo, hi = docs.indptr[i], docs.indptr[i + 1]
    return list(zip(docs.terms[lo:hi].tolist(), docs.weights[lo:hi].tolist()))
