"""Latent-topic model over weighted documents, trained by variational EM.

Each document carries per-term non-negative weights that act as fractional
pseudo-counts: a term's weight multiplies its responsibility vector in the
gamma update, the corpus-level sufficient statistics, and the bound. Plain
count documents are the special case weight = count.

Inference is mean-field coordinate ascent: responsibilities phi from the
current gamma, then gamma = alpha + sum of weight * phi. The per-document
bound is non-decreasing under these updates; the training objective (document
bounds plus a smoothing prior on the topic-term table) is non-decreasing
across EM iterations.

Inference is batched, as in the minibatch E-step of Hoffman, Blei & Bach
("Online Learning for Latent Dirichlet Allocation", NIPS 2010): documents are
laid out as CSR entries, gamma is a documents x topics matrix and phi lives on
the entries. Each sweep updates every document still moving; a document
leaves the batch once its own mean absolute gamma change drops below the
tolerance or it reaches the sweep cap. ``train_lda`` and
``extract_posteriors`` run this over blocks of at most ``_BLOCK_CELLS``
entries x topics, so working memory does not grow with the corpus.
``infer_document`` is the single-document form of the same sweep and the
only one that records the bound after every sweep.
"""

import struct
from dataclasses import dataclass, field

import numpy as np
from scipy.special import digamma, gammaln

from .docmodel import WeightedDocument
from .errors import FormatError, ValidationError

LDA_MAGIC = b"ALDA"
LDA_VERSION = 1
_LDA_HEADER = struct.Struct("<4sIII")

# Entries x topics in one inference block. A sweep keeps a few arrays of this
# many float64 values live (16 MiB each); a longer document gets a block of
# its own.
_BLOCK_CELLS = 1 << 21


@dataclass
class LdaConfig:
    """EM and per-document inference settings."""

    seed: int = 0
    em_tol: float = 1e-5
    em_max_iterations: int = 60
    doc_tol: float = 1e-4
    doc_max_iterations: int = 100
    eta: float = 1e-2
    alpha: float | None = None  # None: symmetric 50 / n_topics


@dataclass
class LdaModel:
    """Topic model; training fills ``bound_history``, ``n_iterations`` and
    ``doc_sweeps`` (sweeps per training document in the final E-step, 0 for
    an empty document)."""

    n_topics: int
    vocab_size: int
    alpha: np.ndarray = field(compare=False)
    log_beta: np.ndarray = field(compare=False)
    bound_history: list[float] = field(default_factory=list)
    n_iterations: int = 0
    doc_sweeps: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64), compare=False
    )


@dataclass
class InferenceState:
    """Converged variational parameters for one document.

    ``phi`` rows align with the document's entries (terms ascending); each row
    is a distribution over topics. ``elbo_history`` holds the bound after
    every update sweep.
    """

    gamma: np.ndarray = field(compare=False)
    phi: np.ndarray = field(compare=False)
    elbo_history: list[float] = field(default_factory=list)


@dataclass
class PosteriorVector:
    utt_id: str
    gamma: np.ndarray = field(compare=False)


@dataclass
class _Batch:
    """Documents as CSR entries: document d owns entries indptr[d]:indptr[d+1]."""

    indptr: np.ndarray
    terms: np.ndarray
    weights: np.ndarray

    @classmethod
    def from_docs(cls, docs: list[WeightedDocument], vocab_size: int) -> "_Batch":
        lengths = np.fromiter((len(d.entries) for d in docs), np.int64, len(docs))
        indptr = np.concatenate(([0], np.cumsum(lengths)))
        nnz = int(indptr[-1])
        terms = np.fromiter((t for d in docs for t, _, _ in d.entries), np.int64, nnz)
        weights = np.fromiter(
            (w for d in docs for _, _, w in d.entries), np.float64, nnz
        )
        bad = np.flatnonzero((terms < 0) | (terms >= vocab_size))
        if bad.size:
            doc = docs[int(np.searchsorted(indptr, bad[0], side="right")) - 1]
            raise ValidationError(
                f"document '{doc.utt_id}' has terms outside vocabulary size {vocab_size}"
            )
        return cls(indptr, terms, weights)

    def initial_gamma(self, alpha: np.ndarray) -> np.ndarray:
        """alpha plus each document's total weight spread evenly over topics."""
        totals = np.bincount(
            self.owners(), weights=self.weights, minlength=self.indptr.size - 1
        )
        return alpha + totals[:, None] / alpha.size

    def owners(self) -> np.ndarray:
        """Document index of every entry."""
        return np.repeat(np.arange(self.indptr.size - 1), np.diff(self.indptr))

    def blocks(self, n_topics: int):
        """Yield (document slice, sub-batch) with at most ``_BLOCK_CELLS``
        entries x topics per block, except for a single longer document."""
        cap = max(_BLOCK_CELLS // n_topics, 1)
        n_docs = self.indptr.size - 1
        lo = 0
        while lo < n_docs:
            hi = int(np.searchsorted(self.indptr, self.indptr[lo] + cap, side="right")) - 1
            hi = max(hi, lo + 1)
            a, b = self.indptr[lo], self.indptr[hi]
            yield slice(lo, hi), _Batch(
                self.indptr[lo:hi + 1] - a, self.terms[a:b], self.weights[a:b]
            )
            lo = hi


def _sweep(alpha, gamma, log_beta_entries, weights, starts, owner):
    """One coordinate-ascent update of a batch of non-empty documents.

    ``gamma`` is (documents, topics); entry rows are grouped by document,
    ``starts`` holds each document's first entry and ``owner`` each entry's
    document. Returns the new gamma and log phi on the entries.
    """
    log_phi = log_beta_entries + digamma(gamma)[owner]
    shift = log_phi.max(axis=1, keepdims=True)
    log_phi -= np.log(np.exp(log_phi - shift).sum(axis=1, keepdims=True)) + shift
    phi = np.exp(log_phi)
    return alpha + np.add.reduceat(weights[:, None] * phi, starts, axis=0), log_phi


def _infer_block(alpha, gamma, log_beta_entries, batch: _Batch, tol, max_iters,
                 on_sweep=None):
    """Sweep each non-empty document until its own mean absolute gamma change
    is below ``tol`` or it has had ``max_iters`` sweeps.

    ``gamma`` (documents, topics) is updated in place; rows of empty documents
    are left alone. ``on_sweep(gamma, log_phi)`` sees the moving documents
    after every sweep. Returns the sweeps per document and log phi on every
    entry from its document's last sweep.
    """
    if max_iters < 1:
        raise ValidationError(f"max_iters must be >= 1, got {max_iters}")
    lengths = np.diff(batch.indptr)
    sweeps = np.zeros(lengths.size, dtype=np.int64)
    log_phi_out = np.empty(log_beta_entries.shape)
    # Documents still moving, and the block positions of their entries; lb and
    # weights are compacted to those entries whenever a document leaves.
    active = np.flatnonzero(lengths)
    entries = np.arange(batch.terms.size)
    lb, weights = log_beta_entries, batch.weights
    while active.size:
        lens = lengths[active]
        starts = np.concatenate(([0], np.cumsum(lens[:-1])))
        owner = np.repeat(np.arange(active.size), lens)
        old = gamma[active]
        new, log_phi = _sweep(alpha, old, lb, weights, starts, owner)
        if on_sweep is not None:
            on_sweep(new, log_phi)
        gamma[active] = new
        sweeps[active] += 1
        done = (np.abs(new - old).mean(axis=1) < tol) | (sweeps[active] >= max_iters)
        if done.any():
            leaving = np.repeat(done, lens)
            log_phi_out[entries[leaving]] = log_phi[leaving]
            staying = ~leaving
            active, entries = active[~done], entries[staying]
            lb, weights = lb[staying], weights[staying]
    return sweeps, log_phi_out


def _doc_bounds(alpha, gamma, log_beta_entries, batch: _Batch, log_phi) -> np.ndarray:
    """Bound of every document of the batch at (gamma, phi = exp(log_phi)).

    For an empty document with gamma = alpha the Dirichlet terms cancel and
    the bound is exactly zero.
    """
    elog_theta = digamma(gamma) - digamma(gamma.sum(axis=1, keepdims=True))
    p_theta = (
        gammaln(alpha.sum()) - gammaln(alpha).sum()
        + ((alpha - 1.0) * elog_theta).sum(axis=1)
    )
    q_theta = (
        gammaln(gamma.sum(axis=1)) - gammaln(gamma).sum(axis=1)
        + ((gamma - 1.0) * elog_theta).sum(axis=1)
    )
    owner = batch.owners()
    per_entry = (
        batch.weights[:, None] * np.exp(log_phi)
        * (elog_theta[owner] + log_beta_entries - log_phi)
    ).sum(axis=1)
    return p_theta - q_theta + np.bincount(owner, weights=per_entry, minlength=len(gamma))


def elbo(model: LdaModel, doc: WeightedDocument, state: InferenceState) -> float:
    """Variational lower bound for one document at the given state.

    For an empty document with gamma = alpha the Dirichlet terms cancel and
    the bound is exactly zero.
    """
    batch = _Batch.from_docs([doc], model.vocab_size)
    return float(_doc_bounds(
        model.alpha, state.gamma[None, :], model.log_beta.T[batch.terms], batch,
        np.log(state.phi),
    )[0])


def infer_document(
    model: LdaModel,
    doc: WeightedDocument,
    tol: float = 1e-4,
    max_iters: int = 100,
    init_gamma=None,
) -> InferenceState:
    """Coordinate ascent on (phi, gamma) until gamma stabilizes.

    Stops when the mean absolute gamma change drops below ``tol`` or after
    ``max_iters`` sweeps. ``init_gamma`` warm-starts gamma; the default start
    spreads the document's total weight evenly across topics. This is the
    single-document form of the batched E-step; it also records the bound
    after every sweep.
    """
    batch = _Batch.from_docs([doc], model.vocab_size)
    gamma = batch.initial_gamma(model.alpha)
    if init_gamma is not None and batch.terms.size:
        gamma[0] = init_gamma
    log_beta_entries = model.log_beta.T[batch.terms]
    history: list[float] = []

    def record(new_gamma, log_phi):
        history.append(float(
            _doc_bounds(model.alpha, new_gamma, log_beta_entries, batch, log_phi)[0]
        ))

    _, log_phi = _infer_block(
        model.alpha, gamma, log_beta_entries, batch, tol, max_iters, on_sweep=record
    )
    if not history:  # empty document: no sweep; at gamma = alpha the bound is 0
        history.append(0.0)
    return InferenceState(gamma=gamma[0], phi=np.exp(log_phi), elbo_history=history)


def train_lda(
    docs,
    n_topics: int,
    vocab_size: int,
    config: LdaConfig | None = None,
    init_beta=None,
) -> LdaModel:
    """Variational EM: infer every document, then refit the topic-term table.

    The recorded objective is the sum of document bounds plus
    ``eta * sum(log_beta)``, the smoothing prior matching the M-step's
    additive ``eta``; it is non-decreasing across iterations. Gamma is
    warm-started from the previous EM iteration. Deterministic given the
    seed. ``init_beta`` overrides the seeded random initialization with an
    explicit non-negative table (rows are normalized).
    """
    config = config or LdaConfig()
    docs = list(docs)
    if n_topics < 1:
        raise ValidationError(f"n_topics must be >= 1, got {n_topics}")
    if vocab_size < 1:
        raise ValidationError(f"vocab_size must be >= 1, got {vocab_size}")
    if not any(doc.entries for doc in docs):
        raise ValidationError("cannot train on an all-empty corpus")
    batch = _Batch.from_docs(docs, vocab_size)

    alpha_val = config.alpha if config.alpha is not None else 50.0 / n_topics
    if alpha_val <= 0:
        raise ValidationError(f"alpha must be positive, got {alpha_val}")
    alpha = np.full(n_topics, alpha_val)

    if init_beta is None:
        rng = np.random.default_rng(config.seed)
        raw = config.eta + config.eta * rng.random((n_topics, vocab_size))
    else:
        raw = np.asarray(init_beta, dtype=np.float64)
        if raw.shape != (n_topics, vocab_size) or np.any(raw < 0) or np.any(
            raw.sum(axis=1) <= 0
        ):
            raise ValidationError("init_beta must be non-negative with positive row sums")
    log_beta = np.log(raw / raw.sum(axis=1, keepdims=True))

    model = LdaModel(
        n_topics=n_topics, vocab_size=vocab_size, alpha=alpha, log_beta=log_beta
    )
    gamma = batch.initial_gamma(alpha)
    sweeps = np.zeros(len(docs), dtype=np.int64)
    history: list[float] = []
    iterations = 0
    for it in range(config.em_max_iterations):
        ss = np.zeros((n_topics, vocab_size))
        log_beta_t = np.ascontiguousarray(model.log_beta.T)
        total = 0.0
        for rows, block in batch.blocks(n_topics):
            log_beta_entries = log_beta_t[block.terms]
            sweeps[rows], log_phi = _infer_block(
                alpha, gamma[rows], log_beta_entries, block,
                config.doc_tol, config.doc_max_iterations,
            )
            total += float(
                _doc_bounds(alpha, gamma[rows], log_beta_entries, block, log_phi).sum()
            )
            np.add.at(ss.T, block.terms, block.weights[:, None] * np.exp(log_phi))
        total += config.eta * float(model.log_beta.sum())
        history.append(total)
        iterations = it + 1
        if len(history) >= 2:
            prev, cur = history[-2], history[-1]
            if (cur - prev) / max(abs(prev), 1e-12) < config.em_tol:
                break
        if it == config.em_max_iterations - 1:
            break
        ss += config.eta
        model.log_beta = np.log(ss / ss.sum(axis=1, keepdims=True))

    model.bound_history = history
    model.n_iterations = iterations
    model.doc_sweeps = sweeps
    return model


def extract_posteriors(
    model: LdaModel, docs, tol: float = 1e-4, max_iters: int = 100
) -> tuple[list[PosteriorVector], np.ndarray]:
    """Converged gamma per document, in input order, and the sweeps each
    document took (0 for an empty one, whose gamma is alpha)."""
    docs = list(docs)
    batch = _Batch.from_docs(docs, model.vocab_size)
    gamma = batch.initial_gamma(model.alpha)
    sweeps = np.zeros(len(docs), dtype=np.int64)
    log_beta_t = np.ascontiguousarray(model.log_beta.T)
    for rows, block in batch.blocks(model.n_topics):
        sweeps[rows], _ = _infer_block(
            model.alpha, gamma[rows], log_beta_t[block.terms], block, tol, max_iters
        )
    posteriors = [PosteriorVector(doc.utt_id, gamma[i]) for i, doc in enumerate(docs)]
    return posteriors, sweeps


# ---------------------------------------------------------------------------
# Serialization


def save_lda(model: LdaModel, path) -> None:
    k, v = model.n_topics, model.vocab_size
    with open(path, "wb") as fh:
        fh.write(_LDA_HEADER.pack(LDA_MAGIC, LDA_VERSION, k, v))
        fh.write(np.ascontiguousarray(model.alpha, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(model.log_beta, dtype="<f8").tobytes())


def load_lda(path) -> LdaModel:
    data = open(path, "rb").read()
    if len(data) < _LDA_HEADER.size:
        raise FormatError(f"{path}: truncated topic model header")
    magic, version, k, v = _LDA_HEADER.unpack_from(data)
    if magic != LDA_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}, expected {LDA_MAGIC!r}")
    if version != LDA_VERSION:
        raise FormatError(f"{path}: unsupported topic model version {version}")
    if k < 1 or v < 1:
        raise FormatError(f"{path}: invalid dimensions {k}x{v}")
    expected = _LDA_HEADER.size + 8 * (k + k * v)
    if len(data) != expected:
        raise FormatError(f"{path}: expected {expected} bytes, got {len(data)}")
    off = _LDA_HEADER.size
    alpha = np.frombuffer(data, dtype="<f8", count=k, offset=off).copy()
    off += 8 * k
    log_beta = np.frombuffer(data, dtype="<f8", count=k * v, offset=off).reshape(k, v).copy()
    if not np.all(np.isfinite(alpha)) or np.any(alpha <= 0):
        raise FormatError(f"{path}: alpha must be positive and finite")
    if np.any(np.isnan(log_beta)) or np.any(log_beta > 0):
        raise FormatError(f"{path}: log_beta entries must be finite log-probabilities")
    row_sums = np.exp(log_beta).sum(axis=1)
    if np.any(np.abs(row_sums - 1.0) > 1e-8):
        raise FormatError(f"{path}: topic rows must sum to 1")
    return LdaModel(n_topics=k, vocab_size=v, alpha=alpha, log_beta=log_beta)


# ---------------------------------------------------------------------------
# Posterior text format


def write_posteriors(posteriors, path) -> None:
    """Per line: ``id <TAB> g1 g2 ... gK`` with 9 significant digits."""
    with open(path, "w", encoding="utf-8") as fh:
        for p in posteriors:
            fh.write(p.utt_id + "\t" + " ".join(f"{g:.9g}" for g in p.gamma) + "\n")


def read_posteriors(path) -> list[PosteriorVector]:
    out: list[PosteriorVector] = []
    k = None
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            fields = line.split("\t")
            if len(fields) != 2 or not fields[0]:
                raise FormatError(f"{path}:{lineno}: malformed posterior line")
            try:
                gamma = np.array([float(x) for x in fields[1].split()], dtype=np.float64)
            except ValueError:
                raise FormatError(f"{path}:{lineno}: non-numeric posterior value") from None
            if gamma.size == 0 or not np.all(np.isfinite(gamma)) or np.any(gamma <= 0):
                raise FormatError(
                    f"{path}:{lineno}: posterior values must be positive and finite"
                )
            if k is None:
                k = gamma.size
            elif gamma.size != k:
                raise FormatError(
                    f"{path}:{lineno}: expected {k} values, got {gamma.size}"
                )
            out.append(PosteriorVector(fields[0], gamma))
    return out
