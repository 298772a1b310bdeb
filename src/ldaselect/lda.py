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
("Online Learning for Latent Dirichlet Allocation", NIPS 2010): documents
arrive as a CSR ``DocBatch`` and gamma is a documents x topics matrix. phi
is never formed: only the few entries whose phinorm underflows take their
phi, in log space. With E = exp(E[log theta]) scaled to a row maximum of
1 and B = beta scaled to a column maximum of 1, it takes phinorm from
P = E @ B, writes S = weight / phinorm into P's buffer and sets
gamma = alpha + E * (S @ B.T); training accumulates the expected counts
B * (E.T @ S) and a bound that needs only gamma and phinorm. Each sweep
updates every document still moving; a document leaves the batch once its
own mean absolute gamma change drops below the tolerance or it reaches the
sweep cap. ``train_lda`` and ``extract_posteriors`` run this over blocks of
at most ``_BLOCK_CELLS // max(topics, vocabulary)`` documents, so working
memory does not grow with the corpus. The one-document form is
``extract_posteriors(model, docs[i:i+1])``.
"""

import io
import math
import struct
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import container
from .corpus import open_file, read_file
from .docmodel import DocBatch
from .errors import FormatError, ValidationError, validate_count, validate_positive, validate_seed

LDA_MAGIC = b"ALDA"
LDA_VERSION = 1
_LDA_HEADER = struct.Struct("<4sIII")

# Documents x max(topics, vocabulary) in one inference block. A sweep keeps
# one documents x vocabulary float64 array live (P, then S in its buffer),
# and a few documents x topics ones (gamma before and after, digamma, E,
# S @ B.T), each at most 16 MiB; a block holds at least one document.
_BLOCK_CELLS = 1 << 21

# An entry whose phinorm is below this takes its phi in log space: w /
# phinorm could overflow, and a sum that small has lost precision. phinorm is
# at least B at the document's leading topic, so only a term given under
# 1e-200 of its largest probability by that topic gets here.
_MIN_PHINORM = 1e-200

# Digamma: psi(x) = psi(x + 10) - sum_{i<10} 1 / (x + i), and psi(s) for
# s >= 10 from the asymptotic series log s - 1/(2s) - sum_k B_2k / (2k s^2k),
# k <= 7 (cephes psi_asy; Bernardo, Applied Statistics AS 103, 1976).
# _PSI_SERIES holds B_2k / 2k, k = 7 down to 1, for Horner's rule in 1/s^2.
# Terms i and 9 - i of the sum pair as (2x + 9) / (x (x + 9) + i (9 - i));
# _PSI_PAIRS holds i (9 - i) for i = 1..3, after the pair i = 0's 20: the
# smallest pairs are summed first. Constants are 0-d arrays, which numpy
# takes faster than Python floats: most calls here are on a few hundred
# elements, where the call, not the arithmetic, costs.
_PSI_SERIES = tuple(
    np.array(c) for c in (1 / 12, -691 / 32760, 1 / 132, -1 / 240, 1 / 252, -1 / 120, 1 / 12)
)
_PSI_PAIRS = tuple(np.array(c) for c in (18.0, 14.0, 8.0))
_ONE, _HALF, _NINE, _TEN, _TWENTY = (np.array(c) for c in (1.0, 0.5, 9.0, 10.0, 20.0))
# x (x + 9) would overflow past about 1e154. From 2**500 the ten terms come
# to under 1e-149, far below an ulp of psi, so x is capped there.
_PSI_CAP = np.array(2.0 ** 500)
# Elements per pass, so that the four scratch rows stay in cache.
_PSI_CHUNK = 1 << 14

# Relative objective gain that stops EM; topic-term prior of init, M-step, bound.
_EM_TOL = 1e-5
_ETA = 1e-2


@dataclass
class LdaConfig:
    """EM and per-document inference settings."""

    seed: int = 0
    em_max_iterations: int = 60
    doc_tol: float = 1e-4
    doc_max_iterations: int = 100
    alpha: float | None = None  # None: symmetric 50 / n_topics


def validate_lda_config(config: LdaConfig) -> None:
    """Range-check the EM and inference settings, as :func:`train_lda` needs
    them."""
    validate_seed(config.seed)
    validate_positive(config.doc_tol, "doc_tol")
    for name in ("em_max_iterations", "doc_max_iterations"):
        validate_count(getattr(config, name), name)
    if config.alpha is not None:
        validate_positive(config.alpha, "alpha")


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
class Posteriors:
    """Topic posteriors of a document collection: row i of ``gamma`` belongs
    to ``ids[i]``."""

    ids: list[str]
    gamma: np.ndarray = field(compare=False)

    def __len__(self) -> int:
        return len(self.ids)


def _digamma(x):
    """psi(x), elementwise for positive x; a 0-d input gives a scalar."""
    x = np.asarray(x, dtype=np.float64)
    flat = x.reshape(-1)
    out = np.empty(flat.size)
    m = min(flat.size, _PSI_CHUNK)
    scratch = np.empty((4, m))
    for lo in range(0, flat.size, m):
        xs, o = flat[lo:lo + m], out[lo:lo + m]
        t, a, w, v = scratch[:, :xs.size]
        # psi(s), s = x + 10: log s - r (1/2 + r P(r^2)), r = 1/s.
        np.add(xs, _TEN, o)
        np.divide(_ONE, o, t)
        np.log(o, o)
        np.multiply(t, t, a)
        np.multiply(a, _PSI_SERIES[0], w)
        for c in _PSI_SERIES[1:-1]:
            w += c
            w *= a
        w += _PSI_SERIES[-1]
        w *= t
        w += _HALF
        w *= t
        o -= w
        # Less sum_{i<10} 1 / (x + i), pair by pair: a = x (x + 9), t = 2x + 9.
        np.minimum(xs, _PSI_CAP, out=t)
        np.add(t, _NINE, a)
        a *= t
        t += t
        t += _NINE
        np.add(a, _TWENTY, w)
        np.divide(t, w, w)
        for c in _PSI_PAIRS:
            np.add(a, c, v)
            np.divide(t, v, v)
            w += v
        np.divide(t, a, a)
        w += a
        o -= w
    return out.reshape(x.shape)[()]


def _gammaln(x):
    """log Gamma(x), elementwise (``math.lgamma``); a 0-d input gives a
    scalar."""
    x = np.asarray(x, dtype=np.float64)
    out = np.fromiter(map(math.lgamma, x.ravel().tolist()), np.float64, x.size)
    return out.reshape(x.shape)[()]


def _initial_gamma(alpha: np.ndarray, docs: DocBatch) -> np.ndarray:
    """alpha plus each document's total weight spread evenly over topics."""
    totals = np.bincount(docs.owners(), weights=docs.weights, minlength=len(docs))
    return alpha + totals[:, None] / alpha.size


class _Topics(NamedTuple):
    """The topic-term table as a sweep reads it: ``log_beta`` (topics x
    terms), ``exp`` = B = exp(log_beta - shift) and ``shift``, each column's
    max."""

    log_beta: np.ndarray
    exp: np.ndarray
    shift: np.ndarray


def _topics(log_beta: np.ndarray, docs: DocBatch) -> _Topics:
    """The table for sweeps over ``docs``.

    A term with zero probability under every topic has no responsibilities:
    a document using one is rejected, and the B column of an unused one is 0.
    """
    shift = log_beta.max(axis=0)
    dead = np.isneginf(shift)
    if dead.any():
        used = np.flatnonzero(dead[docs.terms])
        if used.size:
            raise ValidationError(
                f"document '{docs.doc_of(used[0])}' has a term with zero "
                "probability under every topic"
            )
        shift[dead] = 0.0
    return _Topics(log_beta, np.exp(log_beta - shift), shift)


def _row_sums(index: np.ndarray, values: np.ndarray, n_rows: int) -> np.ndarray:
    """Rows of ``values`` summed into ``n_rows`` rows by ``index``."""
    k = values.shape[1]
    flat = (index[:, None] * k + np.arange(k)).ravel()
    return np.bincount(flat, weights=values.ravel(), minlength=n_rows * k).reshape(n_rows, k)


def _blocks(docs: DocBatch, width: int):
    """Yield (document slice, sub-batch) of at most ``_BLOCK_CELLS // width``
    documents, and at least one."""
    cap = max(_BLOCK_CELLS // width, 1)
    for lo in range(0, len(docs), cap):
        yield slice(lo, lo + cap), docs[lo:lo + cap]


class _Sweep:
    """One coordinate-ascent update of the moving documents of a block.

    With E = exp(digamma(gamma0) - row max) (documents x topics), the phi of
    entry e (document d, term t) is E[d] * B[:, t] / P[d, t], where P = E @ B
    and the two shifts cancel. The new gamma is alpha + E * (S @ B.T), where S
    holds w_e / P[d, t] at each entry and 0 elsewhere; S is written into P's
    buffer ``buf``. An entry whose phinorm P[d, t] falls below
    ``_MIN_PHINORM`` is left out of S and takes its phi in log space.

    ``own``, ``terms`` and ``weights`` give each entry's row, term and weight,
    and ``flat`` its position in the flattened S (own * S's width + term), so
    that gathering and scattering S take one index. ``s`` (S) is valid until
    the next sweep reuses ``buf``.
    """

    def __init__(self, alpha, gamma0, topics: _Topics, own, terms, weights, flat, buf):
        self.alpha, self.topics = alpha, topics
        self.own, self.terms, self.weights = own, terms, weights
        self.dig = _digamma(gamma0)
        self.row_shift = self.dig.max(axis=1)
        self.e = self.dig - self.row_shift[:, None]
        np.exp(self.e, out=self.e)
        self.s = np.matmul(self.e, topics.exp, out=buf)
        s_flat = self.s.reshape(-1)
        phinorm = s_flat[flat]
        self.small = np.flatnonzero(phinorm < _MIN_PHINORM)
        phinorm[self.small] = np.inf  # their S entries become 0
        self.phinorm = phinorm
        self.s.fill(0.0)
        s_flat[flat] = weights / phinorm
        self.gamma = np.matmul(self.s, topics.exp.T)
        self.gamma *= self.e
        self.gamma += alpha
        self.phi_small, self.log_z_small = np.zeros((0, len(alpha))), np.zeros(0)
        if self.small.size:
            # Log-space phi and log normalizer of the small entries.
            log_phi = self.dig[own[self.small]] + topics.log_beta.T[terms[self.small]]
            top = log_phi.max(axis=1, keepdims=True)
            phi = np.exp(log_phi - top)
            norm = phi.sum(axis=1, keepdims=True)
            self.phi_small = phi / norm
            self.log_z_small = (np.log(norm) + top)[:, 0]
            self.gamma += _row_sums(
                own[self.small], weights[self.small, None] * self.phi_small, len(gamma0)
            )

    def bounds(self, rows) -> np.ndarray:
        """Bound of the documents ``rows`` at the new gamma and this sweep's phi.

        With Z_e = sum_k exp(digamma(gamma0_k) + log_beta[k, t]), the
        normalizer of entry e's phi, the phi terms of the bound cancel to
        Dirichlet terms(gamma1) - sum_k (gamma1_k - alpha_k) digamma(gamma0_k)
        + sum_e w_e log Z_e; log Z_e = log P[d, t] + both shifts.
        """
        alpha, shift = self.alpha, self.topics.shift
        log_z = np.log(self.phinorm) + self.row_shift[self.own] + shift[self.terms]
        log_z[self.small] = self.log_z_small
        w_log_z = np.bincount(self.own, weights=self.weights * log_z, minlength=len(self.e))
        g1 = self.gamma[rows]
        return (
            _gammaln(alpha.sum()) - _gammaln(alpha).sum()
            - _gammaln(g1.sum(axis=1)) + _gammaln(g1).sum(axis=1)
            - ((g1 - alpha) * self.dig[rows]).sum(axis=1) + w_log_z[rows]
        )

    def add_stats(self, ss, rows) -> None:
        """Add the expected topic-term counts, sum of w * phi, of the
        documents ``rows`` (a mask) to ``ss``: B * (E.T @ S), plus their
        log-space entries."""
        counts = self.e[rows].T @ self.s[rows]
        counts *= self.topics.exp
        ss += counts
        mine = rows[self.own[self.small]]
        if mine.any():
            entries = self.small[mine]
            ss += _row_sums(
                self.terms[entries], self.weights[entries, None] * self.phi_small[mine],
                ss.shape[1],
            ).T


def _infer_block(alpha, gamma, topics: _Topics, batch: DocBatch, tol, max_iters,
                 on_sweep=None) -> np.ndarray:
    """Sweep each non-empty document until its own mean absolute gamma change
    is below ``tol`` or it has had ``max_iters`` sweeps.

    ``gamma`` (documents, topics) is updated in place; rows of empty documents
    are left alone. ``on_sweep(sweep, done)`` sees every sweep of the moving
    documents and the mask of those leaving after it. Returns the sweeps per
    document.
    """
    lengths = np.diff(batch.indptr)
    sweeps = np.zeros(lengths.size, dtype=np.int64)
    # Documents still moving, all swept ``sweep_no`` times, with their gamma,
    # lengths, and their entries' rows, terms, weights and positions in S;
    # all are compacted whenever a document leaves, which writes its gamma.
    active = np.flatnonzero(lengths)
    g, lens = gamma[active], lengths[active]
    terms, weights = batch.terms, batch.weights
    width = topics.exp.shape[1]
    own = np.repeat(np.arange(active.size), lens)
    flat = own * width + terms
    buf = np.empty((active.size, width))
    sweep_no = 0
    while active.size:
        sweep = _Sweep(alpha, g, topics, own, terms, weights, flat, buf[:active.size])
        sweep_no += 1
        change = np.subtract(sweep.gamma, g)
        np.abs(change, out=change)
        # The mean as np.mean takes it (row sum / topics), without its
        # per-call cost.
        done = change.sum(axis=1) / change.shape[1] < tol
        if sweep_no >= max_iters:
            done[:] = True
        if on_sweep is not None:
            on_sweep(sweep, done)
        g = sweep.gamma
        if done.any():
            leaving = active[done]
            gamma[leaving], sweeps[leaving] = g[done], sweep_no
            keep = ~done
            staying = np.repeat(keep, lens)
            active, g, lens = active[keep], g[keep], lens[keep]
            terms, weights = terms[staying], weights[staying]
            own = np.repeat(np.arange(active.size), lens)
            flat = own * width + terms
    return sweeps


def train_lda(
    docs: DocBatch,
    n_topics: int,
    config: LdaConfig | None = None,
    init_beta=None,
) -> LdaModel:
    """Variational EM: infer every document, then refit the topic-term table.

    The recorded objective is the sum of document bounds plus
    ``_ETA * sum(log_beta)``, the smoothing prior matching the M-step's
    additive ``_ETA``; it is non-decreasing across iterations. Gamma is
    warm-started from the previous EM iteration. Deterministic given the
    seed. ``init_beta`` overrides the seeded random initialization with an
    explicit finite, non-negative table (rows are normalized) in which every
    term has a positive entry.
    """
    config = config or LdaConfig()
    validate_lda_config(config)
    validate_count(n_topics, "n_topics")
    docs.check()
    vocab_size = docs.vocab_size
    if not docs.terms.size:
        raise ValidationError("cannot train on an all-empty corpus")

    alpha = np.full(n_topics, config.alpha if config.alpha is not None else 50.0 / n_topics)

    if init_beta is None:
        rng = np.random.default_rng(config.seed)
        raw = _ETA + _ETA * rng.random((n_topics, vocab_size))
    else:
        raw = np.asarray(init_beta, dtype=np.float64)
        if not (raw.shape == (n_topics, vocab_size) and np.all(np.isfinite(raw) & (raw >= 0))
                and np.all(raw.sum(axis=1) > 0)):
            raise ValidationError("init_beta must be finite and >= 0, with positive row sums")
        dead = np.flatnonzero(raw.max(axis=0) <= 0)
        if dead.size:
            raise ValidationError(
                f"init_beta gives term {dead[0]} zero probability under every topic"
            )
    with np.errstate(divide="ignore"):  # zero entries are allowed: log 0 = -inf
        log_beta = np.log(raw / raw.sum(axis=1, keepdims=True))

    model = LdaModel(
        n_topics=n_topics, vocab_size=vocab_size, alpha=alpha, log_beta=log_beta
    )
    gamma = _initial_gamma(alpha, docs)
    sweeps = np.zeros(len(docs), dtype=np.int64)
    history: list[float] = []
    iterations = 0
    for it in range(config.em_max_iterations):
        topics = _topics(model.log_beta, docs)
        # Each document adds its bound and expected counts from its last sweep.
        bounds: list[float] = []
        ss = np.zeros((n_topics, vocab_size))

        def collect(sweep, done):
            if done.any():
                bounds.append(float(sweep.bounds(done).sum()))
                sweep.add_stats(ss, done)

        for rows, block in _blocks(docs, max(n_topics, vocab_size)):
            sweeps[rows] = _infer_block(
                alpha, gamma[rows], topics, block,
                config.doc_tol, config.doc_max_iterations, on_sweep=collect,
            )
        history.append(sum(bounds) + _ETA * float(model.log_beta.sum()))
        iterations = it + 1
        if len(history) >= 2:
            prev, cur = history[-2], history[-1]
            if (cur - prev) / max(abs(prev), 1e-12) < _EM_TOL:
                break
        if it == config.em_max_iterations - 1:
            break
        ss += _ETA
        model.log_beta = np.log(ss / ss.sum(axis=1, keepdims=True))

    model.bound_history = history
    model.n_iterations = iterations
    model.doc_sweeps = sweeps
    return model


def extract_posteriors(
    model: LdaModel, docs: DocBatch, tol: float = LdaConfig.doc_tol,
    max_iters: int = LdaConfig.doc_max_iterations,
) -> tuple[Posteriors, np.ndarray]:
    """Converged gamma per document, in input order, and the sweeps each
    document took (0 for an empty one, whose gamma is alpha). ``tol`` and
    ``max_iters`` default to and are checked as the config's ``doc_*``
    settings, and the documents must be over the model's vocabulary."""
    validate_positive(tol, "tol")
    validate_count(max_iters, "max_iters")
    docs.check()
    if docs.vocab_size != model.vocab_size:
        raise ValidationError(f"documents over vocabulary size {docs.vocab_size}, "
                              f"model over {model.vocab_size}")
    topics = _topics(model.log_beta, docs)
    gamma = _initial_gamma(model.alpha, docs)
    sweeps = np.zeros(len(docs), dtype=np.int64)
    for rows, block in _blocks(docs, max(model.n_topics, model.vocab_size)):
        sweeps[rows] = _infer_block(model.alpha, gamma[rows], topics, block, tol, max_iters)
    return Posteriors(list(docs.ids), gamma), sweeps


# ---------------------------------------------------------------------------
# Serialization


def save_lda(model: LdaModel, path) -> None:
    k, v = model.n_topics, model.vocab_size
    container.write(
        path, _LDA_HEADER, (LDA_MAGIC, LDA_VERSION, k, v),
        [np.asarray(a, dtype="<f8") for a in (model.alpha, model.log_beta)],
    )


def load_lda(path) -> LdaModel:
    data = read_file(path)
    k, v = container.read(data, path, _LDA_HEADER, LDA_MAGIC, LDA_VERSION, "topic model")
    if k < 1 or v < 1:
        raise FormatError(f"{path}: invalid dimensions {k}x{v}")
    alpha, log_beta = container.arrays(data, path, _LDA_HEADER, ("<f8", k), ("<f8", k * v))
    alpha, log_beta = alpha.copy(), log_beta.reshape(k, v).copy()
    if not np.all(np.isfinite(alpha)) or np.any(alpha <= 0):
        raise FormatError(f"{path}: alpha must be positive and finite")
    if np.any(np.isnan(log_beta)) or np.any(log_beta > 0):
        raise FormatError(f"{path}: log_beta entries must be finite log-probabilities")
    dead = np.flatnonzero(np.isneginf(log_beta).all(axis=0))
    if dead.size:
        raise FormatError(f"{path}: term {dead[0]} has zero probability under every topic")
    row_sums = np.exp(log_beta).sum(axis=1)
    if np.any(np.abs(row_sums - 1.0) > 1e-8):
        raise FormatError(f"{path}: topic rows must sum to 1")
    return LdaModel(n_topics=k, vocab_size=v, alpha=alpha, log_beta=log_beta)


# ---------------------------------------------------------------------------
# Posterior text format


def write_posteriors(posteriors: Posteriors, path) -> None:
    """Per line: ``id <TAB> g1 g2 ... gK`` with 9 significant digits."""
    row_format = " ".join(["%.9g"] * posteriors.gamma.shape[-1]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        for utt_id, row in zip(posteriors.ids, posteriors.gamma.tolist()):
            fh.write(utt_id + "\t" + row_format % tuple(row))


def _stacked(path, rows: list[np.ndarray], linenos: list[int]) -> np.ndarray:
    """``rows`` as one matrix. All values are checked at once; the error names
    the first line holding one that is not positive and finite."""
    gamma = np.array(rows) if rows else np.zeros((0, 0))
    bad = np.flatnonzero(~(np.isfinite(gamma) & (gamma > 0)).all(axis=1))
    if bad.size:
        raise FormatError(
            f"{path}:{linenos[bad[0]]}: posterior values must be positive and finite"
        )
    return gamma


def read_posteriors(path) -> Posteriors:
    ids: list[str] = []
    rows: list[np.ndarray] = []
    linenos: list[int] = []

    def error(lineno: int, message: str) -> FormatError:
        _stacked(path, rows, linenos)  # a bad value on an earlier line comes first
        return FormatError(f"{path}:{lineno}: {message}")

    k = None
    fh, _ = open_file(path)
    with fh, io.BufferedReader(fh) as lines:  # decoded one line at a time
        for lineno, raw in enumerate(lines, start=1):
            try:
                line = raw.decode("utf-8").rstrip("\n")
            except UnicodeDecodeError:
                raise FormatError(f"{path}:{lineno}: not UTF-8 text") from None
            if not line.strip():
                continue
            fields = line.split("\t")
            if len(fields) != 2 or not fields[0]:
                raise error(lineno, "malformed posterior line")
            try:
                gamma = np.array(fields[1].split(), dtype=np.float64)
            except ValueError:
                raise error(lineno, "non-numeric posterior value") from None
            if gamma.size == 0:
                raise error(lineno, "posterior values must be positive and finite")
            if k is None:
                k = gamma.size
            elif gamma.size != k:
                raise error(lineno, f"expected {k} values, got {gamma.size}")
            ids.append(fields[0])
            rows.append(gamma)
            linenos.append(lineno)
    return Posteriors(ids, _stacked(path, rows, linenos))
