"""Diagonal-covariance Gaussian mixtures mapping frames to discrete tokens.

A trained mixture acts as a vector quantizer: every frame is replaced by the
index of the component with the highest posterior, turning an utterance into
a token sequence over an N-symbol vocabulary.
"""

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import logsumexp

from .errors import FormatError, ValidationError
from .kmeans import kmeans_pp_indices

GMM_MAGIC = b"AGMM"
GMM_VERSION = 1
_GMM_HEADER = struct.Struct("<4sIII")

LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass
class GmmConfig:
    """EM settings for :func:`train_gmm`."""

    seed: int = 0
    max_iterations: int = 50
    tol: float = 1e-5
    var_floor_scale: float = 1e-3
    init_subsample: int = 200_000
    collapse_patience: int = 3


@dataclass
class GmmModel:
    n_components: int
    weights: np.ndarray = field(compare=False)
    means: np.ndarray = field(compare=False)
    variances: np.ndarray = field(compare=False)
    var_floor: np.ndarray | None = field(default=None, compare=False)
    loglik_history: list[float] = field(default_factory=list)
    n_iterations: int = 0

    @property
    def frame_dim(self) -> int:
        return self.means.shape[1]


def _log_joint(weights, means, variances, X) -> np.ndarray:
    """(frames, components) matrix of log w_n + log N(x | mu_n, diag var_n)."""
    # sum_d [log(2 pi var) + (x-mu)^2/var] expanded so the frame loop vectorizes
    inv = 1.0 / variances
    const = np.log(weights) - 0.5 * (
        means.shape[1] * LOG_2PI + np.sum(np.log(variances), axis=1)
    )
    quad = (
        (X * X) @ inv.T - 2.0 * (X @ (means * inv).T) + np.sum(means * means * inv, axis=1)
    )
    return const[None, :] - 0.5 * quad


def train_gmm(frames, n_components: int, config: GmmConfig | None = None) -> GmmModel:
    """Fit a diagonal-covariance mixture by EM.

    Initialization is k-means++ seeding on a subsample; variances are floored
    at ``var_floor_scale`` times the global per-dimension variance. The
    recorded log-likelihood trace is non-decreasing up to floating-point
    tolerance; training stops when the relative improvement drops below
    ``tol`` or after ``max_iterations``.
    """
    config = config or GmmConfig()
    X = np.asarray(frames, dtype=np.float64)
    if X.ndim != 2:
        raise ValidationError(f"frame collection must be 2-D, got shape {X.shape}")
    n, d = X.shape
    if n_components < 1:
        raise ValidationError(f"n_components must be >= 1, got {n_components}")
    if n < n_components:
        raise ValidationError(f"too few frames: {n} frames for {n_components} components")
    if not np.all(np.isfinite(X)):
        raise ValidationError("frame collection contains NaN or Inf")

    global_var = X.var(axis=0)
    if not np.any(global_var > 0):
        raise ValidationError("degenerate input: all frames are identical")
    floor = config.var_floor_scale * global_var
    floor[floor <= 0] = floor[floor > 0].min()

    rng = np.random.default_rng(config.seed)
    sub = X
    if n > config.init_subsample:
        sub = X[rng.choice(n, size=config.init_subsample, replace=False)]
    means = sub[kmeans_pp_indices(sub, n_components, rng)].copy()
    variances = np.tile(np.maximum(global_var, floor), (n_components, 1))
    weights = np.full(n_components, 1.0 / n_components)

    history: list[float] = []
    collapsed_runs = np.zeros(n_components, dtype=np.int64)
    iterations = 0
    for _ in range(config.max_iterations):
        lj = _log_joint(weights, means, variances, X)
        norm = logsumexp(lj, axis=1)
        history.append(float(norm.sum()))
        iterations += 1
        if len(history) >= 2:
            prev, cur = history[-2], history[-1]
            if (cur - prev) / max(abs(prev), 1.0) < config.tol:
                break
        resp = np.exp(lj - norm[:, None])
        nk = resp.sum(axis=0)
        nk = np.maximum(nk, 1e-300)
        weights = nk / n
        means = (resp.T @ X) / nk[:, None]
        ex2 = (resp.T @ (X * X)) / nk[:, None]
        variances = ex2 - means * means
        hit = variances < floor[None, :]
        variances = np.maximum(variances, floor[None, :])
        fully_collapsed = hit.all(axis=1)
        collapsed_runs = np.where(fully_collapsed, collapsed_runs + 1, 0)
        if np.any(collapsed_runs >= config.collapse_patience):
            bad = int(np.argmax(collapsed_runs))
            raise ValidationError(
                f"component {bad} collapsed below the variance floor for "
                f"{config.collapse_patience} consecutive iterations; "
                "input data is degenerate for this component count"
            )

    return GmmModel(
        n_components=n_components, weights=weights, means=means, variances=variances,
        var_floor=floor, loglik_history=history, n_iterations=iterations,
    )


def gmm_posteriors(model: GmmModel, frame) -> np.ndarray:
    """Per-component posterior for one frame, computed in log-space."""
    x = np.asarray(frame, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != model.frame_dim:
        raise ValidationError(
            f"frame has shape {x.shape}, model expects dimension {model.frame_dim}"
        )
    lj = _log_joint(model.weights, model.means, model.variances, x[None, :])[0]
    return np.exp(lj - logsumexp(lj))


def quantize(model: GmmModel, matrix) -> np.ndarray:
    """Token per frame: the highest-posterior component, ties to lowest index."""
    X = np.asarray(matrix, dtype=np.float64)
    if X.ndim != 2 or (X.shape[0] > 0 and X.shape[1] != model.frame_dim):
        raise ValidationError(
            f"feature matrix shape {X.shape} does not match model dimension "
            f"{model.frame_dim}"
        )
    if X.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    return np.argmax(_log_joint(model.weights, model.means, model.variances, X), axis=1)


# ---------------------------------------------------------------------------
# Serialization


def save_gmm(model: GmmModel, path) -> None:
    n, d = model.n_components, model.frame_dim
    with open(path, "wb") as fh:
        fh.write(_GMM_HEADER.pack(GMM_MAGIC, GMM_VERSION, n, d))
        fh.write(np.ascontiguousarray(model.weights, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(model.means, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(model.variances, dtype="<f8").tobytes())


def load_gmm(path) -> GmmModel:
    data = Path(path).read_bytes()
    if len(data) < _GMM_HEADER.size:
        raise FormatError(f"{path}: truncated mixture model header")
    magic, version, n, d = _GMM_HEADER.unpack_from(data)
    if magic != GMM_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}, expected {GMM_MAGIC!r}")
    if version != GMM_VERSION:
        raise FormatError(f"{path}: unsupported mixture model version {version}")
    if n < 1 or d < 1:
        raise FormatError(f"{path}: invalid dimensions {n}x{d}")
    expected = _GMM_HEADER.size + 8 * (n + 2 * n * d)
    if len(data) != expected:
        raise FormatError(
            f"{path}: expected {expected} bytes, got {len(data)}"
        )
    off = _GMM_HEADER.size
    weights = np.frombuffer(data, dtype="<f8", count=n, offset=off).copy()
    off += 8 * n
    means = np.frombuffer(data, dtype="<f8", count=n * d, offset=off).reshape(n, d).copy()
    off += 8 * n * d
    variances = np.frombuffer(data, dtype="<f8", count=n * d, offset=off).reshape(n, d).copy()
    if not (
        np.all(np.isfinite(weights)) and np.all(np.isfinite(means))
        and np.all(np.isfinite(variances))
    ):
        raise FormatError(f"{path}: model parameters contain NaN or Inf")
    if np.any(weights <= 0) or abs(weights.sum() - 1.0) > 1e-9:
        raise FormatError(f"{path}: mixture weights must be positive and sum to 1")
    if np.any(variances <= 0):
        raise FormatError(f"{path}: variances must be positive")
    return GmmModel(n_components=n, weights=weights, means=means, variances=variances)


# ---------------------------------------------------------------------------
# Quantized-corpus text format


def write_quantized(ids, token_docs, path) -> None:
    """One tab-separated line per document: id, then space-joined tokens."""
    with open(path, "w", encoding="utf-8") as fh:
        for utt_id, tokens in zip(ids, token_docs):
            fh.write(utt_id + "\t" + " ".join(map(str, np.asarray(tokens).tolist())) + "\n")


def read_quantized(path) -> tuple[list[str], list[list[int]]]:
    """Document ids and token sequences, in file order."""
    ids, docs = [], []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            fields = line.split("\t")
            if len(fields) > 2 or not fields[0]:
                raise FormatError(f"{path}:{lineno}: malformed quantized-corpus line")
            toks = fields[1].split() if len(fields) == 2 else []
            try:
                tokens = [int(t) for t in toks]
            except ValueError:
                raise FormatError(f"{path}:{lineno}: non-integer token") from None
            if any(t < 0 for t in tokens):
                raise FormatError(f"{path}:{lineno}: negative token")
            ids.append(fields[0])
            docs.append(tokens)
    return ids, docs
