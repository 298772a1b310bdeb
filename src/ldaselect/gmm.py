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

# Components x frame-column cells per E-step block. Each block's float64
# log-joint takes 512 KB, and its frame rows one reused (2d+1) x columns
# float64 buffer, however many frames EM trains on.
_BLOCK_CELLS = 1 << 16

# Consecutive iterations a component may sit below the variance floor in
# every dimension before training is abandoned as degenerate.
_COLLAPSE_PATIENCE = 3


@dataclass
class GmmConfig:
    """EM settings for :func:`train_gmm`."""

    seed: int = 0
    max_iterations: int = 50
    tol: float = 1e-5
    var_floor_scale: float = 1e-3
    init_subsample: int = 200_000


@dataclass
class GmmModel:
    n_components: int
    weights: np.ndarray = field(compare=False)
    means: np.ndarray = field(compare=False)
    variances: np.ndarray = field(compare=False)
    var_floor: np.ndarray | None = field(default=None, compare=False)
    loglik_history: list[float] = field(default_factory=list)
    n_iterations: int = 0
    converged: bool = False

    @property
    def frame_dim(self) -> int:
        return self.means.shape[1]


def _frame_rows(frames: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """(2d+1, n) float64 rows of an (n, d) frame matrix: x^2, then x, then a
    row of ones, written into the first n columns of ``out`` when given.
    Float32 frames are cast exactly."""
    n, d = frames.shape
    Z = np.empty((2 * d + 1, n)) if out is None else out[:, :n]
    x = Z[d:2 * d]
    x[...] = frames.T
    np.multiply(x, x, out=Z[:d])
    Z[2 * d] = 1.0
    return Z


def _coefficients(weights, means, variances) -> np.ndarray:
    """(components, 2d+1) rows ``[-1/(2 var), mu/var, c]`` that take the frame
    rows of :func:`_frame_rows` to log w_n + log N(x | mu_n, diag var_n): the
    quadratic sum_d [log(2 pi var) + (x-mu)^2/var] expanded in x^2, x and 1."""
    inv = 1.0 / variances
    const = np.log(weights) - 0.5 * (
        means.shape[1] * LOG_2PI + np.sum(np.log(variances), axis=1)
        + np.sum(means * means * inv, axis=1)
    )
    return np.hstack([-0.5 * inv, means * inv, const[:, None]])


def _model_coefficients(model: GmmModel) -> np.ndarray:
    """:func:`_coefficients` of ``model``, kept on the model with the arrays
    it was computed from: assigning new weights, means or variances recomputes
    it (an edit made in place to one of those arrays is not seen)."""
    params = (model.weights, model.means, model.variances)
    cached = getattr(model, "_coef", None)
    if cached is None or any(a is not b for a, b in zip(cached[0], params)):
        cached = model._coef = (params, _coefficients(*params))
    return cached[1]


def _log_joint(weights, means, variances, Z) -> np.ndarray:
    """(components, frames) log-joint of the frame rows ``Z``."""
    return _coefficients(weights, means, variances) @ Z


def _accumulate_stats(coef, frames, cols):
    """Log-likelihood of the (n, d) ``frames`` under the mixture ``coef`` and
    the statistics ``[sum_t r_tn x_t^2, sum_t r_tn x_t, sum_t r_tn]`` as one
    (components, 2d+1) matrix, accumulated over blocks of ``cols`` frames.
    Each block's :func:`_frame_rows` are built into one reused buffer."""
    n, d = frames.shape
    rows = np.empty((2 * d + 1, min(cols, n)))
    stats = np.zeros((coef.shape[0], rows.shape[0]))
    loglik = 0.0
    for start in range(0, n, cols):
        zb = _frame_rows(frames[start:start + cols], rows)
        resp = coef @ zb
        top = resp.max(axis=0)
        resp -= top
        np.exp(resp, out=resp)
        total = resp.sum(axis=0)
        loglik += float(top.sum() + np.log(total).sum())
        stats += resp @ (zb / total).T
    return loglik, stats


def train_gmm(frames, n_components: int, config: GmmConfig | None = None) -> GmmModel:
    """Fit a diagonal-covariance mixture by EM.

    Initialization is k-means++ seeding on a subsample; variances are floored
    at ``var_floor_scale`` times the global per-dimension variance. The
    recorded log-likelihood trace is non-decreasing up to floating-point
    tolerance; training stops when the relative improvement drops below
    ``tol`` (``converged``) or after ``max_iterations``.

    The frames are not copied: the E-step walks them in blocks of
    ``_BLOCK_CELLS // n_components`` frames, builds each block's (2d+1)
    float64 rows of :func:`_frame_rows` (x^2, x, ones) into one reused
    buffer, and with components as rows and frames as columns takes one
    product for the block's log-joint and one more for all three statistics.
    Seeding reads the frames in their own dtype, casting exactly to float64
    where it computes, so float32 frames train the same model as their
    float64 cast. Beyond the frames, only seeding grows with their number:
    k-means++ copies at most ``init_subsample`` rows in the frames' dtype and
    keeps two float64 distance vectors that long, and the global variance
    casts one column at a time.
    """
    config = config or GmmConfig()
    frames = np.asarray(frames)
    if frames.ndim != 2:
        raise ValidationError(f"frame collection must be 2-D, got shape {frames.shape}")
    n, d = frames.shape
    if n_components < 1:
        raise ValidationError(f"n_components must be >= 1, got {n_components}")
    if n < n_components:
        raise ValidationError(f"too few frames: {n} frames for {n_components} components")
    if not np.all(np.isfinite(frames)):
        raise ValidationError("frame collection contains NaN or Inf")

    global_var = np.array([frames[:, j].astype(np.float64).var() for j in range(d)])
    if not np.any(global_var > 0):
        raise ValidationError("degenerate input: all frames are identical")
    floor = config.var_floor_scale * global_var
    floor[floor <= 0] = floor[floor > 0].min()

    rng = np.random.default_rng(config.seed)
    sub = frames
    if n > config.init_subsample:
        sub = frames[rng.choice(n, size=config.init_subsample, replace=False)]
    means = sub[kmeans_pp_indices(sub, n_components, rng)].astype(np.float64)
    variances = np.tile(np.maximum(global_var, floor), (n_components, 1))
    weights = np.full(n_components, 1.0 / n_components)

    cols = max(1, _BLOCK_CELLS // n_components)
    history: list[float] = []
    collapsed_runs = np.zeros(n_components, dtype=np.int64)
    iterations = 0
    converged = False
    for _ in range(config.max_iterations):
        loglik, stats = _accumulate_stats(
            _coefficients(weights, means, variances), frames, cols
        )
        history.append(loglik)
        iterations += 1
        if len(history) >= 2:
            prev, cur = history[-2], history[-1]
            if (cur - prev) / max(abs(prev), 1.0) < config.tol:
                converged = True
                break
        nk = np.maximum(stats[:, 2 * d], 1e-300)
        weights = nk / n
        means = stats[:, d:2 * d] / nk[:, None]
        ex2 = stats[:, :d] / nk[:, None]
        variances = ex2 - means * means
        hit = variances < floor[None, :]
        variances = np.maximum(variances, floor[None, :])
        fully_collapsed = hit.all(axis=1)
        collapsed_runs = np.where(fully_collapsed, collapsed_runs + 1, 0)
        if np.any(collapsed_runs >= _COLLAPSE_PATIENCE):
            bad = int(np.argmax(collapsed_runs))
            raise ValidationError(
                f"component {bad} collapsed below the variance floor for "
                f"{_COLLAPSE_PATIENCE} consecutive iterations; "
                "input data is degenerate for this component count"
            )

    return GmmModel(
        n_components=n_components, weights=weights, means=means, variances=variances,
        var_floor=floor, loglik_history=history, n_iterations=iterations,
        converged=converged,
    )


def gmm_posteriors(model: GmmModel, frame) -> np.ndarray:
    """Per-component posterior for one frame, computed in log-space."""
    x = np.asarray(frame)
    if x.ndim != 1 or x.shape[0] != model.frame_dim:
        raise ValidationError(
            f"frame has shape {x.shape}, model expects dimension {model.frame_dim}"
        )
    Z = _frame_rows(x[None, :])
    lj = _log_joint(model.weights, model.means, model.variances, Z)[:, 0]
    return np.exp(lj - logsumexp(lj))


def quantize(model: GmmModel, matrix) -> np.ndarray:
    """Token per frame: the highest-posterior component, ties to lowest index."""
    X = np.asarray(matrix)
    if X.ndim != 2 or (X.shape[0] > 0 and X.shape[1] != model.frame_dim):
        raise ValidationError(
            f"feature matrix shape {X.shape} does not match model dimension "
            f"{model.frame_dim}"
        )
    if X.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    return np.argmax(_model_coefficients(model) @ _frame_rows(X), axis=0)


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
