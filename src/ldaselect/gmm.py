"""Diagonal-covariance Gaussian mixtures mapping frames to discrete tokens.

A trained mixture acts as a vector quantizer: every frame is replaced by the
index of the component with the highest posterior, turning an utterance into
a token sequence over an N-symbol vocabulary.
"""

import struct
from dataclasses import dataclass, field

import numpy as np

from . import container
from .corpus import read_file
from .errors import FormatError, ValidationError, validate_count, validate_seed
from .kmeans import kmeans_pp_indices

GMM_MAGIC = b"AGMM"
GMM_VERSION = 1
_GMM_HEADER = struct.Struct("<4sIII")

LOG_2PI = float(np.log(2.0 * np.pi))

# Components x frame-column cells per block of _log_joint_blocks, the one
# loop that EM and quantize share. Each block's float64 log-joint takes
# 512 KB in one reused buffer, with its frame rows (and in the E-step their
# scaled copy) in reused (2d+1) x columns float64 buffers, however many
# frames EM trains on or a matrix holds.
_BLOCK_CELLS = 1 << 16

# Frames per component that k-means++ seeds on: the old 200K sample's ratio at
# N=1024 (now 204,800), so seeding's cost follows N, not the training frames.
_SEED_FRAMES_PER_COMPONENT = 200

# Consecutive iterations a component may sit below the variance floor in
# every dimension before training is abandoned as degenerate.
_COLLAPSE_PATIENCE = 3

# Relative log-likelihood gain that stops EM; variance floor / global variance.
_TOL = 1e-5
_VAR_FLOOR_SCALE = 1e-3


@dataclass
class GmmConfig:
    """EM settings for :func:`train_gmm`."""

    seed: int = 0
    max_iterations: int = 50


def validate_gmm_config(config: GmmConfig) -> None:
    """Range-check the EM settings, as :func:`train_gmm` needs them."""
    validate_seed(config.seed)
    validate_count(config.max_iterations, "max_iterations")


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


def _frame_rows(frames: np.ndarray, shift: np.ndarray, out: np.ndarray) -> np.ndarray:
    """(2d+1, n) float64 rows of an (n, d) frame matrix less ``shift``: y^2,
    then y = x - shift, then a row of ones, written into the first n columns
    of ``out``. Float32 frames are cast exactly before the shift is taken
    off."""
    n, d = frames.shape
    Z = out[:, :n]
    y = Z[d:2 * d]
    y[...] = frames.T
    y -= shift[:, None]
    np.multiply(y, y, out=Z[:d])
    Z[2 * d] = 1.0
    return Z


def _coefficients(weights, means, variances, shift) -> np.ndarray:
    """(components, 2d+1) rows ``[-1/(2 var), m/var, c]`` that take the frame
    rows of :func:`_frame_rows` to log w_n + log N(x | mu_n, diag var_n): the
    quadratic sum_d [log(2 pi var) + (y-m)^2/var] expanded in y^2, y and 1,
    with y = x - shift and m = mu - shift. With ``shift`` near the frames the
    expanded terms stay small; about the origin they would cancel, losing
    about mu^2/var units of roundoff."""
    m = means - shift
    inv = 1.0 / variances
    const = np.log(weights) - 0.5 * (
        means.shape[1] * LOG_2PI + np.sum(np.log(variances), axis=1)
        + np.sum(m * m * inv, axis=1)
    )
    return np.hstack([-0.5 * inv, m * inv, const[:, None]])


def _block_frames(n_components: int) -> int:
    """Frames per block of ``_BLOCK_CELLS`` log-joint cells, at least one."""
    return max(1, _BLOCK_CELLS // n_components)


def _log_joint_blocks(frames, shift, n_components: int):
    """The log-joint of the (n, d) ``frames``, one block of
    :func:`_block_frames` frames at a time: a function from a mixture's
    :func:`_coefficients` about ``shift`` to an iterator over the blocks,
    yielding each block's first frame index, its :func:`_frame_rows` and its
    (components, frames) log-joint. The rows and the log-joint are built
    into two buffers allocated here, once, so each block overwrites the last:
    made afresh for every block, arrays that size can be mapped and unmapped
    by malloc each time, page-faulting on every use."""
    n, d = frames.shape
    cols = _block_frames(n_components)
    width = min(cols, n)
    rows, lj = np.empty((2 * d + 1, width)), np.empty(n_components * width)

    def blocks(coef):
        for start in range(0, n, cols):
            zb = _frame_rows(frames[start:start + cols], shift, rows)
            m = zb.shape[1]
            yield start, zb, np.matmul(coef, zb, out=lj[:n_components * m].reshape(-1, m))

    return blocks


def _e_step(frames, shift, n_components: int):
    """The E-step over the (n, d) ``frames``: a function from a mixture's
    :func:`_coefficients` about ``shift`` to the log-likelihood and the
    statistics ``[sum_t r_tn y_t^2, sum_t r_tn y_t, sum_t r_tn]`` of
    y = x - shift, as one (components, 2d+1) matrix, summed over the blocks
    of :func:`_log_joint_blocks`. Its buffers, and the one for each block's
    rows scaled by their frames' likelihoods, are allocated once per fit."""
    n, d = frames.shape
    blocks = _log_joint_blocks(frames, shift, n_components)
    scaled_buf = np.empty((2 * d + 1) * min(_block_frames(n_components), n))
    part = np.empty((n_components, 2 * d + 1))

    def accumulate(coef):
        stats = np.zeros_like(part)
        loglik = 0.0
        for _, zb, resp in blocks(coef):
            top = resp.max(axis=0)
            resp -= top
            np.exp(resp, out=resp)
            total = resp.sum(axis=0)
            loglik += float(top.sum() + np.log(total).sum())
            scaled = np.divide(zb, total, out=scaled_buf[:zb.size].reshape(zb.shape))
            stats += np.matmul(resp, scaled.T, out=part)
        return loglik, stats

    return accumulate


def _column_moments(frames) -> tuple[np.ndarray, np.ndarray]:
    """Float64 mean and variance of each frame column, cast one column at a
    time; no cast column outlives the call."""
    d = frames.shape[1]
    mean, var = np.zeros(d), np.zeros(d)
    for j in range(d):
        col = frames[:, j].astype(np.float64)
        mean[j], var[j] = col.mean(), col.var()
    return mean, var


def _seed_means(frames, n_components: int, rng) -> np.ndarray:
    """Float64 k-means++ seed rows of ``frames``, drawn from a uniform
    subsample of ``_SEED_FRAMES_PER_COMPONENT`` rows per component when there
    are more frames, gathered dim-major one column at a time: ``frames[idx]``
    would come out row-major, and seeding would copy it again."""
    n, d = frames.shape
    sub, rows = frames, _SEED_FRAMES_PER_COMPONENT * n_components
    if n > rows:
        idx = rng.choice(n, size=rows, replace=False)
        sub = np.empty((idx.size, d), dtype=frames.dtype, order="F")
        for j in range(d):
            sub[:, j] = frames[idx, j]
    return sub[kmeans_pp_indices(sub, n_components, rng)].astype(np.float64)


def train_gmm(frames, n_components: int, config: GmmConfig | None = None) -> GmmModel:
    """Fit a diagonal-covariance mixture by EM.

    Initialization is k-means++ seeding on a subsample; variances are floored
    at ``_VAR_FLOOR_SCALE`` times the global per-dimension variance. The
    recorded log-likelihood trace is non-decreasing up to floating-point
    tolerance; training stops when the relative improvement drops below
    ``_TOL`` (``converged``) or after ``max_iterations``.

    The frames are not copied: the E-step walks them in the blocks of
    :func:`_log_joint_blocks`, ``_BLOCK_CELLS // n_components`` frames
    each, which :func:`quantize` scores in too. It builds each block's (2d+1)
    float64 rows of :func:`_frame_rows` (y^2, y, ones, for y the frames less
    their global mean) into one reused buffer, and with components as rows
    and frames as columns takes one product for the block's log-joint and
    one more for all three statistics, each into a buffer of its own that
    is also allocated once per fit. Centred, the M-step's variance
    E[y^2] - E[y]^2 does not cancel away the precision that raw moments
    lose to the square of the frames' offset from the origin.
    Seeding reads the frames in their own dtype, casting exactly to float64
    where it computes, so float32 frames train the same model as their
    float64 cast, in either memory layout.

    Dim-major (Fortran-ordered) frames, as :func:`corpus.sample_frames`
    returns them, are read in place: the global variance casts one
    contiguous column at a time, each E-step block copies contiguous rows,
    and k-means++ seeding takes its columns without a copy. Seeding keeps
    three float64 vectors as long as its rows: every frame, or, when there
    are more, ``_SEED_FRAMES_PER_COMPONENT * n_components`` gathered once.
    Row-major frames train the same model, but seeding on all of them
    copies them transposed.
    """
    config = config or GmmConfig()
    validate_gmm_config(config)
    frames = np.asarray(frames)
    if frames.ndim != 2:
        raise ValidationError(f"frame collection must be 2-D, got shape {frames.shape}")
    n, d = frames.shape
    validate_count(n_components, "n_components")
    if n < n_components:
        raise ValidationError(f"too few frames: {n} frames for {n_components} components")
    if not np.all(np.isfinite(frames)):
        raise ValidationError("frame collection contains NaN or Inf")

    global_mean, global_var = _column_moments(frames)
    if not np.any(global_var > 0):
        raise ValidationError("degenerate input: all frames are identical")
    floor = _VAR_FLOOR_SCALE * global_var
    floor[floor <= 0] = floor[floor > 0].min()

    rng = np.random.default_rng(config.seed)
    means = _seed_means(frames, n_components, rng)
    variances = np.tile(np.maximum(global_var, floor), (n_components, 1))
    weights = np.full(n_components, 1.0 / n_components)

    e_step = _e_step(frames, global_mean, n_components)
    history: list[float] = []
    collapsed_runs = np.zeros(n_components, dtype=np.int64)
    converged = False
    for _ in range(config.max_iterations):
        loglik, stats = e_step(_coefficients(weights, means, variances, global_mean))
        history.append(loglik)
        if len(history) >= 2:
            prev, cur = history[-2], history[-1]
            if (cur - prev) / max(abs(prev), 1.0) < _TOL:
                converged = True
                break
        nk = np.maximum(stats[:, 2 * d], 1e-300)
        weights = nk / n
        centred = stats[:, d:2 * d] / nk[:, None]
        variances = stats[:, :d] / nk[:, None] - centred * centred
        means = centred + global_mean
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
        var_floor=floor, loglik_history=history, n_iterations=len(history),
        converged=converged,
    )


def quantize(model: GmmModel, matrix) -> np.ndarray:
    """Token per frame: the highest-posterior component, ties to lowest index.

    The log-joint is taken about the mixture mean sum_n w_n mu_n, from the
    model's arrays as they are at the call, and scored in the E-step's
    blocks of :func:`_log_joint_blocks`, so working memory does not grow
    with the matrix; its two buffers are allocated once per call."""
    X = np.asarray(matrix)
    if X.ndim != 2 or (X.shape[0] > 0 and X.shape[1] != model.frame_dim):
        raise ValidationError(
            f"feature matrix shape {X.shape} does not match model dimension "
            f"{model.frame_dim}"
        )
    if not np.all(np.isfinite(X)):
        raise ValidationError("feature matrix contains NaN or Inf")
    shift = model.weights @ model.means
    coef = _coefficients(model.weights, model.means, model.variances, shift)
    tokens = np.empty(X.shape[0], dtype=np.int64)
    for start, _, lj in _log_joint_blocks(X, shift, model.n_components)(coef):
        tokens[start:start + lj.shape[1]] = np.argmax(lj, axis=0)
    return tokens


# ---------------------------------------------------------------------------
# Serialization


def save_gmm(model: GmmModel, path) -> None:
    n, d = model.n_components, model.frame_dim
    container.write(
        path, _GMM_HEADER, (GMM_MAGIC, GMM_VERSION, n, d),
        [np.asarray(a, dtype="<f8") for a in (model.weights, model.means, model.variances)],
    )


def load_gmm(path) -> GmmModel:
    data = read_file(path)
    n, d = container.read(data, path, _GMM_HEADER, GMM_MAGIC, GMM_VERSION, "mixture model")
    if n < 1 or d < 1:
        raise FormatError(f"{path}: invalid dimensions {n}x{d}")
    weights, means, variances = (a.copy() for a in container.arrays(
        data, path, _GMM_HEADER, ("<f8", n), ("<f8", n * d), ("<f8", n * d)
    ))
    means, variances = means.reshape(n, d), variances.reshape(n, d)
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
