"""K-means clustering with deterministic, input-order-independent results.

Rows are internally sorted by a content hash before seeding and iteration, so
permuting the input rows permutes the returned assignments identically but
leaves the centroids unchanged.
"""

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError


@dataclass
class KMeansModel:
    centroids: np.ndarray = field(compare=False)
    assignments: np.ndarray = field(compare=False)
    inertia_history: list[float] = field(default_factory=list)
    n_iterations: int = 0


def _row_hash_order(X: np.ndarray) -> np.ndarray:
    """Indices that sort rows by (blake2b digest of bytes, original index)."""
    digests = [
        hashlib.blake2b(np.ascontiguousarray(row, dtype="<f8").tobytes(), digest_size=16).digest()
        for row in X
    ]
    return np.asarray(
        sorted(range(X.shape[0]), key=lambda i: (digests[i], i)), dtype=np.int64
    )


def _sq_dists(columns: np.ndarray, row: int, out: np.ndarray, diff: np.ndarray) -> np.ndarray:
    """Squared distances from row ``row`` to every row, summed one feature
    column of ``columns`` (the transposed rows) at a time into ``out``."""
    out.fill(0.0)
    for col in columns:
        np.subtract(col, col[row], out=diff)
        np.multiply(diff, diff, out=diff)
        out += diff
    return out


def kmeans_pp_indices(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """K-means++ seed rows: first uniform, then D^2-weighted draws.

    Returns indices into ``X``. When every remaining distance is zero the
    next seed falls back to a uniform draw.
    """
    n = X.shape[0]
    if k > n:
        raise ValidationError(f"cannot seed {k} centroids from {n} rows")
    columns = np.ascontiguousarray(X.T)
    dist = np.empty(n)
    diff = np.empty(n)
    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = int(rng.integers(n))
    d2 = _sq_dists(columns, chosen[0], dist, diff).copy()
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            chosen[j] = int(rng.integers(n))
        else:
            # rng.choice(n, p=d2 / total) as numpy computes it, without its
            # O(n) checks of p: the same index and the same generator state.
            cdf = np.cumsum(np.divide(d2, total, out=diff), out=diff)
            cdf /= cdf[-1]
            chosen[j] = int(cdf.searchsorted(rng.random(), side="right"))
        np.minimum(d2, _sq_dists(columns, chosen[j], dist, diff), out=d2)
    return chosen


def _assign(X: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-centroid labels and squared distances, ties to the lowest index."""
    x2 = np.sum(X * X, axis=1)[:, None]
    c2 = np.sum(centroids * centroids, axis=1)[None, :]
    d2 = x2 + c2 - 2.0 * (X @ centroids.T)
    np.maximum(d2, 0.0, out=d2)
    labels = np.argmin(d2, axis=1)
    return labels, d2[np.arange(X.shape[0]), labels]


def train_kmeans(
    X,
    k: int,
    seed: int = 0,
    max_iterations: int = 100,
    tol: float = 1e-6,
    normalize_centroids: bool = False,
) -> KMeansModel:
    """Lloyd's algorithm from a k-means++ start.

    Inertia is non-increasing across iterations; iteration stops when the
    relative inertia improvement falls below ``tol`` or assignments stop
    changing. Empty clusters are reseeded deterministically with the member
    of the largest cluster farthest from its centroid.

    With ``normalize_centroids`` every centroid is rescaled to unit norm
    after each update; on unit-norm input rows this is the cosine-similarity
    variant, and inertia stays non-increasing.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValidationError(f"k-means input must be 2-D, got shape {X.shape}")
    n = X.shape[0]
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if k > n:
        raise ValidationError(f"cannot fit {k} clusters to {n} rows")
    if not np.all(np.isfinite(X)):
        raise ValidationError("k-means input contains NaN or Inf")

    order = _row_hash_order(X)
    Xs = X[order]
    rng = np.random.default_rng(seed)
    centroids = Xs[kmeans_pp_indices(Xs, k, rng)].copy()

    labels = np.full(n, -1, dtype=np.int64)
    history: list[float] = []
    iterations = 0
    for _ in range(max_iterations):
        new_labels, d2 = _assign(Xs, centroids)
        new_labels = _fix_empty_clusters(Xs, centroids, new_labels, d2, k)
        iterations += 1
        inertia = float(np.sum(d2))
        history.append(inertia)
        converged = bool(np.array_equal(new_labels, labels))
        if history[:-1] and history[-2] > 0:
            converged = converged or (history[-2] - inertia) / history[-2] < tol
        labels = new_labels
        for j in range(k):
            member = labels == j
            centroids[j] = Xs[member].mean(axis=0)
        if normalize_centroids:
            norms = np.linalg.norm(centroids, axis=1, keepdims=True)
            centroids = np.where(norms > 0, centroids / np.maximum(norms, 1e-300), centroids)
        if converged:
            break

    out = np.empty(n, dtype=np.int64)
    out[order] = labels
    return KMeansModel(
        centroids=centroids, assignments=out, inertia_history=history,
        n_iterations=iterations,
    )


def _fix_empty_clusters(Xs, centroids, labels, d2, k) -> np.ndarray:
    """Move the farthest member of the largest cluster into each empty one."""
    counts = np.bincount(labels, minlength=k)
    for j in np.flatnonzero(counts == 0):
        donor = int(np.argmax(counts))
        members = np.flatnonzero(labels == donor)
        far = members[int(np.argmax(d2[members]))]
        labels[far] = j
        centroids[j] = Xs[far]
        d2[far] = 0.0
        counts[donor] -= 1
        counts[j] += 1
    return labels
