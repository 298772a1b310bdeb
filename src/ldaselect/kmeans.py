"""K-means clustering with deterministic results.

Seeds are drawn by row position, so the same rows in the same order and the
same seed give the same centroids: a caller whose result must not depend on
how its rows arrived fixes their order itself.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, validate_count, validate_seed

# Lloyd's iteration stops after _MAX_ITERATIONS, or once an iteration improves
# the inertia by less than the fraction _TOL.
_TOL = 1e-6
_MAX_ITERATIONS = 100


@dataclass
class KMeansModel:
    centroids: np.ndarray = field(compare=False)
    assignments: np.ndarray = field(compare=False)
    inertia_history: list[float] = field(default_factory=list)
    n_iterations: int = 0


def _sq_dists(columns: np.ndarray, row: int, out: np.ndarray, diff: np.ndarray) -> np.ndarray:
    """Squared distances from row ``row`` to every row, summed one feature
    column of ``columns`` (the transposed rows) at a time into ``out``, in
    float64 whatever the columns' dtype. The first column's squares are
    written straight into ``out``: every term is >= 0, so this is exactly
    adding them to zeros. Columns of another dtype are cast exactly into the
    float64 scratch and then subtracted in place, because numpy's casting
    subtraction buffers and costs more than the copy; float64 columns are
    subtracted directly, since for them the copy costs more than it saves."""
    if len(columns) == 0:
        out.fill(0.0)
        return out
    cast = columns.dtype != np.float64
    for j, col in enumerate(columns):
        d = diff if j else out
        if cast:
            d[...] = col
            d -= col[row]
        else:
            np.subtract(col, col[row], out=d)
        np.multiply(d, d, out=d)
        if j:
            out += d
    return out


def kmeans_pp_indices(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """K-means++ seed rows: first uniform, then D^2-weighted draws.

    Returns indices into ``X``. When every remaining distance is zero the
    next seed falls back to a uniform draw. ``X`` is read in its own dtype
    and each value cast exactly to float64, so float32 rows give the same
    seeds as their float64 cast. Distances are summed one feature column at
    a time: a dim-major (Fortran-ordered) ``X`` is read in place, any other
    layout is first copied transposed. Beyond that, seeding keeps three
    float64 vectors as long as ``X``.
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


def train_kmeans(X, k: int, seed: int = 0) -> KMeansModel:
    """Lloyd's algorithm from a k-means++ start.

    Inertia is non-increasing across iterations; iteration stops after
    ``_MAX_ITERATIONS``, on a relative inertia gain below ``_TOL`` or when
    assignments stop changing. Empty clusters are reseeded deterministically
    with the member of the largest cluster farthest from its centroid.

    The k-means++ seeds are drawn by position in ``X`` as given: permuting
    the rows can change the result, so callers fix the row order.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValidationError(f"k-means input must be 2-D, got shape {X.shape}")
    n = X.shape[0]
    validate_count(k, "k")
    if k > n:
        raise ValidationError(f"cannot fit {k} clusters to {n} rows")
    validate_seed(seed)
    if not np.all(np.isfinite(X)):
        raise ValidationError("k-means input contains NaN or Inf")

    rng = np.random.default_rng(seed)
    centroids = X[kmeans_pp_indices(X, k, rng)]

    labels = np.full(n, -1, dtype=np.int64)
    history: list[float] = []
    iterations = 0
    for _ in range(_MAX_ITERATIONS):
        new_labels, d2 = _assign(X, centroids)
        new_labels = _fix_empty_clusters(X, centroids, new_labels, d2, k)
        iterations += 1
        inertia = float(np.sum(d2))
        history.append(inertia)
        converged = bool(np.array_equal(new_labels, labels))
        if history[:-1] and history[-2] > 0:
            converged = converged or (history[-2] - inertia) / history[-2] < _TOL
        labels = new_labels
        for j in range(k):
            member = labels == j
            centroids[j] = X[member].mean(axis=0)
        if converged:
            break

    return KMeansModel(
        centroids=centroids, assignments=labels, inertia_history=history,
        n_iterations=iterations,
    )


def _fix_empty_clusters(X, centroids, labels, d2, k) -> np.ndarray:
    """Move the farthest member of the largest cluster into each empty one."""
    counts = np.bincount(labels, minlength=k)
    for j in np.flatnonzero(counts == 0):
        donor = int(np.argmax(counts))
        members = np.flatnonzero(labels == donor)
        far = members[int(np.argmax(d2[members]))]
        labels[far] = j
        centroids[j] = X[far]
        d2[far] = 0.0
        counts[donor] -= 1
        counts[j] += 1
    return labels
