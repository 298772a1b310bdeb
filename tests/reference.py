"""Independent reference implementations used as oracles by the test suite.

Everything here uses no package internals, so results come from a second,
unoptimized code path. Most oracles are plain Python (math / mpmath); the
mixture-training oracles are whole-array numpy transcriptions of the
full-batch code that the blocked kernels replaced.
"""

import math

import mpmath
import numpy as np
from scipy.special import logsumexp

mpmath.mp.dps = 40


def ref_digamma(x: float) -> float:
    return float(mpmath.digamma(x))


def ref_elbo(alpha, gamma, phi, entries, log_beta) -> float:
    """Variational bound, term by term.

    ``entries`` is the document's (term, count, weight) list aligned with the
    rows of ``phi``; ``log_beta`` is the full K x V table as nested lists.
    """
    k = len(alpha)
    dg_sum = ref_digamma(sum(gamma))
    elog = [ref_digamma(g) - dg_sum for g in gamma]

    def log_gamma_sum(vec):
        return math.lgamma(sum(vec)) - sum(math.lgamma(v) for v in vec)

    bound = log_gamma_sum(alpha) + sum((alpha[i] - 1.0) * elog[i] for i in range(k))
    bound -= log_gamma_sum(gamma) + sum((gamma[i] - 1.0) * elog[i] for i in range(k))
    for row, (term, _count, weight) in zip(phi, entries):
        for i in range(k):
            bound += weight * row[i] * (elog[i] + log_beta[i][term] - math.log(row[i]))
    return bound


def ref_cosine_distance(a, b) -> float:
    dot = sum(x * y for x, y in zip(a, b))
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(y * y for y in b))
    return 1.0 - dot / (na * nb)


def ref_select(gammas, durations_s, centroids, lam, max_hours=None):
    """Step-by-step transcription of the greedy pass algorithm.

    ``gammas`` maps utterance id to vector; passes visit centroids in list
    order; each centroid takes the remaining utterance with the smallest
    distance (ties to the smaller id) when that distance is below ``lam``.
    Returns (selected entries, passes, total_hours).
    """
    pool = set(gammas)
    selected = []
    passes = 0
    total = 0.0
    while pool:
        passes += 1
        count = 0
        for ci, cent in enumerate(centroids):
            if not pool:
                break
            best_d, best_id = None, None
            for uid in sorted(pool):
                d = ref_cosine_distance(cent, gammas[uid])
                if best_d is None or d < best_d:
                    best_d, best_id = d, uid
            if best_d < lam:
                dur_h = durations_s[best_id] / 3600.0
                if max_hours is not None and total + dur_h > max_hours + 1e-9:
                    return selected, passes, total
                pool.remove(best_id)
                selected.append((best_id, ci, best_d, passes))
                total += dur_h
                count += 1
        if count == 0:
            break
    return selected, passes, total


def ref_doc_freq(docs, vocab_size):
    df = [0] * vocab_size
    for doc in docs:
        for term in set(doc):
            df[term] += 1
    return df


def ref_tfidf(docs, stats_docs, vocab_size):
    """tf-idf entries of each token list in ``docs``, one document at a time.

    Document frequencies and the document count come from ``stats_docs``.
    Per document: ``[(term, count, weight), ...]`` with terms ascending and
    weight = count / length * (log((1 + D) / (1 + df)) + 1).
    """
    df = ref_doc_freq(stats_docs, vocab_size)
    n_docs = len(stats_docs)
    out = []
    for doc in docs:
        counts: dict[int, int] = {}
        for term in doc:
            counts[term] = counts.get(term, 0) + 1
        out.append([
            (t, c, (c / len(doc)) * (math.log((1 + n_docs) / (1 + df[t])) + 1.0))
            for t, c in sorted(counts.items())
        ])
    return out


def ref_top_tokens(texts, cap):
    """Top-cap normalized tokens by (frequency desc, token asc)."""
    strip = ".,;:!?\"'()[]{}<>`"
    freq: dict[str, int] = {}
    for text in texts:
        for raw in text.lower().split():
            tok = raw.strip(strip)
            if tok:
                freq[tok] = freq.get(tok, 0) + 1
    ranked = sorted(freq, key=lambda t: (-freq[t], t))
    return ranked[:cap]


def ref_best_two_partition(points):
    """Exhaustive optimal 2-partition by total squared deviation.

    Returns a frozenset of two frozensets of point indices.
    """
    n = len(points)
    dim = len(points[0])
    best_cost, best_split = None, None
    for mask in range(1, 2 ** (n - 1)):  # fix point 0 in group A to halve the search
        a = [i for i in range(n) if not (mask >> i) & 1]
        b = [i for i in range(n) if (mask >> i) & 1]
        if not a or not b:
            continue
        cost = 0.0
        for group in (a, b):
            mean = [
                sum(points[i][d] for i in group) / len(group) for d in range(dim)
            ]
            cost += sum(
                (points[i][d] - mean[d]) ** 2 for i in group for d in range(dim)
            )
        if best_cost is None or cost < best_cost:
            best_cost, best_split = cost, frozenset(
                (frozenset(a), frozenset(b))
            )
    return best_split, best_cost


def best_topic_matching(true_beta, learned_beta):
    """Max over topic permutations of the minimum matched cosine similarity."""
    import itertools

    k = len(true_beta)

    def cos(u, v):
        dot = sum(x * y for x, y in zip(u, v))
        nu = math.sqrt(sum(x * x for x in u))
        nv = math.sqrt(sum(y * y for y in v))
        return dot / (nu * nv)

    best = -1.0
    for perm in itertools.permutations(range(k)):
        worst = min(cos(true_beta[i], learned_beta[perm[i]]) for i in range(k))
        best = max(best, worst)
    return best


def ref_kmeans_pp_indices(X, k, rng):
    """K-means++ seeding with whole-row distance reductions."""
    n = X.shape[0]
    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = int(rng.integers(n))
    d2 = np.sum((X - X[chosen[0]]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            chosen[j] = int(rng.integers(n))
        else:
            chosen[j] = int(rng.choice(n, p=d2 / total))
        d2 = np.minimum(d2, np.sum((X - X[chosen[j]]) ** 2, axis=1))
    return chosen


def ref_log_joint(weights, means, variances, X):
    """(components, frames) matrix of log w_n + log N(x_t | mu_n, diag var_n),
    one component, frame and dimension at a time."""
    X = np.asarray(X, dtype=np.float64)
    out = np.empty((len(weights), X.shape[0]))
    for n in range(len(weights)):
        for t in range(X.shape[0]):
            acc = math.log(float(weights[n]))
            for j in range(X.shape[1]):
                var = float(variances[n, j])
                diff = float(X[t, j]) - float(means[n, j])
                acc -= 0.5 * (math.log(2.0 * math.pi * var) + diff * diff / var)
            out[n, t] = acc
    return out


def ref_train_gmm(
    X, n_components, *, seed, max_iterations, tol, var_floor_scale, init_subsample,
    collapse_patience,
):
    """Full-batch diagonal-covariance EM over every frame at once.

    Returns ``(weights, means, variances, loglik_history, n_iterations)``;
    raises ``ValueError`` when a component collapses below the variance floor
    for ``collapse_patience`` consecutive iterations.
    """
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    global_var = X.var(axis=0)
    floor = var_floor_scale * global_var
    floor[floor <= 0] = floor[floor > 0].min()
    rng = np.random.default_rng(seed)
    sub = X
    if n > init_subsample:
        sub = X[rng.choice(n, size=init_subsample, replace=False)]
    means = sub[ref_kmeans_pp_indices(sub, n_components, rng)].copy()
    variances = np.tile(np.maximum(global_var, floor), (n_components, 1))
    weights = np.full(n_components, 1.0 / n_components)
    history = []
    collapsed_runs = np.zeros(n_components, dtype=np.int64)
    for _ in range(max_iterations):
        inv = 1.0 / variances
        const = np.log(weights) - 0.5 * (d * math.log(2.0 * math.pi) + np.log(variances).sum(1))
        quad = (X * X) @ inv.T - 2.0 * (X @ (means * inv).T) + (means * means * inv).sum(1)
        lj = const[None, :] - 0.5 * quad
        norm = logsumexp(lj, axis=1)
        history.append(float(norm.sum()))
        if len(history) >= 2 and (history[-1] - history[-2]) / max(abs(history[-2]), 1.0) < tol:
            break
        resp = np.exp(lj - norm[:, None])
        nk = np.maximum(resp.sum(axis=0), 1e-300)
        weights = nk / n
        means = (resp.T @ X) / nk[:, None]
        variances = (resp.T @ (X * X)) / nk[:, None] - means * means
        hit = variances < floor[None, :]
        variances = np.maximum(variances, floor[None, :])
        collapsed_runs = np.where(hit.all(axis=1), collapsed_runs + 1, 0)
        if np.any(collapsed_runs >= collapse_patience):
            raise ValueError("component collapsed below the variance floor")
    return weights, means, variances, history, len(history)
