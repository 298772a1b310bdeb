"""Independent reference implementations used as oracles by the test suite.

Everything here is deliberately written in plain Python (math / mpmath, no
numpy, no package internals) so results come from a second, unoptimized code
path.
"""

import math

import mpmath

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
