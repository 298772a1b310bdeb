"""Threshold-gated greedy selection of pool utterances nearest to centroids.

Repeated passes visit every centroid in ascending centroid order. A centroid
claims the single remaining pool utterance with the smallest cosine distance,
provided that distance is below the threshold; claimed utterances leave the
pool immediately, so later centroids in the same pass see the reduced pool.
Passes repeat until one selects nothing or the pool empties. An optional hour
budget is a hard stop checked before each addition.

The pool is ranked once per centroid (:func:`rank_pool`); a selection then
walks each centroid's candidates below the threshold with a forward-only
pointer (:meth:`Ranking.select`), so thresholds can be swept over one ranking.
"""

import io
import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import Manifest, read_file, text_lines
from .errors import FormatError, ValidationError
from .lda import Posteriors


@dataclass
class SelectionConfig:
    """Threshold and budget for :func:`select`.

    ``threshold`` is the maximum admissible cosine distance, in (0, 1].
    """

    threshold: float = 0.2
    max_hours: float | None = None


@dataclass
class SelectedUtterance:
    utt_id: str
    centroid: str
    distance: float
    pass_index: int


@dataclass
class SelectionResult:
    selected: list[SelectedUtterance] = field(default_factory=list)
    total_hours: float = 0.0
    passes: int = 0
    # Why the greedy loop ended: "threshold" (a pass selected nothing),
    # "budget" or "pool" (pool exhausted). Not part of the audit file.
    stop_reason: str | None = field(default=None, compare=False)

    def ids(self) -> list[str]:
        return [s.utt_id for s in self.selected]


def centroid_id(index: int) -> str:
    return f"centroid_{index:04d}"


def cosine_distance(a, b) -> float:
    """1 minus the cosine of the angle between two vectors.

    Non-negative inputs land in [0, 1]; rounding is clamped away. Zero
    vectors have no direction and are rejected.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise ValidationError("cosine distance is undefined for a zero vector")
    d = 1.0 - float(np.dot(a, b)) / (na * nb)
    return min(max(d, 0.0), 2.0)


def _centroid_matrix(centroids) -> np.ndarray:
    mat = getattr(centroids, "centroids", centroids)
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] == 0:
        raise ValidationError(f"centroids must be a non-empty 2-D matrix, got {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ValidationError("centroids contain NaN or Inf")
    if np.any(np.linalg.norm(mat, axis=1) == 0.0):
        raise ValidationError("centroids must be nonzero vectors")
    return mat


def validate_selection_config(config: SelectionConfig) -> None:
    if not 0.0 < config.threshold <= 1.0:
        raise ValidationError(
            f"distance threshold must be in (0, 1], got {config.threshold}"
        )
    if config.max_hours is not None and not 0 < config.max_hours < math.inf:
        raise ValidationError(
            f"hour budget must be finite and positive, got {config.max_hours}"
        )


def select(
    pool_posteriors: Posteriors, pool_manifest: Manifest, centroids,
    config: SelectionConfig,
) -> SelectionResult:
    """Run the greedy pass loop over the pool.

    Ties for a centroid's nearest utterance break toward the smaller
    utterance id. The recorded pass index counts passes from 1.
    """
    validate_selection_config(config)
    return rank_pool(pool_posteriors, pool_manifest, centroids).select(config)


@dataclass
class Ranking:
    """Every pool utterance ranked for every centroid, threshold-free.

    Row ``c`` of ``order`` holds pool column indices nearest first, exact
    distance ties toward the smaller utterance id; the same row of ``dists``
    holds their distances, so it ascends. One ranking serves any number of
    thresholds and budgets.
    """

    ids: list[str]
    hours: list[float]
    order: np.ndarray
    dists: np.ndarray

    def select(self, config: SelectionConfig) -> SelectionResult:
        """The greedy pass loop of :func:`select` under ``config``.

        Each centroid's candidate list is its row cut at the first distance
        not below the threshold. A centroid keeps a pointer into its list and,
        on its turn, moves it past utterances already taken and claims the
        next one. Pointers only move forward, so a whole selection takes
        O(candidate entries) steps.
        """
        validate_selection_config(config)
        ends = [int(np.searchsorted(d, config.threshold, side="left")) for d in self.dists]
        names = [centroid_id(c) for c in range(len(ends))]
        # Memoryviews index the rows as Python ints and floats without a copy.
        rows = [memoryview(row) for row in self.order]
        dists = [memoryview(d) for d in self.dists]
        pointers = [0] * len(ends)
        taken = bytearray(len(self.ids))
        remaining = len(self.ids)
        result = SelectionResult(stop_reason="pool")
        while remaining:
            result.passes += 1
            count = 0
            for c, end in enumerate(ends):
                if not remaining:
                    break
                row, p = rows[c], pointers[c]
                while p < end and taken[row[p]]:
                    p += 1
                pointers[c] = p
                if p == end:
                    continue
                pick = row[p]
                dur_h = self.hours[pick]
                if (
                    config.max_hours is not None
                    and result.total_hours + dur_h > config.max_hours + 1e-9
                ):
                    result.stop_reason = "budget"
                    return result
                taken[pick] = 1
                remaining -= 1
                result.selected.append(
                    SelectedUtterance(self.ids[pick], names[c], dists[c][p], result.passes)
                )
                result.total_hours += dur_h
                count += 1
            if count == 0:
                result.stop_reason = "threshold"
                break
        return result


def rank_pool(
    pool_posteriors: Posteriors, pool_manifest: Manifest, centroids
) -> Ranking:
    """Validate the selection inputs and rank the pool for every centroid."""
    cents = _centroid_matrix(centroids)
    ids = pool_posteriors.ids
    if len(set(ids)) != len(ids):
        raise ValidationError("duplicate utterance ids in pool posteriors")
    if set(ids) != set(pool_manifest.ids()):
        raise ValidationError("pool posteriors do not match the pool manifest ids")
    durations = pool_manifest.by_id()
    hours = [durations[uid].duration_s / 3600.0 for uid in ids]
    m = len(ids)
    if m == 0:
        empty = np.empty((cents.shape[0], 0))
        return Ranking([], [], empty.astype(np.intp), empty)

    gammas = np.asarray(pool_posteriors.gamma, dtype=np.float64)
    if gammas.shape[1] != cents.shape[1]:
        raise ValidationError(
            f"posterior dimension {gammas.shape[1]} does not match centroid "
            f"dimension {cents.shape[1]}"
        )
    if not np.all(np.isfinite(gammas)):
        raise ValidationError("pool posteriors contain NaN or Inf")
    if np.any(np.linalg.norm(gammas, axis=1) == 0.0):
        raise ValidationError("pool posteriors must be nonzero vectors")

    cn = cents / np.linalg.norm(cents, axis=1, keepdims=True)
    gn = gammas / np.linalg.norm(gammas, axis=1, keepdims=True)
    # BLAS can round equal posterior rows an ulp apart (by their position in
    # the product); giving every column that of the first row equal to it
    # keeps their distances, and so their id tie-break, exact.
    _, first, same = np.unique(gn, axis=0, return_index=True, return_inverse=True)
    dists = np.clip(1.0 - (cn @ gn.T)[:, first[same]], 0.0, 2.0)
    lex_rank = np.argsort(np.argsort(np.asarray(ids, dtype=object)))
    order = np.empty(dists.shape, dtype=np.intp)
    for c, row in enumerate(dists):
        order[c] = np.lexsort((lex_rank, row))
        row[:] = row[order[c]]
    return Ranking(list(ids), hours, order, dists)


def union_combine(
    a: SelectionResult, b: SelectionResult, pool_manifest: Manifest
) -> SelectionResult:
    """Set union by utterance id; entries present in both keep ``a``'s record.

    The merged list is ordered by pass index (stable, ``a`` first), and hours
    are recomputed from the manifest.
    """
    durations = pool_manifest.by_id()
    seen = {s.utt_id for s in a.selected}
    merged = list(a.selected) + [s for s in b.selected if s.utt_id not in seen]
    for s in merged:
        if s.utt_id not in durations:
            raise ValidationError(f"utterance '{s.utt_id}' is not in the pool manifest")
    merged.sort(key=lambda s: s.pass_index)
    total = sum(durations[s.utt_id].duration_s for s in merged) / 3600.0
    return SelectionResult(
        selected=merged, total_hours=total, passes=max(a.passes, b.passes)
    )


def random_select(
    pool_manifest: Manifest, budget_hours: float, seed: int
) -> SelectionResult:
    """Budget-limited uniform baseline: shuffled prefix of the pool."""
    if not 0 < budget_hours < math.inf:
        raise ValidationError(f"hour budget must be finite and positive, got {budget_hours}")
    total_pool = pool_manifest.total_hours()
    if budget_hours > total_pool + 1e-9:
        raise ValidationError(
            f"budget {budget_hours} h exceeds pool total {total_pool:.6g} h"
        )
    utts = pool_manifest.utterances
    order = np.random.default_rng(seed).permutation(len(utts))
    result = SelectionResult(passes=1 if utts else 0)
    for i in order:
        dur_h = utts[i].duration_s / 3600.0
        if result.total_hours + dur_h > budget_hours + 1e-9:
            break
        result.selected.append(
            SelectedUtterance(utts[i].id, "random", math.nan, 1)
        )
        result.total_hours += dur_h
    return result


# ---------------------------------------------------------------------------
# Audit file


def write_audit(result: SelectionResult, path) -> None:
    """Per selected utterance: ``utt_id <TAB> centroid <TAB> distance <TAB> pass``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# passes={result.passes}\ttotal_hours={result.total_hours:.9g}\n")
        for s in result.selected:
            fh.write(f"{s.utt_id}\t{s.centroid}\t{s.distance:.9g}\t{s.pass_index}\n")


def read_audit(path) -> SelectionResult:
    return parse_audit(read_file(path), path)


def parse_audit(data: bytes, path) -> SelectionResult:
    """Parse the bytes ``data`` of the audit file ``path`` (which names it in
    errors), as :func:`read_audit` does."""
    result = SelectionResult()
    for lineno, raw in text_lines(io.BytesIO(data), path):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        if line.startswith("#"):
            for part in line.lstrip("# ").split("\t"):
                key, _, val = part.partition("=")
                try:
                    if key == "passes":
                        result.passes = int(val)
                    elif key == "total_hours":
                        result.total_hours = float(val)
                except ValueError:
                    raise FormatError(f"{path}:{lineno}: malformed audit header") from None
            continue
        fields = line.split("\t")
        if len(fields) != 4:
            raise FormatError(f"{path}:{lineno}: expected 4 fields, got {len(fields)}")
        try:
            entry = SelectedUtterance(
                fields[0], fields[1], float(fields[2]), int(fields[3])
            )
        except ValueError:
            raise FormatError(f"{path}:{lineno}: malformed audit line") from None
        result.selected.append(entry)
    return result
