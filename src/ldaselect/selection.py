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

import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import Manifest, Utterance, decode_text, read_file
from .errors import FormatError, ValidationError, validate_positive, validate_seed
from .lda import Posteriors


@dataclass
class SelectionConfig:
    """Threshold and budget for :func:`select`.

    ``threshold`` is the maximum admissible cosine distance, in (0, 1].
    """

    threshold: float = 0.2
    max_hours: float | None = None


@dataclass(slots=True)
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


def _unit_rows(mat: np.ndarray, what: str) -> np.ndarray:
    """The rows of ``mat`` scaled to unit length, once checked finite and
    nonzero; ``what`` names them in errors."""
    if not np.all(np.isfinite(mat)):
        raise ValidationError(f"{what} contain NaN or Inf")
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise ValidationError(f"{what} must be nonzero vectors")
    return mat / norms


def _hour_limit(max_hours: float | None) -> float:
    """The hours a selection under the budget ``max_hours`` (None: no budget)
    must stay within. Its 1e-9 h of slack lets a budget that hours sum to
    exactly be met despite rounding; an addition past it stops the loop."""
    return math.inf if max_hours is None else max_hours + 1e-9


def validate_selection_config(config: SelectionConfig) -> None:
    if not 0.0 < config.threshold <= 1.0:
        raise ValidationError(
            f"distance threshold must be in (0, 1], got {config.threshold}"
        )
    if config.max_hours is not None:
        validate_positive(config.max_hours, "hour budget")


def select(
    pool_posteriors: Posteriors, pool_manifest: Manifest, centroids,
    config: SelectionConfig,
) -> SelectionResult:
    """Run the greedy pass loop over the pool.

    Ties for a centroid's nearest utterance break toward the smaller
    utterance id. The recorded pass index counts passes from 1.
    """
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
        limit = _hour_limit(config.max_hours)
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
                if result.total_hours + dur_h > limit:
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
    cents = np.asarray(centroids, dtype=np.float64)
    if cents.ndim != 2 or cents.shape[0] == 0:
        raise ValidationError(f"centroids must be a non-empty 2-D matrix, got {cents.shape}")
    cn = _unit_rows(cents, "centroids")
    ids = pool_posteriors.ids
    if len(set(ids)) != len(ids):
        raise ValidationError("duplicate utterance ids in pool posteriors")
    if set(ids) != set(pool_manifest.ids()):
        raise ValidationError("pool posteriors do not match the pool manifest ids")
    gammas = np.asarray(pool_posteriors.gamma, dtype=np.float64)
    if gammas.ndim != 2 or gammas.shape[0] != len(ids):
        raise ValidationError(
            f"pool posteriors must be a matrix of one row per id: {len(ids)} ids, "
            f"gamma of shape {gammas.shape}"
        )
    durations = pool_manifest.by_id()
    hours = [durations[uid].duration_s / 3600.0 for uid in ids]
    if len(ids) == 0:
        empty = np.empty((cents.shape[0], 0))
        return Ranking([], [], empty.astype(np.intp), empty)
    if gammas.shape[1] != cents.shape[1]:
        raise ValidationError(
            f"posterior dimension {gammas.shape[1]} does not match centroid "
            f"dimension {cents.shape[1]}"
        )
    gn = _unit_rows(gammas, "pool posteriors")
    # BLAS can round equal posterior rows an ulp apart (by their position in
    # the product); giving every column that of the first row equal to it
    # keeps their distances, and so their id tie-break, exact.
    _, first, same = np.unique(gn, axis=0, return_index=True, return_inverse=True)
    dists = np.clip(1.0 - (cn @ gn.T)[:, first[same]], 0.0, 2.0)
    lex_rank = np.argsort(np.argsort(np.asarray(ids, dtype=object)))
    order = np.lexsort((np.broadcast_to(lex_rank, dists.shape), dists), axis=-1)
    return Ranking(list(ids), hours, order, np.take_along_axis(dists, order, axis=1))


def pool_records(
    selection: SelectionResult, records: dict[str, Utterance]
) -> list[Utterance]:
    """The record of each utterance ``selection`` lists, in its order, from
    ``records``, the pool manifest's utterances (or a record of each) by id.
    Every check of a selection against its pool is this one: an id outside the
    pool, or listed twice, which would count its hours twice, is refused by
    name."""
    found: dict[str, Utterance] = {}
    for uid in selection.ids():
        if uid in found:
            raise ValidationError(f"selection lists utterance '{uid}' twice")
        if uid not in records:
            raise ValidationError(f"utterance '{uid}' is not in the pool manifest")
        found[uid] = records[uid]
    return list(found.values())


def union_combine(
    a: SelectionResult, b: SelectionResult, pool_manifest: Manifest
) -> SelectionResult:
    """Set union by utterance id; entries present in both keep ``a``'s record.

    The merged list is ordered by pass index (stable, ``a`` first), and hours
    are recomputed from the manifest. Each input is checked by
    :func:`pool_records`.
    """
    durations = pool_manifest.by_id()
    pool_records(a, durations)
    pool_records(b, durations)
    seen = set(a.ids())
    merged = list(a.selected) + [s for s in b.selected if s.utt_id not in seen]
    merged.sort(key=lambda s: s.pass_index)
    total = sum(durations[s.utt_id].duration_s for s in merged) / 3600.0
    return SelectionResult(
        selected=merged, total_hours=total, passes=max(a.passes, b.passes)
    )


def random_select(
    pool_manifest: Manifest, budget_hours: float, seed: int
) -> SelectionResult:
    """Budget-limited uniform baseline: shuffled prefix of the pool, stopped
    by the hour budget as :meth:`Ranking.select` is."""
    validate_seed(seed)
    validate_positive(budget_hours, "hour budget")
    total_pool = pool_manifest.total_hours()
    if budget_hours > _hour_limit(total_pool):
        raise ValidationError(
            f"budget {budget_hours} h exceeds pool total {total_pool:.6g} h"
        )
    limit = _hour_limit(budget_hours)
    utts = pool_manifest.utterances
    order = np.random.default_rng(seed).permutation(len(utts))
    result = SelectionResult(passes=1 if utts else 0)
    for i in order:
        dur_h = utts[i].duration_s / 3600.0
        if result.total_hours + dur_h > limit:
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
    errors), as :func:`read_audit` does. An utterance listed twice is an
    error naming both lines."""
    result = SelectionResult()
    seen: dict[str, int] = {}
    for lineno, line in enumerate(decode_text(data, path).split("\n"), start=1):
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
        if entry.utt_id in seen:
            raise FormatError(
                f"{path}: duplicate utterance id '{entry.utt_id}' "
                f"(lines {seen[entry.utt_id]} and {lineno})"
            )
        seen[entry.utt_id] = lineno
        result.selected.append(entry)
    return result
