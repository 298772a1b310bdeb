"""Composition reports over selections and pool/selection comparison metrics.

Hours are the accounting unit throughout: a domain's percentage is selected
hours over pool hours, and enrichment compares the target domain's share of
the selection against its share of the pool.
"""

from dataclasses import dataclass, field

from .corpus import Manifest
from .errors import ValidationError
from .selection import SelectionResult, pool_records


@dataclass
class DomainRow:
    domain_tag: str
    selected_hours: float
    pool_hours: float

    @property
    def percent(self) -> float:
        return 100.0 * self.selected_hours / self.pool_hours if self.pool_hours else 0.0


@dataclass
class CompositionReport:
    rows: list[DomainRow] = field(default_factory=list)
    total_selected_hours: float = 0.0
    total_pool_hours: float = 0.0

    @property
    def total_percent(self) -> float:
        if self.total_pool_hours == 0:
            return 0.0
        return 100.0 * self.total_selected_hours / self.total_pool_hours


def report(selection: SelectionResult, pool_manifest: Manifest) -> CompositionReport:
    """Per-domain selected hours, pool hours and percentages, plus totals.

    The selection is checked by :func:`~ldaselect.selection.pool_records`, so
    each utterance counts once.
    """
    selected_ids = {u.id for u in pool_records(selection, pool_manifest.by_id())}
    pool_hours: dict[str, float] = {}
    sel_hours: dict[str, float] = {}
    for utt in pool_manifest:
        pool_hours[utt.domain_tag] = pool_hours.get(utt.domain_tag, 0.0) + utt.duration_s
        if utt.id in selected_ids:
            sel_hours[utt.domain_tag] = sel_hours.get(utt.domain_tag, 0.0) + utt.duration_s
    rows = [
        DomainRow(tag, sel_hours.get(tag, 0.0) / 3600.0, pool_hours[tag] / 3600.0)
        for tag in sorted(pool_hours)
    ]
    return CompositionReport(
        rows=rows,
        total_selected_hours=sum(r.selected_hours for r in rows),
        total_pool_hours=sum(r.pool_hours for r in rows),
    )


def render_report(rep: CompositionReport) -> str:
    """Aligned text table with a totals line."""
    headers = ("domain", "selected_h", "pool_h", "percent")
    body = [
        (r.domain_tag, f"{r.selected_hours:.2f}", f"{r.pool_hours:.2f}", f"{r.percent:.1f}")
        for r in rep.rows
    ]
    body.append(
        (
            "TOTAL",
            f"{rep.total_selected_hours:.2f}",
            f"{rep.total_pool_hours:.2f}",
            f"{rep.total_percent:.1f}",
        )
    )
    return _table(headers, body)


def _table(headers, body) -> str:
    """Header line, then rows with the first column left-aligned and the rest
    right-aligned."""
    n = len(headers)
    widths = [
        max(len(headers[i]), max((len(row[i]) for row in body), default=0))
        for i in range(n)
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip()
    ]
    for row in body:
        lines.append(
            row[0].ljust(widths[0]) + "  "
            + "  ".join(row[i].rjust(widths[i]) for i in range(1, n))
        )
    return "\n".join(lines) + "\n"


def write_report_tsv(rep: CompositionReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("domain\tselected_hours\tpool_hours\tpercent\n")
        for r in rep.rows:
            fh.write(
                f"{r.domain_tag}\t{r.selected_hours:.9g}\t{r.pool_hours:.9g}"
                f"\t{r.percent:.9g}\n"
            )
        fh.write(
            f"TOTAL\t{rep.total_selected_hours:.9g}\t{rep.total_pool_hours:.9g}"
            f"\t{rep.total_percent:.9g}\n"
        )


@dataclass
class ComparisonRow:
    name: str
    hours: float
    recall: float
    precision: float
    enrichment: float


def compare(
    selections: list[tuple[str, SelectionResult]],
    truth_manifest: Manifest,
    target_domain: str,
) -> list[ComparisonRow]:
    """Target-domain recall, precision and enrichment per named selection.

    All metrics are hour-weighted, from each selection's :func:`report` over
    ``truth_manifest``: its total and target-domain selected hours. An empty
    selection scores zero precision and enrichment by convention.
    """
    pool = report(SelectionResult(), truth_manifest)
    target_total = sum(r.pool_hours for r in pool.rows if r.domain_tag == target_domain)
    if target_total == 0:
        raise ValidationError(
            f"target domain '{target_domain}' has no hours in the manifest"
        )
    pool_proportion = target_total / pool.total_pool_hours
    rows = []
    for name, sel in selections:
        rep = report(sel, truth_manifest)
        hours = rep.total_selected_hours
        target_hours = sum(
            r.selected_hours for r in rep.rows if r.domain_tag == target_domain
        )
        recall = target_hours / target_total
        precision = target_hours / hours if hours > 0 else 0.0
        rows.append(
            ComparisonRow(name, hours, recall, precision, precision / pool_proportion)
        )
    return rows


def render_comparison(rows: list[ComparisonRow], target_domain: str) -> str:
    headers = ("selection", "hours", "recall", "precision", "enrichment")
    body = [
        (r.name, f"{r.hours:.2f}", f"{r.recall:.3f}", f"{r.precision:.3f}",
         f"{r.enrichment:.3f}")
        for r in rows
    ]
    return f"target domain: {target_domain}\n" + _table(headers, body)
