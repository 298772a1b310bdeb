"""Command-line entry point.

Exit codes: 0 on success, 1 on validation errors (bad config, bad arguments,
out-of-range parameters), 2 on runtime failures (stage errors, corrupt
artifacts, I/O problems).
"""

import argparse
import logging
import sys
from pathlib import Path

from . import __version__
from .config import PipelineConfig, load_config, validate_config
from .corpus import make_separated_spec, generate_synthetic_corpus, read_manifest
from .errors import LdaSelectError, ValidationError
from .pipeline import (
    ACOUSTIC_STAGES, WorkDirLock, run_pipeline, sweep_lambda, write_selection_manifest,
)
from .report import compare, render_comparison, render_report, report, write_report_tsv
from .selection import random_select, read_audit, union_combine, write_audit

log = logging.getLogger(__name__)


def _common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="pipeline config file (sectioned key = value)")
    sub.add_argument("--seed", type=int, help="override every stage seed")
    sub.add_argument("--work-dir", help="override paths.work_dir from the config")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ldaselect",
        description=(
            "Select acoustically matching training data from a large speech "
            "pool via latent-domain posterior similarity."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    synth = subs.add_parser("synth", help="generate a synthetic labeled corpus")
    synth.add_argument("--out", required=True, help="output corpus directory")
    synth.add_argument("--domains", type=int, default=3)
    synth.add_argument("--utts-per-domain", type=int, default=50)
    synth.add_argument("--frame-dim", type=int, default=3)
    synth.add_argument("--frames-min", type=int, default=40)
    synth.add_argument("--frames-max", type=int, default=80)
    synth.add_argument("--separation", type=float, default=10.0)
    synth.add_argument("--components", type=int, default=2)
    synth.add_argument("--with-transcripts", action="store_true")
    synth.add_argument("--words-per-domain", type=int, default=20)
    synth.add_argument("--role", default="pool", choices=("pool", "dev", "test"))
    synth.add_argument("--id-prefix", default="")
    synth.add_argument("--tag-prefix", default="domain")
    synth.add_argument("--manifest-name", default=None)
    synth.add_argument("--fps", type=float, default=100.0)
    synth.add_argument("--seed", type=int, default=0)

    for name in ACOUSTIC_STAGES:
        sub = subs.add_parser(name, help=f"run the {name} stage")
        _common_flags(sub)
        if name == "select":
            sub.add_argument(
                "--lambda", dest="lam", type=float,
                help="override the selection distance threshold",
            )
            sub.add_argument(
                "--max-hours", type=float, help="override the selection hour budget"
            )

    run = subs.add_parser("run", help="run the full pipeline")
    _common_flags(run)
    run.add_argument("--stages", help="comma-separated subset of stages to run")

    sweep = subs.add_parser(
        "sweep-lambda", help="selection and report across several thresholds"
    )
    _common_flags(sweep)
    sweep.add_argument(
        "--lambdas", required=True,
        help="comma-separated list of distance thresholds",
    )

    rand = subs.add_parser("random-select", help="seeded uniform baseline selection")
    _common_flags(rand)
    rand.add_argument("--budget-hours", type=float, required=True)
    rand.add_argument(
        "--out-prefix", default="random_selection",
        help="output name prefix inside the work dir",
    )

    comb = subs.add_parser("combine", help="set union of two selection audits")
    _common_flags(comb)
    comb.add_argument("--a", required=True, help="first audit file (keeps provenance)")
    comb.add_argument("--b", required=True, help="second audit file")
    comb.add_argument("--out-prefix", default="selection_combined")

    rep = subs.add_parser("report", help="per-domain composition of a selection")
    _common_flags(rep)
    rep.add_argument(
        "--audit", help="selection audit file (default: work dir selection.audit.tsv)"
    )
    rep.add_argument("--out-tsv", help="also write the table as TSV")

    cmp_ = subs.add_parser("compare", help="selection quality against domain labels")
    _common_flags(cmp_)
    cmp_.add_argument(
        "--selection", action="append", required=True, metavar="NAME=AUDIT",
        help="named audit file; repeatable",
    )
    cmp_.add_argument("--target-domain", help="defaults to report.target_domain")

    return parser


def _load_pipeline_config(args) -> PipelineConfig:
    if not args.config:
        raise ValidationError("--config is required for this command")
    config = load_config(args.config)
    if args.work_dir:
        config.paths.work_dir = args.work_dir
    if args.seed is not None:
        config.quantizer.seed = args.seed
        config.lda.seed = args.seed
        config.cluster.seed = args.seed
    return config


def _print_stage_summary(result) -> None:
    for name, skipped in result.skipped.items():
        print(f"{name}: {'skipped (cached)' if skipped else 'ran'}")
    if result.selection.selected or result.selection.passes:
        print(
            f"selected {len(result.selection.selected)} utterances, "
            f"{result.selection.total_hours:.3f} h in {result.selection.passes} passes"
        )


def _cmd_synth(args) -> int:
    spec = make_separated_spec(
        n_domains=args.domains,
        utts_per_domain=args.utts_per_domain,
        frame_dim=args.frame_dim,
        frames_range=(args.frames_min, args.frames_max),
        separation=args.separation,
        n_components=args.components,
        with_transcripts=args.with_transcripts,
        words_per_domain=args.words_per_domain,
        tag_prefix=args.tag_prefix,
        fps=args.fps,
        role=args.role,
        id_prefix=args.id_prefix,
    )
    spec.manifest_name = args.manifest_name
    manifest = generate_synthetic_corpus(spec, args.seed, args.out)
    name = args.manifest_name or f"{args.role}.tsv"
    print(f"wrote {len(manifest)} utterances to {Path(args.out) / name}")
    return 0


def _cmd_run(args) -> int:
    config = _load_pipeline_config(args)
    stages = None
    if getattr(args, "stages", None):
        stages = [s.strip() for s in args.stages.split(",") if s.strip()]
    result = run_pipeline(config, stages)
    _print_stage_summary(result)
    report_txt = result.artifacts.get("report.txt")
    if report_txt and report_txt.is_file():
        print(report_txt.read_text(encoding="utf-8"), end="")
    return 0


def _cmd_stage(args) -> int:
    stage = args.command
    config = _load_pipeline_config(args)
    if stage == "select":
        if getattr(args, "lam", None) is not None:
            config.selection.threshold = args.lam
        if getattr(args, "max_hours", None) is not None:
            config.selection.max_hours = args.max_hours
    result = run_pipeline(config, [stage])
    _print_stage_summary(result)
    return 0


def _cmd_sweep(args) -> int:
    config = _load_pipeline_config(args)
    try:
        lambdas = [float(x) for x in args.lambdas.split(",") if x.strip()]
    except ValueError:
        raise ValidationError(f"cannot parse --lambdas '{args.lambdas}'") from None
    if not lambdas:
        raise ValidationError("--lambdas must list at least one threshold")
    rows = sweep_lambda(config, lambdas)
    print("lambda    selected  hours     percent  passes")
    for r in rows:
        print(
            f"{r['lambda']:<8.4g}  {r['selected']:<8d}  {r['hours']:<8.3f}"
            f"  {r['percent']:<7.2f}  {r['passes']}"
        )
    return 0


def _load_pool(args):
    """The validated config and its pool manifest."""
    config = _load_pipeline_config(args)
    validate_config(config)
    return config, read_manifest(config.paths.pool_manifest, role="pool")


def _write_selection(config, pool, result, out_prefix: str) -> Path:
    """Audit and manifest of ``result`` in the locked work dir; returns the
    manifest path."""
    work = Path(config.paths.work_dir)
    work.mkdir(parents=True, exist_ok=True)
    with WorkDirLock(work):
        write_audit(result, work / f"{out_prefix}.audit.tsv")
        write_selection_manifest(result, pool, work / f"{out_prefix}.tsv")
    return work / f"{out_prefix}.tsv"


def _cmd_random_select(args) -> int:
    config, pool = _load_pool(args)
    result = random_select(pool, args.budget_hours, args.seed or 0)
    out = _write_selection(config, pool, result, args.out_prefix)
    print(
        f"selected {len(result.selected)} utterances, {result.total_hours:.3f} h "
        f"-> {out}"
    )
    return 0


def _cmd_combine(args) -> int:
    config, pool = _load_pool(args)
    result = union_combine(read_audit(args.a), read_audit(args.b), pool)
    _write_selection(config, pool, result, args.out_prefix)
    print(
        f"combined selection: {len(result.selected)} utterances, "
        f"{result.total_hours:.3f} h"
    )
    return 0


def _cmd_report(args) -> int:
    config, pool = _load_pool(args)
    audit = args.audit or str(Path(config.paths.work_dir) / "selection.audit.tsv")
    rep = report(read_audit(audit), pool)
    print(render_report(rep), end="")
    if args.out_tsv:
        write_report_tsv(rep, args.out_tsv)
    return 0


def _cmd_compare(args) -> int:
    config, pool = _load_pool(args)
    target = args.target_domain or config.report.target_domain
    if not target:
        raise ValidationError(
            "--target-domain is required (or set report.target_domain in the config)"
        )
    named = []
    for item in args.selection:
        name, sep, path = item.partition("=")
        if not sep or not name or not path:
            raise ValidationError(f"--selection must look like NAME=AUDIT, got '{item}'")
        named.append((name, read_audit(path)))
    print(render_comparison(compare(named, pool, target), target), end="")
    return 0


# Every other command is a stage of ACOUSTIC_STAGES, run by _cmd_stage.
_COMMANDS = {
    "synth": _cmd_synth,
    "run": _cmd_run,
    "sweep-lambda": _cmd_sweep,
    "random-select": _cmd_random_select,
    "combine": _cmd_combine,
    "report": _cmd_report,
    "compare": _cmd_compare,
}


def main(argv=None) -> int:
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS.get(args.command, _cmd_stage)(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (LdaSelectError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
