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
from .config import PipelineConfig, load_config
from .corpus import SynthSpec, generate_synthetic_corpus
from .errors import LdaSelectError, ValidationError
from .pipeline import Runner, publish, run_pipeline, sweep_lambda
from .report import compare, render_comparison, render_report, report, write_report_tsv
from .selection import random_select, read_audit, union_combine

log = logging.getLogger(__name__)

# One command per stage of the acoustic chain of ``Runner.stages``, in its order.
STAGE_COMMANDS = [
    "train-gmm", "quantize", "tfidf", "train-lda", "posteriors", "cluster", "select",
]


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
    parser.add_argument(
        "--log-level", default="INFO", choices=("DEBUG", "INFO", "WARNING", "ERROR"),
        help="least severe log message to show (default: INFO)",
    )
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

    for name in STAGE_COMMANDS:
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
    spec = SynthSpec(
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
        manifest_name=args.manifest_name,
    )
    manifest = generate_synthetic_corpus(spec, args.seed, args.out)
    name = args.manifest_name or f"{args.role}.tsv"
    print(f"wrote {len(manifest)} utterances to {Path(args.out) / name}")
    return 0


def _cmd_run(args) -> int:
    stages = None
    if args.stages is not None:
        stages = [s.strip() for s in args.stages.split(",") if s.strip()]
        if not stages:
            raise ValidationError(f"--stages must name at least one stage, got '{args.stages}'")
    config = _load_pipeline_config(args)
    result = run_pipeline(config, stages)
    _print_stage_summary(result)
    report_txt = Path(config.paths.work_dir) / "report.txt"
    if "report" in result.skipped and report_txt.is_file():
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


def _write_selection(runner: Runner, result, out_prefix: str) -> Path:
    """Audit and manifest of ``result`` in the runner's work dir; returns the
    manifest path."""
    manifest = runner.work / f"{out_prefix}.tsv"
    with runner.owned(), publish(runner.work / f"{out_prefix}.audit.tsv", manifest) as tmps:
        runner.write_selection(result, *tmps)
    return manifest


def _cmd_random_select(args) -> int:
    runner = Runner(_load_pipeline_config(args))
    result = random_select(runner.pool, args.budget_hours, args.seed or 0)
    out = _write_selection(runner, result, args.out_prefix)
    print(
        f"selected {len(result.selected)} utterances, {result.total_hours:.3f} h "
        f"-> {out}"
    )
    return 0


def _cmd_combine(args) -> int:
    runner = Runner(_load_pipeline_config(args))
    result = union_combine(read_audit(args.a), read_audit(args.b), runner.pool)
    _write_selection(runner, result, args.out_prefix)
    print(
        f"combined selection: {len(result.selected)} utterances, "
        f"{result.total_hours:.3f} h"
    )
    return 0


def _cmd_report(args) -> int:
    config = _load_pipeline_config(args)
    pool = Runner(config).pool
    audit = args.audit or str(Path(config.paths.work_dir) / "selection.audit.tsv")
    rep = report(read_audit(audit), pool)
    print(render_report(rep), end="")
    if args.out_tsv:
        write_report_tsv(rep, args.out_tsv)
    return 0


def _cmd_compare(args) -> int:
    config = _load_pipeline_config(args)
    pool = Runner(config).pool
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


# Every other command is one of STAGE_COMMANDS, run by _cmd_stage.
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
    args = build_parser().parse_args(argv)
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger("ldaselect").setLevel(args.log_level)
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
