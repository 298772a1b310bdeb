"""Command-line entry point.

Exit codes: 0 on success, 1 on validation errors (bad config, bad arguments
or usage, out-of-range parameters), 2 on runtime failures (stage errors,
corrupt artifacts, I/O problems). ``run --stages`` runs any stage of the
chain that ``Runner.stages`` declares. Apart from ``--work-dir`` and
``--seed``, every setting comes from the config file.
"""

import argparse
import logging
import sys
from pathlib import Path

from . import __version__
from .config import PipelineConfig, load_config
from .corpus import read_file
from .errors import LdaSelectError, ValidationError
from .pipeline import Runner, publish, run_pipeline, sweep_lambda
from .report import compare, render_comparison, render_report, report, write_report_tsv
from .selection import random_select, read_audit, union_combine

log = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, as all invalid input does (argparse's 2 means a
    runtime failure here); ``add_subparsers`` builds subparsers of this class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="pipeline config file (sectioned key = value)")
    sub.add_argument("--seed", type=int, help="override every stage seed")
    sub.add_argument("--work-dir", help="override paths.work_dir from the config")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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

    run = subs.add_parser("run", help="run the pipeline, or some of its stages")
    _common_flags(run)
    run.add_argument("--stages", help="comma-separated stages of the chain to run")

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
    comb.add_argument("--out-prefix", default="selection_combined",
                      help="output name prefix inside the work dir")

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
    cmp_.add_argument(
        "--target-domain", required=True, help="domain tag the selections are scored for"
    )

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


def _cmd_run(args) -> int:
    stages = None
    if args.stages is not None:
        stages = [s.strip() for s in args.stages.split(",") if s.strip()]
        if not stages:
            raise ValidationError(f"--stages must name at least one stage, got '{args.stages}'")
    config = _load_pipeline_config(args)
    result = run_pipeline(config, stages)
    for name, skipped in result.skipped.items():
        print(f"{name}: {'skipped (cached)' if skipped else 'ran'}")
    sel = result.selection
    if sel.selected or sel.passes:
        print(f"selected {len(sel.selected)} utterances, {sel.total_hours:.3f} h "
              f"in {sel.passes} passes")
    report_txt = Path(config.paths.work_dir) / "report.txt"
    if "report" in result.skipped:
        print(read_file(report_txt).decode("utf-8"), end="")
    return 0


def _cmd_sweep(args) -> int:
    config = _load_pipeline_config(args)
    try:
        lambdas = [float(x) for x in args.lambdas.split(",") if x.strip()]
    except ValueError:
        raise ValidationError(f"cannot parse --lambdas '{args.lambdas}'") from None
    rows = sweep_lambda(config, lambdas)
    print("lambda    selected  hours     percent  passes")
    for r in rows:
        print(
            f"{r['lambda']:<8.4g}  {r['selected']:<8d}  {r['hours']:<8.3f}"
            f"  {r['percent']:<7.2f}  {r['passes']}"
        )
    return 0


def _out_paths(runner: Runner, prefix: str) -> tuple[Path, Path]:
    """The audit and manifest paths that ``--out-prefix`` names: files of the
    runner's work dir that no stage or sweep of its config writes."""
    if prefix in ("", ".", "..") or "/" in prefix:
        raise ValidationError(f"--out-prefix must be a file name in the work dir, not '{prefix}'")
    paths = (runner.work / f"{prefix}.audit.tsv", runner.work / f"{prefix}.tsv")
    for p in paths:
        if runner.writes(p.name):
            raise ValidationError(f"--out-prefix '{prefix}' would write {p.name}, "
                                  "a name of the pipeline's outputs")
    return paths


def _write_selection(runner: Runner, result, paths: tuple[Path, Path]) -> None:
    """Audit and manifest of ``result`` at ``paths``, from :func:`_out_paths`."""
    with runner.owned(), publish(*paths) as tmps:
        runner.write_selection(result, *tmps)


def _cmd_random_select(args) -> int:
    runner = Runner(_load_pipeline_config(args))
    paths = _out_paths(runner, args.out_prefix)
    result = random_select(runner.pool, args.budget_hours, args.seed or 0)
    _write_selection(runner, result, paths)
    print(
        f"selected {len(result.selected)} utterances, {result.total_hours:.3f} h "
        f"-> {paths[1]}"
    )
    return 0


def _cmd_combine(args) -> int:
    runner = Runner(_load_pipeline_config(args))
    paths = _out_paths(runner, args.out_prefix)
    result = union_combine(read_audit(args.a), read_audit(args.b), runner.pool)
    _write_selection(runner, result, paths)
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
    named = []
    for item in args.selection:
        name, sep, path = item.partition("=")
        if not sep or not name or not path:
            raise ValidationError(f"--selection must look like NAME=AUDIT, got '{item}'")
        named.append((name, read_audit(path)))
    rows = compare(named, pool, args.target_domain)
    print(render_comparison(rows, args.target_domain), end="")
    return 0


_COMMANDS = {
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
    # The level holds for this command only: an in-process caller keeps its own.
    logger = logging.getLogger("ldaselect")
    level = logger.level
    logger.setLevel(args.log_level)
    try:
        return _COMMANDS[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (LdaSelectError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        logger.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
