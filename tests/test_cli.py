import errno
import fcntl
import hashlib
import json
import logging
import os
import re
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest

from ldaselect import gmm as gmm_module
from ldaselect import pipeline as pipeline_module
from ldaselect.cli import main
from ldaselect.corpus import read_manifest
from ldaselect.docmodel import load_docs
from ldaselect.selection import read_audit

from synth import SynthSpec, generate_synthetic_corpus


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("clicorpus")
    for role, n, prefix in (("pool", 10, ""), ("dev", 3, "dev_")):
        spec = SynthSpec(2, n, frames_range=(30, 50), with_transcripts=True, role=role,
                         id_prefix=prefix)
        generate_synthetic_corpus(spec, seed=3, out_dir=root / role)
    return root


def _write_config(corpus_dir, work_dir, path, extra="", lam=0.6):
    """A config whose last section is ``[selection]``, so ``extra`` lines
    before any section header of their own set selection keys."""
    path.write_text(
        f"""\
[paths]
pool_manifest = {corpus_dir / 'pool' / 'pool.tsv'}
dev_manifest = {corpus_dir / 'dev' / 'dev.tsv'}
work_dir = {work_dir}

[quantizer]
n_components = 2
max_iterations = 10

[lda]
n_topics = 2
alpha = 0.1
em_max_iterations = 15

[cluster]
n_clusters = 2

[docmodel]
text_vocab_cap = 64

[selection]
lambda = {lam}
{extra}""",
        encoding="utf-8",
    )
    return path


@pytest.fixture
def config_path(corpus_dir, tmp_path):
    return _write_config(corpus_dir, tmp_path / "work", tmp_path / "run.cfg")


@pytest.mark.parametrize("stages", ["", ",", " , "])
def test_run_stages_naming_no_stage_exits_one(stages, config_path, tmp_path, capsys):
    assert main(["run", "--config", str(config_path), "--stages", stages]) == 1
    assert "--stages must name at least one stage" in capsys.readouterr().err
    assert not (tmp_path / "work").exists()


def test_run_and_cached_rerun(config_path, tmp_path, capsys):
    assert main(["run", "--config", str(config_path)]) == 0
    out = capsys.readouterr().out
    assert "train-gmm: ran" in out
    assert "selected" in out
    assert "TOTAL" in out  # composition table is echoed
    assert main(["run", "--config", str(config_path)]) == 0
    out = capsys.readouterr().out
    assert "train-gmm: skipped (cached)" in out
    assert (tmp_path / "work" / "selection.audit.tsv").is_file()


def test_exit_code_one_for_config_errors(corpus_dir, tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[lda]\nn_topics = many\n", encoding="utf-8")
    assert main(["run", "--config", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["run"]) == 1  # --config missing
    cfg = _write_config(corpus_dir, tmp_path / "w", tmp_path / "zero.cfg",
                        extra="max_hours = -1\n")
    assert main(["run", "--config", str(cfg)]) == 1
    assert "hour budget must be finite and positive, got -1" in capsys.readouterr().err
    cfg = _write_config(corpus_dir, tmp_path / "w", tmp_path / "acoustic.cfg")
    assert main(["run", "--config", str(cfg), "--stages", "text-tfidf,text-select"]) == 1
    assert "[text] enabled" in capsys.readouterr().err
    assert main(["run", "--config", str(cfg), "--seed", "-1"]) == 1
    assert "quantizer.seed must be a non-negative integer, got -1" in capsys.readouterr().err
    assert not (tmp_path / "w").exists()


def _prefix_ff(path, line):
    """Put a 0xff byte, which no UTF-8 text holds, at the start of line ``line``."""
    lines = path.read_bytes().split(b"\n")
    lines[line - 1] = b"\xff" + lines[line - 1]
    path.write_bytes(b"\n".join(lines))


@pytest.mark.parametrize("case", ["config", "manifest", "transcript", "posteriors", "audit"])
def test_undecodable_text_and_malformed_audit_header_are_clean_errors(
    case, corpus_dir, tmp_path, capsys
):
    """A config file that is not UTF-8 is a configuration error (exit 1). A
    manifest, transcript or posterior file that is not UTF-8, and an audit
    header whose pass count is not a number, are format errors naming the
    file and line (exit 2)."""
    corpus = tmp_path / "corpus"
    shutil.copytree(corpus_dir, corpus)
    cfg = _write_config(
        corpus, tmp_path / "work", tmp_path / "run.cfg", extra="[text]\nenabled = true\n"
    )
    argv, code = ["run", "--config", str(cfg)], 2
    if case == "config":
        path, line, code = cfg, 2, 1
    elif case == "manifest":
        path, line = corpus / "pool" / "pool.tsv", 3
    elif case == "transcript":
        path = Path(read_manifest(corpus / "pool" / "pool.tsv").utterances[0].transcript_file)
        line = 1
        argv += ["--stages", "text-tfidf"]
    elif case == "posteriors":
        stages = "train-gmm,quantize,tfidf,train-lda,posteriors"
        assert main(argv + ["--stages", stages]) == 0
        path, line = tmp_path / "work" / "post_dev.tsv", 2
        argv += ["--stages", "cluster"]
    if case == "audit":
        path = tmp_path / "bad.audit.tsv"
        path.write_text("# passes=abc\ttotal_hours=1\n", encoding="utf-8")
        argv = ["report", "--config", str(cfg), "--audit", str(path)]
        message = f"{path}:1: malformed audit header"
    else:
        _prefix_ff(path, line)
        message = f"{path}:{line}: not UTF-8 text"
    capsys.readouterr()
    assert main(argv) == code
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("edit", ["fields", "frames", "duplicate", "bytes"])
def test_a_manifest_made_malformed_after_a_cached_run_exits_two(
    edit, corpus_dir, tmp_path, capsys, settle
):
    """A settled cached run parses no manifest, yet a pool manifest edited
    into a malformed one is refused by the next ``run`` or ``sweep-lambda``,
    exit 2 naming the file and line, as a cold run refuses it."""
    settle(True)
    corpus = tmp_path / "corpus"
    shutil.copytree(corpus_dir, corpus)
    cfg = _write_config(corpus, tmp_path / "work", tmp_path / "run.cfg")
    commands = [["run", "--config", str(cfg)],
                ["sweep-lambda", "--config", str(cfg), "--lambdas", "0.5,1.0"]]
    for argv in commands:
        assert main(argv) == 0
    path = corpus / "pool" / "pool.tsv"
    lines = path.read_bytes().split(b"\n")
    fields = lines[2].split(b"\t")  # line 3, after the fps header
    if edit == "fields":
        lines[2] = b"\t".join(fields[:5])
        message = f"{path}:3: expected 6 or 7 tab-separated fields, got 5"
    elif edit == "frames":
        lines[2] = b"\t".join([*fields[:2], b"many", *fields[3:]])
        message = f"{path}:3: num_frames is not an integer: 'many'"
    elif edit == "duplicate":
        first = lines[1].split(b"\t")[0]
        lines[2] = b"\t".join([first, *fields[1:]])
        message = f"{path}: duplicate utterance id '{first.decode()}' (lines 2 and 3)"
    else:
        lines[2] = b"\xff" + lines[2]
        message = f"{path}:3: not UTF-8 text"
    path.write_bytes(b"\n".join(lines))
    capsys.readouterr()
    for argv in commands:
        assert main(argv) == 2
        assert message in capsys.readouterr().err


def test_exit_code_two_for_missing_artifacts(config_path, capsys):
    assert main(["run", "--config", str(config_path), "--stages", "select"]) == 2
    assert "earlier stages" in capsys.readouterr().err


@pytest.mark.parametrize("lda_source, stage, message", [
    ("dev", "train-lda", "cannot train on an all-empty corpus"),
    ("dev+pool", "cluster", "no posterior vectors to cluster"),
])
def test_header_only_dev_manifest_exits_two(
    lda_source, stage, message, corpus_dir, tmp_path, capsys
):
    """A dev manifest that lists no utterance gives no dev documents: the run
    stops with a stage error at the first stage that needs them."""
    shutil.copytree(corpus_dir / "pool", tmp_path / "corpus" / "pool")
    (tmp_path / "corpus" / "dev").mkdir()
    (tmp_path / "corpus" / "dev" / "dev.tsv").write_text("# fps=100\n", encoding="utf-8")
    path = _write_config(tmp_path / "corpus", tmp_path / "work", tmp_path / "run.cfg")
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace("[lda]\n", f"[lda]\ntrain_source = {lda_source}\n"),
                    encoding="utf-8")
    assert main(["run", "--config", str(path)]) == 2
    assert f"error: stage '{stage}': {message}" in capsys.readouterr().err


@pytest.mark.parametrize("kind, reason", [
    ("missing", "No such file or directory"), ("directory", "Is a directory"),
    ("fifo", "not a regular file"),
])
@pytest.mark.parametrize("which", ["pool", "dev"])
def test_a_manifest_that_is_not_a_file_exits_one(
    which, kind, reason, corpus_dir, tmp_path, capsys, deadline
):
    """The runner's one read of each manifest checks it: a missing path, a
    directory or a FIFO exits 1 at once, naming the setting and the reader's
    reason, before the work dir exists."""
    manifest = tmp_path / "manifest.tsv"
    if kind == "directory":
        manifest.mkdir()
    elif kind == "fifo":
        os.mkfifo(manifest)
    path = _write_config(corpus_dir, tmp_path / "work", tmp_path / "run.cfg")
    text = re.sub(rf"^{which}_manifest = .*$", f"{which}_manifest = {manifest}",
                  path.read_text(encoding="utf-8"), flags=re.M)
    path.write_text(text, encoding="utf-8")
    assert main(["run", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"error: paths.{which}_manifest: {reason}: {manifest}\n"
    assert not (tmp_path / "work").exists()


def test_a_manifest_read_failing_otherwise_exits_two(config_path, monkeypatch, capsys):
    """Any other failure to read a manifest is an I/O failure, exit 2."""

    def unreadable(path):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))

    monkeypatch.setattr(pipeline_module.corpus, "read_file", unreadable)
    assert main(["run", "--config", str(config_path)]) == 2
    assert os.strerror(errno.EACCES) in capsys.readouterr().err


def test_select_stage_runs_under_the_config_lambda(config_path, corpus_dir, tmp_path, capsys):
    """``run --stages select`` reruns selection alone under the config's λ;
    a λ out of range exits 1 before the work dir exists."""
    assert main(["run", "--config", str(config_path)]) == 0
    capsys.readouterr()
    cfg = _write_config(corpus_dir, tmp_path / "work", tmp_path / "wide.cfg", lam=1.0)
    assert main(["run", "--config", str(cfg), "--stages", "select"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "select: ran"
    audit = read_audit(tmp_path / "work" / "selection.audit.tsv")
    assert len(audit.selected) == 20  # permissive threshold takes the pool
    cfg = _write_config(corpus_dir, tmp_path / "w", tmp_path / "bad.cfg", lam=1.5)
    assert main(["run", "--config", str(cfg), "--stages", "select"]) == 1
    assert "distance threshold must be in (0, 1], got 1.5" in capsys.readouterr().err
    assert not (tmp_path / "w").exists()


def test_select_stage_runs_under_the_config_hour_budget(
    config_path, corpus_dir, tmp_path, capsys
):
    assert main(["run", "--config", str(config_path)]) == 0
    capsys.readouterr()
    budget = read_manifest(corpus_dir / "pool" / "pool.tsv").total_hours() / 2
    cfg = _write_config(corpus_dir, tmp_path / "work", tmp_path / "budget.cfg",
                        extra=f"max_hours = {budget!r}\n", lam=1.0)
    assert main(["run", "--config", str(cfg), "--stages", "select"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "select: ran"
    audit = read_audit(tmp_path / "work" / "selection.audit.tsv")
    assert 0 < len(audit.selected) < 20  # the budget, not the threshold, stopped it
    assert audit.total_hours <= budget


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_hour_budgets_exit_one(value, config_path, corpus_dir, tmp_path, capsys):
    """A NaN budget passed every ``<= 0`` check and selected the whole pool."""
    cfg = _write_config(corpus_dir, tmp_path / "work", tmp_path / "budget.cfg",
                        extra=f"max_hours = {value}\n")
    assert main(["run", "--config", str(cfg), "--stages", "select"]) == 1
    assert main(
        ["random-select", "--config", str(config_path), "--budget-hours", value]
    ) == 1
    assert capsys.readouterr().err.count("hour budget must be finite and positive") == 2
    assert not (tmp_path / "work").exists()


def test_seed_override_invalidates_cache(config_path, capsys):
    argv = ["run", "--config", str(config_path), "--stages", "train-gmm"]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv) == 0
    assert "train-gmm: skipped (cached)" in capsys.readouterr().out
    assert main(argv + ["--seed", "42"]) == 0
    assert "train-gmm: ran" in capsys.readouterr().out


def test_report_and_compare_commands(config_path, tmp_path, capsys):
    assert main(["run", "--config", str(config_path)]) == 0
    capsys.readouterr()
    tsv = tmp_path / "rep.tsv"
    assert main(
        ["report", "--config", str(config_path), "--out-tsv", str(tsv)]
    ) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].split() == ["domain", "selected_h", "pool_h", "percent"]
    assert tsv.is_file()

    audit = str(tmp_path / "work" / "selection.audit.tsv")
    assert main(
        ["compare", "--config", str(config_path),
         "--selection", f"greedy={audit}", "--target-domain", "domain0"]
    ) == 0
    out = capsys.readouterr().out
    assert out.startswith("target domain: domain0")
    assert "greedy" in out

    assert main(
        ["compare", "--config", str(config_path), "--selection", "noequals",
         "--target-domain", "domain0"]
    ) == 1
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--config", str(config_path), "--selection", f"g={audit}"])
    assert exc.value.code == 1
    assert "--target-domain" in capsys.readouterr().err


def test_random_select_and_combine(config_path, tmp_path, capsys):
    assert main(["run", "--config", str(config_path)]) == 0
    capsys.readouterr()
    assert main(
        ["random-select", "--config", str(config_path),
         "--budget-hours", "0.002", "--seed", "1"]
    ) == 0
    work = tmp_path / "work"
    rand = read_audit(work / "random_selection.audit.tsv")
    assert rand.selected
    assert rand.total_hours <= 0.002 + 1e-9
    assert (work / "random_selection.tsv").is_file()

    assert main(
        ["combine", "--config", str(config_path),
         "--a", str(work / "selection.audit.tsv"),
         "--b", str(work / "random_selection.audit.tsv")]
    ) == 0
    combined = read_audit(work / "selection_combined.audit.tsv")
    greedy = read_audit(work / "selection.audit.tsv")
    assert set(combined.ids()) == set(greedy.ids()) | set(rand.ids())


def test_stages_and_commands_that_read_only_the_pool_parse_only_the_pool(
    corpus_dir, tmp_path, monkeypatch, settle, capsys
):
    """The select, sweep, combine and report stages, and the random-select,
    combine, report and compare commands, read only the pool's utterances:
    over a settled work dir, each parses the pool manifest once and the dev
    manifest never."""
    settle(True)
    work = tmp_path / "work"
    text = "\n[text]\nenabled = true\n"
    config = str(_write_config(corpus_dir, work, tmp_path / "run.cfg", extra=text))
    relaxed = str(_write_config(corpus_dir, work, tmp_path / "relaxed.cfg", extra=text, lam=0.3))
    assert main(["run", "--config", config]) == 0
    capsys.readouterr()
    roles = []
    parse = pipeline_module.corpus.parse_manifest
    monkeypatch.setattr(pipeline_module.corpus, "parse_manifest",
                        lambda data, path, role: roles.append(role) or parse(data, path, role))
    audit = str(work / "selection.audit.tsv")
    for argv, ran in [
        (["run", "--config", relaxed], ["select", "text-select", "combine", "report"]),
        (["sweep-lambda", "--config", config, "--lambdas", "0.2,0.4"], []),
        (["random-select", "--config", config, "--budget-hours", "0.002"], []),
        (["combine", "--config", config, "--a", audit, "--b", audit], []),
        (["report", "--config", config], []),
        (["compare", "--config", config, "--selection", f"g={audit}",
          "--target-domain", "domain0"], []),
    ]:
        roles.clear()
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert [line.split(":")[0] for line in out.splitlines() if line.endswith(": ran")] == ran
        assert roles == ["pool"], argv[0]
    assert (work / "sweep_summary.tsv").is_file()  # the sweep stage ran, as no earlier one did


def _tree(root: Path) -> dict[str, tuple[bytes, int]]:
    return {str(p): (p.read_bytes(), p.stat().st_mtime_ns) for p in root.rglob("*") if p.is_file()}


@pytest.mark.parametrize("prefix, message", [
    ("", "must be a file name in the work dir, not ''"),
    (".", "must be a file name in the work dir, not '.'"),
    ("..", "must be a file name in the work dir, not '..'"),
    ("../escaped", "must be a file name in the work dir, not '../escaped'"),
    ("{tmp}/absolute", "must be a file name in the work dir, not '{tmp}/absolute'"),
    ("selection", "would write selection.audit.tsv, a name of the pipeline's outputs"),
    ("report", "would write report.tsv, a name"),
    ("post_pool", "would write post_pool.tsv, a name"),
    ("sweep_summary", "would write sweep_summary.tsv, a name"),
    ("selection_lambda_0p5", "would write selection_lambda_0p5.audit.tsv, a name"),
    ("selection_lambda_x.audit", "would write selection_lambda_x.audit.audit.tsv, a name"),
    ("report_lambda_0p3", "would write report_lambda_0p3.audit.tsv, a name"),
])
def test_an_out_prefix_outside_the_work_dir_or_over_its_files_exits_one(
    prefix, message, config_path, tmp_path, capsys
):
    """``random-select`` and ``combine`` refuse such a prefix before they
    lock or write anything; a plain new name still works."""
    assert main(["run", "--config", str(config_path)]) == 0
    assert main(["sweep-lambda", "--config", str(config_path), "--lambdas", "0.3"]) == 0
    audit = str(tmp_path / "work" / "selection.audit.tsv")
    commands = [["random-select", "--budget-hours", "0.002"], ["combine", "--a", audit, "--b", audit]]
    before = _tree(tmp_path)
    capsys.readouterr()
    for command in commands:
        argv = [*command, "--config", str(config_path), "--out-prefix", prefix.format(tmp=tmp_path)]
        assert main(argv) == 1
        assert message.format(tmp=tmp_path) in capsys.readouterr().err
        assert _tree(tmp_path) == before
    for command in commands:
        assert main([*command, "--config", str(config_path), "--out-prefix", "mine"]) == 0
        assert (tmp_path / "work" / "mine.tsv").is_file()
        assert (tmp_path / "work" / "mine.audit.tsv").is_file()


def test_combine_refuses_an_audit_listing_an_utterance_twice(config_path, tmp_path, capsys):
    """Such an audit would give a combined manifest that cannot be read
    back; ``combine`` exits 2 and writes nothing."""
    assert main(["run", "--config", str(config_path)]) == 0
    work = tmp_path / "work"
    lines = (work / "selection.audit.tsv").read_text(encoding="utf-8").splitlines(True)
    dup = tmp_path / "dup.audit.tsv"
    dup.write_text("".join(lines + lines[1:2]), encoding="utf-8")
    first_id = lines[1].split("\t")[0]
    capsys.readouterr()
    assert main(["combine", "--config", str(config_path), "--a", str(dup), "--b", str(dup)]) == 2
    assert f"duplicate utterance id '{first_id}' (lines 2 and {len(lines) + 1})" in (
        capsys.readouterr().err
    )
    assert not (work / "selection_combined.tsv").exists()


def test_selection_commands_leave_no_truncated_output(config_path, tmp_path, monkeypatch):
    """``random-select`` and ``combine`` that fail while writing leave each
    output name as it was (here: absent) and no temporary file."""
    assert main(["run", "--config", str(config_path)]) == 0
    work = tmp_path / "work"
    audit = str(work / "selection.audit.tsv")

    def half_then_fail(manifest, path):
        path.write_text("# fps=100\n", encoding="utf-8")
        raise OSError("injected failure while writing a selection manifest")

    monkeypatch.setattr(pipeline_module.corpus, "write_manifest", half_then_fail)
    before = sorted(work.iterdir())
    for argv in (
        ["random-select", "--budget-hours", "0.002"],
        ["combine", "--a", audit, "--b", audit],
    ):
        assert main(argv + ["--config", str(config_path)]) == 2
        assert sorted(work.iterdir()) == before


def test_combine_respects_work_dir_lock(config_path, tmp_path, capsys):
    assert main(["run", "--config", str(config_path)]) == 0
    work = tmp_path / "work"
    capsys.readouterr()
    audit = str(work / "selection.audit.tsv")
    with open(work / ".lock", "ab") as held:  # another run's hold on the lock
        fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)
        assert main(
            ["combine", "--config", str(config_path), "--a", audit, "--b", audit,
             "--out-prefix", "locked"]
        ) == 2
    assert "locked" in capsys.readouterr().err
    assert not list(work.glob("locked*"))


def test_sweep_lambda_command(config_path, tmp_path, capsys):
    assert main(
        ["sweep-lambda", "--config", str(config_path), "--lambdas", "0.1,1.0"]
    ) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].split() == [
        "lambda", "selected", "hours", "percent", "passes"
    ]
    assert (tmp_path / "work" / "sweep_summary.tsv").is_file()
    assert main(
        ["sweep-lambda", "--config", str(config_path), "--lambdas", "0.1,huge"]
    ) == 1
    assert main(
        ["sweep-lambda", "--config", str(config_path), "--lambdas", ""]
    ) == 1


def test_repeated_sweep_command_prints_the_same_rows_and_failures_exit_2(
    config_path, tmp_path, capsys
):
    """A repeated sweep prints the rows of the first; an out-of-range
    threshold is a usage error (1), a sweep that cannot publish its files is
    a stage error (2), and so is a summary path that is not a regular file,
    which is refused before any stage runs."""
    sweep = ["sweep-lambda", "--config", str(config_path), "--lambdas", "0.1,1.0"]
    assert main(sweep) == 0
    first = capsys.readouterr().out
    assert main(sweep) == 0
    assert capsys.readouterr().out == first
    assert main(sweep[:-1] + ["0.0,1.0"]) == 1
    for name, error in (("selection_lambda_0p1.audit.tsv", "stage 'sweep'"),
                        ("sweep_summary.tsv", "Is a directory")):
        blocked = tmp_path / "work" / name
        blocked.unlink()
        blocked.mkdir()
        assert main(sweep) == 2
        assert error in capsys.readouterr().err


def test_log_level_option(config_path, caplog):
    def stage_lines():
        return [
            r for r in caplog.records
            if r.name.startswith("ldaselect") and r.getMessage().startswith("stage ")
        ]

    caplog.set_level(logging.DEBUG)
    assert main(["--log-level", "WARNING", "run", "--config", str(config_path)]) == 0
    assert stage_lines() == []
    caplog.clear()
    assert main(["run", "--config", str(config_path)]) == 0  # default INFO
    lines = stage_lines()
    assert "stage select: skipped (cached)" in [r.getMessage() for r in lines]
    assert {r.levelno for r in lines} == {logging.INFO}
    with pytest.raises(SystemExit):
        main(["--log-level", "LOUD", "run", "--config", str(config_path)])


def test_main_restores_the_package_log_level(config_path):
    """``--log-level`` holds for the command only: afterwards the
    ``ldaselect`` logger has the level it had before, on success and on error."""
    logger = logging.getLogger("ldaselect")
    before = logger.level
    try:
        logger.setLevel(logging.ERROR)
        assert main(["--log-level", "DEBUG", "run", "--config", str(config_path)]) == 0
        assert logger.level == logging.ERROR
        assert main(["run", "--config", str(config_path) + ".missing"]) != 0
        assert logger.level == logging.ERROR
    finally:
        logger.setLevel(before)


def _write_version_1_docs(path: Path) -> None:
    """Rewrite the ``.adoc`` file ``path`` in the layout of document container
    version 1: no vocabulary size in the header, and an int32 count per entry
    between the terms and the weights."""
    docs = load_docs(path)
    ids = "".join(i + "\n" for i in docs.ids).encode("utf-8")
    counts = np.maximum(np.rint(docs.weights), 1)
    path.write_bytes(
        struct.pack("<4sIQQQ", b"ADOC", 1, len(docs), docs.terms.size, len(ids)) + ids
        + b"".join(a.astype(dt).tobytes() for a, dt in (
            (docs.indptr, "<i8"), (docs.terms, "<i4"), (counts, "<i4"), (docs.weights, "<f8")))
    )


def _write_version_2_docs(path: Path) -> None:
    """Rewrite the ``.adoc`` file ``path`` as document container version 2
    wrote it: the same layout, every weight rounded to nine significant
    digits."""
    data = path.read_bytes()
    rounded = np.array([float(f"{w:.9g}") for w in load_docs(path).weights.tolist()], "<f8")
    path.write_bytes(data[:4] + struct.pack("<I", 2) + data[8:len(data) - rounded.nbytes]
                     + rounded.tobytes())


@pytest.mark.parametrize("version", [1, 2], ids=["version-1", "version-2"])
def test_a_work_dir_of_old_documents_reruns_to_the_outputs_of_a_cold_run(
    corpus_dir, tmp_path, caplog, monkeypatch, version
):
    """A text-enabled work dir whose ``.adoc`` files are of an older version,
    with the cache entries such a work dir holds, reruns each stage that
    writes a file of an older format or reads an older ``.adoc``, and exits 0
    with a cold run's files: no stage skips onto an old file that a later
    stage cannot read. Version 1 work dirs have no ``format`` parts,
    ``quantizer.n_components`` declared by ``tfidf`` and ``train-lda`` and
    ``text_vocab.tsv`` an input of ``text-train-lda``; version 2 work dirs
    have the current parts with ``format <file>`` 2 for each ``.adoc``."""
    declared = {}
    parts_of = pipeline_module.Runner._parts

    def recording(runner, name, stage):
        declared[name] = parts = parts_of(runner, name, stage)
        return parts

    monkeypatch.setattr(pipeline_module.Runner, "_parts", recording)
    text = "[text]\nenabled = true\n"
    cold = _write_config(corpus_dir, tmp_path / "cold", tmp_path / "cold.cfg", text)
    assert main(["run", "--config", str(cold)]) == 0
    work = tmp_path / "old"
    shutil.copytree(tmp_path / "cold", work)
    (work / "signatures.json").unlink()
    for path in work.glob("*.adoc"):
        (_write_version_1_docs if version == 1 else _write_version_2_docs)(path)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in work.iterdir()}
    cache_path = work / "cache.json"
    cache = json.loads(cache_path.read_text(encoding="utf-8"))
    for stage, entry in cache.items():
        parts = {p: digests[p.removeprefix("input ")] if p.startswith("input ") else v
                 for p, v in declared[stage].items()}
        if version == 2:
            parts |= {p: "2" for p in parts if p.startswith("format ") and p.endswith(".adoc")}
        else:
            parts = {p: v for p, v in parts.items() if not p.startswith("format ")}
            if stage in ("tfidf", "train-lda"):  # the last setting; neither reads the corpus
                parts["quantizer.n_components"] = "2"
            if stage == "text-train-lda":  # the third input
                items = list(parts.items())
                parts = dict(items[:2] + [("input text_vocab.tsv", digests["text_vocab.tsv"])]
                             + items[2:])
        entry |= {"parts": parts, "outputs": {o: digests[o] for o in entry["outputs"]}}
    cache_path.write_text(json.dumps(cache), encoding="utf-8")

    old = _write_config(corpus_dir, work, tmp_path / "old.cfg", text)
    caplog.clear()
    caplog.set_level(logging.INFO, logger="ldaselect.pipeline")
    assert main(["run", "--config", str(old)]) == 0
    running = {m.split()[1].rstrip(":"): m for m in caplog.messages if ": running (" in m}
    old_formats = (".agmm", ".adoc", ".alda") if version == 1 else (".adoc",)
    stale = {stage: [o for o in entry["outputs"] if o.endswith(old_formats)]
             for stage, entry in cache.items()}
    for stage, outputs in stale.items():
        for o in outputs:
            assert f"format {o} changed" in running[stage]
    reads_docs = {s for s, parts in declared.items()
                  if any(p.startswith("input ") and p.endswith(".adoc") for p in parts)}
    assert set(running) == {s for s, o in stale.items() if o} | reads_docs
    for path in (tmp_path / "cold").iterdir():
        if path.name != "signatures.json":
            assert (work / path.name).read_bytes() == path.read_bytes(), path.name


def test_a_work_dir_of_spherical_era_cache_entries_reruns_only_the_cluster_stages(
    corpus_dir, tmp_path, caplog, capsys
):
    """A text-enabled work dir whose cache entries hold a ``key`` and, for
    the two cluster stages, a ``cluster.spherical`` part, and whose
    ``centroids.meta.json`` files hold a ``spherical`` key, as work dirs of
    the spherical k-means option were written: a rerun runs exactly
    ``cluster`` and ``text-cluster``, each for the setting it no longer
    declares, and leaves a cold run's files. A config that still sets the
    option, or trains the topic model on the pool alone, exits 1."""
    text = "[text]\nenabled = true\n"
    cold = _write_config(corpus_dir, tmp_path / "cold", tmp_path / "cold.cfg", text)
    assert main(["run", "--config", str(cold)]) == 0
    work = tmp_path / "old"
    shutil.copytree(tmp_path / "cold", work)
    cache = json.loads((work / "cache.json").read_text(encoding="utf-8"))
    for stage, entry in cache.items():
        parts = entry["parts"]
        if stage.endswith("cluster"):
            meta = f"{stage.removesuffix('cluster').replace('-', '_')}centroids.meta.json"
            data = json.loads((work / meta).read_text(encoding="utf-8")) | {"spherical": False}
            (work / meta).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n",
                                     encoding="utf-8")
            entry["outputs"][meta] = hashlib.sha256((work / meta).read_bytes()).hexdigest()
            parts = {**parts, "cluster.spherical": "False"}
        entry["parts"] = parts
        entry["key"] = hashlib.sha256(json.dumps(parts).encode()).hexdigest()
    (work / "cache.json").write_text(json.dumps(cache), encoding="utf-8")

    old = _write_config(corpus_dir, work, tmp_path / "old.cfg", text)
    caplog.clear()
    caplog.set_level(logging.INFO, logger="ldaselect.pipeline")
    capsys.readouterr()
    assert main(["run", "--config", str(old)]) == 0
    running = [m for m in caplog.messages if ": running (" in m]
    assert running == [f"stage {s}: running (cluster.spherical False -> (undeclared))"
                       for s in ("cluster", "text-cluster")]
    out = capsys.readouterr().out
    assert out.count(": ran\n") == 2 and out.count(": skipped (cached)\n") == len(cache) - 2
    for path in (tmp_path / "cold").iterdir():
        if path.name not in ("signatures.json", "cache.json"):
            assert (work / path.name).read_bytes() == path.read_bytes(), path.name
    # A skipped stage's entry keeps its key, which nothing reads.
    rerun = json.loads((work / "cache.json").read_text(encoding="utf-8"))
    assert {s: {k: v for k, v in e.items() if k != "key"} for s, e in rerun.items()} == (
        json.loads((tmp_path / "cold" / "cache.json").read_text(encoding="utf-8")))

    for section, line, message in (
        ("[cluster]\n", "spherical = false", "unknown key 'spherical' in section [cluster]"),
        ("[lda]\n", "train_source = pool",
         "lda.train_source must be one of ('dev', 'dev+pool'), got 'pool'"),
    ):
        bad = tmp_path / "bad.cfg"
        bad.write_text(cold.read_text(encoding="utf-8").replace(section, f"{section}{line}\n")
                       .replace(str(tmp_path / "cold"), str(tmp_path / "w")), encoding="utf-8")
        assert main(["run", "--config", str(bad)]) == 1
        assert message in capsys.readouterr().err
    assert not (tmp_path / "w").exists()


def test_a_work_dir_of_init_subsample_era_cache_entries_reruns_train_gmm_and_what_it_feeds(
    corpus_dir, tmp_path, caplog, capsys, monkeypatch
):
    """A text-enabled work dir written when k-means++ seeding sampled a fixed
    ``init_subsample`` of 200,000 frames, that is every frame here, and
    whose ``train-gmm`` entry holds a ``quantizer.init_subsample`` part: a
    rerun runs ``train-gmm`` for the setting it no longer declares, then
    exactly the stages with an input that the new seeding changed, and
    leaves a cold run's files. A config that still sets the option exits 1."""
    text = "[text]\nenabled = true\n"
    cold = _write_config(corpus_dir, tmp_path / "cold", tmp_path / "cold.cfg", text)
    assert main(["run", "--config", str(cold)]) == 0
    work = tmp_path / "old"
    old = _write_config(corpus_dir, work, tmp_path / "old.cfg", text)
    with monkeypatch.context() as mp:  # 200,000 frames at n_components = 2
        mp.setattr(gmm_module, "_SEED_FRAMES_PER_COMPONENT", 100_000)
        assert main(["run", "--config", str(old)]) == 0
    cache = json.loads((work / "cache.json").read_text(encoding="utf-8"))
    cache["train-gmm"]["parts"]["quantizer.init_subsample"] = "200000"
    (work / "cache.json").write_text(json.dumps(cache), encoding="utf-8")
    changed = {p.name for p in (tmp_path / "cold").iterdir()
               if (work / p.name).read_bytes() != p.read_bytes()}
    changed -= {"cache.json", "signatures.json"}
    assert "gmm.agmm" in changed

    caplog.clear()
    caplog.set_level(logging.INFO, logger="ldaselect.pipeline")
    capsys.readouterr()
    assert main(["run", "--config", str(old)]) == 0
    running = {m.split()[1].rstrip(":"): set(m.split(": running (", 1)[1][:-1].split("; "))
               for m in caplog.messages if ": running (" in m}
    fed = {s: {f"input {o} changed" for o in changed if f"input {o}" in entry["parts"]}
           for s, entry in cache.items()}
    assert running == {"train-gmm": {"quantizer.init_subsample 200000 -> (undeclared)"}} | {
        s: why for s, why in fed.items() if why}
    assert capsys.readouterr().out.count(": ran\n") == len(running) < len(cache)
    for path in (tmp_path / "cold").iterdir():
        if path.name != "signatures.json":
            assert (work / path.name).read_bytes() == path.read_bytes(), path.name

    bad = tmp_path / "bad.cfg"
    bad.write_text(cold.read_text(encoding="utf-8").replace(
        "[quantizer]\n", "[quantizer]\ninit_subsample = 200000\n").replace(
        str(tmp_path / "cold"), str(tmp_path / "w")), encoding="utf-8")
    assert main(["run", "--config", str(bad)]) == 1
    assert "unknown key 'init_subsample' in section [quantizer]" in capsys.readouterr().err
    assert not (tmp_path / "w").exists()


# The settings that became module constants, with the parts that a work dir
# cached before then records for them, by the stages that declared them.
_CONSTANT_ERA_PARTS = {
    "train-gmm": {"quantizer.tol": "1e-05", "quantizer.var_floor_scale": "0.001"},
    "train-lda": {"lda.em_tol": "1e-05", "lda.eta": "0.01"},
    "text-train-lda": {"lda.em_tol": "1e-05", "lda.eta": "0.01"},
    "cluster": {"cluster.max_iterations": "100"},
    "text-cluster": {"cluster.max_iterations": "100"},
}


def test_a_work_dir_that_cached_the_settings_now_constants_reruns_only_their_stages(
    corpus_dir, tmp_path, caplog, capsys
):
    """A text-enabled work dir whose cache entries still record
    ``quantizer.tol``, ``quantizer.var_floor_scale``, ``lda.em_tol``,
    ``lda.eta`` and ``cluster.max_iterations``, at the values their constants
    keep: a rerun runs exactly the stages that declared them, each for the
    settings it no longer declares, and leaves a cold run's files, cache
    included. A config that still sets one of them exits 1."""
    text = "[text]\nenabled = true\n"
    cold = _write_config(corpus_dir, tmp_path / "cold", tmp_path / "cold.cfg", text)
    assert main(["run", "--config", str(cold)]) == 0
    work = tmp_path / "old"
    old = _write_config(corpus_dir, work, tmp_path / "old.cfg", text)
    assert main(["run", "--config", str(old)]) == 0
    cache = json.loads((work / "cache.json").read_text(encoding="utf-8"))
    for stage, parts in _CONSTANT_ERA_PARTS.items():
        cache[stage]["parts"] |= parts
    (work / "cache.json").write_text(json.dumps(cache), encoding="utf-8")

    caplog.clear()
    caplog.set_level(logging.INFO, logger="ldaselect.pipeline")
    capsys.readouterr()
    assert main(["run", "--config", str(old)]) == 0
    running = {m.split()[1].rstrip(":"): set(m.split(": running (", 1)[1][:-1].split("; "))
               for m in caplog.messages if ": running (" in m}
    assert running == {
        stage: {f"{p} {v} -> (undeclared)" for p, v in parts.items()}
        for stage, parts in _CONSTANT_ERA_PARTS.items()
    }
    assert capsys.readouterr().out.count(": ran\n") == len(running) < len(cache)
    for path in (tmp_path / "cold").iterdir():
        if path.name != "signatures.json":
            assert (work / path.name).read_bytes() == path.read_bytes(), path.name

    settings = {p: v for parts in _CONSTANT_ERA_PARTS.values() for p, v in parts.items()}
    for setting, value in settings.items():
        section, key = setting.split(".")
        bad = tmp_path / "bad.cfg"
        bad.write_text(cold.read_text(encoding="utf-8").replace(
            f"[{section}]\n", f"[{section}]\n{key} = {value}\n").replace(
            str(tmp_path / "cold"), str(tmp_path / "w")), encoding="utf-8")
        assert main(["run", "--config", str(bad)]) == 1
        assert f"unknown key '{key}' in section [{section}]" in capsys.readouterr().err
        assert not (tmp_path / "w").exists()


def test_version_and_bad_command():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    with pytest.raises(SystemExit):
        main(["definitely-not-a-command"])


@pytest.mark.parametrize("argv", [
    ["synth"],
    ["synth", "--out", "d", "--domains", "two"],
    ["definitely-not-a-command"],
    ["select", "--config", "run.cfg"],
    ["--log-level", "LOUD", "run"],
], ids=" ".join)
def test_usage_errors_exit_one(argv, tmp_path, monkeypatch, capsys):
    """A usage error is invalid input, exit code 1, as the README says:
    argparse's own code 2 would read as a runtime failure. The per-stage
    commands and ``synth`` are gone, so ``select`` and ``synth`` are unknown
    commands."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "ldaselect" in capsys.readouterr().err and not list(tmp_path.iterdir())
