import fcntl
import logging
import shutil
from pathlib import Path

import pytest

from ldaselect import pipeline as pipeline_module
from ldaselect.cli import main
from ldaselect.corpus import read_manifest
from ldaselect.selection import read_audit


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("clicorpus")
    args = [
        "--domains", "2", "--frames-min", "30", "--frames-max", "50",
        "--with-transcripts", "--seed", "3",
    ]
    assert main(
        ["synth", "--out", str(root / "pool"), "--utts-per-domain", "10"] + args
    ) == 0
    assert main(
        ["synth", "--out", str(root / "dev"), "--utts-per-domain", "3",
         "--role", "dev", "--id-prefix", "dev_"] + args
    ) == 0
    return root


def _write_config(corpus_dir, work_dir, path, extra=""):
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

[selection]
lambda = 0.6

[docmodel]
text_vocab_cap = 64
{extra}""",
        encoding="utf-8",
    )
    return path


@pytest.fixture
def config_path(corpus_dir, tmp_path):
    return _write_config(corpus_dir, tmp_path / "work", tmp_path / "run.cfg")


def test_synth_is_deterministic(tmp_path, capsys):
    args = [
        "--domains", "2", "--utts-per-domain", "4", "--seed", "9",
        "--with-transcripts",
    ]
    assert main(["synth", "--out", str(tmp_path / "a")] + args) == 0
    assert main(["synth", "--out", str(tmp_path / "b")] + args) == 0
    out = capsys.readouterr().out
    assert out.count("wrote 8 utterances") == 2
    assert (tmp_path / "a" / "pool.tsv").read_bytes() == (
        tmp_path / "b" / "pool.tsv"
    ).read_bytes()
    manifest = (tmp_path / "a" / "pool.tsv").read_text().splitlines()
    first = manifest[1].split("\t")[1]
    assert (tmp_path / "a" / first).read_bytes() == (tmp_path / "b" / first).read_bytes()


@pytest.mark.parametrize("flags", [
    ["--domains", "0"], ["--utts-per-domain", "0"], ["--frame-dim", "0"], ["--components", "0"],
    ["--frames-min", "-1"], ["--frames-min", "9", "--frames-max", "8"],
    ["--words-per-domain", "0", "--with-transcripts"],
    ["--separation", "nan"], ["--separation", "inf"],
    ["--fps", "0"], ["--fps", "nan"], ["--fps", "inf"], ["--fps", "1e-320"],
], ids=" ".join)
def test_synth_rejects_a_bad_recipe_before_writing(flags, tmp_path, capsys):
    """A recipe field that cannot give a readable corpus exits 1 with an
    ``error:`` line, no traceback, and no output directory."""
    assert main(["synth", "--out", str(tmp_path / "out")] + flags) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


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
    capsys.readouterr()
    cfg = _write_config(corpus_dir, tmp_path / "w", tmp_path / "acoustic.cfg")
    assert main(["run", "--config", str(cfg), "--stages", "text-tfidf,text-select"]) == 1
    assert "[text] enabled" in capsys.readouterr().err


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
        argv = ["cluster", "--config", str(cfg)]
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


def test_exit_code_two_for_missing_artifacts(config_path, capsys):
    assert main(["select", "--config", str(config_path)]) == 2
    assert "earlier stages" in capsys.readouterr().err


def test_stage_commands_and_lambda_override(config_path, tmp_path, capsys):
    assert main(["run", "--config", str(config_path)]) == 0
    capsys.readouterr()
    assert main(
        ["select", "--config", str(config_path), "--lambda", "1.0"]
    ) == 0
    assert "select: ran" in capsys.readouterr().out
    audit = read_audit(tmp_path / "work" / "selection.audit.tsv")
    assert len(audit.selected) == 20  # permissive threshold takes the pool
    assert main(
        ["select", "--config", str(config_path), "--lambda", "1.5"]
    ) == 1


def test_select_max_hours_override(config_path, corpus_dir, tmp_path, capsys):
    assert main(["run", "--config", str(config_path)]) == 0
    capsys.readouterr()
    budget = read_manifest(corpus_dir / "pool" / "pool.tsv").total_hours() / 2
    assert main(
        ["select", "--config", str(config_path), "--lambda", "1.0",
         "--max-hours", repr(budget)]
    ) == 0
    assert "select: ran" in capsys.readouterr().out
    audit = read_audit(tmp_path / "work" / "selection.audit.tsv")
    assert 0 < len(audit.selected) < 20  # the budget, not the threshold, stopped it
    assert audit.total_hours <= budget


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_hour_budgets_exit_one(value, config_path, tmp_path, capsys):
    """A NaN budget passed every ``<= 0`` check and selected the whole pool."""
    assert main(["select", "--config", str(config_path), "--max-hours", value]) == 1
    assert main(
        ["random-select", "--config", str(config_path), "--budget-hours", value]
    ) == 1
    assert capsys.readouterr().err.count("hour budget must be finite and positive") == 2
    assert not (tmp_path / "work").exists()


def test_seed_override_invalidates_cache(config_path, capsys):
    assert main(["train-gmm", "--config", str(config_path)]) == 0
    capsys.readouterr()
    assert main(["train-gmm", "--config", str(config_path)]) == 0
    assert "train-gmm: skipped (cached)" in capsys.readouterr().out
    assert main(["train-gmm", "--config", str(config_path), "--seed", "42"]) == 0
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
        ["compare", "--config", str(config_path), "--selection", "noequals"]
    ) == 1
    assert main(
        ["compare", "--config", str(config_path), "--selection", f"g={audit}"]
    ) == 1  # no target domain anywhere


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
    threshold is a usage error (1), and a sweep that cannot publish its files
    is a stage error (2)."""
    sweep = ["sweep-lambda", "--config", str(config_path), "--lambdas", "0.1,1.0"]
    assert main(sweep) == 0
    first = capsys.readouterr().out
    assert main(sweep) == 0
    assert capsys.readouterr().out == first
    assert main(sweep[:-1] + ["0.0,1.0"]) == 1
    summary = tmp_path / "work" / "sweep_summary.tsv"
    summary.unlink()
    summary.mkdir()
    assert main(sweep) == 2
    assert "stage 'sweep'" in capsys.readouterr().err


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


def test_version_and_bad_command():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    with pytest.raises(SystemExit):
        main(["definitely-not-a-command"])
