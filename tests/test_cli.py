import pytest

from ldaselect.cli import main
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


def test_combine_respects_work_dir_lock(config_path, tmp_path, capsys):
    assert main(["run", "--config", str(config_path)]) == 0
    work = tmp_path / "work"
    (work / ".lock").write_text("12345\n", encoding="utf-8")
    capsys.readouterr()
    audit = str(work / "selection.audit.tsv")
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


def test_version_and_bad_command():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    with pytest.raises(SystemExit):
        main(["definitely-not-a-command"])
