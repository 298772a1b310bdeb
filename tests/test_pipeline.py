import json
import logging
import shutil

import pytest

from ldaselect.config import PipelineConfig
from ldaselect.corpus import (
    generate_synthetic_corpus,
    make_separated_spec,
    read_features,
    read_manifest,
    write_features,
)
from ldaselect.errors import StageError, ValidationError
from ldaselect.pipeline import (
    Runner,
    run_pipeline,
    stage_order,
    sweep_lambda,
)
from ldaselect.report import report
from ldaselect.selection import read_audit

ACOUSTIC_ARTIFACTS = [
    "gmm.agmm", "quantized_pool.tsv", "quantized_dev.tsv",
    "weighted_pool.tsv", "weighted_dev.tsv", "lda.alda",
    "post_pool.tsv", "post_dev.tsv", "centroids.tsv", "centroids.meta.json",
    "selection.audit.tsv", "selection.tsv", "report.tsv", "report.txt",
]


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    pool_spec = make_separated_spec(
        2, 12, with_transcripts=True, frames_range=(30, 50), role="pool"
    )
    generate_synthetic_corpus(pool_spec, seed=11, out_dir=root / "pool")
    dev_spec = make_separated_spec(
        2, 4, with_transcripts=True, frames_range=(30, 50), role="dev",
        id_prefix="dev_",
    )
    generate_synthetic_corpus(dev_spec, seed=12, out_dir=root / "dev")
    return root


def _config(corpus_dir, work_dir, text=False) -> PipelineConfig:
    config = PipelineConfig()
    config.paths.pool_manifest = str(corpus_dir / "pool" / "pool.tsv")
    config.paths.dev_manifest = str(corpus_dir / "dev" / "dev.tsv")
    config.paths.work_dir = str(work_dir)
    config.quantizer.n_components = 2
    config.quantizer.max_iterations = 10
    config.lda.n_topics = 2
    config.lda.alpha = 0.1
    config.lda.em_max_iterations = 15
    config.cluster.n_clusters = 2
    config.selection.threshold = 0.6
    config.docmodel.text_vocab_cap = 64
    if text:
        config.text.enabled = True
    return config


def test_full_acoustic_run(tmp_path, corpus_dir):
    config = _config(corpus_dir, tmp_path / "work")
    result = run_pipeline(config)
    assert set(result.skipped) == set(stage_order(False))
    assert not any(result.skipped.values())
    for name in ACOUSTIC_ARTIFACTS:
        assert (tmp_path / "work" / name).is_file(), name
    assert result.selection.selected
    on_disk = read_audit(tmp_path / "work" / "selection.audit.tsv")
    assert on_disk.ids() == result.selection.ids()

    # The selection manifest is itself a loadable manifest of selected files.
    sel_manifest = read_manifest(tmp_path / "work" / "selection.tsv")
    assert sel_manifest.ids() == result.selection.ids()
    read_features(sel_manifest.utterances[0], sel_manifest.base_dir)
    assert not (tmp_path / "work" / ".lock").exists()


def test_rerun_skips_everything_and_output_stable(tmp_path, corpus_dir):
    config = _config(corpus_dir, tmp_path / "work")
    run_pipeline(config)
    before = (tmp_path / "work" / "selection.audit.tsv").read_bytes()
    result = run_pipeline(config)
    assert all(result.skipped.values())
    assert (tmp_path / "work" / "selection.audit.tsv").read_bytes() == before


def test_identical_runs_in_fresh_work_dirs_agree(tmp_path, corpus_dir):
    r1 = run_pipeline(_config(corpus_dir, tmp_path / "w1"))
    r2 = run_pipeline(_config(corpus_dir, tmp_path / "w2"))
    assert r1.selection.ids() == r2.selection.ids()
    for name in ("selection.audit.tsv", "selection.tsv", "centroids.tsv",
                 "post_pool.tsv", "report.tsv"):
        assert (tmp_path / "w1" / name).read_bytes() == (
            tmp_path / "w2" / name
        ).read_bytes(), name


def test_changed_input_invalidates_cache(tmp_path, corpus_dir):
    import shutil

    local = tmp_path / "corpus"
    shutil.copytree(corpus_dir, local)
    config = _config(local, tmp_path / "work")
    run_pipeline(config)

    manifest = read_manifest(config.paths.pool_manifest)
    victim = manifest.utterances[0]
    frames = read_features(victim, manifest.base_dir)
    write_features(frames + 0.25, local / "pool" / victim.feature_path)
    result = run_pipeline(config)
    assert result.skipped["train-gmm"] is False
    assert result.skipped["quantize"] is False


def test_config_change_invalidates_only_downstream(tmp_path, corpus_dir):
    config = _config(corpus_dir, tmp_path / "work")
    full = run_pipeline(config)
    config.selection.max_hours = full.selection.total_hours / 2.0
    result = run_pipeline(config)
    assert result.skipped["train-gmm"] is True
    assert result.skipped["cluster"] is True
    assert result.skipped["select"] is False
    assert result.skipped["report"] is False
    assert len(result.selection.selected) < len(full.selection.selected)


def test_validation_errors_precede_work_dir_creation(tmp_path, corpus_dir):
    work = tmp_path / "never_created"
    config = _config(corpus_dir, work)
    config.selection.threshold = 0.0
    with pytest.raises(ValidationError):
        run_pipeline(config)
    assert not work.exists()


def test_lock_conflict_and_release(tmp_path, corpus_dir):
    work = tmp_path / "work"
    config = _config(corpus_dir, work)
    work.mkdir()
    (work / ".lock").write_text("12345\n", encoding="utf-8")
    with pytest.raises(StageError) as exc:
        run_pipeline(config)
    assert "lock" in str(exc.value)
    (work / ".lock").unlink()
    run_pipeline(config)
    assert not (work / ".lock").exists()


def test_stage_subset_and_missing_inputs(tmp_path, corpus_dir):
    config = _config(corpus_dir, tmp_path / "work")
    with pytest.raises(StageError) as exc:
        run_pipeline(config, stages=["select"])
    assert "earlier stages" in str(exc.value)
    with pytest.raises(ValidationError):
        run_pipeline(config, stages=["no-such-stage"])

    result = run_pipeline(config, stages=["train-gmm"])
    assert list(result.skipped) == ["train-gmm"]
    assert (tmp_path / "work" / "gmm.agmm").is_file()
    result = run_pipeline(config, stages=["quantize", "tfidf"])
    assert list(result.skipped) == ["quantize", "tfidf"]


def test_text_path_produces_union_selection(tmp_path, corpus_dir):
    config = _config(corpus_dir, tmp_path / "work", text=True)
    result = run_pipeline(config)
    work = tmp_path / "work"
    for name in (
        "selection_acoustic.audit.tsv", "text_vocab.tsv", "text_weighted_pool.tsv",
        "text_lda.alda", "text_post_pool.tsv", "text_centroids.tsv",
        "selection_text.audit.tsv", "selection.audit.tsv", "selection.tsv",
    ):
        assert (work / name).is_file(), name
    acoustic = read_audit(work / "selection_acoustic.audit.tsv")
    text_sel = read_audit(work / "selection_text.audit.tsv")
    combined = read_audit(work / "selection.audit.tsv")
    assert set(combined.ids()) == set(acoustic.ids()) | set(text_sel.ids())
    assert result.selection.ids() == combined.ids()


def test_sweep_lambda(tmp_path, corpus_dir):
    config = _config(corpus_dir, tmp_path / "work")
    rows = sweep_lambda(config, [0.1, 0.6, 1.0])
    assert [r["lambda"] for r in rows] == [0.1, 0.6, 1.0]
    counts = [r["selected"] for r in rows]
    assert counts == sorted(counts)
    assert counts[-1] == 24  # permissive threshold takes the whole pool
    work = tmp_path / "work"
    for tag in ("0p1", "0p6", "1"):
        assert (work / f"selection_lambda_{tag}.audit.tsv").is_file()
        assert (work / f"selection_lambda_{tag}.tsv").is_file()
        assert (work / f"report_lambda_{tag}.tsv").is_file()
    summary = (work / "sweep_summary.tsv").read_text().splitlines()
    assert summary[0] == "lambda\tselected\thours\tpercent\tpasses"
    assert len(summary) == 4
    with pytest.raises(ValidationError):
        sweep_lambda(config, [0.0])


def test_composition_report_from_audit(tmp_path, corpus_dir):
    config = _config(corpus_dir, tmp_path / "work")
    run_pipeline(config)
    pool = read_manifest(config.paths.pool_manifest)
    rep = report(read_audit(tmp_path / "work" / "selection.audit.tsv"), pool)
    audit = read_audit(tmp_path / "work" / "selection.audit.tsv")
    assert rep.total_selected_hours == pytest.approx(audit.total_hours, abs=1e-9)
    assert {r.domain_tag for r in rep.rows} == {"domain0", "domain1"}


def test_cluster_count_clamped_to_vectors(tmp_path, corpus_dir):
    config = _config(corpus_dir, tmp_path / "work")
    config.cluster.n_clusters = 99  # far beyond the 8 dev vectors
    run_pipeline(config, stages=stage_order(False)[:-1])
    rows = [
        l for l in (tmp_path / "work" / "centroids.tsv").read_text().splitlines()
        if l.strip() and not l.startswith("#")
    ]
    assert len(rows) == 8
    meta = json.loads((tmp_path / "work" / "centroids.meta.json").read_text())
    assert len(meta["cluster_sizes"]) == 8
    assert sum(meta["cluster_sizes"]) == 8


def test_capped_and_empty_inference_documents_are_logged(tmp_path, corpus_dir, caplog):
    shutil.copytree(corpus_dir, tmp_path / "corpus")
    pool = read_manifest(tmp_path / "corpus" / "pool" / "pool.tsv")
    blank = next(iter(pool))
    (pool.base_dir / blank.transcript_path).write_text("", encoding="utf-8")
    config = _config(tmp_path / "corpus", tmp_path / "work", text=True)
    config.lda.doc_max_iterations = 1
    with caplog.at_level(logging.INFO, logger="ldaselect.pipeline"):
        run_pipeline(config)
    lines = {
        r.getMessage(): r.levelno
        for r in caplog.records
        if "doc_max_iterations" in r.getMessage()
    }
    expected = {
        "stage train-lda: 8 of 8 training documents hit doc_max_iterations=1; 0 empty",
        "stage posteriors: 24 of 24 pool documents hit doc_max_iterations=1; 0 empty",
        "stage posteriors: 8 of 8 dev documents hit doc_max_iterations=1; 0 empty",
        "stage text-train-lda: 8 of 8 training documents hit doc_max_iterations=1; 0 empty",
        "stage text-posteriors: 23 of 24 pool documents hit doc_max_iterations=1; 1 empty",
        "stage text-posteriors: 8 of 8 dev documents hit doc_max_iterations=1; 0 empty",
    }
    assert set(lines) == expected
    assert set(lines.values()) == {logging.WARNING}

    caplog.clear()
    config.lda.doc_max_iterations = 100
    with caplog.at_level(logging.INFO, logger="ldaselect.pipeline"):
        run_pipeline(config, stages=["posteriors"])
    (record,) = [r for r in caplog.records if "pool documents" in r.getMessage()]
    assert record.levelno == logging.INFO
    assert record.getMessage().startswith("stage posteriors: 0 of 24 pool documents")
