import json
import logging
import shutil
from dataclasses import replace

import numpy as np
import pytest

from ldaselect import pipeline as pipeline_module
from ldaselect.config import PipelineConfig
from ldaselect.corpus import (
    Manifest,
    Utterance,
    generate_synthetic_corpus,
    make_separated_spec,
    read_features,
    read_manifest,
    resolve_path,
    sample_frames,
    write_features,
    write_manifest,
)
from ldaselect.docmodel import bag_of_words, read_weighted
from ldaselect.errors import StageError, ValidationError
from ldaselect.gmm import load_gmm, quantize, train_gmm
from ldaselect.lda import load_lda, read_posteriors
from ldaselect.pipeline import (
    Runner,
    run_pipeline,
    stage_order,
    sweep_lambda,
)
from ldaselect.report import report

from batches import entries
from ldaselect.selection import (
    SelectedUtterance, SelectionResult, read_audit, select, write_audit,
)

ACOUSTIC_ARTIFACTS = [
    "gmm.agmm", "bags_pool.tsv", "bags_dev.tsv",
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


# The work-dir artifacts each stage reads (text path on).
STAGE_INPUTS = {
    "train-gmm": [],
    "quantize": ["gmm.agmm"],
    "tfidf": ["bags_pool.tsv", "bags_dev.tsv"],
    "train-lda": ["weighted_pool.tsv", "weighted_dev.tsv"],
    "posteriors": ["lda.alda", "weighted_pool.tsv", "weighted_dev.tsv"],
    "cluster": ["post_dev.tsv"],
    "select": ["post_pool.tsv", "centroids.tsv"],
    "text-tfidf": [],
    "text-train-lda": ["text_weighted_pool.tsv", "text_weighted_dev.tsv", "text_vocab.tsv"],
    "text-posteriors": ["text_lda.alda", "text_weighted_pool.tsv", "text_weighted_dev.tsv"],
    "text-cluster": ["text_post_dev.tsv"],
    "text-select": ["text_post_pool.tsv", "text_centroids.tsv"],
    "combine": ["selection_acoustic.audit.tsv", "selection_text.audit.tsv"],
    "report": ["selection.audit.tsv"],
}
MANIFEST_READERS = {"train-gmm", "quantize", "text-tfidf"}


def _edit(kind, root, work):
    """(file, byte offset, stages that read the file) of one edit per kind of
    input; flipping the offset's lowest bit keeps the file valid."""
    first = read_manifest(root / "pool" / "pool.tsv").utterances[0]
    if kind == "feature":  # a mantissa bit of the last float32 value
        return root / "pool" / first.feature_path, -2, {"train-gmm", "quantize"}
    if kind == "transcript":  # last digit of the first word
        path = root / "pool" / first.transcript_path
        return path, path.read_bytes().index(b" ") - 1, {"text-tfidf"}
    if kind.endswith("manifest"):  # a domain tag: domain0 -> domain1
        which = kind.split()[0]
        path = root / which / f"{which}.tsv"
        readers = MANIFEST_READERS | (
            {"select", "text-select", "combine", "report"} if which == "pool" else set()
        )
        return path, path.read_bytes().index(b"\tdomain0\t") + 7, readers
    path = work / "post_dev.tsv"  # leading digit of the first value
    return path, path.read_bytes().index(b"\t") + 1, {"cluster"}


@pytest.mark.parametrize(
    "kind", ["feature", "transcript", "pool manifest", "dev manifest", "artifact"]
)
def test_one_byte_edit_reruns_exactly_its_readers_and_their_dependents(
    kind, tmp_path, corpus_dir
):
    """The stages that read the edited file rerun, and so does every stage
    whose input artifacts changed as a result; every other stage is skipped."""
    shutil.copytree(corpus_dir, tmp_path / "corpus")
    work = tmp_path / "work"
    config = _config(tmp_path / "corpus", work, text=True)
    run_pipeline(config)
    path, at, readers = _edit(kind, tmp_path / "corpus", work)
    before = {p.name: p.read_bytes() for p in work.iterdir()}
    data = bytearray(path.read_bytes())
    data[at] ^= 1
    path.write_bytes(bytes(data))
    result = run_pipeline(config)
    after = {p.name: p.read_bytes() for p in work.iterdir()}
    expected = readers | {
        stage for stage, inputs in STAGE_INPUTS.items()
        if any(before[a] != after[a] for a in inputs)
    }
    ran = {stage for stage, skipped in result.skipped.items() if not skipped}
    if kind == "artifact":
        # Whether the producer notices its edited output is open (ROADMAP item 3).
        ran.discard("posteriors")
    assert ran == expected


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


def test_rejected_stage_names_leave_no_work_dir(tmp_path, corpus_dir):
    work = tmp_path / "never_created"
    config = _config(corpus_dir, work)
    for stages in (["no-such-stage"], ["text-tfidf"]):
        with pytest.raises(ValidationError):
            run_pipeline(config, stages)
        assert not work.exists()


def test_runner_construction_touches_no_file(tmp_path, corpus_dir):
    work = tmp_path / "work"
    Runner(_config(corpus_dir, work))
    assert not work.exists()
    run_pipeline(_config(corpus_dir, work), stages=["train-gmm"])
    listing = sorted(work.iterdir())
    Runner(_config(corpus_dir, work))
    assert sorted(work.iterdir()) == listing


def test_cache_is_read_when_the_run_starts(tmp_path, corpus_dir):
    """A runner built before another run rewrote the work dir reads that run's
    cache entries, not the ones on disk when it was built: its audit equals a
    fresh run's under its own config."""
    x = _config(corpus_dir, tmp_path / "work")
    y = _config(corpus_dir, tmp_path / "work")
    y.cluster.n_clusters = 1
    run_pipeline(x)
    runner = Runner(x)
    run_pipeline(y)
    runner.run()
    run_pipeline(_config(corpus_dir, tmp_path / "fresh"))
    audit = (tmp_path / "work" / "selection.audit.tsv").read_bytes()
    fresh = (tmp_path / "fresh" / "selection.audit.tsv").read_bytes()
    assert audit == fresh
    run_pipeline(y)
    assert (tmp_path / "work" / "selection.audit.tsv").read_bytes() != fresh


def test_keys_hash_the_manifest_bytes_the_runner_parsed(tmp_path, corpus_dir):
    """A pool manifest edited between building a runner and running it: the
    runner's results are keyed by the manifest it parsed, so a later run on the
    edited file recomputes and its audit equals a fresh run's."""
    shutil.copytree(corpus_dir, tmp_path / "corpus")
    pool_tsv = tmp_path / "corpus" / "pool" / "pool.tsv"
    config = _config(tmp_path / "corpus", tmp_path / "work")
    first = run_pipeline(config).selection.ids()[0]
    runner = Runner(config)
    lines = pool_tsv.read_text(encoding="utf-8").splitlines(keepends=True)
    for i, line in enumerate(lines):
        fields = line.split("\t")
        if fields[0] == first:
            fields[4] = repr(float(fields[4]) * 20)
            lines[i] = "\t".join(fields)
    pool_tsv.write_text("".join(lines), encoding="utf-8")
    runner.run()
    rerun = run_pipeline(config)
    assert not rerun.skipped["select"]
    run_pipeline(_config(tmp_path / "corpus", tmp_path / "fresh"))
    audit = (tmp_path / "work" / "selection.audit.tsv").read_bytes()
    assert audit == (tmp_path / "fresh" / "selection.audit.tsv").read_bytes()


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


def test_bags_are_bags_of_words_of_frame_tokens(tmp_path, corpus_dir):
    """Each ``bags_*.tsv`` holds ``bag_of_words`` over the utterances' frame
    tokens; a zero-frame utterance is an empty document line."""
    shutil.copytree(corpus_dir, tmp_path / "corpus")
    pool_path = tmp_path / "corpus" / "pool" / "pool.tsv"
    pool = read_manifest(pool_path)
    dim = pool.utterances[0].frame_dim
    write_features(np.zeros((0, dim)), tmp_path / "corpus" / "pool" / "silent.aldf")
    pool.utterances.insert(1, Utterance("silent", "silent.aldf", 0, dim, 0.5, "domain0"))
    write_manifest(pool, pool_path)
    config = _config(tmp_path / "corpus", tmp_path / "work")
    run_pipeline(config, stages=["train-gmm", "quantize"])
    work = tmp_path / "work"
    model = load_gmm(work / "gmm.agmm")
    for which in ("pool", "dev"):
        manifest = read_manifest(getattr(config.paths, f"{which}_manifest"))
        expected = bag_of_words(
            manifest.ids(),
            [quantize(model, read_features(u, manifest.base_dir)) for u in manifest],
            model.n_components,
        )
        bags = read_weighted(work / f"bags_{which}.tsv")
        assert bags.ids == expected.ids
        for i in range(len(expected)):
            assert entries(bags, i) == entries(expected, i), (which, i)
    assert "silent\t\n" in (work / "bags_pool.tsv").read_text(encoding="utf-8")


def test_text_stages_rejected_when_text_path_is_off(tmp_path, corpus_dir):
    config = _config(corpus_dir, tmp_path / "work")
    with pytest.raises(
        ValidationError, match=r"\['text-tfidf', 'text-select'\].*\[text\] enabled"
    ):
        run_pipeline(config, stages=["text-tfidf", "text-select"])
    assert not (tmp_path / "work" / "text_vocab.tsv").exists()


def test_text_vocabulary_is_an_input_of_text_train_lda(tmp_path, corpus_dir):
    config = _config(corpus_dir, tmp_path / "work", text=True)
    run_pipeline(config, stages=["text-tfidf", "text-train-lda"])
    vocab = tmp_path / "work" / "text_vocab.tsv"
    size = len(vocab.read_text(encoding="utf-8").splitlines())
    assert load_lda(tmp_path / "work" / "text_lda.alda").vocab_size == size
    with open(vocab, "a", encoding="utf-8") as fh:
        fh.write(f"extra\t{size}\n")
    result = run_pipeline(config, stages=["text-train-lda"])
    assert result.skipped == {"text-train-lda": False}
    assert load_lda(tmp_path / "work" / "text_lda.alda").vocab_size == size + 1


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


def _one_domain_dev_config(corpus_dir, tmp_path) -> PipelineConfig:
    """The pool's two domains against a dev set and one centroid from the
    first domain alone, so a tight threshold leaves the other domain out."""
    dev_spec = make_separated_spec(1, 4, frames_range=(30, 50), role="dev", id_prefix="dev_")
    generate_synthetic_corpus(dev_spec, seed=12, out_dir=tmp_path / "dev")
    config = _config(corpus_dir, tmp_path / "work")
    config.paths.dev_manifest = str(tmp_path / "dev" / "dev.tsv")
    config.cluster.n_clusters = 1
    return config


def test_sweep_audits_equal_separate_selects(tmp_path, corpus_dir):
    """Each threshold of a sweep over one ranking selects exactly what its own
    ``select`` call does, budgeted or not."""
    work = tmp_path / "work"
    config = _one_domain_dev_config(corpus_dir, tmp_path)
    pool = read_manifest(config.paths.pool_manifest)
    lambdas = [1e-12, 0.05, 0.3, 0.6, 1.0]
    for budget in (None, pool.total_hours() / 3):
        config.selection.max_hours = budget
        sweep_lambda(config, lambdas)
        posts = read_posteriors(work / "post_pool.tsv")
        cents = read_posteriors(work / "centroids.tsv").gamma
        for lam in lambdas:
            tag = f"{lam:.9g}".replace(".", "p")
            alone = select(posts, pool, cents, replace(config.selection, threshold=lam))
            write_audit(alone, tmp_path / "alone.audit.tsv")
            pipeline_module._SelectionManifests(pool).write(alone, tmp_path / "alone.tsv")
            assert (work / f"selection_lambda_{tag}.audit.tsv").read_bytes() == (
                tmp_path / "alone.audit.tsv"
            ).read_bytes()
            assert (work / f"selection_lambda_{tag}.tsv").read_bytes() == (
                tmp_path / "alone.tsv"
            ).read_bytes()


def test_sweep_rejects_colliding_and_out_of_range_thresholds(tmp_path, corpus_dir):
    work = tmp_path / "work"
    config = _config(corpus_dir, work)
    with pytest.raises(ValidationError, match=r"0\.1, 0\.1000000001 \(tag 0p1\)"):
        sweep_lambda(config, [0.1, 0.5, 0.1000000001])
    with pytest.raises(ValidationError, match=r"0\.2, 0\.2 \(tag 0p2\)"):
        sweep_lambda(config, [0.2, 0.2])
    for bad in (0.0, 1.5):
        with pytest.raises(
            ValidationError, match=rf"distance threshold must be in \(0, 1\], got {bad}"
        ):
            sweep_lambda(config, [0.5, bad])
    assert not work.exists()


def test_selection_stop_reasons_are_logged(tmp_path, corpus_dir, caplog):
    """Threshold, budget and pool stops, from the select stage and the sweep."""
    config = _one_domain_dev_config(corpus_dir, tmp_path)
    pool = read_manifest(config.paths.pool_manifest)
    config.selection.max_hours = pool.total_hours() / 4
    with caplog.at_level(logging.INFO, logger="ldaselect.pipeline"):
        result = run_pipeline(config).selection
        sweep_lambda(replace(config, selection=replace(config.selection, max_hours=None)),
                     [0.5, 1.0])
    lines = [r.getMessage() for r in caplog.records if "stopped by" in r.getMessage()]
    assert lines[0] == (
        f"stage select: {len(result.selected)} of 24 pool utterances selected "
        f"({result.total_hours:.6g} h) in {result.passes} passes; stopped by budget"
    )
    assert lines[1].startswith("sweep lambda=0.5: 12 of 24 pool utterances selected")
    assert lines[1].endswith("stopped by threshold")
    assert lines[2].startswith("sweep lambda=1: 24 of 24 pool utterances selected")
    assert lines[2].endswith("in 24 passes; stopped by pool")
    assert len(lines) == 3


def test_selection_manifest_equals_per_utterance_resolution(tmp_path):
    """Selection manifests hold the same paths the old per-utterance
    ``resolve_path`` calls gave: absolute paths, ``..`` relative paths and
    utterances without a transcript."""
    corpus = tmp_path / "corpus" / "pool"
    corpus.mkdir(parents=True)
    utts = [
        Utterance("a", str(tmp_path / "abs" / "a.aldf"), 10, 2, 1.5, "d0",
                  str(tmp_path / "abs" / "a.txt")),
        Utterance("b", "../shared/b.aldf", 10, 2, 2.5, "d1", "../shared/./b.txt"),
        Utterance("c", "feats//c.aldf", 10, 2, 3.0, "d0"),
        Utterance("d", "./d.aldf", 10, 2, 4.25, "d1", "d.txt"),
    ]
    write_manifest(Manifest(utts, fps=50.0), corpus / "pool.tsv")
    pool = read_manifest(corpus / "pool.tsv")

    def old_style(result, path):
        by_id = pool.by_id()
        write_manifest(
            Manifest(
                [
                    replace(
                        by_id[s.utt_id],
                        feature_path=str(resolve_path(by_id[s.utt_id].feature_path,
                                                      pool.base_dir)),
                        transcript_path=(
                            str(resolve_path(by_id[s.utt_id].transcript_path,
                                             pool.base_dir))
                            if by_id[s.utt_id].transcript_path else None
                        ),
                    )
                    for s in result.selected
                ],
                role="pool", fps=pool.fps,
            ),
            path,
        )

    writer = pipeline_module._SelectionManifests(pool)
    for order in (["d", "b", "a", "c"], ["c", "a"], ["b", "d", "c", "a"]):
        result = SelectionResult(
            [SelectedUtterance(uid, "centroid_0000", 0.1, 1) for uid in order]
        )
        old_style(result, tmp_path / "old.tsv")
        pipeline_module._SelectionManifests(pool).write(result, tmp_path / "new.tsv")
        writer.write(result, tmp_path / "reused.tsv")
        expected = (tmp_path / "old.tsv").read_bytes()
        assert (tmp_path / "new.tsv").read_bytes() == expected
        assert (tmp_path / "reused.tsv").read_bytes() == expected
    assert str(tmp_path / "corpus" / "pool" / ".." / "shared" / "b.aldf") in expected.decode()
    with pytest.raises(ValidationError, match="ghost"):
        pipeline_module._SelectionManifests(pool).write(
            SelectionResult([SelectedUtterance("ghost", "centroid_0000", 0.1, 1)]),
            tmp_path / "bad.tsv",
        )


def test_cache_file_survives_a_failed_replace(tmp_path, corpus_dir):
    work = tmp_path / "work"
    config = _config(corpus_dir, work)
    run_pipeline(config, stages=["train-gmm"])
    before = json.loads((work / "cache.json").read_text(encoding="utf-8"))

    def fail(src, dst):
        raise OSError("injected failure while replacing the cache file")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline_module.os, "replace", fail)
        with pytest.raises(OSError, match="injected"):
            run_pipeline(config, stages=["quantize"])
    assert json.loads((work / "cache.json").read_text(encoding="utf-8")) == before
    assert list(before) == ["train-gmm"]
    assert not list(work.glob("cache.json.*"))
    result = run_pipeline(config, stages=["train-gmm", "quantize"])
    assert result.skipped == {"train-gmm": True, "quantize": False}


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


def test_gmm_training_trace_is_logged(tmp_path, corpus_dir, caplog):
    config = _config(corpus_dir, tmp_path / "work")
    X = sample_frames(
        [read_manifest(config.paths.dev_manifest), read_manifest(config.paths.pool_manifest)],
        config.quantizer.max_train_frames, config.quantizer.seed,
    )
    for max_iterations, level, outcome in [
        (1, logging.WARNING, "hit max_iterations"),
        (200, logging.INFO, "converged"),
    ]:
        config.quantizer.max_iterations = max_iterations
        model = train_gmm(X, 2, config.quantizer)
        h = model.loglik_history
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="ldaselect.pipeline"):
            run_pipeline(config, stages=["train-gmm"])
        (record,) = [r for r in caplog.records if "EM" in r.getMessage()]
        assert record.levelno == level
        assert record.getMessage() == (
            f"stage train-gmm: EM {outcome} after {model.n_iterations} iterations "
            f"(max_iterations={max_iterations}) on {X.shape[0]} frames; "
            f"log-likelihood {h[0]:.9g} -> {h[-1]:.9g}; "
            f"smallest component weight {model.weights.min():.3g}"
        )
    assert model.n_iterations < 200


def test_failed_stage_is_not_skipped_under_its_old_key(tmp_path, corpus_dir):
    """A select that fails after rewriting its audit must not leave the old
    cache entry pointing at that audit. (Every pool utterance of this corpus
    lies within any threshold of a centroid, so an hour budget makes the
    original selection differ from the failed one's.)"""
    config = _config(corpus_dir, tmp_path / "work")
    config.selection.threshold = 0.2
    config.selection.max_hours = read_manifest(config.paths.pool_manifest).total_hours() / 2
    run_pipeline(config)
    audit = tmp_path / "work" / "selection.audit.tsv"
    good = audit.read_bytes()

    def fail(*args):
        raise OSError("injected failure after the audit was written")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline_module._SelectionManifests, "write", fail)
        budgeted = config.selection
        config.selection = replace(budgeted, threshold=0.9, max_hours=None)
        with pytest.raises(StageError, match="injected"):
            run_pipeline(config, stages=["select"])
    assert audit.read_bytes() != good  # the failed run did rewrite the audit

    config.selection = budgeted
    result = run_pipeline(config)
    assert result.skipped["select"] is False
    assert result.skipped["cluster"] is True
    assert audit.read_bytes() == good
