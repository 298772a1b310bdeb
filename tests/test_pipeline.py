import fcntl
import json
import logging
import os
import shutil
import signal
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ldaselect import pipeline as pipeline_module
from ldaselect.config import PipelineConfig
from ldaselect.corpus import (
    Manifest,
    SynthSpec,
    Utterance,
    generate_synthetic_corpus,
    read_features,
    read_manifest,
    read_transcript,
    sample_frames,
    write_features,
    write_manifest,
)
from ldaselect.docmodel import bag_of_words, load_docs
from ldaselect.errors import StageError, ValidationError
from ldaselect.gmm import load_gmm, quantize, train_gmm
from ldaselect.lda import load_lda, read_posteriors
from ldaselect.pipeline import (
    Runner,
    run_pipeline,
    sweep_lambda,
)
from ldaselect.report import report

from batches import entries
from ldaselect.selection import (
    SelectedUtterance, SelectionResult, random_select, read_audit, select,
)

ACOUSTIC_ARTIFACTS = [
    "gmm.agmm", "bags_pool.adoc", "bags_dev.adoc",
    "weighted_pool.adoc", "weighted_dev.adoc", "lda.alda",
    "post_pool.tsv", "post_dev.tsv", "centroids.tsv", "centroids.meta.json",
    "selection.audit.tsv", "selection.tsv", "report.tsv", "report.txt",
]


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    pool_spec = SynthSpec(
        2, 12, with_transcripts=True, frames_range=(30, 50), role="pool"
    )
    generate_synthetic_corpus(pool_spec, seed=11, out_dir=root / "pool")
    dev_spec = SynthSpec(
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
    assert set(result.skipped) == set(Runner(config).stages)
    assert not any(result.skipped.values())
    for name in ACOUSTIC_ARTIFACTS:
        assert (tmp_path / "work" / name).is_file(), name
    assert result.selection.selected
    on_disk = read_audit(tmp_path / "work" / "selection.audit.tsv")
    assert on_disk.ids() == result.selection.ids()

    # The selection manifest is itself a loadable manifest of selected files.
    sel_manifest = read_manifest(tmp_path / "work" / "selection.tsv")
    assert sel_manifest.ids() == result.selection.ids()
    read_features(sel_manifest.utterances[0])
    assert _lock_is_free(tmp_path / "work")


def test_spherical_clustering_run(tmp_path, corpus_dir):
    config = _config(corpus_dir, tmp_path / "work")
    config.cluster.spherical = True
    # One cluster over both domains' posteriors, which point different ways:
    # the plain mean of their unit rows is well inside the unit sphere.
    config.cluster.n_clusters = 1
    run_pipeline(config)
    centroids = read_posteriors(tmp_path / "work" / "centroids.tsv").gamma
    assert np.allclose(np.linalg.norm(centroids, axis=1), 1.0, rtol=0, atol=1e-8)
    meta = json.loads((tmp_path / "work" / "centroids.meta.json").read_text(encoding="utf-8"))
    assert meta["spherical"] is True
    assert all(run_pipeline(config).skipped.values())


def test_spherical_clusters_of_posteriors_that_differ_within_a_domain(tmp_path):
    """Two spherical clusters over dev posteriors that point different ways
    within each domain (closer domains, more topics than domains and a larger
    alpha than ``corpus_dir``'s): each centroid is the unit-norm mean of the
    unit rows nearest it, one cluster per domain."""
    for role, n, seed, prefix in (("pool", 12, 11, ""), ("dev", 4, 12, "dev_")):
        spec = SynthSpec(
            2, n, frames_range=(30, 50), separation=2.0, role=role, id_prefix=prefix
        )
        generate_synthetic_corpus(spec, seed=seed, out_dir=tmp_path / role)
    config = _config(tmp_path, tmp_path / "work")
    config.quantizer.n_components = 4
    config.lda.n_topics = 3
    config.lda.alpha = 0.5
    config.cluster.spherical = True
    run_pipeline(config)
    posts = read_posteriors(tmp_path / "work" / "post_dev.tsv")
    X = posts.gamma / np.linalg.norm(posts.gamma, axis=1, keepdims=True)
    domains = np.array([i.split("_")[1] for i in posts.ids])
    for d in set(domains):
        assert np.ptp(X[domains == d], axis=0).max() > 0.01  # rows differ within a domain
    centroids = read_posteriors(tmp_path / "work" / "centroids.tsv").gamma
    assert np.allclose(np.linalg.norm(centroids, axis=1), 1.0, rtol=0, atol=1e-8)
    nearest = np.argmax(X @ centroids.T, axis=1)
    for j, centroid in enumerate(centroids):
        assert len(set(domains[nearest == j])) == 1
        mean = X[nearest == j].mean(axis=0)
        assert np.allclose(centroid, mean / np.linalg.norm(mean), rtol=0, atol=1e-7)
    meta = json.loads((tmp_path / "work" / "centroids.meta.json").read_text(encoding="utf-8"))
    assert meta["cluster_sizes"] == [4, 4]


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
    frames = read_features(victim)
    write_features(frames + 0.25, local / "pool" / victim.feature_path)
    result = run_pipeline(config)
    assert result.skipped["train-gmm"] is False
    assert result.skipped["quantize"] is False


@pytest.mark.parametrize("kind", ["missing", "directory", "fifo"])
def test_absent_feature_file_fails_cold_and_cached_runs(kind, tmp_path, corpus_dir, deadline):
    """A pool manifest naming a feature file that is not a regular file (none,
    a directory or a FIFO in its place) fails with "missing feature file" on a
    cold run and on a cached rerun; the FIFO is never read, so nothing blocks."""
    shutil.copytree(corpus_dir, tmp_path / "corpus")
    config = _config(tmp_path / "corpus", tmp_path / "cached")
    run_pipeline(config)
    victim = read_manifest(config.paths.pool_manifest).utterances[3]
    os.unlink(victim.feature_file)
    if kind == "directory":
        os.mkdir(victim.feature_file)
    elif kind == "fifo":
        os.mkfifo(victim.feature_file)
    for work in ("cached", "cold"):
        config.paths.work_dir = str(tmp_path / work)
        with pytest.raises(StageError, match=f"missing feature file for '{victim.id}'"):
            run_pipeline(config)


def test_transcript_digest_frames_each_file(tmp_path, corpus_dir):
    """Transcripts whose id-and-text concatenations are equal key
    ``text-tfidf`` apart, and so do an empty transcript and a missing one:
    after either change the stage reruns."""
    shutil.copytree(corpus_dir, tmp_path / "corpus")
    config = _config(tmp_path / "corpus", tmp_path / "work", text=True)
    a, b = read_manifest(config.paths.pool_manifest).utterances[:2]
    for first, second in (("", b.id + "x"), (b.id, "x")):
        with open(a.transcript_file, "wb") as fh:
            fh.write(first.encode())
        with open(b.transcript_file, "wb") as fh:
            fh.write(second.encode())
        assert run_pipeline(config, ["text-tfidf"]).skipped == {"text-tfidf": False}
    with open(a.transcript_file, "wb"):
        pass
    run_pipeline(config, ["text-tfidf"])
    os.unlink(a.transcript_file)
    with pytest.raises(StageError, match=f"missing transcript file for utterance '{a.id}'"):
        run_pipeline(config, ["text-tfidf"])


@pytest.mark.parametrize("k", [1, 5])
def test_cached_run_and_sweep_read_each_input_once_per_runner(
    k, tmp_path, corpus_dir, monkeypatch
):
    """A cached ``run_pipeline`` and a k-threshold ``sweep_lambda`` build two
    runners. Each reads every feature file once and builds each utterance
    once, when it parses the manifests; the sweep's runner, the one that
    writes selections, builds each pool utterance's selection-manifest row
    once more, however many selections it writes."""
    config = _config(corpus_dir, tmp_path / "work")
    run_pipeline(config)
    pool = read_manifest(config.paths.pool_manifest)
    dev = read_manifest(config.paths.dev_manifest)
    reads = Counter()
    real_read = pipeline_module.corpus.read_file

    def counting_read(path):
        reads[path] += 1
        return real_read(path)

    built = Counter()
    real_post_init = Utterance.__post_init__

    def counting_post_init(utt):
        built[utt.id] += 1
        real_post_init(utt)

    monkeypatch.setattr(pipeline_module.corpus, "read_file", counting_read)
    monkeypatch.setattr(Utterance, "__post_init__", counting_post_init)
    assert all(run_pipeline(config).skipped.values())
    rows = sweep_lambda(config, [1.0 - 0.1 * i for i in range(k)])
    assert rows[0]["selected"] == len(pool)
    assert reads == {u.feature_file: 2 for m in (dev, pool) for u in m}
    assert built == {u.id: 2 for u in dev} | {u.id: 3 for u in pool}


# The work-dir artifacts each stage reads (text path on).
STAGE_INPUTS = {
    "train-gmm": [],
    "quantize": ["gmm.agmm"],
    "tfidf": ["bags_pool.adoc", "bags_dev.adoc"],
    "train-lda": ["weighted_pool.adoc", "weighted_dev.adoc"],
    "posteriors": ["lda.alda", "weighted_pool.adoc", "weighted_dev.adoc"],
    "cluster": ["post_dev.tsv"],
    "select": ["post_pool.tsv", "centroids.tsv"],
    "text-tfidf": [],
    "text-train-lda": ["text_weighted_pool.adoc", "text_weighted_dev.adoc", "text_vocab.tsv"],
    "text-posteriors": ["text_lda.alda", "text_weighted_pool.adoc", "text_weighted_dev.adoc"],
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
    # Leading digit of the first value. The edit is seen by the file's producer,
    # which reruns and restores it, so its reader ``cluster`` is skipped.
    path = work / "post_dev.tsv"
    return path, path.read_bytes().index(b"\t") + 1, {"posteriors"}


@pytest.mark.parametrize(
    "kind", ["feature", "transcript", "pool manifest", "dev manifest", "artifact"]
)
def test_one_byte_edit_reruns_exactly_its_readers_and_their_dependents(
    kind, tmp_path, corpus_dir
):
    """The stages that read the edited input rerun (for an edited artifact, the
    stage that wrote it), and so does every stage whose input artifacts changed
    as a result; every other stage is skipped."""
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
    assert ran == expected


@pytest.mark.parametrize(
    "output, producer",
    [
        ("gmm.agmm", "train-gmm"), ("bags_dev.adoc", "quantize"),
        ("centroids.meta.json", "cluster"), ("text_vocab.tsv", "text-tfidf"),
        ("selection.tsv", "combine"), ("report.txt", "report"),
    ],
)
def test_flipped_byte_in_an_output_reruns_its_producer(output, producer, tmp_path, corpus_dir):
    """A cached output whose bytes no longer have the recorded digest is
    rebuilt by the stage that wrote it; the rebuilt file is the original, so
    no other stage reruns."""
    work = tmp_path / "work"
    config = _config(corpus_dir, work, text=True)
    run_pipeline(config)
    path = work / output
    good = path.read_bytes()
    data = bytearray(good)
    data[len(data) // 2] ^= 1
    path.write_bytes(bytes(data))
    result = run_pipeline(config)
    assert {stage for stage, skipped in result.skipped.items() if not skipped} == {producer}
    assert path.read_bytes() == good


def test_flipped_byte_in_any_declared_output_reruns_exactly_its_producer(tmp_path, corpus_dir):
    """Every output the text-enabled stage table declares, damaged in place
    after one cold run, is rebuilt by its producer alone, byte for byte."""
    work = tmp_path / "work"
    config = _config(corpus_dir, work, text=True)
    run_pipeline(config)
    producers = {o: name for name, stage in Runner(config).stages.items() for o in stage.outputs}
    assert len(producers) == 26
    for output, producer in producers.items():
        path = work / output
        good = path.read_bytes()
        data = bytearray(good)
        data[len(data) // 2] ^= 1
        path.write_bytes(bytes(data))
        result = run_pipeline(config)
        assert {s for s, skipped in result.skipped.items() if not skipped} == {producer}, output
        assert path.read_bytes() == good, output


@pytest.mark.parametrize("text", [False, True])
def test_stage_table_is_consistent(text, tmp_path, corpus_dir, monkeypatch):
    """Each input is an earlier stage's output (a stage without inputs reads
    the manifests), outputs are unique, the CLI's stage commands are the
    acoustic prefix, reading the table touches no file, and a run executes
    exactly the table's order. The sweep stage reads outputs of the chain
    through ``cluster`` and writes files no other stage writes; a sweep runs
    that chain and then ``sweep``."""
    import builtins
    import io

    from ldaselect.cli import STAGE_COMMANDS

    work = tmp_path / "work"
    runner = Runner(_config(corpus_dir, work, text=text))
    opens = []

    def counting(real):
        def wrapper(*args, **kwargs):
            opens.append(args[0])
            return real(*args, **kwargs)
        return wrapper

    with monkeypatch.context() as mp:
        for module in (builtins, io, os):
            mp.setattr(module, "open", counting(module.open))
        table = {name: (stage.inputs, stage.outputs) for name, stage in runner.stages.items()}
        sweep = runner._sweep_stage([0.3, 0.6, 1.0])
    assert opens == [] and not work.exists()

    written: list[str] = []
    for name, (inputs, outputs) in table.items():
        assert set(inputs) <= set(written), name
        if not inputs:
            assert name in MANIFEST_READERS
        written += outputs
    assert len(written) == len(set(written))
    assert {name: inputs for name, (inputs, _) in table.items()} == {
        name: inputs for name, inputs in STAGE_INPUTS.items() if name in table
    }
    text_chain = [
        "text-tfidf", "text-train-lda", "text-posteriors", "text-cluster", "text-select",
        "combine",
    ]
    assert list(table) == STAGE_COMMANDS + (text_chain if text else []) + ["report"]
    assert list(runner.run().skipped) == list(table)

    chain = STAGE_COMMANDS[: STAGE_COMMANDS.index("select")]
    assert set(sweep.inputs) <= {o for name in chain for o in table[name][1]}
    assert len(sweep.outputs) == len(set(sweep.outputs)) == 10
    assert not set(sweep.outputs) & set(written)
    runner.sweep([0.3, 0.6, 1.0])
    assert list(runner.skipped) == chain + ["sweep"]


def test_finished_runner_is_freed_without_the_cycle_collector(tmp_path, corpus_dir):
    """The stage bodies hold their runner, so the runner must not keep the
    table: a sweep after a run would otherwise hold both runners' manifests
    and digests until the cycle collector ran."""
    import gc
    import weakref

    runner = Runner(_config(corpus_dir, tmp_path / "work"))
    runner.run(["train-gmm"])
    ref = weakref.ref(runner)
    gc.disable()
    try:
        del runner
        assert ref() is None
    finally:
        gc.enable()


def test_stage_failing_mid_write_leaves_its_old_outputs(tmp_path, corpus_dir, monkeypatch):
    """A stage that raises after writing part of an output leaves every final
    name as it was and no temporary file; its cache entry still holds."""
    work = tmp_path / "work"
    config = _config(corpus_dir, work)
    run_pipeline(config)
    before = {p.name: p.read_bytes() for p in work.iterdir() if p.name != "cache.json"}

    def half_then_fail(posteriors, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(posteriors.ids[0] + "\t0.")
        raise OSError("injected failure half-way through a posterior file")

    monkeypatch.setattr(pipeline_module.lda, "write_posteriors", half_then_fail)
    with pytest.raises(StageError, match="injected"):
        run_pipeline(replace(config, lda=replace(config.lda, doc_tol=1e-3)), ["posteriors"])
    assert {p.name: p.read_bytes() for p in work.iterdir() if p.name != "cache.json"} == before
    monkeypatch.undo()
    assert all(run_pipeline(config).skipped.values())


def test_cached_run_opens_each_work_dir_file_at_most_once(tmp_path, corpus_dir, monkeypatch):
    """A cached run hashes each artifact once: the digest that verifies a
    skipped stage's output is the one the next stage's key uses, and the
    selection the run returns is parsed from the bytes of
    ``selection.audit.tsv`` that were hashed."""
    import builtins
    import io

    work = tmp_path / "work"
    config = _config(corpus_dir, work, text=True)
    run_pipeline(config)
    opens = Counter()

    def counting(real):
        def wrapper(file, *args, **kwargs):
            if isinstance(file, (str, os.PathLike)) and Path(file).parent == work:
                opens[Path(file).name] += 1
            return real(file, *args, **kwargs)
        return wrapper

    for module in (builtins, io, os):
        monkeypatch.setattr(module, "open", counting(module.open))
    result = run_pipeline(config)
    monkeypatch.undo()
    assert all(result.skipped.values())
    assert result.selection == read_audit(work / "selection.audit.tsv")
    assert set(opens) == {p.name for p in work.iterdir()}
    assert set(opens.values()) == {1}


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


def _lock_is_free(work) -> bool:
    """Whether the work dir's existing ``.lock`` can be locked now."""
    with open(work / ".lock", "rb") as fh:
        try:
            fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            return False
    return True


def test_lock_conflict_and_release(tmp_path, corpus_dir):
    work = tmp_path / "work"
    config = _config(corpus_dir, work)
    work.mkdir()
    with open(work / ".lock", "ab") as held:  # another run's hold on the lock
        fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)
        with pytest.raises(StageError) as exc:
            run_pipeline(config)
        assert "lock" in str(exc.value)
        assert not _lock_is_free(work)
    run_pipeline(config)
    assert _lock_is_free(work)


def test_lock_of_a_killed_run_holds_nothing(tmp_path, corpus_dir, deadline):
    """A run killed by SIGKILL while it holds the work dir leaves no lock
    behind: the next run goes ahead with nothing removed by hand."""
    work = tmp_path / "work"
    config = _config(corpus_dir, work)
    config_file = tmp_path / "run.cfg"
    config_file.write_text(
        "[paths]\n" + "".join(
            f"{key} = {getattr(config.paths, key)}\n"
            for key in ("pool_manifest", "dev_manifest", "work_dir")
        ),
        encoding="utf-8",
    )
    holder = (
        "import sys, time\n"
        "from ldaselect.config import load_config\n"
        "from ldaselect.pipeline import Runner\n"
        "with Runner(load_config(sys.argv[1])).owned():\n"
        "    print('locked', flush=True)\n"
        "    time.sleep(60)\n"
    )
    src = str(Path(pipeline_module.__file__).parents[1])
    child = subprocess.Popen(
        [sys.executable, "-c", holder, str(config_file)], stdout=subprocess.PIPE,
        text=True, env={**os.environ, "PYTHONPATH": src},
    )
    try:
        assert child.stdout.readline() == "locked\n"
        with pytest.raises(StageError):
            run_pipeline(config)
    finally:
        child.kill()  # SIGKILL: no exit handler of the child runs
        child.wait()
        child.stdout.close()
    assert child.returncode == -signal.SIGKILL
    result = run_pipeline(config)
    assert not any(result.skipped.values())
    assert _lock_is_free(work)


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
    """Each ``bags_*.adoc`` holds ``bag_of_words`` over the utterances' frame
    tokens; a zero-frame utterance is an empty document."""
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
            [quantize(model, read_features(u)) for u in manifest],
            model.n_components,
        )
        bags = load_docs(work / f"bags_{which}.adoc")
        assert bags.ids == expected.ids
        for i in range(len(expected)):
            assert entries(bags, i) == entries(expected, i), (which, i)
    pool_bags = load_docs(work / "bags_pool.adoc")
    assert pool_bags.ids[1] == "silent"
    assert pool_bags.indptr[1] == pool_bags.indptr[2]


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
        "selection_acoustic.audit.tsv", "text_vocab.tsv", "text_weighted_pool.adoc",
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
    dev_spec = SynthSpec(1, 4, frames_range=(30, 50), role="dev", id_prefix="dev_")
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
    runner = Runner(config)
    lambdas = [1e-12, 0.05, 0.3, 0.6, 1.0]
    for budget in (None, pool.total_hours() / 3):
        config.selection.max_hours = budget
        sweep_lambda(config, lambdas)
        posts = read_posteriors(work / "post_pool.tsv")
        cents = read_posteriors(work / "centroids.tsv").gamma
        for lam in lambdas:
            tag = f"{lam:.9g}".replace(".", "p")
            alone = select(posts, pool, cents, replace(config.selection, threshold=lam))
            runner.write_selection(
                alone, tmp_path / "alone.audit.tsv", tmp_path / "alone.tsv"
            )
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
    """Selection manifests hold the paths the pool manifest named, resolved
    against its directory: absolute paths as written, ``..``, ``./`` and
    ``//`` relative paths joined to it, and utterances without a transcript.
    A runner that writes many selections writes each as a fresh one does."""
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
    config = PipelineConfig()
    config.paths.pool_manifest = config.paths.dev_manifest = str(corpus / "pool.tsv")
    config.paths.work_dir = str(tmp_path / "work")

    def resolved(p):
        return p if p.startswith("/") else str(corpus / p)

    def old_style(result, path):
        by_id = {u.id: u for u in utts}
        write_manifest(
            Manifest(
                [
                    replace(
                        by_id[s.utt_id],
                        feature_path=resolved(by_id[s.utt_id].feature_path),
                        transcript_path=(
                            resolved(by_id[s.utt_id].transcript_path)
                            if by_id[s.utt_id].transcript_path else None
                        ),
                    )
                    for s in result.selected
                ],
                role="pool", fps=50.0,
            ),
            path,
        )

    writer = Runner(config)
    for order in (["d", "b", "a", "c"], ["c", "a"], ["b", "d", "c", "a"]):
        result = SelectionResult(
            [SelectedUtterance(uid, "centroid_0000", 0.1, 1) for uid in order]
        )
        old_style(result, tmp_path / "old.tsv")
        Runner(config).write_selection(result, tmp_path / "new.audit", tmp_path / "new.tsv")
        writer.write_selection(result, tmp_path / "reused.audit", tmp_path / "reused.tsv")
        expected = (tmp_path / "old.tsv").read_bytes()
        assert (tmp_path / "new.tsv").read_bytes() == expected
        assert (tmp_path / "reused.tsv").read_bytes() == expected
    assert str(tmp_path / "corpus" / "pool" / ".." / "shared" / "b.aldf") in expected.decode()
    assert str(tmp_path / "corpus" / "pool" / "feats" / "c.aldf") in expected.decode()
    with pytest.raises(ValidationError, match="ghost"):
        writer.write_selection(
            SelectionResult([SelectedUtterance("ghost", "centroid_0000", 0.1, 1)]),
            tmp_path / "bad.audit", tmp_path / "bad.tsv",
        )


def test_selection_from_cwd_relative_manifests_reads_from_anywhere(
    tmp_path, corpus_dir, monkeypatch
):
    """With the manifests named relative to the working directory, the
    selection manifest still names files that open from another directory."""
    shutil.copytree(corpus_dir, tmp_path / "corpus")
    (tmp_path / "elsewhere").mkdir()
    monkeypatch.chdir(tmp_path)
    config = _config(corpus_dir, "work")
    config.paths.pool_manifest = "corpus/pool/pool.tsv"
    config.paths.dev_manifest = "corpus/dev/dev.tsv"
    runner = Runner(config)
    result = random_select(runner.pool, runner.pool.total_hours() / 2, 0)
    with runner.owned():
        runner.write_selection(result, runner.work / "r.audit.tsv", runner.work / "r.tsv")
    monkeypatch.chdir(tmp_path / "elsewhere")
    selected = read_manifest(tmp_path / "work" / "r.tsv")
    assert selected.ids() == result.ids() != []
    for utt in selected:
        assert read_features(utt).shape == (utt.num_frames, utt.frame_dim)
        assert read_transcript(utt).strip()


def test_copied_corpus_and_work_dir_rewrite_their_selection_manifests(tmp_path, corpus_dir):
    """Selection manifests name the pool's files resolved against the pool
    manifest's directory. Rerun from a copy of the corpus and its work dir,
    the three stages that write them run again and name the copy's files;
    every other stage is skipped."""
    shutil.copytree(corpus_dir, tmp_path / "a" / "corpus")
    run_pipeline(_config(tmp_path / "a" / "corpus", tmp_path / "a" / "work", text=True))
    shutil.copytree(tmp_path / "a", tmp_path / "b")
    result = run_pipeline(
        _config(tmp_path / "b" / "corpus", tmp_path / "b" / "work", text=True)
    )
    ran = {name for name, skipped in result.skipped.items() if not skipped}
    assert ran == {"select", "text-select", "combine"}
    for name in ("selection.tsv", "selection_acoustic.tsv", "selection_text.tsv"):
        path = tmp_path / "b" / "work" / name
        assert str(tmp_path / "a") + "/" not in path.read_text(encoding="utf-8")
        selected = read_manifest(path)
        assert len(selected) > 0
        for utt in selected:
            assert utt.feature_file.startswith(str(tmp_path / "b" / "corpus") + "/")
            assert utt.transcript_file.startswith(str(tmp_path / "b" / "corpus") + "/")


def test_cache_file_survives_a_failed_replace(tmp_path, corpus_dir):
    work = tmp_path / "work"
    config = _config(corpus_dir, work)
    run_pipeline(config, stages=["train-gmm"])
    before = json.loads((work / "cache.json").read_text(encoding="utf-8"))

    real_replace = os.replace

    def fail(src, dst):
        if Path(dst).name == "cache.json":
            raise OSError("injected failure while replacing the cache file")
        real_replace(src, dst)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline_module.os, "replace", fail)
        with pytest.raises(OSError, match="injected"):
            run_pipeline(config, stages=["quantize"])
    assert json.loads((work / "cache.json").read_text(encoding="utf-8")) == before
    assert list(before) == ["train-gmm"]
    assert not list(work.glob("cache.json.*"))
    result = run_pipeline(config, stages=["train-gmm", "quantize"])
    assert result.skipped == {"train-gmm": True, "quantize": False}


@pytest.mark.parametrize("content", [b"[]", b'{"train-gmm": 1}', b'{"\xff": {}}'])
def test_cache_file_of_the_wrong_shape_is_ignored(content, tmp_path, corpus_dir, caplog):
    """A ``cache.json`` that is not an object of entry objects, or not UTF-8,
    is ignored with a warning, as one that is not JSON is, and stages rerun."""
    work = tmp_path / "work"
    config = _config(corpus_dir, work)
    run_pipeline(config, stages=["train-gmm"])
    (work / "cache.json").write_bytes(content)
    with caplog.at_level(logging.WARNING, logger="ldaselect.pipeline"):
        assert run_pipeline(config, stages=["train-gmm"]).skipped == {"train-gmm": False}
    assert f"ignoring corrupt cache file {work / 'cache.json'}" in caplog.messages
    assert run_pipeline(config, stages=["train-gmm"]).skipped == {"train-gmm": True}


def test_run_killed_mid_write_leaves_no_truncated_artifact(tmp_path, corpus_dir, deadline):
    """A run killed by SIGKILL while it writes a stage output leaves the old
    output under the final name and a ``*.tmp`` beside it; the next run
    removes the temporary and skips or reruns as the digests say."""
    work = tmp_path / "work"
    config = _config(corpus_dir, work)
    run_pipeline(config)
    before = {p.name: p.read_bytes() for p in work.iterdir()}
    config_file = tmp_path / "run.cfg"
    config_file.write_text(
        "[paths]\n" + "".join(
            f"{key} = {getattr(config.paths, key)}\n"
            for key in ("pool_manifest", "dev_manifest", "work_dir")
        )
        + "[quantizer]\nn_components = 2\nmax_iterations = 10\n"
        "[lda]\nn_topics = 2\nalpha = 0.1\nem_max_iterations = 15\ndoc_tol = 0.001\n",
        encoding="utf-8",
    )
    writer = (
        "import sys, time\n"
        "from ldaselect import lda\n"
        "from ldaselect.config import load_config\n"
        "from ldaselect.pipeline import run_pipeline\n"
        "def stall(posteriors, path):\n"
        "    with open(path, 'w', encoding='utf-8') as fh:\n"
        "        fh.write(posteriors.ids[0] + '\\t0.')\n"
        "    print('writing', flush=True)\n"
        "    time.sleep(60)\n"
        "lda.write_posteriors = stall\n"
        "run_pipeline(load_config(sys.argv[1]), ['posteriors'])\n"
    )
    src = str(Path(pipeline_module.__file__).parents[1])
    child = subprocess.Popen(
        [sys.executable, "-c", writer, str(config_file)], stdout=subprocess.PIPE,
        text=True, env={**os.environ, "PYTHONPATH": src},
    )
    try:
        assert child.stdout.readline() == "writing\n"
    finally:
        child.kill()
        child.wait()
        child.stdout.close()
    assert child.returncode == -signal.SIGKILL
    assert (work / "post_pool.tsv.tmp").is_file()
    assert {p.name: p.read_bytes() for p in work.iterdir() if p.suffix != ".tmp"} == before
    assert all(run_pipeline(config).skipped.values())
    assert not list(work.glob("*.tmp"))
    faster = replace(config, lda=replace(config.lda, doc_tol=0.001))
    assert run_pipeline(faster, ["posteriors"]).skipped == {"posteriors": False}


def test_sweep_failing_mid_write_leaves_earlier_sweep_files(tmp_path, corpus_dir, monkeypatch):
    """The sweep's selections, reports and summary are published by rename: a
    sweep that fails while writing a report fails as its stage, and leaves
    every file of the sweep before it, its cache entry too, as it was, and no
    temporary file."""
    work = tmp_path / "work"
    config = _config(corpus_dir, work)
    sweep_lambda(config, [0.3, 0.6])
    before = {p.name: p.read_bytes() for p in work.iterdir()}

    def half_then_fail(rep, path):
        path.write_text("domain\t", encoding="utf-8")
        raise OSError("injected failure while writing a report")

    monkeypatch.setattr(pipeline_module, "write_report_tsv", half_then_fail)
    with pytest.raises(StageError, match="injected"):
        sweep_lambda(config, [0.6, 0.3])
    assert {p.name: p.read_bytes() for p in work.iterdir()} == before


def test_repeated_sweep_skips_without_ranking_and_returns_equal_rows(
    tmp_path, corpus_dir, monkeypatch
):
    """A repeated sweep skips every stage it runs, ``sweep`` included, ranks
    nothing, and returns the rows the cold sweep returned."""
    config = _config(corpus_dir, tmp_path / "work")
    cold = Runner(config)
    rows = cold.sweep([0.3, 0.6, 1.0])
    assert cold.skipped["sweep"] is False
    assert [r["lambda"] for r in rows] == [0.3, 0.6, 1.0]
    ranked = []
    monkeypatch.setattr(pipeline_module, "rank_pool", lambda *args: ranked.append(args))
    warm = Runner(config)
    assert warm.sweep([0.3, 0.6, 1.0]) == rows
    assert all(warm.skipped.values()) and ranked == []
    assert sweep_lambda(config, [0.3, 0.6, 1.0]) == rows


@pytest.mark.parametrize(
    "lambdas, max_hours", [([0.3, 1.0], None), ([0.6, 0.3], None), ([0.3, 0.6], 0.001)]
)
def test_sweep_over_other_settings_reruns_only_the_sweep(
    lambdas, max_hours, tmp_path, corpus_dir
):
    """Another threshold list (the same thresholds in another order too) or
    another hour budget reruns ``sweep`` alone, and gives the files a sweep
    in a fresh work dir gives."""
    config = _config(corpus_dir, tmp_path / "work")
    Runner(config).sweep([0.3, 0.6])
    config.selection.max_hours = max_hours
    runner = Runner(config)
    runner.sweep(lambdas)
    assert {s for s, skipped in runner.skipped.items() if not skipped} == {"sweep"}
    fresh = replace(config, paths=replace(config.paths, work_dir=str(tmp_path / "fresh")))
    Runner(fresh).sweep(lambdas)
    for name in runner._sweep_stage(lambdas).outputs:
        assert (tmp_path / "work" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()


def test_damaged_sweep_output_reruns_the_sweep(tmp_path, corpus_dir):
    """Each sweep file, damaged in place, is rebuilt byte for byte by
    ``sweep`` alone."""
    work = tmp_path / "work"
    config = _config(corpus_dir, work)
    Runner(config).sweep([0.3, 0.6])
    outputs = Runner(config)._sweep_stage([0.3, 0.6]).outputs
    assert len(outputs) == 7
    for output in outputs:
        path = work / output
        good = path.read_bytes()
        data = bytearray(good)
        data[len(data) // 2] ^= 1
        path.write_bytes(bytes(data))
        runner = Runner(config)
        runner.sweep([0.3, 0.6])
        assert {s for s, skipped in runner.skipped.items() if not skipped} == {"sweep"}, output
        assert path.read_bytes() == good, output


def test_cached_sweep_opens_each_work_dir_file_at_most_once(tmp_path, corpus_dir, monkeypatch):
    """A cached sweep hashes each file of its chain once, reads its rows from
    the summary it hashed, and parses no posteriors or centroids."""
    import builtins
    import io

    work = tmp_path / "work"
    config = _config(corpus_dir, work)
    rows = sweep_lambda(config, [0.3, 0.6])
    opens = Counter()

    def counting(real):
        def wrapper(file, *args, **kwargs):
            if isinstance(file, (str, os.PathLike)) and Path(file).parent == work:
                opens[Path(file).name] += 1
            return real(file, *args, **kwargs)
        return wrapper

    parsed = []
    monkeypatch.setattr(pipeline_module.lda, "read_posteriors", parsed.append)
    for module in (builtins, io, os):
        monkeypatch.setattr(module, "open", counting(module.open))
    assert sweep_lambda(config, [0.3, 0.6]) == rows
    monkeypatch.undo()
    assert parsed == []
    assert set(opens) == {p.name for p in work.iterdir()}
    assert set(opens.values()) == {1}


# Every field of every non-path config section, and another valid value for
# it than ``_config(..., text=True)`` sets.
PERTURBED = {
    "quantizer": {
        "seed": 1, "max_iterations": 3, "tol": 1e-2, "var_floor_scale": 0.1,
        "init_subsample": 40, "n_components": 3, "max_train_frames": 500,
        "train_source": "dev",
    },
    "docmodel": {"idf_source": "pool", "text_vocab_cap": 8},
    "lda": {
        "seed": 1, "em_tol": 0.5, "em_max_iterations": 1, "doc_tol": 1e-2,
        "doc_max_iterations": 3, "eta": 0.5, "alpha": 0.5, "n_topics": 3,
        "train_source": "dev+pool",
    },
    "cluster": {"n_clusters": 3, "seed": 1, "max_iterations": 1, "spherical": True},
    "selection": {"threshold": 1.0, "max_hours": 0.001},
    "text": {"enabled": False, "n_topics": 3, "threshold": 1.0},
    "report": {"target_domain": "domain0"},
}
# Fields that no stage reads, and why; changing one reruns nothing.
UNREAD = {("report", "target_domain"): "read only by the compare command"}


def test_every_config_field_change_gives_the_outputs_of_a_cold_run(tmp_path, corpus_dir, caplog):
    """Cache soundness: with any one config field changed, a rerun of a
    copy of a warm, text-enabled work dir that also holds a two-threshold
    sweep leaves every declared output, sweep files included, byte-identical
    to a cold run and sweep under the new config. Each change of a field that
    a stage reads changes some output, so each case can catch a stale one."""
    from dataclasses import fields

    lambdas = [0.3, 0.6]
    sweep_files = [
        name.format(f"{lam:.9g}".replace(".", "p")) for lam in lambdas
        for name in ("selection_lambda_{}.audit.tsv", "selection_lambda_{}.tsv",
                     "report_lambda_{}.tsv")
    ] + ["sweep_summary.tsv"]
    base = _config(corpus_dir, tmp_path / "warm", text=True)
    run_pipeline(base)
    sweep_lambda(base, lambdas)
    before = {p.name: p.read_bytes() for p in (tmp_path / "warm").iterdir()}
    sections = [f.name for f in fields(PipelineConfig) if f.name != "paths"]
    assert {s: {f.name for f in fields(getattr(base, s))} for s in sections} == {
        s: set(values) for s, values in PERTURBED.items()
    }

    def rerun(config, work):
        config = replace(config, paths=replace(config.paths, work_dir=str(work)))
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="ldaselect.pipeline"):
            run_pipeline(config)
            sweep_lambda(config, lambdas)
        declared = [o for stage in Runner(config).stages.values() for o in stage.outputs]
        ran = [r.getMessage() for r in caplog.records if r.getMessage().endswith(": running")]
        return {o: (work / o).read_bytes() for o in declared + sweep_files}, ran

    for section in sections:
        for name, value in PERTURBED[section].items():
            assert getattr(getattr(base, section), name) != value, (section, name)
            config = replace(base, **{section: replace(getattr(base, section), **{name: value})})
            warm = tmp_path / "copy"
            shutil.copytree(tmp_path / "warm", warm)
            outputs, ran = rerun(config, warm)
            assert outputs == rerun(config, tmp_path / "cold")[0], (section, name)
            changed = any(data != before[o] for o, data in outputs.items())
            assert changed != ((section, name) in UNREAD), (section, name)
            if (section, name) in UNREAD:
                assert ran == [], (section, name)
            shutil.rmtree(warm)
            shutil.rmtree(tmp_path / "cold")


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
    run_pipeline(config, stages=list(Runner(config).stages)[:-1])
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
    with open(blank.transcript_file, "w", encoding="utf-8"):
        pass
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
    """A select that fails after writing its new audit leaves the old audit
    and no temporary file, so the old cache entry still holds: a rerun under
    the old parameters skips it. (Every pool utterance of this corpus lies
    within any threshold of a centroid, so an hour budget makes the original
    selection differ from the failed one's.)"""
    config = _config(corpus_dir, tmp_path / "work")
    config.selection.threshold = 0.2
    config.selection.max_hours = read_manifest(config.paths.pool_manifest).total_hours() / 2
    run_pipeline(config)
    audit = tmp_path / "work" / "selection.audit.tsv"
    good = audit.read_bytes()

    def fail(*args):
        raise OSError("injected failure after the audit was written")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline_module.corpus, "write_manifest", fail)
        budgeted = config.selection
        config.selection = replace(budgeted, threshold=0.9, max_hours=None)
        with pytest.raises(StageError, match="injected"):
            run_pipeline(config, stages=["select"])
    assert audit.read_bytes() == good
    assert not list(audit.parent.glob("*.tmp"))

    config.selection = budgeted
    result = run_pipeline(config)
    assert result.skipped["select"] is True
    assert result.skipped["cluster"] is True
    assert audit.read_bytes() == good
