import fcntl
import hashlib
import json
import logging
import os
import re
import shutil
import signal
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from ldaselect import pipeline as pipeline_module
from ldaselect.config import PipelineConfig
from ldaselect.corpus import (
    Manifest,
    Utterance,
    read_features,
    read_file,
    read_manifest,
    sample_frames,
    transcript_text,
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
from ldaselect.report import compare, report

from batches import entries
from synth import SynthSpec, generate_synthetic_corpus
from ldaselect.selection import (
    SelectedUtterance, SelectionResult, random_select, rank_pool, read_audit, select,
    union_combine,
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


def _manifests(config, n: int) -> dict:
    """Each of ``config``'s manifest paths, as a runner opens it, to ``n``."""
    return {Path(config.paths.dev_manifest): n, Path(config.paths.pool_manifest): n}


def _count_corpus_reads(monkeypatch, work) -> Counter:
    """A count, by path, of the files that ``corpus.read_file_stat`` reads
    from now on outside the work dir ``work``, whose files are counted
    elsewhere."""
    reads = Counter()
    real_read = pipeline_module.corpus.read_file_stat

    def counting_read(path):
        if Path(path).parent != work:
            reads[path] += 1
        return real_read(path)

    monkeypatch.setattr(pipeline_module.corpus, "read_file_stat", counting_read)
    return reads


def _count_builds(monkeypatch) -> Counter:
    """A count, by id, of the utterance records built from now on."""
    built = Counter()
    real_post_init = Utterance.__post_init__

    def counting_post_init(utt):
        built[utt.id] += 1
        real_post_init(utt)

    monkeypatch.setattr(Utterance, "__post_init__", counting_post_init)
    return built


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


def test_manifest_line_order_changes_no_output(tmp_path, corpus_dir):
    """The runner takes each manifest's utterances in id order. With the
    lines of both manifests permuted, every work-dir file of a run with the
    text path on, and of ``random-select``, is byte-identical, except the
    two that hold digests of the manifests' bytes."""
    from ldaselect.cli import main

    corpus = tmp_path / "corpus"
    shutil.copytree(corpus_dir, corpus)
    rng = np.random.default_rng(0)
    for which in ("pool", "dev"):
        header, *lines = (corpus / which / f"{which}.tsv").read_text("utf-8").splitlines(True)
        (corpus / which / "permuted.tsv").write_text(
            header + "".join(lines[i] for i in rng.permutation(len(lines))), "utf-8")
    files = {}
    for name in ("pool.tsv", "permuted.tsv"):
        config = _config(corpus, tmp_path / name, text=True)
        config.paths.pool_manifest = str(corpus / "pool" / name)
        config.paths.dev_manifest = str(corpus / "dev" / name.replace("pool", "dev"))
        run_pipeline(config)
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(
            f"[paths]\npool_manifest = {config.paths.pool_manifest}\n"
            f"dev_manifest = {config.paths.dev_manifest}\n"
            f"work_dir = {config.paths.work_dir}\n", "utf-8")
        assert main(["random-select", "--config", str(cfg), "--budget-hours", "0.001"]) == 0
        files[name] = {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()
                       if p.name not in ("cache.json", "signatures.json")}
    assert "random_selection.tsv" in files["pool.tsv"]
    assert "selection_text.audit.tsv" in files["pool.tsv"]
    assert files["permuted.tsv"] == files["pool.tsv"]


def test_a_change_below_the_stored_precision_keeps_the_selection(tmp_path, monkeypatch):
    """A 1e-9 relative change of every document weight can flip the last
    stored digit of a dev posterior; k-means seeds from the rows in the
    order given, so that does not reseed it and the selection stays."""
    for role, per_domain, seed, prefix in (("pool", 12, 11, ""), ("dev", 6, 12, "dev_")):
        spec = SynthSpec(3, per_domain, frames_range=(30, 50), role=role, id_prefix=prefix)
        generate_synthetic_corpus(spec, seed=seed, out_dir=tmp_path / role)
    tfidf = pipeline_module.docmodel.tfidf
    audits = []
    for scale in (1.0, 1 + 1e-9):
        def scaled(bag, stats, scale=scale):
            docs = tfidf(bag, stats)
            return replace(docs, weights=docs.weights * scale)

        monkeypatch.setattr(pipeline_module.docmodel, "tfidf", scaled)
        config = _config(tmp_path, tmp_path / f"work{scale}")
        config.quantizer.n_components = 4
        config.lda.n_topics = 3
        config.cluster.n_clusters = 4
        config.selection.max_hours = 0.0015
        audits.append(run_pipeline(config).selection)
    assert len(audits[0].selected) < 36
    assert [(s.utt_id, s.centroid, s.pass_index) for s in audits[1].selected] == [
        (s.utt_id, s.centroid, s.pass_index) for s in audits[0].selected]


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


@pytest.mark.parametrize("kind, settled", [
    pytest.param(kind, settled, id=f"{kind}-settled" if settled else kind)
    for settled in (False, True) for kind in ("missing", "directory", "fifo")
])
def test_absent_feature_file_fails_cold_and_cached_runs(
    kind, settled, tmp_path, corpus_dir, deadline, settle
):
    """A pool manifest naming a feature file that is not a regular file (none,
    a directory or a FIFO in its place) fails with "missing feature file" on a
    cold run and on a cached rerun, a rerun whose signature record vouched
    for the file too; the FIFO is never read, so nothing blocks."""
    settle(settled)
    shutil.copytree(corpus_dir, tmp_path / "corpus")
    config = _config(tmp_path / "corpus", tmp_path / "cached")
    run_pipeline(config)
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


@pytest.mark.parametrize("k, settled", [
    pytest.param(k, settled, id=f"{k}-settled" if settled else str(k))
    for settled in (False, True) for k in (1, 5)
])
def test_cached_run_and_sweep_read_each_input_once_per_runner(
    k, settled, tmp_path, corpus_dir, monkeypatch, settle
):
    """A cached ``run_pipeline`` and a k-threshold ``sweep_lambda`` build two
    runners. Each reads each manifest once, and every feature file once,
    unless the signature record vouches for the settled files, and then
    neither reads any. A runner builds each utterance once if it parses the
    manifests: for the contents pass, or for a stage that runs. Settled, the
    cached run's runner parses neither, and the sweep's parses both for its
    stage. The sweep's runner, the one that writes selections, builds each
    pool utterance's selection-manifest row once more, however many
    selections it writes."""
    settle(settled)
    config = _config(corpus_dir, tmp_path / "work")
    run_pipeline(config)
    pool = read_manifest(config.paths.pool_manifest)
    dev = read_manifest(config.paths.dev_manifest)
    reads = _count_corpus_reads(monkeypatch, tmp_path / "work")
    built = _count_builds(monkeypatch)
    assert all(run_pipeline(config).skipped.values())
    rows = sweep_lambda(config, [1.0 - 0.1 * i for i in range(k)])
    assert rows[0]["selected"] == len(pool)
    assert reads == _manifests(config, 2) | (
        {} if settled else {u.feature_file: 2 for m in (dev, pool) for u in m})
    parses = 1 if settled else 2
    assert built == {u.id: parses for u in dev} | {u.id: parses + 1 for u in pool}


def test_settled_cached_run_and_sweep_parse_no_manifest(tmp_path, corpus_dir, monkeypatch, settle):
    """Once a run and a sweep have settled, a cached ``run_pipeline`` and the
    same ``sweep_lambda`` skip every stage from the signature record and the
    scanned paths alone: no manifest is parsed and no utterance built."""
    settle(True)
    config = _config(corpus_dir, tmp_path / "work", text=True)
    lambdas = [0.9, 0.95, 1.0]
    run_pipeline(config)
    rows = sweep_lambda(config, lambdas)
    parses = []
    real_parse = pipeline_module.corpus.parse_manifest

    def counting_parse(data, path, role="pool"):
        parses.append(path)
        return real_parse(data, path, role)

    monkeypatch.setattr(pipeline_module.corpus, "parse_manifest", counting_parse)
    built = _count_builds(monkeypatch)
    assert all(run_pipeline(config).skipped.values())
    assert sweep_lambda(config, lambdas) == rows
    assert parses == [] and built == {}


def test_a_path_the_scan_spells_otherwise_falls_back_to_contents(
    tmp_path, corpus_dir, monkeypatch, settle
):
    """A feature path ending in ``/`` opens the file without it, as pathlib
    drops the slash, but the scan's ``stat`` of it fails: a settled cached
    rerun then hashes that part from contents, and only that part, skips
    every stage and leaves every output as a cold run writes it."""
    settle(True)
    shutil.copytree(corpus_dir, tmp_path / "corpus")
    pool_tsv = tmp_path / "corpus" / "pool" / "pool.tsv"
    lines = pool_tsv.read_text(encoding="utf-8").splitlines(keepends=True)
    for i, line in enumerate(lines):
        if not line.startswith("#"):
            fields = line.split("\t")
            fields[1] += "/"
            lines[i] = "\t".join(fields)
    pool_tsv.write_text("".join(lines), encoding="utf-8")
    pool = read_manifest(pool_tsv)
    assert all(u.feature_path.endswith("/") and Path(u.feature_file).is_file() for u in pool)
    config = _config(tmp_path / "corpus", tmp_path / "work")
    run_pipeline(config)
    reads = _count_corpus_reads(monkeypatch, tmp_path / "work")
    assert all(run_pipeline(config).skipped.values())
    assert reads == _manifests(config, 1) | {u.feature_file: 1 for u in pool}
    run_pipeline(_config(tmp_path / "corpus", tmp_path / "cold"))
    for name in [*ACOUSTIC_ARTIFACTS, "cache.json"]:
        assert (tmp_path / "work" / name).read_bytes() == (tmp_path / "cold" / name).read_bytes()


def test_cold_text_run_reads_features_three_times_and_transcripts_once(
    tmp_path, corpus_dir, monkeypatch
):
    """A cold run with the text path opens each feature file three times (the
    key's digest, ``train-gmm``'s sample and ``quantize``) and each
    transcript and manifest once: ``text-tfidf`` decodes the bytes its key's
    digest read, and no later stage holds them."""
    config = _config(corpus_dir, tmp_path / "work", text=True)
    utts = [u for w in ("dev", "pool") for u in read_manifest(getattr(config.paths, f"{w}_manifest"))]
    reads = _count_corpus_reads(monkeypatch, tmp_path / "work")
    held = {}
    real_run_stage = Runner._run_stage

    def recording_run_stage(runner, name, stage):
        real_run_stage(runner, name, stage)
        held[name] = sorted(runner._transcripts)

    monkeypatch.setattr(Runner, "_run_stage", recording_run_stage)
    assert not any(run_pipeline(config).skipped.values())
    assert reads == ({u.feature_file: 3 for u in utts} | {u.transcript_file: 1 for u in utts}
                     | _manifests(config, 1))
    assert {name: h for name, h in held.items() if h} == {"text-tfidf": ["dev", "pool"]}


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
    "text-train-lda": ["text_weighted_pool.adoc", "text_weighted_dev.adoc"],
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


def _flip(path: Path, at: int, how: str) -> None:
    """Flip the lowest bit of byte ``at`` of ``path``: by writing the file
    (``write``), then also setting its mtime and atime back (``utime``), or
    by renaming over it a copy that holds the flip and the old times
    (``rename``). Only the last two keep the file's size and mtime."""
    st = os.stat(path)
    data = bytearray(path.read_bytes())
    data[at] ^= 1
    target = path.with_name(path.name + ".new") if how == "rename" else path
    target.write_bytes(bytes(data))
    if how != "write":
        os.utime(target, ns=(st.st_atime_ns, st.st_mtime_ns))
    os.replace(target, path)
    assert os.stat(path).st_size == st.st_size
    assert how == "write" or os.stat(path).st_mtime_ns == st.st_mtime_ns


@pytest.mark.parametrize("kind, settled, how", [
    pytest.param(kind, settled, how, id=f"{kind}-settled-{how}" if settled else kind)
    for settled, how in ((False, "write"), (True, "write"), (True, "utime"), (True, "rename"))
    for kind in ("feature", "transcript", "pool manifest", "dev manifest", "artifact")
])
def test_one_byte_edit_reruns_exactly_its_readers_and_their_dependents(
    kind, settled, how, tmp_path, corpus_dir, settle
):
    """The stages that read the edited input rerun (for an edited artifact, the
    stage that wrote it), and so does every stage whose input artifacts changed
    as a result; every other stage is skipped. That holds when a signature
    record vouches for every input, and for edits that keep the file's size
    and mtime."""
    settle(settled)
    shutil.copytree(corpus_dir, tmp_path / "corpus")
    work = tmp_path / "work"
    config = _config(tmp_path / "corpus", work, text=True)
    run_pipeline(config)
    run_pipeline(config)
    path, at, readers = _edit(kind, tmp_path / "corpus", work)
    before = {p.name: p.read_bytes() for p in work.iterdir()}
    _flip(path, at, how)
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
    the manifests), outputs are unique, the acoustic chain comes first,
    reading the table touches no file, and a run executes exactly the
    table's order. The sweep stage reads outputs of the chain through
    ``cluster`` and writes files no other stage writes; a sweep runs that
    chain and then ``sweep``."""
    import builtins
    import io

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
    acoustic = ["train-gmm", "quantize", "tfidf", "train-lda", "posteriors", "cluster", "select"]
    text_chain = [
        "text-tfidf", "text-train-lda", "text-posteriors", "text-cluster", "text-select",
        "combine",
    ]
    assert list(table) == acoustic + (text_chain if text else []) + ["report"]
    assert list(runner.run().skipped) == list(table)

    chain = acoustic[: acoustic.index("select")]
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


def test_stage_failing_mid_write_leaves_its_old_outputs(
    tmp_path, corpus_dir, monkeypatch, settle
):
    """A stage that raises after writing part of an output leaves every final
    name as it was and no temporary file; its cache entry still holds, and
    so does the signature record."""
    settle(True)
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


def _counting_opens(monkeypatch, work: Path) -> Counter:
    """Count from now on each ``open`` of a file in ``work``, by file name."""
    import builtins
    import io

    opens = Counter()

    def counting(real):
        def wrapper(file, *args, **kwargs):
            if isinstance(file, (str, os.PathLike)) and Path(file).parent == work:
                opens[Path(file).name] += 1
            return real(file, *args, **kwargs)
        return wrapper

    for module in (builtins, io, os):
        monkeypatch.setattr(module, "open", counting(module.open))
    return opens


def test_cached_run_opens_each_work_dir_file_at_most_once(
    tmp_path, corpus_dir, monkeypatch, settle
):
    """A cached run hashes each artifact once: the digest that verifies a
    skipped stage's output is the one the next stage's key uses, and the
    selection the run returns is parsed from the bytes of
    ``selection.audit.tsv`` that were hashed. Once a run has recorded the
    settled artifacts' signatures, the next opens none but that selection,
    the lock, the cache file and the record. Each run rewrites the record
    once, through its temporary file."""
    for settled in (False, True):
        settle(settled)
        work = tmp_path / f"work-{settled}"
        config = _config(corpus_dir, work, text=True)
        run_pipeline(config)
        if settled:
            run_pipeline(config)
        opens = _counting_opens(monkeypatch, work)
        result = run_pipeline(config)
        monkeypatch.undo()
        assert all(result.skipped.values())
        assert result.selection == read_audit(work / "selection.audit.tsv")
        assert set(opens) == {"signatures.json.tmp"} | (
            {".lock", "cache.json", "signatures.json", "selection.audit.tsv"} if settled
            else {p.name for p in work.iterdir()}
        )
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


def test_stages_run_one_at_a_time_as_the_traced_benchmark_runs_them(
    tmp_path, corpus_dir, monkeypatch
):
    """What a traced benchmark pass needs of the library, on the text path:
    each stage of ``perfbench/tracing.STAGES``, run alone and in order in one
    work dir, gives a cold run's files; ``select`` runs in a fresh work dir
    that holds only copies of its two inputs, as the sweep's reference; and
    the manifests read with the roles the benchmark's child passes."""
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    from tracing import STAGES

    config = _config(corpus_dir, tmp_path / "cold", text=True)
    assert list(run_pipeline(config).skipped) == STAGES
    config.paths.work_dir = str(tmp_path / "staged")
    for stage in STAGES:
        assert run_pipeline(config, [stage]).skipped == {stage: False}
    cold, staged = (sorted(p.name for p in (tmp_path / w).iterdir()) for w in ("cold", "staged"))
    assert staged == cold
    for name in cold:  # the signature record holds what each run hashed
        assert name == "signatures.json" or (tmp_path / "staged" / name).read_bytes() == \
            (tmp_path / "cold" / name).read_bytes(), name

    ref = tmp_path / "reference"
    ref.mkdir()
    for name in ("post_pool.tsv", "centroids.tsv"):
        shutil.copyfile(tmp_path / "staged" / name, ref / name)
    unbudgeted = replace(config, selection=replace(config.selection, max_hours=None))
    run_pipeline(replace(unbudgeted, paths=replace(config.paths, work_dir=str(ref))), ["select"])
    sweep_lambda(unbudgeted, [config.selection.threshold])
    assert (ref / "selection_acoustic.audit.tsv").read_bytes() == \
        (tmp_path / "staged" / "selection_lambda_0p6.audit.tsv").read_bytes()

    for role in ("pool", "dev"):
        path = getattr(config.paths, f"{role}_manifest")
        assert read_manifest(path, role=role).ids() == read_manifest(path).ids()


def test_header_only_pool_selects_nothing(tmp_path, corpus_dir):
    """A pool manifest that lists no utterance is a pool of no documents: the
    acoustic path, the text path and a sweep each run to an empty
    selection."""
    empty = tmp_path / "pool.tsv"
    empty.write_text("# fps=100\n", encoding="utf-8")
    for text in (False, True):
        work = tmp_path / f"work_{text}"
        config = _config(corpus_dir, work, text=text)
        config.paths.pool_manifest = str(empty)
        assert run_pipeline(config).selection.ids() == []
        assert len(load_docs(work / "bags_pool.adoc")) == 0
        assert read_manifest(work / "selection.tsv").ids() == []
        assert len(read_posteriors(work / "post_pool.tsv")) == 0
    rows = sweep_lambda(config, [0.6, 1.0])
    assert [(r["selected"], r["passes"]) for r in rows] == [(0, 0), (0, 0)]


def test_bags_are_bags_of_words_of_frame_tokens(tmp_path, corpus_dir, monkeypatch):
    """Each ``bags_*.adoc`` holds ``bag_of_words`` over the utterances' frame
    tokens, each utterance quantized on its own; a zero-frame utterance is an
    empty document. ``quantize`` scores each corpus in one block, and the
    same bags come of blocks of 3 frames, which utterances straddle. The
    bags list the utterances in id order, whatever the manifest's order."""
    shutil.copytree(corpus_dir, tmp_path / "corpus")
    pool_path = tmp_path / "corpus" / "pool" / "pool.tsv"
    pool = read_manifest(pool_path)
    dim = pool.utterances[0].frame_dim
    write_features(np.zeros((0, dim)), tmp_path / "corpus" / "pool" / "silent.aldf")
    pool.utterances.insert(1, Utterance("silent", "silent.aldf", 0, dim, 0.5, "domain0"))
    write_manifest(pool, pool_path)
    config = _config(tmp_path / "corpus", tmp_path / "work")
    run_pipeline(config, stages=["train-gmm"])
    shutil.copytree(tmp_path / "work", tmp_path / "small")
    model = load_gmm(tmp_path / "work" / "gmm.agmm")
    calls = []
    monkeypatch.setattr(pipeline_module.gmm, "quantize",
                        lambda model, frames: calls.append(len(frames)) or quantize(model, frames))
    for work, block_values in (("work", None), ("small", 3 * dim)):
        if block_values:
            monkeypatch.setattr(pipeline_module.corpus, "_BLOCK_VALUES", block_values)
        config.paths.work_dir = str(tmp_path / work)
        calls.clear()
        assert run_pipeline(config, stages=["quantize"]).skipped == {"quantize": False}
        manifests = [read_manifest(getattr(config.paths, f"{w}_manifest")) for w in ("pool", "dev")]
        for manifest in manifests:
            manifest.utterances.sort(key=lambda u: u.id)
        frames = [sum(u.num_frames for u in m) for m in manifests]
        if block_values:
            assert calls == [n for f in frames for n in [3] * (f // 3) + [f % 3] * (f % 3 > 0)]
        else:
            assert calls == frames
        for which, manifest in zip(("pool", "dev"), manifests):
            expected = bag_of_words(
                manifest.ids(),
                [quantize(model, read_features(u)) for u in manifest],
                model.n_components,
            )
            bags = load_docs(tmp_path / work / f"bags_{which}.adoc")
            assert bags.ids == expected.ids
            for i in range(len(expected)):
                assert entries(bags, i) == entries(expected, i), (which, i)
        pool_bags = load_docs(tmp_path / work / "bags_pool.adoc")
        silent = pool_bags.ids.index("silent")
        assert pool_bags.indptr[silent] == pool_bags.indptr[silent + 1]


def test_an_empty_pool_document_is_ranked_and_selected_like_any_other(tmp_path, corpus_dir):
    """A zero-frame pool utterance is an empty document, whose posterior row
    is the prior alpha. Selection takes it as any other row: its distance to
    each centroid c is 1 - cos(alpha, c), two equal empty rows tie by id, and
    a threshold that admits every distance selects them too."""
    shutil.copytree(corpus_dir, tmp_path / "corpus")
    pool_path = tmp_path / "corpus" / "pool" / "pool.tsv"
    pool = read_manifest(pool_path)
    dim = pool.utterances[0].frame_dim
    write_features(np.zeros((0, dim)), tmp_path / "corpus" / "pool" / "silent.aldf")
    for at, uid in ((1, "silent_b"), (4, "silent_a")):
        pool.utterances.insert(at, Utterance(uid, "silent.aldf", 0, dim, 0.5, "domain0"))
    write_manifest(pool, pool_path)
    config = _config(tmp_path / "corpus", tmp_path / "work")
    config.selection.threshold = 1.0
    result = run_pipeline(config)
    work = tmp_path / "work"

    alpha = load_lda(work / "lda.alda").alpha
    posts = read_posteriors(work / "post_pool.tsv")
    empty = [posts.ids.index(uid) for uid in ("silent_a", "silent_b")]
    for row in empty:
        assert np.array_equal(posts.gamma[row], alpha)
    centroids = read_posteriors(work / "centroids.tsv").gamma
    ranking = rank_pool(posts, read_manifest(pool_path), centroids)
    for c, centroid in enumerate(centroids):
        want = 1.0 - alpha @ centroid / (np.linalg.norm(alpha) * np.linalg.norm(centroid))
        at = [ranking.order[c].tolist().index(row) for row in empty]
        assert at[1] == at[0] + 1
        assert ranking.dists[c, at[0]] == ranking.dists[c, at[1]]
        assert ranking.dists[c, at[0]] == pytest.approx(want, rel=0, abs=1e-12)
    assert sorted(result.selection.ids()) == sorted(posts.ids)


def test_text_stages_rejected_when_text_path_is_off(tmp_path, corpus_dir):
    config = _config(corpus_dir, tmp_path / "work")
    with pytest.raises(
        ValidationError, match=r"\['text-tfidf', 'text-select'\].*\[text\] enabled"
    ):
        run_pipeline(config, stages=["text-tfidf", "text-select"])
    assert not (tmp_path / "work" / "text_vocab.tsv").exists()


def test_topic_models_take_their_vocabulary_size_from_the_documents(tmp_path, corpus_dir):
    """Every document file and topic model of a path is over one vocabulary:
    the codebook's components on the acoustic path, the words of
    ``text_vocab.tsv`` on the text path. That file is written for people to
    read and no stage reads it: an edit to it reruns only its writer, which
    restores it."""
    work = tmp_path / "work"
    config = _config(corpus_dir, work, text=True)
    run_pipeline(config)
    vocab = work / "text_vocab.tsv"
    text = vocab.read_bytes()
    size = len(text.splitlines())
    assert size > config.quantizer.n_components
    for prefix, names, v in [
        ("", ["bags_pool", "bags_dev", "weighted_pool", "weighted_dev"],
         config.quantizer.n_components),
        ("text_", ["weighted_pool", "weighted_dev"], size),
    ]:
        assert [load_docs(work / f"{prefix}{n}.adoc").vocab_size for n in names] == [v] * len(names)
        assert load_lda(work / f"{prefix}lda.alda").vocab_size == v
    with open(vocab, "a", encoding="utf-8") as fh:
        fh.write(f"extra\t{size}\n")
    result = run_pipeline(config)
    assert [name for name, skipped in result.skipped.items() if not skipped] == ["text-tfidf"]
    assert vocab.read_bytes() == text


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
    """No threshold, two that share a tag, or one out of range are refused
    before the work dir exists. With no threshold the sweep would otherwise
    run the chain and publish a header-only summary over the last sweep's."""
    work = tmp_path / "work"
    config = _config(corpus_dir, work)
    with pytest.raises(ValidationError, match="lambdas must list at least one threshold"):
        sweep_lambda(config, [])
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
        assert transcript_text(utt, read_file(utt.transcript_file)).strip()


@pytest.mark.parametrize("fault", ["repeat", "outsider"])
def test_every_selection_check_refuses_a_repeat_or_an_outsider_alike(
    tmp_path, corpus_dir, fault
):
    """``report``, ``compare``, ``union_combine`` and ``Runner.write_selection``
    refuse a selection that lists an utterance twice, or one that is not in
    the pool, with one error naming it, and ``write_selection`` writes
    nothing. Kept, a repeat would count its hours twice and give a selection
    manifest that does not read back."""
    runner = Runner(_config(corpus_dir, tmp_path / "work"))
    first = runner.pool.utterances[0]
    uid, message = {
        "repeat": (first.id, f"selection lists utterance '{first.id}' twice"),
        "outsider": ("ghost", "utterance 'ghost' is not in the pool manifest"),
    }[fault]
    bad = SelectionResult(
        [SelectedUtterance(first.id, "c", 0.1, 1), SelectedUtterance(uid, "c", 0.1, 1)],
        passes=1,
    )
    audit, manifest = runner.work / "bad.audit.tsv", runner.work / "bad.tsv"
    calls = [
        partial(report, bad, runner.pool),
        partial(compare, [("bad", bad)], runner.pool, first.domain_tag),
        partial(union_combine, bad, SelectionResult(), runner.pool),
        partial(union_combine, SelectionResult(), bad, runner.pool),
        partial(runner.write_selection, bad, audit, manifest),
    ]
    with runner.owned():
        for call in calls:
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                call()
    assert not audit.exists() and not manifest.exists()


def test_copied_corpus_and_work_dir_rewrite_their_selection_manifests(
    tmp_path, corpus_dir, caplog, settle
):
    """Selection manifests name the pool's files resolved against the pool
    manifest's directory. Rerun from a copy of the corpus and its work dir,
    the three stages that write them run again and name the copy's files;
    every other stage is skipped. A settled copy's signature record vouches
    for nothing: every file of the copy is another file, so all are hashed."""
    for settled in (False, True):
        settle(settled)
        a, b = tmp_path / f"{settled}" / "a", tmp_path / f"{settled}" / "b"
        shutil.copytree(corpus_dir, a / "corpus")
        config = _config(a / "corpus", a / "work", text=True)
        run_pipeline(config)
        run_pipeline(config)
        shutil.copytree(a, b)
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="ldaselect.pipeline"):
            result = run_pipeline(_config(b / "corpus", b / "work", text=True))
        ran = {name for name, skipped in result.skipped.items() if not skipped}
        assert ran == {"select", "text-select", "combine"}
        reason = "signature changed" if settled else "too recent to settle"
        assert _digests_line(caplog) == (
            "digests: 0 corpus parts and 0 work-dir files verified by signature; "
            f"hashed 4 corpus parts (4 {reason}) and 21 work-dir files (21 {reason})"
        )
        for name in ("selection.tsv", "selection_acoustic.tsv", "selection_text.tsv"):
            path = b / "work" / name
            assert str(a) + "/" not in path.read_text(encoding="utf-8")
            selected = read_manifest(path)
            assert len(selected) > 0
            for utt in selected:
                assert utt.feature_file.startswith(str(b / "corpus") + "/")
                assert utt.transcript_file.startswith(str(b / "corpus") + "/")


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


def test_cached_sweep_opens_each_work_dir_file_at_most_once(
    tmp_path, corpus_dir, monkeypatch, settle
):
    """A cached sweep hashes each file of its chain once, reads its rows from
    the summary it hashed, and parses no posteriors or centroids. Once a
    sweep has recorded the settled files' signatures, the next opens none but
    the summary, the lock, the cache file and the record. Each sweep rewrites
    the record once, through its temporary file."""
    for settled in (False, True):
        settle(settled)
        work = tmp_path / f"work-{settled}"
        config = _config(corpus_dir, work)
        rows = sweep_lambda(config, [0.3, 0.6])
        if settled:
            sweep_lambda(config, [0.3, 0.6])
        parsed = []
        monkeypatch.setattr(pipeline_module.lda, "read_posteriors", parsed.append)
        opens = _counting_opens(monkeypatch, work)
        assert sweep_lambda(config, [0.3, 0.6]) == rows
        monkeypatch.undo()
        assert parsed == []
        assert set(opens) == {"signatures.json.tmp"} | (
            {".lock", "cache.json", "signatures.json", "sweep_summary.tsv"} if settled
            else {p.name for p in work.iterdir()}
        )
        assert set(opens.values()) == {1}


def _digests_line(caplog) -> str:
    """The one line a run logs on how it took its digests."""
    (line,) = [m for m in caplog.messages if m.startswith("digests: ")]
    return line


def test_each_run_logs_how_it_took_its_digests(tmp_path, corpus_dir, caplog, settle):
    """Each run logs how many corpus parts and work-dir files its signature
    record verified and how many it hashed, and why: an unsettled run
    records nothing, the first settled run records everything it hashed, and
    the next reads only the selection it returns."""
    config = _config(corpus_dir, tmp_path / "work")

    def line() -> str:
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="ldaselect.pipeline"):
            run_pipeline(config)
        return _digests_line(caplog)

    assert line() == (
        "digests: 0 corpus parts and 0 work-dir files verified by signature; "
        "hashed 2 corpus parts (2 too recent to settle) and 0 work-dir files"
    )
    assert line() == (
        "digests: 0 corpus parts and 0 work-dir files verified by signature; "
        "hashed 2 corpus parts (2 too recent to settle) and 14 work-dir files "
        "(14 too recent to settle)"
    )
    settle(True)
    assert line() == (
        "digests: 0 corpus parts and 0 work-dir files verified by signature; "
        "hashed 2 corpus parts (2 no entry) and 14 work-dir files (14 no entry)"
    )
    assert line() == (
        "digests: 2 corpus parts and 13 work-dir files verified by signature; "
        "hashed 0 corpus parts and 1 work-dir files (1 returned)"
    )


def _settled_work_dir(config, settle) -> dict[str, bytes]:
    """Settle every file, then run ``config`` cold and again, so that the
    signature record holds every corpus part and artifact; return the files."""
    settle(True)
    run_pipeline(config)
    run_pipeline(config)
    work = Path(config.paths.work_dir)
    return {p.name: p.read_bytes() for p in work.iterdir()}


@pytest.mark.parametrize(
    "content", [b"not json", b'"\xff"', b"[]", b'{"pool features": {"digest": 1}}']
)
def test_signature_record_of_the_wrong_shape_is_ignored(
    content, tmp_path, corpus_dir, caplog, settle
):
    """A signature record that is not UTF-8 JSON, not an object, or holds an
    entry of another shape is ignored with a warning: the run hashes every
    file, skips every stage and writes the record a settled run writes."""
    work = tmp_path / "work"
    config = _config(corpus_dir, work)
    good = _settled_work_dir(config, settle)["signatures.json"]
    (work / "signatures.json").write_bytes(content)
    with caplog.at_level(logging.INFO, logger="ldaselect.pipeline"):
        assert all(run_pipeline(config).skipped.values())
    assert f"ignoring corrupt signature record {work / 'signatures.json'}" in caplog.messages
    assert _digests_line(caplog).startswith(
        "digests: 0 corpus parts and 0 work-dir files verified by signature; ")
    assert (work / "signatures.json").read_bytes() == good


@pytest.mark.parametrize("entry", ["pool features", "dev features", "post_pool.tsv", "lda.alda"])
def test_signature_record_that_contents_contradict_is_discarded(
    entry, tmp_path, corpus_dir, caplog, settle
):
    """A recorded digest that the contents contradict makes the stage that
    reads (or wrote) the file run, which checks the contents first: the run
    warns, discards the record, checks every stage from contents, skips them
    all and records the true digests."""
    work = tmp_path / "work"
    config = _config(corpus_dir, work)
    files = _settled_work_dir(config, settle)
    record = json.loads(files["signatures.json"])
    record[entry]["digest"] = "0" * 64
    (work / "signatures.json").write_text(json.dumps(record), encoding="utf-8")
    with caplog.at_level(logging.INFO, logger="ldaselect.pipeline"):
        assert all(run_pipeline(config).skipped.values())
    assert [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING] == [
        f"signature record {work / 'signatures.json'}: the contents of {entry} contradict "
        "its recorded digest; discarding the record and checking from contents"
    ]
    assert {p.name: p.read_bytes() for p in work.iterdir()} == files


def test_signature_record_size_does_not_depend_on_settling(tmp_path, corpus_dir, settle):
    """A file hashed before it settled keeps its name in the record, with
    fields of a settled entry's length, and every run rewrites the record:
    the same runs write a record of the same size, settled or not."""
    sizes = {}
    for settled in (False, True):
        settle(settled)
        config = _config(corpus_dir, tmp_path / f"work-{settled}", text=True)
        record = tmp_path / f"work-{settled}" / "signatures.json"
        sizes[settled] = []
        for step in (run_pipeline, run_pipeline, partial(sweep_lambda, lambdas=[0.3, 0.6])):
            step(config)
            sizes[settled].append(record.stat().st_size)
    assert sizes[False] == sizes[True]


def test_new_vocabulary_cap_rereads_each_settled_transcript_once(
    tmp_path, corpus_dir, monkeypatch, settle
):
    """On a settled text run, a new ``docmodel.text_vocab_cap`` reruns
    ``text-tfidf``, which reads each transcript once, for its key and its
    body alike, and no feature file; the runner reads each manifest once.
    Every output equals a cold run's."""
    config = _config(corpus_dir, tmp_path / "work", text=True)
    _settled_work_dir(config, settle)
    config.docmodel.text_vocab_cap = 8
    reads = _count_corpus_reads(monkeypatch, tmp_path / "work")
    result = run_pipeline(config)
    monkeypatch.undo()
    assert result.skipped["text-tfidf"] is False
    utts = [u for w in ("dev", "pool")
            for u in read_manifest(getattr(config.paths, f"{w}_manifest"))]
    assert reads == {u.transcript_file: 1 for u in utts} | _manifests(config, 1)
    run_pipeline(replace(config, paths=replace(config.paths, work_dir=str(tmp_path / "cold"))))
    for p in (tmp_path / "cold").iterdir():
        if p.name != "signatures.json":
            assert (tmp_path / "work" / p.name).read_bytes() == p.read_bytes(), p.name


def test_new_sweep_on_a_settled_work_dir_opens_its_inputs_once(
    tmp_path, corpus_dir, monkeypatch, settle
):
    """A sweep over a new threshold list on a settled work dir takes the
    digests of ``post_pool.tsv`` and ``centroids.tsv`` from the signature
    record, so only the sweep's body opens them, once each."""
    work = tmp_path / "work"
    config = _config(corpus_dir, work)
    _settled_work_dir(config, settle)
    opens = _counting_opens(monkeypatch, work)
    runner = Runner(config)
    runner.sweep([0.3, 0.6])
    monkeypatch.undo()
    assert {s for s, skipped in runner.skipped.items() if not skipped} == {"sweep"}
    assert opens["post_pool.tsv"] == opens["centroids.tsv"] == 1


# Every field of every non-path config section, and another valid value for
# it than ``_config(..., text=True)`` sets. The fixture's frames form two far
# apart clusters, and EM from GMM seed 0 reaches their mixture's fixed point
# in three M-steps: seed 1 ends on it bit for bit, seed 3 with the components
# swapped, and only fewer M-steps (``max_iterations``) stop short.
PERTURBED = {
    "quantizer": {
        "seed": 3, "max_iterations": 2, "n_components": 3, "max_train_frames": 500,
    },
    "docmodel": {"text_vocab_cap": 8},
    "lda": {
        "seed": 1, "em_max_iterations": 1, "doc_tol": 1e-2, "doc_max_iterations": 3,
        "alpha": 0.5, "n_topics": 3, "train_source": "dev+pool",
    },
    "cluster": {"n_clusters": 3, "seed": 1},
    "selection": {"threshold": 1.0, "max_hours": 0.001},
    "text": {"enabled": False},
}
# The config fields each stage's body reads, written out by hand; stages that
# read none (quantize, tfidf, combine, report) are left out.
_LDA = {f"lda.{name}" for name in PERTURBED["lda"]}
_CLUSTER = {f"cluster.{name}" for name in PERTURBED["cluster"]}
_SELECT = {"selection.threshold", "selection.max_hours"}
READS = {
    "train-gmm": {f"quantizer.{name}" for name in PERTURBED["quantizer"]},
    "train-lda": _LDA,
    "posteriors": {"lda.doc_tol", "lda.doc_max_iterations"},
    "cluster": _CLUSTER,
    "select": _SELECT,
    "text-tfidf": {"docmodel.text_vocab_cap"},
    "text-train-lda": _LDA,
    "text-posteriors": {"lda.doc_tol", "lda.doc_max_iterations"},
    "text-cluster": _CLUSTER,
    "text-select": _SELECT,
    "sweep": {"selection.max_hours"},
}


def _changed_settings(before: dict, after: dict) -> dict[str, set[str]]:
    """For each stage of two ``cache.json`` contents, the settings whose
    recorded values differ (a part's name holds a space unless it is a
    setting); stages whose settings are all unchanged are left out."""
    changed = {}
    for stage, entry in after.items():
        old, new = before.get(stage, {}).get("parts", {}), entry["parts"]
        diff = {p for p in old.keys() | new.keys() if " " not in p and old.get(p) != new.get(p)}
        if diff:
            changed[stage] = diff
    return changed


def test_every_config_field_change_gives_the_outputs_of_a_cold_run(tmp_path, corpus_dir):
    """Cache soundness: with any one config field changed, a rerun of a
    copy of a warm, text-enabled work dir that also holds a two-threshold
    sweep leaves every declared output, sweep files included, byte-identical
    to a cold run and sweep under the new config. Each change of a field that
    a stage reads changes some output, so each case can catch a stale one.
    Precision: the stages whose recorded settings changed are exactly those
    that ``READS`` says read the field, and that field is the only recorded
    setting that changed."""
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
    warm_cache = json.loads(before["cache.json"])
    sections = [f.name for f in fields(PipelineConfig) if f.name != "paths"]
    assert {s: {f.name for f in fields(getattr(base, s))} for s in sections} == {
        s: set(values) for s, values in PERTURBED.items()
    }

    def rerun(config, work):
        config = replace(config, paths=replace(config.paths, work_dir=str(work)))
        run_pipeline(config)
        sweep_lambda(config, lambdas)
        declared = [o for stage in Runner(config).stages.values() for o in stage.outputs]
        return {o: (work / o).read_bytes() for o in declared + sweep_files}

    for section in sections:
        for name, value in PERTURBED[section].items():
            assert getattr(getattr(base, section), name) != value, (section, name)
            config = replace(base, **{section: replace(getattr(base, section), **{name: value})})
            warm = tmp_path / "copy"
            shutil.copytree(tmp_path / "warm", warm)
            outputs = rerun(config, warm)
            assert outputs == rerun(config, tmp_path / "cold"), (section, name)
            assert any(data != before[o] for o, data in outputs.items()), (section, name)
            dotted = f"{section}.{name}"
            readers = {stage for stage, fields_read in READS.items() if dotted in fields_read}
            recorded = _changed_settings(warm_cache, json.loads((warm / "cache.json").read_text()))
            assert recorded == {stage: {dotted} for stage in readers}, dotted
            shutil.rmtree(warm)
            shutil.rmtree(tmp_path / "cold")


# Config fields outside [paths] that no stage declares, and why.
NOT_DECLARED = {"text.enabled": "decides which stages the table holds"}


def test_every_config_field_is_declared_by_a_stage_or_listed(tmp_path, corpus_dir):
    """Each field outside ``[paths]`` is a setting some stage of the
    text-enabled table or the sweep declares (a section declares all its
    fields), or it is listed in ``NOT_DECLARED``, and not both: no knob is
    read by nothing. No stage the sweep reuses declares a ``selection``
    field, so an unbudgeted sweep still finds them cached."""
    from dataclasses import fields, is_dataclass
    from functools import reduce

    config = _config(corpus_dir, tmp_path / "work", text=True)
    runner = Runner(config)
    table = runner.stages | {"sweep": runner._sweep_stage([0.5])}
    declared = {}
    for name, stage in table.items():
        for setting in stage.settings:
            value = reduce(getattr, setting.split("."), config)
            whole = is_dataclass(value)
            for field_name in [f"{setting}.{f.name}" for f in fields(value)] if whole else [setting]:
                declared.setdefault(field_name, set()).add(name)
    every = {
        f"{section.name}.{f.name}" for section in fields(PipelineConfig)
        if section.name != "paths" for f in fields(section.type)
    }
    assert set(declared) | set(NOT_DECLARED) == every
    assert not set(declared) & set(NOT_DECLARED)
    reused = list(table)[: list(table).index("select")]
    assert not any(s.startswith("selection") for name in reused for s in table[name].settings)


def test_a_rerun_marks_a_setting_that_one_key_lacks(tmp_path, corpus_dir, caplog):
    """A setting that a cache entry holds and its stage no longer declares
    (``text.n_topics``, say, from a work dir built when the text path had
    its own topic count), or one that the stage declares and the entry
    lacks, is logged as ``(undeclared)`` on the side that lacks it, which no
    repr equals: Python's ``None`` there would read as the setting ``None``."""
    work = tmp_path / "work"
    config = _config(corpus_dir, work, text=True)
    run_pipeline(config)
    path = work / "cache.json"
    cache = json.loads(path.read_text(encoding="utf-8"))
    for stage, parts in [
        ("posteriors", {k: v for k, v in cache["posteriors"]["parts"].items()
                        if k != "lda.doc_tol"}),
        ("text-train-lda", cache["text-train-lda"]["parts"] | {"text.n_topics": "None"}),
    ]:
        key = hashlib.sha256(json.dumps(parts).encode()).hexdigest()
        cache[stage] |= {"parts": parts, "key": key}
    path.write_text(json.dumps(cache), encoding="utf-8")
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="ldaselect.pipeline"):
        run_pipeline(config)
    assert [r.getMessage() for r in caplog.records if ": running (" in r.getMessage()] == [
        "stage posteriors: running (lda.doc_tol (undeclared) -> 0.0001)",
        "stage text-train-lda: running (text.n_topics None -> (undeclared))",
    ]


def test_a_work_dir_keyed_with_the_corpus_choices_reruns_only_their_stages(
    tmp_path, corpus_dir, caplog, capsys
):
    """``quantizer.train_source`` and ``docmodel.idf_source`` are gone: the
    codebook always trains on dev+pool and idf always counts both corpora,
    as their defaults did. A work dir whose cache keys still hold them, as
    one built before they went, reruns exactly the stages that declared them,
    each logging the setting as ``(undeclared)``, and rewrites the same
    files; every other stage is skipped. A config that sets either is
    refused as an unknown key."""
    from ldaselect.cli import main

    work = tmp_path / "work"
    config = _config(corpus_dir, work, text=True)
    run_pipeline(config)
    path = work / "cache.json"
    cache = json.loads(path.read_text(encoding="utf-8"))
    old = {"train-gmm": ("quantizer.max_train_frames", "quantizer.train_source"),
           "tfidf": ("input bags_dev.adoc", "docmodel.idf_source"),
           "text-tfidf": ("docmodel.text_vocab_cap", "docmodel.idf_source")}
    for stage, (after, setting) in old.items():
        parts = {}
        for name, value in cache[stage]["parts"].items():
            parts[name] = value
            if name == after:
                parts[setting] = "'dev+pool'"
        key = hashlib.sha256(json.dumps(parts).encode()).hexdigest()
        cache[stage] |= {"parts": parts, "key": key}
    path.write_text(json.dumps(cache), encoding="utf-8")
    before = {p.name: p.read_bytes() for p in work.iterdir()}
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="ldaselect.pipeline"):
        result = run_pipeline(config)
    assert [r.getMessage() for r in caplog.records if ": running (" in r.getMessage()] == [
        f"stage {stage}: running ({setting} 'dev+pool' -> (undeclared))"
        for stage, (_, setting) in old.items()
    ]
    assert {s for s, skipped in result.skipped.items() if not skipped} == set(old)
    after = {p.name: p.read_bytes() for p in work.iterdir()}
    ignored = {"cache.json", "signatures.json"}
    assert {n: d for n, d in after.items() if n not in ignored} == {
        n: d for n, d in before.items() if n not in ignored}
    for section, key in [("quantizer", "train_source"), ("docmodel", "idf_source")]:
        cfg = tmp_path / f"{key}.cfg"
        cfg.write_text(f"[{section}]\n{key} = dev+pool\n", encoding="utf-8")
        assert main(["run", "--config", str(cfg)]) == 1
        assert f"unknown key '{key}' in section [{section}]" in capsys.readouterr().err


def test_a_rerun_names_what_changed(tmp_path, corpus_dir, caplog):
    """A stage that runs says why: no cache entry, the settings that changed
    with their old and new values, a changed input or corpus part, or a
    changed output."""
    shutil.copytree(corpus_dir, tmp_path / "corpus")
    work = tmp_path / "work"
    config = _config(tmp_path / "corpus", work)

    def running(stages=None):
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="ldaselect.pipeline"):
            run_pipeline(config, stages)
        return [r.getMessage() for r in caplog.records if ": running (" in r.getMessage()]

    assert running() == [f"stage {s}: running (no cache entry)" for s in Runner(config).stages]
    config.lda.doc_tol = 1e-3
    assert running(["posteriors"]) == ["stage posteriors: running (lda.doc_tol 0.0001 -> 0.001)"]
    assert running()[0] == "stage train-lda: running (lda.doc_tol 0.0001 -> 0.001)"
    config.quantizer.seed = PERTURBED["quantizer"]["seed"]
    assert running()[:2] == [
        "stage train-gmm: running (quantizer.seed 0 -> 3)",
        "stage quantize: running (input gmm.agmm changed)",
    ]
    (work / "post_pool.tsv").write_bytes(b"")
    assert running(["posteriors"]) == ["stage posteriors: running (output post_pool.tsv changed)"]
    with open(config.paths.pool_manifest, "a", encoding="utf-8") as fh:
        fh.write("# a comment changes the bytes, not the utterances\n")
    assert running(["report"]) == ["stage report: running (pool manifest changed)"]


def test_cache_file_without_parts_reruns_every_stage(tmp_path, corpus_dir, caplog, settle):
    """A ``cache.json`` whose entries record no parts, as one written before
    parts were recorded, reruns every stage with that reason and rewrites the
    same outputs, and the same signature record; the next run skips them all."""
    settle(True)
    work = tmp_path / "work"
    config = _config(corpus_dir, work, text=True)
    run_pipeline(config)
    before = {p.name: p.read_bytes() for p in work.iterdir() if p.name != "cache.json"}
    cache = json.loads((work / "cache.json").read_text(encoding="utf-8"))
    old = {name: {"key": "0" * 64, "outputs": e["outputs"]} for name, e in cache.items()}
    (work / "cache.json").write_text(json.dumps(old), encoding="utf-8")
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="ldaselect.pipeline"):
        result = run_pipeline(config)
    assert not any(result.skipped.values())
    assert [m for m in caplog.messages if ": running (" in m] == [
        f"stage {s}: running (cache entry records no parts)" for s in result.skipped
    ]
    assert {p.name: p.read_bytes() for p in work.iterdir() if p.name != "cache.json"} == before
    assert all(run_pipeline(config).skipped.values())


def test_a_recorded_null_part_the_stage_does_not_declare_reruns_it(tmp_path, corpus_dir, caplog):
    """A stage skips only when its recorded parts equal its parts: a part that
    only the entry holds reruns the stage, even when ``cache.json`` records it
    as null, which the stage's own lookup of a missing part also gives."""
    work = tmp_path / "work"
    config = _config(corpus_dir, work)
    run_pipeline(config)
    cache = json.loads((work / "cache.json").read_text(encoding="utf-8"))
    cache["report"]["parts"]["report.gone"] = None
    (work / "cache.json").write_text(json.dumps(cache), encoding="utf-8")
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="ldaselect.pipeline"):
        result = run_pipeline(config)
    assert [s for s, skipped in result.skipped.items() if not skipped] == ["report"]
    assert [m for m in caplog.messages if ": running (" in m] == [
        "stage report: running (report.gone None -> (undeclared))"]


def test_cold_runs_in_two_work_dirs_write_the_same_cache_file(tmp_path, corpus_dir):
    """``cache.json`` holds no time, pid or work-dir path: two cold runs and
    sweeps of one config write it byte for byte alike."""
    for work in ("w1", "w2"):
        config = _config(corpus_dir, tmp_path / work, text=True)
        run_pipeline(config)
        sweep_lambda(config, [0.3, 0.6])
    assert (tmp_path / "w1" / "cache.json").read_bytes() == (
        tmp_path / "w2" / "cache.json"
    ).read_bytes()


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
