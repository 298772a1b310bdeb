"""Counts, caps, seeds, tolerances and arrays at the library boundary: a
value that is not a whole number in range, a tolerance or budget that is not
finite and positive, a document weight that is not finite and >= 0, or an
array of the wrong shape or kind or holding NaN, is refused with a
ValidationError naming it, not run with no cap or no limit, silently cast,
or passed on to numpy, which would raise its own error or return NaN.
Readers and writers refuse a path that is not a regular file with an
OSError, at once."""

import math
import os
import re

import numpy as np
import pytest

from ldaselect import (
    DocBatch,
    GmmConfig,
    LdaConfig,
    LdaSelectError,
    Manifest,
    PipelineConfig,
    Posteriors,
    SelectionConfig,
    Utterance,
    ValidationError,
    bag_of_words,
    build_text_vocab,
    compute_stats,
    extract_posteriors,
    load_config,
    load_gmm,
    load_lda,
    random_select,
    read_features,
    read_manifest,
    report,
    save_gmm,
    save_lda,
    select,
    tfidf,
    train_gmm,
    train_kmeans,
    train_lda,
    validate_config,
    write_features,
    write_manifest,
)
from ldaselect.corpus import read_file
from ldaselect.docmodel import load_docs, save_docs
from ldaselect.lda import read_posteriors, validate_lda_config, write_posteriors
from ldaselect.report import write_report_tsv
from ldaselect.selection import rank_pool, read_audit, write_audit
from ldaselect.signatures import sha256

from batches import batch


def _docs(vocab_size=3, weight=1.5):
    """Two documents; 'b' holds one term, of weight ``weight``."""
    return batch([("a", [(0, 1.0), (1, 0.5)]), ("b", [(2, weight)])], vocab_size)


def _model():
    return train_lda(_docs(), 2, LdaConfig(seed=0, em_max_iterations=1))


def _frames():
    return np.random.default_rng(0).normal(size=(20, 2))


def _nan_frames():
    frames = _frames()
    frames[3, 1] = math.nan
    return frames


def _pool():
    return Manifest([Utterance(f"u{i}", f"u{i}.aldf", 10, 2, 3600.0, "pool") for i in range(3)])


def _select(config):
    ids = [u.id for u in _pool()]
    return select(Posteriors(ids, np.ones((len(ids), 2))), _pool(), np.ones((1, 2)), config)


def _validate(section, key, value):
    """``validate_config`` of one setting changed; it reads no file."""
    config = PipelineConfig()
    config.paths.pool_manifest, config.paths.dev_manifest = "pool.tsv", "dev.tsv"
    config.paths.work_dir = "work"
    setattr(getattr(config, section), key, value)
    validate_config(config)


# The selection settings' messages name them as the command line does.
_MESSAGE_NAMES = {
    "threshold": "distance threshold", "max_hours": "hour budget", "budget_hours": "hour budget",
}

CASES = [
    *[
        pytest.param(
            lambda v=v: extract_posteriors(_model(), _docs(), max_iters=v), "max_iters",
            id=f"extract_posteriors-max_iters-{v}",
        )
        for v in (math.nan, math.inf, 1.5)
    ],
    *[
        pytest.param(
            lambda v=v: validate_lda_config(LdaConfig(doc_max_iterations=v)),
            "doc_max_iterations", id=f"validate_lda_config-doc_max_iterations-{v}",
        )
        for v in (math.nan, math.inf, 2.5)
    ],
    pytest.param(
        lambda: train_lda(_docs(), 2, LdaConfig(doc_max_iterations=math.nan)),
        "doc_max_iterations", id="train_lda-doc_max_iterations-nan",
    ),
    pytest.param(
        lambda: train_lda(_docs(), 2, LdaConfig(em_max_iterations=2.5)),
        "em_max_iterations", id="train_lda-em_max_iterations-2.5",
    ),
    pytest.param(lambda: train_lda(_docs(), 1.5), "n_topics", id="train_lda-n_topics-1.5"),
    pytest.param(lambda: train_lda(_docs(3.5), 2), "vocab_size", id="train_lda-vocab_size-3.5"),
    pytest.param(
        lambda: train_gmm(_frames(), 1.5), "n_components", id="train_gmm-n_components-1.5"
    ),
    pytest.param(
        lambda: train_gmm(_frames(), 2, GmmConfig(max_iterations=math.inf)), "max_iterations",
        id="train_gmm-max_iterations-inf",
    ),
    pytest.param(lambda: train_kmeans(_frames(), 1.5), "k", id="train_kmeans-k-1.5"),
    pytest.param(lambda: compute_stats([_docs(3.5)]), "vocab_size", id="compute_stats-3.5"),
    pytest.param(
        lambda: bag_of_words(["a", "b"], [[0, 1], [1]], 2.5), "vocab_size",
        id="bag_of_words-2.5",
    ),
    pytest.param(
        lambda: build_text_vocab([["a", "b"], ["b"]], 1.5), "vocabulary cap",
        id="build_text_vocab-1.5",
    ),
    *[
        pytest.param(lambda call=call, key=key, v=v: call(key, v), _MESSAGE_NAMES.get(key, key),
                     id=f"{entry}-{key}-{v}")
        for entry, call, keys in [
            ("train_lda", lambda k, v: train_lda(_docs(), 2, LdaConfig(**{k: v})),
             ["doc_tol", "alpha"]),
            ("extract_posteriors", lambda k, v: extract_posteriors(_model(), _docs(), **{k: v}),
             ["tol"]),
            ("select", lambda k, v: _select(SelectionConfig(**{k: v})), ["threshold", "max_hours"]),
            ("random_select", lambda k, v: random_select(_pool(), **{k: v}, seed=0),
             ["budget_hours"]),
        ]
        for key in keys
        for v in (math.nan, math.inf, -math.inf, 0, -1)
    ],
    # A NaN, infinite or negative weight is no token mass: it is refused
    # where documents enter, naming the document, before it reaches a
    # posterior or a file.
    *[
        pytest.param(lambda call=call, w=w: call(_docs(weight=w)), "document 'b' weights",
                     id=f"{entry}-weight-{w}")
        for entry, call in [
            ("compute_stats", lambda d: compute_stats([d])),
            ("tfidf", lambda d: tfidf(d, compute_stats([_docs()]))),
            ("train_lda", lambda d: train_lda(d, 2)),
            ("extract_posteriors", lambda d: extract_posteriors(_model(), d)),
            ("save_docs", lambda d: save_docs(d, "no-such-dir/docs.adoc")),
        ]
        for w in (math.nan, math.inf, -1.0)
    ],
    *[
        pytest.param(
            lambda v=v: train_lda(_docs(), 2, init_beta=np.where(np.eye(2, 3) > 0, v, 1.0)),
            "init_beta", id=f"train_lda-init_beta-{v}",
        )
        for v in (math.nan, math.inf, -1.0)
    ],
    pytest.param(lambda: random_select(_pool(), 1.0, seed=-1), "seed", id="random_select-seed--1"),
    pytest.param(
        lambda: random_select(_pool(), 1.0, seed=1.5), "seed", id="random_select-seed-1.5"
    ),
    # Every count in the config, each kind of bad value: the check that a run
    # makes before its first stage names the setting by its config key.
    *[
        pytest.param(
            lambda section=section, key=key, v=v: _validate(section, key, v), f"{section}.{key}",
            id=f"validate_config-{section}.{key}-{v}",
        )
        for section, key in [
            ("quantizer", "n_components"), ("quantizer", "max_iterations"),
            ("quantizer", "max_train_frames"), ("docmodel", "text_vocab_cap"),
            ("lda", "n_topics"), ("lda", "em_max_iterations"), ("lda", "doc_max_iterations"),
            ("cluster", "n_clusters"),
        ]
        for v in (math.nan, math.inf, 1.5, 0, -1)
    ],
]


@pytest.mark.parametrize("call, name", CASES)
def test_counts_and_seeds_out_of_range_are_refused(call, name):
    with pytest.raises(ValidationError, match=f"^{name} must be"):
        call()


def _ranked(gamma, n_ids=3):
    """``rank_pool`` and ``select`` of ``n_ids`` pool ids with posteriors ``gamma``."""
    ids = [f"u{i}" for i in range(n_ids)]
    pool = Manifest([u for u in _pool().utterances if u.id in ids])
    return [
        lambda: rank_pool(Posteriors(ids, gamma), pool, np.ones((1, 2))),
        lambda: select(Posteriors(ids, gamma), pool, np.ones((1, 2)), SelectionConfig()),
    ]


SHAPES = [
    *[
        pytest.param(call, "pool posteriors must be a matrix of one row per id",
                     id=f"{name}-{case}")
        for case, gamma, n_ids in [
            ("1-D", np.ones(3), 3), ("more-rows-than-ids", np.ones((4, 2)), 3),
            ("fewer-rows-than-ids", np.ones((2, 2)), 3), ("empty-pool-1-D", np.ones(2), 0),
        ]
        for name, call in zip(("rank_pool", "select"), _ranked(gamma, n_ids))
    ],
    pytest.param(lambda: train_gmm(_nan_frames(), 2),
                 "frame collection contains NaN or Inf", id="train_gmm-nan-frame"),
    pytest.param(lambda: train_kmeans(_nan_frames(), 2),
                 "k-means input contains NaN or Inf", id="train_kmeans-nan-row"),
    pytest.param(lambda: select(Posteriors([u.id for u in _pool()], np.ones((3, 2))), _pool(),
                                np.array([[math.nan, 1.0]]), SelectionConfig()),
                 "centroids contain NaN or Inf", id="select-nan-centroid"),
    pytest.param(lambda: bag_of_words(["a"], [["1"]], 4), "tokens must be integers",
                 id="bag_of_words-str"),
    pytest.param(lambda: bag_of_words(["a", "b"], [[1], [2.9]], 4),
                 re.escape("tokens must be integers; token_docs[1] holds float64"),
                 id="bag_of_words-float"),
]


@pytest.mark.parametrize("call, message", SHAPES)
def test_malformed_arrays_are_refused(call, message):
    with pytest.raises(ValidationError, match=message):
        call()


VOCABULARIES = [
    pytest.param(lambda: tfidf(_docs(3), compute_stats([_docs(4)])),
                 "documents over vocabulary size 3, statistics over 4", id="tfidf-stats"),
    pytest.param(lambda: compute_stats([]), "no document batches", id="compute_stats-no-bags"),
    pytest.param(lambda: DocBatch.concat([]), "no document batches", id="concat-no-batches"),
    pytest.param(lambda: DocBatch.concat([_docs(3), _docs(4)]),
                 re.escape("different vocabulary sizes [3, 4]"), id="concat-two-vocabularies"),
    pytest.param(lambda: extract_posteriors(_model(), _docs(4)),
                 "documents over vocabulary size 4, model over 3", id="extract_posteriors-model"),
]


@pytest.mark.parametrize("call, message", VOCABULARIES)
def test_documents_over_another_vocabulary_are_refused(call, message):
    """Documents carry their vocabulary size; whatever combines them with
    other documents, corpus statistics or a topic model over another size,
    or with nothing, refuses them rather than index past a table."""
    with pytest.raises(LdaSelectError, match=message):
        call()


def test_empty_token_documents_stay_valid():
    """An empty document (a float array, as ``np.asarray([])`` gives) is not
    a non-integer token."""
    bags = bag_of_words(["a", "b", "c"], [[], np.array([]), [1, 1]], 2)
    assert bags.indptr.tolist() == [0, 0, 0, 1]
    assert bags.weights.tolist() == [2.0]


READERS = [
    pytest.param(read_manifest, id="read_manifest"),
    pytest.param(lambda p: read_features(Utterance("u", str(p), 0, 1, 0.0, "d")),
                 id="read_features"),
    pytest.param(load_docs, id="load_docs"),
    pytest.param(load_gmm, id="load_gmm"),
    pytest.param(load_lda, id="load_lda"),
    pytest.param(read_posteriors, id="read_posteriors"),
    pytest.param(read_audit, id="read_audit"),
    pytest.param(load_config, id="load_config"),
    pytest.param(sha256, id="signatures.sha256"),
    pytest.param(read_file, id="read_file"),
]


@pytest.mark.parametrize("kind", ["missing", "directory", "fifo"])
@pytest.mark.parametrize("read", READERS)
def test_readers_refuse_a_path_that_is_not_a_regular_file(read, kind, tmp_path, deadline):
    """A missing path raises FileNotFoundError (``load_config`` its "config
    file not found"), a directory IsADirectoryError, and a FIFO OSError, at
    once: no reader waits for a FIFO's writer."""
    path = tmp_path / "input"
    if kind == "directory":
        path.mkdir()
    elif kind == "fifo":
        os.mkfifo(path)
    error, message = {
        "missing": (FileNotFoundError, "No such file"),
        "directory": (IsADirectoryError, "Is a directory"),
        "fifo": (OSError, "not a regular file"),
    }[kind]
    if read is load_config and kind == "missing":
        error, message = ValidationError, "config file not found"
    with pytest.raises(error, match=message):
        read(path)


def _selection():
    return random_select(_pool(), 1.0, seed=0)


WRITERS = [
    pytest.param(lambda p: write_manifest(_pool(), p), id="write_manifest"),
    pytest.param(lambda p: write_features(_frames(), p), id="write_features"),
    pytest.param(lambda p: save_docs(_docs(), p), id="save_docs"),
    pytest.param(lambda p: save_gmm(train_gmm(_frames(), 2), p), id="save_gmm"),
    pytest.param(lambda p: save_lda(_model(), p), id="save_lda"),
    pytest.param(lambda p: write_posteriors(Posteriors(["a"], np.ones((1, 2))), p),
                 id="write_posteriors"),
    pytest.param(lambda p: write_audit(_selection(), p), id="write_audit"),
    pytest.param(lambda p: write_report_tsv(report(_selection(), _pool()), p),
                 id="write_report_tsv"),
]


@pytest.mark.parametrize("write", WRITERS)
def test_writers_refuse_a_directory_and_leave_no_file(write, tmp_path):
    target = tmp_path / "out"
    target.mkdir()
    with pytest.raises(IsADirectoryError):
        write(target)
    assert list(tmp_path.iterdir()) == [target]
    assert not any(target.iterdir())
