"""Top-level acceptance checks; one test per criterion, reported by conftest."""

import copy
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from ldaselect.cli import main
from ldaselect.config import PipelineConfig
from ldaselect.corpus import (
    Manifest,
    SynthSpec,
    Utterance,
    generate_synthetic_corpus,
    read_feature_file,
    read_manifest,
    write_features,
    write_manifest,
)
from ldaselect.docmodel import DocBatch, load_docs, save_docs
from ldaselect.errors import FormatError
from ldaselect.gmm import (
    GmmConfig,
    GmmModel,
    gmm_posteriors,
    load_gmm,
    quantize,
    save_gmm,
    train_gmm,
)
from ldaselect.kmeans import train_kmeans
from ldaselect.lda import (
    LdaConfig,
    infer_document,
    elbo,
    load_lda,
    read_posteriors,
    save_lda,
    train_lda,
)
from ldaselect.pipeline import run_pipeline
from ldaselect.report import compare
from ldaselect.selection import (
    SelectionConfig,
    SelectionResult,
    SelectedUtterance,
    centroid_id,
    random_select,
    read_audit,
    select,
    union_combine,
)

from batches import batch, doc as one_doc, entries as doc_entries
from reference import (
    best_topic_matching,
    ref_best_two_partition,
    ref_elbo,
    ref_select,
)


def _random_model(rng, k, v):
    from ldaselect.lda import LdaModel

    alpha = rng.random(k) + 0.2
    beta = rng.random((k, v)) + 0.05
    beta /= beta.sum(axis=1, keepdims=True)
    return LdaModel(n_topics=k, vocab_size=v, alpha=alpha, log_beta=np.log(beta))


def _random_doc(rng, v, uid="d"):
    n_terms = int(rng.integers(2, min(v, 8) + 1))
    terms = sorted(rng.choice(v, size=n_terms, replace=False).tolist())
    return one_doc(
        uid, [(int(t), int(rng.integers(1, 5)), float(rng.uniform(0.1, 3.0))) for t in terms]
    )


def _pool_instance(rng, m, c, dim=3):
    ids = [f"u{i:03d}" for i in range(m)]
    gammas = {uid: (rng.random(dim) + 0.05).tolist() for uid in ids}
    durations = {uid: float(rng.uniform(5.0, 30.0)) for uid in ids}
    cents = rng.random((c, dim)) + 0.05
    from ldaselect.lda import Posteriors

    posts = Posteriors(ids, np.array([gammas[uid] for uid in ids]))
    manifest = Manifest(
        utterances=[
            Utterance(uid, f"{uid}.aldf", 10, dim, durations[uid], "pool")
            for uid in ids
        ]
    )
    return gammas, durations, cents, posts, manifest


# ---------------------------------------------------------------------------
# Shared end-to-end fixture for criteria 8 and 9


@pytest.fixture(scope="module")
def e2e(tmp_path_factory):
    root = tmp_path_factory.mktemp("e2e")
    t0 = time.monotonic()
    pool_spec = SynthSpec(5, 200, with_transcripts=True, role="pool")
    generate_synthetic_corpus(pool_spec, seed=101, out_dir=root / "pool")
    dev_spec = SynthSpec(
        1, 50, with_transcripts=True, role="dev", id_prefix="dev_"
    )
    generate_synthetic_corpus(dev_spec, seed=102, out_dir=root / "dev")

    config = PipelineConfig()
    config.paths.pool_manifest = str(root / "pool" / "pool.tsv")
    config.paths.dev_manifest = str(root / "dev" / "dev.tsv")
    config.paths.work_dir = str(root / "work")
    config.quantizer.n_components = 64
    config.lda.n_topics = 8
    config.lda.alpha = 0.1
    config.cluster.n_clusters = 8
    config.selection.threshold = 0.5  # placeholder until the quantile is known

    run_pipeline(
        config,
        stages=["train-gmm", "quantize", "tfidf", "train-lda", "posteriors", "cluster"],
    )
    work = root / "work"
    posts = read_posteriors(work / "post_pool.tsv")
    cents = read_posteriors(work / "centroids.tsv")
    cmat = cents.gamma
    cmat /= np.linalg.norm(cmat, axis=1, keepdims=True)
    gmat = posts.gamma
    gmat /= np.linalg.norm(gmat, axis=1, keepdims=True)
    min_dist = np.sort((1.0 - cmat @ gmat.T).min(axis=0))
    # Split exactly a fifth of the pool off: threshold between ranks 200 and 201.
    lam = float((min_dist[199] + min_dist[200]) / 2.0)
    config.selection.threshold = lam
    result = run_pipeline(config, stages=["select", "report"])
    elapsed = time.monotonic() - t0
    return SimpleNamespace(
        config=config,
        work=work,
        result=result,
        pool=read_manifest(config.paths.pool_manifest),
        lam=lam,
        elapsed=elapsed,
    )


# ---------------------------------------------------------------------------
# Criteria


@pytest.mark.acceptance(1, "topic recovery with monotone training bound")
def test_topic_recovery_and_monotone_bound():
    t0 = time.monotonic()
    rng = np.random.default_rng(100)
    v, k = 30, 3
    true_beta = np.zeros((k, v))
    for i in range(k):
        true_beta[i, i * 10:(i + 1) * 10] = 0.1
    docs = []
    for i in range(300):
        counts = rng.multinomial(60, true_beta[int(rng.integers(k))])
        docs.append(
            (
                f"d{i}", [(t, int(c), float(c)) for t, c in enumerate(counts) if c]
            )
        )
    model = train_lda(batch(docs), k, v, LdaConfig(seed=0))
    h = model.bound_history
    assert all(
        h[i + 1] >= h[i] - 1e-6 * max(abs(h[i]), 1.0) for i in range(len(h) - 1)
    )
    score = best_topic_matching(true_beta.tolist(), np.exp(model.log_beta).tolist())
    assert score >= 0.8
    assert time.monotonic() - t0 < 60.0


@pytest.mark.acceptance(2, "variational fixed point after inference")
def test_variational_fixed_point():
    rng = np.random.default_rng(200)
    for _ in range(100):
        model = _random_model(rng, int(rng.integers(1, 7)), int(rng.integers(4, 16)))
        doc = _random_doc(rng, model.vocab_size)
        state = infer_document(model, doc)
        weights = doc.weights
        residual = state.gamma - model.alpha - weights @ state.phi
        assert np.max(np.abs(residual)) < 1e-8
        assert np.max(np.abs(state.phi.sum(axis=1) - 1.0)) < 1e-9


@pytest.mark.acceptance(3, "bound value matches independent oracle")
def test_bound_matches_oracle():
    rng = np.random.default_rng(300)
    for _ in range(50):
        model = _random_model(rng, int(rng.integers(2, 5)), int(rng.integers(4, 10)))
        doc = _random_doc(rng, model.vocab_size)
        state = infer_document(model, doc)
        ours = elbo(model, doc, state)
        ref = ref_elbo(
            model.alpha.tolist(), state.gamma.tolist(), state.phi.tolist(),
            doc_entries(doc), model.log_beta.tolist(),
        )
        assert ours == pytest.approx(ref, rel=1e-8, abs=1e-10)


@pytest.mark.acceptance(4, "mixture EM monotone and recovers clusters")
def test_gmm_monotone_and_recovery():
    t0 = time.monotonic()
    rng = np.random.default_rng(400)
    for trial in range(10):
        n = int(rng.integers(200, 1200))
        dim = int(rng.integers(1, 5))
        frames = rng.normal(rng.uniform(-3, 3), rng.uniform(0.5, 2.0), size=(n, dim))
        model = train_gmm(
            frames, int(rng.integers(1, 5)), GmmConfig(seed=trial, max_iterations=20)
        )
        ll = model.loglik_history
        assert all(ll[i + 1] >= ll[i] - 1e-8 for i in range(len(ll) - 1))

    frames = np.concatenate(
        [
            rng.normal(-10.0, 1.0, size=(500, 1)),
            rng.normal(10.0, 1.0, size=(500, 1)),
        ]
    )
    model = train_gmm(frames, 2, GmmConfig(seed=0))
    order = np.argsort(model.means[:, 0])
    assert abs(model.means[order[0], 0] - (-10.0)) < 0.5
    assert abs(model.means[order[1], 0] - 10.0) < 0.5
    assert np.all(np.abs(model.weights - 0.5) < 0.1)
    assert time.monotonic() - t0 < 30.0


@pytest.mark.acceptance(5, "quantizer agrees with component posteriors")
def test_quantizer_consistency():
    rng = np.random.default_rng(500)
    train = rng.normal(0.0, 3.0, size=(2000, 4))
    model = train_gmm(train, 8, GmmConfig(seed=1, max_iterations=15))
    frames = rng.uniform(-8.0, 8.0, size=(1000, 4))
    tokens = quantize(model, frames).tolist()
    posts = np.stack([gmm_posteriors(model, f) for f in frames])
    assert np.max(np.abs(posts.sum(axis=1) - 1.0)) < 1e-9
    assert tokens == np.argmax(posts, axis=1).tolist()
    scaled = GmmModel(
        n_components=model.n_components,
        weights=model.weights * 7.25,
        means=model.means,
        variances=model.variances,
    )
    assert quantize(scaled, frames).tolist() == tokens


@pytest.mark.acceptance(6, "greedy selection matches reference transcription")
def test_selection_matches_reference():
    t0 = time.monotonic()
    rng = np.random.default_rng(600)
    lambdas = [0.05, 0.2, 0.5, 1.0]
    for trial in range(200):
        m = int(rng.integers(1, 21))
        c = int(rng.integers(1, 5))
        lam = lambdas[trial % 4]
        gammas, durations, cents, posts, manifest = _pool_instance(rng, m, c)
        result = select(posts, manifest, cents, SelectionConfig(threshold=lam))
        ref_sel, ref_passes, _ = ref_select(gammas, durations, cents.tolist(), lam)
        assert [(s.utt_id, s.centroid, s.pass_index) for s in result.selected] == [
            (uid, centroid_id(ci), p) for uid, ci, _, p in ref_sel
        ]
        assert result.passes == ref_passes
    assert time.monotonic() - t0 < 10.0


@pytest.mark.acceptance(7, "threshold boundary behavior")
def test_threshold_boundaries():
    rng = np.random.default_rng(700)
    for m, c in [(1, 1), (7, 3), (20, 4)]:
        _, _, cents, posts, manifest = _pool_instance(rng, m, c)
        full = select(posts, manifest, cents, SelectionConfig(threshold=1.0))
        assert sorted(full.ids()) == sorted(manifest.ids())
        assert full.passes == math.ceil(m / c)

        gmat = posts.gamma.copy()
        gmat /= np.linalg.norm(gmat, axis=1, keepdims=True)
        cn = cents / np.linalg.norm(cents, axis=1, keepdims=True)
        global_min = float((1.0 - cn @ gmat.T).min())
        lam = max(global_min / 2.0, 1e-12)
        empty = select(posts, manifest, cents, SelectionConfig(threshold=lam))
        assert empty.selected == []
        assert empty.passes == 1


@pytest.mark.acceptance(8, "end-to-end enrichment beats matched random")
def test_end_to_end_enrichment(e2e):
    assert 0.0 < e2e.lam <= 1.0
    n_pool = len(e2e.pool)
    assert n_pool == 1000
    fraction = len(e2e.result.selection.selected) / n_pool
    assert 0.15 <= fraction <= 0.25

    rows = compare([("greedy", e2e.result.selection)], e2e.pool, "domain0")
    assert rows[0].enrichment >= 2.0

    budget = e2e.result.selection.total_hours
    random_enrichment = [
        compare(
            [("random", random_select(e2e.pool, budget, seed=s))],
            e2e.pool,
            "domain0",
        )[0].enrichment
        for s in range(1, 6)
    ]
    assert 0.7 <= float(np.mean(random_enrichment)) <= 1.3
    assert e2e.elapsed < 300.0


@pytest.mark.acceptance(9, "set union of selections keeps enrichment")
def test_union_combination(e2e):
    manifest = Manifest(
        utterances=[
            Utterance("a", "a.aldf", 10, 2, 60.0, "x"),
            Utterance("b", "b.aldf", 10, 2, 120.0, "x"),
        ]
    )
    a = SelectionResult(
        selected=[SelectedUtterance("a", centroid_id(0), 0.1, 1)],
        total_hours=60.0 / 3600.0,
        passes=1,
    )
    b = SelectionResult(
        selected=[SelectedUtterance("b", centroid_id(1), 0.2, 1)],
        total_hours=120.0 / 3600.0,
        passes=1,
    )
    empty = SelectionResult()
    assert union_combine(a, empty, manifest).ids() == ["a"]  # identity
    assert union_combine(a, a, manifest).ids() == ["a"]  # idempotence
    both = union_combine(a, b, manifest)  # disjoint arithmetic
    assert sorted(both.ids()) == ["a", "b"]
    assert both.total_hours == pytest.approx(0.05)

    config = copy.deepcopy(e2e.config)
    config.text.enabled = True
    result = run_pipeline(config)
    acoustic = read_audit(e2e.work / "selection_acoustic.audit.tsv")
    text_sel = read_audit(e2e.work / "selection_text.audit.tsv")
    assert set(result.selection.ids()) == set(acoustic.ids()) | set(text_sel.ids())
    rows = compare(
        [("acoustic", acoustic), ("union", result.selection)], e2e.pool, "domain0"
    )
    by_name = {r.name: r for r in rows}
    assert by_name["union"].enrichment >= by_name["acoustic"].enrichment - 0.1


@pytest.mark.acceptance(10, "k-means invariants and optimal small partitions")
def test_kmeans_properties():
    rng = np.random.default_rng(1000)
    for trial in range(10):
        X = rng.normal(size=(int(rng.integers(10, 80)), int(rng.integers(1, 5))))
        km = train_kmeans(X, int(rng.integers(1, 6)), seed=trial)
        h = km.inertia_history
        assert all(h[i + 1] <= h[i] + 1e-9 for i in range(len(h) - 1))

    X = rng.normal(size=(25, 3))
    km = train_kmeans(X, 1, seed=0)
    assert np.allclose(km.centroids[0], X.mean(axis=0), atol=1e-9)

    pts = np.concatenate(
        [rng.normal(-4.0, 0.5, size=(6, 2)), rng.normal(4.0, 0.5, size=(6, 2))]
    )
    km = train_kmeans(pts, 2, seed=0)
    ours = frozenset(
        frozenset(np.flatnonzero(km.assignments == c).tolist()) for c in range(2)
    )
    best_split, _ = ref_best_two_partition(pts.tolist())
    assert ours == best_split


@pytest.mark.acceptance(11, "reruns produce byte-identical selections")
def test_byte_identical_reruns(tmp_path):
    root = tmp_path
    pool_spec = SynthSpec(2, 30, frames_range=(30, 50), role="pool")
    generate_synthetic_corpus(pool_spec, seed=21, out_dir=root / "pool")
    dev_spec = SynthSpec(
        2, 8, frames_range=(30, 50), role="dev", id_prefix="dev_"
    )
    generate_synthetic_corpus(dev_spec, seed=22, out_dir=root / "dev")
    cfg = root / "run.cfg"
    cfg.write_text(
        f"""\
[paths]
pool_manifest = {root / 'pool' / 'pool.tsv'}
dev_manifest = {root / 'dev' / 'dev.tsv'}
work_dir = {root / 'w1'}

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
""",
        encoding="utf-8",
    )
    assert main(["run", "--config", str(cfg)]) == 0
    assert main(["run", "--config", str(cfg), "--work-dir", str(root / "w2")]) == 0
    for name in ("selection.tsv", "selection.audit.tsv"):
        b1 = (root / "w1" / name).read_bytes()
        b2 = (root / "w2" / name).read_bytes()
        assert b1 == b2, name
        assert b1  # non-trivial output


@pytest.mark.acceptance(12, "format round-trips and corruption errors")
def test_formats_round_trip_and_corruptions(tmp_path):
    rng = np.random.default_rng(1200)

    feat = tmp_path / "x.aldf"
    mat = rng.normal(size=(17, 5))
    write_features(mat, feat)
    r1 = read_feature_file(feat)
    first_bytes = feat.read_bytes()
    write_features(r1, feat)
    assert feat.read_bytes() == first_bytes
    assert np.array_equal(read_feature_file(feat), r1)

    man = tmp_path / "m.tsv"
    manifest = Manifest(
        utterances=[
            Utterance("a", "x.aldf", 17, 5, 0.17, "news"),
            Utterance("b", "x.aldf", 17, 5, 0.42, "calls", "b.txt"),
        ],
        fps=62.5,
    )
    write_manifest(manifest, man)
    back = read_manifest(man)
    assert back.utterances == manifest.utterances
    assert back.fps == 62.5
    man2 = tmp_path / "m2.tsv"
    write_manifest(back, man2)
    assert man.read_bytes() == man2.read_bytes()

    gmm_model = train_gmm(rng.normal(size=(200, 2)), 2, GmmConfig(seed=0))
    gp = tmp_path / "g.agmm"
    save_gmm(gmm_model, gp)
    g2 = load_gmm(gp)
    assert np.array_equal(g2.weights, gmm_model.weights)
    assert np.array_equal(g2.means, gmm_model.means)
    assert np.array_equal(g2.variances, gmm_model.variances)

    docs = DocBatch.concat(_random_doc(rng, 6, uid=f"d{i}") for i in range(8))
    lda_model = train_lda(docs, 2, 6, LdaConfig(seed=0))
    lp = tmp_path / "m.alda"
    save_lda(lda_model, lp)
    l2 = load_lda(lp)
    assert np.array_equal(l2.alpha, lda_model.alpha)
    assert np.array_equal(l2.log_beta, lda_model.log_beta)

    wp = tmp_path / "w.adoc"
    save_docs(docs, wp)
    wback = load_docs(wp)
    assert wback.ids == docs.ids
    assert [doc_entries(wback, i) for i in range(len(wback))] == [
        [(t, c, float(f"{w:.9g}")) for t, c, w in doc_entries(docs, i)]
        for i in range(len(docs))
    ]

    feat_bytes = first_bytes
    cases = []
    bad_magic = tmp_path / "bad_magic.aldf"
    bad_magic.write_bytes(b"NOPE" + feat_bytes[4:])
    cases.append((read_feature_file, bad_magic, "magic"))
    truncated = tmp_path / "trunc.aldf"
    truncated.write_bytes(feat_bytes[:30])
    cases.append((read_feature_file, truncated, "truncated"))
    trailing = tmp_path / "trail.aldf"
    trailing.write_bytes(feat_bytes + b"\x00")
    cases.append((read_feature_file, trailing, ""))
    for fn, path, needle in cases:
        with pytest.raises(FormatError) as exc:
            fn(path)
        assert needle in str(exc.value)

    gmm_bytes = gp.read_bytes()
    gp.write_bytes(b"XXXX" + gmm_bytes[4:])
    with pytest.raises(FormatError):
        load_gmm(gp)
    gp.write_bytes(gmm_bytes[:20])
    with pytest.raises(FormatError):
        load_gmm(gp)

    lda_bytes = lp.read_bytes()
    lp.write_bytes(lda_bytes[:25])
    with pytest.raises(FormatError):
        load_lda(lp)

    man.write_text("a\tx.aldf\t17\t5\n", encoding="utf-8")
    with pytest.raises(FormatError):
        read_manifest(man)
    man.write_text(
        "a\tx.aldf\t17\t5\t0.17\tnews\na\tx.aldf\t17\t5\t0.17\tnews\n",
        encoding="utf-8",
    )
    with pytest.raises(FormatError) as exc:
        read_manifest(man)
    assert "duplicate" in str(exc.value)

    save_docs(batch([("d0", [(3, 1, 0.5), (2, 1, 0.5)])]), wp)
    with pytest.raises(FormatError):
        load_docs(wp)
    doc_bytes = wp.read_bytes()
    for corrupt in (b"XDOC" + doc_bytes[4:], doc_bytes[:-1], doc_bytes + b"\x00"):
        wp.write_bytes(corrupt)
        with pytest.raises(FormatError):
            load_docs(wp)

    pp = tmp_path / "p.tsv"
    pp.write_text("a\t1.0 2.0\nb\t1.0\n", encoding="utf-8")
    with pytest.raises(FormatError):
        read_posteriors(pp)

    ap = tmp_path / "a.tsv"
    ap.write_text("a\tcentroid_0000\t0.1\n", encoding="utf-8")
    with pytest.raises(FormatError):
        read_audit(ap)
