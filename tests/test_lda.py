import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ldaselect import lda as lda_module
from ldaselect.docmodel import DocBatch
from ldaselect.errors import FormatError, ValidationError
from ldaselect.lda import (
    LdaConfig,
    LdaModel,
    Posteriors,
    extract_posteriors,
    load_lda,
    read_posteriors,
    save_lda,
    train_lda,
    write_posteriors,
)

from batches import batch, doc as one_doc, e_step, entries as doc_entries
from reference import best_topic_matching, ref_elbo, ref_phi


def _random_model(rng, k, v):
    alpha = rng.random(k) + 0.2
    beta = rng.random((k, v)) + 0.05
    beta /= beta.sum(axis=1, keepdims=True)
    return LdaModel(n_topics=k, vocab_size=v, alpha=alpha, log_beta=np.log(beta))


def _random_doc(rng, v, uid="d"):
    n_terms = int(rng.integers(2, min(v, 8) + 1))
    terms = sorted(rng.choice(v, size=n_terms, replace=False).tolist())
    entries = []
    for t in terms:
        rng.integers(1, 5)  # an unused draw, which keeps the seeded documents fixed
        entries.append((int(t), float(rng.uniform(0.1, 3.0))))
    return one_doc(uid, v, entries)


def _count_doc(rng, beta_row, length, uid):
    counts = rng.multinomial(length, beta_row)
    return one_doc(uid, len(beta_row), [(v, float(c)) for v, c in enumerate(counts) if c])


# ---------------------------------------------------------------------------
# Per-document inference


def _residual(model, doc, step):
    """gamma after ``step`` (a one-document sweep) less alpha + w . phi, phi
    from the oracle at the gamma before it."""
    phi = np.array(ref_phi(step.gamma0[0], doc_entries(doc), model.log_beta.tolist()))
    return step.gamma1[0] - model.alpha - doc.weights @ phi


def _oracle_bound(model, doc, step):
    """The oracle's bound at the gamma after ``step`` and the phi of the gamma
    before it."""
    entries, log_beta = doc_entries(doc), model.log_beta.tolist()
    return ref_elbo(
        model.alpha.tolist(), step.gamma1[0].tolist(),
        ref_phi(step.gamma0[0], entries, log_beta), entries, log_beta,
    )


def test_empty_document_gamma_equals_alpha():
    rng = np.random.default_rng(0)
    model = _random_model(rng, 3, 5)
    posts, sweeps = extract_posteriors(model, one_doc("e", 5))
    assert np.array_equal(posts.gamma[0], model.alpha)
    assert sweeps.tolist() == [0]


def test_single_topic_closed_form():
    rng = np.random.default_rng(1)
    model = _random_model(rng, 1, 6)
    doc = _random_doc(rng, 6)
    posts, sweeps = extract_posteriors(model, doc)
    total = sum(w for _, w in doc_entries(doc))
    assert posts.gamma[0, 0] == pytest.approx(model.alpha[0] + total, rel=1e-12)
    assert sweeps.tolist() == [1]


def test_fixed_point_identity_with_oracle_phi():
    """Each sweep is gamma = alpha + w . phi, phi from the oracle at the gamma
    before it; the swept result is the one extract_posteriors returns."""
    rng = np.random.default_rng(2)
    for trial in range(20):
        model = _random_model(rng, int(rng.integers(2, 6)), int(rng.integers(6, 15)))
        doc = _random_doc(rng, model.vocab_size)
        gamma, sweeps, trace = e_step(model, doc)
        posts, posts_sweeps = extract_posteriors(model, doc)
        assert np.array_equal(gamma, posts.gamma)
        assert sweeps.tolist() == posts_sweeps.tolist() == [len(trace)]
        for step in trace:
            assert np.max(np.abs(_residual(model, doc, step))) < 1e-9


def test_hand_set_beta_elbo_trace_monotone():
    alpha = np.array([0.7, 1.3])
    beta = np.array([[0.6, 0.3, 0.1], [0.1, 0.2, 0.7]])
    model = LdaModel(n_topics=2, vocab_size=3, alpha=alpha, log_beta=np.log(beta))
    doc = one_doc("d", 3, [(0, 1.1), (2, 0.4)])
    _, _, trace = e_step(model, doc)
    h = [step.bounds[0] for step in trace]
    assert len(h) >= 2
    assert all(h[i + 1] >= h[i] - 1e-8 for i in range(len(h) - 1))
    assert np.max(np.abs(_residual(model, doc, trace[-1]))) < 1e-9


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
def test_inference_refuses_a_tolerance_out_of_range(tol):
    """A tolerance no change can fall below would run every document to the
    sweep cap; inference refuses it, as the config does."""
    model = _random_model(np.random.default_rng(3), 2, 4)
    doc = one_doc("d", 4, [(0, 1.0), (2, 0.5)])
    with pytest.raises(ValidationError, match="tol must be finite and positive"):
        extract_posteriors(model, doc, tol=tol)


# ---------------------------------------------------------------------------
# Bound evaluation


def test_elbo_empty_doc_exact_zero():
    """An empty document adds exactly 0 to the training objective and takes
    no sweep."""
    rng = np.random.default_rng(4)
    docs = [_random_doc(rng, 5, uid=f"d{i}") for i in range(4)]
    config = LdaConfig(seed=0, em_max_iterations=5)
    plain = train_lda(DocBatch.concat(docs), 4, config)
    padded = train_lda(DocBatch.concat(docs[:2] + [one_doc("e", 5)] + docs[2:]), 4, config)
    assert padded.bound_history == plain.bound_history
    assert np.array_equal(padded.log_beta, plain.log_beta)
    assert padded.doc_sweeps.tolist() == (
        plain.doc_sweeps[:2].tolist() + [0] + plain.doc_sweeps[2:].tolist()
    )


def test_elbo_converged_at_least_first_iteration():
    rng = np.random.default_rng(5)
    for trial in range(10):
        model = _random_model(rng, 3, 10)
        doc = _random_doc(rng, 10)
        _, _, trace = e_step(model, doc)
        assert trace[-1].bounds[0] >= trace[0].bounds[0] - 1e-8


def test_elbo_matches_independent_oracle():
    rng = np.random.default_rng(6)
    for trial in range(50):
        k = int(rng.integers(2, 5))
        v = int(rng.integers(4, 12))
        model = _random_model(rng, k, v)
        doc = _random_doc(rng, v)
        _, _, trace = e_step(model, doc)
        ref = _oracle_bound(model, doc, trace[-1])
        assert trace[-1].bounds[0] == pytest.approx(ref, rel=1e-8, abs=1e-10)


# ---------------------------------------------------------------------------
# Training


def test_recovers_disjoint_topics():
    rng = np.random.default_rng(7)
    v, k = 30, 3
    true_beta = np.zeros((k, v))
    for i in range(k):
        true_beta[i, i * 10:(i + 1) * 10] = 0.1
    docs = DocBatch.concat(
        _count_doc(rng, true_beta[int(rng.integers(k))], 60, f"d{i}")
        for i in range(150)
    )
    model = train_lda(docs, k, LdaConfig(seed=0))
    h = model.bound_history
    assert all(h[i + 1] >= h[i] - 1e-6 * abs(h[i]) for i in range(len(h) - 1))
    score = best_topic_matching(true_beta.tolist(), np.exp(model.log_beta).tolist())
    assert score >= 0.8


def test_single_topic_beta_closed_form():
    rng = np.random.default_rng(8)
    v = 9
    docs = DocBatch.concat(_random_doc(rng, v, uid=f"d{i}") for i in range(12))
    model = train_lda(docs, 1, LdaConfig(seed=0))
    ss = np.zeros(v)
    for i in range(len(docs)):
        for t, w in doc_entries(docs, i):
            ss[t] += w
    expected = (ss + lda_module._ETA) / (ss + lda_module._ETA).sum()
    assert np.allclose(np.exp(model.log_beta[0]), expected, rtol=1e-10)


def test_training_determinism_bitwise():
    rng = np.random.default_rng(9)
    docs = DocBatch.concat(_random_doc(rng, 12, uid=f"d{i}") for i in range(20))
    m1 = train_lda(docs, 3, LdaConfig(seed=5))
    m2 = train_lda(docs, 3, LdaConfig(seed=5))
    assert np.array_equal(m1.log_beta, m2.log_beta)
    assert m1.bound_history == m2.bound_history


def test_bound_monotone_on_random_corpora():
    rng = np.random.default_rng(10)
    for trial in range(5):
        v = int(rng.integers(8, 20))
        docs = DocBatch.concat(
            _random_doc(rng, v, uid=f"d{i}") for i in range(int(rng.integers(5, 25)))
        )
        model = train_lda(docs, int(rng.integers(2, 5)), LdaConfig(seed=trial))
        h = model.bound_history
        assert all(
            h[i + 1] >= h[i] - 1e-6 * max(abs(h[i]), 1.0) for i in range(len(h) - 1)
        )
        assert np.allclose(np.exp(model.log_beta).sum(axis=1), 1.0, atol=1e-8)


def test_all_empty_corpus_rejected():
    with pytest.raises(ValidationError):
        train_lda(batch([("a", []), ("b", [])], 5), 2)


@pytest.mark.parametrize("field, value", [
    ("doc_tol", -1e-4), ("doc_tol", math.nan), ("em_max_iterations", 0),
    ("doc_max_iterations", 0), ("alpha", 0.0), ("seed", -1), ("seed", 1.5),
])
def test_train_lda_refuses_settings_out_of_range(field, value):
    """Called directly, ``train_lda`` refuses what ``validate_config`` does,
    naming the field, rather than training on it."""
    docs = batch([("a", [(0, 1.0), (1, 0.5)]), ("b", [(1, 1.5)])], 2)
    config = LdaConfig(**{"seed": 0, field: value})
    with pytest.raises(ValidationError, match=field):
        train_lda(docs, 2, config)


def test_alpha_default_and_override():
    docs = one_doc("d", 2, [(0, 1.0)])
    model = train_lda(docs, 4, LdaConfig(seed=0, em_max_iterations=1))
    assert np.allclose(model.alpha, 50.0 / 4)
    model = train_lda(docs, 4, LdaConfig(seed=0, em_max_iterations=1, alpha=0.3))
    assert np.allclose(model.alpha, 0.3)
    for alpha in (-1.0, math.nan, math.inf):
        with pytest.raises(ValidationError, match="alpha"):
            train_lda(docs, 4, LdaConfig(alpha=alpha))


def test_vocabulary_permutation_equivariance():
    rng = np.random.default_rng(11)
    v, k = 10, 3
    docs = DocBatch.concat(_random_doc(rng, v, uid=f"d{i}") for i in range(15))
    perm = rng.permutation(v)
    docs_p = []
    for i, uid in enumerate(docs.ids):
        entries = sorted(
            ((int(perm[t]), w) for t, w in doc_entries(docs, i)), key=lambda e: e[0]
        )
        docs_p.append((uid, entries))
    docs_p = batch(docs_p, v)
    init = rng.random((k, v)) + 0.05
    init_p = np.empty_like(init)
    init_p[:, perm] = init
    config = LdaConfig(seed=0, em_max_iterations=15)
    m = train_lda(docs, k, config, init_beta=init)
    m_p = train_lda(docs_p, k, config, init_beta=init_p)
    assert np.allclose(m_p.log_beta[:, perm], m.log_beta, rtol=1e-10, atol=1e-12)
    g, _ = extract_posteriors(m, docs)
    g_p, _ = extract_posteriors(m_p, docs_p)
    for a, b in zip(g.gamma, g_p.gamma):
        assert np.allclose(a, b, rtol=1e-10)


# ---------------------------------------------------------------------------
# Posterior extraction


def test_extract_posteriors_alignment_and_purity():
    rng = np.random.default_rng(12)
    docs = [_random_doc(rng, 8, uid=f"d{i}") for i in range(6)]
    docs.append(one_doc("empty", 8))
    docs.append(one_doc("dup", 8, doc_entries(docs[0])))
    docs = DocBatch.concat(docs)
    model = train_lda(docs, 3, LdaConfig(seed=1))
    posts, sweeps = extract_posteriors(model, docs)
    assert sweeps[6] == 0 and np.all(sweeps[:6] >= 1)
    assert posts.ids == docs.ids
    assert np.array_equal(posts.gamma[6], model.alpha)
    assert np.array_equal(posts.gamma[7], posts.gamma[0])
    for gamma in posts.gamma:
        assert gamma.sum() >= model.alpha.sum() - 1e-12


# ---------------------------------------------------------------------------
# Batched inference against one document at a time


def _reference_train(docs, k, v, config, init_beta):
    """Variational EM with one one-document E-step per document per
    iteration, warm-started, and expected counts from the oracle's phi at
    the gamma before each document's last sweep."""
    model = LdaModel(
        n_topics=k, vocab_size=v, alpha=np.full(k, config.alpha),
        log_beta=np.log(init_beta / init_beta.sum(axis=1, keepdims=True)),
    )
    warm = [None] * len(docs)
    history = []
    for it in range(config.em_max_iterations):
        ss = np.zeros((k, v))
        total = 0.0
        sweeps = []
        for i in range(len(docs)):
            doc = docs[i:i + 1]
            gamma, doc_sweeps, trace = e_step(
                model, doc, config.doc_tol, config.doc_max_iterations, gamma=warm[i]
            )
            warm[i] = gamma
            sweeps.append(int(doc_sweeps[0]))
            if trace:
                total += trace[-1].bounds[0]
                phi = ref_phi(trace[-1].gamma0[0], doc_entries(doc), model.log_beta.tolist())
                np.add.at(ss.T, doc.terms, doc.weights[:, None] * np.array(phi))
        total += lda_module._ETA * float(model.log_beta.sum())
        history.append(total)
        if len(history) >= 2:
            if (history[-1] - history[-2]) / max(abs(history[-2]), 1e-12) < lda_module._EM_TOL:
                break
        if it == config.em_max_iterations - 1:
            break
        ss += lda_module._ETA
        model.log_beta = np.log(ss / ss.sum(axis=1, keepdims=True))
    return history, model.log_beta, sweeps


@st.composite
def _batch_cases(draw):
    k = draw(st.integers(1, 6))
    v = draw(st.integers(1, 30))
    docs = []
    for i in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["empty", "single", "some", "long"]))
        if kind == "empty":
            terms = []
        elif kind == "single":
            terms = [draw(st.integers(0, v - 1))]
        elif kind == "long":
            terms = list(range(v))
        else:
            terms = sorted(draw(st.sets(st.integers(0, v - 1), min_size=1)))
        entries = [(t, draw(st.floats(0.05, 5.0))) for t in terms]
        docs.append((f"d{i}", entries))
    return dict(
        k=k, v=v, docs=batch(docs, v),
        seed=draw(st.integers(0, 2**16)),
        max_iters=draw(st.integers(1, 8)),
        tol=draw(st.sampled_from([1e-2, 1e-4, 1e-6])),
        # A few entries per block at most, so the documents span several.
        block_cells=draw(st.integers(1, 3 * k * v)),
    )


@settings(max_examples=60, deadline=None)
@given(_batch_cases())
def test_batched_inference_matches_per_document_loop(case):
    k, v, docs = case["k"], case["v"], case["docs"]
    tol, max_iters = case["tol"], case["max_iters"]
    rng = np.random.default_rng(case["seed"])
    model = _random_model(rng, k, v)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lda_module, "_BLOCK_CELLS", case["block_cells"])
        posts, sweeps = extract_posteriors(model, docs, tol=tol, max_iters=max_iters)
        singles = [
            extract_posteriors(model, docs[i:i + 1], tol=tol, max_iters=max_iters)
            for i in range(len(docs))
        ]
        np.testing.assert_allclose(
            posts.gamma, np.concatenate([p.gamma for p, _ in singles]),
            rtol=1e-10, atol=0,
        )
        assert sweeps.tolist() == [int(n[0]) for _, n in singles]

        config = LdaConfig(
            seed=case["seed"], em_max_iterations=4, doc_tol=tol,
            doc_max_iterations=max_iters, alpha=0.5,
        )
        init_beta = rng.random((k, v)) + 0.05
        if not docs.terms.size:
            with pytest.raises(ValidationError):
                train_lda(docs, k, config, init_beta=init_beta)
            return
        model = train_lda(docs, k, config, init_beta=init_beta)
    history, log_beta, ref_sweeps = _reference_train(docs, k, v, config, init_beta)
    np.testing.assert_allclose(model.bound_history, history, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(model.log_beta, log_beta, rtol=0, atol=1e-12)
    assert model.doc_sweeps.tolist() == ref_sweeps


def test_batched_validation_names_document():
    rng = np.random.default_rng(15)
    model = _random_model(rng, 2, 4)
    docs = batch([
        ("ok", [(0, 1.0)]),
        ("oov", [(1, 1.0), (4, 1.0)]),
    ], 4)
    with pytest.raises(ValidationError) as exc:
        extract_posteriors(model, docs)
    assert "'oov'" in str(exc.value)
    with pytest.raises(ValidationError) as exc:
        train_lda(docs, 2)
    assert "'oov'" in str(exc.value)
    with pytest.raises(ValidationError):
        extract_posteriors(model, docs[:1], max_iters=0)
    with pytest.raises(ValidationError) as exc:
        train_lda(batch([("a", []), ("b", [])], 4), 2)
    assert "all-empty" in str(exc.value)


def test_batched_empty_documents_keep_alpha(monkeypatch):
    rng = np.random.default_rng(16)
    monkeypatch.setattr(lda_module, "_BLOCK_CELLS", 4)
    docs = DocBatch.concat([
        one_doc("e0", 9),
        _random_doc(rng, 9, uid="a"),
        one_doc("e1", 9),
        _random_doc(rng, 9, uid="b"),
        one_doc("e2", 9),
    ])
    model = train_lda(docs, 3, LdaConfig(seed=3, alpha=0.7))
    assert model.doc_sweeps[[0, 2, 4]].tolist() == [0, 0, 0]
    posts, sweeps = extract_posteriors(model, docs)
    for i in (0, 2, 4):
        assert np.array_equal(posts.gamma[i], model.alpha)
        assert sweeps[i] == 0
    assert sweeps[1] >= 1 and sweeps[3] >= 1


def test_extract_posteriors_caps_sweeps():
    rng = np.random.default_rng(17)
    model = _random_model(rng, 4, 10)
    docs = DocBatch.concat(_random_doc(rng, 10, uid=f"d{i}") for i in range(8))
    _, sweeps = extract_posteriors(model, docs, tol=1e-12, max_iters=3)
    assert sweeps.tolist() == [3] * 8


@pytest.mark.parametrize("k, v", [(256, 8), (8, 512)])
def test_wide_shapes_match_per_document_loop(k, v):
    """Blocks sized by max(K, V) at K >> V and V >> K, several per corpus."""
    rng = np.random.default_rng(k * 1000 + v)
    docs = [("empty", []), ("single", [(v - 1, 2.5)]), ("all", [
        (t, float(rng.uniform(0.1, 3.0))) for t in range(v)
    ])]
    for i in range(6):
        terms = np.sort(rng.choice(v, size=int(rng.integers(1, 9)), replace=False))
        docs.append((f"d{i}", [(int(t), float(rng.uniform(0.1, 3.0))) for t in terms]))
    docs = batch(docs, v)
    model = _random_model(rng, k, v)
    tol, max_iters = 1e-4, 6
    init_beta = rng.random((k, v)) + 0.05
    config = LdaConfig(
        seed=1, em_max_iterations=3, doc_tol=tol, doc_max_iterations=max_iters,
        alpha=0.5,
    )
    block_sizes = []

    def spy(alpha, gamma, *args, **kwargs):
        block_sizes.append(len(gamma))
        return infer_block(alpha, gamma, *args, **kwargs)

    infer_block = lda_module._infer_block
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lda_module, "_BLOCK_CELLS", 2 * max(k, v))  # two documents a block
        mp.setattr(lda_module, "_infer_block", spy)
        posts, sweeps = extract_posteriors(model, docs, tol=tol, max_iters=max_iters)
        assert block_sizes == [2, 2, 2, 2, 1]
        trained = train_lda(docs, k, config, init_beta=init_beta)
    singles = [extract_posteriors(model, docs[i:i + 1], tol, max_iters) for i in range(len(docs))]
    np.testing.assert_allclose(
        posts.gamma, np.concatenate([p.gamma for p, _ in singles]), rtol=1e-10, atol=0
    )
    assert sweeps.tolist() == [int(n[0]) for _, n in singles]
    assert sweeps[0] == 0 and np.all(sweeps[1:] >= 1)
    history, log_beta, ref_sweeps = _reference_train(docs, k, v, config, init_beta)
    np.testing.assert_allclose(trained.bound_history, history, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(trained.log_beta, log_beta, rtol=0, atol=1e-12)
    assert trained.doc_sweeps.tolist() == ref_sweeps


def test_sweep_bound_equals_explicit_phi_bound():
    """The bound of every sweep, computed without phi, equals the
    term-by-term oracle at the new gamma and the oracle's phi, converged or
    not."""
    rng = np.random.default_rng(18)
    for _ in range(30):
        k = int(rng.integers(2, 6))
        model = _random_model(rng, k, int(rng.integers(4, 12)))
        doc = _random_doc(rng, model.vocab_size)
        _, _, trace = e_step(model, doc, tol=1e-3, max_iters=int(rng.integers(1, 6)))
        for step in trace:
            ref = _oracle_bound(model, doc, step)
            assert step.bounds[0] == pytest.approx(ref, rel=1e-8, abs=1e-10)


def _dead_term_model():
    """K=2, V=3; term 2 has zero probability under both topics."""
    with np.errstate(divide="ignore"):
        log_beta = np.log(np.array([[0.5, 0.5, 0.0], [0.7, 0.3, 0.0]]))
    return LdaModel(n_topics=2, vocab_size=3, alpha=np.full(2, 0.5), log_beta=log_beta)


def test_inference_rejects_document_using_a_term_no_topic_emits():
    model = _dead_term_model()
    docs = batch([("a", [(0, 1.0)]), ("b", [(1, 1.0), (2, 2.0)])], 3)
    with pytest.raises(ValidationError) as exc:
        extract_posteriors(model, docs)
    assert "'b'" in str(exc.value)
    with pytest.raises(ValidationError) as exc:
        extract_posteriors(model, docs[1:])
    assert "'b'" in str(exc.value)
    # Documents that do not use the term are inferred as under the table
    # without it.
    posts, _ = extract_posteriors(model, docs[:1])
    live = LdaModel(n_topics=2, vocab_size=2, alpha=model.alpha, log_beta=model.log_beta[:, :2])
    expected, _ = extract_posteriors(live, batch([("a", [(0, 1.0)])], 2))
    assert np.all(np.isfinite(posts.gamma))
    np.testing.assert_allclose(posts.gamma, expected.gamma, rtol=1e-12)


def test_init_beta_with_a_zero_column_rejected():
    docs = batch([("a", [(0, 1.0), (1, 1.0)])], 3)
    init_beta = np.array([[0.5, 0.5, 0.0], [0.7, 0.3, 0.0]])
    with pytest.raises(ValidationError) as exc:
        train_lda(docs, 2, LdaConfig(seed=0), init_beta=init_beta)
    assert "term 2" in str(exc.value)


def test_underflowing_phinorm_takes_the_log_space_path():
    """With alpha = 1e-3 the second topic's exp(E[log theta]) underflows, and
    term 2 has probability only under it, so its phinorm is exactly 0."""
    beta = np.array([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
    doc = one_doc("u", 3, [(0, 50.0), (1, 50.0), (2, 1e-6)])
    with np.errstate(divide="ignore"):
        model = LdaModel(n_topics=2, vocab_size=3, alpha=np.full(2, 1e-3),
                         log_beta=np.log(beta))
    config = LdaConfig(alpha=1e-3, em_max_iterations=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        posts, sweeps = extract_posteriors(model, doc)
        gamma, _, trace = e_step(model, doc)
        trained = train_lda(doc, 2, config, init_beta=beta)
    expected = np.array([100.001, 0.001001])
    np.testing.assert_allclose(posts.gamma[0], expected, rtol=1e-10)
    assert np.array_equal(gamma, posts.gamma)
    assert sweeps.tolist() == [len(trace)] == [2]
    phi = ref_phi(trace[-1].gamma0[0], doc_entries(doc), model.log_beta.tolist())
    np.testing.assert_array_equal(phi, [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    np.testing.assert_allclose(_residual(model, doc, trace[-1]), 0.0, atol=1e-12)
    assert all(np.isfinite(step.bounds[0]) for step in trace)
    # The explicit-phi bound takes its 0 log 0 and 0 * log beta = -inf terms as 0.
    assert trace[-1].bounds[0] == pytest.approx(_oracle_bound(model, doc, trace[-1]), rel=1e-10)
    # The expected counts of the first E-step: terms 0 and 1 in topic 0, term 2
    # (from its log-space phi) in topic 1.
    ss = np.array([[50.0, 50.0, 0.0], [0.0, 0.0, 1e-6]]) + lda_module._ETA
    np.testing.assert_allclose(
        trained.log_beta, np.log(ss / ss.sum(axis=1, keepdims=True)), rtol=1e-10
    )
    # The first objective has the prior's eta * log 0; the document bounds are
    # finite, so it is -inf and not NaN.
    assert trained.bound_history[0] == -np.inf and np.isfinite(trained.bound_history[1])


def test_subnormal_phinorm_takes_the_log_space_path():
    """Warm-started with the second topic collapsed, term 2's phinorm is the
    subnormal 1e-310, and 50 / phinorm would overflow."""
    with np.errstate(divide="ignore"):
        log_beta = np.log(np.array([[0.5, 0.5, 1e-310], [0.0, 0.0, 1.0]]))
    model = LdaModel(n_topics=2, vocab_size=3, alpha=np.full(2, 1e-3), log_beta=log_beta)
    doc = one_doc("u", 3, [(0, 50.0), (1, 50.0), (2, 50.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        gamma, _, trace = e_step(model, doc, gamma=[150.0, 1e-3])
    np.testing.assert_allclose(gamma[0], [150.001, 0.001], rtol=1e-10)
    assert all(np.isfinite(step.bounds[0]) for step in trace)


def test_import_loads_no_scipy_sparse():
    """The package, CLI included, must not pull in scipy at all (scipy.sparse
    or scipy.special): it adds start-up time and resident memory to every
    process, including those that do no topic inference."""
    src = Path(lda_module.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, ldaselect, ldaselect.cli; "
         "print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# Digamma and log Gamma

EPS = np.finfo(np.float64).eps


def _oracle_points(seed=0, n=1000):
    """Log-spaced over [1e-300, 1e300], dense about psi's positive root
    (1.4616...), and log-spaced over [0.05, 50], where LDA's gammas lie."""
    rng = np.random.default_rng(seed)
    return np.concatenate([
        10.0 ** rng.uniform(-300, 300, n), rng.uniform(1.3, 1.6, n),
        10.0 ** rng.uniform(np.log10(0.05), np.log10(50), n),
        [1e-300, 1e300, 0.05, 50.0, 1.0, 2.0, 1.4616321449683622],
    ])


@pytest.mark.parametrize(
    "fn, oracle", [(lda_module._digamma, "digamma"), (lda_module._gammaln, "loggamma")],
    ids=["digamma", "gammaln"],
)
def test_special_functions_match_mpmath(fn, oracle):
    """Within 8 ulps of the 40-digit value, relative to max(1, |f(x)|): the
    absolute error counts near the zeros of psi and log Gamma."""
    mpmath = pytest.importorskip("mpmath")
    x = _oracle_points()
    with mpmath.workdps(40):
        expected = np.array([float(getattr(mpmath, oracle)(mpmath.mpf(v))) for v in x])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = fn(x)
    assert got.shape == x.shape and got.dtype == np.float64
    err = np.abs(got - expected) / np.maximum(1.0, np.abs(expected))
    assert err.max() <= 8 * EPS, f"x = {x[err.argmax()]!r}: {err.max() / EPS:.2f} ulps"


@pytest.mark.parametrize(
    "fn", [lda_module._digamma, lda_module._gammaln], ids=["digamma", "gammaln"]
)
def test_special_functions_keep_shape(fn):
    """0-d arrays and Python scalars give scalars; arrays of any shape and
    layout keep it, element for element, across the digamma chunk edge."""
    x = 10.0 ** np.random.default_rng(1).uniform(-3, 4, (3, lda_module._PSI_CHUNK))
    got = fn(x)
    assert got.shape == x.shape
    np.testing.assert_array_equal(fn(x.T), got.T)
    np.testing.assert_array_equal(fn(x.ravel()), got.ravel())
    for scalar in (np.float64(x[1, 2]), float(x[1, 2]), np.array(x[1, 2])):
        value = fn(scalar)
        assert np.ndim(value) == 0
        assert value == got[1, 2]


def test_special_functions_at_the_ends_raise_no_warning():
    """x (x + 9) in the digamma recurrence would overflow at 1e300 and warn."""
    x = np.array([1e-300, 1e154, 1e200, 1e300, np.finfo(np.float64).max])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        psi = lda_module._digamma(x)
        lgamma = lda_module._gammaln(x[:-1])
    assert np.all(np.isfinite(psi)) and np.all(np.isfinite(lgamma))
    np.testing.assert_allclose(psi[1:], np.log(x[1:]), rtol=4 * EPS)


def test_special_functions_agree_with_scipy():
    """Within 10 ulps of scipy.special over the gammas LDA meets: each side's
    own error against mpmath (8 here, about 2 for scipy) added up."""
    special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(2)
    x = 10.0 ** rng.uniform(-3, 5, 20000)
    for ours, theirs in ((lda_module._digamma, special.digamma),
                         (lda_module._gammaln, special.gammaln)):
        expected = theirs(x)
        err = np.abs(ours(x) - expected) / np.maximum(1.0, np.abs(expected))
        assert err.max() <= 10 * EPS, f"{ours.__name__}: {err.max() / EPS:.2f} ulps"


# ---------------------------------------------------------------------------
# Serialization


def test_model_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(13)
    docs = DocBatch.concat(_random_doc(rng, 7, uid=f"d{i}") for i in range(10))
    model = train_lda(docs, 2, LdaConfig(seed=2))
    p = tmp_path / "m.alda"
    save_lda(model, p)
    back = load_lda(p)
    assert np.array_equal(back.alpha, model.alpha)
    assert np.array_equal(back.log_beta, model.log_beta)
    assert (back.n_topics, back.vocab_size) == (2, 7)


def test_model_file_corruptions(tmp_path):
    rng = np.random.default_rng(14)
    docs = DocBatch.concat(_random_doc(rng, 5, uid=f"d{i}") for i in range(5))
    model = train_lda(docs, 2, LdaConfig(seed=0))
    p = tmp_path / "m.alda"
    save_lda(model, p)
    good = p.read_bytes()

    p.write_bytes(b"WHAT" + good[4:])
    with pytest.raises(FormatError) as exc:
        load_lda(p)
    assert "magic" in str(exc.value)

    p.write_bytes(good[:10])
    with pytest.raises(FormatError):
        load_lda(p)

    p.write_bytes(good + b"\x01")
    with pytest.raises(FormatError):
        load_lda(p)

    bad = bytearray(good)
    bad[16:24] = np.float64(-2.0).tobytes()  # alpha[0] negative
    p.write_bytes(bytes(bad))
    with pytest.raises(FormatError):
        load_lda(p)

    bad = bytearray(good)
    off = 16 + 8 * 2  # first log_beta entry
    bad[off:off + 8] = np.float64(0.5).tobytes()  # log prob > 0
    p.write_bytes(bytes(bad))
    with pytest.raises(FormatError):
        load_lda(p)


def test_load_rejects_a_term_no_topic_emits(tmp_path):
    p = tmp_path / "m.alda"
    save_lda(_dead_term_model(), p)
    with pytest.raises(FormatError) as exc:
        load_lda(p)
    assert "term 2" in str(exc.value)


def test_posterior_file_round_trip(tmp_path):
    posts = Posteriors(["a", "b"], np.array([[1.5, 2.5], [0.25, 17.0]]))
    p = tmp_path / "g.tsv"
    write_posteriors(posts, p)
    back = read_posteriors(p)
    assert back.ids == ["a", "b"]
    for orig, rt in zip(posts.gamma, back.gamma):
        assert np.allclose(rt, orig, rtol=1e-8)


@settings(max_examples=300, deadline=None)
@given(st.floats(allow_nan=False))
def test_numpy_parses_nine_digit_strings_as_float_does(x):
    """``read_posteriors`` converts a line's values with one numpy call; on
    every string ``%.9g`` can produce it gives ``float``'s value, bit for bit."""
    text = f"{x:.9g}"
    got = np.array([text], dtype=np.float64)
    assert got.view(np.int64)[0] == np.float64(float(text)).view(np.int64)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(
    st.lists(st.floats(min_value=1e-300, max_value=1e300), min_size=3, max_size=3),
    min_size=1, max_size=4,
))
def test_posterior_file_matches_per_value_formatting(tmp_path, rows):
    """The file holds each value as ``f"{g:.9g}"``, and reads back as
    ``float`` of that text."""
    p = tmp_path / "g.tsv"
    gamma = np.array(rows)
    ids = [f"u{i}" for i in range(len(rows))]
    write_posteriors(Posteriors(ids, gamma), p)
    assert p.read_text(encoding="utf-8") == "".join(
        f"{i}\t" + " ".join(f"{g:.9g}" for g in row) + "\n" for i, row in zip(ids, rows)
    )
    back = read_posteriors(p).gamma
    expected = np.array([[float(f"{g:.9g}") for g in row] for row in rows])
    assert np.array_equal(back.view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("text, where", [
    ("a\t1.0 nan\nb\tx\n", ":1: posterior values must be positive and finite"),
    ("a\t1 1\n\nb\t1 inf\nc\t1\n", ":3: posterior values must be positive and finite"),
    ("a\t1 1\nb\t0 1\n\tno-id\n", ":2: posterior values must be positive and finite"),
    ("a\t1 1\nb\t1 1\nc\t1 -0.5\n", ":3: posterior values must be positive and finite"),
    ("a\t\n", ":1: posterior values must be positive and finite"),
    ("a\t1 1\nb\n", ":2: malformed posterior line"),
    ("a\t1 1\nb\t1 1e\n", ":2: non-numeric posterior value"),
    ("a\t1 1\nb\t1 1 1\nc\t-1 1\n", ":2: expected 2 values, got 3"),
])
def test_posterior_file_errors_name_the_first_bad_line(tmp_path, text, where):
    """Values are checked in bulk, but the error is the one a line-by-line
    reader meets first."""
    p = tmp_path / "g.tsv"
    p.write_text(text, encoding="utf-8")
    with pytest.raises(FormatError) as exc:
        read_posteriors(p)
    assert str(exc.value) == f"{p}{where}"


def test_posterior_file_malformed(tmp_path):
    p = tmp_path / "g.tsv"
    p.write_text("a\t1.0 x\n", encoding="utf-8")
    with pytest.raises(FormatError):
        read_posteriors(p)
    p.write_text("a\t1.0 2.0\nb\t1.0\n", encoding="utf-8")
    with pytest.raises(FormatError) as exc:
        read_posteriors(p)
    assert "expected 2 values" in str(exc.value)
    p.write_text("a\t1.0 -2.0\n", encoding="utf-8")
    with pytest.raises(FormatError):
        read_posteriors(p)
