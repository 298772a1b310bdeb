import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldaselect import lda as lda_module
from ldaselect.docmodel import DocBatch
from ldaselect.errors import FormatError, ValidationError
from ldaselect.lda import (
    LdaConfig,
    LdaModel,
    Posteriors,
    elbo,
    extract_posteriors,
    infer_document,
    load_lda,
    read_posteriors,
    save_lda,
    train_lda,
    write_posteriors,
)

from batches import batch, doc as one_doc, entries as doc_entries
from reference import best_topic_matching, ref_elbo


def _random_model(rng, k, v):
    alpha = rng.random(k) + 0.2
    beta = rng.random((k, v)) + 0.05
    beta /= beta.sum(axis=1, keepdims=True)
    return LdaModel(n_topics=k, vocab_size=v, alpha=alpha, log_beta=np.log(beta))


def _random_doc(rng, v, uid="d"):
    n_terms = int(rng.integers(2, min(v, 8) + 1))
    terms = sorted(rng.choice(v, size=n_terms, replace=False).tolist())
    entries = [
        (int(t), int(rng.integers(1, 5)), float(rng.uniform(0.1, 3.0))) for t in terms
    ]
    return one_doc(uid, entries)


def _count_doc(rng, beta_row, length, uid):
    counts = rng.multinomial(length, beta_row)
    entries = [(v, int(c), float(c)) for v, c in enumerate(counts) if c]
    return one_doc(uid, entries)


# ---------------------------------------------------------------------------
# Per-document inference


def test_empty_document_gamma_equals_alpha():
    rng = np.random.default_rng(0)
    model = _random_model(rng, 3, 5)
    state = infer_document(model, one_doc("e"))
    assert np.array_equal(state.gamma, model.alpha)
    assert state.phi.shape == (0, 3)
    assert state.elbo_history == [0.0]


def test_single_topic_closed_form():
    rng = np.random.default_rng(1)
    model = _random_model(rng, 1, 6)
    doc = _random_doc(rng, 6)
    state = infer_document(model, doc)
    total = sum(w for _, _, w in doc_entries(doc))
    assert state.gamma[0] == pytest.approx(model.alpha[0] + total, rel=1e-12)
    assert np.allclose(state.phi, 1.0)


def test_fixed_point_identity_and_phi_rows():
    rng = np.random.default_rng(2)
    for trial in range(20):
        model = _random_model(rng, int(rng.integers(2, 6)), int(rng.integers(6, 15)))
        doc = _random_doc(rng, model.vocab_size)
        state = infer_document(model, doc)
        weights = doc.weights
        residual = state.gamma - model.alpha - weights @ state.phi
        assert np.max(np.abs(residual)) < 1e-9
        assert np.allclose(state.phi.sum(axis=1), 1.0, atol=1e-9)


def test_hand_set_beta_elbo_trace_monotone():
    alpha = np.array([0.7, 1.3])
    beta = np.array([[0.6, 0.3, 0.1], [0.1, 0.2, 0.7]])
    model = LdaModel(n_topics=2, vocab_size=3, alpha=alpha, log_beta=np.log(beta))
    doc = one_doc("d", [(0, 2, 1.1), (2, 1, 0.4)])
    state = infer_document(model, doc)
    h = state.elbo_history
    assert len(h) >= 2
    assert all(h[i + 1] >= h[i] - 1e-8 for i in range(len(h) - 1))
    weights = np.array([1.1, 0.4])
    assert np.max(np.abs(state.gamma - alpha - weights @ state.phi)) < 1e-9


def test_infer_validation():
    rng = np.random.default_rng(3)
    model = _random_model(rng, 2, 4)
    with pytest.raises(ValidationError):
        infer_document(model, one_doc("d", [(4, 1, 1.0)]))
    with pytest.raises(ValidationError):
        infer_document(model, one_doc("d", [(0, 1, 1.0)]), max_iters=0)


# ---------------------------------------------------------------------------
# Bound evaluation


def test_elbo_empty_doc_exact_zero():
    rng = np.random.default_rng(4)
    model = _random_model(rng, 4, 5)
    doc = one_doc("e")
    state = infer_document(model, doc)
    assert elbo(model, doc, state) == 0.0


def test_elbo_converged_at_least_first_iteration():
    rng = np.random.default_rng(5)
    for trial in range(10):
        model = _random_model(rng, 3, 10)
        doc = _random_doc(rng, 10)
        state = infer_document(model, doc)
        assert state.elbo_history[-1] >= state.elbo_history[0] - 1e-8


def test_elbo_matches_independent_oracle():
    rng = np.random.default_rng(6)
    for trial in range(50):
        k = int(rng.integers(2, 5))
        v = int(rng.integers(4, 12))
        model = _random_model(rng, k, v)
        doc = _random_doc(rng, v)
        state = infer_document(model, doc)
        ours = elbo(model, doc, state)
        ref = ref_elbo(
            model.alpha.tolist(), state.gamma.tolist(), state.phi.tolist(),
            doc_entries(doc), model.log_beta.tolist(),
        )
        assert ours == pytest.approx(ref, rel=1e-8, abs=1e-10)


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
    model = train_lda(docs, k, v, LdaConfig(seed=0))
    h = model.bound_history
    assert all(h[i + 1] >= h[i] - 1e-6 * abs(h[i]) for i in range(len(h) - 1))
    score = best_topic_matching(true_beta.tolist(), np.exp(model.log_beta).tolist())
    assert score >= 0.8


def test_single_topic_beta_closed_form():
    rng = np.random.default_rng(8)
    v = 9
    docs = DocBatch.concat(_random_doc(rng, v, uid=f"d{i}") for i in range(12))
    config = LdaConfig(seed=0, eta=0.01)
    model = train_lda(docs, 1, v, config)
    ss = np.zeros(v)
    for i in range(len(docs)):
        for t, _, w in doc_entries(docs, i):
            ss[t] += w
    expected = (ss + config.eta) / (ss + config.eta).sum()
    assert np.allclose(np.exp(model.log_beta[0]), expected, rtol=1e-10)


def test_training_determinism_bitwise():
    rng = np.random.default_rng(9)
    docs = DocBatch.concat(_random_doc(rng, 12, uid=f"d{i}") for i in range(20))
    m1 = train_lda(docs, 3, 12, LdaConfig(seed=5))
    m2 = train_lda(docs, 3, 12, LdaConfig(seed=5))
    assert np.array_equal(m1.log_beta, m2.log_beta)
    assert m1.bound_history == m2.bound_history


def test_bound_monotone_on_random_corpora():
    rng = np.random.default_rng(10)
    for trial in range(5):
        v = int(rng.integers(8, 20))
        docs = DocBatch.concat(
            _random_doc(rng, v, uid=f"d{i}") for i in range(int(rng.integers(5, 25)))
        )
        model = train_lda(docs, int(rng.integers(2, 5)), v, LdaConfig(seed=trial))
        h = model.bound_history
        assert all(
            h[i + 1] >= h[i] - 1e-6 * max(abs(h[i]), 1.0) for i in range(len(h) - 1)
        )
        assert np.allclose(np.exp(model.log_beta).sum(axis=1), 1.0, atol=1e-8)


def test_all_empty_corpus_rejected():
    with pytest.raises(ValidationError):
        train_lda(batch([("a", []), ("b", [])]), 2, 5)


def test_alpha_default_and_override():
    docs = one_doc("d", [(0, 1, 1.0)])
    model = train_lda(docs, 4, 2, LdaConfig(seed=0, em_max_iterations=1))
    assert np.allclose(model.alpha, 50.0 / 4)
    model = train_lda(docs, 4, 2, LdaConfig(seed=0, em_max_iterations=1, alpha=0.3))
    assert np.allclose(model.alpha, 0.3)
    with pytest.raises(ValidationError):
        train_lda(docs, 4, 2, LdaConfig(alpha=-1.0))


def test_vocabulary_permutation_equivariance():
    rng = np.random.default_rng(11)
    v, k = 10, 3
    docs = DocBatch.concat(_random_doc(rng, v, uid=f"d{i}") for i in range(15))
    perm = rng.permutation(v)
    docs_p = []
    for i, uid in enumerate(docs.ids):
        entries = sorted(
            ((int(perm[t]), c, w) for t, c, w in doc_entries(docs, i)), key=lambda e: e[0]
        )
        docs_p.append((uid, entries))
    docs_p = batch(docs_p)
    init = rng.random((k, v)) + 0.05
    init_p = np.empty_like(init)
    init_p[:, perm] = init
    config = LdaConfig(seed=0, em_max_iterations=15)
    m = train_lda(docs, k, v, config, init_beta=init)
    m_p = train_lda(docs_p, k, v, config, init_beta=init_p)
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
    docs.append(one_doc("empty"))
    docs.append(one_doc("dup", doc_entries(docs[0])))
    docs = DocBatch.concat(docs)
    model = train_lda(docs, 3, 8, LdaConfig(seed=1))
    posts, sweeps = extract_posteriors(model, docs)
    assert sweeps[6] == 0 and np.all(sweeps[:6] >= 1)
    assert posts.ids == docs.ids
    assert np.array_equal(posts.gamma[6], model.alpha)
    assert np.array_equal(posts.gamma[7], posts.gamma[0])
    for gamma in posts.gamma:
        assert gamma.sum() >= model.alpha.sum() - 1e-12


# ---------------------------------------------------------------------------
# Batched inference against the single-document form


def _reference_train(docs, k, v, config, init_beta):
    """Variational EM as one infer_document call per document per iteration."""
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
            doc = docs[i]
            state = infer_document(
                model, doc, config.doc_tol, config.doc_max_iterations, init_gamma=warm[i]
            )
            warm[i] = state.gamma
            total += state.elbo_history[-1]
            sweeps.append(len(state.elbo_history) if doc.terms.size else 0)
            if doc.terms.size:
                terms = doc.terms
                weights = doc.weights
                np.add.at(ss.T, terms, weights[:, None] * state.phi)
        total += config.eta * float(model.log_beta.sum())
        history.append(total)
        if len(history) >= 2:
            if (history[-1] - history[-2]) / max(abs(history[-2]), 1e-12) < config.em_tol:
                break
        if it == config.em_max_iterations - 1:
            break
        ss += config.eta
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
        entries = [(t, 1, draw(st.floats(0.05, 5.0))) for t in terms]
        docs.append((f"d{i}", entries))
    return dict(
        k=k, v=v, docs=batch(docs),
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
        states = [
            infer_document(model, docs[i], tol=tol, max_iters=max_iters)
            for i in range(len(docs))
        ]
        np.testing.assert_allclose(
            posts.gamma, np.array([s.gamma for s in states]),
            rtol=1e-10, atol=0,
        )
        assert sweeps.tolist() == [
            len(s.elbo_history) if n else 0
            for s, n in zip(states, np.diff(docs.indptr))
        ]

        config = LdaConfig(
            seed=case["seed"], em_max_iterations=4, doc_tol=tol,
            doc_max_iterations=max_iters, alpha=0.5,
        )
        init_beta = rng.random((k, v)) + 0.05
        if not docs.terms.size:
            with pytest.raises(ValidationError):
                train_lda(docs, k, v, config, init_beta=init_beta)
            return
        model = train_lda(docs, k, v, config, init_beta=init_beta)
    history, log_beta, ref_sweeps = _reference_train(docs, k, v, config, init_beta)
    np.testing.assert_allclose(model.bound_history, history, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(model.log_beta, log_beta, rtol=0, atol=1e-12)
    assert model.doc_sweeps.tolist() == ref_sweeps


def test_batched_validation_names_document():
    rng = np.random.default_rng(15)
    model = _random_model(rng, 2, 4)
    docs = batch([
        ("ok", [(0, 1, 1.0)]),
        ("oov", [(1, 1, 1.0), (4, 1, 1.0)]),
    ])
    with pytest.raises(ValidationError) as exc:
        extract_posteriors(model, docs)
    assert "'oov'" in str(exc.value)
    with pytest.raises(ValidationError) as exc:
        train_lda(docs, 2, 4)
    assert "'oov'" in str(exc.value)
    with pytest.raises(ValidationError):
        extract_posteriors(model, docs[:1], max_iters=0)
    with pytest.raises(ValidationError) as exc:
        train_lda(batch([("a", []), ("b", [])]), 2, 4)
    assert "all-empty" in str(exc.value)


def test_batched_empty_documents_keep_alpha(monkeypatch):
    rng = np.random.default_rng(16)
    monkeypatch.setattr(lda_module, "_BLOCK_CELLS", 4)
    docs = DocBatch.concat([
        one_doc("e0"),
        _random_doc(rng, 9, uid="a"),
        one_doc("e1"),
        _random_doc(rng, 9, uid="b"),
        one_doc("e2"),
    ])
    model = train_lda(docs, 3, 9, LdaConfig(seed=3, alpha=0.7))
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


# ---------------------------------------------------------------------------
# Serialization


def test_model_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(13)
    docs = DocBatch.concat(_random_doc(rng, 7, uid=f"d{i}") for i in range(10))
    model = train_lda(docs, 2, 7, LdaConfig(seed=2))
    p = tmp_path / "m.alda"
    save_lda(model, p)
    back = load_lda(p)
    assert np.array_equal(back.alpha, model.alpha)
    assert np.array_equal(back.log_beta, model.log_beta)
    assert (back.n_topics, back.vocab_size) == (2, 7)


def test_model_file_corruptions(tmp_path):
    rng = np.random.default_rng(14)
    docs = DocBatch.concat(_random_doc(rng, 5, uid=f"d{i}") for i in range(5))
    model = train_lda(docs, 2, 5, LdaConfig(seed=0))
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


def test_posterior_file_round_trip(tmp_path):
    posts = Posteriors(["a", "b"], np.array([[1.5, 2.5], [0.25, 17.0]]))
    p = tmp_path / "g.tsv"
    write_posteriors(posts, p)
    back = read_posteriors(p)
    assert back.ids == ["a", "b"]
    for orig, rt in zip(posts.gamma, back.gamma):
        assert np.allclose(rt, orig, rtol=1e-8)


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
