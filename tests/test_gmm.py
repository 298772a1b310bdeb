import math

import numpy as np
import pytest

from ldaselect.errors import FormatError, ValidationError
from ldaselect.gmm import (
    GmmConfig,
    GmmModel,
    gmm_posteriors,
    load_gmm,
    quantize,
    read_quantized,
    save_gmm,
    train_gmm,
    write_quantized,
)


def _model(weights, means, variances):
    means = np.asarray(means, dtype=np.float64)
    return GmmModel(
        n_components=means.shape[0],
        weights=np.asarray(weights, dtype=np.float64),
        means=means,
        variances=np.asarray(variances, dtype=np.float64),
    )


# ---------------------------------------------------------------------------
# Training


def test_single_component_matches_sample_moments():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((2000, 3)) * 2.0 + np.array([1.0, -2.0, 0.5])
    model = train_gmm(X, 1, GmmConfig(seed=0, max_iterations=5))
    se = X.std(axis=0) / math.sqrt(X.shape[0])
    assert np.all(np.abs(model.means[0] - X.mean(axis=0)) < 3 * se)
    assert model.weights[0] == pytest.approx(1.0)
    assert np.allclose(model.variances[0], X.var(axis=0), rtol=1e-6)


def test_two_separated_clusters_recovered():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((500, 2)) + 10.0
    b = rng.standard_normal((500, 2)) - 10.0
    X = np.vstack([a, b])
    model = train_gmm(X, 2, GmmConfig(seed=4))
    order = np.argsort(model.means[:, 0])
    assert np.all(np.abs(model.means[order[0]] - (-10.0)) < 0.5)
    assert np.all(np.abs(model.means[order[1]] - 10.0) < 0.5)
    assert np.all(np.abs(model.weights - 0.5) < 0.1)


def test_loglik_monotone_random_runs():
    rng = np.random.default_rng(2)
    for trial in range(8):
        X = rng.standard_normal((300, 3)) + rng.integers(-5, 5, size=3)
        model = train_gmm(X, 4, GmmConfig(seed=trial, max_iterations=25))
        h = model.loglik_history
        assert all(h[i + 1] >= h[i] - 1e-8 for i in range(len(h) - 1))


def test_training_determinism():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((400, 2))
    m1 = train_gmm(X, 3, GmmConfig(seed=12))
    m2 = train_gmm(X, 3, GmmConfig(seed=12))
    assert np.array_equal(m1.weights, m2.weights)
    assert np.array_equal(m1.means, m2.means)
    assert np.array_equal(m1.variances, m2.variances)


def test_variance_floor_applied():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((200, 2))
    model = train_gmm(X, 2, GmmConfig(seed=0))
    assert model.var_floor is not None
    assert np.all(model.variances >= model.var_floor[None, :] - 1e-15)


def test_training_errors():
    with pytest.raises(ValidationError):
        train_gmm(np.ones((2, 3)), 5)  # too few frames
    with pytest.raises(ValidationError):
        train_gmm(np.ones((50, 3)), 2)  # all frames identical
    with pytest.raises(ValidationError):
        train_gmm(np.array([[np.inf, 0.0]]), 1)
    with pytest.raises(ValidationError):
        train_gmm(np.ones((10, 2)) * np.arange(10)[:, None], 0)


# ---------------------------------------------------------------------------
# Posteriors and quantization


def test_posterior_single_component():
    model = _model([1.0], [[0.0, 0.0]], [[1.0, 1.0]])
    post = gmm_posteriors(model, [3.0, -1.0])
    assert post.shape == (1,)
    assert post[0] == pytest.approx(1.0)


def test_posterior_far_components_analytic():
    model = _model(
        [0.5, 0.5], [[-100.0], [100.0]], [[1.0], [1.0]]
    )
    post = gmm_posteriors(model, [100.0])
    assert post[1] > 0.99
    assert post.sum() == pytest.approx(1.0, abs=1e-9)


def test_posterior_equidistant_symmetry():
    model = _model([0.5, 0.5], [[-2.0], [2.0]], [[1.5], [1.5]])
    post = gmm_posteriors(model, [0.0])
    assert abs(post[0] - 0.5) < 1e-9
    assert abs(post[1] - 0.5) < 1e-9


def test_posterior_sums_and_argmax_consistency():
    rng = np.random.default_rng(5)
    model = _model(
        rng.dirichlet(np.ones(4)),
        rng.standard_normal((4, 3)) * 3,
        rng.random((4, 3)) + 0.5,
    )
    frames = rng.standard_normal((200, 3)) * 3
    tokens = quantize(model, frames)
    for t, frame in zip(tokens, frames):
        post = gmm_posteriors(model, frame)
        assert post.sum() == pytest.approx(1.0, abs=1e-9)
        assert t == int(np.argmax(post))


def test_argmax_invariant_to_weight_rescale():
    rng = np.random.default_rng(6)
    weights = rng.dirichlet(np.ones(3))
    means = rng.standard_normal((3, 2)) * 4
    variances = rng.random((3, 2)) + 0.5
    frames = rng.standard_normal((100, 2)) * 4
    base = quantize(_model(weights, means, variances), frames).tolist()
    scaled = quantize(_model(weights * 7.3, means, variances), frames).tolist()
    assert base == scaled


def test_quantize_single_component_and_empty():
    model = _model([1.0], [[0.0, 0.0]], [[1.0, 1.0]])
    assert quantize(model, np.zeros((5, 2))).tolist() == [0, 0, 0, 0, 0]
    assert quantize(model, np.zeros((0, 2))).tolist() == []


def test_quantize_alternating_far_components():
    model = _model([0.5, 0.5], [[-50.0], [50.0]], [[1.0], [1.0]])
    frames = np.array([[-50.0], [50.0], [-49.0], [51.0]])
    assert quantize(model, frames).tolist() == [0, 1, 0, 1]


def test_dimension_mismatch_errors():
    model = _model([1.0], [[0.0, 0.0]], [[1.0, 1.0]])
    with pytest.raises(ValidationError):
        gmm_posteriors(model, [1.0, 2.0, 3.0])
    with pytest.raises(ValidationError):
        quantize(model, np.zeros((4, 3)))


# ---------------------------------------------------------------------------
# Serialization


def test_model_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(7)
    X = rng.standard_normal((300, 3))
    model = train_gmm(X, 3, GmmConfig(seed=1))
    p = tmp_path / "m.agmm"
    save_gmm(model, p)
    back = load_gmm(p)
    assert np.array_equal(back.weights, model.weights)
    assert np.array_equal(back.means, model.means)
    assert np.array_equal(back.variances, model.variances)


def test_model_file_corruptions(tmp_path):
    rng = np.random.default_rng(8)
    model = train_gmm(rng.standard_normal((100, 2)), 2, GmmConfig(seed=0))
    p = tmp_path / "m.agmm"
    save_gmm(model, p)
    good = p.read_bytes()

    p.write_bytes(b"NOPE" + good[4:])
    with pytest.raises(FormatError) as exc:
        load_gmm(p)
    assert "magic" in str(exc.value)

    p.write_bytes(good[:-8])
    with pytest.raises(FormatError):
        load_gmm(p)

    p.write_bytes(good + b"\x00" * 8)
    with pytest.raises(FormatError):
        load_gmm(p)

    bad = bytearray(good)
    bad[4] = 42  # version
    p.write_bytes(bytes(bad))
    with pytest.raises(FormatError) as exc:
        load_gmm(p)
    assert "version" in str(exc.value)

    bad = bytearray(good)
    bad[16:24] = np.float64(-0.5).tobytes()  # first weight negative
    p.write_bytes(bytes(bad))
    with pytest.raises(FormatError):
        load_gmm(p)


def test_quantized_corpus_round_trip(tmp_path):
    tokens = [
        quantize(_model([1.0], [[0.0]], [[1.0]]), np.zeros((3, 1))),
        quantize(_model([1.0], [[0.0]], [[1.0]]), np.zeros((0, 1))),
    ]
    p = tmp_path / "q.tsv"
    write_quantized(["a", "empty"], tokens, p)
    ids, back = read_quantized(p)
    assert list(zip(ids, back)) == [("a", [0, 0, 0]), ("empty", [])]


def test_quantized_corpus_malformed(tmp_path):
    p = tmp_path / "q.tsv"
    p.write_text("a\t1 2 x\n", encoding="utf-8")
    with pytest.raises(FormatError):
        read_quantized(p)
    p.write_text("a\t1\textra\n", encoding="utf-8")
    with pytest.raises(FormatError):
        read_quantized(p)
    p.write_text("a\t-1\n", encoding="utf-8")
    with pytest.raises(FormatError):
        read_quantized(p)
