import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from ldaselect import gmm as gmm_module
from ldaselect.errors import FormatError, ValidationError
from ldaselect.gmm import (
    GmmConfig,
    GmmModel,
    gmm_posteriors,
    load_gmm,
    quantize,
    save_gmm,
    train_gmm,
)

from reference import ref_log_joint, ref_train_gmm


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


@st.composite
def _em_cases(draw):
    n_components = draw(st.integers(1, 4))
    rows = draw(st.integers(2, 7))
    # n is never a multiple of the block, so every E-step ends on a short block.
    n = rows * draw(st.integers(n_components, 8)) + draw(st.integers(1, rows - 1))
    d = draw(st.integers(1, 13))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    # Offset clusters keep means and variances away from zero, where a
    # relative tolerance would measure cancellation instead of the kernels.
    centers = rng.uniform(3.0, 8.0, size=(draw(st.integers(1, 3)), d))
    X = centers[rng.integers(len(centers), size=n)] + rng.standard_normal((n, d))
    X = X.astype(draw(st.sampled_from([np.float32, np.float64])))
    config = GmmConfig(
        seed=draw(st.integers(0, 2**16)),
        max_iterations=draw(st.integers(1, 8)),
        tol=draw(st.sampled_from([1e-3, 1e-5, 1e-8])),
        init_subsample=draw(st.integers(n_components, n + 5)),
    )
    return X, n_components, rows, config


@settings(max_examples=60, deadline=None)
@given(_em_cases())
def test_blocked_em_matches_full_batch_reference(case):
    X, n_components, rows, config = case
    try:
        expected = ref_train_gmm(
            X, n_components, **dataclasses.asdict(config), collapse_patience=3
        )
    except ValueError:
        expected = None
    for block_rows in (1, rows):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gmm_module, "_BLOCK_CELLS", block_rows * n_components)
            if expected is None:
                with pytest.raises(ValidationError, match="collapsed"):
                    train_gmm(X, n_components, config)
                continue
            model = train_gmm(X, n_components, config)
        weights, means, variances, history, n_iterations = expected
        assert model.n_iterations == n_iterations
        np.testing.assert_allclose(model.weights, weights, rtol=1e-10, atol=0)
        np.testing.assert_allclose(model.means, means, rtol=1e-10, atol=0)
        np.testing.assert_allclose(model.variances, variances, rtol=1e-10, atol=0)
        np.testing.assert_allclose(model.loglik_history, history, rtol=1e-10, atol=0)


def test_em_memory_stays_below_frames_by_components():
    """The E-step works in blocks: its peak is far below one frames x
    components float64 array (tracemalloc sees numpy's allocations)."""
    n, n_components = 40_000, 256
    X = np.random.default_rng(9).standard_normal((n, 4))
    config = GmmConfig(seed=0, max_iterations=2, init_subsample=2_000)
    tracemalloc.start()
    try:
        train_gmm(X, n_components, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n_components * 8 / 4


def test_converged_flag_tells_tol_stop_from_cap():
    rng = np.random.default_rng(10)
    X = np.vstack([rng.standard_normal((300, 2)) - 6, rng.standard_normal((300, 2)) + 6])
    converged = train_gmm(X, 2, GmmConfig(seed=0, max_iterations=100))
    assert converged.converged and converged.n_iterations < 100
    capped = train_gmm(X, 2, GmmConfig(seed=0, max_iterations=1))
    assert not capped.converged and capped.n_iterations == 1


# ---------------------------------------------------------------------------
# Posteriors and quantization


@st.composite
def _mixtures(draw):
    """A mixture with offset means and variances in [0.5, 2] and frames near
    its means (one frame in some cases, as ``gmm_posteriors`` passes)."""
    n_components = draw(st.integers(1, 40))
    d = draw(st.integers(1, 13))
    n = draw(st.one_of(st.just(1), st.integers(2, 20)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    weights = rng.dirichlet(np.ones(n_components))
    means = rng.uniform(3.0, 8.0, size=(n_components, d))
    variances = rng.uniform(0.5, 2.0, size=(n_components, d))
    X = means[rng.integers(n_components, size=n)] + rng.standard_normal((n, d))
    X = X.astype(draw(st.sampled_from([np.float32, np.float64])))
    return weights, means, variances, X


@settings(max_examples=60, deadline=None)
@given(_mixtures())
def test_log_joint_matches_per_dimension_reference(case):
    weights, means, variances, X = case
    expected = ref_log_joint(weights, means, variances, X)
    got = gmm_module._log_joint(weights, means, variances, gmm_module._frame_rows(X))
    assert got.shape == expected.shape
    np.testing.assert_allclose(got, expected, rtol=1e-10, atol=0)
    post = gmm_posteriors(_model(weights, means, variances), X[0])
    np.testing.assert_allclose(
        post, np.exp(expected[:, 0] - logsumexp(expected[:, 0])), rtol=1e-9, atol=1e-300
    )


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


def test_quantize_float32_matches_its_float64_cast():
    rng = np.random.default_rng(11)
    model = _model(
        rng.dirichlet(np.ones(8)), rng.standard_normal((8, 13)) * 2,
        rng.random((8, 13)) + 0.5,
    )
    frames = (rng.standard_normal((500, 13)) * 2).astype(np.float32)
    tokens = quantize(model, frames)
    assert tokens.tolist() == quantize(model, frames.astype(np.float64)).tolist()
    assert len(set(tokens.tolist())) > 1


def test_quantize_identical_components_tie_to_lowest_index():
    rng = np.random.default_rng(12)
    means = rng.standard_normal((3, 4))
    variances = rng.random((3, 4)) + 0.5
    means[2], variances[2] = means[1], variances[1]
    model = _model([0.2, 0.4, 0.4], means, variances)
    # Frames at component 1/2's mean, where component 0 cannot win.
    frames = means[1] + 0.01 * rng.standard_normal((50, 4))
    assert quantize(model, frames).tolist() == [1] * 50
    model = _model([1 / 3] * 3, np.tile(means[1], (3, 1)), np.tile(variances[1], (3, 1)))
    assert quantize(model, frames).tolist() == [0] * 50


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

