import dataclasses
import math
from fractions import Fraction
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldaselect import gmm as gmm_module
from ldaselect.corpus import Manifest, Utterance, sample_frames, write_features
from ldaselect.errors import FormatError, ValidationError
from ldaselect.gmm import (
    GmmConfig,
    GmmModel,
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


def _log_joint(model, frames):
    """(components, frames) log-joint of ``frames`` under ``model`` from the
    block loop ``quantize`` scores with, about the mixture mean, each block
    copied out of the reused buffer."""
    frames = np.asarray(frames)
    shift = model.weights @ model.means
    coef = gmm_module._coefficients(model.weights, model.means, model.variances, shift)
    blocks = gmm_module._log_joint_blocks(frames, shift, model.n_components)(coef)
    return np.hstack([lj.copy() for _, _, lj in blocks])


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


@pytest.mark.parametrize("field, value", [
    ("max_iterations", 0), ("seed", -1), ("seed", 1.5),
])
def test_train_gmm_refuses_settings_out_of_range(field, value):
    """Called directly, ``train_gmm`` refuses what ``validate_config`` does,
    naming the field, rather than training on it or failing inside numpy."""
    X = np.random.default_rng(16).standard_normal((50, 2))
    with pytest.raises(ValidationError, match=field):
        train_gmm(X, 2, GmmConfig(**{"seed": 0, field: value}))


@st.composite
def _em_cases(draw):
    n_components = draw(st.integers(1, 4))
    rows = draw(st.integers(2, 7))
    blocks = st.integers(n_components, 8)
    if n_components <= 2:
        # More frames than seeding samples, so the subsample is drawn too.
        seeded = gmm_module._SEED_FRAMES_PER_COMPONENT * n_components
        blocks |= st.integers(seeded // rows + 1, 2 * seeded // rows)
    # n is never a multiple of the block, so every E-step ends on a short block.
    n = rows * draw(blocks) + draw(st.integers(1, rows - 1))
    d = draw(st.integers(1, 13))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    # Offset clusters keep means and variances away from zero, where a
    # relative tolerance would measure cancellation instead of the kernels.
    centers = rng.uniform(3.0, 8.0, size=(draw(st.integers(1, 3)), d))
    X = centers[rng.integers(len(centers), size=n)] + rng.standard_normal((n, d))
    X = X.astype(draw(st.sampled_from([np.float32, np.float64])))
    config = GmmConfig(seed=draw(st.integers(0, 2**16)), max_iterations=draw(st.integers(1, 8)))
    return X, n_components, rows, config, draw(st.sampled_from([1e-3, 1e-5, 1e-8]))


@settings(max_examples=60, deadline=None)
@given(_em_cases())
def test_blocked_em_matches_full_batch_reference(case):
    X, n_components, rows, config, tol = case
    try:
        expected = ref_train_gmm(
            X, n_components, **dataclasses.asdict(config), tol=tol,
            var_floor_scale=gmm_module._VAR_FLOOR_SCALE,
            init_subsample=gmm_module._SEED_FRAMES_PER_COMPONENT * n_components,
            collapse_patience=3,
        )
    except ValueError:
        expected = None
    for block_rows in (1, rows):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gmm_module, "_BLOCK_CELLS", block_rows * n_components)
            mp.setattr(gmm_module, "_TOL", tol)
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


@pytest.mark.parametrize("offset", [0.0, 5.0, 50.0, 500.0])
def test_one_m_step_matches_exact_moments_far_from_the_origin(offset):
    """One component's first M-step gives the frames' mean and (biased)
    variance. Against exact rational arithmetic, the program's and the
    oracle's variances stay within 1e-14 relative however far the frames sit
    from the origin: neither takes E[x^2] - mu^2 of raw moments, which loses
    about offset^2 / var units of roundoff (1e-10 relative at offset 500)."""
    X = np.random.default_rng(22).standard_normal((20_000, 2)) + offset
    config = GmmConfig(seed=0, max_iterations=1)
    model = train_gmm(X, 1, config)
    _, _, ref_variances, _, _ = ref_train_gmm(
        X, 1, **dataclasses.asdict(config), tol=gmm_module._TOL,
        var_floor_scale=gmm_module._VAR_FLOOR_SCALE,
        init_subsample=gmm_module._SEED_FRAMES_PER_COMPONENT, collapse_patience=3,
    )
    for j in range(X.shape[1]):
        col = [Fraction(v) for v in X[:, j].tolist()]
        mean = sum(col) / len(col)
        var = sum(v * v for v in col) / len(col) - mean * mean
        for got in (model.variances[0, j], ref_variances[0, j]):
            assert abs(Fraction(got) - var) <= Fraction(1e-14) * var


@pytest.mark.parametrize("n_components", [128, 256])
def test_em_memory_stays_below_frames_by_components(n_components):
    """The E-step works in blocks: its peak is far below one frames x
    components float64 array (tracemalloc sees numpy's allocations), with
    seeding on a subsample (128 components) and on every frame (256)."""
    n = 40_000
    X = np.random.default_rng(9).standard_normal((n, 4))
    config = GmmConfig(seed=0, max_iterations=2)
    tracemalloc.start()
    try:
        train_gmm(X, n_components, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n_components * 8 / 4


@pytest.mark.parametrize("n_components, rows", [(8, 1_600), (200, 30_000)])
def test_seeding_samples_200_frames_per_component(n_components, rows, monkeypatch):
    """k-means++ seeds on a uniform subsample of 200 frames per component, or
    on every frame when there are no more: its time and memory follow the
    codebook size, not the number of frames EM trains on."""
    X = np.random.default_rng(23).standard_normal((30_000, 2))
    given_rows, seed_rows = [], gmm_module.kmeans_pp_indices

    def recording(sub, k, rng):
        given_rows.append(sub.shape[0])
        return seed_rows(sub, k, rng)

    monkeypatch.setattr(gmm_module, "kmeans_pp_indices", recording)
    train_gmm(X, n_components, GmmConfig(seed=0, max_iterations=1))
    assert given_rows == [rows]


@pytest.mark.parametrize("n_components", [64, 300])
def test_em_keeps_no_float64_copy_of_the_frames(n_components):
    """Float32 frames are not held again as (2d+1) float64 rows (216 B per
    frame at dim 13): with seeding on a subsample (64 components) and on
    every frame (300) alike, training allocates less than twice the frames'
    own bytes."""
    rng = np.random.default_rng(13)
    frames = (rng.standard_normal((60_000, 13)) + rng.integers(0, 4, (60_000, 1))).astype(
        np.float32
    )
    config = GmmConfig(seed=0, max_iterations=2)
    tracemalloc.start()
    try:
        train_gmm(frames, n_components, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * frames.nbytes


@pytest.mark.parametrize("n_components", [100, 256])
def test_seeding_reads_sampled_frames_in_place(tmp_path, n_components):
    """``sample_frames`` returns dim-major frames, and seeding reads them in
    place: on every frame (256 components) it allocates its three float64
    distance vectors and no transposed copy, and on a subsample (100
    components, 20,000 rows) only the one dim-major gather. An E-step block
    (512 KB of log-joint) weighs less than seeding, so seeding sets the
    traced peak; a frame-sized copy would add 2 MB, or 1 MB on the
    subsample, to it."""
    n, d = 40_000, 13
    rng = np.random.default_rng(21)
    utts = []
    for i in range(40):
        path = tmp_path / f"u{i}.aldf"
        write_features(rng.standard_normal((n // 40, d)) + rng.integers(0, 4), path)
        utts.append(Utterance(f"u{i}", str(path), n // 40, d, 10.0, "x"))
    frames = sample_frames([Manifest(utts)], n, 0)
    rows = min(n, 200 * n_components)
    seeding = 3 * rows * 8 + (rows * d * frames.itemsize if rows < n else 0)
    config = GmmConfig(seed=0, max_iterations=1)
    tracemalloc.start()
    try:
        train_gmm(frames, n_components, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert seeding < peak < seeding + frames.nbytes // 4


@pytest.mark.parametrize("n", [1000, 600])
@pytest.mark.parametrize("block_frames", [1, 7])
def test_float32_frames_train_the_model_of_their_float64_cast(n, block_frames):
    """Every cast to float64 is exact, so float32 frames and their float64
    cast train bit-identical models, with 1-frame blocks and with blocks that
    leave a short last block (1000 = 7 * 142 + 6, 600 = 7 * 85 + 5), seeded
    on a subsample (1000 frames, 600 of them) and on every frame (600). The
    frames' memory layout changes only what is copied: row-major and
    dim-major frames of either dtype train the same model."""
    rng = np.random.default_rng(14)
    centers = rng.uniform(-4.0, 4.0, size=(3, 5))
    frames = (centers[rng.integers(3, size=n)] + rng.standard_normal((n, 5))).astype(
        np.float32
    )
    config = GmmConfig(seed=3, max_iterations=6)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gmm_module, "_BLOCK_CELLS", block_frames * 3)
        double = train_gmm(frames.astype(np.float64), 3, config)
        for order in ("C", "F"):
            for dtype in (np.float32, np.float64):
                X = np.asarray(frames, dtype=dtype, order=order)
                assert X.flags[f"{order}_CONTIGUOUS"]
                model = train_gmm(X, 3, config)
                for name in ("weights", "means", "variances", "var_floor"):
                    a, b = getattr(model, name), getattr(double, name)
                    assert a.dtype == b.dtype == np.float64
                    assert a.tobytes() == b.tobytes(), (order, dtype, name)
                assert model.loglik_history == double.loglik_history
                assert model.n_iterations == double.n_iterations == 6


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
    its means (one frame in some cases), in some cases 500 further from the
    origin."""
    n_components = draw(st.integers(1, 40))
    d = draw(st.integers(1, 13))
    n = draw(st.one_of(st.just(1), st.integers(2, 20)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    weights = rng.dirichlet(np.ones(n_components))
    offset = draw(st.sampled_from([0.0, 500.0]))
    means = rng.uniform(3.0, 8.0, size=(n_components, d)) + offset
    variances = rng.uniform(0.5, 2.0, size=(n_components, d))
    X = means[rng.integers(n_components, size=n)] + rng.standard_normal((n, d))
    X = X.astype(draw(st.sampled_from([np.float32, np.float64])))
    return weights, means, variances, X


@settings(max_examples=60, deadline=None)
@given(_mixtures())
def test_log_joint_matches_per_dimension_reference(case):
    weights, means, variances, X = case
    expected = ref_log_joint(weights, means, variances, X)
    got = _log_joint(_model(weights, means, variances), X)
    assert got.shape == expected.shape
    np.testing.assert_allclose(got, expected, rtol=1e-10, atol=0)


def test_posterior_far_components_analytic():
    """At x = 100 the two unit-variance components' log-joints differ by
    (200^2 - 0) / 2, exactly representable; the frame is component 1's."""
    model = _model([0.5, 0.5], [[-100.0], [100.0]], [[1.0], [1.0]])
    lj = _log_joint(model, np.array([[100.0]]))[:, 0]
    assert lj[1] - lj[0] == pytest.approx(20000.0, rel=1e-12)
    assert quantize(model, [[100.0]]).tolist() == [1]


def test_posterior_equidistant_symmetry():
    """A frame midway between two mirrored components has equal log-joints
    and goes to the lower index."""
    model = _model([0.5, 0.5], [[-2.0], [2.0]], [[1.5], [1.5]])
    lj = _log_joint(model, np.array([[0.0]]))[:, 0]
    assert lj[0] == lj[1]
    assert quantize(model, [[0.0]]).tolist() == [0]


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


def _random_model(rng, n_components, d):
    return _model(
        rng.dirichlet(np.ones(n_components)), rng.standard_normal((n_components, d)) * 2,
        rng.random((n_components, d)) + 0.5,
    )


def test_quantize_memory_does_not_grow_with_the_utterance():
    """A 60,000-frame utterance at N=1024 is scored in blocks: one frames x
    components float64 log-joint would take 469 MiB."""
    rng = np.random.default_rng(14)
    model = _random_model(rng, 1024, 13)
    frames = rng.standard_normal((60_000, 13)) * 2
    tracemalloc.start()
    try:
        quantize(model, frames)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_quantize_blocks_equal_one_product(monkeypatch):
    """Lengths on either side of a block boundary give the tokens of one
    log-joint product over the whole utterance: the block loop with a block
    wide enough to hold it."""
    rng = np.random.default_rng(15)
    model = _random_model(rng, 1024, 13)
    cols = gmm_module._block_frames(model.n_components)
    assert cols == 64
    frames = rng.standard_normal((2 * cols + 1, 13)) * 2
    for n in (cols - 1, cols, cols + 1, 2 * cols + 1):
        tokens = quantize(model, frames[:n])
        with monkeypatch.context() as m:
            m.setattr(gmm_module, "_BLOCK_CELLS", model.n_components * n)
            assert gmm_module._block_frames(model.n_components) == n
            whole = np.argmax(_log_joint(model, frames[:n]), axis=0)
        assert np.array_equal(tokens, whole), n


def test_quantize_follows_in_place_edits_of_the_model():
    """Tokens follow the model's arrays as they are at each call: after an
    edit made in place to ``weights``, ``means`` or ``variances``, a model
    gives the tokens of a fresh model built from copies of its arrays."""
    rng = np.random.default_rng(13)
    model = _model(
        rng.dirichlet(np.ones(4)), rng.standard_normal((4, 3)) * 3,
        rng.random((4, 3)) + 0.5,
    )
    frames = rng.standard_normal((300, 3)) * 3
    first = quantize(model, frames)
    expected = ref_log_joint(model.weights, model.means, model.variances, frames)
    assert np.array_equal(first, np.argmax(expected, axis=0))
    for name in ("weights", "means", "variances"):
        array = getattr(model, name)
        array[:] = array[::-1].copy()
        fresh = _model(model.weights.copy(), model.means.copy(), model.variances.copy())
        assert np.array_equal(quantize(model, frames), quantize(fresh, frames)), name
    assert np.array_equal(quantize(model, frames), 3 - first)


def test_dimension_mismatch_errors():
    model = _model([1.0], [[0.0, 0.0]], [[1.0, 1.0]])
    with pytest.raises(ValidationError):
        quantize(model, np.zeros((4, 3)))
    with pytest.raises(ValidationError):
        quantize(model, np.zeros(2))
    for bad in (math.nan, math.inf, -math.inf):  # no score, so no token
        with pytest.raises(ValidationError, match="NaN or Inf"):
            quantize(model, [[0.0, 0.0], [bad, 0.0]])


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

