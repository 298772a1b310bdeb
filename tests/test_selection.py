import math

import numpy as np
import pytest

from ldaselect.corpus import Manifest, Utterance
from ldaselect.errors import FormatError, ValidationError
from ldaselect.lda import Posteriors
from ldaselect.selection import (
    SelectionConfig,
    SelectionResult,
    SelectedUtterance,
    centroid_id,
    cosine_distance,
    random_select,
    read_audit,
    select,
    union_combine,
    write_audit,
)

from reference import ref_cosine_distance, ref_select


def _manifest(durations, tag="pool"):
    utts = [
        Utterance(uid, f"{uid}.aldf", 10, 2, dur, tag) for uid, dur in durations
    ]
    return Manifest(utterances=utts)


def _instance(rng, m, c, dim):
    ids = [f"u{i:03d}" for i in range(m)]
    gammas = {uid: (rng.random(dim) + 0.05).tolist() for uid in ids}
    durations = {uid: float(rng.uniform(5.0, 30.0)) for uid in ids}
    cents = rng.random((c, dim)) + 0.05
    posts = Posteriors(ids, np.array([gammas[uid] for uid in ids]))
    manifest = _manifest([(uid, durations[uid]) for uid in ids])
    return gammas, durations, cents, posts, manifest


# ---------------------------------------------------------------------------
# Distance


def test_cosine_distance_frozen_values():
    assert cosine_distance([1.0, 1.0], [1.0, 0.0]) == pytest.approx(
        0.29289321881345254, abs=1e-15
    )
    assert cosine_distance([2.0, 1.0], [2.0, 1.0]) == pytest.approx(0.0, abs=1e-15)
    assert cosine_distance([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0, abs=1e-15)


def test_cosine_distance_zero_vector_rejected():
    with pytest.raises(ValidationError):
        cosine_distance([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(ValidationError):
        cosine_distance([1.0, 0.0], [0.0, 0.0])


def test_cosine_distance_symmetry_and_scale():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = rng.random(4) + 0.01
        b = rng.random(4) + 0.01
        d = cosine_distance(a, b)
        assert d == pytest.approx(cosine_distance(b, a), abs=1e-15)
        assert d == pytest.approx(cosine_distance(3.7 * a, 0.2 * b), abs=1e-12)
        assert d == pytest.approx(ref_cosine_distance(a.tolist(), b.tolist()), abs=1e-12)
        assert 0.0 <= d <= 2.0


# ---------------------------------------------------------------------------
# Greedy selection


def test_permissive_threshold_takes_whole_pool():
    rng = np.random.default_rng(1)
    for m, c in [(5, 2), (4, 2), (7, 3), (1, 4)]:
        _, _, cents, posts, manifest = _instance(rng, m, c, 3)
        result = select(posts, manifest, cents, SelectionConfig(threshold=1.0))
        assert sorted(result.ids()) == sorted(manifest.ids())
        assert result.passes == math.ceil(m / c)
        assert result.total_hours == pytest.approx(
            sum(u.duration_s for u in manifest.utterances) / 3600.0, rel=1e-12
        )


def test_threshold_below_reach_selects_nothing():
    posts = Posteriors(["a"], np.array([[1.0, 0.0]]))
    manifest = _manifest([("a", 10.0)])
    cents = np.array([[0.0, 1.0]])  # distance exactly 1.0 from the pool vector
    result = select(posts, manifest, cents, SelectionConfig(threshold=0.5))
    assert result.selected == []
    assert result.passes == 1
    assert result.total_hours == 0.0


def test_matches_plain_python_oracle():
    rng = np.random.default_rng(2)
    for trial in range(25):
        m = int(rng.integers(1, 14))
        c = int(rng.integers(1, 5))
        lam = float(rng.uniform(0.05, 0.9))
        budget = float(rng.uniform(0.01, 0.1)) if trial % 3 == 0 else None
        gammas, durations, cents, posts, manifest = _instance(rng, m, c, 3)
        result = select(
            posts, manifest, cents, SelectionConfig(threshold=lam, max_hours=budget)
        )
        ref_sel, ref_passes, ref_total = ref_select(
            gammas, durations, cents.tolist(), lam, budget
        )
        assert [(s.utt_id, s.centroid, s.pass_index) for s in result.selected] == [
            (uid, centroid_id(ci), p) for uid, ci, _, p in ref_sel
        ]
        for s, (_, _, d, _) in zip(result.selected, ref_sel):
            assert s.distance == pytest.approx(d, abs=1e-12)
        assert result.passes == ref_passes
        assert result.total_hours == pytest.approx(ref_total, abs=1e-12)


def test_selection_invariants():
    rng = np.random.default_rng(3)
    _, _, cents, posts, manifest = _instance(rng, 40, 6, 4)
    lam = 0.3
    result = select(posts, manifest, cents, SelectionConfig(threshold=lam))
    ids = result.ids()
    assert len(set(ids)) == len(ids)
    assert all(s.distance < lam for s in result.selected)
    indexes = [s.pass_index for s in result.selected]
    assert indexes == sorted(indexes)
    durations = manifest.by_id()
    assert result.total_hours == pytest.approx(
        sum(durations[i].duration_s for i in ids) / 3600.0, rel=1e-12
    )


def test_budget_is_a_hard_stop():
    rng = np.random.default_rng(4)
    _, _, cents, posts, manifest = _instance(rng, 30, 4, 3)
    free = select(posts, manifest, cents, SelectionConfig(threshold=1.0))
    assert len(free.selected) == 30
    budget = free.total_hours / 2.0
    capped = select(
        posts, manifest, cents, SelectionConfig(threshold=1.0, max_hours=budget)
    )
    assert capped.total_hours <= budget + 1e-9
    n = len(capped.selected)
    assert 0 < n < 30
    assert capped.ids() == free.ids()[:n]
    # The first rejected utterance would have burst the budget.
    over = capped.total_hours + manifest.by_id()[free.ids()[n]].duration_s / 3600.0
    assert over > budget + 1e-9


def test_exact_distance_tie_breaks_to_smaller_id():
    # Two utterances with bitwise-identical vectors tie exactly.
    g = np.array([2.0, 1.0])
    posts = Posteriors(["zz", "aa"], np.array([g, g]))
    manifest = _manifest([("zz", 10.0), ("aa", 10.0)])
    cents = np.array([[1.0, 1.0]])
    result = select(posts, manifest, cents, SelectionConfig(threshold=1.0))
    assert result.ids() == ["aa", "zz"]
    assert result.passes == 2


def test_select_input_validation():
    g = np.array([1.0, 1.0])
    posts = Posteriors(["a"], g[None, :])
    manifest = _manifest([("a", 10.0)])
    cents = np.array([[1.0, 0.5]])
    config = SelectionConfig(threshold=0.5)

    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(ValidationError):
            select(posts, manifest, cents, SelectionConfig(threshold=bad))
    with pytest.raises(ValidationError):
        select(posts, manifest, cents, SelectionConfig(threshold=0.5, max_hours=0.0))
    with pytest.raises(ValidationError):
        select(Posteriors(["b"], g[None, :]), manifest, cents, config)
    with pytest.raises(ValidationError):
        select(Posteriors(["a", "a"], np.array([g, g])), manifest, cents, config)
    with pytest.raises(ValidationError):
        select(Posteriors(["a"], np.array([[1.0, 1.0, 1.0]])), manifest, cents, config)
    with pytest.raises(ValidationError):
        select(Posteriors(["a"], np.zeros((1, 2))), manifest, cents, config)
    with pytest.raises(ValidationError):
        select(posts, manifest, np.zeros((0, 2)), config)


# ---------------------------------------------------------------------------
# Union combination


def test_union_identity_and_idempotence():
    manifest = _manifest([("a", 60.0), ("b", 120.0)])
    a = SelectionResult(
        selected=[SelectedUtterance("a", centroid_id(0), 0.1, 1)],
        total_hours=60.0 / 3600.0,
        passes=1,
    )
    u = union_combine(a, a, manifest)
    assert [(s.utt_id, s.centroid) for s in u.selected] == [("a", "centroid_0000")]
    assert u.total_hours == pytest.approx(60.0 / 3600.0)
    again = union_combine(u, a, manifest)
    assert again.ids() == u.ids()


def test_union_disjoint_and_provenance():
    manifest = _manifest([("a", 60.0), ("b", 120.0), ("c", 30.0)])
    a = SelectionResult(
        selected=[
            SelectedUtterance("b", centroid_id(1), 0.05, 1),
            SelectedUtterance("a", centroid_id(0), 0.2, 2),
        ],
        total_hours=180.0 / 3600.0,
        passes=2,
    )
    b = SelectionResult(
        selected=[
            SelectedUtterance("a", centroid_id(3), 0.01, 1),
            SelectedUtterance("c", centroid_id(2), 0.15, 3),
        ],
        total_hours=90.0 / 3600.0,
        passes=3,
    )
    u = union_combine(a, b, manifest)
    assert sorted(u.ids()) == ["a", "b", "c"]
    rec = {s.utt_id: s for s in u.selected}
    assert rec["a"].centroid == centroid_id(0)  # first operand wins
    assert rec["a"].distance == 0.2
    assert u.total_hours == pytest.approx(210.0 / 3600.0)
    assert u.passes == 3
    assert [s.pass_index for s in u.selected] == sorted(s.pass_index for s in u.selected)


def test_union_rejects_unknown_utterance():
    manifest = _manifest([("a", 60.0)])
    a = SelectionResult(
        selected=[SelectedUtterance("ghost", centroid_id(0), 0.1, 1)],
        total_hours=0.1,
        passes=1,
    )
    with pytest.raises(ValidationError):
        union_combine(a, SelectionResult(), manifest)


# ---------------------------------------------------------------------------
# Random baseline


def test_random_select_full_budget_takes_everything():
    manifest = _manifest([(f"u{i}", 36.0) for i in range(10)])
    result = random_select(manifest, manifest.total_hours(), seed=0)
    assert sorted(result.ids()) == sorted(manifest.ids())
    assert result.total_hours == pytest.approx(manifest.total_hours())
    assert all(s.centroid == "random" for s in result.selected)
    assert all(math.isnan(s.distance) for s in result.selected)
    assert all(s.pass_index == 1 for s in result.selected)


def test_random_select_budget_and_determinism():
    manifest = _manifest([(f"u{i}", 36.0) for i in range(50)])
    r1 = random_select(manifest, 0.1, seed=7)
    r2 = random_select(manifest, 0.1, seed=7)
    assert r1.ids() == r2.ids()
    assert len(r1.selected) == 10  # 0.1 h / 36 s each
    r3 = random_select(manifest, 0.1, seed=8)
    assert r3.ids() != r1.ids()
    assert r1.total_hours <= 0.1 + 1e-9


def test_random_select_validation():
    manifest = _manifest([("a", 36.0)])
    with pytest.raises(ValidationError):
        random_select(manifest, 0.0, seed=0)
    with pytest.raises(ValidationError):
        random_select(manifest, 1.0, seed=0)  # beyond the pool total


# ---------------------------------------------------------------------------
# Audit file


def test_audit_round_trip(tmp_path):
    result = SelectionResult(
        selected=[
            SelectedUtterance("a", centroid_id(0), 0.12345678901234, 1),
            SelectedUtterance("b", "random", math.nan, 1),
        ],
        total_hours=1.25,
        passes=3,
    )
    path = tmp_path / "sel.audit.tsv"
    write_audit(result, path)
    back = read_audit(path)
    assert back.passes == 3
    assert back.total_hours == pytest.approx(1.25)
    assert [s.utt_id for s in back.selected] == ["a", "b"]
    assert back.selected[0].distance == pytest.approx(0.12345678901234, rel=1e-8)
    assert math.isnan(back.selected[1].distance)
    assert back.selected[1].centroid == "random"


def test_audit_malformed(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("a\tcentroid_0000\t0.1\n", encoding="utf-8")
    with pytest.raises(FormatError):
        read_audit(path)
    path.write_text("a\tcentroid_0000\tzero\t1\n", encoding="utf-8")
    with pytest.raises(FormatError):
        read_audit(path)
