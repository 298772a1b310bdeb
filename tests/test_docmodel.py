import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ldaselect.docmodel import (
    DocBatch,
    bag_of_words,
    build_text_vocab,
    compute_stats,
    load_docs,
    normalize_tokens,
    save_docs,
    tfidf,
    token_ids,
)
from ldaselect.errors import FormatError, ValidationError

from batches import batch, entries
from reference import ref_doc_freq, ref_tfidf, ref_top_tokens


def _bag(token_docs, vocab_size, prefix="d"):
    return bag_of_words(
        [f"{prefix}{i}" for i in range(len(token_docs))], token_docs, vocab_size
    )


def _stats(token_docs, vocab_size):
    return compute_stats([_bag(token_docs, vocab_size)])


def _weigh(tokens, stats, utt_id="d0"):
    return tfidf(bag_of_words([utt_id], [tokens], stats.vocab_size), stats)


# ---------------------------------------------------------------------------
# Corpus statistics


def test_doc_freq_direct_count():
    stats = _stats([[5, 5, 1], [5], [2, 5]], vocab_size=8)
    assert stats.doc_count == 3
    assert stats.doc_freq[5] == 3
    assert stats.doc_freq[1] == 1
    assert stats.doc_freq[0] == 0


def test_empty_corpus_stats():
    stats = compute_stats([_bag([], 4)])
    assert (stats.vocab_size, stats.doc_count) == (4, 0)
    assert stats.doc_freq.tolist() == [0] * 4


def test_doc_freq_matches_brute_force():
    rng = np.random.default_rng(0)
    for trial in range(10):
        v = int(rng.integers(3, 20))
        docs = [
            rng.integers(0, v, size=rng.integers(0, 15)).tolist()
            for _ in range(int(rng.integers(1, 12)))
        ]
        stats = _stats(docs, v)
        assert stats.doc_freq.tolist() == ref_doc_freq(docs, v)


def test_stats_token_out_of_range():
    with pytest.raises(ValidationError):
        _stats([[0, 3]], vocab_size=3)
    with pytest.raises(ValidationError):
        _stats([[-1]], vocab_size=3)
    bag = _bag([[0], [0, 2]], 3)
    bag.terms[1] = 3  # a hand-built batch can hold a term its bag_of_words refuses
    with pytest.raises(ValidationError) as exc:
        compute_stats([bag])
    assert "'d1'" in str(exc.value)


def test_stats_over_bags_of_two_vocabularies_are_refused():
    with pytest.raises(ValidationError, match=r"different vocabulary sizes \[3, 4\]"):
        compute_stats([_bag([[0]], 3), _bag([[0]], 4)])


# ---------------------------------------------------------------------------
# Weighting


def test_uniform_presence_idf_is_one():
    docs = [[0, 1], [1, 0], [0, 1, 1]]
    stats = _stats(docs, 2)
    doc = _weigh([1, 1, 0], stats)
    # every term is in every document: idf = log((1+D)/(1+D)) + 1 = 1
    assert entries(doc) == [(0, pytest.approx(1 / 3)), (1, pytest.approx(2 / 3))]


def test_empty_document():
    stats = _stats([[0]], 2)
    assert entries(_weigh([], stats)) == []


def test_hand_computed_weights_frozen():
    """doc [2,2,7] with D=2, df[2]=1, df[7]=2, against hand-derived constants."""
    stats = _stats([[2, 2, 7], [7]], vocab_size=8)
    doc = _weigh([2, 2, 7], stats)
    assert [t for t, _ in entries(doc)] == [2, 7]
    weights = dict(entries(doc))
    # tf(2) = 2/3, idf(2) = log(3/2) + 1; tf(7) = 1/3, idf(7) = log(3/3) + 1
    assert weights[2] == pytest.approx(0.9369767387387763, abs=1e-15)
    assert weights[7] == pytest.approx(0.3333333333333333, abs=1e-15)


def test_counts_sum_to_length_and_weights_positive():
    rng = np.random.default_rng(1)
    for trial in range(10):
        v = 12
        docs = [rng.integers(0, v, size=rng.integers(1, 30)).tolist() for _ in range(6)]
        stats = _stats(docs, v)
        for tokens in docs:
            bag = bag_of_words(["d0"], [tokens], v)
            assert sum(c for _, c in entries(bag)) == len(tokens)
            doc = tfidf(bag, stats)
            assert [t for t, _ in entries(doc)] == sorted(set(tokens))
            assert all(w > 0 for _, w in entries(doc))


def test_repeating_document_scales_counts_not_weights():
    stats = _stats([[0, 1, 1], [2]], 3)
    single, tripled = _bag([[0, 1, 1]], 3), _bag([[0, 1, 1] * 3], 3)
    assert entries(tripled) == [(t, 3 * c) for t, c in entries(single)]
    for (t1, w1), (t3, w3) in zip(entries(tfidf(single, stats)), entries(tfidf(tripled, stats))):
        assert t3 == t1
        assert w3 == pytest.approx(w1, rel=1e-12)


def test_weigh_errors():
    stats = compute_stats([_bag([], 3)])
    with pytest.raises(ValidationError):
        _weigh([0], stats)  # zero documents
    stats = _stats([[0]], 3)
    with pytest.raises(ValidationError):
        _weigh([3], stats)


# ---------------------------------------------------------------------------
# Text normalization and vocabulary


def _vocab(texts, cap):
    return build_text_vocab([normalize_tokens(t) for t in texts], cap)


def test_tokenize_normalization():
    vocab = {"hello": 0, "world": 1}
    assert normalize_tokens("Hello, hello WORLD") == ["hello", "hello", "world"]
    assert token_ids(normalize_tokens("Hello, hello WORLD"), vocab) == [0, 0, 1]
    assert token_ids(normalize_tokens(""), vocab) == []
    assert token_ids(normalize_tokens("foo bar!! baz"), vocab) == []


def test_vocab_tie_rule():
    vocab = _vocab(["a a b", "b c"], cap=2)
    assert vocab == {"a": 0, "b": 1}


def test_vocab_cap_larger_than_distinct():
    vocab = _vocab(["x y", "z"], cap=10)
    assert set(vocab) == {"x", "y", "z"}
    assert sorted(vocab.values()) == [0, 1, 2]


def test_vocab_matches_brute_force():
    rng = np.random.default_rng(2)
    words = [f"w{i}" for i in range(30)]
    for trial in range(8):
        texts = [
            " ".join(rng.choice(words, size=rng.integers(1, 40)))
            for _ in range(int(rng.integers(1, 10)))
        ]
        cap = int(rng.integers(1, 12))
        vocab = _vocab(texts, cap)
        expected = ref_top_tokens(texts, cap)
        assert list(vocab) == expected
        assert list(vocab.values()) == list(range(len(expected)))


def test_vocab_cap_validation():
    with pytest.raises(ValidationError):
        _vocab(["a"], cap=0)


# ---------------------------------------------------------------------------
# Document container (.adoc)


def _packed(ids, indptr, terms, weights, vocab_size):
    """Container bytes laid out by hand, bypassing ``save_docs``'s checks; the
    header's document count is ``len(indptr) - 1``."""
    blob = "".join(i + "\n" for i in ids).encode("utf-8")
    header = struct.pack(
        "<4sIQQQQ", b"ADOC", 3, vocab_size, len(indptr) - 1, len(terms), len(blob)
    )
    return header + blob + b"".join(
        np.asarray(a, dtype=dt).tobytes()
        for a, dt in ((indptr, "<i8"), (terms, "<i4"), (weights, "<f8"))
    )


def _same_docs(a, b):
    assert (a.ids, a.vocab_size) == (b.ids, b.vocab_size)
    for f in ("indptr", "terms"):
        assert np.array_equal(getattr(a, f), getattr(b, f)), f
        assert getattr(b, f).dtype == np.int64, f
    assert np.array_equal(a.weights.view(np.int64), b.weights.view(np.int64))


def test_weighted_round_trip(tmp_path):
    """Ids, layout, vocabulary size and weights come back exactly: the file
    holds the tf-idf weights as computed, bit for bit."""
    stats = _stats([[0, 1, 1], [2, 0]], 3)
    docs = tfidf(bag_of_words(["u1", "empty", "u2"], [[0, 1, 1], [], [2]], 3), stats)
    # Not representable in nine significant digits, so no rounding can pass.
    assert any(float(f"{w:.9g}") != w for w in docs.weights.tolist())
    p = tmp_path / "w.adoc"
    save_docs(docs, p)
    assert p.read_bytes() == _packed(docs.ids, docs.indptr, docs.terms, docs.weights, 3)
    back = load_docs(p)
    _same_docs(docs, back)
    assert back.weights.flags.writeable and back.terms.flags.writeable


@pytest.mark.parametrize(
    "token_docs", [[], [[]], [[], [], []]], ids=["no-docs", "one-empty", "all-empty"]
)
def test_weighted_round_trip_without_entries(tmp_path, token_docs):
    docs = _bag(token_docs, 4)
    p = tmp_path / "w.adoc"
    save_docs(docs, p)
    _same_docs(docs, load_docs(p))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
                min_size=1, max_size=40))
@example([5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.0])
@example([100000000.5, 999999999.5, 99999999.95, 0.1, 1e22, 1e23, 1e-22, 1e-23])
@example([0.30000000000000004, 123456789.49999999, 2.0 ** 53, 1e9 - 0.5])
@example([float(np.nextafter(10.0 ** j, 0.0)) for j in range(-6, 12)])
@example([1_234_567_891.0, 2.0**31 - 1])
def test_stored_weights_read_back_bit_for_bit(tmp_path, weights):
    """Any finite non-negative weights, subnormals, the largest float and
    values next to a ninth-digit tie among them, read back as stored; so do
    bag counts of ten digits, which LDA reads as pseudo-counts."""
    n = len(weights)
    docs = DocBatch(["d"], np.array([0, n]), np.arange(n), np.array(weights), n)
    p = tmp_path / "w.adoc"
    save_docs(docs, p)
    got = load_docs(p).weights
    assert np.array_equal(got.view(np.int64), np.array(weights).view(np.int64))


def test_stored_weights_bulk_read_back_bit_for_bit(tmp_path):
    """Two hundred thousand weights over every decade of the float range,
    a quarter of them next to a ninth-digit rounding tie."""
    rng = np.random.default_rng(7)
    n = 200_000
    w = np.concatenate([
        np.exp(rng.uniform(-740, 709, n // 4)),
        rng.gamma(2.0, 1.0, n // 4) * 10.0 ** rng.integers(-6, 3, n // 4),
        rng.integers(0, 2 * 10**9, n // 4).astype(float),
        # next to a half in the ninth digit, where the digits need the string
        (rng.integers(10**8, 10**9, n // 4) + 0.5) / 10.0 ** rng.integers(0, 16, n // 4),
    ])
    docs = DocBatch(["d"], np.array([0, n]), np.arange(n), w, n)
    p = tmp_path / "w.adoc"
    save_docs(docs, p)
    assert np.array_equal(load_docs(p).weights.view(np.int64), w.view(np.int64))


def _load(tmp_path, data):
    p = tmp_path / "w.adoc"
    p.write_bytes(data)
    return load_docs(p)


# Two documents, the second starting below the first's last term.
_GOOD = dict(ids=["a", "b"], indptr=[0, 2, 3], terms=[1, 4, 0], weights=[0.5, 1.5, 2.0],
             vocab_size=5)


def test_hand_packed_container_reads(tmp_path):
    docs = _load(tmp_path, _packed(**_GOOD))
    assert (docs.ids, docs.vocab_size) == (["a", "b"], 5)
    assert [docs.indptr.tolist(), docs.terms.tolist(),
            docs.weights.tolist()] == [_GOOD[f] for f in ("indptr", "terms", "weights")]


@pytest.mark.parametrize("corrupt, needle", [
    (lambda b: b[:20], "truncated"),
    (lambda b: b[:-1], "expected"),
    (lambda b: b + b"\x00", "expected"),
    (lambda b: b"ADOX" + b[4:], "magic"),
    (lambda b: b[:4] + struct.pack("<I", 0) + b[8:], "version 0"),
    (lambda b: b[:4] + struct.pack("<I", 1) + b[8:], "version 1"),
    (lambda b: b[:4] + struct.pack("<I", 2) + b[8:], "version 2"),
], ids=["truncated-header", "truncated-payload", "trailing-bytes", "bad-magic", "bad-version",
        "version-1", "version-2"])
def test_weighted_container_corruptions(tmp_path, corrupt, needle):
    with pytest.raises(FormatError) as exc:
        _load(tmp_path, corrupt(_packed(**_GOOD)))
    assert needle in str(exc.value)


@pytest.mark.parametrize("field, values, needle", [
    ("weights", [0.5, np.nan, 2.0], "'a': invalid weight"),
    ("weights", [0.5, 1.5, np.inf], "'b': invalid weight"),
    ("weights", [-0.5, 1.5, 2.0], "'a': invalid weight"),
    ("terms", [1, 4, -1], "'b': terms must be non-negative, strictly ascending"),
    ("terms", [4, 4, 0], "'a': terms must be non-negative, strictly ascending"),
    ("terms", [4, 1, 0], "'a': terms must be non-negative, strictly ascending"),
    ("terms", [1, 5, 0], "'a': terms must be non-negative, strictly ascending and below "
                         "the vocabulary size 5"),
    ("vocab_size", 4, "'a': terms must be non-negative, strictly ascending and below "
                      "the vocabulary size 4"),
    ("vocab_size", 0, "vocabulary size must be at least 1, got 0"),
], ids=["nan-weight", "inf-weight", "negative-weight", "negative-term", "repeated-term",
        "descending-terms", "term-at-vocab-size", "vocab-size-below-a-term", "zero-vocab-size"])
def test_weighted_container_bad_values(tmp_path, field, values, needle):
    with pytest.raises(FormatError) as exc:
        _load(tmp_path, _packed(**{**_GOOD, field: values}))
    assert needle in str(exc.value)


@pytest.mark.parametrize("change, needle", [
    (dict(indptr=[1, 2, 3]), "offsets"),
    (dict(ids=["a", "b", "c"], indptr=[0, 3, 2, 3]), "offsets"),
    (dict(indptr=[0, 1, 2]), "offsets"),
    (dict(ids=["a", "b", "c"]), "expected 2 newline-ended"),
    (dict(ids=["a", ""]), "empty document id"),
], ids=["offsets-start-above-0", "offsets-decrease", "offsets-end-short", "id-count",
        "empty-id"])
def test_weighted_container_bad_layout(tmp_path, change, needle):
    with pytest.raises(FormatError) as exc:
        _load(tmp_path, _packed(**{**_GOOD, **change}))
    assert needle in str(exc.value)


def test_save_docs_refuses_what_it_cannot_store(tmp_path):
    p = tmp_path / "w.adoc"
    for ids in (["a", ""], ["a", "b\nc"]):
        with pytest.raises(ValidationError):
            save_docs(batch([(i, [(0, 1.0)]) for i in ids], 1), p)
    with pytest.raises(ValidationError, match="exceeds 32-bit terms"):
        save_docs(batch([("a", [(2**31, 1.0)])], 2**31 + 1), p)
    save_docs(batch([("a", [(2**31 - 1, 1.0)])], 2**31), p)
    assert load_docs(p).terms.tolist() == [2**31 - 1]
    p.unlink()
    with pytest.raises(ValidationError, match="outside vocabulary size 3"):
        save_docs(batch([("a", [(3, 1.0)])], 3), p)
    assert not p.exists()


# ---------------------------------------------------------------------------
# Bags of words and the tf-idf path against the per-document oracle


def test_bag_of_words_counts_and_layout():
    bag = bag_of_words(["a", "empty", "b"], [[3, 1, 3, 3], [], [0]], 4)
    assert bag.ids == ["a", "empty", "b"]
    assert bag.indptr.tolist() == [0, 2, 2, 3]
    assert bag.vocab_size == 4
    assert [entries(bag, i) for i in range(3)] == [[(1, 1.0), (3, 3.0)], [], [(0, 1.0)]]
    with pytest.raises(ValidationError) as exc:
        bag_of_words(["ok", "oov"], [[0], [1, 4]], 4)
    assert "'oov'" in str(exc.value)
    with pytest.raises(ValidationError):
        bag_of_words(["a"], [[0], [1]], 4)
    with pytest.raises(ValidationError, match="duplicate document id 'a'"):
        bag_of_words(["a", "b", "a"], [[0], [1], [2]], 4)


def test_doc_batch_slicing_and_concat():
    bag = bag_of_words(["a", "b", "c"], [[0, 0], [], [2, 1]], 3)
    assert entries(bag[2]) == entries(bag, 2)
    assert bag[1:].ids == ["b", "c"]
    assert bag[1:].indptr.tolist() == [0, 0, 2]
    joined = DocBatch.concat([bag[2], bag[:2]])
    assert joined.ids == ["c", "a", "b"]
    assert [entries(joined, i) for i in range(3)] == [
        entries(bag, 2), entries(bag, 0), entries(bag, 1)
    ]
    assert (bag[1:].vocab_size, joined.vocab_size) == (3, 3)


_token_docs = st.lists(st.lists(st.integers(0, 11), max_size=12), min_size=1, max_size=6)


@settings(max_examples=200, deadline=None)
@given(
    dev=_token_docs, pool=_token_docs,
    source=st.sampled_from(["dev", "pool", "dev+pool"]),
    extra_vocab=st.integers(0, 3),
)
# D = 20, df = 19: np.log(21 / 20) can differ from math.log(21 / 20) in the last
# bit (it does with numpy 2.4 on x86-64), so this case catches an np.log idf.
@example(dev=[[0, 0, 1]] * 19 + [[2]], pool=[[1]], source="dev", extra_vocab=0)
def test_tfidf_path_equals_per_document_oracle(dev, pool, source, extra_vocab):
    vocab_size = 12 + extra_vocab
    corpora = {"dev": dev, "pool": pool}
    bags = {w: _bag(docs, vocab_size, prefix=w) for w, docs in corpora.items()}
    stats_docs = {"dev": dev, "pool": pool, "dev+pool": dev + pool}[source]
    stats = compute_stats([bags[w] for w in source.split("+")])
    for which, docs in corpora.items():
        weighted = tfidf(bags[which], stats)
        assert [entries(weighted, i) for i in range(len(docs))] == ref_tfidf(
            docs, stats_docs, vocab_size
        )
