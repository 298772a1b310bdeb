import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ldaselect.docmodel import (
    DocBatch,
    TextVocab,
    bag_of_words,
    build_text_vocab,
    compute_stats,
    read_weighted,
    tfidf,
    tokenize_transcript,
    write_weighted,
)
from ldaselect.errors import FormatError, ValidationError

from batches import entries
from reference import ref_doc_freq, ref_tfidf, ref_top_tokens


def _bag(token_docs, vocab_size, prefix="d"):
    return bag_of_words(
        [f"{prefix}{i}" for i in range(len(token_docs))], token_docs, vocab_size
    )


def _stats(token_docs, vocab_size):
    return compute_stats([_bag(token_docs, vocab_size)], vocab_size)


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
    stats = compute_stats([], vocab_size=4)
    assert stats.doc_count == 0
    assert np.all(stats.doc_freq == 0)


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
    with pytest.raises(ValidationError) as exc:
        compute_stats([_bag([[0], [0, 3]], 4)], vocab_size=3)
    assert "'d1'" in str(exc.value)


# ---------------------------------------------------------------------------
# Weighting


def test_uniform_presence_idf_is_one():
    docs = [[0, 1], [1, 0], [0, 1, 1]]
    stats = _stats(docs, 2)
    doc = _weigh([1, 1, 0], stats)
    # every term is in every document: idf = log((1+D)/(1+D)) + 1 = 1
    by_term = {t: (c, w) for t, c, w in entries(doc)}
    assert by_term[0] == (1, pytest.approx(1 / 3))
    assert by_term[1] == (2, pytest.approx(2 / 3))


def test_empty_document():
    stats = _stats([[0]], 2)
    assert entries(_weigh([], stats)) == []


def test_hand_computed_weights_frozen():
    """doc [2,2,7] with D=2, df[2]=1, df[7]=2, against hand-derived constants."""
    stats = _stats([[2, 2, 7], [7]], vocab_size=8)
    doc = _weigh([2, 2, 7], stats)
    assert [(t, c) for t, c, _ in entries(doc)] == [(2, 2), (7, 1)]
    weights = {t: w for t, _, w in entries(doc)}
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
            doc = _weigh(tokens, stats)
            assert sum(c for _, c, _ in entries(doc)) == len(tokens)
            terms = [t for t, _, _ in entries(doc)]
            assert terms == sorted(set(tokens))
            assert all(w > 0 for _, _, w in entries(doc))


def test_repeating_document_scales_counts_not_weights():
    stats = _stats([[0, 1, 1], [2]], 3)
    single = _weigh([0, 1, 1], stats)
    tripled = _weigh([0, 1, 1] * 3, stats)
    assert [(t, c) for t, c, _ in entries(tripled)] == [
        (t, 3 * c) for t, c, _ in entries(single)
    ]
    for (_, _, w1), (_, _, w3) in zip(entries(single), entries(tripled)):
        assert w3 == pytest.approx(w1, rel=1e-12)


def test_weigh_errors():
    stats = compute_stats([], 3)
    with pytest.raises(ValidationError):
        _weigh([0], stats)  # zero documents
    stats = _stats([[0]], 3)
    with pytest.raises(ValidationError):
        _weigh([3], stats)


# ---------------------------------------------------------------------------
# Text normalization and vocabulary


def test_tokenize_normalization():
    vocab = TextVocab(ids={"hello": 0, "world": 1})
    assert tokenize_transcript("Hello, hello WORLD", vocab) == [0, 0, 1]
    assert tokenize_transcript("", vocab) == []
    assert tokenize_transcript("foo bar!! baz", vocab) == []


def test_vocab_tie_rule():
    vocab = build_text_vocab(["a a b", "b c"], cap=2)
    assert vocab.ids == {"a": 0, "b": 1}
    assert "c" not in vocab


def test_vocab_cap_larger_than_distinct():
    vocab = build_text_vocab(["x y", "z"], cap=10)
    assert set(vocab.ids) == {"x", "y", "z"}
    assert sorted(vocab.ids.values()) == [0, 1, 2]


def test_vocab_matches_brute_force():
    rng = np.random.default_rng(2)
    words = [f"w{i}" for i in range(30)]
    for trial in range(8):
        texts = [
            " ".join(rng.choice(words, size=rng.integers(1, 40)))
            for _ in range(int(rng.integers(1, 10)))
        ]
        cap = int(rng.integers(1, 12))
        vocab = build_text_vocab(texts, cap)
        expected = ref_top_tokens(texts, cap)
        assert [t for t, _ in sorted(vocab.ids.items(), key=lambda kv: kv[1])] == expected


def test_vocab_cap_validation():
    with pytest.raises(ValidationError):
        build_text_vocab(["a"], cap=0)


# ---------------------------------------------------------------------------
# Weighted-corpus file format


def test_weighted_round_trip(tmp_path):
    stats = _stats([[0, 1, 1], [2, 0]], 3)
    docs = tfidf(bag_of_words(["u1", "empty", "u2"], [[0, 1, 1], [], [2]], 3), stats)
    p = tmp_path / "w.tsv"
    write_weighted(docs, p)
    back = read_weighted(p)
    assert back.ids == ["u1", "empty", "u2"]
    for i in range(len(docs)):
        orig, rt = entries(docs, i), entries(back, i)
        assert [(t, c) for t, c, _ in rt] == [(t, c) for t, c, _ in orig]
        for (_, _, w1), (_, _, w2) in zip(orig, rt):
            assert w2 == pytest.approx(w1, rel=1e-8)


def test_weighted_malformed_lines(tmp_path):
    p = tmp_path / "w.tsv"
    p.write_text("u\t0:1\n", encoding="utf-8")
    with pytest.raises(FormatError):
        read_weighted(p)
    p.write_text("u\t3:1:0.5,2:1:0.5\n", encoding="utf-8")
    with pytest.raises(FormatError) as exc:
        read_weighted(p)
    assert "ascending" in str(exc.value)
    p.write_text("u\t0:0:0.5\n", encoding="utf-8")
    with pytest.raises(FormatError):
        read_weighted(p)
    p.write_text("u\t0:1:nan\n", encoding="utf-8")
    with pytest.raises(FormatError):
        read_weighted(p)
    # Token bags use this format too: a second tab field, a negative term and
    # a non-integer term are malformed there as well.
    for body in ("u\t0:1:1\textra\n", "u\t-1:1:1\n", "u\tx:1:1\n"):
        p.write_text(body, encoding="utf-8")
        with pytest.raises(FormatError):
            read_weighted(p)


# ---------------------------------------------------------------------------
# Bags of words and the tf-idf path against the per-document oracle


def test_bag_of_words_counts_and_layout():
    bag = bag_of_words(["a", "empty", "b"], [[3, 1, 3, 3], [], [0]], 4)
    assert bag.ids == ["a", "empty", "b"]
    assert bag.indptr.tolist() == [0, 2, 2, 3]
    assert [entries(bag, i) for i in range(3)] == [
        [(1, 1, 1.0), (3, 3, 3.0)], [], [(0, 1, 1.0)],
    ]
    with pytest.raises(ValidationError) as exc:
        bag_of_words(["ok", "oov"], [[0], [1, 4]], 4)
    assert "'oov'" in str(exc.value)
    with pytest.raises(ValidationError):
        bag_of_words(["a"], [[0], [1]], 4)


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
    stats = compute_stats([bags[w] for w in source.split("+")], vocab_size)
    for which, docs in corpora.items():
        weighted = tfidf(bags[which], stats)
        assert [entries(weighted, i) for i in range(len(docs))] == ref_tfidf(
            docs, stats_docs, vocab_size
        )
