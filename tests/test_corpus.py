import math
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldaselect.corpus import (
    Manifest,
    SynthSpec,
    Utterance,
    generate_synthetic_corpus,
    parse_manifest,
    read_feature_file,
    read_file,
    read_features,
    read_manifest,
    read_transcript,
    sample_frames,
    write_features,
    write_manifest,
)
from ldaselect import corpus as corpus_module
from ldaselect.errors import FormatError, ValidationError


def _write(path, text):
    path.write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# Manifest parsing


def test_read_manifest_empty_file(tmp_path):
    p = tmp_path / "m.tsv"
    _write(p, "# fps=100\n\n")
    m = read_manifest(p)
    assert len(m) == 0
    assert m.fps == 100.0


def test_read_manifest_preserves_order(tmp_path):
    p = tmp_path / "m.tsv"
    _write(
        p,
        "b\tfeat/b.aldf\t10\t3\t0.1\tnews\n"
        "a\tfeat/a.aldf\t20\t3\t0.2\tcalls\ta.txt\n",
    )
    m = read_manifest(p, role="dev")
    assert m.ids() == ["b", "a"]
    assert m.role == "dev"
    assert m.utterances[0].transcript_path is None
    assert m.utterances[1].transcript_path == "a.txt"
    assert m.utterances[1].duration_s == pytest.approx(0.2)


def test_read_manifest_duplicate_id_names_both_lines(tmp_path):
    p = tmp_path / "m.tsv"
    lines = ["# fps=100"]
    for i in range(6):
        uid = "dup" if i in (1, 5) else f"u{i}"
        lines.append(f"{uid}\tf{i}.aldf\t5\t2\t0.05\tx")
    _write(p, "\n".join(lines) + "\n")
    with pytest.raises(FormatError) as exc:
        read_manifest(p)
    assert "dup" in str(exc.value)
    assert "3" in str(exc.value) and "7" in str(exc.value)


def test_read_manifest_field_count_error(tmp_path):
    p = tmp_path / "m.tsv"
    _write(p, "a\tf.aldf\t5\t2\n")
    with pytest.raises(FormatError) as exc:
        read_manifest(p)
    assert ":1" in str(exc.value)


def test_read_manifest_empty_duration_uses_fps(tmp_path):
    p = tmp_path / "m.tsv"
    _write(p, "# fps=50\na\tf.aldf\t25\t2\t\tx\n")
    m = read_manifest(p)
    assert m.utterances[0].duration_s == pytest.approx(0.5)


@pytest.mark.parametrize(
    "header, fps",
    [
        ("# fps=50", 50.0), ("# fps = 50", 50.0), ("#fps: 50", 50.0), ("  #  fps :50  ", 50.0),
        ("# FPS=50", 50.0), ("# fps is 50", 100.0), ("# fpsx=50", 100.0),
    ],
)
def test_fps_header_spellings(header, fps, tmp_path):
    """Any ``# fps`` comment followed by ``=`` or ``:`` sets the frame rate;
    other comments leave the default."""
    p = tmp_path / "m.tsv"
    _write(p, f"{header}\na\tf.aldf\t100\t2\t\tx\n")
    m = read_manifest(p)
    assert m.fps == fps
    assert m.utterances[0].duration_s == pytest.approx(100 / fps)


@pytest.mark.parametrize(
    "value, message",
    [
        ("abc", "is not a number: 'abc'"), ("", "is not a number: ''"),
        ("inf", "must be finite"), ("nan", "must be finite"),
        ("0", "must be positive"), ("-5", "must be positive"),
    ],
)
def test_bad_fps_header_values_are_rejected(value, message, tmp_path):
    p = tmp_path / "m.tsv"
    _write(p, f"a\tf.aldf\t5\t2\t0.05\tx\n# fps: {value}\n")
    with pytest.raises(FormatError, match=f"m.tsv:2: fps {message}"):
        read_manifest(p)


def test_read_manifest_bad_numbers(tmp_path):
    p = tmp_path / "m.tsv"
    _write(p, "a\tf.aldf\tfive\t2\t0.1\tx\n")
    with pytest.raises(FormatError):
        read_manifest(p)
    _write(p, "a\tf.aldf\t5\t0\t0.1\tx\n")
    with pytest.raises(FormatError):
        read_manifest(p)
    _write(p, "a\tf.aldf\t5\t2\t-1\tx\n")
    with pytest.raises(FormatError):
        read_manifest(p)
    # A NaN or infinite duration would make total_hours() NaN or infinite; an
    # infinite fps would make every derived duration 0.
    for text, line in [
        ("a\tf.aldf\t5\t2\tnan\tx\n", 1),
        ("a\tf.aldf\t5\t2\tinf\tx\n", 1),
        ("a\tf.aldf\t5\t2\t0.05\tx\n# fps=1e999\nb\tg.aldf\t5\t2\t\tx\n", 2),
    ]:
        _write(p, text)
        with pytest.raises(FormatError, match=f"m.tsv:{line}: .* must be finite"):
            read_manifest(p)


def test_read_manifest_bad_role():
    with pytest.raises(ValidationError):
        read_manifest("whatever.tsv", role="training")


def test_manifest_round_trip_is_stable(tmp_path):
    utts = [
        Utterance("u0", "f0.aldf", 12, 4, 0.12, "news"),
        Utterance("u1", "f1.aldf", 7, 4, 0.07, "calls", "t1.txt"),
    ]
    m = Manifest(utts, role="pool", fps=100.0)
    p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
    write_manifest(m, p1)
    back = read_manifest(p1)
    assert back.utterances == utts
    assert back.fps == 100.0
    write_manifest(back, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_manifest_paths_resolve_once_against_its_absolute_directory(tmp_path, monkeypatch):
    """Relative paths resolve against the manifest's directory made absolute,
    even when the manifest is named relative to the working directory;
    absolute paths stay as written. The paths as written are kept."""
    (tmp_path / "corpus").mkdir()
    _write(
        tmp_path / "corpus" / "m.tsv",
        f"a\tfeat/a.aldf\t1\t1\t0.01\tx\t../t/a.txt\n"
        f"b\t{tmp_path}/b.aldf\t1\t1\t0.01\tx\n",
    )
    monkeypatch.chdir(tmp_path)
    a, b = read_manifest("corpus/m.tsv")
    assert (a.feature_path, a.transcript_path) == ("feat/a.aldf", "../t/a.txt")
    assert a.feature_file == str(tmp_path / "corpus" / "feat" / "a.aldf")
    assert a.transcript_file == str(tmp_path / "corpus" / ".." / "t" / "a.txt")
    assert b.feature_file == b.feature_path == str(tmp_path / "b.aldf")
    assert b.transcript_file is None
    # Built in code, an utterance opens its paths as written; equality and
    # the written manifest ignore where the files resolved to.
    assert a == Utterance("a", "feat/a.aldf", 1, 1, 0.01, "x", "../t/a.txt")
    assert Utterance("c", "c.aldf", 1, 1, 0.01, "x", "c.txt").transcript_file == "c.txt"


_MANIFEST_BASES = [
    Path("/srv/corpus/m.tsv"), Path("/m.tsv"), Path("//net/corpus/m.tsv"),
    Path("rel/dir/m.tsv"), Path("m.tsv"),
]
# Paths of components that pathlib drops, keeps or treats as roots.
_PATHS = st.lists(
    st.sampled_from(["a", "bb", ".", "..", ""]), min_size=1, max_size=6
).map("/".join).filter(bool)


@settings(max_examples=300, deadline=None)
@given(
    base=st.sampled_from(_MANIFEST_BASES),
    paths=st.lists(st.tuples(_PATHS, st.one_of(st.none(), _PATHS)), min_size=1, max_size=8),
)
def test_manifest_paths_resolve_as_one_pathlib_join_each(base, paths):
    """Whatever the directory prefixes the paths of one manifest share, each
    resolves to ``str(base / p)`` for the manifest's directory made absolute:
    absolute paths, ``..``, ``./``, ``//``, ``/x``, ``//x`` and paths ending
    in ``/``, ``.`` or ``..`` alike."""
    lines = [
        f"u{i}\t{feat}\t1\t1\t0.01\tx" + (f"\t{text}" if text else "")
        for i, (feat, text) in enumerate(paths)
    ]
    manifest = parse_manifest("\n".join(lines).encode(), base)
    parent = base.parent.absolute()
    for utt, (feat, text) in zip(manifest, paths):
        assert utt.feature_file == str(parent / feat)
        assert utt.transcript_file == (str(parent / text) if text else None)


# ---------------------------------------------------------------------------
# Feature files


def test_read_file_reads_regular_files_and_refuses_the_rest(tmp_path, deadline):
    """Regular files read whole; a missing path and a directory raise what
    ``open`` raises, and a FIFO raises at once, unread."""
    for data in (b"", b"x", bytes(range(256)) * 40):
        (tmp_path / "f").write_bytes(data)
        assert read_file(tmp_path / "f") == data
    for path in (tmp_path / "missing", tmp_path):
        with pytest.raises(OSError) as want:
            open(path, "rb")
        for read in (read_file, read_feature_file):
            with pytest.raises(type(want.value)) as got:
                read(path)
            assert str(got.value) == str(want.value)
    os.mkfifo(tmp_path / "fifo")
    with pytest.raises(OSError, match="not a regular file"):
        read_file(tmp_path / "fifo")


@pytest.mark.parametrize("stale", [-5, 3])
def test_read_file_reads_to_eof_when_fstat_is_stale(tmp_path, monkeypatch, stale):
    """A file that grew or shrank between ``fstat`` and the read is read to
    its end all the same."""
    data = bytes(range(200))
    (tmp_path / "f").write_bytes(data)
    real_fstat = os.fstat

    def stale_fstat(fd):
        st = tuple(real_fstat(fd))
        return os.stat_result(st[:6] + (st[6] + stale,) + st[7:])

    monkeypatch.setattr(corpus_module.os, "fstat", stale_fstat)
    assert read_file(tmp_path / "f") == data


def test_write_features_minimal_layout(tmp_path):
    p = tmp_path / "one.aldf"
    write_features([[0.0]], p)
    data = p.read_bytes()
    # 4-byte magic, u32 version, u64 frames, u32 dim, then one f32 value
    assert data[:4] == b"ALDF"
    assert int.from_bytes(data[4:8], "little") == 1
    assert int.from_bytes(data[8:16], "little") == 1
    assert int.from_bytes(data[16:20], "little") == 1
    assert len(data) == 24
    back = read_feature_file(p)
    assert back.shape == (1, 1)
    assert back[0, 0] == 0.0


def test_feature_round_trip_random(tmp_path):
    rng = np.random.default_rng(42)
    for i in range(20):
        mat = rng.standard_normal((100, 13)).astype(np.float32)
        p = tmp_path / f"r{i}.aldf"
        write_features(mat, p)
        assert np.array_equal(read_feature_file(p), mat)


def test_read_features_zero_frames(tmp_path):
    p = tmp_path / "z.aldf"
    write_features(np.zeros((0, 13)), p)
    assert read_feature_file(p).shape == (0, 13)


def test_feature_truncated_by_one_byte(tmp_path):
    p = tmp_path / "t.aldf"
    write_features(np.ones((4, 3)), p)
    p.write_bytes(p.read_bytes()[:-1])
    with pytest.raises(FormatError) as exc:
        read_feature_file(p)
    assert "truncated" in str(exc.value)


def test_feature_trailing_bytes(tmp_path):
    p = tmp_path / "t.aldf"
    write_features(np.ones((2, 2)), p)
    p.write_bytes(p.read_bytes() + b"\x00")
    with pytest.raises(FormatError) as exc:
        read_feature_file(p)
    assert "trailing" in str(exc.value)


def test_feature_bad_magic_and_version(tmp_path):
    p = tmp_path / "t.aldf"
    write_features(np.ones((2, 2)), p)
    data = bytearray(p.read_bytes())
    data[0:4] = b"XXXX"
    p.write_bytes(bytes(data))
    with pytest.raises(FormatError) as exc:
        read_feature_file(p)
    assert "magic" in str(exc.value)
    data[0:4] = b"ALDF"
    data[4] = 9
    p.write_bytes(bytes(data))
    with pytest.raises(FormatError) as exc:
        read_feature_file(p)
    assert "version" in str(exc.value)


def test_feature_non_finite_rejected(tmp_path):
    p = tmp_path / "t.aldf"
    with pytest.raises(ValidationError):
        write_features(np.array([[np.nan]]), p)
    write_features(np.ones((1, 1)), p)
    data = bytearray(p.read_bytes())
    data[20:24] = np.float32(np.inf).tobytes()
    p.write_bytes(bytes(data))
    with pytest.raises(FormatError):
        read_feature_file(p)


def test_write_features_refuses_values_beyond_float32(tmp_path):
    """A value whose float32 cast is not finite is refused before the file is
    opened, with no cast warning, instead of being written as Inf that the
    reader then rejects; float32's largest values still round-trip."""
    p = tmp_path / "f.aldf"
    for value in (1e39, -1e39, np.nan, np.inf):
        with pytest.raises(ValidationError):
            write_features(np.array([[0.0, value]]), p)
        assert not p.exists()
    top = float(np.finfo(np.float32).max)
    write_features(np.array([[top, -top]]), p)
    assert read_feature_file(p).tolist() == [[top, -top]]


def test_write_features_unwritable_path(tmp_path):
    with pytest.raises(OSError):
        write_features(np.ones((1, 1)), tmp_path / "no_such_dir" / "f.aldf")


def test_read_features_shape_cross_check(tmp_path):
    p = tmp_path / "f.aldf"
    write_features(np.ones((5, 2)), p)
    utt = Utterance("u", str(p), 6, 2, 0.06, "x")
    with pytest.raises(FormatError) as exc:
        read_features(utt)
    assert "does not match manifest" in str(exc.value)
    utt = Utterance("u", str(p), 5, 2, 0.05, "x")
    assert read_features(utt).shape == (5, 2)


def _frames_corpus(tmp_path, lengths_by_role, dim=3):
    """Manifests whose utterances hold random frames of the given lengths."""
    rng = np.random.default_rng(20)
    manifests = []
    for role, lengths in lengths_by_role:
        utts = []
        for i, n in enumerate(lengths):
            path = tmp_path / f"{role}{i}.aldf"
            write_features(rng.standard_normal((n, dim)), path)
            utts.append(Utterance(f"{role}{i}", str(path), n, dim, n / 100, "x"))
        manifests.append(Manifest(utts, role=role))
    return manifests


def test_sample_frames_equals_concatenate_then_subsample(tmp_path, monkeypatch):
    manifests = _frames_corpus(tmp_path, [("dev", [4, 0, 6]), ("pool", [5, 3, 0, 7])])
    full = np.concatenate([
        read_features(u) for m in manifests for u in m if u.num_frames
    ])
    assert full.shape[0] == 25
    owners = np.repeat(
        [u.id for m in manifests for u in m], [u.num_frames for m in manifests for u in m]
    )
    real_read = corpus_module.read_features
    read = []

    def counting_read(utt):
        read.append(utt.id)
        return real_read(utt)

    monkeypatch.setattr(corpus_module, "read_features", counting_read)
    for max_frames, seed in [(1, 0), (2, 3), (7, 1), (24, 5), (25, 0), (40, 2)]:
        keep = np.arange(25)
        if full.shape[0] > max_frames:
            keep = np.sort(
                np.random.default_rng(seed).choice(25, size=max_frames, replace=False)
            )
        read.clear()
        X = sample_frames(manifests, max_frames, seed)
        assert X.dtype == full.dtype
        assert X.flags.f_contiguous
        assert np.array_equal(X, full[keep])
        assert read == list(dict.fromkeys(owners[keep]))


def test_sample_frames_errors(tmp_path):
    (empty,) = _frames_corpus(tmp_path, [("pool", [0, 0])])
    with pytest.raises(ValidationError, match="no training frames"):
        sample_frames([empty], 10, 0)
    with pytest.raises(ValidationError, match="no training frames"):
        sample_frames([Manifest([])], 10, 0)
    dev, pool = _frames_corpus(tmp_path, [("dev", [2, 0]), ("pool", [3])])
    pool.utterances.append(Utterance("wide", str(tmp_path / "pool0.aldf"), 3, 4, 0.03, "x"))
    with pytest.raises(ValidationError, match="frame_dim mismatch: 'wide' has 4, expected 3"):
        sample_frames([dev, pool], 10, 0)


# ---------------------------------------------------------------------------
# Synthetic corpora


def _tiny_spec(n_utts=3, frames=(10, 10), dim=2):
    return SynthSpec(1, n_utts, frame_dim=dim, frames_range=frames, n_components=1)


def test_synthetic_shapes(tmp_path):
    m = generate_synthetic_corpus(_tiny_spec(), seed=0, out_dir=tmp_path)
    assert len(m) == 3
    for utt in m:
        assert utt.num_frames == 10
        assert read_features(utt).shape == (10, 2)
    assert (tmp_path / "pool.tsv").is_file()
    assert not (tmp_path / "transcripts").exists()


def test_synthetic_determinism(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    spec = SynthSpec(2, 4, with_transcripts=True)
    m1 = generate_synthetic_corpus(spec, seed=5, out_dir=d1)
    m2 = generate_synthetic_corpus(spec, seed=5, out_dir=d2)
    assert (d1 / "pool.tsv").read_bytes() == (d2 / "pool.tsv").read_bytes()
    for u1, u2 in zip(m1, m2):
        assert (d1 / u1.feature_path).read_bytes() == (d2 / u2.feature_path).read_bytes()
        if u1.transcript_path:
            assert (d1 / u1.transcript_path).read_bytes() == (
                d2 / u2.transcript_path
            ).read_bytes()


def test_synthetic_sample_means_match_generator(tmp_path):
    """Domain i is centred ``separation * (1 + i // frame_dim)`` along axis
    ``i % frame_dim``; its two components sit ``separation / 10`` either side
    of the centre along the next axis, so every domain's mean is its centre,
    and the spread along that axis grows by the offset's square."""
    spec = SynthSpec(3, 100, frame_dim=2, frames_range=(30, 50), separation=10.0)
    m = generate_synthetic_corpus(spec, seed=2, out_dir=tmp_path)
    centres = {"domain0": [10.0, 0.0], "domain1": [0.0, 10.0], "domain2": [20.0, 0.0]}
    for tag, centre in centres.items():
        frames = np.concatenate([read_features(u) for u in m if u.domain_tag == tag])
        assert np.all(np.abs(frames.mean(axis=0) - centre) < 0.5)
        offset_axis = (int(tag[-1]) + 1) % 2
        assert frames[:, offset_axis].var() == pytest.approx(1.0 + 1.0, abs=0.2)
        assert frames[:, 1 - offset_axis].var() == pytest.approx(1.0, abs=0.2)


def test_synthetic_transcripts_and_durations(tmp_path):
    spec = SynthSpec(2, 3, with_transcripts=True, fps=50.0)
    m = generate_synthetic_corpus(spec, seed=1, out_dir=tmp_path)
    for utt in m:
        assert utt.duration_s == pytest.approx(utt.num_frames / 50.0)
        text = read_transcript(utt)
        assert text.strip()
        prefix = "d0" if utt.domain_tag == "domain0" else "d1"
        assert all(w.startswith(prefix) for w in text.split())


# Every recipe field, each with values that cannot give a readable corpus.
BAD_RECIPE_FIELDS = {
    "n_domains": [0, -1],
    "utts_per_domain": [0],
    "frame_dim": [0],
    "n_components": [0],
    "frames_range": [(-1, 5), (6, 5)],
    "words_range": [(0, 5), (6, 5)],
    "words_per_domain": [0],
    "separation": [math.nan, math.inf, -math.inf],
    "fps": [0.0, -1.0, math.nan, math.inf, 1e-320],
    "role": ["train"],
}


def test_synthetic_validation_errors(tmp_path):
    """Each invalid recipe field is a ValidationError raised before the
    output directory is created, with or without transcripts."""
    out = tmp_path / "out"
    for name, values in BAD_RECIPE_FIELDS.items():
        for value in values:
            for with_transcripts in (False, True):
                spec = replace(_tiny_spec(), with_transcripts=with_transcripts, **{name: value})
                with pytest.raises(ValidationError):
                    generate_synthetic_corpus(spec, 0, out)
                assert not out.exists(), (name, value)


def test_read_transcript_missing(tmp_path):
    utt = Utterance("u", "f.aldf", 1, 1, 0.01, "x", str(tmp_path / "gone.txt"))
    with pytest.raises(FormatError):
        read_transcript(utt)
    assert read_transcript(Utterance("u", "f.aldf", 1, 1, 0.01, "x")) == ""
