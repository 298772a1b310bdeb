import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldaselect.corpus import (
    Manifest,
    Utterance,
    feature_blocks,
    listed_files,
    parse_manifest,
    read_file,
    read_features,
    read_manifest,
    sample_frames,
    transcript_text,
    write_features,
    write_manifest,
)
from ldaselect import corpus as corpus_module
from ldaselect.errors import FormatError, ValidationError

from synth import SynthSpec, generate_synthetic_corpus


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
    # infinite fps would make every derived duration 0. A frame count past
    # float range derives an infinite duration.
    for text, line in [
        ("a\tf.aldf\t5\t2\tnan\tx\n", 1),
        ("a\tf.aldf\t5\t2\tinf\tx\n", 1),
        ("a\tf.aldf\t5\t2\t0.05\tx\n# fps=1e999\nb\tg.aldf\t5\t2\t\tx\n", 2),
        (f"a\tf.aldf\t{10**400}\t2\t\tx\n", 1),
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


# Text fields drawn from the separators, a comment mark, blanks and a few
# other characters, so a draw can break each rule of a manifest line.
_FIELD = st.text(st.sampled_from("a#é \t\n\r\x85\u2028"), max_size=3)


def _line_ok(u: Utterance) -> bool:
    """Whether a manifest line can hold ``u``, judged on its own fields."""
    strings = [u.id, u.feature_path, u.domain_tag, u.transcript_path or ""]
    line = "\t".join([u.id, u.feature_path])
    return (bool(u.id and u.feature_path and u.domain_tag)
            and not any(c in s for s in strings for c in "\t\n\r")
            and not line.lstrip().startswith("#")
            and u.num_frames >= 0 and u.frame_dim >= 1 and 0 <= u.duration_s < float("inf"))


@settings(max_examples=400, deadline=None)
@given(
    utts=st.lists(st.builds(
        Utterance, id=_FIELD, feature_path=_FIELD, num_frames=st.integers(-1, 9),
        frame_dim=st.integers(0, 9),
        duration_s=st.floats(-1.0, 1e9) | st.sampled_from([float("nan"), float("inf")]),
        domain_tag=_FIELD, transcript_path=st.none() | _FIELD,
    ), max_size=3),
    fps=st.floats(1e-3, 1e6) | st.sampled_from([0.0, -1.0, float("nan"), float("inf")]),
)
def test_write_manifest_writes_what_read_manifest_reads_back_or_nothing(
    tmp_path_factory, utts, fps
):
    """A manifest is either refused before a file exists, or read back with
    its fps, ids, paths, frame counts, widths, tags and transcripts, and its
    durations to nine digits; it is refused exactly when some utterance
    breaks a rule of a line, or repeats an id, or the fps is not finite and
    positive."""
    path = tmp_path_factory.mktemp("manifest") / "m.tsv"
    ids = [u.id for u in utts]
    ok = all(map(_line_ok, utts)) and len(set(ids)) == len(ids) and 0 < fps < float("inf")
    try:
        write_manifest(Manifest(utts, fps=fps), path)
    except ValidationError:
        assert not ok
        assert not path.exists()
        return
    assert ok
    back = read_manifest(path)
    assert back.fps == float(f"{fps:.9g}")
    fields = lambda u: (u.id, u.feature_path, u.num_frames, u.frame_dim, u.domain_tag,
                        u.transcript_path or None)
    assert list(map(fields, back)) == list(map(fields, utts))
    assert [u.duration_s for u in back] == [float(f"{u.duration_s:.9g}") for u in utts]


@pytest.mark.parametrize("field, value, message", [
    ("id", "a\tb", "a tab or line break in a text field"),
    ("feature_path", "f\n.aldf", "a tab or line break in a text field"),
    ("transcript_path", "t\r.txt", "a tab or line break in a text field"),
    ("feature_path", "", "empty feature path"),
    ("domain_tag", "", "empty domain tag"),
    ("id", " #c", "it would read back as a comment"),
    ("num_frames", -1, "num_frames must be >= 0"),
    ("frame_dim", 0, "frame_dim must be >= 1"),
    ("num_frames", 5.0, "num_frames must be an integer, got 5.0"),
    ("frame_dim", 2.0, "frame_dim must be an integer, got 2.0"),
    ("num_frames", True, "num_frames must be an integer, got True"),
    ("duration_s", -1.0, "duration_s must be finite and >= 0, got -1.0"),
    ("duration_s", float("nan"), "duration_s must be finite and >= 0, got nan"),
    ("id", "\udcff", "a text field is not UTF-8"),
    ("id", "ok", "repeated id"),
])
def test_write_manifest_names_the_utterance_it_refuses(tmp_path, field, value, message):
    utts = [Utterance("ok", "f.aldf", 5, 2, 0.05, "x"), Utterance("u", "g.aldf", 5, 2, 0.05, "x")]
    setattr(utts[1], field, value)
    path = tmp_path / "m.tsv"
    with pytest.raises(ValidationError, match=re.escape(f"utterance {utts[1].id!r}: {message}")):
        write_manifest(Manifest(utts), path)
    assert not path.exists()


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


# The files a scanned manifest lists, by their path below the manifest's
# directory ``<root>/m``: one beside it, two below and one above.
_LISTED = (("f0",), ("d", "f1"), ("d", "e", "f2"), ("..", "f3"))


@st.composite
def _spelling(draw, parts: tuple[str, ...]) -> str:
    """The path ``parts`` spelled with ``.`` components and ``..`` detours (up
    and back into the directory just entered) put in, and separators doubled."""
    out = []
    for i, part in enumerate(parts):
        out += ["."] * draw(st.integers(0, 1))
        if i and parts[i - 1] != ".." and draw(st.booleans()):
            out += ["..", parts[i - 1]]
        out.append(part)
    return out[0] + "".join(draw(st.sampled_from(["/", "//"])) + p for p in out[1:])


@st.composite
def _listed_path(draw, root: Path) -> str:
    """A path to one of the ``_LISTED`` files: relative to ``<root>/m``, or
    absolute, rooted at ``/`` or ``//``."""
    parts = draw(st.sampled_from(_LISTED))
    if draw(st.booleans()):
        return draw(_spelling(parts))
    absolute = (root / "m").joinpath(*parts).resolve().parts[1:]
    return draw(st.sampled_from(["/", "//"])) + draw(_spelling(absolute))


@st.composite
def _scanned_manifest(draw, root: Path) -> bytes:
    """Manifest bytes that :func:`parse_manifest` accepts, listing ``_LISTED``
    files under ids in no order: 6- and 7-field lines, empty transcript and
    duration fields, comments, ``# fps=`` headers, blank lines and LF, CRLF
    and CR line ends."""
    ids = draw(st.lists(st.text("abxyz09_", min_size=1, max_size=3), unique=True, max_size=8))
    lines = []
    for utt_id in ids:
        lines += draw(st.lists(st.sampled_from(["", "  ", "# note", "#", "# fps=50"]), max_size=2))
        fields = [utt_id, draw(_listed_path(root)), "3", "2",
                  draw(st.sampled_from(["", "0.5"])), "dom"]
        transcript = draw(st.one_of(st.none(), st.just(""), _listed_path(root)))
        if transcript is not None:
            fields.append(transcript)
        lines.append("\t".join(fields))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    return "".join(line + end for line, end in zip(lines, ends)).encode()


@pytest.mark.parametrize("named", ["absolute", "relative"])
def test_the_scan_stats_the_files_the_parsed_records_open(named, tmp_path, monkeypatch):
    """For a manifest that :func:`parse_manifest` accepts, :func:`listed_files`
    lists, in id order, the very files (by ``os.stat`` identity) that the
    records' ``feature_file`` and ``transcript_file`` open, however the paths
    are spelled: ``..``, ``./``, ``//``, absolute, or no transcript."""
    root = tmp_path / "root"
    for parts in _LISTED:
        path = (root / "m").joinpath(*parts)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"")
    monkeypatch.chdir(root)
    manifest = root / "m" / "m.tsv" if named == "absolute" else Path("m") / "m.tsv"

    def identity(p):
        if p is None:
            return None
        st = os.stat(p)
        return st.st_dev, st.st_ino

    @settings(max_examples=150, deadline=None)
    @given(data=_scanned_manifest(root))
    def check(data):
        records = sorted(parse_manifest(data, manifest), key=lambda u: u.id)
        for transcripts in (False, True):
            opened = [u.transcript_file if transcripts else u.feature_file for u in records]
            scanned = listed_files(data, manifest, transcripts)
            assert list(map(identity, scanned)) == list(map(identity, opened))

    check()


# ---------------------------------------------------------------------------
# Feature files


def _read(path, frames, dim):
    """``read_features`` of the feature file ``path``, listed as holding
    ``frames`` x ``dim`` values."""
    return read_features(Utterance("u", str(path), frames, dim, 0.0, "d"))


def test_read_file_reads_regular_files_and_refuses_the_rest(tmp_path, deadline):
    """Regular files read whole; a missing path and a directory raise what
    ``open`` raises, and a FIFO raises at once, unread."""
    for data in (b"", b"x", bytes(range(256)) * 40):
        (tmp_path / "f").write_bytes(data)
        assert read_file(tmp_path / "f") == data
    for path in (tmp_path / "missing", tmp_path):
        with pytest.raises(OSError) as want:
            open(path, "rb")
        for read in (read_file, lambda p: _read(p, 0, 1)):
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
    back = _read(p, 1, 1)
    assert back.shape == (1, 1)
    assert back[0, 0] == 0.0


def test_feature_round_trip_random(tmp_path):
    rng = np.random.default_rng(42)
    for i in range(20):
        mat = rng.standard_normal((100, 13)).astype(np.float32)
        p = tmp_path / f"r{i}.aldf"
        write_features(mat, p)
        assert np.array_equal(_read(p, 100, 13), mat)


def test_read_features_zero_frames(tmp_path):
    p = tmp_path / "z.aldf"
    write_features(np.zeros((0, 13)), p)
    assert _read(p, 0, 13).shape == (0, 13)


def test_feature_truncated_by_one_byte(tmp_path):
    p = tmp_path / "t.aldf"
    write_features(np.ones((4, 3)), p)
    p.write_bytes(p.read_bytes()[:-1])
    with pytest.raises(FormatError) as exc:
        _read(p, 4, 3)
    assert "truncated" in str(exc.value)


def test_feature_trailing_bytes(tmp_path):
    p = tmp_path / "t.aldf"
    write_features(np.ones((2, 2)), p)
    p.write_bytes(p.read_bytes() + b"\x00")
    with pytest.raises(FormatError) as exc:
        _read(p, 2, 2)
    assert "trailing" in str(exc.value)


def test_feature_bad_magic_and_version(tmp_path):
    p = tmp_path / "t.aldf"
    write_features(np.ones((2, 2)), p)
    data = bytearray(p.read_bytes())
    data[0:4] = b"XXXX"
    p.write_bytes(bytes(data))
    with pytest.raises(FormatError) as exc:
        _read(p, 2, 2)
    assert "magic" in str(exc.value)
    data[0:4] = b"ALDF"
    data[4] = 9
    p.write_bytes(bytes(data))
    with pytest.raises(FormatError) as exc:
        _read(p, 2, 2)
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
        _read(p, 1, 1)


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
    assert _read(p, 1, 2).tolist() == [[top, -top]]


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
    files = {u.feature_file: u.id for m in manifests for u in m}
    real_read = corpus_module.read_file
    read = []

    def counting_read(path):
        read.append(files[path])
        return real_read(path)

    monkeypatch.setattr(corpus_module, "read_file", counting_read)
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


def _counting_reads(monkeypatch):
    """The paths ``corpus.read_file`` opens from now on, in order."""
    real_read = corpus_module.read_file
    read = []

    def counting_read(path):
        read.append(path)
        return real_read(path)

    monkeypatch.setattr(corpus_module, "read_file", counting_read)
    return read


@pytest.mark.parametrize("block_frames", [4, None])
def test_feature_blocks_equal_the_files_in_order(tmp_path, monkeypatch, block_frames):
    """At 4 frames a block, utterances of 0 and 1 frames, one that straddles a
    block edge and one longer than a block come out as the files hold them,
    in fixed-size blocks but the last, each file read once; at the default
    budget the corpus is one block. ``read_features`` gives each file."""
    lengths = [0, 1, 5, 3, 12, 0, 4]
    (pool,) = _frames_corpus(tmp_path, [("pool", lengths)])
    files = [_raw_frames(u.feature_file, 3) for u in pool]
    if block_frames:
        monkeypatch.setattr(corpus_module, "_BLOCK_VALUES", block_frames * 3 + 2)
    read = _counting_reads(monkeypatch)
    blocks = [(start, block.copy()) for start, block in feature_blocks(pool.utterances, 3)]
    assert read == [u.feature_file for u in pool]
    size = block_frames or sum(lengths)
    assert [start for start, _ in blocks] == list(range(0, sum(lengths), size))
    assert all(len(block) == size for _, block in blocks[:-1])
    assert all(block.dtype == np.float32 and block.shape[1] == 3 for _, block in blocks)
    assert np.array_equal(np.concatenate([b for _, b in blocks]), np.concatenate(files))
    for utt, frames in zip(pool, files):
        assert np.array_equal(read_features(utt), frames)
        assert read_features(utt).dtype == np.float32


def test_feature_blocks_name_the_file_of_the_first_non_finite_frame(tmp_path, monkeypatch):
    """A NaN or Inf fails the block that holds it, naming its file, also when
    the file straddles a block edge or another file of the block is bad too;
    an utterance whose width differs from the block's is refused."""
    (pool,) = _frames_corpus(tmp_path, [("pool", [3, 6, 2])])
    monkeypatch.setattr(corpus_module, "_BLOCK_VALUES", 4 * 3)
    a, b, c = pool.utterances
    frames = read_features(b)
    frames[4, 1] = np.nan  # row 7 of the stream: the second block's last
    _write_raw(frames, b.feature_file)
    blocks = feature_blocks(pool.utterances, 3)
    assert next(blocks)[0] == 0
    with pytest.raises(FormatError, match=f"^{b.feature_file}: feature payload contains NaN"):
        next(blocks)
    frames = read_features(c)
    frames[0, 0] = np.inf
    _write_raw(frames, c.feature_file)
    monkeypatch.setattr(corpus_module, "_BLOCK_VALUES", 1 << 16)
    with pytest.raises(FormatError, match=f"^{b.feature_file}: feature payload contains NaN"):
        list(feature_blocks(pool.utterances, 3))
    with pytest.raises(FormatError, match=f"^{c.feature_file}: feature payload contains NaN"):
        list(feature_blocks([a, c], 3))
    with pytest.raises(ValidationError, match="frame_dim mismatch: 'pool0' has 3, expected 2"):
        list(feature_blocks([a], 2))


def _raw_frames(path, dim):
    """The float32 payload of a feature file, parsed without the package."""
    return np.frombuffer(Path(path).read_bytes()[20:], "<f4").reshape(-1, dim)


def _write_raw(frames, path):
    """Write float32 ``frames`` as a feature file, NaN and Inf included."""
    data = bytearray(Path(path).read_bytes()[:20])
    Path(path).write_bytes(bytes(data) + frames.astype("<f4").tobytes())


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
# The toy-corpus fixture, read back through the library's readers


def test_synthetic_shapes(tmp_path):
    generate_synthetic_corpus(SynthSpec(1, 3, frames_range=(10, 10)), seed=0, out_dir=tmp_path)
    m = read_manifest(tmp_path / "pool.tsv")
    assert len(m) == 3
    for utt in m:
        assert utt.num_frames == 10
        assert read_features(utt).shape == (10, 3)
    assert not (tmp_path / "transcripts").exists()


def test_synthetic_determinism(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    spec = SynthSpec(2, 4, with_transcripts=True)
    generate_synthetic_corpus(spec, seed=5, out_dir=d1)
    generate_synthetic_corpus(spec, seed=5, out_dir=d2)
    assert (d1 / "pool.tsv").read_bytes() == (d2 / "pool.tsv").read_bytes()
    for utt in read_manifest(d1 / "pool.tsv"):
        for rel in (utt.feature_path, utt.transcript_path):
            assert (d1 / rel).read_bytes() == (d2 / rel).read_bytes()


def test_synthetic_sample_means_match_generator(tmp_path):
    """Domain i is centred ``separation * (1 + i // 3)`` along axis
    ``i % 3``; its two components sit ``separation / 10`` either side of the
    centre along the next axis, so every domain's mean is its centre, and the
    spread along that axis grows by the offset's square."""
    spec = SynthSpec(3, 100, frames_range=(30, 50), separation=10.0)
    generate_synthetic_corpus(spec, seed=2, out_dir=tmp_path)
    m = read_manifest(tmp_path / "pool.tsv")
    for i in range(3):
        frames = np.concatenate([read_features(u) for u in m if u.domain_tag == f"domain{i}"])
        centre = np.zeros(3)
        centre[i] = 10.0
        assert np.all(np.abs(frames.mean(axis=0) - centre) < 0.5)
        variances = np.ones(3)
        variances[(i + 1) % 3] += 1.0
        assert frames.var(axis=0) == pytest.approx(variances, abs=0.2)


def test_synthetic_transcripts_and_durations(tmp_path):
    spec = SynthSpec(2, 3, with_transcripts=True, role="dev", id_prefix="dev_")
    generate_synthetic_corpus(spec, seed=1, out_dir=tmp_path)
    m = read_manifest(tmp_path / "dev.tsv", role="dev")
    assert m.fps == 100.0
    for utt in m:
        assert utt.id.startswith("dev_")
        assert utt.duration_s == pytest.approx(utt.num_frames / 100.0)
        words = transcript_text(utt, read_file(utt.transcript_file)).split()
        assert 8 <= len(words) <= 20
        prefix = "d0" if utt.domain_tag == "domain0" else "d1"
        assert all(w.startswith(prefix) for w in words)


@pytest.mark.parametrize("first", [True, False])
def test_a_zero_frame_utterance_of_another_width_is_sampled_as_it_is_blocked(tmp_path, first):
    """An utterance with no frames takes no part in the frame_dim rule, first
    or last: ``sample_frames`` takes the width from the first utterance with
    frames, as ``feature_blocks`` skips the empty one, so the codebook
    trains on a corpus that quantizes."""
    (pool,) = _frames_corpus(tmp_path, [("pool", [20, 20])], dim=13)
    write_features(np.empty((0, 1)), tmp_path / "empty.aldf")
    empty = Utterance("empty", str(tmp_path / "empty.aldf"), 0, 1, 0.0, "x")
    pool.utterances.insert(0 if first else len(pool), empty)
    blocked = np.concatenate([block.copy() for _, block in feature_blocks(pool, 13)])
    assert np.array_equal(sample_frames([pool], 100, 0), blocked)


def test_transcript_text_missing(tmp_path):
    """A listed transcript whose bytes are missing is an error; an utterance
    that lists none has the empty transcript."""
    utt = Utterance("u", "f.aldf", 1, 1, 0.01, "x", str(tmp_path / "gone.txt"))
    with pytest.raises(FormatError, match="missing transcript file for utterance 'u'"):
        transcript_text(utt, None)
    assert transcript_text(Utterance("u", "f.aldf", 1, 1, 0.01, "x"), None) == ""
