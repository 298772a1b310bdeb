"""Corpus manifests and binary feature files.

A manifest is a UTF-8 text file, one utterance per line, with tab-separated
fields::

    id <TAB> feature_path <TAB> num_frames <TAB> frame_dim <TAB> duration_s
       <TAB> domain_tag [<TAB> transcript_path]

Lines starting with ``#`` are comments; an optional ``# fps=<float>`` header
records the frame rate used to derive durations when the duration field is
left empty.

Feature files are :mod:`container` files: magic ``ALDF``, format version
(u32), num_frames (u64) and frame_dim (u32), then num_frames x frame_dim
float32 values in row-major order.
"""

import errno
import io
import math
import os
import re
import stat
import struct
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import container
from .errors import FormatError, ValidationError, validate_positive

FEATURE_MAGIC = b"ALDF"
FEATURE_VERSION = 1
_FEATURE_HEADER = struct.Struct("<4sIQI")

ROLES = ("pool", "dev", "test")


@dataclass
class Utterance:
    """One selectable unit of speech data.

    ``feature_path`` and ``transcript_path`` are stored exactly as written in
    the manifest. ``feature_file`` and ``transcript_file`` are where the files
    are opened: :func:`parse_manifest` resolves relative paths once, against
    the manifest's directory made absolute. An utterance built in code opens
    its paths as written. They take no part in equality.
    """

    id: str
    feature_path: str
    num_frames: int
    frame_dim: int
    duration_s: float
    domain_tag: str
    transcript_path: str | None = None
    feature_file: str = field(default="", compare=False, repr=False)
    transcript_file: str | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not self.feature_file:
            self.feature_file = self.feature_path
        if self.transcript_file is None:
            self.transcript_file = self.transcript_path


@dataclass
class Manifest:
    """Ordered utterance list with a corpus role (pool, dev or test)."""

    utterances: list[Utterance] = field(default_factory=list)
    role: str = "pool"
    fps: float = 100.0

    def __len__(self) -> int:
        return len(self.utterances)

    def __iter__(self):
        return iter(self.utterances)

    def ids(self) -> list[str]:
        return [u.id for u in self.utterances]

    def by_id(self) -> dict[str, Utterance]:
        return {u.id: u for u in self.utterances}

    def total_hours(self) -> float:
        return sum(u.duration_s for u in self.utterances) / 3600.0


_FPS_RE = re.compile(r"#\s*fps\s*[=:]\s*(.*?)\s*$", re.IGNORECASE)


def read_manifest(path, role: str = "pool") -> Manifest:
    """Parse a manifest file, preserving line order.

    Duplicate ids and malformed lines are rejected with the offending line
    numbers. Feature files are checked when they are read.
    """
    path = Path(path)
    if role not in ROLES:
        raise ValidationError(f"manifest role must be one of {ROLES}, got '{role}'")
    return parse_manifest(read_file(path), path, role)


def parse_manifest(data: bytes, path, role: str = "pool") -> Manifest:
    """Parse the bytes ``data`` of the manifest file ``path`` (which names it in
    errors), as :func:`read_manifest` does: a caller that hashes the bytes it
    parsed keys exactly this manifest. Relative feature and transcript paths
    resolve here, once, against the manifest's directory made absolute."""
    path = Path(path)
    resolve = _resolver(path.parent.absolute())
    fps = 100.0
    utterances: list[Utterance] = []
    seen: dict[str, int] = {}
    for lineno, line in enumerate(_lines(data, path), start=1):
        if not line.strip():
            continue
        if _is_comment(line):
            if m := _FPS_RE.match(line.strip()):
                fps = _parse_float(m.group(1), path, lineno, "fps")
                if fps <= 0:
                    raise FormatError(f"{path}:{lineno}: fps must be positive")
            continue
        utt = _parse_manifest_line(line, path, lineno, fps)
        utt.feature_file = resolve(utt.feature_path)
        if utt.transcript_path:
            utt.transcript_file = resolve(utt.transcript_path)
        if utt.id in seen:
            raise FormatError(
                f"{path}: duplicate utterance id '{utt.id}' "
                f"(lines {seen[utt.id]} and {lineno})"
            )
        seen[utt.id] = lineno
        utterances.append(utt)
    return Manifest(utterances, role=role, fps=fps)


def listed_files(data: bytes, path, transcripts: bool = False) -> list[str | None]:
    """The feature (or transcript) file of each utterance line of ``data``,
    the bytes of the manifest file ``path``, in id order, from a scan that
    builds no record: each line's raw path field, a relative one joined to
    the manifest's directory made absolute with ``/``, an absolute one as
    written, and None for a line that lists no transcript. For a manifest
    that :func:`parse_manifest` accepts, each names the file that the
    record's ``feature_file`` (or ``transcript_file``) opens, except where
    pathlib drops part of the path (a trailing ``/``, say)."""
    base = f"{Path(path).parent.absolute()}/"
    col = 6 if transcripts else 1
    rows = [line.split("\t", col + 1) for line in _lines(data, path)
            if line.strip() and not _is_comment(line)]
    rows.sort(key=itemgetter(0))
    listed = []
    for fields in rows:
        p = fields[col] if len(fields) > col else ""
        listed.append((p if p[0] == "/" else base + p) if p else None)
    return listed


def _lines(data: bytes, path) -> list[str]:
    """The lines of ``data``, the bytes of the manifest file ``path``, split
    at universal newlines, line ``n`` at index ``n - 1``: the one split of
    :func:`parse_manifest` and :func:`listed_files`. Both skip the blank
    lines and those that :func:`_is_comment` finds."""
    text = decode_text(data, path)
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _resolver(base: Path):
    """``p -> str(base / p)``, with one pathlib join per distinct directory
    prefix of ``p`` rather than one per path: the last component is appended
    to the resolved prefix. A path ending in ``/``, ``.`` or ``..``, which
    pathlib would drop or keep as a component of its own, takes the full join."""
    prefixes: dict[str, str] = {}

    def resolve(p: str) -> str:
        cut = p.rfind("/") + 1
        name = p[cut:]
        if name in ("", ".", ".."):
            return str(base / p)
        head = p[:cut]
        prefix = prefixes.get(head)
        if prefix is None:
            prefix = str(base / head)
            if not prefix.endswith("/"):  # only the roots "/" and "//" do
                prefix += "/"
            prefixes[head] = prefix
        return prefix + name

    return resolve


def _is_comment(line: str) -> bool:
    """Whether :func:`parse_manifest` reads ``line`` as a comment."""
    return line.lstrip().startswith("#")


def _utterance_error(u: Utterance) -> str | None:
    """The first rule of a manifest line that the values of ``u`` break, or
    None: :func:`parse_manifest` applies these rules to each line it reads,
    and :func:`write_manifest` to each utterance before it writes."""
    if not u.id:
        return "empty utterance id"
    if not u.feature_path:
        return "empty feature path"
    for name in ("num_frames", "frame_dim"):
        value = getattr(u, name)
        if not isinstance(value, int) or isinstance(value, bool):
            return f"{name} must be an integer, got {value!r}"
    if not u.num_frames >= 0:
        return "num_frames must be >= 0"
    if not u.frame_dim >= 1:
        return "frame_dim must be >= 1"
    if not 0 <= u.duration_s < math.inf:
        return f"duration_s must be finite and >= 0, got {u.duration_s}"
    if not u.domain_tag:
        return "empty domain tag"
    return None


def _parse_manifest_line(line: str, path: Path, lineno: int, fps: float) -> Utterance:
    fields = line.split("\t")
    if len(fields) not in (6, 7):
        raise FormatError(
            f"{path}:{lineno}: expected 6 or 7 tab-separated fields, got {len(fields)}"
        )
    num_frames = _parse_int(fields[2], path, lineno, "num_frames")
    frame_dim = _parse_int(fields[3], path, lineno, "frame_dim")
    try:
        duration_s = (num_frames / fps if fields[4] == ""
                      else _parse_float(fields[4], path, lineno, "duration_s"))
    except OverflowError:  # a frame count past float range: refused as infinite
        duration_s = math.inf
    utt = Utterance(fields[0], fields[1], num_frames, frame_dim, duration_s, fields[5],
                    fields[6] if len(fields) == 7 and fields[6] else None)
    if error := _utterance_error(utt):
        raise FormatError(f"{path}:{lineno}: {error}")
    return utt


def _parse_int(text: str, path: Path, lineno: int, name: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise FormatError(f"{path}:{lineno}: {name} is not an integer: '{text}'") from None


def _parse_float(text: str, path: Path, lineno: int, name: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise FormatError(f"{path}:{lineno}: {name} is not a number: '{text}'") from None
    if not math.isfinite(value):
        raise FormatError(f"{path}:{lineno}: {name} must be finite, got '{text}'")
    return value


def write_manifest(manifest: Manifest, path) -> None:
    """Write ``manifest`` as a file that :func:`read_manifest` reads back with
    the same fps and utterances, durations to nine significant digits. Before
    the file is opened, an fps that is not finite and positive is refused, and
    so is an utterance that breaks a rule of :func:`_utterance_error`, holds a
    tab or a line break in a text field, would read back as a comment, repeats
    an earlier id or is not UTF-8 text: ValidationError names it."""
    validate_positive(manifest.fps, "manifest fps")
    lines = [f"# fps={manifest.fps:.9g}"]
    seen = set()
    for u in manifest:
        line = (f"{u.id}\t{u.feature_path}\t{u.num_frames}\t{u.frame_dim}"
                f"\t{u.duration_s:.9g}\t{u.domain_tag}")
        tabs = 5
        if u.transcript_path:
            line, tabs = f"{line}\t{u.transcript_path}", 6
        error = _utterance_error(u)
        if error is None:
            if line.count("\t") != tabs or "\n" in line or "\r" in line:
                error = "a tab or line break in a text field"
            elif _is_comment(line):
                error = "it would read back as a comment"
            elif u.id in seen:
                error = "repeated id"
        if error:
            raise ValidationError(f"utterance {u.id!r}: {error}")
        seen.add(u.id)
        lines.append(line)
    text = "\n".join(lines) + "\n"
    try:
        data = text.encode("utf-8")
    except UnicodeEncodeError as exc:
        u = manifest.utterances[text.count("\n", 0, exc.start) - 1]
        raise ValidationError(f"utterance {u.id!r}: a text field is not UTF-8") from None
    Path(path).write_bytes(data)


# ---------------------------------------------------------------------------
# Binary feature files


def write_features(matrix, path) -> None:
    """Write a frames x dim matrix as a binary feature file (float32). A
    matrix that is not finite once cast to float32, NaN, Inf or a value
    beyond float32's range, is refused before the file is opened."""
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim != 2:
        raise ValidationError(f"feature matrix must be 2-D, got shape {arr.shape}")
    with np.errstate(over="ignore"):
        frames = arr.astype("<f4")
    if not np.all(np.isfinite(frames)):
        raise ValidationError("feature matrix contains NaN or Inf, or values beyond float32")
    container.write(
        path, _FEATURE_HEADER, (FEATURE_MAGIC, FEATURE_VERSION, *arr.shape), [frames]
    )


def open_file(path) -> tuple[io.FileIO, os.stat_result]:
    """The regular file at ``path``, open for unbuffered binary reading, and
    its ``fstat``: the one way the library opens a file to read. A missing
    path raises what ``open`` does, a directory IsADirectoryError, and any
    other file that is not regular OSError, opened non-blocking and unread,
    so a FIFO cannot block. The caller closes the file."""
    fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    try:
        st = os.fstat(fd)
        if not stat.S_ISREG(st.st_mode):
            if stat.S_ISDIR(st.st_mode):
                raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), os.fspath(path))
            raise OSError(errno.EINVAL, "not a regular file", os.fspath(path))
        return open(fd, "rb", buffering=0), st
    except BaseException:
        os.close(fd)
        raise


def read_file(path) -> bytes:
    """The bytes of the regular file at ``path``, as :func:`read_file_stat` reads them."""
    return read_file_stat(path)[0]


def read_file_stat(path) -> tuple[bytes, os.stat_result]:
    """The bytes of the file that :func:`open_file` opens at ``path``, read
    in one call unless its size changed since, and its ``fstat``."""
    fh, st = open_file(path)
    with fh:
        data = fh.read(st.st_size + 1)
        if len(data) != st.st_size:  # grew, shrank or a capped read: go on to EOF
            data += fh.readall()
    return data, st


def decode_text(data: bytes, path) -> str:
    """``data``, the bytes of the text file ``path``, as UTF-8; bytes that are
    not raise FormatError naming the file and the line that holds them."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise FormatError(f"{path}:{lineno}: not UTF-8 text") from None


def _payload(data: bytes, path) -> np.ndarray:
    """The (frames, dim) float32 payload of ``data``, the bytes of the feature
    file ``path``: a read-only view, once header, magic, version, frame_dim
    and size are checked."""
    n, d = container.read(data, path, _FEATURE_HEADER, FEATURE_MAGIC, FEATURE_VERSION, "feature")
    if d < 1:
        raise FormatError(f"{path}: frame_dim must be >= 1, got {d}")
    (arr,) = container.arrays(data, path, _FEATURE_HEADER, ("<f4", n * d))
    return arr.reshape(n, d)


# Float32 values per block of feature_blocks (256 KB), however many
# utterances a pass lists or however long one of them is.
_BLOCK_VALUES = 1 << 16


def feature_blocks(utts, dim: int):
    """Yield ``(start, block)`` over the frames of ``utts`` as if concatenated:
    ``block`` holds frames ``start`` to ``start + len(block)``, float32, ``dim``
    wide, ``_BLOCK_VALUES // dim`` of them (at least one) but in the last. It
    is one buffer, refilled for the next yield: a caller copies what it keeps.
    Each file is read once and checked against the manifest's shape; each
    block is checked finite, a NaN or Inf naming the file that holds it."""
    buf = np.empty((max(1, _BLOCK_VALUES // dim), dim), dtype=np.float32)
    start = fill = 0
    files: list[tuple[int, str]] = []  # (block row past its frames, path) per file in buf

    def block():
        out = buf[:fill]
        finite = np.isfinite(out)
        if not finite.all():
            row = int(np.argmin(finite.all(axis=1)))
            path = next(p for end, p in files if row < end)
            raise FormatError(f"{path}: feature payload contains NaN or Inf")
        return start, out

    for utt in utts:
        p = utt.feature_file
        frames = _payload(read_file(p), p)
        if frames.shape != (utt.num_frames, utt.frame_dim):
            raise FormatError(
                f"{p}: shape {frames.shape[0]}x{frames.shape[1]} does not match manifest "
                f"{utt.num_frames}x{utt.frame_dim} for utterance '{utt.id}'"
            )
        if utt.num_frames and utt.frame_dim != dim:
            raise ValidationError(
                f"frame_dim mismatch: '{utt.id}' has {utt.frame_dim}, expected {dim}"
            )
        pos = 0
        while pos < len(frames):
            take = min(len(buf) - fill, len(frames) - pos)
            buf[fill:fill + take] = frames[pos:pos + take]
            fill, pos = fill + take, pos + take
            files.append((fill, p))
            if fill == len(buf):
                yield block()
                start, fill = start + fill, 0
                files.clear()
    if fill:
        yield block()


def read_features(utt: Utterance) -> np.ndarray:
    """Load an utterance's features, cross-checking the manifest's shape."""
    dim = utt.frame_dim
    return np.concatenate(
        [np.empty((0, dim), dtype=np.float32)]
        + [block.copy() for _, block in feature_blocks([utt], dim)]
    )


def sample_frames(manifests: list[Manifest], max_frames: int, seed: int) -> np.ndarray:
    """Float32 frames of the manifests' utterances, in manifest order.

    Past ``max_frames`` frames in all, ``max_frames`` of them are drawn
    uniformly without replacement and kept in order. The draw uses the
    manifests' ``num_frames``, so only files that hold a drawn frame are read,
    in one :func:`feature_blocks` pass, each block's drawn rows gathered with
    one index. The sample is dim-major (Fortran order): each feature
    dimension is one contiguous column, which mixture seeding reads in place.
    The utterances with frames must share one frame_dim; as in
    :func:`feature_blocks`, one with no frames may have any.
    """
    utts = [utt for manifest in manifests for utt in manifest if utt.num_frames]
    dim = utts[0].frame_dim if utts else 0
    for utt in utts:
        if utt.frame_dim != dim:
            raise ValidationError(
                f"frame_dim mismatch: '{utt.id}' has {utt.frame_dim}, expected {dim}"
            )
    lengths = np.array([utt.num_frames for utt in utts], dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(lengths)))
    total = int(starts[-1])
    if total == 0:
        raise ValidationError("no training frames available")
    if total > max_frames:
        rng = np.random.default_rng(seed)
        keep = np.sort(rng.choice(total, size=max_frames, replace=False))
    else:
        keep = np.arange(total)
    # The read utterances' frames, concatenated, skip the frames of the
    # others: a drawn frame's position in that stream is its own less them.
    drawn = np.diff(np.searchsorted(keep, starts))
    read = np.flatnonzero(drawn)
    skipped = starts[read] - (np.cumsum(lengths[read]) - lengths[read])
    rows = keep - np.repeat(skipped, drawn[read])
    X = np.empty((keep.size, dim), dtype=np.float32, order="F")
    lo = 0
    for start, block in feature_blocks([utts[i] for i in read], dim):
        hi = int(np.searchsorted(rows, start + len(block)))
        X[lo:hi] = block[rows[lo:hi] - start]
        lo = hi
    return X


def transcript_text(utt: Utterance, data: bytes | None) -> str:
    """``utt``'s transcript from ``data``, the bytes of its transcript file
    (None if it is missing): empty when none is listed."""
    p = utt.transcript_file
    if not p:
        return ""
    if data is None:
        raise FormatError(f"missing transcript file for utterance '{utt.id}': {p}")
    return decode_text(data, p)
