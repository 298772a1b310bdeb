"""Corpus manifests, binary feature files and synthetic labeled corpora.

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
from pathlib import Path

import numpy as np

from . import container
from .errors import FormatError, ValidationError

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
    return parse_manifest(path.read_bytes(), path, role)


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
    lines = io.StringIO(decode_text(data, path), newline=None)
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        if line.lstrip().startswith("#"):
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


def _parse_manifest_line(line: str, path: Path, lineno: int, fps: float) -> Utterance:
    fields = line.split("\t")
    if len(fields) not in (6, 7):
        raise FormatError(
            f"{path}:{lineno}: expected 6 or 7 tab-separated fields, got {len(fields)}"
        )
    utt_id, feature_path = fields[0], fields[1]
    if not utt_id:
        raise FormatError(f"{path}:{lineno}: empty utterance id")
    if not feature_path:
        raise FormatError(f"{path}:{lineno}: empty feature path")
    num_frames = _parse_int(fields[2], path, lineno, "num_frames")
    if num_frames < 0:
        raise FormatError(f"{path}:{lineno}: num_frames must be >= 0")
    frame_dim = _parse_int(fields[3], path, lineno, "frame_dim")
    if frame_dim < 1:
        raise FormatError(f"{path}:{lineno}: frame_dim must be >= 1")
    if fields[4] == "":
        duration_s = num_frames / fps
    else:
        duration_s = _parse_float(fields[4], path, lineno, "duration_s")
        if duration_s < 0:
            raise FormatError(f"{path}:{lineno}: duration_s must be >= 0")
    domain_tag = fields[5]
    if not domain_tag:
        raise FormatError(f"{path}:{lineno}: empty domain tag")
    transcript_path = fields[6] if len(fields) == 7 and fields[6] else None
    return Utterance(
        utt_id, feature_path, num_frames, frame_dim, duration_s, domain_tag, transcript_path
    )


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
    """Write a manifest readable back by :func:`read_manifest`."""
    path = Path(path)
    lines = [f"# fps={manifest.fps:.9g}"]
    for u in manifest:
        fields = [
            u.id,
            u.feature_path,
            str(u.num_frames),
            str(u.frame_dim),
            f"{u.duration_s:.9g}",
            u.domain_tag,
        ]
        if u.transcript_path:
            fields.append(u.transcript_path)
        lines.append("\t".join(fields))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


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


def read_file(path) -> bytes:
    """The bytes of the regular file at ``path``, from one non-blocking
    ``os.open``, an ``fstat`` and (unless the file changed size meanwhile) one
    ``os.read``. A missing path raises what ``open`` does, a directory
    IsADirectoryError; any other file that is not regular (a FIFO, socket or
    device) raises OSError unread, so it cannot block."""
    fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    try:
        st = os.fstat(fd)
        if not stat.S_ISREG(st.st_mode):
            if stat.S_ISDIR(st.st_mode):
                raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), os.fspath(path))
            raise OSError(errno.EINVAL, "not a regular file", os.fspath(path))
        data = os.read(fd, st.st_size + 1)
        if len(data) != st.st_size:  # grew, shrank or a capped read: go on to EOF
            parts = [data]
            while part := os.read(fd, 1 << 20):
                parts.append(part)
            data = b"".join(parts)
        return data
    finally:
        os.close(fd)


def decode_text(data: bytes, path) -> str:
    """``data``, the bytes of the text file ``path``, as UTF-8; bytes that are
    not raise FormatError naming the file and the line that holds them."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise FormatError(f"{path}:{lineno}: not UTF-8 text") from None


def text_lines(fh, path):
    """``(line number, line)`` for each line of ``fh``, the text file ``path``
    opened in binary mode, decoded as UTF-8 one line at a time (a line that is
    not UTF-8 raises FormatError naming it)."""
    for lineno, raw in enumerate(fh, start=1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"{path}:{lineno}: not UTF-8 text") from None
        yield lineno, line


def read_feature_file(path) -> np.ndarray:
    """Read a binary feature file into a float32 array of shape (frames, dim)."""
    data = read_file(path)
    n, d = container.read(data, path, _FEATURE_HEADER, FEATURE_MAGIC, FEATURE_VERSION, "feature")
    if d < 1:
        raise FormatError(f"{path}: frame_dim must be >= 1, got {d}")
    (arr,) = container.arrays(data, path, _FEATURE_HEADER, ("<f4", n * d))
    arr = arr.reshape(n, d).copy()
    if not np.all(np.isfinite(arr)):
        raise FormatError(f"{path}: feature payload contains NaN or Inf")
    return arr


def read_features(utt: Utterance) -> np.ndarray:
    """Load an utterance's features, cross-checking the manifest's shape."""
    p = utt.feature_file
    arr = read_feature_file(p)
    if arr.shape != (utt.num_frames, utt.frame_dim):
        raise FormatError(
            f"{p}: shape {arr.shape[0]}x{arr.shape[1]} does not match manifest "
            f"{utt.num_frames}x{utt.frame_dim} for utterance '{utt.id}'"
        )
    return arr


def sample_frames(manifests: list[Manifest], max_frames: int, seed: int) -> np.ndarray:
    """Float32 frames of the manifests' utterances, in manifest order.

    Past ``max_frames`` frames in all, ``max_frames`` of them are drawn
    uniformly without replacement and kept in order. The draw uses the
    manifests' ``num_frames``, so only files that hold a drawn frame are read.
    The sample is dim-major (Fortran order): each feature dimension is one
    contiguous column, which mixture seeding reads in place.
    """
    utts = [utt for manifest in manifests for utt in manifest]
    dim = utts[0].frame_dim if utts else 0
    for utt in utts:
        if utt.frame_dim != dim:
            raise ValidationError(
                f"frame_dim mismatch: '{utt.id}' has {utt.frame_dim}, expected {dim}"
            )
    starts = np.cumsum([0] + [utt.num_frames for utt in utts])
    total = int(starts[-1])
    if total == 0:
        raise ValidationError("no training frames available")
    if total > max_frames:
        rng = np.random.default_rng(seed)
        keep = np.sort(rng.choice(total, size=max_frames, replace=False))
    else:
        keep = np.arange(total)
    X = np.empty((keep.size, dim), dtype=np.float32, order="F")
    bounds = np.searchsorted(keep, starts)
    for utt, start, lo, hi in zip(utts, starts, bounds, bounds[1:]):
        if hi > lo:
            X[lo:hi] = read_features(utt)[keep[lo:hi] - start]
    return X


def read_transcript(utt: Utterance) -> str:
    """Load an utterance's transcript text; empty string when none is listed."""
    p = utt.transcript_file
    if not p:
        return ""
    if not os.path.isfile(p):
        raise FormatError(f"missing transcript file for utterance '{utt.id}': {p}")
    return decode_text(read_file(p), p)


# ---------------------------------------------------------------------------
# Synthetic corpora


@dataclass
class SynthSpec:
    """Recipe for a synthetic corpus of well-separated domains, for recovery
    experiments; the ``synth`` command's flags set its fields.

    Domain i is centred ``separation`` apart from its neighbours along a
    rotating axis, with ``n_components`` equally weighted unit-variance
    Gaussian components offset from the centre. Optional transcripts draw
    from per-domain disjoint word lists with a 1/rank frequency profile, so
    text similarity mirrors the domain structure.
    """

    n_domains: int
    utts_per_domain: int
    frame_dim: int = 3
    frames_range: tuple[int, int] = (40, 80)
    separation: float = 10.0
    n_components: int = 2
    with_transcripts: bool = False
    words_per_domain: int = 20
    words_range: tuple[int, int] = (8, 20)
    tag_prefix: str = "domain"
    fps: float = 100.0
    role: str = "pool"
    id_prefix: str = ""
    manifest_name: str | None = None


def validate_synth_spec(spec: SynthSpec) -> None:
    """Reject a recipe that cannot give a readable corpus, before anything is written."""
    for name in ("n_domains", "utts_per_domain", "frame_dim", "n_components", "words_per_domain"):
        if getattr(spec, name) < 1:
            raise ValidationError(f"{name} must be >= 1, got {getattr(spec, name)}")
    lo, hi = spec.frames_range
    if lo < 0 or hi < lo:
        raise ValidationError(f"invalid frames_range {spec.frames_range}")
    if not (0 < spec.fps < math.inf and math.isfinite(hi / spec.fps)):
        raise ValidationError(f"fps must be positive and give finite durations, got {spec.fps}")
    lo, hi = spec.words_range
    if lo < 1 or hi < lo:
        raise ValidationError(f"invalid words_range {spec.words_range}")
    if not math.isfinite(spec.separation):
        raise ValidationError(f"separation must be finite, got {spec.separation}")
    if spec.role not in ROLES:
        raise ValidationError(f"role must be one of {ROLES}, got '{spec.role}'")


def generate_synthetic_corpus(spec: SynthSpec, seed: int, out_dir) -> Manifest:
    """Generate feature files, optional transcripts and a manifest.

    Deterministic given (spec, seed): a second run produces byte-identical
    files. Every utterance's domain_tag records the generating domain. Returns
    the manifest as read back from its file.
    """
    validate_synth_spec(spec)
    out_dir = Path(out_dir)
    (out_dir / "features").mkdir(parents=True, exist_ok=True)
    if spec.with_transcripts:
        (out_dir / "transcripts").mkdir(parents=True, exist_ok=True)
    dim, n_comp = spec.frame_dim, spec.n_components
    weights = np.full(n_comp, 1.0 / n_comp)
    weights /= weights.sum()
    offsets = (np.arange(n_comp) - (n_comp - 1) / 2.0) * spec.separation / 5.0
    word_probs = 1.0 / np.arange(1, spec.words_per_domain + 1)
    word_probs /= word_probs.sum()

    rng = np.random.default_rng(seed)
    utterances: list[Utterance] = []
    for i in range(spec.n_domains):
        tag = f"{spec.tag_prefix}{i}"
        means = np.zeros((n_comp, dim))
        means[:, i % dim] = spec.separation * (1 + i // dim)
        means[:, (i + 1) % dim] += offsets
        words = [f"d{i}w{j:03d}" for j in range(spec.words_per_domain)]
        for u in range(spec.utts_per_domain):
            uid = f"{spec.id_prefix}{tag}_{u:04d}"
            n_frames = int(rng.integers(spec.frames_range[0], spec.frames_range[1] + 1))
            comps = rng.choice(n_comp, size=n_frames, p=weights)
            rel_feat = f"features/{uid}.aldf"
            write_features(means[comps] + rng.standard_normal((n_frames, dim)), out_dir / rel_feat)
            rel_txt = None
            if spec.with_transcripts:
                n_words = int(rng.integers(spec.words_range[0], spec.words_range[1] + 1))
                idx = rng.choice(len(words), size=n_words, p=word_probs)
                rel_txt = f"transcripts/{uid}.txt"
                (out_dir / rel_txt).write_text(
                    " ".join(words[j] for j in idx) + "\n", encoding="utf-8"
                )
            utterances.append(
                Utterance(uid, rel_feat, n_frames, dim, n_frames / spec.fps, tag, rel_txt)
            )
    path = out_dir / (spec.manifest_name or f"{spec.role}.tsv")
    write_manifest(Manifest(utterances, role=spec.role, fps=spec.fps), path)
    return read_manifest(path, role=spec.role)
