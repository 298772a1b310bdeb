"""Corpus manifests, binary feature files and synthetic labeled corpora.

A manifest is a UTF-8 text file, one utterance per line, with tab-separated
fields::

    id <TAB> feature_path <TAB> num_frames <TAB> frame_dim <TAB> duration_s
       <TAB> domain_tag [<TAB> transcript_path]

Lines starting with ``#`` are comments; an optional ``# fps=<float>`` header
records the frame rate used to derive durations when the duration field is
left empty.

Feature files are little-endian binary: magic ``ALDF``, format version (u32),
num_frames (u64), frame_dim (u32), then num_frames x frame_dim float32 values
in row-major order, no padding.
"""

import io
import re
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import FormatError, ValidationError

FEATURE_MAGIC = b"ALDF"
FEATURE_VERSION = 1
_FEATURE_HEADER = struct.Struct("<4sIQI")

ROLES = ("pool", "dev", "test")


@dataclass
class Utterance:
    """One selectable unit of speech data.

    ``feature_path`` and ``transcript_path`` are stored exactly as written in
    the manifest; relative paths are resolved against the manifest's directory
    when the files are opened.
    """

    id: str
    feature_path: str
    num_frames: int
    frame_dim: int
    duration_s: float
    domain_tag: str
    transcript_path: str | None = None


@dataclass
class Manifest:
    """Ordered utterance list with a corpus role (pool, dev or test)."""

    utterances: list[Utterance] = field(default_factory=list)
    role: str = "pool"
    fps: float = 100.0
    base_dir: Path | None = field(default=None, compare=False)

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


_FPS_RE = re.compile(r"#\s*fps=([0-9.eE+\-]+)\s*$")


def read_manifest(path, role: str = "pool", validate_features: bool = False) -> Manifest:
    """Parse a manifest file, preserving line order.

    Duplicate ids and malformed lines are rejected with the offending line
    numbers. With ``validate_features`` every referenced feature file must
    exist and its header must match the manifest's frame counts.
    """
    path = Path(path)
    if role not in ROLES:
        raise ValidationError(f"manifest role must be one of {ROLES}, got '{role}'")
    manifest = parse_manifest(path.read_bytes(), path, role)
    if validate_features:
        _validate_feature_files(manifest)
    return manifest


def parse_manifest(data: bytes, path, role: str = "pool") -> Manifest:
    """Parse the bytes ``data`` of the manifest file ``path`` (which names it in
    errors and resolves its relative feature paths), as :func:`read_manifest`
    does: a caller that hashes the bytes it parsed keys exactly this manifest."""
    path = Path(path)
    fps = 100.0
    utterances: list[Utterance] = []
    seen: dict[str, int] = {}
    lines = io.StringIO(data.decode("utf-8"), newline=None)
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        if line.lstrip().startswith("#"):
            m = _FPS_RE.match(line.strip())
            if m:
                fps = _parse_float(m.group(1), path, lineno, "fps")
                if fps <= 0:
                    raise FormatError(f"{path}:{lineno}: fps must be positive")
            continue
        utt = _parse_manifest_line(line, path, lineno, fps)
        if utt.id in seen:
            raise FormatError(
                f"{path}: duplicate utterance id '{utt.id}' "
                f"(lines {seen[utt.id]} and {lineno})"
            )
        seen[utt.id] = lineno
        utterances.append(utt)
    return Manifest(utterances, role=role, fps=fps, base_dir=path.parent)


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
        return float(text)
    except ValueError:
        raise FormatError(f"{path}:{lineno}: {name} is not a number: '{text}'") from None


def _validate_feature_files(manifest: Manifest) -> None:
    for utt in manifest:
        p = resolve_path(utt.feature_path, manifest.base_dir)
        if not p.is_file():
            raise FormatError(f"missing feature file for utterance '{utt.id}': {p}")
        with open(p, "rb") as fh:
            n, d = _feature_header(fh.read(_FEATURE_HEADER.size), p)
        if (n, d) != (utt.num_frames, utt.frame_dim):
            raise FormatError(
                f"feature file {p} header {n}x{d} does not match manifest "
                f"{utt.num_frames}x{utt.frame_dim} for utterance '{utt.id}'"
            )


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


def resolve_path(path_str: str, base_dir: Path | None) -> Path:
    p = Path(path_str)
    if not p.is_absolute() and base_dir is not None:
        p = Path(base_dir) / p
    return p


# ---------------------------------------------------------------------------
# Binary feature files


def write_features(matrix, path) -> None:
    """Write a frames x dim matrix as a binary feature file (float32)."""
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim != 2:
        raise ValidationError(f"feature matrix must be 2-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("feature matrix contains NaN or Inf")
    n, d = arr.shape
    header = _FEATURE_HEADER.pack(FEATURE_MAGIC, FEATURE_VERSION, n, d)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(arr.astype("<f4").tobytes(order="C"))


def _feature_header(data: bytes, path) -> tuple[int, int]:
    """(frames, dim) from the start of a feature file's bytes."""
    if len(data) < _FEATURE_HEADER.size:
        raise FormatError(f"{path}: truncated feature header")
    magic, version, n, d = _FEATURE_HEADER.unpack_from(data)
    if magic != FEATURE_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}, expected {FEATURE_MAGIC!r}")
    if version != FEATURE_VERSION:
        raise FormatError(f"{path}: unsupported feature format version {version}")
    return n, d


def read_feature_file(path) -> np.ndarray:
    """Read a binary feature file into a float32 array of shape (frames, dim)."""
    path = Path(path)
    data = path.read_bytes()
    n, d = _feature_header(data, path)
    if d < 1:
        raise FormatError(f"{path}: frame_dim must be >= 1, got {d}")
    expected = _FEATURE_HEADER.size + 4 * n * d
    if len(data) < expected:
        raise FormatError(
            f"{path}: truncated payload, expected {expected} bytes, got {len(data)}"
        )
    if len(data) > expected:
        raise FormatError(
            f"{path}: trailing data, expected {expected} bytes, got {len(data)}"
        )
    arr = np.frombuffer(data, dtype="<f4", count=n * d, offset=_FEATURE_HEADER.size)
    arr = arr.reshape(n, d).copy()
    if not np.all(np.isfinite(arr)):
        raise FormatError(f"{path}: feature payload contains NaN or Inf")
    return arr


def read_features(utt: Utterance, base_dir: Path | None = None) -> np.ndarray:
    """Load an utterance's features, cross-checking the manifest's shape."""
    p = resolve_path(utt.feature_path, base_dir)
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
    """
    utts = [(utt, manifest.base_dir) for manifest in manifests for utt in manifest]
    dim = utts[0][0].frame_dim if utts else 0
    for utt, _ in utts:
        if utt.frame_dim != dim:
            raise ValidationError(
                f"frame_dim mismatch: '{utt.id}' has {utt.frame_dim}, expected {dim}"
            )
    starts = np.cumsum([0] + [utt.num_frames for utt, _ in utts])
    total = int(starts[-1])
    if total == 0:
        raise ValidationError("no training frames available")
    if total > max_frames:
        rng = np.random.default_rng(seed)
        keep = np.sort(rng.choice(total, size=max_frames, replace=False))
    else:
        keep = np.arange(total)
    X = np.empty((keep.size, dim), dtype=np.float32)
    bounds = np.searchsorted(keep, starts)
    for (utt, base_dir), start, lo, hi in zip(utts, starts, bounds, bounds[1:]):
        if hi > lo:
            X[lo:hi] = read_features(utt, base_dir)[keep[lo:hi] - start]
    return X


def read_transcript(utt: Utterance, base_dir: Path | None = None) -> str:
    """Load an utterance's transcript text; empty string when none is listed."""
    if not utt.transcript_path:
        return ""
    p = resolve_path(utt.transcript_path, base_dir)
    if not p.is_file():
        raise FormatError(f"missing transcript file for utterance '{utt.id}': {p}")
    return p.read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# Synthetic corpora


@dataclass
class DomainSpec:
    """Generating recipe for one synthetic domain.

    Frames are drawn from a diagonal-covariance Gaussian mixture; an optional
    word list with per-word probabilities generates transcripts.
    """

    tag: str
    weights: list[float]
    means: list[list[float]]
    variances: list[list[float]]
    n_utterances: int
    frames_range: tuple[int, int]
    frame_dim: int
    words: list[str] | None = None
    word_probs: list[float] | None = None
    words_range: tuple[int, int] = (5, 15)


@dataclass
class SynthSpec:
    domains: list[DomainSpec]
    fps: float = 100.0
    role: str = "pool"
    id_prefix: str = ""
    manifest_name: str | None = None


def _validate_domain(dom: DomainSpec) -> None:
    if not dom.tag:
        raise ValidationError("synthetic domain tag must be non-empty")
    w = np.asarray(dom.weights, dtype=np.float64)
    if w.size == 0:
        raise ValidationError(f"domain '{dom.tag}': mixture has zero components")
    if np.any(w <= 0):
        raise ValidationError(f"domain '{dom.tag}': mixture weights must be positive")
    means = np.asarray(dom.means, dtype=np.float64)
    variances = np.asarray(dom.variances, dtype=np.float64)
    if means.shape != (w.size, dom.frame_dim) or variances.shape != means.shape:
        raise ValidationError(
            f"domain '{dom.tag}': means/variances must be "
            f"{w.size}x{dom.frame_dim} matrices"
        )
    if np.any(variances <= 0):
        raise ValidationError(f"domain '{dom.tag}': variances must be positive")
    if dom.n_utterances < 1:
        raise ValidationError(f"domain '{dom.tag}': n_utterances must be >= 1")
    lo, hi = dom.frames_range
    if lo < 0 or hi < lo:
        raise ValidationError(f"domain '{dom.tag}': invalid frames_range {dom.frames_range}")
    if dom.words is not None:
        if len(dom.words) == 0:
            raise ValidationError(f"domain '{dom.tag}': empty word list")
        if dom.word_probs is not None and len(dom.word_probs) != len(dom.words):
            raise ValidationError(f"domain '{dom.tag}': word_probs length mismatch")
        wlo, whi = dom.words_range
        if wlo < 1 or whi < wlo:
            raise ValidationError(f"domain '{dom.tag}': invalid words_range {dom.words_range}")


def validate_synth_spec(spec: SynthSpec) -> None:
    if not spec.domains:
        raise ValidationError("synthetic spec must define at least one domain")
    if spec.fps <= 0:
        raise ValidationError("fps must be positive")
    if spec.role not in ROLES:
        raise ValidationError(f"role must be one of {ROLES}")
    for dom in spec.domains:
        _validate_domain(dom)


def generate_synthetic_corpus(spec: SynthSpec, seed: int, out_dir) -> Manifest:
    """Generate feature files, optional transcripts and a manifest.

    Deterministic given (spec, seed): a second run produces byte-identical
    files. Every utterance's domain_tag records the generating domain.
    """
    validate_synth_spec(spec)
    out_dir = Path(out_dir)
    feat_dir = out_dir / "features"
    feat_dir.mkdir(parents=True, exist_ok=True)
    if any(dom.words for dom in spec.domains):
        (out_dir / "transcripts").mkdir(parents=True, exist_ok=True)

    rng = np.random.default_rng(seed)
    utterances: list[Utterance] = []
    for dom in spec.domains:
        weights = np.asarray(dom.weights, dtype=np.float64)
        weights = weights / weights.sum()
        means = np.asarray(dom.means, dtype=np.float64)
        stds = np.sqrt(np.asarray(dom.variances, dtype=np.float64))
        lo, hi = dom.frames_range
        if dom.words is not None and dom.word_probs is not None:
            wp = np.asarray(dom.word_probs, dtype=np.float64)
            wp = wp / wp.sum()
        else:
            wp = None
        for i in range(dom.n_utterances):
            uid = f"{spec.id_prefix}{dom.tag}_{i:04d}"
            n_frames = int(rng.integers(lo, hi + 1))
            comps = rng.choice(weights.size, size=n_frames, p=weights)
            frames = means[comps] + rng.standard_normal((n_frames, dom.frame_dim)) * stds[comps]
            rel_feat = f"features/{uid}.aldf"
            write_features(frames, out_dir / rel_feat)
            rel_txt = None
            if dom.words is not None:
                wlo, whi = dom.words_range
                n_words = int(rng.integers(wlo, whi + 1))
                idx = rng.choice(len(dom.words), size=n_words, p=wp)
                rel_txt = f"transcripts/{uid}.txt"
                (out_dir / rel_txt).write_text(
                    " ".join(dom.words[j] for j in idx) + "\n", encoding="utf-8"
                )
            utterances.append(
                Utterance(
                    uid, rel_feat, n_frames, dom.frame_dim, n_frames / spec.fps,
                    dom.tag, rel_txt,
                )
            )
    manifest = Manifest(utterances, role=spec.role, fps=spec.fps, base_dir=out_dir)
    write_manifest(manifest, out_dir / (spec.manifest_name or f"{spec.role}.tsv"))
    return manifest


def make_separated_spec(
    n_domains: int,
    utts_per_domain: int,
    frame_dim: int = 3,
    frames_range: tuple[int, int] = (40, 80),
    separation: float = 10.0,
    n_components: int = 2,
    with_transcripts: bool = False,
    words_per_domain: int = 20,
    words_range: tuple[int, int] = (8, 20),
    tag_prefix: str = "domain",
    fps: float = 100.0,
    role: str = "pool",
    id_prefix: str = "",
) -> SynthSpec:
    """Build a spec of well-separated domains for recovery experiments.

    Domain i is centred ``separation`` apart from its neighbours along a
    rotating axis, with ``n_components`` unit-variance components offset from
    the centre. Optional transcripts draw from per-domain disjoint word lists
    with a 1/rank frequency profile, so text similarity mirrors the domain
    structure.
    """
    if n_domains < 1:
        raise ValidationError("n_domains must be >= 1")
    domains = []
    for i in range(n_domains):
        center = np.zeros(frame_dim)
        axis = i % frame_dim
        center[axis] = separation * (1 + i // frame_dim)
        offset_axis = (axis + 1) % frame_dim
        means = []
        for c in range(n_components):
            m = center.copy()
            m[offset_axis] += (c - (n_components - 1) / 2.0) * separation / 5.0
            means.append(m.tolist())
        words = None
        probs = None
        if with_transcripts:
            words = [f"d{i}w{j:03d}" for j in range(words_per_domain)]
            probs = [1.0 / (j + 1) for j in range(words_per_domain)]
        domains.append(
            DomainSpec(
                tag=f"{tag_prefix}{i}",
                weights=[1.0 / n_components] * n_components,
                means=means,
                variances=[[1.0] * frame_dim for _ in range(n_components)],
                n_utterances=utts_per_domain,
                frames_range=frames_range,
                frame_dim=frame_dim,
                words=words,
                word_probs=probs,
                words_range=words_range,
            )
        )
    return SynthSpec(domains=domains, fps=fps, role=role, id_prefix=id_prefix)
