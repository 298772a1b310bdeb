"""Seeded synthetic corpora in the ldaselect on-disk formats.

The benchmark writes its own inputs instead of calling the library's
``generate_synthetic_corpus``: the inputs must not change when the code under
test changes, or a before/after comparison would measure different corpora.
The files follow the documented formats (``ALDF`` feature files, ``# fps=``
manifests, one transcript file per utterance).

Domain geometry: domain ``i`` of ``DOMAINS`` is centred ``separation`` from
the origin along axis ``i mod FRAME_DIM``, with two unit-variance components
offset from the centre by ``separation / 5`` along the next axis. Transcripts
draw each word from the domain's own word list with probability
``OWN_WORD_PROB`` and from a list shared by every domain otherwise, each list
with a 1/rank frequency profile.
"""

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_FEATURE_HEADER = struct.Struct("<4sIQI")
FPS = 100.0
DOMAINS = 5
FRAME_DIM = 13
WORDS_PER_DOMAIN = 20
SHARED_WORDS = 40
OWN_WORD_PROB = 0.5
WORDS_RANGE = (8, 20)


@dataclass(frozen=True)
class CorpusShape:
    """Size and difficulty of one generated pool + dev pair."""

    pool_utts_per_domain: int
    dev_utts: int
    frames_range: tuple[int, int]
    separation: float
    transcripts: bool = False


def _write_features(frames: np.ndarray, path: Path) -> None:
    n, d = frames.shape
    with open(path, "wb") as fh:
        fh.write(_FEATURE_HEADER.pack(b"ALDF", 1, n, d))
        fh.write(frames.astype("<f4").tobytes(order="C"))


def _domain_means(shape: CorpusShape, i: int) -> np.ndarray:
    dim = FRAME_DIM
    center = np.zeros(dim)
    axis = i % dim
    center[axis] = shape.separation * (1 + i // dim)
    means = np.tile(center, (2, 1))
    offset = shape.separation / 5.0
    means[0, (axis + 1) % dim] -= offset / 2.0
    means[1, (axis + 1) % dim] += offset / 2.0
    return means


def _zipf(n: int) -> np.ndarray:
    p = 1.0 / np.arange(1, n + 1)
    return p / p.sum()


def _write_set(
    shape: CorpusShape, rng: np.random.Generator, out_dir: Path,
    domains: list[int], n_per_domain: int, id_prefix: str, manifest_name: str,
) -> dict:
    (out_dir / "features").mkdir(parents=True, exist_ok=True)
    if shape.transcripts:
        (out_dir / "transcripts").mkdir(exist_ok=True)
    shared = [f"common{j:03d}" for j in range(SHARED_WORDS)]
    lines = [f"# fps={FPS:.9g}"]
    total_frames = 0
    lo, hi = shape.frames_range
    for i in domains:
        means = _domain_means(shape, i)
        own = [f"d{i}w{j:03d}" for j in range(WORDS_PER_DOMAIN)]
        for u in range(n_per_domain):
            uid = f"{id_prefix}domain{i}_{u:05d}"
            n = int(rng.integers(lo, hi + 1))
            comps = rng.integers(0, 2, size=n)
            frames = means[comps] + rng.standard_normal((n, FRAME_DIM))
            rel_feat = f"features/{uid}.aldf"
            _write_features(frames, out_dir / rel_feat)
            total_frames += n
            fields = [uid, rel_feat, str(n), str(FRAME_DIM), f"{n / FPS:.9g}",
                      f"domain{i}"]
            if shape.transcripts:
                n_words = int(rng.integers(WORDS_RANGE[0], WORDS_RANGE[1] + 1))
                from_own = rng.random(n_words) < OWN_WORD_PROB
                own_idx = rng.choice(len(own), size=n_words, p=_zipf(len(own)))
                shared_idx = rng.choice(len(shared), size=n_words, p=_zipf(len(shared)))
                words = [
                    own[a] if pick_own else shared[b]
                    for pick_own, a, b in zip(from_own, own_idx, shared_idx)
                ]
                rel_txt = f"transcripts/{uid}.txt"
                (out_dir / rel_txt).write_text(" ".join(words) + "\n", encoding="utf-8")
                fields.append(rel_txt)
            lines.append("\t".join(fields))
    (out_dir / manifest_name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return {"utterances": len(domains) * n_per_domain, "frames": total_frames}


def generate(shape: CorpusShape, seed: int, index: int, out_dir) -> dict:
    """Write corpus ``index`` of ``seed``: ``pool/pool.tsv`` and ``dev/dev.tsv``.

    The pool mixes every domain evenly; the dev set is drawn from domain0
    alone, the target. Same ``(shape, seed, index)``, same bytes. Returns the
    sizes and manifest paths.
    """
    out_dir = Path(out_dir)
    pool = _write_set(
        shape, np.random.default_rng([seed, index, 0]), out_dir / "pool",
        list(range(DOMAINS)), shape.pool_utts_per_domain, "", "pool.tsv",
    )
    dev = _write_set(
        shape, np.random.default_rng([seed, index, 1]), out_dir / "dev",
        [0], shape.dev_utts, "dev_", "dev.tsv",
    )
    return {
        "pool_utterances": pool["utterances"], "pool_frames": pool["frames"],
        "dev_utterances": dev["utterances"], "dev_frames": dev["frames"],
        "pool_manifest": str(out_dir / "pool" / "pool.tsv"),
        "dev_manifest": str(out_dir / "dev" / "dev.tsv"),
    }
