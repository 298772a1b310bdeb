"""Toy labeled corpora for the tests: well-separated domains, written with the
library's public writers.

Domain i is centred ``separation * (1 + i // 3)`` along axis ``i % 3`` of a
3-dimensional frame space; its frames come from two equally weighted
unit-variance Gaussians ``separation / 5`` apart along the next axis, and its
utterances are tagged ``domain<i>``. Optional transcripts of 8 to 20 words
draw from disjoint per-domain lists of 20 words with a 1/rank frequency
profile, so text similarity mirrors the domain structure. Frames run at
100 per second. The same recipe and seed give byte-identical files.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ldaselect import Manifest, Utterance, write_features, write_manifest

_DIM = 3
_COMPONENTS = 2
_FPS = 100.0
_WORDS = 20


@dataclass
class SynthSpec:
    """A toy corpus's recipe; the manifest is ``<role>.tsv``."""

    n_domains: int
    utts_per_domain: int
    frames_range: tuple[int, int] = (40, 80)
    separation: float = 10.0
    with_transcripts: bool = False
    role: str = "pool"
    id_prefix: str = ""


def generate_synthetic_corpus(spec: SynthSpec, seed: int, out_dir) -> None:
    """Write ``spec``'s feature files, transcripts and manifest under ``out_dir``."""
    out_dir = Path(out_dir)
    (out_dir / "features").mkdir(parents=True, exist_ok=True)
    if spec.with_transcripts:
        (out_dir / "transcripts").mkdir(parents=True, exist_ok=True)
    weights = np.full(_COMPONENTS, 1.0 / _COMPONENTS)
    offsets = (np.arange(_COMPONENTS) - (_COMPONENTS - 1) / 2.0) * spec.separation / 5.0
    word_probs = 1.0 / np.arange(1, _WORDS + 1)
    word_probs /= word_probs.sum()

    rng = np.random.default_rng(seed)
    utterances = []
    for i in range(spec.n_domains):
        tag = f"domain{i}"
        means = np.zeros((_COMPONENTS, _DIM))
        means[:, i % _DIM] = spec.separation * (1 + i // _DIM)
        means[:, (i + 1) % _DIM] += offsets
        words = [f"d{i}w{j:03d}" for j in range(_WORDS)]
        for u in range(spec.utts_per_domain):
            uid = f"{spec.id_prefix}{tag}_{u:04d}"
            n_frames = int(rng.integers(spec.frames_range[0], spec.frames_range[1] + 1))
            comps = rng.choice(_COMPONENTS, size=n_frames, p=weights)
            rel_feat = f"features/{uid}.aldf"
            frames = means[comps] + rng.standard_normal((n_frames, _DIM))
            write_features(frames, out_dir / rel_feat)
            rel_txt = None
            if spec.with_transcripts:
                idx = rng.choice(_WORDS, size=int(rng.integers(8, 21)), p=word_probs)
                rel_txt = f"transcripts/{uid}.txt"
                (out_dir / rel_txt).write_text(
                    " ".join(words[j] for j in idx) + "\n", encoding="utf-8"
                )
            utterances.append(
                Utterance(uid, rel_feat, n_frames, _DIM, n_frames / _FPS, tag, rel_txt)
            )
    write_manifest(Manifest(utterances, role=spec.role, fps=_FPS), out_dir / f"{spec.role}.tsv")
