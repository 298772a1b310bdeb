"""Pipeline configuration: a sectioned key = value file over typed dataclasses.

Every hyperparameter of the full-scale recipe is surfaced with its default
(token vocabulary 1024, 2048 latent domains, 512 clusters, distance threshold
0.2); desk-scale runs override them in the config file or via CLI flags.
"""

import configparser
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import get_args, get_type_hints

from .errors import ValidationError
from .gmm import GmmConfig
from .lda import LdaConfig
from .selection import SelectionConfig, validate_selection_config

SOURCES = ("dev", "pool", "dev+pool")


@dataclass
class PathsConfig:
    pool_manifest: str = ""
    dev_manifest: str = ""
    work_dir: str = ""


@dataclass
class QuantizerConfig:
    n_components: int = 1024
    seed: int = 0
    max_iterations: int = 50
    tol: float = 1e-5
    var_floor_scale: float = 1e-3
    init_subsample: int = 200_000
    max_train_frames: int = 1_000_000
    train_source: str = "dev+pool"

    def gmm_config(self) -> GmmConfig:
        return GmmConfig(
            seed=self.seed, max_iterations=self.max_iterations, tol=self.tol,
            var_floor_scale=self.var_floor_scale, init_subsample=self.init_subsample,
        )


@dataclass
class DocModelConfig:
    idf_source: str = "dev+pool"
    text_vocab_cap: int = 2048


@dataclass
class LdaParams:
    n_topics: int = 2048
    seed: int = 0
    em_tol: float = 1e-5
    em_max_iterations: int = 60
    doc_tol: float = 1e-4
    doc_max_iterations: int = 100
    eta: float = 1e-2
    alpha: float | None = None
    train_source: str = "dev"

    def lda_config(self) -> LdaConfig:
        return LdaConfig(
            seed=self.seed, em_tol=self.em_tol,
            em_max_iterations=self.em_max_iterations, doc_tol=self.doc_tol,
            doc_max_iterations=self.doc_max_iterations, eta=self.eta,
            alpha=self.alpha,
        )


@dataclass
class ClusterConfig:
    n_clusters: int = 512
    seed: int = 0
    max_iterations: int = 100
    spherical: bool = False


@dataclass
class TextConfig:
    enabled: bool = False
    n_topics: int | None = None  # None: same as the acoustic topic count
    threshold: float | None = None  # None: same as the acoustic threshold


@dataclass
class ReportConfig:
    target_domain: str | None = None


@dataclass
class PipelineConfig:
    paths: PathsConfig = field(default_factory=PathsConfig)
    quantizer: QuantizerConfig = field(default_factory=QuantizerConfig)
    docmodel: DocModelConfig = field(default_factory=DocModelConfig)
    lda: LdaParams = field(default_factory=LdaParams)
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    selection: SelectionConfig = field(default_factory=SelectionConfig)
    text: TextConfig = field(default_factory=TextConfig)
    report: ReportConfig = field(default_factory=ReportConfig)


# Config keys whose name differs from the dataclass field.
_KEY_ALIASES = {("selection", "lambda"): "threshold", ("text", "lambda"): "threshold"}


def _convert(hint, text: str):
    """``text`` as a value of the field type ``hint``; an empty value of an
    optional (``X | None``) field is None."""
    text = text.strip()
    args = get_args(hint)
    if type(None) in args:
        if not text:
            return None
        (hint,) = [a for a in args if a is not type(None)]
    if hint is bool:
        low = text.lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"not a boolean: '{text}'")
    return hint(text)


def load_config(path) -> PipelineConfig:
    """Parse a config file; unknown sections or keys are rejected."""
    parser = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"config file not found: {path}")
    try:
        parser.read_string(path.read_text(encoding="utf-8"), source=str(path))
    except configparser.Error as exc:
        raise ValidationError(f"cannot parse config file: {exc}") from None
    config = PipelineConfig()
    sections = {f.name for f in fields(config)}
    for section in parser.sections():
        if section not in sections:
            raise ValidationError(f"{path}: unknown config section [{section}]")
        target = getattr(config, section)
        hints = get_type_hints(type(target))
        for name, text in parser.items(section):
            field_name = _KEY_ALIASES.get((section, name), name)
            if field_name not in hints:
                raise ValidationError(
                    f"{path}: unknown key '{name}' in section [{section}]"
                )
            try:
                value = _convert(hints[field_name], text)
            except ValueError:
                raise ValidationError(
                    f"{path}: bad value for {section}.{name}: '{text}'"
                ) from None
            setattr(target, field_name, value)
    return config


def validate_config(config: PipelineConfig, check_paths: bool = True) -> None:
    """Range-check every parameter; optionally require input paths to exist."""
    q = config.quantizer
    if q.n_components < 1:
        raise ValidationError(f"quantizer.n_components must be >= 1, got {q.n_components}")
    if q.max_iterations < 1 or q.tol <= 0 or q.var_floor_scale <= 0:
        raise ValidationError("quantizer EM settings out of range")
    if q.init_subsample < 1 or q.max_train_frames < 1:
        raise ValidationError("quantizer sampling sizes must be >= 1")
    if q.train_source not in SOURCES:
        raise ValidationError(
            f"quantizer.train_source must be one of {SOURCES}, got '{q.train_source}'"
        )
    d = config.docmodel
    if d.idf_source not in SOURCES:
        raise ValidationError(
            f"docmodel.idf_source must be one of {SOURCES}, got '{d.idf_source}'"
        )
    if d.text_vocab_cap < 1:
        raise ValidationError("docmodel.text_vocab_cap must be >= 1")
    l = config.lda
    if l.n_topics < 1:
        raise ValidationError(f"lda.n_topics must be >= 1, got {l.n_topics}")
    if l.em_tol <= 0 or l.doc_tol <= 0 or l.eta <= 0:
        raise ValidationError("lda tolerances and eta must be positive")
    if l.em_max_iterations < 1 or l.doc_max_iterations < 1:
        raise ValidationError("lda iteration limits must be >= 1")
    if l.alpha is not None and l.alpha <= 0:
        raise ValidationError(f"lda.alpha must be positive, got {l.alpha}")
    if l.train_source not in SOURCES:
        raise ValidationError(
            f"lda.train_source must be one of {SOURCES}, got '{l.train_source}'"
        )
    c = config.cluster
    if c.n_clusters < 1 or c.max_iterations < 1:
        raise ValidationError("cluster.n_clusters and max_iterations must be >= 1")
    validate_selection_config(config.selection)
    t = config.text
    if t.n_topics is not None and t.n_topics < 1:
        raise ValidationError("text.n_topics must be >= 1")
    if t.threshold is not None and not 0.0 < t.threshold <= 1.0:
        raise ValidationError(f"text threshold must be in (0, 1], got {t.threshold}")
    if check_paths:
        for label in ("pool_manifest", "dev_manifest"):
            value = getattr(config.paths, label)
            if not value:
                raise ValidationError(f"paths.{label} is required")
            if not Path(value).is_file():
                raise ValidationError(f"paths.{label} does not exist: {value}")
        if not config.paths.work_dir:
            raise ValidationError("paths.work_dir is required")


def text_lda_params(config: PipelineConfig) -> LdaParams:
    """Text-path topic-model settings: acoustic settings with overrides."""
    if config.text.n_topics is None:
        return config.lda
    return replace(config.lda, n_topics=config.text.n_topics)


def text_select_params(config: PipelineConfig) -> SelectionConfig:
    if config.text.threshold is None:
        return config.selection
    return replace(config.selection, threshold=config.text.threshold)
