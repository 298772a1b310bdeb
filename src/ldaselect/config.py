"""Pipeline configuration: a sectioned key = value file over typed dataclasses.

Every setting defaults to the full-scale recipe (token vocabulary 1024,
2048 latent domains, 512 clusters, distance threshold 0.2); desk-scale runs
override them in the config file. The command line overrides only the work
dir and the seeds.
"""

import configparser
from dataclasses import dataclass, field, fields
from functools import reduce
from pathlib import Path
from typing import get_args, get_type_hints

from .corpus import decode_text, read_file
from .errors import FormatError, ValidationError, validate_count, validate_seed
from .gmm import GmmConfig, validate_gmm_config
from .lda import LdaConfig, validate_lda_config
from .selection import SelectionConfig, validate_selection_config

SOURCES = ("dev", "dev+pool")


@dataclass
class PathsConfig:
    pool_manifest: str = ""
    dev_manifest: str = ""
    work_dir: str = ""


@dataclass
class QuantizerConfig(GmmConfig):
    n_components: int = 1024
    max_train_frames: int = 1_000_000


@dataclass
class DocModelConfig:
    text_vocab_cap: int = 2048


@dataclass
class LdaParams(LdaConfig):
    n_topics: int = 2048
    train_source: str = "dev"


@dataclass
class ClusterConfig:
    n_clusters: int = 512
    seed: int = 0


@dataclass
class TextConfig:
    enabled: bool = False


@dataclass
class PipelineConfig:
    paths: PathsConfig = field(default_factory=PathsConfig)
    quantizer: QuantizerConfig = field(default_factory=QuantizerConfig)
    docmodel: DocModelConfig = field(default_factory=DocModelConfig)
    lda: LdaParams = field(default_factory=LdaParams)
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    selection: SelectionConfig = field(default_factory=SelectionConfig)
    text: TextConfig = field(default_factory=TextConfig)


# Config keys whose name differs from the dataclass field; the field's own
# name is then no key.
_KEY_ALIASES = {("selection", "lambda"): "threshold"}
_RENAMED = {(section, name) for (section, _), name in _KEY_ALIASES.items()}


def _convert(hint, text: str):
    """``text`` as a value of the field type ``hint``, or KeyError or
    ValueError; an empty value of an optional (``X | None``) field is None."""
    text = text.strip()
    args = get_args(hint)
    if type(None) in args:
        if not text:
            return None
        (hint,) = [a for a in args if a is not type(None)]
    if hint is bool:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    return hint(text)


def load_config(path) -> PipelineConfig:
    """Parse a config file; unknown sections or keys are rejected, and so is
    a key set twice in one section. ``[DEFAULT]`` is not special: it is an
    unknown section like any other."""
    # configparser copies the keys of its default section into every other
    # section; a name no section header can hold turns that off.
    parser = configparser.ConfigParser(
        interpolation=None, delimiters=("=",), default_section="\n"
    )
    path = Path(path)
    try:
        parser.read_string(decode_text(read_file(path), path), source=str(path))
    except FileNotFoundError:
        raise ValidationError(f"config file not found: {path}") from None
    except (configparser.Error, FormatError) as exc:
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
            if field_name not in hints or (section, name) in _RENAMED:
                raise ValidationError(
                    f"{path}: unknown key '{name}' in section [{section}]"
                )
            try:
                value = _convert(hints[field_name], text)
            except (KeyError, ValueError):
                raise ValidationError(
                    f"{path}: bad value for {section}.{name}: '{text}'"
                ) from None
            setattr(target, field_name, value)
    return config


def validate_config(config: PipelineConfig) -> None:
    """Range-check every parameter and require the paths to be named; the
    manifests are checked when ``Runner`` reads them."""
    for section, check in (("quantizer", validate_gmm_config), ("lda", validate_lda_config)):
        try:
            check(getattr(config, section))
        except ValidationError as exc:
            raise ValidationError(f"{section}.{exc}") from None
    for name in ("quantizer.n_components", "quantizer.max_train_frames",
                 "docmodel.text_vocab_cap", "lda.n_topics", "cluster.n_clusters"):
        validate_count(reduce(getattr, name.split("."), config), name)
    if config.lda.train_source not in SOURCES:
        raise ValidationError(
            f"lda.train_source must be one of {SOURCES}, got '{config.lda.train_source}'")
    validate_seed(config.cluster.seed, "cluster.seed")
    validate_selection_config(config.selection)
    for label in ("pool_manifest", "dev_manifest", "work_dir"):
        if not getattr(config.paths, label):
            raise ValidationError(f"paths.{label} is required")

