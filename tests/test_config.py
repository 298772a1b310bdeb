import configparser
import math
import re
from dataclasses import fields
from pathlib import Path

import pytest

from ldaselect.cli import _load_pipeline_config, build_parser
from ldaselect.config import _KEY_ALIASES, PipelineConfig, load_config, validate_config
from ldaselect.errors import ValidationError
from ldaselect.pipeline import Runner

FULL = """\
[paths]
pool_manifest = {pool}
dev_manifest = {dev}
work_dir = {work}

[quantizer]
n_components = 8
seed = 3
max_iterations = 12
max_train_frames = 20000

[docmodel]
text_vocab_cap = 64

[lda]
n_topics = 4
seed = 9
em_max_iterations = 25
doc_tol = 1e-5
doc_max_iterations = 40
alpha = 0.1
train_source = dev+pool

[cluster]
n_clusters = 6
seed = 2

[selection]
lambda = 0.35
max_hours = 2.5

[text]
enabled = yes
"""


def _write_inputs(tmp_path):
    pool = tmp_path / "pool.tsv"
    dev = tmp_path / "dev.tsv"
    pool.write_text("# fps=100\n", encoding="utf-8")
    dev.write_text("# fps=100\n", encoding="utf-8")
    return pool, dev, tmp_path / "work"


def _config(tmp_path):
    """The default settings over the empty manifests of ``_write_inputs``."""
    pool, dev, work = _write_inputs(tmp_path)
    config = PipelineConfig()
    config.paths.pool_manifest, config.paths.dev_manifest = str(pool), str(dev)
    config.paths.work_dir = str(work)
    return config


def _write_config(tmp_path, body):
    path = tmp_path / "run.cfg"
    path.write_text(body, encoding="utf-8")
    return path


def test_defaults_match_full_scale_recipe(tmp_path):
    config = _config(tmp_path)
    assert config.quantizer.n_components == 1024
    assert config.lda.n_topics == 2048
    assert config.cluster.n_clusters == 512
    assert config.selection.threshold == 0.2
    assert config.lda.alpha is None
    assert config.lda.train_source == "dev"
    assert config.text.enabled is False
    validate_config(config)


def test_full_file_round_trip(tmp_path):
    pool, dev, work = _write_inputs(tmp_path)
    path = _write_config(tmp_path, FULL.format(pool=pool, dev=dev, work=work))
    config = load_config(path)
    assert config.paths.pool_manifest == str(pool)
    assert config.quantizer.n_components == 8
    assert config.quantizer.seed == 3
    assert config.quantizer.max_iterations == 12
    assert config.quantizer.max_train_frames == 20000
    assert config.docmodel.text_vocab_cap == 64
    assert config.lda.n_topics == 4
    assert config.lda.seed == 9
    assert config.lda.em_max_iterations == 25
    assert config.lda.doc_tol == pytest.approx(1e-5)
    assert config.lda.doc_max_iterations == 40
    assert config.lda.alpha == pytest.approx(0.1)
    assert config.lda.train_source == "dev+pool"
    assert config.selection.threshold == pytest.approx(0.35)
    assert config.selection.max_hours == pytest.approx(2.5)
    assert config.text.enabled is True
    validate_config(config)


def test_lambda_alias_and_threshold_key(tmp_path):
    """The threshold's one key is ``lambda``: its field name is no key."""
    path = _write_config(tmp_path, "[selection]\nlambda = 0.25\n")
    assert load_config(path).selection.threshold == pytest.approx(0.25)
    path = _write_config(tmp_path, "[selection]\nthreshold = 0.15\n")
    with pytest.raises(ValidationError, match=r"unknown key 'threshold' in section \[selection\]"):
        load_config(path)


@pytest.mark.parametrize("section, keys", [
    ("selection", ("lambda = 0.3", "threshold = 0.5")),
    ("selection", ("threshold = 0.5", "lambda = 0.3")),
])
def test_threshold_set_under_both_names_rejected(tmp_path, section, keys):
    """A config that sets ``threshold`` beside ``lambda`` is refused for the
    unknown key, whichever line comes first."""
    path = _write_config(tmp_path, f"[{section}]\n" + "\n".join(keys) + "\n")
    with pytest.raises(ValidationError, match=r"unknown key 'threshold' in section \[selection\]"):
        load_config(path)


@pytest.mark.parametrize("keys", [
    ("lambda = 0.3", "lambda = 0.5"), ("lambda = 0.3", "LAMBDA = 0.5"),
])
def test_a_key_set_twice_in_a_section_is_refused(tmp_path, keys):
    """The parser refuses a repeated key, in any case, rather than keep
    whichever line comes last."""
    path = _write_config(tmp_path, "[selection]\n" + "\n".join(keys) + "\n")
    with pytest.raises(ValidationError, match="cannot parse config file.*'lambda'"):
        load_config(path)


def test_unknown_section_and_key_rejected(tmp_path):
    path = _write_config(tmp_path, "[mystery]\nx = 1\n")
    with pytest.raises(ValidationError) as exc:
        load_config(path)
    assert "mystery" in str(exc.value)
    path = _write_config(tmp_path, "[lda]\nn_topicz = 4\n")
    with pytest.raises(ValidationError) as exc:
        load_config(path)
    assert "n_topicz" in str(exc.value)


@pytest.mark.parametrize(
    "rest", ["[lda]\nn_topics = 4\n", "[paths]\nwork_dir = w\n[lda]\n"], ids=["lda", "paths"]
)
def test_default_section_is_an_unknown_section(tmp_path, rest):
    """configparser would copy ``[DEFAULT]``'s keys into every section: here
    ``lda.seed`` but not ``quantizer.seed`` (absent), and an unknown key into
    ``[paths]``. It is rejected as a section of its own instead."""
    path = _write_config(tmp_path, "[DEFAULT]\nseed = 3\n" + rest)
    with pytest.raises(ValidationError, match=r"unknown config section \[DEFAULT\]"):
        load_config(path)


SECTION_KEYS = {
    "paths": {"pool_manifest", "dev_manifest", "work_dir"},
    "quantizer": {"n_components", "seed", "max_iterations", "max_train_frames"},
    "docmodel": {"text_vocab_cap"},
    "lda": {
        "n_topics", "seed", "em_max_iterations", "doc_tol", "doc_max_iterations",
        "alpha", "train_source",
    },
    "cluster": {"n_clusters", "seed"},
    "selection": {"threshold", "max_hours"},
    "text": {"enabled"},
}


def test_each_section_accepts_exactly_its_keys(tmp_path):
    config = PipelineConfig()
    assert {f.name for f in fields(config)} == set(SECTION_KEYS)
    for section, keys in SECTION_KEYS.items():
        assert {f.name for f in fields(getattr(config, section))} == keys, section
    # FULL sets every key of every section.
    pool, dev, work = _write_inputs(tmp_path)
    load_config(_write_config(tmp_path, FULL.format(pool=pool, dev=dev, work=work)))
    for section in ("quantizer", "lda"):
        path = _write_config(tmp_path, f"[{section}]\ncollapse_patience = 3\n")
        with pytest.raises(ValidationError, match="unknown key 'collapse_patience'"):
            load_config(path)


def test_bad_values_rejected(tmp_path):
    for body in (
        "[lda]\nn_topics = four\n",
        "[lda]\ndoc_tol = fast\n",
        "broken, no section header\n",
    ):
        path = _write_config(tmp_path, body)
        with pytest.raises(ValidationError):
            load_config(path)
    path = _write_config(tmp_path, "[text]\nenabled = sideways\n")
    with pytest.raises(ValidationError, match="bad value for text.enabled: 'sideways'"):
        load_config(path)
    with pytest.raises(ValidationError):
        load_config(tmp_path / "missing.cfg")


@pytest.mark.parametrize("text, value", [
    ("1", True), ("Yes", True), ("TRUE", True), ("on", True),
    ("0", False), ("NO", False), ("false", False), ("Off", False),
])
def test_a_boolean_takes_each_literal_in_any_case(tmp_path, text, value):
    path = _write_config(tmp_path, f"[text]\nenabled = {text}\n")
    assert load_config(path).text.enabled is value


def test_optional_fields_blank_means_none(tmp_path):
    path = _write_config(
        tmp_path,
        "[lda]\nalpha =\n[selection]\nmax_hours =\n",
    )
    config = load_config(path)
    assert config.lda.alpha is None
    assert config.selection.max_hours is None


def test_union_idf_source_rejected_naming_dev_plus_pool(tmp_path):
    config = _config(tmp_path)
    config.lda.train_source = "union"
    with pytest.raises(ValidationError) as exc:
        validate_config(config)
    assert "dev+pool" in str(exc.value)


def test_validate_ranges(tmp_path):
    cases = [
        ("quantizer", "n_components", 0),
        ("docmodel", "text_vocab_cap", 0),
        ("lda", "n_topics", 0),
        ("lda", "alpha", 0.0),
        ("lda", "train_source", "all"),
        ("cluster", "n_clusters", 0),
        ("selection", "threshold", 0.0),
        ("selection", "threshold", 1.0001),
        ("selection", "max_hours", -1.0),
    ]
    # NaN passes every ``x <= 0`` check, and an infinite budget or tolerance
    # switches its limit off, so each of these must also be finite.
    cases += [
        (section, key, value)
        for section, key in [
            ("lda", "doc_tol"), ("lda", "alpha"), ("selection", "max_hours"),
            ("selection", "threshold"),
        ]
        for value in (math.nan, math.inf)
    ]
    for section, key, value in cases:
        config = _config(tmp_path)
        setattr(getattr(config, section), key, value)
        with pytest.raises(ValidationError):
            validate_config(config)


def test_validate_names_the_section_of_a_model_setting(tmp_path):
    """The quantizer and topic-model settings, and every seed, are checked by
    the model modules themselves; the message names the config key."""
    for section, key, value in [
        ("quantizer", "max_iterations", 0), ("lda", "doc_tol", 0.0),
        ("lda", "doc_max_iterations", 0),
        ("quantizer", "seed", -1), ("lda", "seed", 1.5), ("cluster", "seed", -1),
        ("cluster", "seed", 1.5),
    ]:
        config = _config(tmp_path)
        setattr(getattr(config, section), key, value)
        with pytest.raises(ValidationError, match=f"^{section}.{key} must be"):
            validate_config(config)


def test_the_benchmark_workloads_configs_load_and_validate(tmp_path, monkeypatch):
    """Each config body of ``perfbench/workloads.py``, as the benchmark
    writes it after its ``[paths]`` section, loads and validates: a key that
    the library drops while a workload still sets it fails here, not first
    as a failed benchmark run."""
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    from workloads import WORKLOADS

    pool, dev, work = _write_inputs(tmp_path)
    for name, workload in WORKLOADS.items():
        body = f"[paths]\npool_manifest = {pool}\ndev_manifest = {dev}\nwork_dir = {work}\n\n"
        config = load_config(_write_config(tmp_path, body + workload.config.format(max_hours=1.5)))
        validate_config(config)
        assert config.selection.max_hours == 1.5, name


# Config fields that neither a benchmark workload nor a command-line flag
# sets, each beside the ROADMAP item that decides its value or its fate.
UNSET_BUT_KEPT = {
    "lda.doc_tol": "items 8 and 20: the per-document stop rule",
    "lda.doc_max_iterations": "items 8 and 20: the per-document sweep cap",
    "docmodel.text_vocab_cap": "item 19: the joint acoustic and text vocabulary",
}


def _settings(config: PipelineConfig) -> dict:
    """Every config field outside ``[paths]`` by dotted name, with its value."""
    return {f"{s.name}.{f.name}": getattr(getattr(config, s.name), f.name)
            for s in fields(config) if s.name != "paths"
            for f in fields(getattr(config, s.name))}


def test_every_config_field_is_set_by_a_workload_or_the_command_line(tmp_path, monkeypatch):
    """A setting that nothing sets is a constant. Each config field outside
    ``[paths]`` is set by a ``perfbench/workloads.py`` config body, or by
    ``_load_pipeline_config`` from a flag, or is listed in ``UNSET_BUT_KEPT``;
    a listed field that something does set fails too."""
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    from workloads import WORKLOADS

    set_by_workloads = set()
    for workload in WORKLOADS.values():
        parser = configparser.ConfigParser(interpolation=None, delimiters=("=",))
        parser.read_string(workload.config)
        set_by_workloads |= {f"{section}.{_KEY_ALIASES.get((section, key), key)}"
                             for section in parser.sections() for key in parser[section]}
    path = _write_config(tmp_path, "")
    args = build_parser().parse_args(["run", "--config", str(path), "--seed", "7"])
    loaded, flagged = _settings(load_config(path)), _settings(_load_pipeline_config(args))
    set_by_flags = {name for name, value in flagged.items() if value != loaded[name]}
    assert set(loaded) - set_by_workloads - set_by_flags == set(UNSET_BUT_KEPT)


def test_validate_paths(tmp_path):
    """Each path must be named; that a manifest is a file is checked where
    ``Runner`` reads it (next test)."""
    pool, dev, work = _write_inputs(tmp_path)
    config = PipelineConfig()
    with pytest.raises(ValidationError, match="^paths.pool_manifest is required$"):
        validate_config(config)
    config.paths.pool_manifest = str(pool)
    with pytest.raises(ValidationError, match="^paths.dev_manifest is required$"):
        validate_config(config)
    config.paths.dev_manifest = str(dev)
    config.paths.work_dir = str(work)
    validate_config(config)
    config.paths.work_dir = ""
    with pytest.raises(ValidationError, match="^paths.work_dir is required$"):
        validate_config(config)


def test_the_runner_refuses_a_missing_manifest(tmp_path):
    """A named manifest that is not there passes ``validate_config``; the
    runner's read of it raises a ValidationError naming the setting and the
    reader's reason, before the work dir exists."""
    config = _config(tmp_path)
    missing = tmp_path / "nope.tsv"
    config.paths.dev_manifest = str(missing)
    validate_config(config)
    message = f"^paths.dev_manifest: No such file or directory: {re.escape(str(missing))}$"
    with pytest.raises(ValidationError, match=message):
        Runner(config)
    assert not (tmp_path / "work").exists()



@pytest.mark.parametrize("body, message", [
    ("[text]\nn_topics = 3\n", "unknown key 'n_topics' in section [text]"),
    ("[text]\nthreshold = 0.4\n", "unknown key 'threshold' in section [text]"),
    ("[text]\nlambda = 0.4\n", "unknown key 'lambda' in section [text]"),
    ("[report]\ntarget_domain = calls\n", "unknown config section [report]"),
], ids=["text-n_topics", "text-threshold", "text-lambda", "report"])
def test_text_overrides_and_report_section_are_refused(tmp_path, body, message):
    """The text path reads the acoustic ``[lda]`` and ``[selection]``
    settings, and ``compare`` takes its target domain as a flag, so a config
    that still sets them elsewhere is refused rather than silently ignored."""
    with pytest.raises(ValidationError, match=re.escape(message)):
        load_config(_write_config(tmp_path, body))
