import pytest

from ldaselect.config import (
    PipelineConfig,
    load_config,
    text_lda_params,
    text_select_params,
    validate_config,
)
from ldaselect.errors import ValidationError

FULL = """\
[paths]
pool_manifest = {pool}
dev_manifest = {dev}
work_dir = {work}

[quantizer]
n_components = 8
seed = 3
max_iterations = 12
tol = 1e-4
var_floor_scale = 1e-2
init_subsample = 5000
max_train_frames = 20000
train_source = dev

[docmodel]
idf_source = pool
text_vocab_cap = 64

[lda]
n_topics = 4
seed = 9
em_tol = 1e-6
em_max_iterations = 25
doc_tol = 1e-5
doc_max_iterations = 40
eta = 0.02
alpha = 0.1
train_source = dev+pool

[cluster]
n_clusters = 6
seed = 2
max_iterations = 30
spherical = true

[selection]
lambda = 0.35
max_hours = 2.5

[text]
enabled = yes
n_topics = 3
lambda = 0.4

[report]
target_domain = calls
"""


def _write_inputs(tmp_path):
    pool = tmp_path / "pool.tsv"
    dev = tmp_path / "dev.tsv"
    pool.write_text("# fps=100\n", encoding="utf-8")
    dev.write_text("# fps=100\n", encoding="utf-8")
    return pool, dev, tmp_path / "work"


def _write_config(tmp_path, body):
    path = tmp_path / "run.cfg"
    path.write_text(body, encoding="utf-8")
    return path


def test_defaults_match_full_scale_recipe():
    config = PipelineConfig()
    assert config.quantizer.n_components == 1024
    assert config.lda.n_topics == 2048
    assert config.cluster.n_clusters == 512
    assert config.selection.threshold == 0.2
    assert config.lda.alpha is None
    assert config.quantizer.train_source == "dev+pool"
    assert config.lda.train_source == "dev"
    assert config.docmodel.idf_source == "dev+pool"
    assert config.text.enabled is False
    validate_config(config, check_paths=False)


def test_full_file_round_trip(tmp_path):
    pool, dev, work = _write_inputs(tmp_path)
    path = _write_config(tmp_path, FULL.format(pool=pool, dev=dev, work=work))
    config = load_config(path)
    assert config.paths.pool_manifest == str(pool)
    assert config.quantizer.n_components == 8
    assert config.quantizer.seed == 3
    assert config.quantizer.tol == pytest.approx(1e-4)
    assert config.quantizer.train_source == "dev"
    assert config.docmodel.idf_source == "pool"
    assert config.docmodel.text_vocab_cap == 64
    assert config.lda.n_topics == 4
    assert config.lda.alpha == pytest.approx(0.1)
    assert config.lda.train_source == "dev+pool"
    assert config.cluster.spherical is True
    assert config.selection.threshold == pytest.approx(0.35)
    assert config.selection.max_hours == pytest.approx(2.5)
    assert config.text.enabled is True
    assert config.text.n_topics == 3
    assert config.text.threshold == pytest.approx(0.4)
    assert config.report.target_domain == "calls"
    validate_config(config)


def test_lambda_alias_and_threshold_key(tmp_path):
    path = _write_config(tmp_path, "[selection]\nthreshold = 0.15\n")
    assert load_config(path).selection.threshold == pytest.approx(0.15)
    path = _write_config(tmp_path, "[selection]\nlambda = 0.25\n")
    assert load_config(path).selection.threshold == pytest.approx(0.25)


def test_unknown_section_and_key_rejected(tmp_path):
    path = _write_config(tmp_path, "[mystery]\nx = 1\n")
    with pytest.raises(ValidationError) as exc:
        load_config(path)
    assert "mystery" in str(exc.value)
    path = _write_config(tmp_path, "[lda]\nn_topicz = 4\n")
    with pytest.raises(ValidationError) as exc:
        load_config(path)
    assert "n_topicz" in str(exc.value)


def test_bad_values_rejected(tmp_path):
    for body in (
        "[lda]\nn_topics = four\n",
        "[quantizer]\ntol = fast\n",
        "[cluster]\nspherical = sideways\n",
        "broken, no section header\n",
    ):
        path = _write_config(tmp_path, body)
        with pytest.raises(ValidationError):
            load_config(path)
    with pytest.raises(ValidationError):
        load_config(tmp_path / "missing.cfg")


def test_optional_fields_blank_means_none(tmp_path):
    path = _write_config(
        tmp_path,
        "[lda]\nalpha =\n[selection]\nmax_hours =\n[text]\nn_topics =\n"
        "threshold =\n[report]\ntarget_domain =\n",
    )
    config = load_config(path)
    assert config.lda.alpha is None
    assert config.selection.max_hours is None
    assert config.text.n_topics is None
    assert config.text.threshold is None
    assert config.report.target_domain is None


def test_union_idf_source_rejected_naming_dev_plus_pool():
    config = PipelineConfig()
    config.docmodel.idf_source = "union"
    with pytest.raises(ValidationError) as exc:
        validate_config(config, check_paths=False)
    assert "dev+pool" in str(exc.value)


def test_validate_ranges():
    cases = [
        ("quantizer", "n_components", 0),
        ("quantizer", "tol", 0.0),
        ("quantizer", "train_source", "prod"),
        ("docmodel", "idf_source", "nowhere"),
        ("docmodel", "text_vocab_cap", 0),
        ("lda", "n_topics", 0),
        ("lda", "eta", -0.1),
        ("lda", "alpha", 0.0),
        ("lda", "train_source", "all"),
        ("cluster", "n_clusters", 0),
        ("selection", "threshold", 0.0),
        ("selection", "threshold", 1.0001),
        ("selection", "max_hours", -1.0),
        ("text", "n_topics", 0),
        ("text", "threshold", 0.0),
    ]
    for section, key, value in cases:
        config = PipelineConfig()
        setattr(getattr(config, section), key, value)
        with pytest.raises(ValidationError):
            validate_config(config, check_paths=False)


def test_validate_paths(tmp_path):
    pool, dev, work = _write_inputs(tmp_path)
    config = PipelineConfig()
    with pytest.raises(ValidationError) as exc:
        validate_config(config)
    assert "pool_manifest" in str(exc.value)
    config.paths.pool_manifest = str(pool)
    config.paths.dev_manifest = str(tmp_path / "nope.tsv")
    config.paths.work_dir = str(work)
    with pytest.raises(ValidationError) as exc:
        validate_config(config)
    assert "dev_manifest" in str(exc.value)
    config.paths.dev_manifest = str(dev)
    validate_config(config)
    config.paths.work_dir = ""
    with pytest.raises(ValidationError):
        validate_config(config)


def test_text_parameter_inheritance():
    config = PipelineConfig()
    config.lda.n_topics = 16
    config.lda.alpha = 0.5
    config.selection.threshold = 0.3
    config.selection.max_hours = 4.0
    params = text_lda_params(config)
    assert params.n_topics == 16
    assert params.alpha == 0.5
    sel = text_select_params(config)
    assert sel.threshold == 0.3
    assert sel.max_hours == 4.0

    config.text.n_topics = 5
    config.text.threshold = 0.9
    assert text_lda_params(config).n_topics == 5
    assert text_lda_params(config).alpha == 0.5
    assert text_select_params(config).threshold == 0.9
    assert text_select_params(config).max_hours == 4.0
