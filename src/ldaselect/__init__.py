"""Acoustic training-data selection via latent-domain posterior similarity.

The package quantizes speech frames into discrete tokens with a Gaussian
mixture, builds tf-idf weighted bag-of-words documents per utterance, trains
a latent-topic model over them, and greedily selects pool utterances whose
topic posteriors lie close (cosine distance) to clustered in-domain dev
posteriors. An optional transcript-based path runs the same machinery over
text and combines the two selections by set union.
"""

__version__ = "0.1.0"

from .config import PipelineConfig, load_config, validate_config
from .corpus import (
    Manifest,
    SynthSpec,
    Utterance,
    generate_synthetic_corpus,
    read_features,
    read_manifest,
    write_features,
    write_manifest,
)
from .docmodel import (
    CorpusStats,
    DocBatch,
    bag_of_words,
    build_text_vocab,
    compute_stats,
    tfidf,
    tokenize_transcript,
)
from .errors import FormatError, LdaSelectError, StageError, ValidationError
from .gmm import (
    GmmConfig,
    GmmModel,
    gmm_posteriors,
    load_gmm,
    quantize,
    save_gmm,
    train_gmm,
)
from .kmeans import KMeansModel, train_kmeans
from .lda import (
    InferenceState,
    LdaConfig,
    LdaModel,
    Posteriors,
    elbo,
    extract_posteriors,
    infer_document,
    load_lda,
    save_lda,
    train_lda,
)
from .pipeline import PipelineResult, run_pipeline, sweep_lambda
from .report import CompositionReport, compare, render_report, report
from .selection import (
    SelectionConfig,
    SelectionResult,
    cosine_distance,
    random_select,
    select,
    union_combine,
)

__all__ = [
    "CompositionReport",
    "CorpusStats",
    "DocBatch",
    "FormatError",
    "GmmConfig",
    "GmmModel",
    "InferenceState",
    "KMeansModel",
    "LdaConfig",
    "LdaModel",
    "LdaSelectError",
    "Manifest",
    "PipelineConfig",
    "PipelineResult",
    "Posteriors",
    "SelectionConfig",
    "SelectionResult",
    "StageError",
    "SynthSpec",
    "Utterance",
    "ValidationError",
    "bag_of_words",
    "build_text_vocab",
    "compare",
    "compute_stats",
    "cosine_distance",
    "elbo",
    "extract_posteriors",
    "generate_synthetic_corpus",
    "gmm_posteriors",
    "infer_document",
    "load_config",
    "load_gmm",
    "load_lda",
    "quantize",
    "random_select",
    "read_features",
    "read_manifest",
    "render_report",
    "report",
    "run_pipeline",
    "save_gmm",
    "save_lda",
    "select",
    "sweep_lambda",
    "tfidf",
    "tokenize_transcript",
    "train_gmm",
    "train_kmeans",
    "train_lda",
    "union_combine",
    "validate_config",
    "write_features",
    "write_manifest",
]
