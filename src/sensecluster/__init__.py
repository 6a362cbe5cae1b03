"""Unsupervised discrimination of word senses from nominal context features.

Pipeline: load a one-word corpus, extract a nominal feature matrix
(sets A/B/C), then either cluster the feature-mismatch dissimilarity
matrix (Ward, McQuitty) or fit a Naive Bayes mixture by EM, and score
the discovered clusters against gold senses via the agreement-maximizing
cluster-to-sense mapping.
"""

from .agglom import ClusterResult, Merge, mcquitty, merge_trace, ward
from .corpus import (
    CorpusError,
    Instance,
    Token,
    WordSample,
    dumps_corpus,
    load_corpus,
    save_corpus,
    sense_distribution,
)
from .dissim import DissimilarityMatrix, row_vectors
from .dissim import build as build_dissimilarity
from .em import EmResult, NaiveBayesParams, e_step, fit, generate, m_step
from .evaluate import (
    AggregateReport,
    ConfusionMatrix,
    aggregate,
    best_mapping,
    category_rollup,
    confusion_from_labels,
    format_confusion,
    majority_classifier,
    not_significantly_below,
    t_test,
)
from .features import (
    FEATURE_SETS,
    FeatureMatrix,
    FeatureSchema,
    build_schema,
    dimensionality,
    extract,
    load_stopwords,
    top_content_words,
    top_positional_words,
)
from .runner import ExperimentConfig, load_config, run, trial_seed

__version__ = "0.1.0"

__all__ = [
    "AggregateReport",
    "ClusterResult",
    "ConfusionMatrix",
    "CorpusError",
    "DissimilarityMatrix",
    "EmResult",
    "ExperimentConfig",
    "FEATURE_SETS",
    "FeatureMatrix",
    "FeatureSchema",
    "Instance",
    "Merge",
    "NaiveBayesParams",
    "Token",
    "WordSample",
    "aggregate",
    "best_mapping",
    "build_dissimilarity",
    "build_schema",
    "category_rollup",
    "confusion_from_labels",
    "dimensionality",
    "dumps_corpus",
    "e_step",
    "extract",
    "fit",
    "format_confusion",
    "generate",
    "load_config",
    "load_corpus",
    "load_stopwords",
    "m_step",
    "majority_classifier",
    "mcquitty",
    "not_significantly_below",
    "merge_trace",
    "row_vectors",
    "run",
    "save_corpus",
    "sense_distribution",
    "t_test",
    "top_content_words",
    "top_positional_words",
    "trial_seed",
    "ward",
]
