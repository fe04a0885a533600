"""Tweet sentiment classification toolkit.

Normalizes raw tweets into canonical token lists, builds frequency-ranked
n-gram vocabularies, and trains/evaluates three classifiers: a lexicon
counting baseline, multinomial Naive Bayes, and a MaxEnt model fit by
iterative scaling.
"""

from tweetiment.dataio import (
    LabeledRecord,
    UnlabeledRecord,
    parse_labeled_csv,
    parse_unlabeled_csv,
    split_dataset,
)
from tweetiment.errors import (
    DataError,
    LexiconConflictError,
    ModelFormatError,
    TweetimentError,
)
from tweetiment.evaluation import (
    CorpusStats,
    EvaluationReport,
    baseline_report,
    corpus_stats,
    evaluate,
    format_report,
    format_stats,
)
from tweetiment.features import (
    FREQUENCY,
    PRESENCE,
    Vocabulary,
    build_vocabulary,
    ngram_counts,
    vectorize,
)
from tweetiment.models import (
    MaxEntModel,
    NaiveBayesModel,
    OpinionLexicon,
    TrainerConfig,
    baseline_classify,
    load_opinion_lexicon,
    maxent_predict,
    maxent_train,
    nb_predict,
    nb_train,
)
from tweetiment.normalize import (
    DEFAULT_EMOTICONS,
    EmoticonTable,
    TokenBatch,
    load_emoticon_table,
    normalize_batch,
    normalize_tweet,
    normalize_word,
)
from tweetiment.sentiment import Sentiment
from tweetiment.serialize import (
    ModelArtifact,
    TrainingMetadata,
    artifact_predict,
    deserialize_model,
    read_vocabulary_file,
    serialize_model,
    write_vocabulary_file,
)

__version__ = "0.1.0"

__all__ = [
    "CorpusStats",
    "DEFAULT_EMOTICONS",
    "DataError",
    "EmoticonTable",
    "EvaluationReport",
    "FREQUENCY",
    "LabeledRecord",
    "LexiconConflictError",
    "MaxEntModel",
    "ModelArtifact",
    "ModelFormatError",
    "NaiveBayesModel",
    "OpinionLexicon",
    "PRESENCE",
    "Sentiment",
    "TrainerConfig",
    "TokenBatch",
    "TrainingMetadata",
    "TweetimentError",
    "UnlabeledRecord",
    "Vocabulary",
    "artifact_predict",
    "baseline_classify",
    "baseline_report",
    "build_vocabulary",
    "corpus_stats",
    "deserialize_model",
    "evaluate",
    "format_report",
    "format_stats",
    "load_emoticon_table",
    "load_opinion_lexicon",
    "maxent_predict",
    "maxent_train",
    "nb_predict",
    "nb_train",
    "ngram_counts",
    "normalize_batch",
    "normalize_tweet",
    "normalize_word",
    "parse_labeled_csv",
    "parse_unlabeled_csv",
    "read_vocabulary_file",
    "serialize_model",
    "split_dataset",
    "vectorize",
    "write_vocabulary_file",
]
