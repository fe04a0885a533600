"""Tweet sentiment classification toolkit.

Normalizes raw tweets into canonical token lists, builds frequency-ranked
n-gram vocabularies, and trains/evaluates three classifiers: a lexicon
counting baseline, multinomial Naive Bayes, and a MaxEnt model fit by
iterative scaling.

Each public name is imported from its module when it is first used
(PEP 562), so `import tweetiment` loads no submodule, and each CLI
command loads only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {  # module -> the names taken from it
    "dataio": (
        "LabeledRecord", "UnlabeledRecord", "parse_labeled_csv", "parse_unlabeled_csv",
        "split_dataset",
    ),
    "errors": ("DataError", "LexiconConflictError", "ModelFormatError", "TweetimentError"),
    "evaluation": (
        "CorpusStats", "EvaluationReport", "baseline_report", "corpus_stats", "evaluate",
        "format_report", "format_stats",
    ),
    "features": ("FREQUENCY", "PRESENCE", "Vocabulary", "build_vocabulary", "ngram_counts", "vectorize"),
    "models": (
        "MaxEntModel", "NaiveBayesModel", "OpinionLexicon", "TrainerConfig", "baseline_classify",
        "load_opinion_lexicon", "maxent_predict", "maxent_train", "nb_predict", "nb_train",
    ),
    "normalize": (
        "DEFAULT_EMOTICONS", "EmoticonTable", "TokenBatch", "load_emoticon_table",
        "normalize_batch", "normalize_tweet", "normalize_word",
    ),
    "sentiment": ("Sentiment",),
    "serialize": (
        "ModelArtifact", "TrainingMetadata", "artifact_predict", "deserialize_model",
        "read_vocabulary_file", "serialize_model", "write_vocabulary_file",
    ),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)


def _lazy_exports(namespace: dict, exports: dict):
    """The PEP 562 `__getattr__` of the package whose globals are
    `namespace`.  It takes a name of `exports` (module -> names) from its
    module, imports any other public name as a submodule, and keeps what it
    found in `namespace`, so that each name is looked up once."""
    package = namespace["__name__"]
    homes = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name):
        missing = AttributeError(f"module {package!r} has no attribute {name!r}")
        if name in homes:
            value = getattr(importlib.import_module(f"{package}.{homes[name]}"), name)
        elif name.startswith("_"):  # such as __main__, which would run the CLI
            raise missing
        else:
            try:
                value = importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as error:
                if error.name != f"{package}.{name}":  # a module that the submodule imports
                    raise
                raise missing from None
        namespace[name] = value
        return value

    return __getattr__


__getattr__ = _lazy_exports(globals(), _EXPORTS)
