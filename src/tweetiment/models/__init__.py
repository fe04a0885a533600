"""The three classifiers: lexicon baseline, Naive Bayes, MaxEnt.

Each name is imported from its module when it is first used (PEP 562)."""

from tweetiment import _lazy_exports

_EXPORTS = {  # module -> the names taken from it
    "baseline": ("OpinionLexicon", "baseline_classify", "load_opinion_lexicon"),
    "naive_bayes": ("NaiveBayesModel", "nb_predict", "nb_train"),
    "maxent": ("MaxEntModel", "TrainerConfig", "maxent_predict", "maxent_train"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__getattr__ = _lazy_exports(globals(), _EXPORTS)
