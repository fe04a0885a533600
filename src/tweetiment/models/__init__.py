"""The three classifiers: lexicon baseline, Naive Bayes, MaxEnt."""

from tweetiment.models.baseline import (
    OpinionLexicon,
    baseline_classify,
    load_opinion_lexicon,
)
from tweetiment.models.naive_bayes import NaiveBayesModel, nb_predict, nb_train
from tweetiment.models.maxent import (
    MaxEntModel,
    TrainerConfig,
    maxent_predict,
    maxent_train,
)

__all__ = [
    "OpinionLexicon",
    "baseline_classify",
    "load_opinion_lexicon",
    "NaiveBayesModel",
    "nb_predict",
    "nb_train",
    "MaxEntModel",
    "TrainerConfig",
    "maxent_predict",
    "maxent_train",
]
