"""Seeded synthetic tweet corpora and the benchmark's workload table.

Words come from a pool of pronounceable pseudo-words drawn with a Zipf
law, P(rank r) proportional to (r + offset) ** -exponent.  Each class owns
a list of sentiment words that its tweets draw more often than the other
class does, and the lexicon files the baseline reads list most of them.
On top of the words, tweets carry the markers the normalizer rewrites:
emoticons (some glued to a word), URLs, @mentions, hashtags, "rt",
elongations ("sooooo"), apostrophes, capitals and edge punctuation.

Everything is drawn from one numpy Generator seeded by the caller, so the
same seed writes byte-identical files.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

_CONSONANTS = "bcdfghjklmnpqrstvwz"
_VOWELS = "aeiou"
_SYLLABLES = [c + v for c in _CONSONANTS for v in _VOWELS]

_POSITIVE_EMOTICONS = (":)", ":-)", ":d", "xd", ";)", "<3", "(:", ":')")
_NEGATIVE_EMOTICONS = (":(", ":-(", "):", ":'(")
_CONTRACTIONS = ("don't", "can't", "i'm", "it's", "won't", "that's", "isn't", "you're")
_PUNCTUATION = ("!", ".", ",", "?", "...", "!!")

#: Marker kinds whose per-tweet share the input properties report.
MARKERS = ("emoticon", "url", "mention", "hashtag", "rt", "elongation", "apostrophe")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: CLI settings plus generator parameters."""

    name: str
    why: str
    model: str  # "nb" or "maxent"
    features: str  # "frequency" or "presence"
    trainer: str | None  # MaxEnt trainer, "gis" or "iis"
    iterations: int | None  # MaxEnt updates, pinned by a 1e-12 tolerance
    n_train: int
    n_eval: int
    n_predict: int
    pool_size: int  # distinct words the Zipf law draws from
    exponent: float
    offset: float
    mean_words: int  # plain words per tweet, before markers
    sentiment_share: float  # chance a word slot draws from its class's list
    sentiment_words: int  # size of each class's sentiment list

    @property
    def train_args(self) -> tuple:
        """The `tweetiment train` flags that select this workload's model."""
        args = ("--model", self.model, "--features", self.features)
        if self.model == "maxent":
            args += ("--trainer", self.trainer, "--max-iter", str(self.iterations),
                     "--tol", repr(PINNED_TOLERANCE))
        return args


#: A MaxEnt tolerance no iteration meets, so training runs every update.
PINNED_TOLERANCE = 1e-12

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="nb_zipf",
            why=(
                "Naive Bayes on head-heavy Zipfian text: parse, normalize, vocabulary, "
                "vectorize and per-doc NB predict do all the work; heavy word repeats "
                "suit a normalize cache"
            ),
            model="nb",
            features="frequency",
            trainer=None,
            iterations=None,
            n_train=8000,
            n_eval=2000,
            n_predict=8000,
            pool_size=60000,
            exponent=1.32,
            offset=2.0,
            mean_words=14,
            sentiment_share=0.2,
            sentiment_words=300,
        ),
        Workload(
            name="maxent_iis",
            why=(
                "MaxEnt by IIS, the CLI default, with iterations pinned: the per-pair "
                "Newton loop takes most of train time and the text layers are a small share"
            ),
            model="maxent",
            features="frequency",
            trainer="iis",
            iterations=4,
            n_train=4000,
            n_eval=2000,
            n_predict=4000,
            pool_size=60000,
            exponent=1.32,
            offset=2.0,
            mean_words=14,
            sentiment_share=0.2,
            sentiment_words=300,
        ),
        Workload(
            name="gis_longtail",
            why=(
                "MaxEnt by GIS on long-tail text with presence features: vocabulary build "
                "over many distinct bigrams leads train time and RSS; normalize sees few repeats"
            ),
            model="maxent",
            features="presence",
            trainer="gis",
            iterations=100,
            n_train=8000,
            n_eval=2000,
            n_predict=8000,
            pool_size=600000,
            exponent=1.05,
            offset=20.0,
            mean_words=22,
            sentiment_share=0.15,
            sentiment_words=600,
        ),
    )
}


def pool_word(rank: int) -> str:
    """The pseudo-word of a pool rank: base-95 digits spelled as syllables.

    Consonant-vowel syllables never form a three-letter run, so the
    normalizer keeps every pool word as it is.
    """
    syllables = []
    rank += 1
    while rank:
        rank, digit = divmod(rank - 1, len(_SYLLABLES))
        syllables.append(_SYLLABLES[digit])
    return "".join(reversed(syllables))


def _zipf_cdf(size: int, exponent: float, offset: float) -> np.ndarray:
    weights = (np.arange(size, dtype=float) + offset) ** -exponent
    return np.cumsum(weights / weights.sum())


@dataclass(frozen=True)
class Corpus:
    """Generated labeled and unlabeled tweets plus the two lexicon word lists."""

    train: list  # (tweet_id, label, text)
    eval: list  # (tweet_id, label, text)
    predict: list  # (tweet_id, text)
    positive_words: list
    negative_words: list
    markers: dict  # marker kind -> number of train tweets carrying it


class _Writer:
    """Draws tweets for one corpus from a single seeded generator."""

    def __init__(self, workload: Workload, seed: int):
        self.w = workload
        self.rng = np.random.default_rng(seed)
        self.cdf = _zipf_cdf(workload.pool_size, workload.exponent, workload.offset)
        # Sentiment words sit in the frequent part of the pool, interleaved
        # so neither class owns the more frequent ranks.  Row c is class c.
        ranks = np.arange(40, 40 + 2 * workload.sentiment_words)
        self.sentiment = np.stack([ranks[0::2], ranks[1::2]])
        self.sentiment_cdf = _zipf_cdf(workload.sentiment_words, 1.0, 2.0)
        self.words: dict = {}
        self.markers = dict.fromkeys(MARKERS, 0)

    def _word_ranks(self, labels: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        rng, share = self.rng, self.w.sentiment_share
        total = int(lengths.sum())
        word_labels = np.repeat(labels, lengths)
        slots = rng.random(total)
        general = np.searchsorted(self.cdf, rng.random(total))
        pick = np.searchsorted(self.sentiment_cdf, rng.random(total))
        own = self.sentiment[word_labels, pick]
        other = self.sentiment[1 - word_labels, pick]
        # The other class's words show up at a quarter of the rate, so
        # labels stay learnable but not separable.
        return np.where(slots < share, own, np.where(slots < 1.25 * share, other, general))

    def tweets(self, labels: np.ndarray) -> list:
        """One tweet text per label."""
        w, rng = self.w, self.rng
        n = len(labels)
        lengths = rng.integers(w.mean_words // 2, w.mean_words * 3 // 2 + 1, size=n)
        ranks = self._word_ranks(labels, lengths)
        for rank in np.unique(ranks).tolist():
            if rank not in self.words:
                self.words[rank] = pool_word(rank)
        all_words = [self.words[r] for r in ranks.tolist()]
        draws = rng.random((n, 12)).tolist()
        places = rng.random((n, 9)).tolist()
        url_ids = rng.integers(1 << 40, size=n).tolist()
        users = (np.searchsorted(self.cdf, rng.random(n)) % 5000).tolist()
        ends = np.cumsum(lengths).tolist()
        texts = []
        start = 0
        for t in range(n):
            words = all_words[start : ends[t]]
            start = ends[t]
            texts.append(
                self._decorate(words, int(labels[t]), draws[t], places[t], url_ids[t], users[t])
            )
        return texts

    def _decorate(self, words, label, draw, place, url_id, user) -> str:
        def at(k):
            return int(place[k] * len(words))

        def choose(k, options):
            return options[int(place[k] * len(options))]

        carried = set()
        if draw[0] < 0.15:
            i = at(0)
            words[i] = words[i] + words[i][-1] * (2 + int(draw[1] * 4))
            carried.add("elongation")
        if draw[2] < 0.12:
            words[at(1)] = choose(2, _CONTRACTIONS)
            carried.add("apostrophe")
        if draw[3] < 0.06:
            i = at(3)
            words[i] = words[i] + "'s"
            carried.add("apostrophe")
        if draw[4] < 0.10:
            i = at(4)
            words[i] = "#" + words[i]
            carried.add("hashtag")
        if draw[5] < 0.15:
            i = at(5)
            words[i] = words[i].upper() if draw[1] < 0.3 else words[i].capitalize()
        if draw[6] < 0.35:
            i = at(6)
            words[i] = words[i] + choose(7, _PUNCTUATION)
        if draw[7] < 0.25:
            own_side = draw[8] < 0.8
            forms = _POSITIVE_EMOTICONS if (label == 1) == own_side else _NEGATIVE_EMOTICONS
            emoticon = choose(8, forms)
            if draw[9] < 0.3:
                words[-1] = words[-1] + emoticon  # glued: "bye:("
            else:
                words.insert(at(7), emoticon)
            carried.add("emoticon")
        if draw[10] < 0.12:
            words.append(f"http://t.co/{url_id:x}")
            carried.add("url")
        if draw[11] < 0.30:
            words.insert(0, f"@user{user}")
            carried.add("mention")
            if draw[9] > 0.75:
                words.insert(0, "RT" if draw[8] > 0.9 else "rt")
                carried.add("rt")
        for kind in carried:
            self.markers[kind] += 1
        return " ".join(words)


def generate(workload: Workload, seed: int) -> Corpus:
    """Draw a workload's train, eval and predict tweets under `seed`.

    Labels alternate so both classes have the same size.  Markers are
    counted over the train tweets only.
    """
    writer = _Writer(workload, seed)
    labels = np.arange(workload.n_train) % 2
    train = list(zip(range(1, workload.n_train + 1), labels.tolist(), writer.tweets(labels)))
    markers = dict(writer.markers)
    base = workload.n_train
    labels = np.arange(workload.n_eval) % 2
    evaluation = list(
        zip(range(base + 1, base + workload.n_eval + 1), labels.tolist(), writer.tweets(labels))
    )
    base += workload.n_eval
    predict = list(
        zip(
            range(base + 1, base + workload.n_predict + 1),
            writer.tweets(np.arange(workload.n_predict) % 2),
        )
    )
    positive, negative = (
        [pool_word(r) for r in ranks[: len(ranks) * 4 // 5].tolist()]
        for ranks in (writer.sentiment[1], writer.sentiment[0])
    )
    return Corpus(train, evaluation, predict, positive, negative, markers)


def _write_csv(rows, header, path):
    with open(path, "w", encoding="utf-8", newline="") as sink:
        writer = csv.writer(sink, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_lexicon(words, path):
    with open(path, "w", encoding="utf-8") as sink:
        sink.write("; synthetic opinion lexicon\n")
        sink.writelines(word + "\n" for word in words)


def write_files(corpus: Corpus, directory) -> dict:
    """Write the corpus as the CSVs and lexicon files the CLI reads.

    Returns the paths by role: train, eval, predict, one (a one-tweet
    predict file), positive and negative.
    """
    paths = {
        role: f"{directory}/{name}"
        for role, name in (
            ("train", "train.csv"),
            ("eval", "eval.csv"),
            ("predict", "predict.csv"),
            ("one", "one.csv"),
            ("positive", "positive-words.txt"),
            ("negative", "negative-words.txt"),
        )
    }
    _write_csv(corpus.train, ("tweet_id", "sentiment", "tweet"), paths["train"])
    _write_csv(corpus.eval, ("tweet_id", "sentiment", "tweet"), paths["eval"])
    _write_csv(corpus.predict, ("tweet_id", "tweet"), paths["predict"])
    _write_csv(corpus.predict[:1], ("tweet_id", "tweet"), paths["one"])
    _write_lexicon(corpus.positive_words, paths["positive"])
    _write_lexicon(corpus.negative_words, paths["negative"])
    return paths


def input_properties(corpus: Corpus) -> dict:
    """Properties of the raw train text that the program's cost depends on.

    Words are lowercased whitespace-separated fields, as a normalize
    cache keyed on them would see them.
    """
    n_words = 0
    distinct_words: set = set()
    distinct_bigrams: set = set()
    for _, _, text in corpus.train:
        words = text.lower().split()
        n_words += len(words)
        distinct_words.update(words)
        distinct_bigrams.update(zip(words, words[1:]))
    n_tweets = len(corpus.train)
    properties = {
        "distinct_word_share": len(distinct_words) / n_words,
        "distinct_bigrams": len(distinct_bigrams),
        "mean_words": n_words / n_tweets,
    }
    for kind in MARKERS:
        properties[f"{kind}_share"] = corpus.markers[kind] / n_tweets
    return properties
