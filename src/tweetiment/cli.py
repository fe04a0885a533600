"""Command line interface.

Subcommands mirror the workflow stages: preprocess, stats, train,
predict, eval, split.  Every command reads raw tweet CSVs and runs the
normalizer itself; preprocess exists to export the normalized form.

Exit codes: 0 success, 2 usage error, 3 data error, 4 model-format
error.
"""

from __future__ import annotations

import argparse
import csv
import sys
from datetime import datetime, timezone

from tweetiment import dataio
from tweetiment.config import find_config_path, read_config_file, resolve
from tweetiment.errors import DataError, ModelFormatError
from tweetiment.evaluation import (
    baseline_report,
    corpus_stats,
    evaluate,
    format_report,
    format_stats,
)
from tweetiment.features import (
    DEFAULT_BIGRAM_BUDGET,
    DEFAULT_UNIGRAM_BUDGET,
    FEATURE_MODES,
    FREQUENCY,
    bigram_frequencies,
    build_vocabulary,
    rank_frequency,
    unigram_frequencies,
    vectorize,
)
from tweetiment.models.baseline import load_opinion_lexicon
from tweetiment.models.maxent import TrainerConfig, maxent_train
from tweetiment.models.naive_bayes import nb_train
from tweetiment.normalize import DEFAULT_EMOTICONS, load_emoticon_table, normalize_tweet
from tweetiment.serialize import (
    ModelArtifact,
    TrainingMetadata,
    artifact_predict_many,
    deserialize_model,
    serialize_model,
    write_vocabulary_file,
)

_KIND_BY_MODEL_FLAG = {"nb": "naive_bayes", "maxent": "maxent"}


def _choice(allowed):
    def convert(value: str) -> str:
        if value not in allowed:
            raise ValueError(value)
        return value

    return convert


def _load_config(args) -> dict:
    path = find_config_path(args.config)
    return read_config_file(path) if path is not None else {}


def _emoticon_table(args, config):
    positive = resolve(args.emoticons_pos, config, "emoticons_pos", None)
    negative = resolve(args.emoticons_neg, config, "emoticons_neg", None)
    if (positive is None) != (negative is None):
        raise DataError("custom emoticons need both a positive and a negative file")
    if positive is None:
        return DEFAULT_EMOTICONS
    return load_emoticon_table(positive, negative)


def _open_read(path):
    # utf-8-sig drops a leading byte-order mark, which would otherwise
    # glue itself to the first tweet id of a headerless CSV.
    return open(path, encoding="utf-8-sig", newline="")


def _open_write(path):
    return open(path, "w", encoding="utf-8", newline="")


def _read_csv(path, parse, lenient: bool) -> list:
    with _open_read(path) as stream:
        try:
            return list(parse(stream, lenient=lenient))
        except UnicodeDecodeError as error:
            raise DataError(f"cannot read CSV file {path}: {error}") from None


def _read_labeled(path, lenient: bool) -> list:
    return _read_csv(path, dataio.parse_labeled_csv, lenient)


def _read_unlabeled(path, lenient: bool) -> list:
    return _read_csv(path, dataio.parse_unlabeled_csv, lenient)


def _read_model(path) -> ModelArtifact:
    with _open_read(path) as source:
        return deserialize_model(source)


def _cmd_preprocess(args) -> int:
    config = _load_config(args)
    table = _emoticon_table(args, config)
    if args.unlabeled:
        records = _read_unlabeled(args.input, args.lenient)
        rows = [(r.tweet_id, None, normalize_tweet(r.text, table)) for r in records]
    else:
        records = _read_labeled(args.input, args.lenient)
        rows = [(r.tweet_id, r.sentiment, normalize_tweet(r.text, table)) for r in records]
    with _open_write(args.output) as sink:
        dataio.write_normalized_csv(rows, sink, labeled=not args.unlabeled)
    print(f"normalized {len(rows)} tweets -> {args.output}")
    return 0


def _write_rank_csv(entries, path):
    with _open_write(path) as sink:
        writer = csv.writer(sink, lineterminator="\n")
        writer.writerow(["rank", "term", "count"])
        for rank, term, count in entries:
            if isinstance(term, tuple):
                term = " ".join(term)
            writer.writerow([rank, term, count])


def _cmd_stats(args) -> int:
    config = _load_config(args)
    table = _emoticon_table(args, config)
    if args.unlabeled:
        records = _read_unlabeled(args.input, args.lenient)
        pairs = [(normalize_tweet(r.text, table), None) for r in records]
    else:
        records = _read_labeled(args.input, args.lenient)
        pairs = [(normalize_tweet(r.text, table), r.sentiment) for r in records]
    print(format_stats(corpus_stats(pairs)))
    corpus = [tokens for tokens, _ in pairs]
    if args.rank_unigrams:
        _write_rank_csv(rank_frequency(unigram_frequencies(corpus)), args.rank_unigrams)
    if args.rank_bigrams:
        _write_rank_csv(rank_frequency(bigram_frequencies(corpus)), args.rank_bigrams)
    return 0


def _cmd_train(args) -> int:
    config = _load_config(args)
    table = _emoticon_table(args, config)
    model_flag = resolve(args.model, config, "model", "nb", _choice(_KIND_BY_MODEL_FLAG))
    mode = resolve(args.features, config, "features", FREQUENCY, _choice(FEATURE_MODES))
    n_unigrams = resolve(args.unigrams, config, "unigrams", DEFAULT_UNIGRAM_BUDGET, int)
    n_bigrams = resolve(args.bigrams, config, "bigrams", DEFAULT_BIGRAM_BUDGET, int)

    records = _read_labeled(args.input, args.lenient)
    tweets = [normalize_tweet(r.text, table) for r in records]
    vocab = build_vocabulary(tweets, n_unigrams=n_unigrams, n_bigrams=n_bigrams)
    corpus = [
        (vectorize(tokens, vocab, mode), record.sentiment)
        for tokens, record in zip(tweets, records)
    ]
    trained_at = datetime.now(timezone.utc).isoformat(timespec="seconds")

    if model_flag == "nb":
        alpha = resolve(args.alpha, config, "alpha", 1.0, float)
        model = nb_train(corpus, len(vocab), alpha=alpha)
        metadata = TrainingMetadata(
            n_docs=len(corpus), trained_at=trained_at, feature_mode=mode, alpha=alpha
        )
        summary = (
            f"trained naive_bayes on {len(corpus)} tweets "
            f"({len(vocab)} features, {mode}, alpha={alpha})"
        )
    else:
        trainer = TrainerConfig(
            algorithm=resolve(args.trainer, config, "trainer", "iis", _choice(("gis", "iis"))),
            max_iterations=resolve(args.max_iter, config, "max_iter", 100, int),
            ll_tolerance=resolve(args.tol, config, "tol", 1e-6, float),
        )
        model = maxent_train(corpus, len(vocab), trainer)
        metadata = TrainingMetadata(
            n_docs=len(corpus), trained_at=trained_at, feature_mode=mode, trainer=trainer
        )
        summary = (
            f"trained maxent ({trainer.algorithm}) on {len(corpus)} tweets "
            f"({len(vocab)} features, {mode}); "
            f"log-likelihood {model.ll_history[-1]:.6f} "
            f"after {len(model.ll_history) - 1} updates"
        )

    artifact = ModelArtifact(
        kind=_KIND_BY_MODEL_FLAG[model_flag],
        vocabulary=vocab,
        model=model,
        metadata=metadata,
    )
    with _open_write(args.output) as sink:
        serialize_model(artifact, sink)
    if args.save_vocab:
        with _open_write(args.save_vocab) as sink:
            write_vocabulary_file(vocab, sink)
    print(summary)
    print(f"model written to {args.output}")
    return 0


def _cmd_predict(args) -> int:
    config = _load_config(args)
    table = _emoticon_table(args, config)
    artifact = _read_model(args.model_file)
    records = _read_unlabeled(args.input, args.lenient)
    labels = artifact_predict_many(artifact, (normalize_tweet(r.text, table) for r in records))
    with _open_write(args.output) as sink:
        dataio.write_predictions_csv(zip((r.tweet_id for r in records), labels), sink)
    print(f"predicted {len(records)} tweets -> {args.output}")
    return 0


def _write_report_csv(report, path):
    with _open_write(path) as sink:
        writer = csv.writer(sink, lineterminator="\n")
        writer.writerow(["metric", "value"])
        writer.writerow(["model", report.model_name])
        writer.writerow(["n_docs", report.n_docs])
        writer.writerow(["accuracy", repr(report.accuracy)])
        writer.writerow(["true_negatives", report.true_negatives])
        writer.writerow(["false_positives", report.false_positives])
        writer.writerow(["false_negatives", report.false_negatives])
        writer.writerow(["true_positives", report.true_positives])
        if report.baseline_accuracy is not None:
            writer.writerow(["baseline_accuracy", repr(report.baseline_accuracy)])


def _cmd_eval(args) -> int:
    config = _load_config(args)
    table = _emoticon_table(args, config)
    artifact = _read_model(args.model_file)
    records = _read_labeled(args.input, args.lenient)
    pairs = [(normalize_tweet(r.text, table), r.sentiment) for r in records]
    predictions = artifact_predict_many(artifact, (tokens for tokens, _ in pairs))
    if args.baseline_lexicon:
        lexicon = load_opinion_lexicon(*args.baseline_lexicon)
        report = baseline_report(pairs, lexicon, predictions, model_name=artifact.kind)
    else:
        report = evaluate(predictions, [label for _, label in pairs], model_name=artifact.kind)
    print(format_report(report))
    if args.report_csv:
        _write_report_csv(report, args.report_csv)
    return 0


def _cmd_split(args) -> int:
    config = _load_config(args)
    ratio = resolve(args.ratio, config, "ratio", 0.8, float)
    seed = resolve(args.seed, config, "seed", 1, int)
    records = _read_labeled(args.input, args.lenient)
    train, test = dataio.split_dataset(records, ratio=ratio, seed=seed)
    with _open_write(args.train_output) as sink:
        dataio.write_labeled_csv(train, sink)
    with _open_write(args.test_output) as sink:
        dataio.write_labeled_csv(test, sink)
    print(f"split {len(records)} tweets into {len(train)} train / {len(test)} test")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tweetiment", description="Tweet sentiment classification toolkit."
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def command(name, handler, help_text, emoticons=True):
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--config", help="settings file; overrides $TWEETIMENT_CONFIG")
        p.add_argument(
            "--lenient",
            action="store_true",
            help="rejoin unquoted commas into the tweet field instead of erroring",
        )
        if emoticons:
            p.add_argument("--emoticons-pos", metavar="FILE", help="positive emoticon list")
            p.add_argument("--emoticons-neg", metavar="FILE", help="negative emoticon list")
        return p

    p = command("preprocess", _cmd_preprocess, "Normalize raw tweets into a token CSV.")
    p.add_argument("input", help="raw tweet CSV")
    p.add_argument("output", help="normalized CSV destination")
    p.add_argument("--unlabeled", action="store_true", help="input has no sentiment column")

    p = command("stats", _cmd_stats, "Print corpus statistics; optionally export rank-frequency CSVs.")
    p.add_argument("input", help="raw tweet CSV")
    p.add_argument("--unlabeled", action="store_true", help="input has no sentiment column")
    p.add_argument("--rank-unigrams", metavar="PATH", help="write unigram rank,term,count CSV")
    p.add_argument("--rank-bigrams", metavar="PATH", help="write bigram rank,term,count CSV")

    p = command("train", _cmd_train, "Train a classifier on a labeled CSV and save it.")
    p.add_argument("input", help="labeled tweet CSV")
    p.add_argument("output", help="model file destination")
    p.add_argument("--model", choices=sorted(_KIND_BY_MODEL_FLAG))
    p.add_argument("--features", choices=sorted(FEATURE_MODES))
    p.add_argument("--unigrams", type=int, metavar="N", help="unigram vocabulary budget")
    p.add_argument("--bigrams", type=int, metavar="N", help="bigram vocabulary budget")
    p.add_argument("--trainer", choices=("gis", "iis"), help="maxent training algorithm")
    p.add_argument("--max-iter", type=int, metavar="N", help="maxent iteration cap")
    p.add_argument("--tol", type=float, metavar="X", help="maxent log-likelihood tolerance")
    p.add_argument("--alpha", type=float, metavar="X", help="naive bayes smoothing")
    p.add_argument("--save-vocab", metavar="PATH", help="also write the vocabulary file")

    p = command("predict", _cmd_predict, "Classify unlabeled tweets with a saved model.")
    p.add_argument("model_file", metavar="model", help="saved model file")
    p.add_argument("input", help="unlabeled tweet CSV")
    p.add_argument("output", help="prediction CSV destination")

    p = command("eval", _cmd_eval, "Score a saved model against labeled tweets.")
    p.add_argument("model_file", metavar="model", help="saved model file")
    p.add_argument("input", help="labeled tweet CSV")
    p.add_argument(
        "--baseline-lexicon",
        nargs=2,
        metavar=("POS_WORDS", "NEG_WORDS"),
        help="also score the word-counting baseline from these lexicon files",
    )
    p.add_argument("--report-csv", metavar="PATH", help="write a metric,value CSV")

    p = command("split", _cmd_split, "Shuffle and split a labeled CSV.", emoticons=False)
    p.add_argument("input", help="labeled tweet CSV")
    p.add_argument("train_output", help="training CSV destination")
    p.add_argument("test_output", help="test CSV destination")
    p.add_argument("--ratio", type=float, help="training fraction (default 0.8)")
    p.add_argument("--seed", type=int, help="shuffle seed (default 1)")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ModelFormatError as error:
        print(f"error: {error}", file=sys.stderr)
        return 4
    except (DataError, OSError, UnicodeDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 3
    except ValueError as error:
        # bad parameter values that argparse could not catch (e.g. from a
        # config file or out-of-range numbers)
        print(f"error: {error}", file=sys.stderr)
        return 2
