"""Command line interface.

Subcommands mirror the workflow stages: preprocess, stats, train,
predict, eval, split.  Every command reads raw tweet CSVs and runs the
normalizer itself; preprocess exists to export the normalized form.
Each command returns its output files, as (path, writer) pairs, and its
stdout text; `main` writes the files in order and only then prints, so a
command that fails prints nothing on stdout.

Exit codes: 0 success, 2 usage error, 3 data error, 4 model-format
error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from datetime import datetime, timezone
from functools import partial
from itertools import islice

from tweetiment import dataio
from tweetiment.config import SETTINGS, fill_settings
from tweetiment.errors import DataError, ModelFormatError
# evaluation and models.baseline are imported by stats and eval, which use
# them, so that train and predict neither compile nor run them
from tweetiment.features import build_vocabulary, document_matrix
from tweetiment.models.maxent import TrainerConfig, maxent_train
from tweetiment.models.naive_bayes import nb_train
from tweetiment.normalize import DEFAULT_EMOTICONS, load_emoticon_table, normalize_batch
from tweetiment.serialize import (
    ModelArtifact,
    TrainingMetadata,
    artifact_predict_many,
    deserialize_model,
    serialize_model,
    write_vocabulary_file,
)

#: Rows that predict and eval read, normalize and score at a time, so that
#: only the ids and labels grow with the file: four of the 256-row blocks
#: scoring takes.  On an 8,000-row long-tail file, 512 rows took more time
#: and 2,048 more memory.
_CHUNK_ROWS = 1024


def _emoticon_table(args):
    if (args.emoticons_pos is None) != (args.emoticons_neg is None):
        raise DataError("custom emoticons need both a positive and a negative file")
    if args.emoticons_pos is None:
        return DEFAULT_EMOTICONS
    return load_emoticon_table(args.emoticons_pos, args.emoticons_neg)


def _open_read(path):
    # utf-8-sig drops a leading byte-order mark, which would otherwise
    # glue itself to the first tweet id of a headerless CSV.
    return open(path, encoding="utf-8-sig", newline="")


def _read_rows(args, labeled: bool = True):
    """Yield the input CSV's (tweet_id, label, text) rows, opening the file
    when the first is taken."""
    with _open_read(args.input) as stream:
        try:
            yield from dataio.parse_rows(stream, labeled, args.lenient)
        except UnicodeDecodeError as error:
            raise DataError(f"cannot read CSV file {args.input}: {error}") from None


def _read_model(path) -> ModelArtifact:
    with _open_read(path) as source:
        return deserialize_model(source)


def _read_tweets(args, labeled: bool = True, chunk_rows=None):
    """The emoticon table, then the model of predict and eval, then the CSV.

    Returns the model (None for the other commands) and an iterator over
    the CSV's chunks of `chunk_rows` rows (all rows, as one chunk, when
    None): per chunk the tweet ids, the labels, and the tweets normalized
    into one TokenBatch, read as the chunk is taken.  Texts are not kept.
    """
    table = _emoticon_table(args)
    artifact = _read_model(args.model_file) if "model_file" in args else None
    return artifact, _chunks(_read_rows(args, labeled), table, chunk_rows)


def _chunks(rows, table, size):
    # One parse_rows generator across the chunks keeps its line numbers
    # and duplicate-id check for the whole file.  The last chunk is the
    # first short one, so it may be empty.
    while True:
        ids, labels = [], []

        def texts():
            for tweet_id, label, text in islice(rows, size):
                ids.append(tweet_id)
                labels.append(label)
                yield text

        yield ids, labels, normalize_batch(texts(), table)
        if size is None or len(ids) < size:
            return


def _cmd_preprocess(args):
    _, [(ids, labels, batch)] = _read_tweets(args, labeled=not args.unlabeled)
    write = partial(dataio.write_normalized_csv, zip(ids, labels, batch), labeled=not args.unlabeled)
    return [(args.output, write)], f"normalized {len(ids)} tweets -> {args.output}"


def _write_rank_csv(ranking, sink):
    terms = ranking.terms()
    if ranking.bigrams:
        terms = [f"{first} {second}" for first, second in terms]
    rows = zip(range(1, len(terms) + 1), terms, ranking.counts.tolist())
    dataio.write_csv(sink, ("rank", "term", "count"), rows)


def _cmd_stats(args):
    from tweetiment.evaluation import corpus_stats, format_stats

    _, [(_, labels, batch)] = _read_tweets(args, labeled=not args.unlabeled)
    stats = corpus_stats(batch, labels)
    exports = (args.rank_unigrams, stats.unigrams), (args.rank_bigrams, stats.bigrams)
    outputs = [(path, partial(_write_rank_csv, counts.ranking)) for path, counts in exports if path]
    return outputs, format_stats(stats)


def _cmd_train(args):
    _, [(ids, labels, batch)] = _read_tweets(args)
    vocab = build_vocabulary(batch, n_unigrams=args.unigrams, n_bigrams=args.bigrams)
    corpus = [(document_matrix(batch, vocab, args.features), labels)]
    del batch  # the fit needs only the matrix, and the write not even that
    trained_at = datetime.now(timezone.utc).isoformat(timespec="seconds")

    trainer, alpha = None, None
    if args.model == "nb":
        kind, alpha = "naive_bayes", args.alpha
        model = nb_train(corpus, len(vocab), alpha=alpha)
        summary = (
            f"trained naive_bayes on {len(ids)} tweets "
            f"({len(vocab)} features, {args.features}, alpha={alpha})"
        )
    else:
        kind, trainer = "maxent", TrainerConfig(args.trainer, args.max_iter, args.tol)
        model = maxent_train(corpus, len(vocab), trainer)
        summary = (
            f"trained maxent ({trainer.algorithm}) on {len(ids)} tweets "
            f"({len(vocab)} features, {args.features}); "
            f"log-likelihood {model.ll_history[-1]:.6f} "
            f"after {len(model.ll_history) - 1} updates"
        )

    metadata = TrainingMetadata(len(ids), trained_at, args.features, trainer, alpha)
    artifact = ModelArtifact(kind=kind, vocabulary=vocab, model=model, metadata=metadata)
    outputs = [(args.output, partial(serialize_model, artifact))]
    if args.save_vocab:
        outputs.append((args.save_vocab, partial(write_vocabulary_file, vocab)))
    return outputs, f"{summary}\nmodel written to {args.output}"


def _cmd_predict(args):
    artifact, chunks = _read_tweets(args, labeled=False, chunk_rows=_CHUNK_ROWS)
    ids, predictions = [], []
    for chunk_ids, _, batch in chunks:
        ids += chunk_ids
        predictions += artifact_predict_many(artifact, batch)
        del batch  # freed before the next chunk is read
    write = partial(dataio.write_predictions_csv, zip(ids, predictions))
    return [(args.output, write)], f"predicted {len(ids)} tweets -> {args.output}"


def _write_report_csv(report, sink):
    rows = [
        ("model", report.model_name),
        ("n_docs", report.n_docs),
        ("accuracy", repr(report.accuracy)),
        ("true_negatives", report.true_negatives),
        ("false_positives", report.false_positives),
        ("false_negatives", report.false_negatives),
        ("true_positives", report.true_positives),
    ]
    if report.baseline_accuracy is not None:
        rows.append(("baseline_accuracy", repr(report.baseline_accuracy)))
    dataio.write_csv(sink, ("metric", "value"), rows)


def _cmd_eval(args):
    from tweetiment.evaluation import evaluate, format_report
    from tweetiment.models.baseline import baseline_predict_many, load_opinion_lexicon

    artifact, chunks = _read_tweets(args, chunk_rows=_CHUNK_ROWS)
    lexicon = load_opinion_lexicon(*args.baseline_lexicon) if args.baseline_lexicon else None
    labels, predictions, baseline = [], [], []
    for _, chunk_labels, batch in chunks:
        labels += chunk_labels
        predictions += artifact_predict_many(artifact, batch)
        if lexicon is not None:
            baseline += baseline_predict_many(batch, lexicon)
        del batch  # freed before the next chunk is read
    report = evaluate(predictions, labels, model_name=artifact.kind)
    if lexicon is not None:
        report = replace(report, baseline_accuracy=evaluate(baseline, labels).accuracy)
    outputs = [(args.report_csv, partial(_write_report_csv, report))] if args.report_csv else []
    return outputs, format_report(report)


def _cmd_split(args):
    rows = list(_read_rows(args))
    train, test = dataio.split_dataset(rows, ratio=args.ratio, seed=args.seed)
    outputs = [  # each generator binds its own part as it is made
        (path, partial(dataio.write_csv, header=dataio.LABELED_HEADER, rows=((i, int(s), t) for i, s, t in part)))
        for path, part in ((args.train_output, train), (args.test_output, test))
    ]
    return outputs, f"split {len(rows)} tweets into {len(train)} train / {len(test)} test"


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

    def setting(p, key, help_text, metavar=None):
        parse, default = SETTINGS[key]
        kind = {"choices": parse} if isinstance(parse, tuple) else {"type": parse}
        help_text = f"{help_text} (default {default})"
        p.add_argument("--" + key.replace("_", "-"), **kind, metavar=metavar, help=help_text)

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
    setting(p, "model", "classifier")
    setting(p, "features", "feature values")
    setting(p, "unigrams", "unigram vocabulary budget", "N")
    setting(p, "bigrams", "bigram vocabulary budget", "N")
    setting(p, "trainer", "maxent training algorithm")
    setting(p, "max_iter", "maxent iteration cap", "N")
    setting(p, "tol", "maxent log-likelihood tolerance", "X")
    setting(p, "alpha", "naive bayes smoothing", "X")
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
    setting(p, "ratio", "training fraction", "X")
    setting(p, "seed", "shuffle seed", "N")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        fill_settings(vars(args), args.config)
        outputs, text = args.handler(args)
        for path, write in outputs:
            with open(path, "w", encoding="utf-8", newline="") as sink:
                write(sink)
        print(text)
        return 0
    except ModelFormatError as error:
        print(f"error: {error}", file=sys.stderr)
        return 4
    except (DataError, OSError, UnicodeDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 3
    except ValueError as error:
        # out-of-range values, from a flag or a config file, that argparse
        # could not catch
        print(f"error: {error}", file=sys.stderr)
        return 2
