"""Dataset CSV ingestion, word-list files, output writers, and the train/test split.

Every tweet CSV is parsed by `parse_rows`: comma-separated with RFC-4180
quoting, an optional header row, and integer tweet ids.  Labeled rows
are `tweet_id,sentiment,tweet` with sentiment a literal 0 or 1;
unlabeled rows drop the sentiment column.  Every CSV is written by `write_csv`.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass
from math import floor

from tweetiment.errors import DataError
from tweetiment.sentiment import Sentiment

LABELED_HEADER = ("tweet_id", "sentiment", "tweet")

# A labeled row's sentiment field -> its label; no other field is a label.
_SENTIMENTS = {"0": Sentiment.NEGATIVE, "1": Sentiment.POSITIVE}


@dataclass(frozen=True, slots=True)
class LabeledRecord:
    tweet_id: int
    sentiment: Sentiment
    text: str


@dataclass(frozen=True, slots=True)
class UnlabeledRecord:
    tweet_id: int
    text: str
    sentiment: None = None  # no label; lets code read both record kinds alike


def read_line_list(path, kind: str, comment: str) -> frozenset[str]:
    """The stripped, non-blank lines of a one-entry-per-line UTF-8 file
    that do not start with `comment`.  A leading byte-order mark is
    dropped; bytes that do not decode raise DataError naming the file."""
    try:
        with open(path, encoding="utf-8-sig") as handle:
            lines = {line.strip() for line in handle}
    except UnicodeDecodeError as error:
        raise DataError(f"cannot read {kind} file {path}: {error}") from None
    return frozenset(line for line in lines if line and not line.startswith(comment))


def _is_int(field: str) -> bool:
    try:
        int(field)
    except ValueError:
        return False
    return True


def _strip_quote_pair(text: str) -> str:
    # Some exports wrap the tweet field in literal double quotes that
    # survive CSV parsing; peel exactly one pair.
    if len(text) >= 2 and text.startswith('"') and text.endswith('"'):
        return text[1:-1]
    return text


def _parse_id(field: str, line: int, seen: set) -> int:
    # only what the id is written back as: no sign but a minus, no
    # underscores, spaces or non-ASCII digits
    digits = field[1:] if field.startswith("-") else field
    if not (digits.isascii() and digits.isdigit()):
        raise DataError(f"line {line}: tweet_id {field!r} is not an integer")
    tweet_id = int(field)
    if tweet_id in seen:
        raise DataError(f"line {line}: duplicate tweet_id {tweet_id}")
    seen.add(tweet_id)
    return tweet_id


def parse_rows(stream, labeled: bool, lenient: bool = False):
    """Yield (tweet_id, Sentiment or None, text) per row of a `labeled`
    `tweet_id,sentiment,tweet` stream, or else of a `tweet_id,tweet` stream,
    skipping an optional header row.  Rows with extra fields are malformed,
    unless `lenient` rejoins the overflow into the text (an unquoted tweet
    containing commas).  A quoted field must be closed, and only a comma or
    the line end may follow its closing quote.
    """
    n_columns = 2 + labeled
    reader = csv.reader(stream, strict=True)
    seen: set = set()
    first = True
    line = 0
    try:
        for row in reader:
            line = reader.line_num
            if not row:
                continue
            if first:
                first = False
                if not _is_int(row[0]):
                    continue  # header
            if len(row) < n_columns:
                raise DataError(f"line {line}: expected {n_columns} fields, got {len(row)}")
            if len(row) > n_columns:
                if not lenient:
                    raise DataError(
                        f"line {line}: expected {n_columns} fields, got {len(row)} "
                        "(use lenient parsing for unquoted commas)"
                    )
                row = row[: n_columns - 1] + [",".join(row[n_columns - 1 :])]
            tweet_id = _parse_id(row[0], line, seen)
            sentiment = _SENTIMENTS.get(row[1]) if labeled else None
            if labeled and sentiment is None:
                raise DataError(f"line {line}: sentiment must be 0 or 1, got {row[1]!r}")
            yield tweet_id, sentiment, _strip_quote_pair(row[-1])
    except csv.Error as error:  # bad quoting, or a field over csv.field_size_limit()
        raise DataError(f"line {line + 1}: {error}") from None  # where the bad row starts


def parse_labeled_csv(stream, lenient: bool = False):
    """Yield LabeledRecord from a `tweet_id,sentiment,tweet` stream."""
    return (LabeledRecord(*row) for row in parse_rows(stream, True, lenient))


def parse_unlabeled_csv(stream, lenient: bool = False):
    """Yield UnlabeledRecord from a `tweet_id,tweet` stream."""
    return (UnlabeledRecord(i, text) for i, _, text in parse_rows(stream, False, lenient))


def write_csv(sink, header, rows):
    """Write the `header` row, then `rows`, each line ending in a bare newline."""
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def write_predictions_csv(id_sentiment_pairs, sink):
    write_csv(sink, ("tweet_id", "sentiment"), ((i, int(s)) for i, s in id_sentiment_pairs))


def write_normalized_csv(rows, sink, labeled: bool):
    """Write (tweet_id, sentiment-or-None, tokens) triples as normalized
    tweets: `tweet_id[,sentiment],space-joined tokens`."""
    if labeled:
        write_csv(sink, LABELED_HEADER, ((i, int(s), " ".join(t)) for i, s, t in rows))
    else:
        write_csv(sink, ("tweet_id", "tweet"), ((i, " ".join(t)) for i, _, t in rows))


def split_dataset(records, ratio: float = 0.8, seed: int = 1):
    """Shuffle deterministically under `seed` and split at `ratio`.

    The train side gets floor(ratio * n) records (with a tiny epsilon so
    exact products like 0.7 * 10 are not undercut by float noise).  A
    split leaving either side empty raises DataError.
    """
    if not 0 < ratio < 1:
        raise ValueError("ratio must be strictly between 0 and 1")
    shuffled = list(records)
    if not shuffled:
        raise DataError("nothing to split: empty record list")
    random.Random(seed).shuffle(shuffled)
    n_train = floor(ratio * len(shuffled) + 1e-9)
    if n_train == 0 or n_train == len(shuffled):
        raise DataError(
            f"ratio {ratio} leaves one side of the {len(shuffled)}-record split empty"
        )
    return shuffled[:n_train], shuffled[n_train:]
