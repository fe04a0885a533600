"""Tests for CSV parsing, the output writers, and the dataset split."""

import io
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tweetiment.dataio import (
    LABELED_HEADER,
    LabeledRecord,
    UnlabeledRecord,
    parse_labeled_csv,
    parse_rows,
    parse_unlabeled_csv,
    split_dataset,
    write_csv,
    write_normalized_csv,
    write_predictions_csv,
)
from tweetiment.errors import DataError
from tweetiment.sentiment import Sentiment


def labeled(text: str, lenient: bool = False):
    return list(parse_labeled_csv(io.StringIO(text), lenient=lenient))


def unlabeled(text: str, lenient: bool = False):
    return list(parse_unlabeled_csv(io.StringIO(text), lenient=lenient))


class TestParseLabeled:
    def test_single_row(self):
        records = labeled('17,1,"loving this"\n')
        assert records == [LabeledRecord(17, Sentiment.POSITIVE, "loving this")]

    def test_sentiment_is_enum(self):
        (record,) = labeled("3,0,meh\n")
        assert record.sentiment is Sentiment.NEGATIVE

    def test_bad_sentiment_reports_line(self):
        with pytest.raises(DataError, match="line 2.*sentiment"):
            labeled('1,1,fine\n18,2,"bad label"\n')

    def test_quoted_comma_preserved(self):
        (record,) = labeled('19,0,"a, b :("\n')
        assert record.text == "a, b :("

    def test_header_skipped(self):
        records = labeled("tweet_id,sentiment,tweet\n4,1,yes\n")
        assert records == [LabeledRecord(4, Sentiment.POSITIVE, "yes")]

    def test_first_data_row_not_mistaken_for_header(self):
        records = labeled("4,1,yes\n5,0,no\n")
        assert [r.tweet_id for r in records] == [4, 5]

    def test_empty_stream(self):
        assert labeled("") == []

    def test_header_only(self):
        assert labeled("tweet_id,sentiment,tweet\n") == []

    def test_blank_lines_skipped(self):
        records = labeled("1,1,a\n\n\n2,0,b\n")
        assert [r.tweet_id for r in records] == [1, 2]

    def test_duplicate_id(self):
        with pytest.raises(DataError, match="duplicate tweet_id 7"):
            labeled("7,1,a\n7,0,b\n")

    def test_non_integer_id_mid_file(self):
        with pytest.raises(DataError, match="line 2.*not an integer"):
            labeled("1,1,a\nx9,0,b\n")

    def test_too_few_fields(self):
        with pytest.raises(DataError, match="expected 3 fields, got 2"):
            labeled("1,1\n")

    def test_extra_fields_strict(self):
        with pytest.raises(DataError, match="lenient"):
            labeled("1,1,hello, world\n")

    def test_extra_fields_lenient_rejoined(self):
        (record,) = labeled("1,1,hello, world, :(\n", lenient=True)
        assert record.text == "hello, world, :("

    def test_doubled_quote_wrapper_stripped(self):
        # some exports double-quote the already-quoted tweet field
        (record,) = labeled('5,1,"""wrapped :)"""\n')
        assert record.text == "wrapped :)"

    def test_oversized_field_reports_line(self):
        # csv.field_size_limit() stays at its default of 131,072 characters
        with pytest.raises(DataError, match="line 2.*field limit"):
            labeled('1,1,a\n2,0,"' + "x" * 131_073 + '"\n')

    def test_is_lazy_generator(self):
        stream = io.StringIO("1,1,a\n2,9,bad\n")
        gen = parse_labeled_csv(stream)
        assert next(gen).tweet_id == 1
        with pytest.raises(DataError):
            next(gen)


class TestParseUnlabeled:
    def test_single_row(self):
        assert unlabeled('5,"hello"\n') == [UnlabeledRecord(5, "hello")]

    def test_header_skipped(self):
        assert unlabeled("tweet_id,tweet\n5,hi\n") == [UnlabeledRecord(5, "hi")]

    def test_duplicate_id(self):
        with pytest.raises(DataError, match="duplicate"):
            unlabeled("5,a\n5,b\n")

    def test_lenient_rejoin(self):
        (record,) = unlabeled("2,one, two\n", lenient=True)
        assert record.text == "one, two"


def outcome(parse):
    """What a parse gives: its list of rows, or the DataError message."""
    try:
        return list(parse()), None
    except DataError as error:
        return None, str(error)


def csv_field(text: str, quoted: bool) -> str:
    return '"' + text.replace('"', '""') + '"' if quoted else text


FIELD_TEXT = st.text(alphabet='ab, "\n:)', max_size=6)
#: Mostly good ids, from a small range so that repeats are drawn.
ID_FIELDS = st.sampled_from([str(i) for i in range(-2, 20)] + ["x9", "+7", "1_0", " 8 ", ""])
#: No sentiment column, a good sentiment, or a bad one.
SENTIMENT_FIELDS = st.sampled_from([None] * 3 + ["0", "1"] * 4 + ["2", "-1", "", " 1", "01", "x"])
CSV_ROWS = st.lists(
    st.tuples(
        ID_FIELDS, SENTIMENT_FIELDS, st.lists(FIELD_TEXT, min_size=1, max_size=3), st.booleans()
    ),
    max_size=6,
)


class TestRecordViews:
    """parse_labeled_csv and parse_unlabeled_csv are record views of parse_rows."""

    @settings(max_examples=300, deadline=None)
    @given(
        header=st.sampled_from(["", "tweet_id,sentiment,tweet\n", "tweet_id,tweet\n"]),
        rows=CSV_ROWS,
        lenient=st.booleans(),
    )
    def test_views_match_parse_rows(self, header, rows, lenient):
        lines = []
        for tweet_id, sentiment, texts, quoted in rows:
            fields = [tweet_id] + [sentiment] * (sentiment is not None)
            fields += [csv_field(text, quoted) for text in texts]
            lines.append(",".join(fields) + "\n")
        text = header + "".join(lines)
        for view, record, is_labeled in (
            (parse_labeled_csv, LabeledRecord, True),
            (parse_unlabeled_csv, lambda i, _, text: UnlabeledRecord(i, text), False),
        ):
            rows_seen = outcome(lambda: parse_rows(io.StringIO(text), is_labeled, lenient))
            records = outcome(lambda: view(io.StringIO(text), lenient=lenient))
            if rows_seen[0] is not None:
                rows_seen = ([record(*row) for row in rows_seen[0]], None)
            assert records == rows_seen

    def test_rows_are_plain_triples(self):
        rows = list(parse_rows(io.StringIO("tweet_id,sentiment,tweet\n4,1,yes\n"), True))
        assert rows == [(4, Sentiment.POSITIVE, "yes")]
        assert rows[0][1] is Sentiment.POSITIVE
        assert list(parse_rows(io.StringIO("5,hi\n"), False)) == [(5, None, "hi")]


#: Ids that int() reads but that would be written back as other text.
NOT_ASCII_DIGITS = ["1_0", "+7", " 8 ", "\u0665"]


class TestTweetIds:
    @pytest.mark.parametrize("field", NOT_ASCII_DIGITS)
    @pytest.mark.parametrize("parse", [labeled, unlabeled])
    def test_only_ascii_digits(self, parse, field):
        row = f"{field},1,a" if parse is labeled else f"{field},a"
        first = "10,1,b" if parse is labeled else "10,b"
        message = re.escape(f"line 2: tweet_id {field!r} is not an integer")
        with pytest.raises(DataError, match=message):
            parse(f"{first}\n{row}\n")
        # a first row is not taken for a header just because int() reads its id
        with pytest.raises(DataError, match="line 1: tweet_id"):
            parse(f"{row}\n")

    @pytest.mark.parametrize("parse", [labeled, unlabeled])
    def test_a_minus_sign_is_kept(self, parse):
        (record,) = parse("-3,1,a\n" if parse is labeled else "-3,a\n")
        assert record.tweet_id == -3


class TestQuoting:
    @pytest.mark.parametrize(
        "row, line",
        [('2,1,"unterminated\n3,0,b\n4,1,c\n', 2), ('2,1,"abc"def\n3,0,b\n', 2)],
        ids=["unterminated", "text-after-quote"],
    )
    def test_bad_quoting_reports_the_row_start(self, row, line):
        with pytest.raises(DataError, match=f"line {line}: "):
            labeled("1,0,ok\n" + row)

    def test_a_quoted_field_may_span_lines(self):
        (record,) = labeled('1,1,"two\nlines"\n')
        assert record.text == "two\nlines"


class TestWriters:
    def test_labeled_round_trip(self):
        records = [
            LabeledRecord(1, Sentiment.POSITIVE, "plain"),
            LabeledRecord(2, Sentiment.NEGATIVE, "with, comma"),
            LabeledRecord(3, Sentiment.POSITIVE, 'quoted "inner" text'),
        ]
        sink = io.StringIO()
        write_csv(sink, LABELED_HEADER, ((r.tweet_id, int(r.sentiment), r.text) for r in records))
        assert sink.getvalue() == (
            'tweet_id,sentiment,tweet\n1,1,plain\n2,0,"with, comma"\n3,1,"quoted ""inner"" text"\n'
        )
        assert labeled(sink.getvalue()) == records

    def test_labeled_header_present(self):
        sink = io.StringIO()
        write_csv(sink, LABELED_HEADER, [])
        assert sink.getvalue() == "tweet_id,sentiment,tweet\n"

    def test_unlabeled_round_trip(self):
        text = 'tweet_id,tweet\n9,hey\n10,"a,b"\n'
        assert unlabeled(text) == [UnlabeledRecord(9, "hey"), UnlabeledRecord(10, "a,b")]

    def test_predictions_exact_output(self):
        sink = io.StringIO()
        write_predictions_csv([(17, Sentiment.POSITIVE), (18, Sentiment.NEGATIVE)], sink)
        assert sink.getvalue() == "tweet_id,sentiment\n17,1\n18,0\n"

    def test_normalized_labeled_output(self):
        sink = io.StringIO()
        write_normalized_csv(
            [(1, Sentiment.NEGATIVE, ["oh", "no", "EMO_NEG"])], sink, labeled=True
        )
        assert sink.getvalue() == "tweet_id,sentiment,tweet\n1,0,oh no EMO_NEG\n"

    def test_normalized_unlabeled_output(self):
        sink = io.StringIO()
        write_normalized_csv([(2, None, ["hi"])], sink, labeled=False)
        assert sink.getvalue() == "tweet_id,tweet\n2,hi\n"

    def test_normalized_round_trips_as_labeled_csv(self):
        sink = io.StringIO()
        write_normalized_csv(
            [(7, Sentiment.POSITIVE, ["good", "times"])], sink, labeled=True
        )
        (record,) = labeled(sink.getvalue())
        assert record == LabeledRecord(7, Sentiment.POSITIVE, "good times")


def ids(records):
    return sorted(r.tweet_id for r in records)


RECORDS_10 = [LabeledRecord(i, Sentiment.POSITIVE, f"t{i}") for i in range(10)]


class TestSplit:
    def test_default_ratio_sizes(self):
        train, test = split_dataset(RECORDS_10, ratio=0.8, seed=1)
        assert (len(train), len(test)) == (8, 2)

    def test_high_ratio(self):
        train, test = split_dataset(RECORDS_10, ratio=0.99, seed=1)
        assert (len(train), len(test)) == (9, 1)

    def test_exact_product_not_undercut(self):
        # 0.7 * 10 is 6.999... in floats; the split must still be 7/3
        train, test = split_dataset(RECORDS_10, ratio=0.7, seed=1)
        assert (len(train), len(test)) == (7, 3)

    def test_partition(self):
        train, test = split_dataset(RECORDS_10, ratio=0.8, seed=3)
        assert ids(train + test) == list(range(10))
        assert not set(ids(train)) & set(ids(test))

    def test_same_seed_reproduces(self):
        first = split_dataset(RECORDS_10, ratio=0.8, seed=42)
        second = split_dataset(RECORDS_10, ratio=0.8, seed=42)
        assert first == second

    def test_input_not_mutated(self):
        snapshot = list(RECORDS_10)
        split_dataset(RECORDS_10, ratio=0.8, seed=5)
        assert RECORDS_10 == snapshot

    def test_shuffles(self):
        train, test = split_dataset(RECORDS_10, ratio=0.8, seed=1)
        assert train + test != RECORDS_10  # astronomically unlikely to be identity

    @pytest.mark.parametrize("ratio", [0.0, 1.0, -0.5, 1.5])
    def test_ratio_bounds(self, ratio):
        with pytest.raises(ValueError):
            split_dataset(RECORDS_10, ratio=ratio)

    def test_empty_input(self):
        with pytest.raises(DataError, match="empty"):
            split_dataset([])

    def test_empty_side_rejected(self):
        with pytest.raises(DataError, match="empty"):
            split_dataset(RECORDS_10[:1], ratio=0.8, seed=1)

    @given(
        n=st.integers(min_value=2, max_value=50),
        ratio=st.floats(min_value=0.05, max_value=0.95),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_always_partitions(self, n, ratio, seed):
        records = [LabeledRecord(i, Sentiment.NEGATIVE, "x") for i in range(n)]
        try:
            train, test = split_dataset(records, ratio=ratio, seed=seed)
        except DataError:
            return  # one side empty at this n/ratio; that rejection is the contract
        assert 1 <= len(train) <= n - 1
        assert ids(train + test) == list(range(n))
