"""predict and eval read, normalize and score their CSV in fixed chunks of
rows: the outputs must not depend on where the chunks end, a bad row in a
late chunk must still write nothing, and memory must not grow with the
number of chunks."""

from itertools import count, islice, repeat

import pytest

from test_cli import CORPUS_CSV
from test_normalize import long_tail_tweets
from tweetiment import cli, dataio
from tweetiment.cli import main
from tweetiment.normalize import DEFAULT_EMOTICONS

K = 3  # rows per chunk in these tests
WORDS = [
    "good", "GOOD!!", "bad", "day,", "sooooo", "(great)", ":)", ":(", "@fan",
    "http://a.io/x", "#fail", "rt", "hate", "love", "t-shirt", "don't", "awful...",
]


def tweet(i):
    return " ".join(WORDS[(i * j + j * j) % len(WORDS)] for j in range(1, 2 + i % 6))


def write_rows(path, n, labeled, last=None):
    """n rows of words that recur across chunks, the last replaced by `last`."""
    rows = [(i, i % 2, tweet(i)) if labeled else (i, tweet(i)) for i in range(1, n + 1)]
    header = dataio.LABELED_HEADER if labeled else ("tweet_id", "tweet")
    with open(path, "w", encoding="utf-8", newline="") as sink:
        dataio.write_csv(sink, header, rows[: n - 1] if last else rows)
        if last:
            sink.write(last)


TRAIN_FLAGS = {
    "nb": ["--model", "nb"],
    "gis": ["--model", "maxent", "--trainer", "gis", "--max-iter", "5"],
}


@pytest.fixture(params=sorted(TRAIN_FLAGS))
def model(tmp_path_factory, request):
    directory = tmp_path_factory.mktemp("model")
    train_csv = directory / "train.csv"
    train_csv.write_text(CORPUS_CSV, encoding="utf-8")
    path = directory / "model"
    assert main(["train", str(train_csv), str(path), *TRAIN_FLAGS[request.param]]) == 0
    return path


@pytest.fixture
def lexicon(tmp_path):
    pos, neg = tmp_path / "pos.txt", tmp_path / "neg.txt"
    pos.write_text("good\ngreat\nlove\n", encoding="utf-8")
    neg.write_text("bad\nhate\nawful\n", encoding="utf-8")
    return str(pos), str(neg)


def calls(model, unlabeled, labeled, lexicon, predictions, report):
    """predict and eval --baseline-lexicon --report-csv, each with its output file."""
    return [
        (["predict", model, unlabeled, predictions], predictions),
        (["eval", model, labeled, "--baseline-lexicon", *lexicon, "--report-csv", report], report),
    ]


def run(argv, output, capsys):
    """The exit code, stdout, stderr and output file's bytes of one call."""
    capsys.readouterr()
    code = main([str(arg) for arg in argv])
    out, err = capsys.readouterr()
    return code, out, err, output.read_bytes() if output.exists() else None


@pytest.mark.parametrize("n", [0, 1, K - 1, K, K + 1, 3 * K + 1])
def test_outputs_do_not_depend_on_where_chunks_end(
    model, lexicon, tmp_path, capsys, monkeypatch, n
):
    unlabeled, labeled = tmp_path / "unlabeled.csv", tmp_path / "labeled.csv"
    write_rows(unlabeled, n, labeled=False)
    write_rows(labeled, n, labeled=True)
    predictions, report = tmp_path / "predictions.csv", tmp_path / "report.csv"
    results = {}
    for rows in (K, n + 1):  # chunks of K rows, and the file as one chunk
        monkeypatch.setattr(cli, "_CHUNK_ROWS", rows)
        results[rows] = []
        for argv, output in calls(model, unlabeled, labeled, lexicon, predictions, report):
            output.unlink(missing_ok=True)
            results[rows].append(run(argv, output, capsys))
    assert results[K] == results[n + 1]
    (code, out, _, written), (eval_code, _, eval_err, _) = results[K]
    assert code == 0 and out == f"predicted {n} tweets -> {predictions}\n"
    if n == 0:  # only the header, and nothing to evaluate
        assert written == b"tweet_id,sentiment\n"
        assert eval_code == 3 and "nothing to evaluate" in eval_err
    else:
        assert len(written.splitlines()) == n + 1
        assert eval_code == 0


@pytest.mark.parametrize(
    "last, message",
    [
        ("x,{text}\n", "line 11: tweet_id 'x' is not an integer"),
        ("2,{text}\n", "line 11: duplicate tweet_id 2"),
        ('10,"{text}\n', "line 11"),
    ],
    ids=["bad-id", "duplicate-id", "unclosed-quote"],
)
def test_a_bad_row_in_the_last_chunk_writes_nothing(
    model, lexicon, tmp_path, capsys, monkeypatch, last, message
):
    monkeypatch.setattr(cli, "_CHUNK_ROWS", K)
    unlabeled, labeled = tmp_path / "unlabeled.csv", tmp_path / "labeled.csv"
    write_rows(unlabeled, 3 * K + 1, labeled=False, last=last.format(text="good day"))
    labeled_last = last.replace(",", ",1,", 1).format(text="good day")
    write_rows(labeled, 3 * K + 1, labeled=True, last=labeled_last)
    predictions, report = tmp_path / "predictions.csv", tmp_path / "report.csv"
    for argv, output in calls(model, unlabeled, labeled, lexicon, predictions, report):
        output.write_text("an earlier run's output\n", encoding="utf-8")
        code, out, err, written = run(argv, output, capsys)
        assert (code, out) == (3, "")
        assert message in err
        assert written == b"an earlier run's output\n"


def test_the_reader_takes_one_chunk_at_a_time():
    drawn = count()
    # endless as far as one chunk goes; the cap only stops a reader that
    # takes every row from running without end
    rows = islice(((next(drawn), None, "good day :)") for _ in repeat(None)), 1000 * K)
    chunks = cli._chunks(rows, DEFAULT_EMOTICONS, K)
    ids, labels, batch = next(chunks)
    assert ids == list(range(K)) and labels == [None] * K
    assert list(batch) == [["good", "day", "EMO_POS"]] * K
    assert next(drawn) == K  # no row of the next chunk was read
    assert next(chunks)[0] == list(range(K + 1, 2 * K + 1))


def test_a_whole_file_is_one_chunk():
    rows = iter([(1, 1, "good"), (2, 0, "bad day")])
    chunks = cli._chunks(rows, DEFAULT_EMOTICONS, None)
    assert [(ids, labels, list(batch)) for ids, labels, batch in chunks] == [
        ([1, 2], [1, 0], [["good"], ["bad", "day"]])
    ]


def test_predict_memory_does_not_grow_with_the_chunks(tmp_path, monkeypatch, traced_peak):
    # Read as one chunk, 16 chunks' rows peaked at about three times what 2
    # did: the file's words, token ids and word dict were all held at once.
    train_csv, model = tmp_path / "train.csv", tmp_path / "model"
    train_csv.write_text(CORPUS_CSV, encoding="utf-8")
    assert main(["train", str(train_csv), str(model)]) == 0
    rows = 128
    monkeypatch.setattr(cli, "_CHUNK_ROWS", rows)
    # four tweets to a row, so that a chunk's words outweigh what the file
    # keeps per row: its id, its label and the duplicate-id check's entry
    tweets = long_tail_tweets(4 * 16 * rows)
    tweets = [" ".join(tweets[k : k + 4]) for k in range(0, len(tweets), 4)]
    peaks = {}
    for chunks in (2, 16):
        predict_csv = tmp_path / f"predict-{chunks}.csv"
        with open(predict_csv, "w", encoding="utf-8", newline="") as sink:
            dataio.write_csv(sink, ("tweet_id", "tweet"), enumerate(tweets[: chunks * rows]))
        argv = ["predict", str(model), str(predict_csv), str(tmp_path / "out.csv")]
        code, peaks[chunks] = traced_peak(main, argv)
        assert code == 0
    assert peaks[16] <= 1.5 * peaks[2]
