"""The determinism contract, pinned: every CLI command's output files and
stdout against SHA-256 digests committed in tests/files/determinism.

The corpora are generated here, by a linear congruential generator of this
module, so neither Python's nor numpy's random streams nor the benchmark's
generator can move them.  Every command runs in-process through cli.main
with an empty settings file, so neither $TWEETIMENT_CONFIG nor the defaults
of a config file reach it.  Two parts of an output are left out of its
digest: the model file's trained_at line and the run's directory, which
stdout names.

IIS weights may move in their last bits between versions (see the README),
so the IIS model file is not hashed: its vocabulary and metadata must equal
the committed tests/files/determinism/iis.model, and its weights must lie
within 1e-12 of that file's.  Its predictions and reports are hashed, so its
labels are pinned exactly.

A change that moves an output on purpose rewrites the committed files with

    PYTHONPATH=src python tests/test_determinism.py --write

and names the digests that changed, and why, in CHANGES.md.
"""

import csv
import hashlib
import io
import json
import shutil
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np

from tweetiment.cli import main
from tweetiment.serialize import deserialize_model

PINNED = Path(__file__).parent / "files" / "determinism"
DIGESTS = PINNED / "digests.json"
IIS_MODEL = PINNED / "iis.model"
IIS_WEIGHT_TOLERANCE = 1e-12

POSITIVE = ["love", "great", "happy", "best", "awesome", "good", "fun", "thanks", "yay",
            "nice", "win", "sooooo", "haaappy", "LOVED", "Cool"]
NEGATIVE = ["hate", "bad", "worst", "sad", "awful", "terrible", "sucks", "miss", "tired",
            "sick", "boring", "fail", "Ugh", "crying", "nooooo"]
NEUTRAL = ["the", "day", "game", "today", "this", "my", "work", "time", "is", "so", "a",
           "we", "you", "it", "going", "home", "tonight", "school", "new", "don't", "can't",
           "r.i.p.", "t-shirt", "2fast", "!!!", "again,", "really?", "well...", "Monday"]
MARKS = ["@fan", "@troll_7", "http://a.io/x", "www.example.com/page", "#fail", "#win",
         ":)", ":(", ":D", ";)", ":-(", "RT", "&amp;", "(:", "<3"]


class Draws:
    """Knuth's 64-bit MMIX linear congruential generator: the same draws on
    every Python and numpy version."""

    def __init__(self, seed: int):
        self.state = seed

    def below(self, n: int) -> int:
        self.state = (self.state * 6364136223846793005 + 1442695040888963407) % 2**64
        return (self.state >> 33) % n

    def pick(self, words: list) -> str:
        return words[self.below(len(words))]


def tweet(draws: Draws, label: int) -> str:
    own, other = (POSITIVE, NEGATIVE) if label else (NEGATIVE, POSITIVE)
    words = []
    for _ in range(3 + draws.below(10)):
        kind = draws.below(20)
        pool = own if kind < 8 else other if kind < 10 else NEUTRAL if kind < 17 else MARKS
        words.append(draws.pick(pool))
    return " ".join(words)


def write_inputs(directory: Path) -> None:
    draws = Draws(20_18)
    with open(directory / "corpus.csv", "w", encoding="utf-8", newline="") as sink:
        writer = csv.writer(sink, lineterminator="\n")
        writer.writerow(["tweet_id", "sentiment", "tweet"])
        for tweet_id in range(1, 601):
            label = draws.below(2)
            writer.writerow([tweet_id, label, tweet(draws, label)])
    with open(directory / "unlabeled.csv", "w", encoding="utf-8", newline="") as sink:
        writer = csv.writer(sink, lineterminator="\n")
        writer.writerow(["tweet_id", "tweet"])
        for tweet_id in range(1001, 1121):
            writer.writerow([tweet_id, tweet(draws, draws.below(2))])
    (directory / "pos.txt").write_text("; opinion words\nlove\ngreat\nhappy\nbest\ngood\nnice\n",
                                       encoding="utf-8")
    (directory / "neg.txt").write_text("; opinion words\nhate\nbad\nworst\nsad\nawful\nsucks\n",
                                       encoding="utf-8")
    (directory / "empty.conf").write_text("", encoding="utf-8")


# (name, argv, output files hashed); names in argv are files of the run's
# directory.  iis.model is compared by value, not hashed.
COMMANDS = [
    ("split", ["split", "corpus.csv", "train.csv", "test.csv", "--ratio", "0.75", "--seed", "11"],
     ["train.csv", "test.csv"]),
    ("preprocess", ["preprocess", "train.csv", "normalized.csv"], ["normalized.csv"]),
    ("preprocess_unlabeled", ["preprocess", "unlabeled.csv", "normalized_unlabeled.csv",
                              "--unlabeled"], ["normalized_unlabeled.csv"]),
    ("stats", ["stats", "train.csv", "--rank-unigrams", "unigrams.csv", "--rank-bigrams",
               "bigrams.csv"], ["unigrams.csv", "bigrams.csv"]),
    ("stats_unlabeled", ["stats", "unlabeled.csv", "--unlabeled", "--rank-unigrams",
                         "unigrams_unlabeled.csv", "--rank-bigrams", "bigrams_unlabeled.csv"],
     ["unigrams_unlabeled.csv", "bigrams_unlabeled.csv"]),
    ("train_nb", ["train", "train.csv", "nb.model", "--model", "nb", "--unigrams", "150",
                  "--bigrams", "100", "--save-vocab", "nb.vocab"], ["nb.model", "nb.vocab"]),
    ("train_gis", ["train", "train.csv", "gis.model", "--model", "maxent", "--trainer", "gis",
                   "--features", "presence", "--max-iter", "40", "--save-vocab", "gis.vocab"],
     ["gis.model", "gis.vocab"]),
    ("train_iis", ["train", "train.csv", "iis.model", "--model", "maxent", "--trainer", "iis",
                   "--max-iter", "20", "--save-vocab", "iis.vocab"], ["iis.vocab"]),
    *(
        step
        for model in ("nb", "gis", "iis")
        for step in (
            (f"predict_{model}", ["predict", f"{model}.model", "unlabeled.csv",
                                  f"{model}_predictions.csv"], [f"{model}_predictions.csv"]),
            (f"eval_{model}", ["eval", f"{model}.model", "test.csv", "--baseline-lexicon",
                               "pos.txt", "neg.txt", "--report-csv", f"{model}_report.csv"],
             [f"{model}_report.csv"]),
        )
    ),
]

_FILE_NAMES = {name for _, _, outputs in COMMANDS for name in outputs} | {
    "corpus.csv", "unlabeled.csv", "pos.txt", "neg.txt", "iis.model"}


def without_trained_at(data: bytes) -> bytes:
    return b"".join(line for line in data.splitlines(keepends=True)
                    if not line.startswith(b"meta\ttrained_at\t"))


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_commands(directory: Path) -> dict:
    """Run COMMANDS in directory, after write_inputs; name -> SHA-256 of
    each output file and of each command's stdout."""
    write_inputs(directory)
    prefix = str(directory) + "/"
    digests = {}
    for name, argv, outputs in COMMANDS:
        argv = [prefix + arg if arg in _FILE_NAMES else arg for arg in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main([*argv, "--config", prefix + "empty.conf"])
        assert (name, code, stderr.getvalue()) == (name, 0, "")
        digests[f"{name}/stdout"] = digest(stdout.getvalue().replace(prefix, "").encode("utf-8"))
        for output in outputs:
            digests[f"{name}/{output}"] = digest(without_trained_at((directory / output).read_bytes()))
    return digests


def read_model(path: Path):
    with open(path, encoding="utf-8", newline="") as source:
        return deserialize_model(source)


def test_outputs_match_the_committed_digests(tmp_path):
    digests = run_commands(tmp_path)
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    changed = sorted(name for name in digests.keys() | expected.keys()
                     if digests.get(name) != expected.get(name))
    assert changed == []

    iis, pinned = read_model(tmp_path / "iis.model"), read_model(IIS_MODEL)
    assert iis.kind == pinned.kind == "maxent"
    assert iis.vocabulary == pinned.vocabulary
    assert replace(iis.metadata, trained_at=None) == replace(pinned.metadata, trained_at=None)
    assert iis.model.weights.shape == pinned.model.weights.shape
    assert np.abs(iis.model.weights - pinned.model.weights).max() <= IIS_WEIGHT_TOLERANCE


def write_pinned_files() -> None:
    with tempfile.TemporaryDirectory() as scratch:
        digests = run_commands(Path(scratch))
        PINNED.mkdir(parents=True, exist_ok=True)
        DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        shutil.copyfile(Path(scratch) / "iis.model", IIS_MODEL)
    print(f"wrote {len(digests)} digests to {DIGESTS} and the IIS model to {IIS_MODEL}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_determinism.py --write")
    write_pinned_files()
