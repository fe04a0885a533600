"""End-to-end CLI tests: every subcommand through main(), plus exit codes
and configuration precedence."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import v1_writer
from tweetiment import dataio
from tweetiment.cli import main
from tweetiment.dataio import parse_labeled_csv
from tweetiment.normalize import TokenBatch, normalize_batch
from tweetiment.sentiment import Sentiment
from tweetiment.serialize import deserialize_model

CORPUS_CSV = (
    "tweet_id,sentiment,tweet\n"
    '1,1,"I love this sooooo much :)"\n'
    '2,1,"@fan great game today!"\n'
    '3,1,"best day ever http://a.io/x"\n'
    '4,1,"happy happy good vibes"\n'
    '5,1,"such a great show :D"\n'
    '6,0,"I hate this :("\n'
    '7,0,"@troll worst game ever"\n'
    '8,0,"so bad it hurts"\n'
    '9,0,"terrible awful day"\n'
    '10,0,"RT this sucks #fail"\n'
)

GOLD = {1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 0, 7: 0, 8: 0, 9: 0, 10: 0}


@pytest.fixture
def corpus(tmp_path):
    path = tmp_path / "tweets.csv"
    path.write_text(CORPUS_CSV, encoding="utf-8")
    return path


@pytest.fixture
def unlabeled(tmp_path):
    lines = ["tweet_id,tweet"]
    for row in CORPUS_CSV.splitlines()[1:]:
        tweet_id, _, text = row.split(",", 2)
        lines.append(f"{tweet_id},{text}")
    path = tmp_path / "unlabeled.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def lexicon_files(tmp_path):
    pos = tmp_path / "pos.txt"
    neg = tmp_path / "neg.txt"
    pos.write_text("love\ngreat\nbest\nhappy\ngood\n", encoding="utf-8")
    neg.write_text("hate\nworst\nbad\nterrible\nawful\nsucks\n", encoding="utf-8")
    return pos, neg


def train_nb(corpus, tmp_path, *extra):
    model = tmp_path / "nb.model"
    assert main(["train", str(corpus), str(model), "--model", "nb", *extra]) == 0
    return model


def rewrite_as_v1(model):
    """Rewrite a model file in format v1, which the CLI still reads."""
    with open(model, encoding="utf-8") as source:
        artifact = deserialize_model(source)
    with open(model, "w", encoding="utf-8") as sink:
        v1_writer.serialize_model(artifact, sink)


class TestPreprocess:
    def test_labeled_output(self, corpus, tmp_path):
        out = tmp_path / "norm.csv"
        assert main(["preprocess", str(corpus), str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "tweet_id,sentiment,tweet"
        assert lines[1] == "1,1,i love this soo much EMO_POS"
        assert lines[3] == "3,1,best day ever URL"
        assert lines[10] == "10,0,this sucks fail"

    def test_unlabeled_output(self, unlabeled, tmp_path):
        out = tmp_path / "norm.csv"
        assert main(["preprocess", str(unlabeled), str(out), "--unlabeled"]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "tweet_id,tweet"
        assert lines[2] == "2,USER_MENTION great game today"

    def test_prints_count(self, corpus, tmp_path, capsys):
        main(["preprocess", str(corpus), str(tmp_path / "o.csv")])
        assert "normalized 10 tweets" in capsys.readouterr().out


class TestStats:
    def test_table(self, corpus, capsys):
        assert main(["stats", str(corpus)]) == 0
        out = capsys.readouterr().out
        assert "tweets          total 10" in out
        assert "  positive      5" in out
        assert "user mentions   total 2" in out
        assert "emoticons       total 3 (positive 2, negative 1)" in out
        assert "urls            total 1" in out
        assert "unigrams        total 41   unique 31" in out
        assert "bigrams         total 31   unique 31" in out

    def test_rank_exports(self, corpus, tmp_path):
        uni = tmp_path / "u.csv"
        bi = tmp_path / "b.csv"
        code = main(
            ["stats", str(corpus), "--rank-unigrams", str(uni), "--rank-bigrams", str(bi)]
        )
        assert code == 0
        uni_lines = uni.read_text(encoding="utf-8").splitlines()
        assert uni_lines[0] == "rank,term,count"
        assert uni_lines[1] == "1,this,3"  # hand count over the fixture corpus
        bi_lines = bi.read_text(encoding="utf-8").splitlines()
        assert bi_lines[0] == "rank,term,count"
        assert all(line.split(",")[2] == "1" for line in bi_lines[1:])
        assert " " in bi_lines[1].split(",")[1]  # bigram terms are two words


class TestTrain:
    def test_nb_model_file(self, corpus, tmp_path, capsys):
        model = train_nb(corpus, tmp_path)
        first = model.read_text(encoding="utf-8").splitlines()[0]
        assert first == "tweetiment-model v2 naive_bayes"
        assert "trained naive_bayes on 10 tweets" in capsys.readouterr().out

    def test_maxent_model_file(self, corpus, tmp_path, capsys):
        model = tmp_path / "me.model"
        code = main(
            [
                "train", str(corpus), str(model),
                "--model", "maxent", "--trainer", "gis", "--max-iter", "50",
            ]
        )
        assert code == 0
        assert model.read_text(encoding="utf-8").startswith("tweetiment-model v2 maxent")
        assert "log-likelihood" in capsys.readouterr().out

    def test_save_vocab(self, corpus, tmp_path):
        vocab = tmp_path / "v.vocab"
        train_nb(corpus, tmp_path, "--save-vocab", str(vocab))
        assert vocab.read_text(encoding="utf-8").startswith("tweetiment-vocab v2 15000 10000")

    def test_budget_flags_reach_vocabulary(self, corpus, tmp_path):
        vocab = tmp_path / "v.vocab"
        train_nb(
            corpus, tmp_path, "--unigrams", "5", "--bigrams", "2", "--save-vocab", str(vocab)
        )
        lines = vocab.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "tweetiment-vocab v2 5 2 5 2"
        assert len(lines) == 1 + 5 + 2 + 1  # header, terms, end


class TestPredictAndEval:
    def test_predictions_match_gold(self, corpus, unlabeled, tmp_path):
        model = train_nb(corpus, tmp_path)
        out = tmp_path / "pred.csv"
        assert main(["predict", str(model), str(unlabeled), str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "tweet_id,sentiment"
        got = {int(i): int(s) for i, s in (line.split(",") for line in lines[1:])}
        assert got == GOLD  # NB separates this corpus perfectly

    def test_eval_report(self, corpus, tmp_path, capsys):
        model = train_nb(corpus, tmp_path)
        assert main(["eval", str(model), str(corpus)]) == 0
        out = capsys.readouterr().out
        assert "naive_bayes accuracy: 1.0000 on 10 tweets" in out
        assert "gold negative:  predicted negative 5, positive 0" in out

    def test_eval_with_baseline_and_csv(self, corpus, tmp_path, lexicon_files, capsys):
        pos, neg = lexicon_files
        model = train_nb(corpus, tmp_path)
        report = tmp_path / "report.csv"
        code = main(
            [
                "eval", str(model), str(corpus),
                "--baseline-lexicon", str(pos), str(neg),
                "--report-csv", str(report),
            ]
        )
        assert code == 0
        assert "baseline accuracy: 1.0000" in capsys.readouterr().out
        text = report.read_text(encoding="utf-8")
        assert "metric,value" in text
        assert "model,naive_bayes" in text
        assert "accuracy,1.0" in text
        assert "baseline_accuracy,1.0" in text

    def test_maxent_round_trips_through_cli(self, corpus, unlabeled, tmp_path):
        model = tmp_path / "me.model"
        main(["train", str(corpus), str(model), "--model", "maxent", "--max-iter", "200"])
        out = tmp_path / "pred.csv"
        assert main(["predict", str(model), str(unlabeled), str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()[1:]
        got = {int(i): int(s) for i, s in (line.split(",") for line in lines)}
        assert got == GOLD


class TestSplit:
    def run_split(self, corpus, tmp_path, *extra):
        train = tmp_path / "train.csv"
        test = tmp_path / "test.csv"
        assert main(["split", str(corpus), str(train), str(test), *extra]) == 0
        return train, test

    def test_default_sizes(self, corpus, tmp_path):
        train, test = self.run_split(corpus, tmp_path)
        with open(train, encoding="utf-8", newline="") as f:
            n_train = len(list(parse_labeled_csv(f)))
        with open(test, encoding="utf-8", newline="") as f:
            n_test = len(list(parse_labeled_csv(f)))
        assert (n_train, n_test) == (8, 2)

    def test_reproducible(self, corpus, tmp_path):
        train_a, test_a = self.run_split(corpus, tmp_path / "a")
        train_b, test_b = self.run_split(corpus, tmp_path / "b")
        assert train_a.read_text() == train_b.read_text()
        assert test_a.read_text() == test_b.read_text()

    def test_ratio_flag(self, corpus, tmp_path):
        train, _ = self.run_split(corpus, tmp_path, "--ratio", "0.5")
        assert len(train.read_text().splitlines()) == 1 + 5

    @pytest.fixture(autouse=True)
    def _mkdirs(self, tmp_path):
        (tmp_path / "a").mkdir(exist_ok=True)
        (tmp_path / "b").mkdir(exist_ok=True)


class TestConfigPrecedence:
    def test_config_file_supplies_settings(self, corpus, tmp_path):
        conf = tmp_path / "a.conf"
        conf.write_text("unigrams = 3\nbigrams = 2\nmodel = maxent\nmax_iter = 5\n")
        model = tmp_path / "m.model"
        vocab = tmp_path / "v.vocab"
        code = main(
            ["train", str(corpus), str(model), "--config", str(conf), "--save-vocab", str(vocab)]
        )
        assert code == 0
        assert model.read_text(encoding="utf-8").startswith("tweetiment-model v2 maxent")
        assert vocab.read_text(encoding="utf-8").startswith("tweetiment-vocab v2 3 2")

    def test_cli_flag_beats_config(self, corpus, tmp_path):
        conf = tmp_path / "a.conf"
        conf.write_text("model = maxent\nmax_iter = 5\n")
        model = tmp_path / "m.model"
        main(["train", str(corpus), str(model), "--config", str(conf), "--model", "nb"])
        assert model.read_text(encoding="utf-8").startswith("tweetiment-model v2 naive_bayes")

    def test_env_var_config(self, corpus, tmp_path, monkeypatch):
        conf = tmp_path / "env.conf"
        conf.write_text("unigrams = 4\nbigrams = 1\n")
        monkeypatch.setenv("TWEETIMENT_CONFIG", str(conf))
        vocab = tmp_path / "v.vocab"
        train_nb(corpus, tmp_path, "--save-vocab", str(vocab))
        assert vocab.read_text(encoding="utf-8").startswith("tweetiment-vocab v2 4 1")

    def test_config_flag_beats_env_var(self, corpus, tmp_path, monkeypatch):
        env_conf = tmp_path / "env.conf"
        env_conf.write_text("unigrams = 4\nbigrams = 1\n")
        flag_conf = tmp_path / "flag.conf"
        flag_conf.write_text("unigrams = 3\nbigrams = 2\n")
        monkeypatch.setenv("TWEETIMENT_CONFIG", str(env_conf))
        vocab = tmp_path / "v.vocab"
        train_nb(corpus, tmp_path, "--config", str(flag_conf), "--save-vocab", str(vocab))
        assert vocab.read_text(encoding="utf-8").startswith("tweetiment-vocab v2 3 2")

    def test_bad_config_value(self, corpus, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("unigrams = lots\n")
        code = main(["train", str(corpus), str(tmp_path / "m"), "--config", str(conf)])
        assert code == 3

    def test_unknown_config_key(self, corpus, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("momentum = 0.9\n")
        assert main(["stats", str(corpus), "--config", str(conf)]) == 3


class TestEmoticonOverride:
    def test_custom_table(self, tmp_path):
        data = tmp_path / "t.csv"
        data.write_text('1,1,"nice =) :)"\n', encoding="utf-8")
        pos = tmp_path / "e_pos.txt"
        neg = tmp_path / "e_neg.txt"
        pos.write_text("=)\n")
        neg.write_text("=(\n")
        out = tmp_path / "norm.csv"
        code = main(
            [
                "preprocess", str(data), str(out),
                "--emoticons-pos", str(pos), "--emoticons-neg", str(neg),
            ]
        )
        assert code == 0
        # "=)" hits the custom table; the default ":)" is now just
        # punctuation and drops out
        assert out.read_text(encoding="utf-8").splitlines()[1] == "1,1,nice EMO_POS"

    def test_one_sided_override_rejected(self, corpus, tmp_path, capsys):
        code = main(
            ["preprocess", str(corpus), str(tmp_path / "o"), "--emoticons-pos", "x.txt"]
        )
        assert code == 3
        assert "both" in capsys.readouterr().err


class TestExitCodes:
    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_missing_input_file(self, tmp_path):
        assert main(["stats", str(tmp_path / "absent.csv")]) == 3

    def test_bad_sentiment_value(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text("1,2,oops\n", encoding="utf-8")
        assert main(["stats", str(data)]) == 3
        assert "sentiment" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "quoted", ['"unterminated', '"abc"def'], ids=["unterminated", "text-after-quote"]
    )
    @pytest.mark.parametrize("command", ["predict", "train"])
    def test_bad_quoting(self, corpus, unlabeled, tmp_path, capsys, command, quoted):
        # neither may swallow the rows after it into one tweet
        model = train_nb(corpus, tmp_path)
        labeled = command == "train"
        extra = f"11,1,{quoted}\n12,0,more text\n" if labeled else f"11,{quoted}\n12,more text\n"
        data = tmp_path / "quotes.csv"
        data.write_text((corpus if labeled else unlabeled).read_text() + extra, encoding="utf-8")
        out = tmp_path / "out"
        argv = ["train", str(data), str(out)] if labeled else ["predict", str(model), str(data), str(out)]
        capsys.readouterr()
        assert main(argv) == 3
        assert "line 12: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field", ["1_0", "+7", " 8 ", "\u0665"])
    @pytest.mark.parametrize("command", ["predict", "train"])
    def test_tweet_id_must_be_ascii_digits(self, corpus, tmp_path, capsys, command, field):
        # int() reads each of these, and predict would write it back renumbered
        model = train_nb(corpus, tmp_path)
        labeled = command == "train"
        rows = [f"{20 + k},{k % 2},good day {k}" if labeled else f"{20 + k},good day {k}" for k in range(4)]
        rows.append(f"{field},1,bad day" if labeled else f"{field},bad day")
        data = tmp_path / "ids.csv"
        data.write_text("\n".join(rows) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        argv = ["train", str(data), str(out)] if labeled else ["predict", str(model), str(data), str(out)]
        capsys.readouterr()
        assert main(argv) == 3
        assert f"line 5: tweet_id {field!r} is not an integer" in capsys.readouterr().err

    def test_corrupt_model_file(self, unlabeled, tmp_path, capsys):
        bogus = tmp_path / "bogus.model"
        bogus.write_text("not a model\n", encoding="utf-8")
        code = main(["predict", str(bogus), str(unlabeled), str(tmp_path / "o")])
        assert code == 4
        assert "model" in capsys.readouterr().err

    def test_truncated_model_file(self, corpus, unlabeled, tmp_path):
        model = train_nb(corpus, tmp_path)
        text = model.read_text(encoding="utf-8")
        model.write_text(text[: len(text) // 2], encoding="utf-8")
        assert main(["predict", str(model), str(unlabeled), str(tmp_path / "o")]) == 4

    def test_repeated_vocabulary_term(self, corpus, unlabeled, tmp_path, capsys):
        # the first term line written twice, with the term count raised to match
        model = train_nb(corpus, tmp_path)
        lines = model.read_text(encoding="utf-8").splitlines(keepends=True)
        n = next(k for k, line in enumerate(lines) if line.startswith("vocabulary\t"))
        fields = lines[n].rstrip("\n").split("\t")
        fields[3] = str(int(fields[3]) + 1)
        lines[n : n + 2] = ["\t".join(fields) + "\n", lines[n + 1], lines[n + 1]]
        model.write_text("".join(lines), encoding="utf-8")
        assert main(["predict", str(model), str(unlabeled), str(tmp_path / "o")]) == 4
        assert "given twice" in capsys.readouterr().err

    @pytest.mark.parametrize("key, extra", [("n_docs", "\t7"), ("trained_at", "\textra")])
    def test_known_meta_key_with_extra_fields(self, corpus, unlabeled, tmp_path, key, extra):
        model = train_nb(corpus, tmp_path)
        text = model.read_text(encoding="utf-8")
        start = text.index(f"meta\t{key}\t")
        end = text.index("\n", start)
        model.write_text(text[:end] + extra + text[end:], encoding="utf-8")
        assert main(["predict", str(model), str(unlabeled), str(tmp_path / "o")]) == 4

    @pytest.mark.parametrize("tail", ["garbage\n", "\n", None], ids=["garbage", "blank", "second_model"])
    def test_line_after_the_end_marker(self, corpus, unlabeled, tmp_path, capsys, tail):
        # a file cut from two models joined, or one with anything after end,
        # is not one valid model
        model = train_nb(corpus, tmp_path)
        text = model.read_text(encoding="utf-8")
        model.write_text(text + (text if tail is None else tail), encoding="utf-8")
        assert main(["predict", str(model), str(unlabeled), str(tmp_path / "o")]) == 4
        assert "after the end marker" in capsys.readouterr().err

    def test_repeated_known_meta_key(self, corpus, unlabeled, tmp_path, capsys):
        # the second line used to win, switching a frequency model to presence
        model = train_nb(corpus, tmp_path)
        line = "meta\tfeature_mode\tfrequency\n"
        text = model.read_text(encoding="utf-8")
        model.write_text(text.replace(line, line + "meta\tfeature_mode\tpresence\n"), encoding="utf-8")
        assert main(["predict", str(model), str(unlabeled), str(tmp_path / "o")]) == 4
        assert "meta 'feature_mode' given twice" in capsys.readouterr().err

    def test_invalid_trainer_setting(self, corpus, tmp_path):
        code = main(
            [
                "train", str(corpus), str(tmp_path / "m"),
                "--model", "maxent", "--max-iter", "0",
            ]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "flags",
        [
            ["--alpha", "nan"],
            ["--alpha", "inf"],
            ["--model", "maxent", "--tol", "nan"],
            ["--model", "maxent", "--tol", "inf"],
        ],
        ids=["alpha_nan", "alpha_inf", "tol_nan", "tol_inf"],
    )
    def test_non_finite_setting(self, corpus, tmp_path, flags):
        model = tmp_path / "m"
        assert main(["train", str(corpus), str(model), *flags]) == 2
        assert not model.exists()

    @pytest.mark.parametrize("alpha", ["1e-320", "1e308"])
    def test_alpha_without_finite_likelihoods(self, tmp_path, capsys, alpha):
        # 40,000 positive n-grams take 1e-320's share of "bad" below the
        # smallest double; 1e308 makes alpha * vocab_size overflow
        data = tmp_path / "train.csv"
        rows = [f'{i},1,"{"good " * 400}"' for i in range(50)] + ['50,0,"bad"']
        data.write_text("\n".join(rows) + "\n", encoding="utf-8")
        model = tmp_path / "m"
        assert main(["train", str(data), str(model), "--alpha", alpha]) == 2
        assert "alpha" in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize(
        "rows, message",
        [("", "no training data"), ('1,1,"good"\n2,1,"fine"\n', "degenerate labels")],
        ids=["header_only", "single_class"],
    )
    @pytest.mark.parametrize(
        "flags",
        [
            ["--model", "nb"],
            ["--model", "maxent", "--trainer", "gis"],
            ["--model", "maxent", "--trainer", "iis"],
        ],
        ids=["nb", "gis", "iis"],
    )
    def test_untrainable_corpus(self, tmp_path, capsys, rows, message, flags):
        data = tmp_path / "train.csv"
        data.write_text("tweet_id,sentiment,tweet\n" + rows, encoding="utf-8")
        model = tmp_path / "m"
        assert main(["train", str(data), str(model), *flags]) == 3
        assert message in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize(
        "field, value",
        [(2, "-1"), (2, "999999"), (1, "2"), (3, "nan"), (2, "1.5")],
        ids=["index_negative", "index_past_vocab", "class_2", "value_nan", "index_not_int"],
    )
    def test_corrupt_parameter_line(self, corpus, unlabeled, tmp_path, capsys, field, value):
        # one field of the first likelihood line of a valid v1 model
        model = train_nb(corpus, tmp_path)
        rewrite_as_v1(model)
        lines = model.read_text(encoding="utf-8").splitlines(keepends=True)
        n = next(k for k, line in enumerate(lines) if line.startswith("likelihood\t"))
        fields = lines[n].rstrip("\n").split("\t")
        fields[field] = value
        lines[n] = "\t".join(fields) + "\n"
        model.write_text("".join(lines), encoding="utf-8")
        output = tmp_path / "o"
        assert main(["predict", str(model), str(unlabeled), str(output)]) == 4
        assert "parameter" in capsys.readouterr().err
        assert not output.exists()

    @pytest.mark.parametrize(
        "line, number, value",
        [(0, 2, "-1"), (0, 2, "999999"), (0, 1, "2"), (1, 0, "nan"), (1, 0, "1.5.5"), (1, 0, "1e400")],
        ids=["count_negative", "count_past_vocab", "class_2", "value_nan", "value_malformed", "value_1e400"],
    )
    def test_corrupt_v2_parameter_lines(self, corpus, unlabeled, tmp_path, capsys, line, number, value):
        # one field of the first likelihood header (line 0), or the first
        # number of its value line (line 1), of a valid v2 model
        model = train_nb(corpus, tmp_path)
        lines = model.read_text(encoding="utf-8").splitlines(keepends=True)
        n = next(k for k, text in enumerate(lines) if text.startswith("likelihood\t")) + line
        separator = "\t" if line == 0 else " "
        fields = lines[n].rstrip("\n").split(separator)
        fields[number] = value
        lines[n] = separator.join(fields) + "\n"
        model.write_text("".join(lines), encoding="utf-8")
        output = tmp_path / "o"
        assert main(["predict", str(model), str(unlabeled), str(output)]) == 4
        assert "parameter" in capsys.readouterr().err
        assert not output.exists()

    def test_missing_config_file(self, corpus, tmp_path):
        code = main(["stats", str(corpus), "--config", str(tmp_path / "nope.conf")])
        assert code == 3

    def test_strict_then_lenient(self, tmp_path):
        data = tmp_path / "loose.csv"
        data.write_text("1,1,free form, no quotes\n", encoding="utf-8")
        out = tmp_path / "norm.csv"
        assert main(["preprocess", str(data), str(out)]) == 3
        assert main(["preprocess", str(data), str(out), "--lenient"]) == 0
        assert "free form" in out.read_text(encoding="utf-8")


class TestInputEncoding:
    """Oversized fields and undecodable bytes are data errors (exit 3), or
    model-format errors (exit 4) in a model file; a byte-order mark is
    not part of the first tweet id."""

    @pytest.fixture
    def oversized(self, tmp_path):
        # one field past csv.field_size_limit()'s default of 131,072 characters
        path = tmp_path / "oversized.csv"
        path.write_text('1,1,"' + "x" * 131_073 + '"\n2,0,b\n', encoding="utf-8")
        return path

    @pytest.mark.parametrize(
        "command",
        [
            ["stats", "{csv}"],
            ["train", "{csv}", "{out}"],
            ["preprocess", "{csv}", "{out}"],
            ["predict", "{model}", "{csv}", "{out}"],
            ["split", "{csv}", "{out}", "{out}2"],
        ],
        ids=lambda command: command[0],
    )
    def test_oversized_field(self, corpus, oversized, tmp_path, capsys, command):
        model = train_nb(corpus, tmp_path)
        argv = [
            arg.format(csv=oversized, out=tmp_path / "out", model=model) for arg in command
        ]
        capsys.readouterr()
        assert main(argv) == 3
        assert "line 1: field larger than field limit" in capsys.readouterr().err

    def test_config_not_utf8(self, corpus, tmp_path, capsys):
        config = tmp_path / "settings.conf"
        config.write_bytes(b"alpha = 1\xff\n")
        assert main(["stats", str(corpus), "--config", str(config)]) == 3
        assert "config file" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["csv", "lexicon", "emoticons"])
    def test_file_not_utf8_is_named(self, corpus, lexicon_files, tmp_path, capsys, kind):
        model = train_nb(corpus, tmp_path)
        pos, neg = lexicon_files
        emoticons_pos = tmp_path / "emoticons-pos.txt"
        emoticons_pos.write_text(":)\n", encoding="utf-8")
        emoticons_neg = tmp_path / "emoticons-neg.txt"
        emoticons_neg.write_text(":(\n", encoding="utf-8")
        bad = {"csv": corpus, "lexicon": pos, "emoticons": emoticons_pos}[kind]
        bad.write_bytes(bad.read_bytes() + b"caf\xe9 \xff\n")
        argv = [
            "eval", str(model), str(corpus), "--baseline-lexicon", str(pos), str(neg),
            "--emoticons-pos", str(emoticons_pos), "--emoticons-neg", str(emoticons_neg),
        ]
        capsys.readouterr()
        assert main(argv) == 3
        assert str(bad) in capsys.readouterr().err

    def test_model_not_utf8(self, corpus, unlabeled, tmp_path, capsys):
        model = train_nb(corpus, tmp_path)
        model.write_bytes(model.read_bytes().replace(b"love", b"l\xffve", 1))
        capsys.readouterr()
        assert main(["predict", str(model), str(unlabeled), str(tmp_path / "o")]) == 4
        assert "UTF-8" in capsys.readouterr().err

    @pytest.fixture
    def bom_csv(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf1,1,good day\n2,0,bad day\n3,1,great day\n")
        return path

    def test_headerless_bom_keeps_first_tweet(self, bom_csv, tmp_path, capsys):
        assert main(["stats", str(bom_csv)]) == 0
        assert "tweets          total 3" in capsys.readouterr().out
        train, test = tmp_path / "train.csv", tmp_path / "test.csv"
        assert main(["split", str(bom_csv), str(train), str(test)]) == 0
        assert "split 3 tweets" in capsys.readouterr().out
        rows = train.read_text(encoding="utf-8").splitlines()[1:]
        rows += test.read_text(encoding="utf-8").splitlines()[1:]
        assert sorted(row.split(",")[0] for row in rows) == ["1", "2", "3"]


def run_fresh_python(*args):
    """Run `python3 args...` in a new process that imports the package from src/."""
    root = Path(__file__).resolve().parent.parent
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"), path])))
    result = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_cli_import_leaves_out_scipy_special():
    # scipy.special costs about 150 ms of every CLI process's start-up
    code = "import sys, tweetiment.cli; print('scipy.special' in sys.modules)"
    assert run_fresh_python("-c", code).strip() == "False"


# runs every argv of the JSON list in sys.argv[1] through cli.main in one
# process, and exits non-zero unless each call returns 0
CLI_CALLS = (
    "import json, sys\n"
    "from tweetiment.cli import main\n"
    "for argv in json.loads(sys.argv[1]):\n"
    "    if main(argv) != 0:\n"
    "        sys.exit(f'exit code != 0: {argv}')\n"
)


def cli_calls_import(argvs, module) -> bool:
    """Whether `module` is in sys.modules after one new process has run
    every argv through cli.main, each exiting 0."""
    code = CLI_CALLS + "print(sys.argv[2] in sys.modules)\n"
    argvs = [[str(arg) for arg in argv] for argv in argvs]
    return run_fresh_python("-c", code, json.dumps(argvs), module).splitlines()[-1] == "True"


def test_no_command_imports_scipy(corpus, unlabeled, lexicon_files, tmp_path):
    # scipy is a test dependency only: importing scipy.sparse took about
    # half of a CLI process's start-up, and training runs on numpy alone
    nb = train_nb(corpus, tmp_path)
    maxent = tmp_path / "me.model"
    assert main(["train", str(corpus), str(maxent), "--model", "maxent"]) == 0
    pos, neg = lexicon_files
    out = tmp_path / "out"
    out.mkdir()
    argvs = [
        ["train", corpus, out / "nb.model", "--model", "nb"],
        ["train", corpus, out / "me.model", "--model", "maxent"],
        ["predict", nb, unlabeled, out / "nb.csv"],
        ["predict", maxent, unlabeled, out / "me.csv"],
        [
            "eval", maxent, corpus,
            "--baseline-lexicon", pos, neg, "--report-csv", out / "report.csv",
        ],
        ["stats", corpus, "--rank-unigrams", out / "u.csv", "--rank-bigrams", out / "b.csv"],
        ["preprocess", corpus, out / "norm.csv"],
        ["split", corpus, out / "train.csv", out / "test.csv"],
    ]
    assert not cli_calls_import(argvs, "scipy")
    # the check above is not vacuous: the same harness sees numpy loaded
    assert cli_calls_import(argvs[:1], "numpy")


@pytest.mark.parametrize("command, loaded", [
    ("train", False), ("predict", False), ("eval --baseline-lexicon", True), ("stats", True),
])
@pytest.mark.parametrize("module", ["tweetiment.evaluation", "tweetiment.models.baseline"])
def test_each_command_imports_what_it_runs(corpus, unlabeled, lexicon_files, tmp_path, command, loaded, module):
    # train and predict neither compile nor run the evaluation and lexicon code
    model = train_nb(corpus, tmp_path)
    argv = {
        "train": ["train", corpus, tmp_path / "again.model", "--model", "nb"],
        "predict": ["predict", model, unlabeled, tmp_path / "out.csv"],
        "eval --baseline-lexicon": ["eval", model, corpus, "--baseline-lexicon", *lexicon_files],
        "stats": ["stats", corpus],
    }[command]
    assert cli_calls_import([argv], module) == loaded


def test_importing_the_package_loads_no_submodule():
    code = "import sys, tweetiment; print(sorted(m for m in sys.modules if m.startswith('tweetiment')))"
    assert run_fresh_python("-c", code).strip() == "['tweetiment']"
    # each public name, and each submodule, is still found through the package
    code = (
        "import tweetiment\n"
        "assert tweetiment.evaluation.__name__ == 'tweetiment.evaluation'\n"
        "from tweetiment import *\n"
        "assert all(name in globals() for name in tweetiment.__all__)\n"
        "assert tweetiment.serialize.deserialize_model is deserialize_model\n"
        "assert tweetiment.models.baseline.OpinionLexicon is OpinionLexicon\n"
        "print(hasattr(tweetiment, 'no_such_module'), hasattr(tweetiment, '__main__'))\n"
    )
    assert run_fresh_python("-c", code).strip() == "False False"


def test_commands_run_without_scipy(corpus, unlabeled, lexicon_files, tmp_path):
    # with scipy unimportable, every `import scipy...` raises ImportError
    pos, neg = lexicon_files
    nb, gis, iis = tmp_path / "nb.model", tmp_path / "gis.model", tmp_path / "iis.model"
    argvs = [
        ["train", corpus, nb, "--model", "nb"],
        ["train", corpus, gis, "--model", "maxent", "--trainer", "gis"],
        ["train", corpus, iis, "--model", "maxent", "--trainer", "iis"],
        *(["predict", model, unlabeled, model.with_suffix(".csv")] for model in (nb, gis, iis)),
        ["eval", iis, corpus, "--baseline-lexicon", pos, neg, "--report-csv", tmp_path / "r.csv"],
        ["eval", nb, corpus],
    ]
    blocked = "import sys\nsys.modules['scipy'] = None\n"
    argvs = [[str(arg) for arg in argv] for argv in argvs]
    run_fresh_python("-c", blocked + CLI_CALLS, json.dumps(argvs))
    assert all(path.exists() for path in (nb, gis, iis, tmp_path / "iis.csv", tmp_path / "r.csv"))


def run_reading_commands(out, corpus, unlabeled, lexicon_files, capsys):
    """Run train, predict, eval, stats and preprocess into `out`; return
    each command's stdout and every output file, less `trained_at`."""
    out.mkdir()
    model = out / "nb.model"
    argvs = [
        ["train", corpus, model, "--model", "nb"],
        ["predict", model, unlabeled, out / "predictions.csv"],
        ["eval", model, corpus, "--baseline-lexicon", *lexicon_files,
         "--report-csv", out / "report.csv"],
        ["stats", corpus, "--rank-unigrams", out / "u.csv", "--rank-bigrams", out / "b.csv"],
        ["stats", unlabeled, "--unlabeled"],
        ["preprocess", corpus, out / "norm.csv"],
        ["preprocess", unlabeled, out / "norm-unlabeled.csv", "--unlabeled"],
    ]
    stdout = []
    for argv in argvs:
        assert main([str(arg) for arg in argv]) == 0
        stdout.append(capsys.readouterr().out.replace(str(out), "OUT"))
    files = {}
    for path in out.iterdir():
        lines = path.read_text(encoding="utf-8").splitlines()
        files[path.name] = [line for line in lines if "trained_at" not in line]
    return stdout, files


def test_reading_commands_build_no_record(
    corpus, unlabeled, lexicon_files, tmp_path, capsys, monkeypatch
):
    # the commands read parse_rows' triples; the record views are for library callers
    inputs = corpus, unlabeled, lexicon_files, capsys
    expected = run_reading_commands(tmp_path / "records", *inputs)

    def refuse(*args, **kwargs):
        raise AssertionError("a CLI command built a record")

    monkeypatch.setattr(dataio, "LabeledRecord", refuse)
    monkeypatch.setattr(dataio, "UnlabeledRecord", refuse)
    with pytest.raises(AssertionError, match="built a record"):
        list(dataio.parse_labeled_csv(io.StringIO("1,1,a\n")))
    assert run_reading_commands(tmp_path / "rows", *inputs) == expected


def test_stats_and_baseline_eval_build_no_token_lists(
    corpus, unlabeled, lexicon_files, tmp_path, capsys, monkeypatch
):
    # both commands count over the TokenBatch's ids; only preprocess needs
    # each tweet's token list
    model = train_nb(corpus, tmp_path)
    capsys.readouterr()

    def run(out):
        out.mkdir()
        argvs = [
            ["stats", corpus, "--rank-unigrams", out / "u.csv", "--rank-bigrams", out / "b.csv"],
            ["stats", unlabeled, "--unlabeled"],
            ["eval", model, corpus, "--baseline-lexicon", *lexicon_files,
             "--report-csv", out / "report.csv"],
        ]
        stdout = []
        for argv in argvs:
            assert main([str(arg) for arg in argv]) == 0
            stdout.append(capsys.readouterr().out.replace(str(out), "OUT"))
        return stdout, {path.name: path.read_bytes() for path in out.iterdir()}

    expected = run(tmp_path / "lists")

    def refuse(self):
        raise AssertionError("a command built per-tweet token lists")

    monkeypatch.setattr(TokenBatch, "__iter__", refuse)
    with pytest.raises(AssertionError, match="token lists"):
        list(normalize_batch(["a b"]))
    assert "baseline accuracy: 1.0000" in expected[0][2]
    assert run(tmp_path / "ids") == expected
