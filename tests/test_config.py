"""Tests for config-file parsing and setting resolution."""

import io

import pytest

from tweetiment.cli import main
from tweetiment.config import (
    CONFIG_ENV_VAR,
    SETTINGS,
    fill_settings,
    find_config_path,
    load_config,
    read_config_file,
)
from tweetiment.errors import DataError
from tweetiment.features import DEFAULT_BIGRAM_BUDGET, DEFAULT_UNIGRAM_BUDGET, FREQUENCY
from tweetiment.models.maxent import TrainerConfig


def parse(text: str) -> dict:
    return load_config(io.StringIO(text))


class TestLoadConfig:
    def test_basic_pairs(self):
        assert parse("model = maxent\nunigrams = 500\n") == {
            "model": "maxent",
            "unigrams": 500,
        }

    def test_comments_and_blanks(self):
        text = "# leading comment\n\nmodel = nb   # trailing comment\n"
        assert parse(text) == {"model": "nb"}

    def test_whitespace_tolerant(self):
        assert parse("  tol=1e-4  \n") == {"tol": 1e-4}

    def test_value_keeps_internal_spaces(self):
        assert parse("emoticons_pos = my emoticon file.txt\n") == {
            "emoticons_pos": "my emoticon file.txt"
        }

    def test_last_assignment_wins(self):
        assert parse("seed = 1\nseed = 2\n") == {"seed": 2}

    def test_unknown_key(self):
        with pytest.raises(DataError, match="line 2.*unknown setting 'momentum'"):
            parse("seed = 1\nmomentum = 0.9\n")

    def test_missing_equals(self):
        with pytest.raises(DataError, match="key = value"):
            parse("seed 1\n")

    def test_empty_value(self):
        with pytest.raises(DataError, match="empty value"):
            parse("seed =\n")

    def test_empty_stream(self):
        assert parse("") == {}


class TestFileAndEnv:
    def test_read_config_file(self, tmp_path):
        path = tmp_path / "settings.conf"
        path.write_text("ratio = 0.9\n", encoding="utf-8")
        assert read_config_file(path) == {"ratio": 0.9}

    def test_read_config_file_drops_byte_order_mark(self, tmp_path):
        path = tmp_path / "settings.conf"
        path.write_text("model = nb\n", encoding="utf-8-sig")
        assert read_config_file(path) == {"model": "nb"}

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read config file"):
            read_config_file(tmp_path / "absent.conf")

    def test_explicit_path_wins(self, monkeypatch):
        monkeypatch.setenv(CONFIG_ENV_VAR, "/env/path.conf")
        assert find_config_path("/cli/path.conf") == "/cli/path.conf"

    def test_env_var_fallback(self, monkeypatch):
        monkeypatch.setenv(CONFIG_ENV_VAR, "/env/path.conf")
        assert find_config_path(None) == "/env/path.conf"

    def test_unset_everywhere(self, monkeypatch):
        monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
        assert find_config_path(None) is None

    def test_empty_env_var_ignored(self, monkeypatch):
        monkeypatch.setenv(CONFIG_ENV_VAR, "")
        assert find_config_path(None) is None


class TestParsedValues:
    @pytest.mark.parametrize(
        "key, text",
        [
            ("model", "svm"),
            ("features", "tfidf"),
            ("unigrams", "1.5"),
            ("bigrams", "lots"),
            ("trainer", "GIS"),
            ("max_iter", "1e3"),
            ("tol", "small"),
            ("alpha", "abc"),
            ("ratio", "half"),
            ("seed", "0x"),
        ],
    )
    def test_bad_value_names_line_and_key(self, key, text):
        with pytest.raises(DataError, match=f"config line 2: bad value for '{key}'"):
            parse(f"# settings\n{key} = {text}\n")

    def test_values_are_parsed(self):
        text = "features = presence\nbigrams = 7\nalpha = 0.5\nemoticons_pos = a b.txt\n"
        assert parse(text) == {
            "features": "presence",
            "bigrams": 7,
            "alpha": 0.5,
            "emoticons_pos": "a b.txt",
        }

    def test_defaults_are_the_library_defaults(self):
        defaults = {key: default for key, (_, default) in SETTINGS.items()}
        trainer = TrainerConfig()
        assert defaults == {
            "model": "nb",
            "features": FREQUENCY,
            "unigrams": DEFAULT_UNIGRAM_BUDGET,
            "bigrams": DEFAULT_BIGRAM_BUDGET,
            "trainer": trainer.algorithm,
            "max_iter": trainer.max_iterations,
            "tol": trainer.ll_tolerance,
            "alpha": 1.0,
            "ratio": 0.8,
            "seed": 1,
            "emoticons_pos": None,
            "emoticons_neg": None,
        }


class TestResolve:
    """fill_settings: CLI value, then config file, then default."""

    @pytest.fixture(autouse=True)
    def _no_env_config(self, monkeypatch):
        monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)

    def conf(self, tmp_path, text):
        path = tmp_path / "settings.conf"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_cli_beats_config(self, tmp_path):
        chosen = {"seed": 7}
        fill_settings(chosen, self.conf(tmp_path, "seed = 3\n"))
        assert chosen == {"seed": 7}

    def test_config_beats_default(self, tmp_path):
        chosen = {"seed": None, "ratio": None}
        fill_settings(chosen, self.conf(tmp_path, "seed = 3\n"))
        assert chosen == {"seed": 3, "ratio": 0.8}

    def test_default_when_unset(self):
        chosen = {"seed": None, "trainer": None, "emoticons_pos": None, "input": "x.csv"}
        fill_settings(chosen, None)
        assert chosen == {"seed": 1, "trainer": "iis", "emoticons_pos": None, "input": "x.csv"}

    def test_config_conversion_failure(self, tmp_path):
        # a setting the command does not take is still checked
        with pytest.raises(DataError, match="'seed'.*'many'"):
            fill_settings({"ratio": None}, self.conf(tmp_path, "seed = many\n"))

    def test_settings_a_command_lacks_stay_unset(self, tmp_path):
        chosen = {"ratio": None}
        fill_settings(chosen, self.conf(tmp_path, "model = maxent\n"))
        assert chosen == {"ratio": 0.8}


TRAIN_CSV = "1,1,love this :)\n2,1,great day\n3,0,hate this :(\n4,0,awful day\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["preprocess", "{csv}", "{out}"],
        ["stats", "{csv}"],
        ["train", "{csv}", "{out}", "--model", "nb"],
        ["train", "{csv}", "{out}", "--model", "maxent"],
        ["predict", "{model}", "{unlabeled}", "{out}"],
        ["eval", "{model}", "{csv}"],
        ["split", "{csv}", "{out}", "{out}2"],
    ],
    ids=lambda argv: "-".join(a for a in argv if "{" not in a),
)
def test_bad_config_value_exits_3_for_every_command(tmp_path, argv):
    data = tmp_path / "train.csv"
    data.write_text(TRAIN_CSV, encoding="utf-8")
    unlabeled = tmp_path / "unlabeled.csv"
    unlabeled.write_text("7,good day\n", encoding="utf-8")
    model = tmp_path / "nb.model"
    assert main(["train", str(data), str(model)]) == 0
    paths = dict(csv=data, unlabeled=unlabeled, out=tmp_path / "out", model=model)
    argv = [a.format(**paths) for a in argv]
    assert main(argv) == 0
    conf = tmp_path / "bad.conf"
    conf.write_text("alpha = abc\n", encoding="utf-8")
    assert main(argv + ["--config", str(conf)]) == 3
