"""Tests for config-file parsing and setting resolution."""

import io

import pytest

from tweetiment.config import (
    CONFIG_ENV_VAR,
    find_config_path,
    load_config,
    read_config_file,
    resolve,
)
from tweetiment.errors import DataError


def parse(text: str) -> dict:
    return load_config(io.StringIO(text))


class TestLoadConfig:
    def test_basic_pairs(self):
        assert parse("model = maxent\nunigrams = 500\n") == {
            "model": "maxent",
            "unigrams": "500",
        }

    def test_comments_and_blanks(self):
        text = "# leading comment\n\nmodel = nb   # trailing comment\n"
        assert parse(text) == {"model": "nb"}

    def test_whitespace_tolerant(self):
        assert parse("  tol=1e-4  \n") == {"tol": "1e-4"}

    def test_value_keeps_internal_spaces(self):
        assert parse("emoticons_pos = my emoticon file.txt\n") == {
            "emoticons_pos": "my emoticon file.txt"
        }

    def test_last_assignment_wins(self):
        assert parse("seed = 1\nseed = 2\n") == {"seed": "2"}

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
        assert read_config_file(path) == {"ratio": "0.9"}

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


class TestResolve:
    def test_cli_beats_config(self):
        assert resolve(7, {"seed": "3"}, "seed", 1, int) == 7

    def test_config_beats_default(self):
        assert resolve(None, {"seed": "3"}, "seed", 1, int) == 3

    def test_default_when_unset(self):
        assert resolve(None, {}, "seed", 1, int) == 1

    def test_config_conversion_failure(self):
        with pytest.raises(DataError, match="'seed'.*'many'"):
            resolve(None, {"seed": "many"}, "seed", 1, int)
