"""Plain-text configuration files.

Format is one `key = value` per line, `#` starts a comment, blank lines
ignored.  Values stay strings here; the CLI converts them when it
resolves a setting.  Resolution order is CLI flag, then config file,
then built-in default.
"""

from __future__ import annotations

import os

from tweetiment.errors import DataError

CONFIG_ENV_VAR = "TWEETIMENT_CONFIG"

# every setting a config file may supply
CONFIG_KEYS = frozenset(
    {
        "model",
        "features",
        "unigrams",
        "bigrams",
        "trainer",
        "max_iter",
        "tol",
        "alpha",
        "ratio",
        "seed",
        "emoticons_pos",
        "emoticons_neg",
    }
)


def load_config(stream) -> dict:
    """Parse `key = value` lines into a string-to-string dict."""
    settings: dict = {}
    for n, raw in enumerate(stream, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"config line {n}: expected 'key = value', got {line!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in CONFIG_KEYS:
            raise DataError(f"config line {n}: unknown setting {key!r}")
        if not value:
            raise DataError(f"config line {n}: empty value for {key!r}")
        settings[key] = value
    return settings


def read_config_file(path) -> dict:
    try:
        with open(path, encoding="utf-8-sig") as stream:
            return load_config(stream)
    except (OSError, UnicodeDecodeError) as error:
        raise DataError(f"cannot read config file {path}: {error}") from None


def find_config_path(explicit: str | None) -> str | None:
    """The --config flag wins; otherwise the environment variable."""
    if explicit is not None:
        return explicit
    return os.environ.get(CONFIG_ENV_VAR) or None


def resolve(cli_value, config: dict, key: str, default, convert=str):
    """Apply the precedence rule for one setting.

    CLI values arrive already converted by argparse; config values are
    strings and go through `convert`, with conversion failures reported
    as data errors naming the key.
    """
    if cli_value is not None:
        return cli_value
    if key in config:
        try:
            return convert(config[key])
        except (ValueError, TypeError):
            raise DataError(f"config setting {key!r}: bad value {config[key]!r}") from None
    return default
