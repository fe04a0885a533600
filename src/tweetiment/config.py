"""Plain-text configuration files and the table of CLI settings.

Format is one `key = value` per line, `#` starts a comment, blank lines
ignored.  Each value is parsed by its setting's parser when the file is
read, so a bad value is a data error whatever the command.  Resolution
order is CLI flag, then config file, then built-in default.
"""

from __future__ import annotations

import inspect
import os

from tweetiment.dataio import split_dataset
from tweetiment.errors import DataError
from tweetiment.features import (
    DEFAULT_BIGRAM_BUDGET,
    DEFAULT_UNIGRAM_BUDGET,
    FEATURE_MODES,
    FREQUENCY,
)
from tweetiment.models.maxent import ALGORITHMS, TrainerConfig
from tweetiment.models.naive_bayes import nb_train

CONFIG_ENV_VAR = "TWEETIMENT_CONFIG"


def _default(function, parameter):
    return inspect.signature(function).parameters[parameter].default


# setting -> (parse, default); a tuple as parse is the setting's choices.
# TrainerConfig's class attributes are its field defaults.
SETTINGS = {
    "model": (("nb", "maxent"), "nb"),
    "features": (FEATURE_MODES, FREQUENCY),
    "unigrams": (int, DEFAULT_UNIGRAM_BUDGET),
    "bigrams": (int, DEFAULT_BIGRAM_BUDGET),
    "trainer": (ALGORITHMS, TrainerConfig.algorithm),
    "max_iter": (int, TrainerConfig.max_iterations),
    "tol": (float, TrainerConfig.ll_tolerance),
    "alpha": (float, _default(nb_train, "alpha")),
    "ratio": (float, _default(split_dataset, "ratio")),
    "seed": (int, _default(split_dataset, "seed")),
    "emoticons_pos": (str, None),
    "emoticons_neg": (str, None),
}


def _parse(key: str, text: str):
    parse = SETTINGS[key][0]
    if not isinstance(parse, tuple):
        return parse(text)
    if text not in parse:
        raise ValueError(text)
    return text


def load_config(stream) -> dict:
    """Parse `key = value` lines into a dict of parsed setting values."""
    settings: dict = {}
    for n, raw in enumerate(stream, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"config line {n}: expected 'key = value', got {line!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in SETTINGS:
            raise DataError(f"config line {n}: unknown setting {key!r}")
        if not value:
            raise DataError(f"config line {n}: empty value for {key!r}")
        try:
            settings[key] = _parse(key, value)
        except ValueError:
            raise DataError(f"config line {n}: bad value for {key!r}: {value!r}") from None
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


def fill_settings(chosen: dict, explicit_path: str | None) -> None:
    """Set each setting that `chosen` holds as None from the config file,
    else from its default.  The whole file is read and parsed either way."""
    path = find_config_path(explicit_path)
    found = read_config_file(path) if path is not None else {}
    for key, (_, default) in SETTINGS.items():
        if key in chosen and chosen[key] is None:
            chosen[key] = found.get(key, default)
