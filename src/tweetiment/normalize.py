"""Tweet normalization: raw text to a canonical lowercase token sequence.

URLs, @-mentions, and emoticons collapse to the marker tokens URL,
USER_MENTION, EMO_POS, and EMO_NEG; hashtags lose their hash; retweet
markers disappear; elongated words are compressed.  The tweet-level rules
must run in the order `normalize_tweet` applies them: replacing URLs or
emoticons after punctuation stripping would destroy them first.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

from tweetiment.errors import DataError

URL_TOKEN = "URL"
USER_MENTION_TOKEN = "USER_MENTION"
EMO_POS_TOKEN = "EMO_POS"
EMO_NEG_TOKEN = "EMO_NEG"

#: The four marker tokens exempt from word-level processing.  They are
#: inserted after the tweet is lowercased, so uppercase forms can only
#: come from the replacement steps, never from user text.
SPECIAL_TOKENS = frozenset(
    {URL_TOKEN, USER_MENTION_TOKEN, EMO_POS_TOKEN, EMO_NEG_TOKEN}
)

NormalizedTweet = list[str]  # token sequence produced by normalize_tweet

_URL_RE = re.compile(r"(www\.\S+)|(https?://\S+)")
_MENTION_RE = re.compile(r"(?<!\S)@\S+")  # token-initial @ only, so a@b survives
_HASHTAG_RE = re.compile(r"#(\S+)")
_RETWEET_RE = re.compile(r"\brt\b")
_MULTI_DOT_RE = re.compile(r"\.{2,}")
_MULTI_SPACE_RE = re.compile(r"\s{2,}")
_REPEAT_RE = re.compile(r"([a-zA-Z])\1{2,}")  # letters only, not digits/symbols
_VALID_WORD_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9._]*")

_EDGE_PUNCTUATION = "'?!.,()"


@dataclass(frozen=True)
class EmoticonTable:
    """Literal emoticon strings mapped to positive or negative polarity.

    Matching happens against lowercased text, so case variants of a form
    must be listed explicitly in lowercase.
    """

    positive_forms: frozenset[str]
    negative_forms: frozenset[str]

    def __post_init__(self):
        if not self.positive_forms or not self.negative_forms:
            raise DataError("emoticon table needs at least one form of each polarity")
        overlap = self.positive_forms & self.negative_forms
        if overlap:
            raise DataError(
                "emoticon forms listed as both positive and negative: "
                + ", ".join(sorted(overlap))
            )

    @cached_property
    def _pattern(self) -> re.Pattern:
        # Longest alternative first, so overlapping forms resolve to the
        # longest match at each position.
        forms = sorted(self.positive_forms | self.negative_forms, key=len, reverse=True)
        return re.compile("|".join(re.escape(form) for form in forms))


DEFAULT_EMOTICONS = EmoticonTable(
    positive_forms=frozenset(
        {
            ":)", ":-)", "(:", "(-:", ":')",     # smiles
            ":d", ":-d", "xd", "x-d",            # laughs
            ";)", ";-)", ";d", ";-d", "(;", "(-;",  # winks
            "<3", ":*",                          # love
        }
    ),
    negative_forms=frozenset(
        {
            ":(", ":-(", "):", ")-:",            # sad
            ":'(", ':"(',                        # crying
        }
    ),
)


def _read_emoticon_file(path) -> frozenset[str]:
    forms = set()
    try:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                forms.add(stripped)
    except UnicodeDecodeError as error:
        raise DataError(f"cannot read emoticon file {path}: {error}") from None
    return frozenset(forms)


def load_emoticon_table(positive_path, negative_path) -> EmoticonTable:
    """Load an emoticon table from two text files, one form per line.

    Lines starting with ``#`` are comments.  Raises DataError when a file
    is not UTF-8, either polarity ends up empty, or a form appears in both
    files.
    """
    return EmoticonTable(
        positive_forms=_read_emoticon_file(positive_path),
        negative_forms=_read_emoticon_file(negative_path),
    )


def replace_urls(text: str) -> str:
    """Replace every www.* or http(s)://* run with the URL marker."""
    return _URL_RE.sub(URL_TOKEN, text)


def replace_user_mentions(text: str) -> str:
    """Replace every token-initial @handle with the USER_MENTION marker."""
    return _MENTION_RE.sub(USER_MENTION_TOKEN, text)


def replace_emoticons(text: str, emoticons: EmoticonTable = DEFAULT_EMOTICONS) -> str:
    """Replace each emoticon occurrence with a space-padded polarity marker.

    The padding detaches emoticons glued to adjacent words ("bye:(" becomes
    "bye  EMO_NEG ").  Occurrences are matched as plain substrings, longest
    form first.
    """
    positive = emoticons.positive_forms

    def _sub(match: re.Match) -> str:
        token = EMO_POS_TOKEN if match.group(0) in positive else EMO_NEG_TOKEN
        return f" {token} "

    return emoticons._pattern.sub(_sub, text)


def replace_hashtags(text: str) -> str:
    """Drop the leading # of every hashtag, keeping the tag text."""
    return _HASHTAG_RE.sub(lambda m: m.group(1), text)


def remove_retweet_markers(text: str) -> str:
    """Remove every standalone "rt" from already-lowercased text."""
    return _RETWEET_RE.sub("", text)


def is_valid_word(word: str) -> bool:
    """True when the word starts with an ASCII letter followed only by
    letters, digits, dots, or underscores."""
    return _VALID_WORD_RE.fullmatch(word) is not None


def normalize_word(word: str) -> str | None:
    """Apply the word-level rules; return the cleaned word or None to drop it.

    Hyphens and apostrophes are deleted ("t-shirt" -> "tshirt"), edge
    punctuation is stripped, letter runs of three or more compress to two
    ("sooooo" -> "soo"), and anything that is not a valid word afterwards
    is dropped.  Deletion runs first so it cannot expose edge punctuation
    or fresh letter runs in the final token.
    """
    word = word.replace("-", "").replace("'", "")
    word = word.strip(_EDGE_PUNCTUATION)
    word = _REPEAT_RE.sub(r"\1\1", word)
    return word if is_valid_word(word) else None


def normalize_tweet(raw: str, emoticons: EmoticonTable = DEFAULT_EMOTICONS) -> list[str]:
    """Normalize a raw tweet into its canonical token sequence.

    Tweet-level steps, in order: lowercase; collapse runs of two or more
    dots to a space; trim spaces and quotes from the ends; collapse
    repeated whitespace; remove retweet markers; replace URLs, then
    user mentions, then emoticons, then unwrap hashtags.  Each remaining
    whitespace-separated word then goes through `normalize_word`; the four
    marker tokens pass through untouched.

    Pathological input yields an empty token list rather than an error.
    """
    text = raw.lower()
    text = _MULTI_DOT_RE.sub(" ", text)
    text = text.strip(" \t\r\n\"'")
    text = _MULTI_SPACE_RE.sub(" ", text)
    text = remove_retweet_markers(text)
    text = replace_urls(text)
    text = replace_user_mentions(text)
    text = replace_emoticons(text, emoticons)
    text = replace_hashtags(text)

    tokens = []
    for word in text.split():
        if word in SPECIAL_TOKENS:
            tokens.append(word)
            continue
        # Fragments glued to an inserted marker ("awww.x.com" -> "aURL")
        # are the only way mixed case survives to this point.
        cleaned = normalize_word(word.lower())
        if cleaned is not None:
            tokens.append(cleaned)
    return tokens
