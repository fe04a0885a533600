"""Tweet normalization: raw text to a canonical lowercase token sequence.

URLs, @-mentions, and emoticons collapse to the marker tokens URL,
USER_MENTION, EMO_POS, and EMO_NEG; hashtags lose their hash; retweet
markers disappear; elongated words are compressed.  The tweet-level rules
must run in the order `normalize_tweet` lists them: replacing URLs or
emoticons after punctuation stripping would destroy them first.
`normalize_batch` gives a file's tweets as one TokenBatch of token ids,
which the n-gram counter and the document matrix read without hashing a
token again.
"""

from __future__ import annotations

import re
from array import array
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, count, islice

import numpy as np

from tweetiment.dataio import read_line_list
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

_URL_RE = re.compile(r"(www\.\S+)|(https?://\S+)")
_MENTION_RE = re.compile(r"(?<!\S)@\S+")  # token-initial @ only, so a@b survives
_HASHTAG_RE = re.compile(r"#(\S+)")
_RETWEET_RE = re.compile(r"\brt\b")
_MULTI_DOT_RE = re.compile(r"\.{2,}")
_MULTI_SPACE_RE = re.compile(r"\s{2,}")
_REPEAT_RE = re.compile(r"([a-zA-Z])\1\1+")  # letters only, not digits/symbols
_VALID_WORD_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9._]*")

# The word rules run over newline-separated words, so each pattern works
# line by line: with re.M, ^ and $ match at every word's ends.
_INVALID_LINE_RE = re.compile(rf"^(?!{_VALID_WORD_RE.pattern}$).+", re.M)

#: Distinct words the word rules take in one pass, which bounds the joined
#: text a pass holds.
_CHUNK_WORDS = 1024


@dataclass(frozen=True)
class EmoticonTable:
    """Literal emoticon strings mapped to positive or negative polarity.

    Matching happens against lowercased text, so every form must be
    lowercase; the table refuses one that is not.
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
        for form in sorted(self.positive_forms | self.negative_forms):
            if _MULTI_SPACE_RE.search(form):
                raise DataError(
                    f"emoticon form {form!r} holds a run of whitespace, which "
                    "normalization collapses to one space, so it can never match"
                )
            if form != form.lower():
                raise DataError(
                    f"emoticon form {form!r} is not lowercase, and tweets are "
                    "lowercased before matching, so it can never match"
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


def load_emoticon_table(positive_path, negative_path) -> EmoticonTable:
    """Load an emoticon table from two text files, one form per line.

    Lines starting with ``#`` are comments.  Raises DataError when a file
    is not UTF-8, either polarity ends up empty, or a form appears in both
    files.
    """
    return EmoticonTable(
        positive_forms=read_line_list(positive_path, "emoticon", "#"),
        negative_forms=read_line_list(negative_path, "emoticon", "#"),
    )


def replace_urls(text: str) -> str:
    """Replace every www.* or http(s)://* run with the URL marker."""
    # The guards here and below skip the regex scan on text that holds no
    # match, which is most tweets.
    return _URL_RE.sub(URL_TOKEN, text) if "www." in text or "://" in text else text


def replace_user_mentions(text: str) -> str:
    """Replace every token-initial @handle with the USER_MENTION marker."""
    return _MENTION_RE.sub(USER_MENTION_TOKEN, text) if "@" in text else text


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
    return _HASHTAG_RE.sub(lambda m: m.group(1), text) if "#" in text else text


def remove_retweet_markers(text: str) -> str:
    """Remove every standalone "rt" from already-lowercased text."""
    return _RETWEET_RE.sub("", text) if "rt" in text else text


def _word_rules(text: str) -> list:
    """The word rules over newline-separated words, one pass per rule over
    the whole text: the cleaned words in order, "" for each dropped one.
    No rule can reach across a newline."""
    text = text.replace("-", "").replace("'", "")
    # the edge set leaves out the apostrophe, deleted above
    text = "\n".join([word.strip("?!.,()") for word in text.split("\n")])
    text = _REPEAT_RE.sub(r"\1\1", text)
    return _INVALID_LINE_RE.sub("", text).split("\n")


def normalize_word(word: str) -> str | None:
    """Apply the word-level rules; return the cleaned word or None to drop it.

    Hyphens and apostrophes are deleted ("t-shirt" -> "tshirt"), edge
    punctuation is stripped, letter runs of three or more compress to two
    ("sooooo" -> "soo"), and anything that is not a valid word afterwards
    is dropped.  Deletion runs first so it cannot expose edge punctuation
    or fresh letter runs in the final token.  This is the one-word call of
    the pass `normalize_batch` makes; a word holding a newline is never
    valid.
    """
    return None if "\n" in word else _word_rules(word)[0] or None


@dataclass(frozen=True, eq=False)
class TokenBatch:
    """Normalized tweets as token ids: tweet t's tokens are
    [words[i] for i in ids[offsets[t]:offsets[t + 1]]].

    ids and offsets are int32 arrays; offsets has one entry more than there
    are tweets, the first 0.  Ids may repeat a word, since the normalizer
    gives each raw form its own ("hello," and "hello" both clean to hello),
    so code that counts or looks up words dedupes them through the word.
    Iterating yields each tweet's token list.
    """

    words: list
    ids: np.ndarray
    offsets: np.ndarray

    @classmethod
    def of(cls, tweets) -> TokenBatch:
        """`tweets` itself when it is a TokenBatch, else its token lists as
        one, each distinct token with one id."""
        if isinstance(tweets, cls):
            return tweets
        tweets = list(tweets)
        place = dict(zip(dict.fromkeys(chain.from_iterable(tweets)), count()))
        ids = np.fromiter(map(place.__getitem__, chain.from_iterable(tweets)), np.int32)
        offsets = np.fromiter(accumulate(map(len, tweets), initial=0), np.int32, len(tweets) + 1)
        return cls(list(place), ids, offsets)

    def __len__(self):
        return len(self.offsets) - 1

    def counts_in(self, words) -> np.ndarray:
        """Per tweet, how many of its tokens have a word in the set `words`:
        one membership test per entry of `self.words`."""
        member = np.fromiter(map(words.__contains__, self.words), bool, len(self.words))
        rows = self.offsets.searchsorted(np.flatnonzero(member[self.ids]), "right") - 1
        return np.bincount(rows, minlength=len(self))  # reduceat misreads empty rows

    def __iter__(self):
        words, offsets = self.words, self.offsets.tolist()
        for start, stop in zip(offsets, offsets[1:]):
            yield [words[i] for i in self.ids[start:stop].tolist()]


def normalize_batch(raws, emoticons: EmoticonTable = DEFAULT_EMOTICONS) -> TokenBatch:
    """Normalize raw tweets into one TokenBatch, which iterates as their
    token lists; `normalize_tweet` lists the rules.

    The tweet-level rules run per tweet, and each distinct word gets a slot
    in a dict alive for the call.  The word rules then run once per call
    over all slots, as one pass per rule over chunks of
    _CHUNK_WORDS words; numpy maps the slots to token ids and drops the
    words the rules remove.  Nothing carries over from one call to the next.
    """
    slots = defaultdict(count().__next__)  # a new word takes the next slot
    slot_of = slots.__getitem__
    found, ends = array("i"), array("i", [0])
    # Runs of whitespace need collapsing only for a form that holds some:
    # no other rule, and not split(), depends on how long a run is.
    spaced = any(map(str.isspace, "".join(emoticons.positive_forms | emoticons.negative_forms)))
    for raw in raws:
        text = raw.lower()
        if ".." in text:
            text = _MULTI_DOT_RE.sub(" ", text)
        text = text.strip(" \t\r\n\"'")
        if spaced:
            text = _MULTI_SPACE_RE.sub(" ", text)
        text = remove_retweet_markers(text)
        text = replace_urls(text)
        text = replace_user_mentions(text)
        text = replace_emoticons(text, emoticons)
        text = replace_hashtags(text)
        found.extend(map(slot_of, text.split()))
        ends.append(len(found))
    # Words come from split(), so none holds a newline.  Fragments glued to
    # an inserted marker ("awww.x.com" -> "aURL") are the only way mixed
    # case survives to here, hence the lower().
    tokens, keys = [], iter(slots)
    while chunk := list(islice(keys, _CHUNK_WORDS)):
        cleaned = _word_rules("\n".join(chunk).lower())
        tokens += [word if token == word else token for word, token in zip(chunk, cleaned)]
    for marker in SPECIAL_TOKENS:  # the marker tokens pass through untouched
        if (slot := slots.get(marker)) is not None:
            tokens[slot] = marker
    del slots, slot_of  # frees the dict before the arrays are made
    kept = np.fromiter(map(bool, tokens), bool, len(tokens))
    slot_ids = np.frombuffer(found, np.int32)
    ids = (np.cumsum(kept, dtype=np.int32) - 1)[slot_ids]  # each slot's token id
    kept = kept[slot_ids]  # per occurrence now
    del slot_ids, found
    ends = np.frombuffer(ends, np.int32)
    offsets = (ends - np.flatnonzero(~kept).searchsorted(ends)).astype(np.int32)
    return TokenBatch([token for token in tokens if token], ids if kept.all() else ids[kept], offsets)


def normalize_tweet(raw: str, emoticons: EmoticonTable = DEFAULT_EMOTICONS) -> list[str]:
    """Normalize a raw tweet into its canonical token sequence.

    Tweet-level steps, in order: lowercase; collapse runs of two or more
    dots to a space; trim spaces and quotes from the ends; collapse
    repeated whitespace; remove retweet markers; replace URLs, then
    user mentions, then emoticons, then unwrap hashtags.  Each remaining
    whitespace-separated word then goes through `normalize_word`; the four
    marker tokens pass through untouched.  This is the one-row call of
    `normalize_batch`.

    Pathological input yields an empty token list rather than an error.
    """
    return next(iter(normalize_batch((raw,), emoticons)))
