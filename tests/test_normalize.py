"""Tests for the tweet normalization pipeline."""

import re
from array import array

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tweetiment import normalize
from tweetiment.cli import main
from tweetiment.errors import DataError
from tweetiment.normalize import (
    DEFAULT_EMOTICONS,
    SPECIAL_TOKENS,
    EmoticonTable,
    TokenBatch,
    load_emoticon_table,
    normalize_batch,
    normalize_tweet,
    normalize_word,
    remove_retweet_markers,
    replace_emoticons,
    replace_hashtags,
    replace_urls,
    replace_user_mentions,
)
from sample_data import GOLDEN_TWEETS, WORD_CASES

URL_SHAPE = re.compile(r"(www\.\S+)|(https?://\S+)")
MENTION_SHAPE = re.compile(r"@\S+")
HASHTAG_SHAPE = re.compile(r"#\S+")
TRIPLE_LETTER = re.compile(r"([a-zA-Z])\1\1")
VALID_WORD = re.compile(r"[a-zA-Z][a-zA-Z0-9._]*")


def is_valid_word(word):
    """The oracle of the rule the word rules end with: an ASCII letter, then
    only letters, digits, dots or underscores."""
    return VALID_WORD.fullmatch(word) is not None


class TestReplaceUrls:
    def test_http_link(self):
        assert replace_urls("go to http://a.co now") == "go to URL now"

    def test_bare_www(self):
        assert replace_urls("www.example.com/x?y=1") == "URL"

    def test_https(self):
        assert replace_urls("see https://b.org/path") == "see URL"

    def test_no_links(self):
        assert replace_urls("no links here") == "no links here"


class TestReplaceUserMentions:
    def test_simple(self):
        assert replace_user_mentions("@bob hi") == "USER_MENTION hi"

    def test_mid_word_at_survives(self):
        assert replace_user_mentions("a@b") == "a@b"

    def test_two_mentions(self):
        assert replace_user_mentions("@x @y") == "USER_MENTION USER_MENTION"

    def test_start_of_string(self):
        assert replace_user_mentions("@only") == "USER_MENTION"


class TestReplaceEmoticons:
    def test_positive_padded(self):
        assert replace_emoticons("great :)") == "great  EMO_POS "

    def test_glued_detaches(self):
        assert replace_emoticons("oh no :(rip") == "oh no  EMO_NEG rip"

    def test_no_match(self):
        assert replace_emoticons("plain text") == "plain text"

    def test_both_polarities(self):
        out = replace_emoticons("up :) down :(")
        assert "EMO_POS" in out and "EMO_NEG" in out

    def test_longest_form_wins(self):
        # With one form a prefix of another, the longer must match first.
        table = EmoticonTable(
            positive_forms=frozenset({":)"}),
            negative_forms=frozenset({":))"}),
        )
        assert replace_emoticons(":))", table) == " EMO_NEG "


class TestEmoticonTable:
    def test_overlap_rejected(self):
        with pytest.raises(DataError):
            EmoticonTable(
                positive_forms=frozenset({":)", ":x"}),
                negative_forms=frozenset({":(", ":x"}),
            )

    def test_empty_side_rejected(self):
        with pytest.raises(DataError):
            EmoticonTable(positive_forms=frozenset(), negative_forms=frozenset({":("}))

    def test_load_from_files(self, tmp_path):
        pos = tmp_path / "pos.txt"
        neg = tmp_path / "neg.txt"
        pos.write_text("# smiles\n:)\n:-)\n\n", encoding="utf-8")
        neg.write_text(":(\n", encoding="utf-8")
        table = load_emoticon_table(pos, neg)
        assert table.positive_forms == {":)", ":-)"}
        assert table.negative_forms == {":("}

    def test_load_drops_byte_order_mark(self, tmp_path):
        pos = tmp_path / "pos.txt"
        neg = tmp_path / "neg.txt"
        pos.write_text(":)\n", encoding="utf-8-sig")
        neg.write_text(":(\n", encoding="utf-8-sig")
        table = load_emoticon_table(pos, neg)
        assert table.positive_forms == {":)"}
        assert normalize_tweet("so good :)", table) == ["so", "good", "EMO_POS"]

    def test_load_conflict_rejected(self, tmp_path):
        pos = tmp_path / "pos.txt"
        neg = tmp_path / "neg.txt"
        pos.write_text(":)\n", encoding="utf-8")
        neg.write_text(":)\n", encoding="utf-8")
        with pytest.raises(DataError):
            load_emoticon_table(pos, neg)

    @pytest.mark.parametrize("form", [":  )", ":\t )", "x\xa0\u3000d"])
    def test_form_with_a_whitespace_run_rejected(self, tmp_path, form):
        # the collapse turns such a run in a tweet into one space, so the
        # form could never match
        pos = tmp_path / "pos.txt"
        neg = tmp_path / "neg.txt"
        pos.write_text(f":)\n{form}\n", encoding="utf-8")
        neg.write_text(":(\n", encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(repr(form))):
            load_emoticon_table(pos, neg)

    @pytest.mark.parametrize("form", [":D", "xD", ":-P", "\u01c5"])
    def test_form_that_is_not_lowercase_rejected(self, form):
        # tweets are lowercased before emoticons are matched, so the form
        # could never match
        with pytest.raises(DataError, match=re.escape(repr(form))):
            EmoticonTable(positive_forms=frozenset({":)", form}), negative_forms=frozenset({":("}))

    def test_form_with_a_whitespace_run_exits_3(self, tmp_path, capsys):
        pos = tmp_path / "pos.txt"
        neg = tmp_path / "neg.txt"
        pos.write_text(":)\n", encoding="utf-8")
        neg.write_text(":  (\n", encoding="utf-8")
        tweets = tmp_path / "tweets.csv"
        tweets.write_text("tweet_id,sentiment,tweet\n1,1,good day\n", encoding="utf-8")
        out = tmp_path / "out.csv"
        flags = ["--emoticons-pos", str(pos), "--emoticons-neg", str(neg)]
        assert main(["preprocess", str(tweets), str(out), *flags]) == 3
        assert "':  ('" in capsys.readouterr().err
        assert not out.exists()

    def test_form_with_one_space_matches_across_a_run(self):
        table = EmoticonTable(positive_forms=frozenset({": )"}), negative_forms=frozenset({":("}))
        assert normalize_tweet("good :  ) day", table) == ["good", "EMO_POS", "day"]
        assert normalize_tweet("good :\t\t) day", table) == ["good", "EMO_POS", "day"]


class TestReplaceHashtags:
    def test_tag_with_trailing_word(self):
        assert replace_hashtags("#Windows updates") == "Windows updates"

    def test_bare_tag(self):
        assert replace_hashtags("#hello") == "hello"

    def test_no_tags(self):
        assert replace_hashtags("no tags") == "no tags"


class TestRemoveRetweetMarkers:
    def test_leading_marker(self):
        assert remove_retweet_markers("rt this is old") == " this is old"

    def test_inside_word_untouched(self):
        assert remove_retweet_markers("start here") == "start here"

    def test_repeated_marker(self):
        assert remove_retweet_markers("rt rt news") == "  news"


class TestNormalizeWord:
    @pytest.mark.parametrize("word,expected", WORD_CASES)
    def test_cases(self, word, expected):
        assert normalize_word(word) == expected

    def test_hyphen_removed_before_compression(self):
        # Deleting the hyphen merges two letter runs; the merged run must
        # still compress.
        assert normalize_word("baaa-aaad") == "baad"

    def test_hyphen_removed_before_edge_strip(self):
        assert normalize_word("a.-") == "a"

    def test_digits_not_compressed(self):
        assert normalize_word("room777") == "room777"

    @given(st.text(alphabet="aAbB1-'._!?,() \u00e9", max_size=12))
    def test_compression_equals_the_template_form(self, word):
        # the word rules, compressing with re's backslash template
        cleaned = word.replace("-", "").replace("'", "").strip("'?!.,()")
        cleaned = re.sub(r"([a-zA-Z])\1{2,}", r"\1\1", cleaned)
        assert normalize_word(word) == (cleaned if is_valid_word(cleaned) else None)


class TestIsValidWord:
    def test_letters_digits_dot_underscore(self):
        assert is_valid_word("hello_2.0")

    def test_digit_initial(self):
        assert not is_valid_word("2fast")

    def test_empty(self):
        assert not is_valid_word("")

    def test_non_ascii(self):
        assert not is_valid_word("héllo")


class TestNormalizeTweet:
    @pytest.mark.parametrize("raw,expected", GOLDEN_TWEETS)
    def test_golden_pairs(self, raw, expected):
        assert normalize_tweet(raw) == expected

    def test_empty_input(self):
        assert normalize_tweet("") == []

    def test_whitespace_dots_quotes_only(self):
        assert normalize_tweet("  ...  \"\" '' .. ") == []

    def test_elongation_and_case(self):
        assert normalize_tweet("I am sooooo happpppy") == ["i", "am", "soo", "happy"]

    def test_retweet_marker_removed(self):
        assert normalize_tweet("RT @bob: breaking news") == [
            "USER_MENTION",
            "breaking",
            "news",
        ]

    def test_fragment_glued_to_marker_is_lowercased(self):
        # The URL rule matches mid-word, which can glue a leading fragment
        # onto the inserted marker; the result is an ordinary word.
        assert normalize_tweet("awww.x.com") == ["aurl"]

    def test_custom_emoticon_table(self):
        table = EmoticonTable(
            positive_forms=frozenset({"^^"}),
            negative_forms=frozenset({"qq"}),
        )
        assert normalize_tweet("nice ^^ but qq", table) == ["nice", "EMO_POS", "but", "EMO_NEG"]


def tweet_texts():
    atoms = st.sampled_from(
        [
            "hello", "WORLD", "sooooo", "t-shirt", "#tag", "@someone",
            "http://x.co/a", "www.b.com", ":)", ":(", "rt", "RT",
            "don't", "!!!", "a@b", "...", "r.i.p.", '"quoted"', "777",
        ]
    )
    chunk = st.one_of(atoms, st.text(max_size=8))
    return st.lists(chunk, max_size=12).map(" ".join)


class TestPipelineInvariants:
    @given(tweet_texts())
    def test_tokens_are_valid_or_special(self, raw):
        for token in normalize_tweet(raw):
            assert token in SPECIAL_TOKENS or is_valid_word(token)

    @given(tweet_texts())
    def test_non_special_tokens_lowercase(self, raw):
        for token in normalize_tweet(raw):
            if token not in SPECIAL_TOKENS:
                assert token == token.lower()

    @given(tweet_texts())
    def test_no_triple_letters(self, raw):
        for token in normalize_tweet(raw):
            assert TRIPLE_LETTER.search(token) is None

    @given(tweet_texts())
    def test_no_raw_url_mention_hashtag_shapes(self, raw):
        for token in normalize_tweet(raw):
            assert URL_SHAPE.search(token) is None
            assert MENTION_SHAPE.search(token) is None
            assert HASHTAG_SHAPE.search(token) is None

    @given(st.text(alphabet=" \t.\"'", max_size=30))
    def test_filler_only_input_yields_nothing(self, raw):
        assert normalize_tweet(raw) == []

    @given(st.text(max_size=60))
    def test_never_raises_and_no_whitespace_in_tokens(self, raw):
        for token in normalize_tweet(raw):
            assert token == token.strip()
            assert " " not in token


def per_word_loop(raw, emoticons):
    """The uncached oracle: the tweet-level steps, then `normalize_word` on
    every word occurrence that is not a marker token."""
    text = re.sub(r"\.{2,}", " ", raw.lower()).strip(" \t\r\n\"'")
    text = re.sub(r"\s{2,}", " ", text)
    text = remove_retweet_markers(text)
    text = replace_urls(text)
    text = replace_user_mentions(text)
    text = replace_emoticons(text, emoticons)
    text = replace_hashtags(text)
    tokens = []
    for word in text.split():
        if word in SPECIAL_TOKENS:
            tokens.append(word)
        elif (cleaned := normalize_word(word.lower())) is not None:
            tokens.append(cleaned)
    return tokens


CUSTOM_EMOTICONS = EmoticonTable(
    positive_forms=frozenset({"^^", ":)"}), negative_forms=frozenset({"qq", "t_t"})
)


def repeating_tweets():
    # A small shared pool, so words repeat within and across tweets.
    words = st.sampled_from(
        [
            "good", "GOOD", "GoOd", "day", "sooooo", "t-shirt", "(wow)", "'quoted'", "?ok",
            "yes!!", "r.i.p.", "..x", "!!!", "777", "--", "a@b", "héllo", "2fast",
            "awww.x.com", "HEYwww.a.b", "Xhttp://y.z", "a#www.b.c", "#www.d.e", "#Tag",
            "@who", "rt", "RT", ":)", ":(", "^^", "qq", "T_T", "bye:(", "url", "URL",
            "EMO_POS", "emo_neg",
        ]
    )
    fresh = st.text(max_size=6)
    return st.lists(st.one_of(words, words, fresh), max_size=10).map(" ".join)


@given(st.one_of(repeating_tweets(), st.text(alphabet="rtw.hps:/@# \t\nRTé", max_size=24)))
def test_guarded_steps_equal_the_plain_substitutions(text):
    # each step skips its regex when a substring every match needs is absent
    assert remove_retweet_markers(text) == re.sub(r"\brt\b", "", text)
    assert replace_urls(text) == re.sub(r"(www\.\S+)|(https?://\S+)", "URL", text)
    assert replace_user_mentions(text) == re.sub(r"(?<!\S)@\S+", "USER_MENTION", text)
    assert replace_hashtags(text) == re.sub(r"#(\S+)", r"\1", text)


class TestNormalizeTweets:
    @given(
        st.lists(st.lists(repeating_tweets(), max_size=8), min_size=1, max_size=4),
        st.booleans(),
    )
    def test_matches_the_per_word_loop(self, calls, custom_first):
        # The tables alternate from call to call, so state that outlived a
        # call would show up as a mismatch.
        tables = [DEFAULT_EMOTICONS, CUSTOM_EMOTICONS]
        for k, texts in enumerate(calls):
            table = tables[(k + custom_first) % 2]
            expected = [per_word_loop(text, table) for text in texts]
            assert list(normalize_batch(texts, table)) == expected
            assert [normalize_tweet(text, table) for text in texts] == expected

    @given(st.lists(repeating_tweets(), max_size=12), st.booleans())
    def test_batch_iterates_as_the_lazy_lists(self, texts, custom):
        table = CUSTOM_EMOTICONS if custom else DEFAULT_EMOTICONS
        batch = normalize_batch(iter(texts), table)
        assert list(batch) == [per_word_loop(text, table) for text in texts]
        assert len(batch) == len(texts)
        assert batch.ids.dtype == batch.offsets.dtype == np.int32
        assert batch.offsets[0] == 0 and batch.offsets[-1] == len(batch.ids)


PREDICT_CSV = (
    "tweet_id,tweet\n"
    '1,"good good day :)"\n'
    '2,"GOOD day, good day http://x.co"\n'
    '3,"@fan bad bad day!!! :("\n'
)


def test_predict_runs_the_word_rules_once_per_distinct_word(tmp_path, monkeypatch):
    train_csv = tmp_path / "train.csv"
    train_csv.write_text(
        "tweet_id,sentiment,tweet\n1,1,good day\n2,0,bad day\n", encoding="utf-8"
    )
    predict_csv = tmp_path / "predict.csv"
    predict_csv.write_text(PREDICT_CSV, encoding="utf-8")
    model = tmp_path / "nb.model"
    assert main(["train", str(train_csv), str(model)]) == 0

    calls = []

    def counting(text):
        calls.extend(text.split("\n"))
        return word_rules(text)

    word_rules = normalize._word_rules
    monkeypatch.setattr(normalize, "_word_rules", counting)
    markers = {marker.lower() for marker in SPECIAL_TOKENS}
    for _ in range(2):  # the second call starts from nothing again
        calls.clear()
        assert main(["predict", str(model), str(predict_csv), str(tmp_path / "out.csv")]) == 0
        # each distinct word left after the tweet-level steps, once per
        # distinct word per chunk; these 3 rows are one chunk
        assert len(calls) == len(set(calls))
        assert sorted(set(calls) - markers) == ["bad", "day", "day!!!", "day,", "good"]


# The word rules and the batch loop as they were before the word rules ran
# in batches, kept verbatim as the reference.
_ORACLE_REPEAT_RE = re.compile(r"([a-zA-Z])\1{2,}")
_ORACLE_MULTI_DOT_RE = re.compile(r"\.{2,}")
_ORACLE_MULTI_SPACE_RE = re.compile(r"\s{2,}")
_UNSEEN = object()


def oracle_normalize_word(word):
    word = word.replace("-", "").replace("'", "")
    word = word.strip("'?!.,()")
    word = _ORACLE_REPEAT_RE.sub(lambda m: m.group(1) * 2, word)
    return word if is_valid_word(word) else None


def oracle_normalize_batch(raws, emoticons=DEFAULT_EMOTICONS):
    place: dict = {}
    words: list = []
    ids, offsets = array("i"), array("i", [0])
    for raw in raws:
        text = raw.lower()
        if ".." in text:
            text = _ORACLE_MULTI_DOT_RE.sub(" ", text)
        text = text.strip(" \t\r\n\"'")
        text = _ORACLE_MULTI_SPACE_RE.sub(" ", text)
        text = remove_retweet_markers(text)
        text = replace_urls(text)
        text = replace_user_mentions(text)
        text = replace_emoticons(text, emoticons)
        text = replace_hashtags(text)
        for word in text.split():
            i = place.get(word, _UNSEEN)
            if i is _UNSEEN:
                token = word if word in SPECIAL_TOKENS else oracle_normalize_word(word.lower())
                i = None
                if token is not None:
                    i = len(words)
                    words.append(word if token == word else token)
                place[word] = i
            if i is not None:
                ids.append(i)
        offsets.append(len(ids))
    return TokenBatch(words, np.frombuffer(ids, np.int32), np.frombuffer(offsets, np.int32))


def oracle_corpora():
    """Tweets of atoms joined by whitespace runs, or by nothing at all."""
    atoms = st.sampled_from(
        [
            "good", "GOOD", "sooooo", "t-shirt", "don't", "(wow)", "?ok", "yes!!",
            "r.i.p.", "..x", "héllo", "naïve", "日本", "ΟΔΟΣ", "ΣΑΣ,", "ας.", "Σ",
            "!!!", "777", "--", "...", "?!", "'", '"', '"quoted"', "'q'", "2fast",
            "awww.x.com", "HEYwww.a.b", "Xhttp://y.z", "a@b", "@who", "#Tag", "#www.d.e",
            "rt", "RT", ":)", ":(", ": )", ":  )", ":\t\xa0)", "bye:(", ":)x", "url", "URL",
            "EMO_POS",
            "a\nb", "\r\n", "İ", "ǅ",
        ]
    )
    spaces = st.sampled_from(["", " ", "  ", "\t", "\xa0", "　", "\n", " \t\xa0", " "])
    tweet = st.lists(st.tuples(atoms | st.text(max_size=4), spaces), max_size=10).map(
        lambda parts: "".join(atom + space for atom, space in parts)
    )
    return st.lists(tweet, max_size=12)


SPACED_EMOTICONS = EmoticonTable(
    positive_forms=frozenset({": )", ":)"}), negative_forms=frozenset({":("})
)


class TestBatchedWordRules:
    @given(oracle_corpora())
    @pytest.mark.parametrize("table", [DEFAULT_EMOTICONS, SPACED_EMOTICONS], ids=["default", "spaced"])
    def test_batch_equals_the_per_word_loop(self, table, texts):
        # the spaced table takes the whitespace collapse, the default skips it
        batch, expected = normalize_batch(texts, table), oracle_normalize_batch(texts, table)
        assert batch.words == expected.words
        assert batch.ids.dtype == expected.ids.dtype == np.int32
        assert batch.offsets.dtype == expected.offsets.dtype == np.int32
        assert np.array_equal(batch.ids, expected.ids)
        assert np.array_equal(batch.offsets, expected.offsets)

    def test_tweets_whose_words_all_drop(self):
        texts = ["!!! 777 --", "", "good ... ?!", "   ", "'\"'"]
        batch = normalize_batch(texts)
        assert list(batch) == [[], [], ["good"], [], []]
        assert batch.offsets.tolist() == oracle_normalize_batch(texts).offsets.tolist()

    def test_words_beyond_one_chunk(self):
        texts = [f"w{k}!! {'ab' * (k % 7)}ccc-d" for k in range(3 * normalize._CHUNK_WORDS)]
        batch, expected = normalize_batch(texts), oracle_normalize_batch(texts)
        assert batch.words == expected.words
        assert np.array_equal(batch.ids, expected.ids)
        assert np.array_equal(batch.offsets, expected.offsets)

    @given(st.text(max_size=12) | st.sampled_from(["a\nb", "ok\n", "\n", "so-ooo", "(x)"]))
    def test_normalize_word_equals_the_per_word_rules(self, word):
        assert normalize_word(word) == oracle_normalize_word(word)


def long_tail_tweets(n_tweets=4_000):
    """Tweets of mostly distinct words, with some punctuation and markers."""
    rng = np.random.default_rng(17)
    words = [f"wo{k}rd" for k in range(60_000)]
    extras = ["!!!", "day,", "(ok)", ":)", "@who", "http://x.co", "sooooo"]
    tweets = []
    for length in rng.integers(5, 30, n_tweets):
        picks = rng.zipf(1.05, length) % len(words)
        tweets.append(" ".join(extras[p % 7] if p % 11 == 0 else words[p] for p in picks))
    return tweets


def test_batched_word_rules_hold_no_more_than_the_per_word_loop(traced_peak):
    texts = long_tail_tweets()
    batch, peak = traced_peak(normalize_batch, texts)
    expected, oracle_peak = traced_peak(oracle_normalize_batch, texts)
    assert batch.words == expected.words
    assert peak < 1.1 * oracle_peak
