"""Round-trip and format-rejection tests for model/vocabulary persistence.

The format promise is exact: a deserialized model carries bit-identical
parameters (floats are written with repr) and therefore reproduces the
original's predictions on every input.
"""

import io
import re
from dataclasses import fields as dataclass_fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_cli_fuzz import mutated
from tweetiment.errors import ModelFormatError
from tweetiment.features import (
    FREQUENCY,
    PRESENCE,
    Vocabulary,
    build_vocabulary,
    document_matrix,
    vectorize,
)
from tweetiment.models import (
    MaxEntModel,
    NaiveBayesModel,
    TrainerConfig,
    maxent_train,
    nb_predict,
    nb_train,
)
from tweetiment.normalize import TokenBatch
from tweetiment.sentiment import Sentiment
from tweetiment.serialize import (
    META_KEYS,
    MODEL_KINDS,
    ModelArtifact,
    TrainingMetadata,
    artifact_predict,
    artifact_predict_many,
    deserialize_model,
    read_vocabulary_file,
    serialize_model,
    write_vocabulary_file,
)

TOKENS = [
    (["good", "fun", "good"], Sentiment.POSITIVE),
    (["bad", "awful"], Sentiment.NEGATIVE),
    (["good", "times", "fun"], Sentiment.POSITIVE),
    (["awful", "bad", "bad"], Sentiment.NEGATIVE),
]


def small_vocab() -> Vocabulary:
    return build_vocabulary([t for t, _ in TOKENS], n_unigrams=6, n_bigrams=4)


def round_trip(artifact: ModelArtifact) -> ModelArtifact:
    sink = io.StringIO()
    serialize_model(artifact, sink)
    return deserialize_model(io.StringIO(sink.getvalue()))


def nb_artifact(mode=FREQUENCY) -> ModelArtifact:
    vocab = small_vocab()
    corpus = [(vectorize(t, vocab, mode), label) for t, label in TOKENS]
    model = nb_train(corpus, len(vocab), alpha=1.0)
    meta = TrainingMetadata(
        n_docs=len(corpus), trained_at="2026-02-11T09:30:00", feature_mode=mode, alpha=1.0
    )
    return ModelArtifact(kind="naive_bayes", vocabulary=vocab, model=model, metadata=meta)


def maxent_artifact() -> ModelArtifact:
    vocab = small_vocab()
    corpus = [(vectorize(t, vocab, PRESENCE), label) for t, label in TOKENS]
    config = TrainerConfig(algorithm="gis", max_iterations=25, ll_tolerance=1e-8)
    model = maxent_train(corpus, len(vocab), config)
    meta = TrainingMetadata(
        n_docs=len(corpus),
        trained_at="2026-02-11T09:31:00",
        feature_mode=PRESENCE,
        trainer=config,
    )
    return ModelArtifact(kind="maxent", vocabulary=vocab, model=model, metadata=meta)


class TestVocabularyFile:
    def test_round_trip(self):
        vocab = small_vocab()
        sink = io.StringIO()
        write_vocabulary_file(vocab, sink)
        back = read_vocabulary_file(io.StringIO(sink.getvalue()))
        assert back == vocab

    def test_layout(self):
        vocab = build_vocabulary([["b", "a", "b"]], n_unigrams=2, n_bigrams=2)
        sink = io.StringIO()
        write_vocabulary_file(vocab, sink)
        assert sink.getvalue() == (
            "tweetiment-vocab v1 2 2\n"
            "0\tU\tb\n"
            "1\tU\ta\n"
            "2\tB\ta b\n"
            "3\tB\tb a\n"
        )

    def test_rejects_wrong_magic(self):
        with pytest.raises(ModelFormatError, match="not a vocabulary file"):
            read_vocabulary_file(io.StringIO("something-else v1 5 5\n"))

    def test_rejects_unknown_version(self):
        with pytest.raises(ModelFormatError, match="version"):
            read_vocabulary_file(io.StringIO("tweetiment-vocab v2 5 5\n"))

    def test_rejects_gap_in_indices(self):
        text = "tweetiment-vocab v1 5 5\n0\tU\ta\n2\tU\tb\n"
        with pytest.raises(ModelFormatError, match="contiguous"):
            read_vocabulary_file(io.StringIO(text))

    def test_rejects_malformed_bigram(self):
        text = "tweetiment-vocab v1 5 5\n0\tB\tone two three\n"
        with pytest.raises(ModelFormatError, match="two words"):
            read_vocabulary_file(io.StringIO(text))

    @pytest.mark.parametrize(
        "terms",
        ["0\tU\ta\n1\tU\tb\n0\tU\ta\n", "0\tU\ta\n1\tB\ta a\n1\tB\ta a\n"],
        ids=["unigram", "bigram"],
    )
    def test_rejects_repeated_term(self, terms):
        # a repeated line must not load as a vocabulary one term short
        with pytest.raises(ModelFormatError, match="given twice"):
            read_vocabulary_file(io.StringIO("tweetiment-vocab v1 5 5\n" + terms))

    def test_rejects_undecodable_byte_past_the_first_chunk(self, tmp_path):
        # a text file decodes in chunks of about 8 KiB; the bad byte lies in a later one
        terms = "".join(f"{i}\tU\tword{i}\n" for i in range(2000))
        path = tmp_path / "large.vocab"
        path.write_bytes(f"tweetiment-vocab v1 2001 0\n{terms}".encode() + b"2000\tU\t\xff\n")
        assert path.stat().st_size > 3 * 8192
        with open(path, encoding="utf-8") as source:
            with pytest.raises(ModelFormatError, match="not UTF-8"):
                read_vocabulary_file(source)

    def test_rejects_unknown_term_kind(self):
        text = "tweetiment-vocab v1 5 5\n0\tT\ta\n"
        with pytest.raises(ModelFormatError, match="term kind"):
            read_vocabulary_file(io.StringIO(text))


class TestNaiveBayesRoundTrip:
    def test_parameters_bit_identical(self):
        original = nb_artifact()
        restored = round_trip(original)
        assert restored.kind == "naive_bayes"
        assert np.array_equal(
            restored.model.class_log_prior, original.model.class_log_prior
        )
        assert np.array_equal(
            restored.model.feature_log_likelihood, original.model.feature_log_likelihood
        )
        assert restored.model.vocab_size == original.model.vocab_size

    def test_vocabulary_and_metadata_survive(self):
        restored = round_trip(nb_artifact())
        assert restored.vocabulary == small_vocab()
        assert restored.metadata.n_docs == 4
        assert restored.metadata.trained_at == "2026-02-11T09:30:00"
        assert restored.metadata.alpha == 1.0
        assert restored.metadata.trainer is None

    def test_predictions_identical(self):
        original = nb_artifact()
        restored = round_trip(original)
        for tokens, _ in TOKENS + [(["good", "bad"], None), (["unseen"], None)]:
            doc = vectorize(tokens, original.vocabulary, FREQUENCY)
            label, scores = nb_predict(original.model, doc)
            restored_label, restored_scores = nb_predict(restored.model, doc)
            assert restored_label is label
            assert np.array_equal(restored_scores, scores)

    def test_presence_mode_survives(self):
        restored = round_trip(nb_artifact(mode=PRESENCE))
        assert restored.metadata.feature_mode == PRESENCE


class TestMaxEntRoundTrip:
    def test_weights_bit_identical(self):
        original = maxent_artifact()
        restored = round_trip(original)
        assert np.array_equal(restored.model.weights, original.model.weights)
        assert restored.model.vocab_size == original.model.vocab_size

    def test_history_is_not_persisted(self):
        # ll_history is a training diagnostic, not part of the model
        restored = round_trip(maxent_artifact())
        assert restored.model.ll_history == ()

    def test_trainer_config_survives(self):
        restored = round_trip(maxent_artifact())
        assert restored.metadata.trainer == TrainerConfig(
            algorithm="gis", max_iterations=25, ll_tolerance=1e-8
        )

    def test_zero_weights_omitted_from_file(self):
        artifact = maxent_artifact()
        sink = io.StringIO()
        serialize_model(artifact, sink)
        n_weight_lines = sink.getvalue().count("\nweight\t")
        assert n_weight_lines == int(np.count_nonzero(artifact.model.weights))


class TestArtifactPredict:
    def test_naive_bayes_dispatch(self):
        artifact = nb_artifact()
        assert artifact_predict(artifact, ["good", "fun"]) is Sentiment.POSITIVE
        assert artifact_predict(artifact, ["bad", "awful"]) is Sentiment.NEGATIVE

    def test_maxent_dispatch(self):
        artifact = maxent_artifact()
        assert artifact_predict(artifact, ["good", "fun"]) is Sentiment.POSITIVE
        assert artifact_predict(artifact, ["bad", "awful"]) is Sentiment.NEGATIVE

    def test_round_trip_preserves_dispatch(self):
        artifact = round_trip(maxent_artifact())
        assert artifact_predict(artifact, ["good", "fun"]) is Sentiment.POSITIVE


def corrupt(artifact: ModelArtifact, mangle) -> str:
    sink = io.StringIO()
    serialize_model(artifact, sink)
    return mangle(sink.getvalue())


class TestFormatRejection:
    def test_empty_payload(self):
        with pytest.raises(ModelFormatError, match="truncated"):
            deserialize_model(io.StringIO(""))

    def test_wrong_magic(self):
        with pytest.raises(ModelFormatError, match="not a model file"):
            deserialize_model(io.StringIO("pickle stuff\n"))

    def test_unknown_version(self):
        text = corrupt(nb_artifact(), lambda s: s.replace(" v1 ", " v2 ", 1))
        with pytest.raises(ModelFormatError, match="version: v2"):
            deserialize_model(io.StringIO(text))

    def test_unknown_kind(self):
        text = corrupt(nb_artifact(), lambda s: s.replace("naive_bayes", "svm", 1))
        with pytest.raises(ModelFormatError, match="unknown model kind"):
            deserialize_model(io.StringIO(text))

    def test_baseline_kind_is_rejected(self):
        # The lexicon baseline runs from `eval --baseline-lexicon`; it has
        # no model file of its own.
        text = corrupt(nb_artifact(), lambda s: s.replace("naive_bayes", "baseline", 1))
        with pytest.raises(ModelFormatError, match="unknown model kind"):
            deserialize_model(io.StringIO(text))

    def test_truncated_mid_parameters(self):
        def mangle(s):
            lines = s.splitlines(keepends=True)
            return "".join(lines[: len(lines) // 2])

        with pytest.raises(ModelFormatError, match="truncated"):
            deserialize_model(io.StringIO(corrupt(nb_artifact(), mangle)))

    def test_missing_end_marker(self):
        text = corrupt(nb_artifact(), lambda s: s.replace("\nend\n", "\n"))
        with pytest.raises(ModelFormatError, match="truncated|end"):
            deserialize_model(io.StringIO(text))

    def test_bad_parameter_line(self):
        text = corrupt(nb_artifact(), lambda s: s.replace("prior\t0\t", "prior\tx\ty\t", 1))
        with pytest.raises(ModelFormatError):
            deserialize_model(io.StringIO(text))

    def test_parameters_header_takes_two_fields(self):
        text = corrupt(nb_artifact(), lambda s: re.sub(r"(\nparameters\t\d+)\n", r"\1\textra\n", s))
        assert "\textra\n" in text
        with pytest.raises(ModelFormatError, match="malformed parameters header"):
            deserialize_model(io.StringIO(text))

    def test_nb_requires_mode_and_alpha(self):
        text = corrupt(nb_artifact(), lambda s: s.replace("meta\talpha\t1.0\n", ""))
        with pytest.raises(ModelFormatError, match="alpha"):
            deserialize_model(io.StringIO(text))

    @pytest.mark.parametrize(
        "line", ["", "meta\tfeature_mode\ttfidf\n"], ids=["missing", "unknown"]
    )
    def test_feature_mode_required(self, line):
        text = corrupt(nb_artifact(), lambda s: s.replace("meta\tfeature_mode\tfrequency\n", line))
        with pytest.raises(ModelFormatError, match="feature mode"):
            deserialize_model(io.StringIO(text))

    @pytest.mark.parametrize(
        "artifact, line, changed",
        [
            (nb_artifact, "meta\tn_docs\t4", "meta\tn_docs\t4000\t7"),
            (nb_artifact, "meta\ttrained_at\t2026-02-11T09:30:00", "meta\ttrained_at\tX\textra"),
            (nb_artifact, "meta\tfeature_mode\tfrequency", "meta\tfeature_mode\tfrequency\t"),
            (nb_artifact, "meta\talpha\t1.0", "meta\talpha\t1.0\t2.0"),
            (maxent_artifact, "meta\ttrainer\tgis\t25\t1e-08", "meta\ttrainer\tgis\t25\t1e-08\t9"),
            (maxent_artifact, "meta\ttrainer\tgis\t25\t1e-08", "meta\ttrainer\tgis\t25"),
        ],
        ids=["n_docs", "trained_at", "feature_mode", "alpha", "trainer_long", "trainer_short"],
    )
    def test_known_meta_key_needs_its_field_count(self, artifact, line, changed):
        text = corrupt(artifact(), lambda s: s.replace(line + "\n", changed + "\n"))
        assert changed + "\n" in text
        with pytest.raises(ModelFormatError, match="meta"):
            deserialize_model(io.StringIO(text))

    def test_unknown_meta_key_is_ignored(self):
        artifact = nb_artifact()
        text = corrupt(artifact, lambda s: s.replace("meta\tn_docs", "meta\tsource\ta\tb\nmeta\tn_docs"))
        assert deserialize_model(io.StringIO(text)).metadata == artifact.metadata

    @pytest.mark.parametrize(
        "artifact, line, second",
        [
            (nb_artifact, "meta\tn_docs\t4", "meta\tn_docs\t4"),
            (nb_artifact, "meta\ttrained_at\t2026-02-11T09:30:00", "meta\ttrained_at\tX"),
            # read last-one-wins, this would load a frequency model as presence
            (nb_artifact, "meta\tfeature_mode\tfrequency", "meta\tfeature_mode\tpresence"),
            (nb_artifact, "meta\talpha\t1.0", "meta\talpha\t1.0"),
            (maxent_artifact, "meta\ttrainer\tgis\t25\t1e-08", "meta\ttrainer\tiis\t25\t1e-08"),
        ],
        ids=["n_docs", "trained_at", "feature_mode", "alpha", "trainer"],
    )
    def test_known_meta_key_given_twice(self, artifact, line, second):
        text = corrupt(artifact(), lambda s: s.replace(line + "\n", line + "\n" + second + "\n"))
        assert second + "\n" in text
        key = line.split("\t")[1]
        with pytest.raises(ModelFormatError, match=f"meta '{key}' given twice"):
            deserialize_model(io.StringIO(text))

    def test_unknown_meta_key_given_twice_is_ignored(self):
        artifact = nb_artifact()
        extra = "meta\tsource\ta\nmeta\tsource\tb\tc\n"
        text = corrupt(artifact, lambda s: s.replace("meta\tn_docs", extra + "meta\tn_docs"))
        assert deserialize_model(io.StringIO(text)).metadata == artifact.metadata

    @pytest.mark.parametrize("artifact", [nb_artifact, maxent_artifact])
    @pytest.mark.parametrize(
        "tail", ["garbage\n", "garbage", "\n", "end\n", None],
        ids=["garbage_line", "garbage_unterminated", "blank_line", "second_end", "second_model"],
    )
    def test_line_after_the_end_marker(self, artifact, tail):
        text = corrupt(artifact(), str)
        with pytest.raises(ModelFormatError, match="after the end marker"):
            deserialize_model(io.StringIO(text + (text if tail is None else tail)))

    def test_end_marker_without_a_newline_is_the_last_line(self):
        artifact = nb_artifact()
        text = corrupt(artifact, lambda s: s.removesuffix("\n"))
        assert text.endswith("\nend")
        assert deserialize_model(io.StringIO(text)).metadata == artifact.metadata

    def test_model_file_rejects_repeated_term(self):
        def repeat_first_term(text):
            header = next(line for line in text.split("\n") if line.startswith("vocabulary\t"))
            first_term = text.split(header + "\n")[1].split("\n")[0]
            fields = header.split("\t")
            fields[3] = str(int(fields[3]) + 1)
            return text.replace(header, "\t".join(fields) + "\n" + first_term)

        with pytest.raises(ModelFormatError, match="given twice"):
            deserialize_model(io.StringIO(corrupt(nb_artifact(), repeat_first_term)))

    def test_artifact_kind_validated(self):
        with pytest.raises(ValueError, match="unknown model kind"):
            ModelArtifact(
                kind="svm",
                vocabulary=small_vocab(),
                model=None,
                metadata=TrainingMetadata(n_docs=0, trained_at="x", feature_mode=PRESENCE),
            )


def nb_metadata(**fields) -> TrainingMetadata:
    defaults = {"n_docs": 4, "trained_at": "x", "feature_mode": FREQUENCY, "alpha": 1.0}
    return TrainingMetadata(**{**defaults, **fields})


@pytest.mark.parametrize(
    "kind, model, metadata, message",
    [
        ("naive_bayes", "nb", nb_metadata(feature_mode=None), "unknown feature mode: None"),
        ("naive_bayes", "nb", nb_metadata(feature_mode="tfidf"), "unknown feature mode"),
        ("naive_bayes", "nb", nb_metadata(alpha=None), "needs alpha"),
        ("naive_bayes", "nb", nb_metadata(alpha=float("nan")), "non-finite alpha"),
        ("maxent", "me", nb_metadata(alpha=float("inf")), "non-finite alpha"),
        ("maxent", "nb", nb_metadata(), "needs a MaxEntModel"),
        ("naive_bayes", "me", nb_metadata(), "needs a NaiveBayesModel"),
        ("naive_bayes", "nb-narrow", nb_metadata(), "vocab_size differs"),
    ],
    ids=[
        "mode_missing", "mode_unknown", "nb_alpha_missing", "nb_alpha_nan", "maxent_alpha_inf",
        "maxent_kind_nb_model", "nb_kind_maxent_model", "vocab_size_mismatch",
    ],
)
def test_artifact_rejects_what_the_reader_would(kind, model, metadata, message):
    # serialize_model would write each of these as a file deserialize_model
    # rejects or, for a model of the other kind, fail with an AttributeError
    models = {
        "nb": nb_artifact().model,
        "me": maxent_artifact().model,
        "nb-narrow": NaiveBayesModel(np.log([0.5, 0.5]), np.full((2, 2), np.log(0.5)), 2),
    }
    with pytest.raises(ValueError, match=message):
        ModelArtifact(kind=kind, vocabulary=small_vocab(), model=models[model], metadata=metadata)


def test_metadata_requires_feature_mode():
    with pytest.raises(TypeError, match="feature_mode"):
        TrainingMetadata(n_docs=1, trained_at="x")


def metadata_round_trip(metadata: TrainingMetadata) -> TrainingMetadata | None:
    """The metadata an artifact reads back with, or None when ModelArtifact
    refuses it.  The file is split into lines as the CLI opens it
    (newline=""), so a carriage return ends a line as well."""
    try:
        artifact = ModelArtifact(
            kind="naive_bayes", vocabulary=small_vocab(), model=nb_artifact().model,
            metadata=metadata,
        )
    except ValueError:
        return None
    sink = io.StringIO(newline="")
    serialize_model(artifact, sink)
    return deserialize_model(io.StringIO(sink.getvalue(), newline="")).metadata


@pytest.mark.parametrize(
    "fields",
    [
        {"n_docs": -1}, {"trained_at": "a\tb"}, {"trained_at": "a\nb"}, {"trained_at": "a\rb"},
        {"n_docs": 4.0}, {"n_docs": True}, {"trainer": TrainerConfig("gis", 2.5)},
        {"trainer": TrainerConfig("gis", True)}, {"n_docs": None}, {"trained_at": None},
    ],
    ids=[
        "negative_n_docs", "trained_at_tab", "trained_at_newline", "trained_at_return",
        "n_docs_float", "n_docs_bool", "max_iterations_float", "max_iterations_bool",
        "n_docs_none", "trained_at_none",
    ],
)
def test_metadata_the_file_cannot_carry_is_refused(fields):
    # Each of these would be written, then rejected or cut short on reading.
    # An integer field is refused as the reader would: its text must be
    # ASCII digits, so -1, 4.0, True and 2.5 are refused, but not np.int64.
    # A field the file must hold cannot be left None.
    assert metadata_round_trip(nb_metadata(**fields)) is None


@pytest.mark.parametrize(
    "token", ["a\tb", "a\nb", "a\rb", "a b"], ids=["tab", "newline", "return", "space"]
)
def test_terms_the_file_cannot_carry_are_refused_before_writing(token):
    # Each trains, but its file used to be written and then rejected on
    # reading (exit 4).  A space is fine in a unigram but splits the bigram
    # (token, "c") into three words.
    corpus = [[token, "c"], ["x", "y"]]
    vocab = build_vocabulary(corpus)
    model = nb_train([(document_matrix(corpus, vocab), [1, 0])], len(vocab))
    artifact = ModelArtifact("naive_bayes", vocab, model, nb_metadata())
    for write, value in [(write_vocabulary_file, vocab), (serialize_model, artifact)]:
        sink = io.StringIO()
        with pytest.raises(ValueError, match="cannot carry"):
            write(value, sink)
        assert sink.getvalue() == ""


def test_a_unigram_with_a_space_round_trips():
    vocab = build_vocabulary([["a b", "c"]], n_bigrams=0)
    sink = io.StringIO()
    write_vocabulary_file(vocab, sink)
    assert read_vocabulary_file(io.StringIO(sink.getvalue())) == vocab


def replaced(array, index, value):
    array = array.copy()
    array[index] = value
    return array


NB_MODEL, WEIGHTS = nb_artifact().model, maxent_artifact().model.weights
PRIOR, LIKELIHOOD = NB_MODEL.class_log_prior, NB_MODEL.feature_log_likelihood
WIDTH = NB_MODEL.vocab_size


@pytest.mark.parametrize(
    "model, message",
    [
        (MaxEntModel(np.hstack([WEIGHTS, [[0.0], [1.5]]]), WIDTH), "^weights must"),
        (NaiveBayesModel(PRIOR, LIKELIHOOD[:, :-1], WIDTH), "^feature_log_likelihood must"),
        (MaxEntModel(replaced(WEIGHTS, (1, 0), np.inf), WIDTH), "^weights must"),
        (NaiveBayesModel(replaced(PRIOR, 0, np.nan), LIKELIHOOD, WIDTH), "^class_log_prior must"),
        (NaiveBayesModel(PRIOR, replaced(LIKELIHOOD, (0, 2), -np.inf), WIDTH), "^feature_log"),
    ],
    ids=[
        "maxent_weights_wider", "nb_likelihood_narrower", "maxent_weight_inf", "nb_prior_nan",
        "nb_likelihood_neg_inf",
    ],
)
def test_parameters_the_file_cannot_carry_are_refused(model, message):
    # Each of these used to be written and then rejected on reading (exit
    # 4), or, for the narrower likelihood, to fail the write with an
    # IndexError.  Refused, they never reach serialize_model.
    kind = "naive_bayes" if isinstance(model, NaiveBayesModel) else "maxent"
    with pytest.raises(ValueError, match=message):
        round_trip(ModelArtifact(kind, small_vocab(), model, nb_metadata()))


@given(
    n_docs=st.integers(0, 10**12),
    trained_at=st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
)
def test_metadata_round_trips_unless_it_holds_a_line_or_field_break(n_docs, trained_at):
    metadata = nb_metadata(n_docs=n_docs, trained_at=trained_at)
    restored = metadata_round_trip(metadata)
    if any(c in trained_at for c in "\t\r\n"):
        assert restored is None
    else:
        assert restored == metadata


MODEL_TEXTS = [corrupt(nb_artifact(), str), corrupt(maxent_artifact(), str)]
field_text = st.text(
    st.characters(blacklist_characters="\t\n\r", blacklist_categories=("Cs",)), max_size=6
) | st.sampled_from(["-1", "2", "999999", "1.5", "nan", "inf", "-inf", "", "²", "1e400"])


@settings(max_examples=300)
@given(st.data())
def test_one_field_corruption_loads_or_raises_format_error(data):
    text = data.draw(st.sampled_from(MODEL_TEXTS))
    lines = text.split("\n")
    n = data.draw(st.integers(min_value=0, max_value=len(lines) - 1))
    fields = lines[n].split("\t")
    fields[data.draw(st.integers(min_value=0, max_value=len(fields) - 1))] = data.draw(field_text)
    lines[n] = "\t".join(fields)
    try:
        deserialize_model(io.StringIO("\n".join(lines)))
    except ModelFormatError:
        pass


def wide_nb_artifact() -> ModelArtifact:
    """A Naive Bayes artifact whose 12 features give every index up to 11."""
    words = [f"w{k:02d}" for k in range(12)]
    vocab = build_vocabulary([words], n_unigrams=12, n_bigrams=0)
    corpus = [
        (vectorize(words[:6], vocab, FREQUENCY), Sentiment.POSITIVE),
        (vectorize(words[6:], vocab, FREQUENCY), Sentiment.NEGATIVE),
    ]
    meta = TrainingMetadata(n_docs=2, trained_at="x", feature_mode=FREQUENCY, alpha=1.0)
    model = nb_train(corpus, len(vocab), alpha=1.0)
    return ModelArtifact(kind="naive_bayes", vocabulary=vocab, model=model, metadata=meta)


@pytest.mark.parametrize("text", ["\u0664", "+1", " 1", "1_0"])
@pytest.mark.parametrize("field", ["max_iterations", "class", "index"])
def test_integer_fields_are_ascii_digits(field, text):
    # int() reads these as 4, 1, 1 and 10, and re-saving wrote those digits
    if field == "max_iterations":
        source = corrupt(maxent_artifact(), lambda s: s.replace("\tgis\t25\t", f"\tgis\t{text}\t"))
    elif field == "class":
        source = corrupt(wide_nb_artifact(), lambda s: s.replace("prior\t1\t", f"prior\t{text}\t"))
    else:
        source = corrupt(
            wide_nb_artifact(), lambda s: s.replace("likelihood\t0\t10\t", f"likelihood\t0\t{text}\t")
        )
    with pytest.raises(ModelFormatError, match="bad"):
        deserialize_model(io.StringIO(source))


def written_vocabulary() -> bytes:
    """A vocabulary file of some 60 KiB, so a text reader decodes it in
    several chunks of about 8 KiB."""
    words = [f"w{k:04d}" for k in range(2000)]
    sink = io.StringIO()
    write_vocabulary_file(build_vocabulary([words], n_unigrams=2000, n_bigrams=2000), sink)
    return sink.getvalue().encode()


VOCABULARY_BYTES = written_vocabulary()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_mutated_vocabulary_file_loads_or_raises_format_error(data):
    blob = VOCABULARY_BYTES
    if data.draw(st.booleans()):  # a byte that is not UTF-8, past the first chunks
        i = data.draw(st.integers(3 * 8192, len(blob)))
        blob = blob[:i] + b"\xff" + blob[i + 1 :]
    blob = data.draw(mutated(blob))
    # read as the CLI opens its files
    source = io.TextIOWrapper(io.BytesIO(blob), encoding="utf-8-sig", newline="")
    try:
        read_vocabulary_file(source)
    except ModelFormatError:
        pass


def test_vocabulary_file_budget_must_be_an_integer():
    with pytest.raises(ModelFormatError, match="budget"):
        read_vocabulary_file(io.StringIO("tweetiment-vocab v1 x 5\n"))


def edit_parameters(artifact: ModelArtifact, edit) -> str:
    """The artifact's model text with `edit` applied to its parameter lines,
    and the `parameters` count kept equal to the lines that remain."""
    lines = corrupt(artifact, str).split("\n")
    start = next(k for k, line in enumerate(lines) if line.startswith("parameters\t")) + 1
    end = lines.index("end")
    block = edit(lines[start:end])
    return "\n".join(lines[: start - 1] + [f"parameters\t{len(block)}"] + block + lines[end:])


def test_nb_repeated_pair_is_rejected():
    # likelihood 0 5 written over the likelihood 0 6 line: feature 6 would
    # read 0.0 and class 0's likelihoods would no longer sum to one
    def overwrite(block):
        return [line.replace("likelihood\t0\t6\t", "likelihood\t0\t5\t") for line in block]

    with pytest.raises(ModelFormatError, match=r"given twice: 'likelihood\\t0\\t5\\t"):
        deserialize_model(io.StringIO(edit_parameters(wide_nb_artifact(), overwrite)))


@pytest.mark.parametrize("prefix", ["prior\t1\t", "likelihood\t0\t0\t", "likelihood\t1\t11\t"])
def test_nb_missing_pair_is_rejected(prefix):
    def drop(block):
        return [line for line in block if not line.startswith(prefix)]

    with pytest.raises(ModelFormatError, match="lack 1 of their 26 values"):
        deserialize_model(io.StringIO(edit_parameters(wide_nb_artifact(), drop)))


def test_maxent_repeated_pair_is_rejected():
    # a MaxEnt block may leave out zero weights, but not name a pair twice
    def repeat_first(block):
        c, i, _ = block[0].split("\t")[1:]
        return block + [f"weight\t{c}\t{i}\t0.5"]

    with pytest.raises(ModelFormatError, match="given twice"):
        deserialize_model(io.StringIO(edit_parameters(maxent_artifact(), repeat_first)))


def hand_built_artifact(kind: str, size: int) -> ModelArtifact:
    """A model of `kind` whose parameters are drawn at random from its
    MODEL_KINDS blocks, with a zero in each table that has room for one."""
    spec = MODEL_KINDS[kind]
    rng = np.random.default_rng(size)
    arrays = {}
    for _, attribute, indexed in spec.blocks:
        values = rng.normal(size=(2, size) if indexed else (2,))
        values.flat[-1:] = 0.0  # a sparse kind leaves it out of the file
        arrays[attribute] = values
    model = spec.model_type(**arrays, vocab_size=size)
    vocabulary = Vocabulary(dict(list({"a": 0, "b": 1}.items())[:size]), {}, size, 0)
    return ModelArtifact(kind, vocabulary, model, nb_metadata())


@pytest.mark.parametrize("size", [0, 1, 2])
@pytest.mark.parametrize("kind", sorted(MODEL_KINDS))
def test_each_model_kind_round_trips(kind, size):
    # at size 1 a block with a feature index is as wide as one without
    original = hand_built_artifact(kind, size)
    restored = round_trip(original)
    assert restored.kind == kind
    assert type(restored.model) is MODEL_KINDS[kind].model_type
    for _, attribute, indexed in MODEL_KINDS[kind].blocks:
        before, after = getattr(original.model, attribute), getattr(restored.model, attribute)
        assert after.shape == ((2, size) if indexed else (2,))
        assert np.array_equal(after, before)
    assert restored.vocabulary == original.vocabulary
    tweets = [["a"], ["b", "a"], ["a", "b", "b"], ["c"], []]
    assert artifact_predict_many(restored, tweets) == artifact_predict_many(original, tweets)


@pytest.mark.parametrize(
    "kind, model, block",
    [
        (
            "naive_bayes",
            NaiveBayesModel(np.array([-0.5, -1.0]), np.array([[-2.0], [0.25]]), 1),
            "parameters\t4\nprior\t0\t-0.5\nprior\t1\t-1.0\n"
            "likelihood\t0\t0\t-2.0\nlikelihood\t1\t0\t0.25\nend\n",
        ),
        ("maxent", MaxEntModel(np.array([[0.0], [1.5]]), 1), "parameters\t1\nweight\t1\t0\t1.5\nend\n"),
    ],
)
def test_parameter_block_layout_at_one_feature(kind, model, block):
    artifact = ModelArtifact(kind, Vocabulary({"a": 0}, {}, 1, 0), model, nb_metadata())
    assert corrupt(artifact, str).endswith("\t1\n0\tU\ta\n" + block)


class CountingSink:
    """A sink that keeps only the number of characters written to it."""

    def __init__(self):
        self.written = 0

    def write(self, text):
        self.written += len(text)


def zipf_artifact(kind: str) -> ModelArtifact:
    """A model of `kind` over 4,000 Zipfian documents and a vocabulary of
    5,000 unigrams and 5,000 bigrams."""
    rng = np.random.default_rng(3)
    lengths = rng.integers(1, 20, 4_000)
    ids = (rng.zipf(1.1, lengths.sum()) - 1) % 20_000
    offsets = np.concatenate(([0], lengths.cumsum()))
    words = [f"w{k}" for k in range(20_000)]
    batch = TokenBatch(words, ids.astype(np.int32), offsets.astype(np.int32))
    vocab = build_vocabulary(batch, 5_000, 5_000)
    corpus = [(document_matrix(batch, vocab), np.arange(len(batch)) % 2)]
    if kind == "naive_bayes":
        model, trainer, alpha = nb_train(corpus, len(vocab)), None, 1.0
    else:
        trainer, alpha = TrainerConfig("gis", 3, 1e-12), None
        model = maxent_train(corpus, len(vocab), trainer)
    metadata = TrainingMetadata(len(batch), "2024-01-01T00:00:00+00:00", PRESENCE, trainer, alpha)
    return ModelArtifact(kind, vocab, model, metadata)


@pytest.mark.parametrize("kind", ["naive_bayes", "maxent"])
def test_writing_holds_less_than_the_lines_it_writes(kind, traced_peak):
    # the parameter lines are written as they are made, not gathered first
    sink = CountingSink()
    _, peak = traced_peak(serialize_model, zipf_artifact(kind), sink)
    assert peak < sink.written  # every character written is ASCII, one byte


def test_reading_parses_parameter_lines_as_it_reads_them(traced_peak):
    # The vocabulary's dicts and the per-parameter arrays peak at about 2.4
    # times the file's bytes.  Holding the 20,002 parameter lines as strings
    # until the block ends, as the reader once did, took that to about 4.5.
    text = corrupt(zipf_artifact("naive_bayes"), str)
    restored, peak = traced_peak(deserialize_model, io.StringIO(text))
    assert len(restored.vocabulary) == 10_000
    assert peak < 3.5 * len(text)  # every character is ASCII, one byte


def test_nb_repeated_prior_is_named_by_block_and_class():
    def overwrite(block):
        return [line.replace("prior\t0\t", "prior\t1\t") for line in block]

    with pytest.raises(ModelFormatError, match=r"given twice: 'prior\\t1\\t'$"):
        deserialize_model(io.StringIO(edit_parameters(wide_nb_artifact(), overwrite)))


@pytest.mark.parametrize("key", ["n_docs", "trained_at"])
def test_a_model_file_without_a_required_meta_key_is_rejected(key):
    text = corrupt(nb_artifact(), lambda s: re.sub(f"meta\t{key}\t[^\n]*\n", "", s))
    assert f"\t{key}\t" not in text
    with pytest.raises(ModelFormatError, match=f"missing {key}"):
        deserialize_model(io.StringIO(text))


def test_meta_keys_are_the_metadata_fields_in_order():
    # a new meta key is one META_KEYS entry plus one TrainingMetadata field
    assert list(META_KEYS) == [field.name for field in dataclass_fields(TrainingMetadata)]


@pytest.mark.parametrize("unset", [{}, {"trainer": None, "alpha": None}], ids=["all_set", "optional_none"])
def test_metadata_round_trips_through_meta_keys(unset):
    metadata = replace(
        TrainingMetadata(7, "2026-02-11T09:30:00", PRESENCE, TrainerConfig("iis", 9, 1e-5), 0.5),
        **unset,
    )
    text = corrupt(ModelArtifact("maxent", small_vocab(), maxent_artifact().model, metadata), str)
    written = [line.split("\t")[1] for line in text.split("\n") if line.startswith("meta\t")]
    assert written == [key for key in META_KEYS if getattr(metadata, key) is not None]
    assert deserialize_model(io.StringIO(text)).metadata == metadata


@pytest.mark.parametrize(
    "budgets, message",
    [((-1, 4), "bad unigram budget: '-1'"), ((6, -1), "bad bigram budget: '-1'"),
     ((6.0, 4), "bad unigram budget: '6.0'"), ((6, True), "bad bigram budget: 'True'")],
    ids=["unigram_negative", "bigram_negative", "unigram_float", "bigram_bool"],
)
def test_budgets_the_file_cannot_carry_are_refused_before_writing(budgets, message):
    vocab = replace(small_vocab(), unigram_budget=budgets[0], bigram_budget=budgets[1])
    artifact = ModelArtifact("naive_bayes", vocab, nb_artifact().model, nb_metadata())
    for write, value in [(write_vocabulary_file, vocab), (serialize_model, artifact)]:
        sink = io.StringIO()
        with pytest.raises(ValueError, match=re.escape(message)):
            write(value, sink)
        assert sink.getvalue() == ""


def test_numpy_numbers_round_trip():
    vocab = replace(small_vocab(), unigram_budget=np.int64(6), bigram_budget=np.int64(4))
    trainer = TrainerConfig("gis", np.int64(25), np.float64(1e-8))
    metadata = TrainingMetadata(np.int64(4), "x", PRESENCE, trainer, np.float64(0.5))
    restored = round_trip(ModelArtifact("maxent", vocab, maxent_artifact().model, metadata))
    assert restored.metadata == metadata
    assert restored.vocabulary == vocab
