"""Round-trip and format-rejection tests for model/vocabulary persistence.

The format promise is exact: a deserialized model carries bit-identical
parameters (floats are written with repr) and therefore reproduces the
original's predictions on every input.  The writers write format v2; the
v1 rejection tests mangle text from the last v1 writer (v1_writer.py),
and each has a v2 twin below them.
"""

import io
import re
from dataclasses import fields as dataclass_fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import v1_reader
import v1_writer
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
        assert sink.getvalue() == "tweetiment-vocab v2 2 2 2 2\nb\na\na b\nb a\nend\n"

    def test_rejects_wrong_magic(self):
        with pytest.raises(ModelFormatError, match="not a vocabulary file"):
            read_vocabulary_file(io.StringIO("something-else v1 5 5\n"))

    def test_rejects_unknown_version(self):
        with pytest.raises(ModelFormatError, match="version"):
            read_vocabulary_file(io.StringIO("tweetiment-vocab v3 5 5\n"))

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
        lines = sink.getvalue().split("\n")
        for c, row in enumerate(artifact.model.weights):  # each block counts and lists its nonzeros
            k = lines.index(f"weight\t{c}\t{np.count_nonzero(row)}")
            assert lines[k + 1] == " ".join(map(str, np.flatnonzero(row)))
        assert np.count_nonzero(artifact.model.weights) < artifact.model.weights.size


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
    """The artifact's v1 text, as the last v1 writer wrote it, after `mangle`."""
    sink = io.StringIO()
    v1_writer.serialize_model(artifact, sink)
    return mangle(sink.getvalue())


def v2_text(artifact: ModelArtifact) -> str:
    sink = io.StringIO()
    serialize_model(artifact, sink)
    return sink.getvalue()


class TestFormatRejection:
    def test_empty_payload(self):
        with pytest.raises(ModelFormatError, match="truncated"):
            deserialize_model(io.StringIO(""))

    def test_wrong_magic(self):
        with pytest.raises(ModelFormatError, match="not a model file"):
            deserialize_model(io.StringIO("pickle stuff\n"))

    def test_unknown_version(self):
        text = corrupt(nb_artifact(), lambda s: s.replace(" v1 ", " v3 ", 1))
        with pytest.raises(ModelFormatError, match="version: v3"):
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


MODEL_TEXTS = [write(artifact) for artifact in (nb_artifact(), maxent_artifact())
               for write in (lambda a: corrupt(a, str), v2_text)]
field_text = st.text(
    st.characters(blacklist_characters="\t\n\r", blacklist_categories=("Cs",)), max_size=6
) | st.sampled_from(["-1", "2", "999999", "1.5", "nan", "inf", "-inf", "", "²", "1e400"])


@settings(max_examples=300)
@given(st.data())
def test_one_field_corruption_loads_or_raises_format_error(data):
    # a field is tab-separated, or one number of a v2 chunk line
    text = data.draw(st.sampled_from(MODEL_TEXTS))
    lines = text.split("\n")
    n = data.draw(st.integers(min_value=0, max_value=len(lines) - 1))
    separator = data.draw(st.sampled_from(["\t", " "]))
    fields = lines[n].split(separator)
    fields[data.draw(st.integers(min_value=0, max_value=len(fields) - 1))] = data.draw(field_text)
    lines[n] = separator.join(fields)
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


def written_vocabulary(write) -> bytes:
    """A vocabulary file of some 40 to 60 KiB, so a text reader decodes it
    in several chunks of about 8 KiB."""
    words = [f"w{k:04d}" for k in range(2000)]
    sink = io.StringIO()
    write(build_vocabulary([words], n_unigrams=2000, n_bigrams=2000), sink)
    return sink.getvalue().encode()


VOCABULARY_BYTES = [written_vocabulary(v1_writer.write_vocabulary_file),
                    written_vocabulary(write_vocabulary_file)]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_mutated_vocabulary_file_loads_or_raises_format_error(data):
    blob = data.draw(st.sampled_from(VOCABULARY_BYTES))
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


@st.composite
def edited_parameter_lines(draw, block, vocab_size):
    """v1 parameter lines after one to four edits of a line, a field or their order."""
    block = list(block)
    for _ in range(draw(st.integers(1, 4))):
        edit = draw(st.sampled_from(["repeat", "drop", "shuffle", "value", "class", "index", "name"]))
        if edit == "shuffle":
            block = draw(st.permutations(block))
            continue
        if not block:
            continue
        k = draw(st.integers(0, len(block) - 1))
        fields = block[k].split("\t")
        if edit == "repeat":
            block.insert(draw(st.integers(0, len(block))), block[k])
        elif edit == "drop":
            del block[k]
        else:
            if edit == "value":
                fields[-1] = draw(st.sampled_from(["nan", "inf", "1e400", "x", ""]))
            elif edit == "class":
                fields[1] = draw(st.sampled_from(["2", "+1", "01"]))
            elif edit == "index" and len(fields) == 4:
                fields[2] = str(vocab_size + draw(st.integers(0, 2)))
            elif edit == "name":
                fields[0] = draw(st.sampled_from(["prior", "likelihood", "weight", "bogus"]))
            block[k] = "\t".join(fields)
    return block


def v1_outcome(kind, load):
    """The arrays of the model `load` returns, each as its shape and bytes,
    or the message of the ModelFormatError it raises."""
    try:
        model = load()
    except ModelFormatError as error:
        return str(error)
    return [(np.shape(getattr(model, a)), np.asarray(getattr(model, a)).tobytes())
            for _, a, _ in MODEL_KINDS[kind].blocks]


def oracle_load(kind, text, vocab_size):
    """The model of a v1 text as the reader of commit ee21b29 read its parameter lines."""
    lines = iter(text.split("\n"))
    header = next(line for line in lines if line.startswith("parameters\t"))
    return v1_reader._model_from_parameters(kind, lines, int(header.split("\t")[1]), vocab_size)


V1_ARTIFACTS = {"naive_bayes": nb_artifact(), "maxent": maxent_artifact()}


@settings(max_examples=1000, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("kind", sorted(V1_ARTIFACTS))
def test_v1_parameters_load_as_the_oracle_loads_them(kind, data):
    # the same weights bit for bit, or the same message
    artifact = V1_ARTIFACTS[kind]
    size = len(artifact.vocabulary)
    text = edit_parameters(artifact, lambda block: data.draw(edited_parameter_lines(block, size)))
    expected = v1_outcome(kind, lambda: oracle_load(kind, text, size))
    assert v1_outcome(kind, lambda: deserialize_model(io.StringIO(text)).model) == expected


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
            "prior\t0\t1\n-0.5\nprior\t1\t1\n-1.0\n"
            "likelihood\t0\t1\n-2.0\nlikelihood\t1\t1\n0.25\nend\n",
        ),
        ("maxent", MaxEntModel(np.array([[0.0], [1.5]]), 1), "weight\t0\t0\nweight\t1\t1\n0\n1.5\nend\n"),
    ],
    ids=["naive_bayes", "maxent"],
)
def test_parameter_block_layout_at_one_feature(kind, model, block):
    artifact = ModelArtifact(kind, Vocabulary({"a": 0}, {}, 1, 0), model, nb_metadata())
    assert v2_text(artifact).endswith("\t1\t0\na\n" + block)


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


def test_reading_keeps_one_string_per_word(traced_peak):
    # The term dicts and the per-parameter arrays peak at about 2.1 times
    # the file's bytes.  A fresh string for each word of each bigram, as
    # the reader once kept, took that to about 2.6.
    text = corrupt(zipf_artifact("naive_bayes"), str)
    restored, peak = traced_peak(deserialize_model, io.StringIO(text))
    vocab = restored.vocabulary
    words = list(vocab.unigram_index) + [word for bigram in vocab.bigram_index for word in bigram]
    assert len({id(word) for word in words}) == len(set(words))
    assert peak < 2.3 * len(text)  # every character is ASCII, one byte


def test_vocabulary_file_is_parsed_as_it_is_read(traced_peak):
    # v1: about 12 times the file's bytes; collecting every term line before
    # parsing any, as the reader once did, took that to about 17
    sink = io.StringIO()
    v1_writer.write_vocabulary_file(zipf_artifact("naive_bayes").vocabulary, sink)
    text = sink.getvalue()
    vocab, peak = traced_peak(read_vocabulary_file, io.StringIO(text))
    assert len(vocab) == 10_000
    assert peak < 14 * len(text)


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
    text = v2_text(ModelArtifact("maxent", small_vocab(), maxent_artifact().model, metadata))
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


# Format v2: a twin of each v1 rejection above, on text the current writer
# makes.  Every block of a v2 file is counted, so a cut file never loads.


@pytest.mark.parametrize("artifact", [nb_artifact, maxent_artifact], ids=["naive_bayes", "maxent"])
def test_v2_model_cut_at_any_line_boundary_is_rejected(artifact):
    lines = v2_text(artifact()).splitlines(keepends=True)
    for k in range(len(lines)):  # the last cut leaves out only `end`
        with pytest.raises(ModelFormatError, match="truncated"):
            deserialize_model(io.StringIO("".join(lines[:k])))


def test_v2_vocabulary_file_cut_at_any_line_boundary_is_rejected():
    sink = io.StringIO()
    write_vocabulary_file(small_vocab(), sink)
    lines = sink.getvalue().splitlines(keepends=True)
    assert lines[-1] == "end\n"
    for k in range(len(lines)):
        with pytest.raises(ModelFormatError, match="truncated"):
            read_vocabulary_file(io.StringIO("".join(lines[:k])))


@pytest.mark.parametrize("tail", ["bad\n", "bad", "\n", "end\n"], ids=["term", "unterminated", "blank", "end"])
def test_v2_vocabulary_file_rejects_a_line_after_the_end_marker(tail):
    sink = io.StringIO()
    write_vocabulary_file(small_vocab(), sink)
    with pytest.raises(ModelFormatError, match="after the end marker"):
        read_vocabulary_file(io.StringIO(sink.getvalue() + tail))


@pytest.mark.parametrize(
    "header, message",
    [("tweetiment-vocab v2 6 4 99999999999999999999 4", "truncated"),
     ("tweetiment-vocab v2 6 4 +5 4", "bad term count"),
     ("tweetiment-vocab v2 6 4 5 3", "missing end marker"),
     ("tweetiment-vocab v2 6 4", "not a vocabulary file")],
    ids=["count_huge", "count_signed", "bigram_count_low", "v1_fields"],
)
def test_v2_vocabulary_file_header_must_count_its_terms(header, message):
    sink = io.StringIO()
    write_vocabulary_file(small_vocab(), sink)
    text = sink.getvalue()
    assert text.startswith("tweetiment-vocab v2 6 4 5 4\n")
    with pytest.raises(ModelFormatError, match=message):
        read_vocabulary_file(io.StringIO(text.replace("tweetiment-vocab v2 6 4 5 4", header)))


# id -> (artifact, text to replace, its replacement, message); the texts are
# those of the v2 files of nb_artifact and maxent_artifact
V2_REJECTIONS = {
    # a count that does not match its block
    "unigram_count_high": (nb_artifact, "vocabulary\t6\t4\t5\t4", "vocabulary\t6\t4\t6\t4", "two words"),
    "unigram_count_low": (nb_artifact, "vocabulary\t6\t4\t5\t4", "vocabulary\t6\t4\t4\t4", "two words"),
    "bigram_count_low": (nb_artifact, "vocabulary\t6\t4\t5\t4", "vocabulary\t6\t4\t5\t3", "expected the parameters prior 0"),
    "nb_count_low": (nb_artifact, "likelihood\t0\t9", "likelihood\t0\t8", "hold 8 of 9 values"),
    "nb_count_high": (nb_artifact, "likelihood\t1\t9", "likelihood\t1\t10", "hold 10 of 9 values"),
    "sparse_count_past_width": (maxent_artifact, "weight\t0\t5", "weight\t0\t10", "hold 10 of 9 values"),
    "sparse_count_high": (maxent_artifact, "weight\t0\t5", "weight\t0\t6", "line of 6 numbers"),
    "sparse_count_low": (maxent_artifact, "weight\t1\t4", "weight\t1\t3", "line of 3 numbers"),
    "index_missing": (maxent_artifact, "\n0 2 5 6 7\n", "\n0 2 5 6\n", "line of 5 numbers"),
    "value_missing": (maxent_artifact, " 0.782149765885572\nweight", "\nweight", "line of 5 numbers"),
    "value_extra": (nb_artifact, "-2.833213344056216\nlikelihood", "-2.833213344056216 -1.0\nlikelihood",
                    "line of 9 numbers"),
    "prior_value_extra": (nb_artifact, "-0.6931471805599453\nprior", "-0.6931471805599453 0.5\nprior",
                          "line of 1 numbers"),
    # an integer that is not ASCII digits
    "count_signed": (maxent_artifact, "weight\t0\t5", "weight\t0\t+5", "bad parameter count"),
    "count_arabic": (maxent_artifact, "weight\t0\t5", "weight\t0\t٥", "bad parameter count"),
    "term_count_huge": (nb_artifact, "vocabulary\t6\t4\t5\t4", "vocabulary\t6\t4\t99999999999999999999\t4",
                        "truncated"),
    "term_count_signed": (nb_artifact, "vocabulary\t6\t4\t5\t4", "vocabulary\t6\t4\t+5\t4", "bad term count"),
    "term_count_arabic": (nb_artifact, "vocabulary\t6\t4\t5\t4", "vocabulary\t6\t4\t5\t٤", "bad term count"),
    "budget_signed": (nb_artifact, "vocabulary\t6\t4\t5\t4", "vocabulary\t+6\t4\t5\t4", "bad unigram budget"),
    "class_signed": (maxent_artifact, "weight\t1\t4", "weight\t+1\t4", "expected the parameters weight 1"),
    "class_arabic": (maxent_artifact, "weight\t1\t4", "weight\t١\t4", "expected the parameters weight 1"),
    "index_signed": (maxent_artifact, "\n0 2 5 6 7\n", "\n0 2 +5 6 7\n", "bad parameter line"),
    "index_arabic": (maxent_artifact, "\n0 2 5 6 7\n", "\n0 2 ٥ 6 7\n", "bad parameter line"),
    # an index that repeats, descends or lies out of range
    "index_repeats": (maxent_artifact, "\n0 2 5 6 7\n", "\n0 2 5 5 7\n", "not ascending"),
    "index_descends": (maxent_artifact, "\n0 2 5 6 7\n", "\n0 2 6 5 7\n", "not ascending"),
    "index_out_of_range": (maxent_artifact, "\n1 3 4 8\n", "\n1 3 4 9\n", "not ascending within 0..8"),
    "index_past_int64": (maxent_artifact, "\n1 3 4 8\n", "\n1 3 4 99999999999999999999\n", "not ascending"),
    # a value that is not a finite number
    "value_nan": (maxent_artifact, "\n0.987929368810362 ", "\nnan ", "bad parameter line"),
    "value_inf": (maxent_artifact, "\n0.987929368810362 ", "\ninf ", "bad parameter line"),
    "value_1e400": (maxent_artifact, "\n0.987929368810362 ", "\n1e400 ", "non-finite"),
    "prior_minus_1e400": (nb_artifact, "\n-0.6931471805599453\nlikelihood", "\n-1e400\nlikelihood", "non-finite"),
    "value_not_a_number": (nb_artifact, "\n-1.4469189829363254 ", "\n1-2 ", "bad parameter line"),
    "value_doubled_space": (maxent_artifact, "0.9065705811143495 0.9065705811143495",
                            "0.9065705811143495  0.9065705811143495", "bad parameter line"),
    "value_leading_space": (maxent_artifact, "\n0.987929368810362 ", "\n 0.987929368810362 ", "bad parameter line"),
    "index_trailing_space": (maxent_artifact, "\n1 3 4 8\n", "\n1 3 4 8 \n", "bad parameter line"),
    # a carriage return, a tab or a space where the layout has none
    "cr_value_line": (maxent_artifact, "0.782149765885572\nweight", "0.782149765885572\r\nweight", "bad parameter"),
    "cr_index_line": (maxent_artifact, "\n1 3 4 8\n", "\n1 3 4 8\r\n", "bad parameter line"),
    "cr_count": (maxent_artifact, "weight\t0\t5\n", "weight\t0\t5\r\n", "bad parameter count"),
    "cr_unigram": (nb_artifact, "\ngood\n", "\ngood\r\n", "tab or CR"),
    "cr_bigram": (nb_artifact, "\nfun good\n", "\nfun good\r\n", "tab or CR"),
    "tab_unigram": (nb_artifact, "\ngood\n", "\ngo\tod\n", "tab or CR"),
    "bigram_one_word": (nb_artifact, "\nfun good\n", "\nfungood\n", "two words"),
    "bigram_three_words": (nb_artifact, "\nfun good\n", "\nfun good x\n", "two words"),
    "bigram_doubled_space": (nb_artifact, "\nfun good\n", "\nfun  good\n", "two words"),
    # a term given twice
    "unigram_repeated": (nb_artifact, "\nfun\ntimes\n", "\nfun\nfun\n", "given twice"),
    "bigram_repeated": (nb_artifact, "\nbad bad\nfun good\n", "\nbad bad\nbad bad\n", "given twice"),
    # blocks out of their order, or a header out of shape
    "blocks_swapped": (nb_artifact, "prior\t0\t1", "likelihood\t0\t1", "expected the parameters prior 0"),
    "classes_swapped": (maxent_artifact, "weight\t0\t5", "weight\t1\t5", "expected the parameters weight 0"),
    "header_extra_field": (maxent_artifact, "weight\t0\t5", "weight\t0\t5\t5", "expected the parameters"),
    "vocabulary_header_v1": (nb_artifact, "vocabulary\t6\t4\t5\t4", "vocabulary\t6\t4\t9", "malformed vocabulary"),
    # the end marker and what follows it
    "end_missing": (nb_artifact, "\nend\n", "\n", "truncated"),
    "line_after_end": (nb_artifact, "\nend\n", "\nend\ngarbage\n", "after the end marker"),
    "blank_after_end": (maxent_artifact, "\nend\n", "\nend\n\n", "after the end marker"),
    "second_end": (maxent_artifact, "\nend\n", "\nend\nend\n", "after the end marker"),
    # a known meta key given twice
    "meta_n_docs_twice": (nb_artifact, "meta\tn_docs\t4\n", "meta\tn_docs\t4\nmeta\tn_docs\t4\n",
                          "meta 'n_docs' given twice"),
    "meta_feature_mode_twice": (nb_artifact, "meta\tfeature_mode\tfrequency\n",
                                "meta\tfeature_mode\tfrequency\nmeta\tfeature_mode\tpresence\n",
                                "meta 'feature_mode' given twice"),
    "meta_trainer_short": (maxent_artifact, "meta\ttrainer\tgis\t25\t1e-08", "meta\ttrainer\tgis\t25",
                           "meta 'trainer' needs 3"),
}


@pytest.mark.parametrize("case", sorted(V2_REJECTIONS))
def test_v2_rejection(case):
    artifact, old, new, message = V2_REJECTIONS[case]
    text = v2_text(artifact())
    assert text.count(old) == 1
    with pytest.raises(ModelFormatError, match=message):
        deserialize_model(io.StringIO(text.replace(old, new)))


def test_v2_non_finite_prior_is_found_before_a_cut_likelihood_block():
    # each block's values are checked once the block is read
    lines = v2_text(nb_artifact()).split("\n")
    lines[lines.index("prior\t0\t1") + 1] = "1e400"
    text = "\n".join(lines[: lines.index("likelihood\t1\t9") + 1])
    with pytest.raises(ModelFormatError, match="non-finite parameter value"):
        deserialize_model(io.StringIO(text))


def test_v1_non_finite_value_is_found_before_a_missing_pair():
    def edit(block):
        block = [line for line in block if not line.startswith("likelihood\t1\t3\t")]
        return [re.sub("^(prior\t1\t).*", r"\g<1>1e400", line) for line in block]

    with pytest.raises(ModelFormatError, match="non-finite parameter value"):
        deserialize_model(io.StringIO(edit_parameters(nb_artifact(), edit)))


def test_v2_second_model_after_the_end_marker():
    text = v2_text(maxent_artifact())
    with pytest.raises(ModelFormatError, match="after the end marker"):
        deserialize_model(io.StringIO(text + text))


def test_v2_end_marker_without_a_newline_is_the_last_line():
    artifact = maxent_artifact()
    restored = deserialize_model(io.StringIO(v2_text(artifact).removesuffix("\n")))
    assert np.array_equal(restored.model.weights, artifact.model.weights)


def chunked_artifact(kind: str, size: int) -> ModelArtifact:
    """A model of `kind` over `size` unigrams, its parameters drawn at
    random with every third value 0, so that its rows take more than one
    chunk line once size passes 4,096."""
    spec = MODEL_KINDS[kind]
    rng = np.random.default_rng(size)
    arrays = {}
    for _, attribute, indexed in spec.blocks:
        values = rng.normal(size=(2, size) if indexed else (2,))
        if spec.sparse:
            values[:, ::3] = 0.0
        arrays[attribute] = values
    vocabulary = Vocabulary({f"w{k}": k for k in range(size)}, {}, size, 0)
    return ModelArtifact(kind, vocabulary, spec.model_type(**arrays, vocab_size=size), nb_metadata())


@pytest.mark.parametrize("size", [4095, 4096, 4097, 8193, 12_289])
@pytest.mark.parametrize("kind", sorted(MODEL_KINDS))
def test_rows_of_several_chunks_round_trip(kind, size):
    original = chunked_artifact(kind, size)
    text = v2_text(original)
    lengths = [line.count(" ") + 1 for line in text.split("\n") if line[:1] in "-0123456789"]
    assert max(lengths) == min(4096, size if kind == "naive_bayes" else size - (size + 2) // 3)
    restored = deserialize_model(io.StringIO(text))
    for _, attribute, _ in MODEL_KINDS[kind].blocks:
        before, after = getattr(original.model, attribute), getattr(restored.model, attribute)
        assert np.array_equal(after.view(np.int64), before.view(np.int64))


@pytest.mark.parametrize(
    "edit, message",
    [
        ("repeat_across_chunks", "not ascending"),
        ("descend_across_chunks", "not ascending"),
        ("one_long_chunk", "line of 4096 numbers"),
    ],
)
def test_v2_chunks_of_one_row_are_checked_together(edit, message):
    lines = v2_text(chunked_artifact("maxent", 10_240)).split("\n")
    first = next(k for k, line in enumerate(lines) if line.startswith("weight\t0\t")) + 1
    second = first + 2  # each index line is followed by its value line
    if edit == "one_long_chunk":  # the first line then holds too many numbers
        lines[first : second + 2] = [lines[first] + " " + lines[second],
                                     lines[first + 1] + " " + lines[second + 1]]
    else:
        indices = lines[second].split(" ")
        indices[0] = lines[first].split(" ")[-1 if edit == "repeat_across_chunks" else -2]
        lines[second] = " ".join(indices)
    with pytest.raises(ModelFormatError, match=message):
        deserialize_model(io.StringIO("\n".join(lines)))


def test_v2_vocabulary_indices_must_be_in_their_places():
    # the v2 term lines carry no index, so a gap or a bigram before a
    # unigram cannot be written; v1 wrote these and then refused them
    for vocab in [Vocabulary({"a": 0, "b": 2}, {}, 3, 0), Vocabulary({"a": 1}, {("a", "a"): 0}, 1, 1)]:
        sink = io.StringIO()
        with pytest.raises(ValueError, match="not the unigrams from 0"):
            write_vocabulary_file(vocab, sink)
        assert sink.getvalue() == ""


def traced_file_load(tmp_path, traced_peak, reader, text: str):
    """traced_peak of `reader` on `text` read from a file as the CLI opens
    it, after one small load, so that no one-time set-up of the reader
    counts."""
    deserialize_model(io.StringIO(v2_text(maxent_artifact())))
    path = tmp_path / "traced.txt"
    path.write_text(text, encoding="utf-8")
    with open(path, encoding="utf-8", newline="") as source:
        return traced_peak(reader, source)


def test_v2_reading_parses_chunk_lines_as_it_reads_them(tmp_path, traced_peak):
    # The peak is about 3.75 times the file's bytes, the vocabulary's dicts
    # most of it.  Reading the whole file first, or holding the chunk lines
    # until their block ends, would add about 0.8 times.
    text = v2_text(zipf_artifact("naive_bayes"))
    restored, peak = traced_file_load(tmp_path, traced_peak, deserialize_model, text)
    assert len(restored.vocabulary) == 10_000
    assert peak < 4.1 * len(text)  # every character is ASCII, one byte


@pytest.mark.parametrize("kind", sorted(MODEL_KINDS))
def test_v2_reading_peaks_within_half_a_mib_of_v1(kind, tmp_path, traced_peak):
    artifact = zipf_artifact(kind)
    _, v1_peak = traced_file_load(tmp_path, traced_peak, deserialize_model, corrupt(artifact, str))
    _, v2_peak = traced_file_load(tmp_path, traced_peak, deserialize_model, v2_text(artifact))
    assert v2_peak < v1_peak + 2**19


def test_v2_reading_keeps_one_string_per_word():
    restored = deserialize_model(io.StringIO(v2_text(zipf_artifact("naive_bayes"))))
    vocab = restored.vocabulary
    words = list(vocab.unigram_index) + [word for bigram in vocab.bigram_index for word in bigram]
    assert len({id(word) for word in words}) == len(set(words))


def test_v2_vocabulary_file_is_parsed_as_it_is_read(tmp_path, traced_peak):
    # about 16.5 times the file's bytes; holding the bigram lines until the
    # last is read took that to about 20.7
    sink = io.StringIO()
    write_vocabulary_file(zipf_artifact("naive_bayes").vocabulary, sink)
    text = sink.getvalue()
    vocab, peak = traced_file_load(tmp_path, traced_peak, read_vocabulary_file, text)
    assert len(vocab) == 10_000
    assert peak < 18 * len(text)


def oracle_parameter_lines(artifact: ModelArtifact) -> str:
    """The parameter lines as the writer wrote them before it formatted each
    distinct value once: its loop, kept verbatim."""
    sink = io.StringIO()
    # Each chunk line is formatted from one tuple of at most _CHUNK numbers,
    # so no whole row is held as Python objects; a sparse kind leaves out each 0.
    spec = MODEL_KINDS[artifact.kind]
    for name, attribute, _ in spec.blocks:
        table = np.asarray(getattr(artifact.model, attribute), dtype=float)
        for c, row in enumerate(table.reshape(2, -1)):
            written = np.flatnonzero(row) if spec.sparse else np.arange(row.size)
            sink.write(f"{name}\t{c}\t{written.size}\n")
            for start in range(0, written.size, 4096):
                block = written[start : start + 4096]
                line = " ".join(["%r"] * block.size) + "\n"  # no str per number is kept
                if spec.sparse:
                    sink.write(line % tuple(block.tolist()))
                sink.write(line % tuple(row[block].tolist()))
    return sink.getvalue()


# zeros of both signs, subnormals, the largest magnitudes and everyday values
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.225e-308, 1e308, -1e308, 1.7976931348623157e308, -1.5, 0.1]


@st.composite
def parameter_tables(draw, size: int) -> np.ndarray:
    """A (2, size) table of runs, each of repeated edge values, of a few
    distinct values, of about half distinct values, or of distinct values."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = np.array(EDGE_VALUES + draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=4)))
    table = np.empty(2 * size)
    start = 0
    while start < table.size:
        n = min(draw(st.sampled_from([table.size, 4096, 1 + start % 37])), table.size - start)
        run = draw(st.sampled_from(["edge", "few", "half", "distinct"]))
        if run == "edge":
            table[start : start + n] = rng.choice(pool, n)
        elif run == "few":  # what a Naive Bayes row looks like: the log of a few counts
            table[start : start + n] = np.log(rng.integers(1, 6, n) / 7)
        elif run == "half":
            table[start : start + n] = rng.choice(rng.normal(size=max(1, n // 2 + draw(st.integers(-1, 1)))), n)
        else:
            table[start : start + n] = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, n)
        start += n
    return table.reshape(2, size)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("size", [3, 4095, 4096, 4097, 8193])
@pytest.mark.parametrize("kind", sorted(MODEL_KINDS))
def test_parameter_lines_are_the_oracle_bytes(kind, size, data):
    spec = MODEL_KINDS[kind]
    arrays = {}
    for _, attribute, indexed in spec.blocks:
        table = data.draw(parameter_tables(size), label=attribute)
        arrays[attribute] = table if indexed else table[:, 0]
    vocabulary = Vocabulary({f"w{k}": k for k in range(size)}, {}, size, 0)
    artifact = ModelArtifact(kind, vocabulary, spec.model_type(**arrays, vocab_size=size), nb_metadata())
    assert v2_text(artifact).endswith("\n" + oracle_parameter_lines(artifact) + "end\n")


def test_terms_out_of_index_order_are_written_in_index_order():
    # dicts built in another order than their indices: the writer sorts them
    vocab = Vocabulary({"b": 1, "c": 2, "a": 0}, {("c", "a"): 4, ("a", "b"): 3}, 3, 2)
    sink = io.StringIO()
    write_vocabulary_file(vocab, sink)
    assert sink.getvalue() == "tweetiment-vocab v2 3 2 3 2\na\nb\nc\na b\nc a\nend\n"
    model = NaiveBayesModel(np.log([0.5, 0.5]), np.full((2, 5), -1.5), 5)
    artifact = ModelArtifact("naive_bayes", vocab, model, nb_metadata())
    assert "\nvocabulary\t3\t2\t3\t2\na\nb\nc\na b\nc a\nprior\t0\t1\n" in v2_text(artifact)


@pytest.mark.parametrize(
    "unigram_index, bigram_index, message",
    [
        ({"a": 0, "b": 2}, {}, "vocabulary indices are not the unigrams from 0, then the bigrams"),
        ({"a": 1, "b": 0}, {("a", "b"): 3}, "vocabulary indices are not the unigrams from 0, then the bigrams"),
        ({"a": 0, "x\ty": 1}, {}, "the v2 format cannot carry the term 'x\\ty'"),
        # the unigrams are named first, then the bigrams, each in dict order
        ({"a": 0, "b": 1}, {("a", "b c"): 3, ("a", "\t"): 2}, "the v2 format cannot carry the term ('a', 'b c')"),
        ({"a\r": 1, "b": 0}, {("a", "b c"): 2}, "the v2 format cannot carry the term 'a\\r'"),
    ],
)
def test_vocabularies_the_file_cannot_carry_keep_their_message(unigram_index, bigram_index, message):
    vocab = Vocabulary(unigram_index, bigram_index, 1, 1)
    model = MaxEntModel(np.zeros((2, len(vocab))), len(vocab))
    artifact = ModelArtifact("maxent", vocab, model, nb_metadata())
    for write, value in [(write_vocabulary_file, vocab), (serialize_model, artifact)]:
        sink = io.StringIO()
        with pytest.raises(ValueError) as raised:
            write(value, sink)
        assert str(raised.value) == message
        assert sink.getvalue() == ""
