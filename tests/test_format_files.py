"""Committed model and vocabulary files of both format versions.

tests/files/v1 holds what the last v1 writer wrote for trained_artifacts():
each file must keep loading to the same artifact, parameters bit for bit.
tests/files/v2 holds what serialize_model and write_vocabulary_file write
for the same artifacts, byte for byte, so any change to the bytes the
writers make shows here.  A change to the v2 format on purpose rewrites
these files and says so.
"""

import io
from pathlib import Path

import numpy as np
import pytest

from sample_data import STATS_CORPUS
from tweetiment.features import FREQUENCY, PRESENCE, build_vocabulary, document_matrix
from tweetiment.models import TrainerConfig, maxent_train, nb_train
from tweetiment.normalize import TokenBatch
from tweetiment.serialize import (
    MODEL_KINDS,
    ModelArtifact,
    TrainingMetadata,
    deserialize_model,
    read_vocabulary_file,
    serialize_model,
    write_vocabulary_file,
)

FILES = Path(__file__).parent / "files"
TRAINED_AT = "2026-01-01T00:00:00+00:00"


def trained_artifacts() -> dict:
    """kind -> artifact: Naive Bayes on frequencies and GIS on presence, over
    STATS_CORPUS with a vocabulary that its budgets cut short."""
    batch = TokenBatch.of([tokens for tokens, _ in STATS_CORPUS])
    labels = [label for _, label in STATS_CORPUS]
    vocab = build_vocabulary(batch, n_unigrams=12, n_bigrams=8)
    nb = nb_train([(document_matrix(batch, vocab, FREQUENCY), labels)], len(vocab), alpha=0.5)
    trainer = TrainerConfig("gis", 30, 1e-9)
    maxent = maxent_train([(document_matrix(batch, vocab, PRESENCE), labels)], len(vocab), trainer)
    metadata = TrainingMetadata(len(labels), TRAINED_AT, FREQUENCY, alpha=0.5)
    return {
        "naive_bayes": ModelArtifact("naive_bayes", vocab, nb, metadata),
        "maxent": ModelArtifact(
            "maxent", vocab, maxent, TrainingMetadata(len(labels), TRAINED_AT, PRESENCE, trainer)
        ),
    }


def read(path: Path, reader):
    with open(path, encoding="utf-8", newline="") as source:
        return reader(source)


def written(writer, value) -> bytes:
    sink = io.StringIO(newline="")
    writer(value, sink)
    return sink.getvalue().encode("utf-8")


def assert_same_artifact(loaded: ModelArtifact, artifact: ModelArtifact):
    assert (loaded.kind, loaded.vocabulary, loaded.metadata) == (
        artifact.kind, artifact.vocabulary, artifact.metadata)
    for _, attribute, _ in MODEL_KINDS[artifact.kind].blocks:
        after, before = getattr(loaded.model, attribute), np.asarray(getattr(artifact.model, attribute))
        assert after.shape == before.shape
        assert after.tobytes() == before.tobytes()  # bit for bit, the sign of a zero too


@pytest.mark.parametrize("kind", sorted(MODEL_KINDS))
@pytest.mark.parametrize("version", ["v1", "v2"])
def test_committed_model_loads_to_the_trained_artifact(version, kind):
    assert_same_artifact(read(FILES / version / f"{kind}.model", deserialize_model),
                         trained_artifacts()[kind])


@pytest.mark.parametrize("version", ["v1", "v2"])
def test_committed_vocabulary_file_loads_to_the_trained_vocabulary(version):
    vocabulary = trained_artifacts()["naive_bayes"].vocabulary
    assert read(FILES / version / "terms.vocab", read_vocabulary_file) == vocabulary


@pytest.mark.parametrize("kind", sorted(MODEL_KINDS))
def test_model_bytes_are_the_committed_v2_file(kind):
    expected = (FILES / "v2" / f"{kind}.model").read_bytes()
    assert written(serialize_model, trained_artifacts()[kind]) == expected
    # a v1 file of the same model is rewritten as the same v2 bytes
    v1 = read(FILES / "v1" / f"{kind}.model", deserialize_model)
    assert written(serialize_model, v1) == expected


def test_vocabulary_file_bytes_are_the_committed_v2_file():
    vocabulary = trained_artifacts()["naive_bayes"].vocabulary
    assert written(write_vocabulary_file, vocabulary) == (FILES / "v2" / "terms.vocab").read_bytes()


@pytest.mark.parametrize("kind", sorted(MODEL_KINDS))
def test_write_read_write_is_byte_identical(kind):
    first = written(serialize_model, trained_artifacts()[kind])
    again = deserialize_model(io.StringIO(first.decode("utf-8"), newline=""))
    assert written(serialize_model, again) == first
