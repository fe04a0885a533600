"""The format v1 writer, kept for tests only: v1 files are still read, and
the v1 rejection tests mangle text that this writer makes.  The functions
below are the last v1 writer of tweetiment.serialize, unchanged."""

import re

import numpy as np

from tweetiment.features import Vocabulary
from tweetiment.serialize import META_KEYS, MODEL_KINDS, MODEL_MAGIC, VOCAB_MAGIC, ModelArtifact, _count

FORMAT_VERSION = "v1"
_FIELD_END = re.compile("[\t\r\n]")  # ends a term field or its line
_WORD_END = re.compile("[\t\r\n ]")  # a space also ends a bigram's first word
_LINES_PER_BLOCK = 4096  # parameter lines made from one .tolist() block


def _check_vocabulary(vocab: Vocabulary):
    """Refuse a budget that is not ASCII digits, and a term the term lines
    cannot carry: a tab, CR or LF in any term, or a space inside either word of a bigram."""
    _count(str(vocab.unigram_budget), "unigram budget", ValueError)
    _count(str(vocab.bigram_budget), "bigram budget", ValueError)
    bad = [term for term in vocab.unigram_index if _FIELD_END.search(term)]
    bad += [(a, b) for a, b in vocab.bigram_index if _WORD_END.search(a) or _WORD_END.search(b)]
    if bad:
        raise ValueError(f"the {FORMAT_VERSION} format cannot carry the term {bad[0]!r}")


def _write_term_lines(vocab: Vocabulary, sink):
    for term, index in sorted(vocab.unigram_index.items(), key=lambda kv: kv[1]):
        sink.write(f"{index}\tU\t{term}\n")
    for (first, second), index in sorted(vocab.bigram_index.items(), key=lambda kv: kv[1]):
        sink.write(f"{index}\tB\t{first} {second}\n")


def write_vocabulary_file(vocab: Vocabulary, sink):
    """Write a standalone vocabulary file; ValueError, before anything is
    written, for a term or budget the format cannot carry."""
    _check_vocabulary(vocab)
    sink.write(
        f"{VOCAB_MAGIC} {FORMAT_VERSION} {vocab.unigram_budget} {vocab.bigram_budget}\n"
    )
    _write_term_lines(vocab, sink)


def serialize_model(artifact: ModelArtifact, sink):
    """Write a ModelArtifact in the versioned text format; ValueError,
    before anything is written, for a vocabulary it cannot carry."""
    _check_vocabulary(artifact.vocabulary)
    sink.write(f"{MODEL_MAGIC} {FORMAT_VERSION} {artifact.kind}\n")
    for key, spec in META_KEYS.items():
        if (value := getattr(artifact.metadata, key)) is not None:
            sink.write("\t".join(("meta", key, *spec.write(value))) + "\n")

    vocab = artifact.vocabulary
    sink.write(
        f"vocabulary\t{vocab.unigram_budget}\t{vocab.bigram_budget}\t{len(vocab)}\n"
    )
    _write_term_lines(vocab, sink)

    # The lines are counted first, then written as they are made: values
    # come from .tolist() floats, one block of a row at a time, so no whole
    # row is held as Python objects; a sparse kind leaves out each 0.
    spec = MODEL_KINDS[artifact.kind]
    tables = [np.asarray(getattr(artifact.model, a), dtype=float) for _, a, _ in spec.blocks]
    n_parameters = sum(np.count_nonzero(t) if spec.sparse else t.size for t in tables)
    sink.write(f"parameters\t{n_parameters}\n")
    for (name, _, indexed), table in zip(spec.blocks, tables):
        for c, row in enumerate(table.reshape(2, -1)):
            written = np.flatnonzero(row) if spec.sparse else np.arange(len(row))
            for start in range(0, len(written), _LINES_PER_BLOCK):
                block = written[start : start + _LINES_PER_BLOCK]
                for i, v in zip(block.tolist(), row[block].tolist()):
                    sink.write(f"{name}\t{c}\t{i}\t{v!r}\n" if indexed else f"{name}\t{c}\t{v!r}\n")
    sink.write("end\n")
