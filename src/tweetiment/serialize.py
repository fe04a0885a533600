"""Versioned text persistence for vocabularies and trained models.

Both formats are line-oriented UTF-8 with tab-separated fields and a
version-carrying header.  Floats are written with repr(), which
round-trips every double exactly, so a deserialized model reproduces the
original's predictions bit for bit.

Vocabulary file:

    tweetiment-vocab v1 <unigram_budget> <bigram_budget>
    <index>TAB<U|B>TAB<term>          (bigram terms are "word1 word2")

Model file:

    tweetiment-model v1 <kind>
    meta TAB <key> TAB <value...>     (a known key at most once, others ignored)
    vocabulary TAB <unigram_budget> TAB <bigram_budget> TAB <n_terms>
    <term lines as above>
    parameters TAB <n_lines>
    <parameter lines: name TAB class [TAB index] TAB value>
    end                               (the last line)
"""

from __future__ import annotations

import math
import re
from array import array
from dataclasses import dataclass

import numpy as np

from tweetiment.errors import ModelFormatError
from tweetiment.features import FEATURE_MODES, Vocabulary, matrix_blocks
from tweetiment.models.maxent import MaxEntModel, TrainerConfig, maxent_probs
from tweetiment.models.naive_bayes import NaiveBayesModel, nb_scores
from tweetiment.sentiment import Sentiment, argmax_labels

VOCAB_MAGIC = "tweetiment-vocab"
MODEL_MAGIC = "tweetiment-model"
FORMAT_VERSION = "v1"
# known meta key -> its number of value fields; other keys are ignored
META_FIELD_COUNTS = {"n_docs": 1, "trained_at": 1, "feature_mode": 1, "trainer": 3, "alpha": 1}
_FIELD_END = re.compile("[\t\r\n]")  # ends a term field or its line
_WORD_END = re.compile("[\t\r\n ]")  # a space also ends a bigram's first word
_LINES_PER_BLOCK = 4096  # parameter lines made from one .tolist() block


@dataclass(frozen=True)
class ModelKind:
    """One kind of model: the only place its file layout and scorer are given.
    A block is an array of shape (2, vocab_size), or (2,) without an index."""

    model_type: type
    scorer: object  # (model, DocumentMatrix) -> per-class scores of each row
    sparse: bool  # its file lists only the nonzero values
    blocks: tuple  # (line name, model attribute, lines carry a feature index), in file order


MODEL_KINDS = {
    "naive_bayes": ModelKind(NaiveBayesModel, nb_scores, False, (
        ("prior", "class_log_prior", False), ("likelihood", "feature_log_likelihood", True))),
    "maxent": ModelKind(MaxEntModel, maxent_probs, True, (("weight", "weights", True),)),
}


@dataclass(frozen=True)
class TrainingMetadata:
    """How a model was trained: the one record of its feature mode and alpha."""

    n_docs: int
    trained_at: str
    feature_mode: str
    trainer: TrainerConfig | None = None
    alpha: float | None = None


@dataclass(frozen=True)
class ModelArtifact:
    """A trained model plus everything needed to run it on raw tokens.
    Raises ValueError where deserialize_model would reject what it wrote,
    except for vocabulary terms the file cannot carry: serialize_model
    refuses those, so that loading a model does not check its terms."""

    kind: str
    vocabulary: Vocabulary
    model: object
    metadata: TrainingMetadata

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind: {self.kind!r}")
        spec = MODEL_KINDS[self.kind]
        if not isinstance(self.model, spec.model_type):
            raise ValueError(f"a {self.kind} artifact needs a {spec.model_type.__name__}")
        if self.model.vocab_size != len(self.vocabulary):
            raise ValueError("the model's vocab_size differs from the vocabulary's size")
        for _, attribute, indexed in spec.blocks:
            shape = (2, self.model.vocab_size) if indexed else (2,)
            value = np.asarray(getattr(self.model, attribute))
            if value.shape != shape or not np.isfinite(value).all():
                raise ValueError(f"{attribute} must be a finite array of shape {shape}")
        if self.metadata.n_docs < 0:
            raise ValueError(f"negative n_docs: {self.metadata.n_docs!r}")
        if any(c in self.metadata.trained_at for c in "\t\r\n"):
            raise ValueError(f"trained_at holds a tab or line break: {self.metadata.trained_at!r}")
        if self.metadata.feature_mode not in FEATURE_MODES:
            raise ValueError(f"unknown feature mode: {self.metadata.feature_mode!r}")
        alpha = self.metadata.alpha
        if alpha is None and self.kind == "naive_bayes":
            raise ValueError("a naive_bayes artifact needs alpha in its metadata")
        if alpha is not None and not math.isfinite(alpha):
            raise ValueError(f"non-finite alpha: {alpha!r}")


def _check_terms(vocab: Vocabulary):
    """Refuse a term the term lines cannot carry: a tab, CR or LF in any
    term, or a space inside either word of a bigram."""
    bad = [term for term in vocab.unigram_index if _FIELD_END.search(term)]
    bad += [(a, b) for a, b in vocab.bigram_index if _WORD_END.search(a) or _WORD_END.search(b)]
    if bad:
        raise ValueError(f"the {FORMAT_VERSION} format cannot carry the term {bad[0]!r}")


def _write_term_lines(vocab: Vocabulary, sink):
    for term, index in sorted(vocab.unigram_index.items(), key=lambda kv: kv[1]):
        sink.write(f"{index}\tU\t{term}\n")
    for (first, second), index in sorted(vocab.bigram_index.items(), key=lambda kv: kv[1]):
        sink.write(f"{index}\tB\t{first} {second}\n")


def _read_term_lines(lines, n_terms: int, budgets) -> Vocabulary:
    """Read `n_terms` term lines, then check the two budget fields."""
    unigram_index: dict = {}
    bigram_index: dict = {}
    for _ in range(n_terms):
        fields = _next_line(lines).split("\t")
        if len(fields) != 3:
            raise ModelFormatError(f"malformed vocabulary line: {fields!r}")
        index_text, kind, term = fields
        index = _count(index_text, "vocabulary index")
        if kind == "U":
            unigram_index[term] = index
        elif kind == "B":
            parts = term.split(" ")
            if len(parts) != 2:
                raise ModelFormatError(f"bigram term is not two words: {term!r}")
            bigram_index[(parts[0], parts[1])] = index
        else:
            raise ModelFormatError(f"unknown term kind: {kind!r}")
    if len(unigram_index) + len(bigram_index) != n_terms:
        raise ModelFormatError("a vocabulary term given twice")
    indices = sorted(unigram_index.values()) + sorted(bigram_index.values())
    if indices != list(range(len(indices))):
        raise ModelFormatError("vocabulary indices are not contiguous")
    return Vocabulary(
        unigram_index=unigram_index,
        bigram_index=bigram_index,
        unigram_budget=_count(budgets[0], "unigram budget"),
        bigram_budget=_count(budgets[1], "bigram budget"),
    )


def write_vocabulary_file(vocab: Vocabulary, sink):
    """Write a standalone vocabulary file; ValueError, before anything is
    written, for a term the format cannot carry."""
    _check_terms(vocab)
    sink.write(
        f"{VOCAB_MAGIC} {FORMAT_VERSION} {vocab.unigram_budget} {vocab.bigram_budget}\n"
    )
    _write_term_lines(vocab, sink)


def read_vocabulary_file(source) -> Vocabulary:
    lines = _lines(source)
    header = _next_line(lines).split()
    if len(header) != 4 or header[0] != VOCAB_MAGIC:
        raise ModelFormatError("not a vocabulary file")
    if header[1] != FORMAT_VERSION:
        raise ModelFormatError(f"unsupported vocabulary format version: {header[1]}")
    remaining = [line for line in lines if line.strip()]
    return _read_term_lines(iter(remaining), len(remaining), header[2:])


def _lines(source):
    """Each line of `source` without its newline; the one place where a
    byte that is not UTF-8 becomes a ModelFormatError."""
    try:
        for line in source:
            yield line.rstrip("\n")
    except UnicodeDecodeError as error:
        raise ModelFormatError(f"model file is not UTF-8 text: {error}") from None


def _next_line(lines) -> str:
    line = next(lines, None)
    if line is None:
        raise ModelFormatError("truncated model file")
    return line


def _count(text: str, what: str) -> int:
    """A model-file integer field: ASCII digits only."""
    if not (text.isascii() and text.isdigit()):
        raise ModelFormatError(f"bad {what}: {text!r}")
    return int(text)


def serialize_model(artifact: ModelArtifact, sink):
    """Write a ModelArtifact in the versioned text format; ValueError,
    before anything is written, for a vocabulary term it cannot carry."""
    _check_terms(artifact.vocabulary)
    sink.write(f"{MODEL_MAGIC} {FORMAT_VERSION} {artifact.kind}\n")
    meta = artifact.metadata
    sink.write(f"meta\tn_docs\t{meta.n_docs}\n")
    sink.write(f"meta\ttrained_at\t{meta.trained_at}\n")
    sink.write(f"meta\tfeature_mode\t{meta.feature_mode}\n")
    if meta.trainer is not None:
        sink.write(
            f"meta\ttrainer\t{meta.trainer.algorithm}"
            f"\t{meta.trainer.max_iterations}\t{repr(meta.trainer.ll_tolerance)}\n"
        )
    if meta.alpha is not None:
        sink.write(f"meta\talpha\t{repr(float(meta.alpha))}\n")

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


def deserialize_model(source) -> ModelArtifact:
    """Read a ModelArtifact back; rejects unknown versions and kinds."""
    lines = _lines(source)
    header = _next_line(lines).split()
    if not header or header[0] != MODEL_MAGIC:
        raise ModelFormatError("not a model file")
    if len(header) != 3:
        raise ModelFormatError("malformed model header")
    if header[1] != FORMAT_VERSION:
        raise ModelFormatError(f"unsupported model format version: {header[1]}")
    kind = header[2]
    if kind not in MODEL_KINDS:
        raise ModelFormatError(f"unknown model kind: {kind!r}")

    meta_fields: dict = {}
    line = _next_line(lines)
    while line.startswith("meta\t"):
        fields = line.split("\t")
        if len(fields) < 3:
            raise ModelFormatError(f"malformed meta line: {line!r}")
        key, values = fields[1], fields[2:]
        if key in META_FIELD_COUNTS and key in meta_fields:
            raise ModelFormatError(f"meta {key!r} given twice")
        if len(values) != META_FIELD_COUNTS.get(key, len(values)):
            raise ModelFormatError(f"meta {key!r} needs {META_FIELD_COUNTS[key]} field(s)")
        meta_fields[key] = values
        line = _next_line(lines)

    if not line.startswith("vocabulary\t"):
        raise ModelFormatError(f"expected vocabulary block, found: {line!r}")
    vocab_fields = line.split("\t")
    if len(vocab_fields) != 4:
        raise ModelFormatError("malformed vocabulary header")
    n_terms = _count(vocab_fields[3], "vocabulary size")
    vocabulary = _read_term_lines(lines, n_terms, vocab_fields[1:3])

    line = _next_line(lines)
    if not line.startswith("parameters\t"):
        raise ModelFormatError(f"expected parameter block, found: {line!r}")
    parameter_fields = line.split("\t")
    if len(parameter_fields) != 2:
        raise ModelFormatError("malformed parameters header")
    n_parameters = _count(parameter_fields[1], "parameter count")
    parameter_lines = [_next_line(lines) for _ in range(n_parameters)]
    if _next_line(lines) != "end":
        raise ModelFormatError("missing end marker")
    if next(lines, None) is not None:
        raise ModelFormatError("a line after the end marker")

    model = _model_from_parameters(kind, parameter_lines, len(vocabulary))
    try:
        metadata = _metadata_from_fields(meta_fields)
        return ModelArtifact(kind=kind, vocabulary=vocabulary, model=model, metadata=metadata)
    except ValueError as error:
        raise ModelFormatError(f"bad model metadata: {error}") from None


def _metadata_from_fields(fields: dict) -> TrainingMetadata:
    try:
        n_docs = _count(fields["n_docs"][0], "n_docs")
        trained_at = fields["trained_at"][0]
    except KeyError:
        raise ModelFormatError("missing model metadata") from None
    trainer = None
    if "trainer" in fields:
        algorithm, max_iterations, ll_tolerance = fields["trainer"]
        trainer = TrainerConfig(
            algorithm, _count(max_iterations, "max_iterations"), float(ll_tolerance)
        )
    return TrainingMetadata(
        n_docs=n_docs,
        trained_at=trained_at,
        feature_mode=fields.get("feature_mode", [None])[0],
        trainer=trainer,
        alpha=float(fields["alpha"][0]) if "alpha" in fields else None,
    )


def _model_from_parameters(kind, parameter_lines, vocab_size):
    # line name -> (first slot, width, field count): every (name, class,
    # index) has one slot in a flat array, so one bincount finds repeats and
    # gaps; a line of a block without a feature index has three fields
    spec, layout, n_slots = MODEL_KINDS[kind], {}, 0
    for name, _, indexed in spec.blocks:
        width = vocab_size if indexed else 1
        layout[name] = (n_slots, width, 3 + indexed)
        n_slots += 2 * width
    slots, values = array("q"), array("d")
    for line in parameter_lines:
        fields = line.split("\t")
        block = layout.get(fields[0])
        if block is None or len(fields) != block[2]:
            raise ModelFormatError(f"bad parameter line: {line!r}")
        # checked inline, not through _count: this loop runs once per feature
        c_text, i_text = fields[1], (fields[2] if len(fields) == 4 else "0")
        if not (c_text.isascii() and c_text.isdigit() and i_text.isascii() and i_text.isdigit()):
            raise ModelFormatError(f"bad parameter line: {line!r}")
        try:
            values.append(float(fields[-1]))
        except ValueError:
            raise ModelFormatError(f"bad parameter line: {line!r}") from None
        start, width, _ = block
        c, i = int(c_text), int(i_text)
        if not (c < 2 and i < width):
            raise ModelFormatError(f"parameter out of range: {line!r}")
        slots.append(start + c * width + i)
    slot_array = np.frombuffer(slots, np.int64)
    counts = np.bincount(slot_array, minlength=n_slots)
    if counts.max(initial=0) > 1:
        first = slots.index(int(np.argmax(counts > 1)))
        raise ModelFormatError(f"parameter given twice: {parameter_lines[first]!r}")
    flat = np.zeros(n_slots)
    flat[slot_array] = np.frombuffer(values)
    if not np.isfinite(flat).all():
        raise ModelFormatError("non-finite parameter value")
    missing = n_slots - np.count_nonzero(counts)
    if missing and not spec.sparse:  # Naive Bayes is the one dense kind
        raise ModelFormatError(f"Naive Bayes parameters lack {missing} of their {n_slots} values")
    parts = np.split(flat, [start for start, _, _ in layout.values()][1:])
    arrays = {attribute: part.reshape(2, -1) if indexed else part
              for (_, attribute, indexed), part in zip(spec.blocks, parts)}
    return spec.model_type(**arrays, vocab_size=vocab_size)


def artifact_predict_many(artifact: ModelArtifact, tweets) -> list:
    """Classify normalized tweets, a TokenBatch or token lists, scoring the
    document matrix one block of rows at a time; exact ties go positive."""
    blocks = matrix_blocks(tweets, artifact.vocabulary, artifact.metadata.feature_mode)
    scorer = MODEL_KINDS[artifact.kind].scorer
    return [label for block in blocks for label in argmax_labels(scorer(artifact.model, block))]


def artifact_predict(artifact: ModelArtifact, tokens) -> Sentiment:
    """Classify one normalized token list: a one-row artifact_predict_many."""
    return artifact_predict_many(artifact, [tokens])[0]
