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
    meta TAB <key> TAB <value...>     (a META_KEYS key at most once, others ignored)
    vocabulary TAB <unigram_budget> TAB <bigram_budget> TAB <n_terms>
    <term lines as above>
    parameters TAB <n_lines>
    <parameter lines: name TAB class [TAB index] TAB value>   (a pair at most once)
    end                               (the last line)
"""

from __future__ import annotations

import math
import re
from array import array
from dataclasses import MISSING, dataclass, fields as dataclass_fields

import numpy as np

from tweetiment.errors import ModelFormatError
from tweetiment.features import FEATURE_MODES, Vocabulary, matrix_blocks
from tweetiment.models.maxent import MaxEntModel, TrainerConfig, maxent_probs
from tweetiment.models.naive_bayes import NaiveBayesModel, nb_scores
from tweetiment.sentiment import Sentiment, argmax_labels

VOCAB_MAGIC = "tweetiment-vocab"
MODEL_MAGIC = "tweetiment-model"
FORMAT_VERSION = "v1"
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
class MetaKey:
    """How one TrainingMetadata field is written as a `meta` line; None writes none."""

    n_fields: int
    write: object  # field value -> its text fields
    read: object  # (text fields, error class for a bad integer) -> field value


META_KEYS = {
    "n_docs": MetaKey(1, lambda n: (str(n),), lambda f, error: _count(f[0], "n_docs", error)),
    "trained_at": MetaKey(1, lambda text: (text,), lambda f, error: f[0]),
    "feature_mode": MetaKey(1, lambda mode: (mode,), lambda f, error: f[0]),
    "trainer": MetaKey(
        3, lambda t: (t.algorithm, str(t.max_iterations), repr(float(t.ll_tolerance))),
        lambda f, error: TrainerConfig(f[0], _count(f[1], "max_iterations", error), float(f[2]))),
    "alpha": MetaKey(1, lambda alpha: (repr(float(alpha)),), lambda f, error: float(f[0])),
}


@dataclass(frozen=True)
class ModelArtifact:
    """A trained model plus everything needed to run it on raw tokens.
    Raises ValueError where deserialize_model would reject what it wrote,
    except for vocabulary terms and budgets the file cannot carry:
    serialize_model refuses those, so that loading a model does not check its terms."""

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
        if self.metadata.feature_mode not in FEATURE_MODES:
            raise ValueError(f"unknown feature mode: {self.metadata.feature_mode!r}")
        alpha = self.metadata.alpha
        if alpha is None and self.kind == "naive_bayes":
            raise ValueError("a naive_bayes artifact needs alpha in its metadata")
        if alpha is not None and not math.isfinite(alpha):
            raise ValueError(f"non-finite alpha: {alpha!r}")
        for field in dataclass_fields(TrainingMetadata):
            value = getattr(self.metadata, field.name)
            if value is None and field.default is MISSING:
                raise ValueError(f"missing {field.name}")
            texts = () if value is None else META_KEYS[field.name].write(value)
            if any(_FIELD_END.search(text) for text in texts):
                raise ValueError(f"{field.name} holds a tab or line break: {value!r}")
            if texts:  # what the reader refuses, such as an integer that is not ASCII digits
                META_KEYS[field.name].read(texts, ValueError)


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
    written, for a term or budget the format cannot carry."""
    _check_vocabulary(vocab)
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


def _count(text: str, what: str, error=ModelFormatError) -> int:
    """A model-file integer field: ASCII digits only."""
    if not (text.isascii() and text.isdigit()):
        raise error(f"bad {what}: {text!r}")
    return int(text)


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
        if key in META_KEYS and key in meta_fields:
            raise ModelFormatError(f"meta {key!r} given twice")
        if key in META_KEYS and len(values) != META_KEYS[key].n_fields:
            raise ModelFormatError(f"meta {key!r} needs {META_KEYS[key].n_fields} field(s)")
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
    model = _model_from_parameters(kind, lines, n_parameters, len(vocabulary))
    if _next_line(lines) != "end":
        raise ModelFormatError("missing end marker")
    if next(lines, None) is not None:
        raise ModelFormatError("a line after the end marker")

    try:
        metadata = TrainingMetadata(**{key: META_KEYS[key].read(meta_fields[key], ModelFormatError)
                                       if key in meta_fields else None for key in META_KEYS})
        return ModelArtifact(kind=kind, vocabulary=vocabulary, model=model, metadata=metadata)
    except ValueError as error:
        raise ModelFormatError(f"bad model metadata: {error}") from None


def _model_from_parameters(kind, lines, n_parameters, vocab_size):
    # line name -> (first slot, width, field count): every (name, class,
    # index) has one slot in a flat array, so one bincount finds repeats and
    # gaps; a line of a block without a feature index has three fields
    spec, layout, n_slots = MODEL_KINDS[kind], {}, 0
    for name, _, indexed in spec.blocks:
        width = vocab_size if indexed else 1
        layout[name] = (n_slots, width, 3 + indexed)
        n_slots += 2 * width
    slots, values = array("q"), array("d")
    for _ in range(n_parameters):
        line = _next_line(lines)
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
        slot = int(np.argmax(counts > 1))  # named by its block, class and index
        name, (start, width, n_fields) = [item for item in layout.items() if item[1][0] <= slot][-1]
        pair = "".join(f"{part}\t" for part in (name, *divmod(slot - start, width))[: n_fields - 1])
        raise ModelFormatError(f"parameter given twice: {pair!r}")
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
