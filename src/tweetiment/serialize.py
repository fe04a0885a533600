"""Versioned text persistence for vocabularies and trained models.

Both formats are line-oriented UTF-8 with a version-carrying header.
Floats are written with repr(), which round-trips every double exactly,
so a deserialized model reproduces the original's predictions bit for
bit.  The writers write v2; the readers read v1 and v2.

Model file, v2 (the parameters written by column):

    tweetiment-model v2 <kind>
    meta TAB <key> TAB <value...>     (a META_KEYS key at most once, others ignored)
    vocabulary TAB <unigram_budget> TAB <bigram_budget> TAB <n_unigrams> TAB <n_bigrams>
    <term lines>                      (one term a line, its index implicit: the
                                       unigrams, then the bigrams as "word1 word2")
    then for each MODEL_KINDS block, class 0 and then class 1:
    <name> TAB <class> TAB <count>
    <chunk lines>                     (at most 4,096 numbers a line, one space
                                       apart; a sparse kind gives each value line
                                       after the line of its ascending indices)
    end                               (the last line)

Vocabulary file, v2:

    tweetiment-vocab v2 <unigram_budget> <bigram_budget> <n_unigrams> <n_bigrams>
    <term lines as above>
    end

v1 files have the same header and meta lines.  Their vocabulary header
has one <n_terms> field for the two counts, each term line is
<index> TAB <U|B> TAB <term>, and the parameters follow as

    parameters TAB <n_lines>
    <parameter lines: name TAB class [TAB index] TAB value>   (a pair at most once)
    end

A v1 vocabulary file is the line `tweetiment-vocab v1 <unigram_budget>
<bigram_budget>` and v1 term lines, with no count and no end line.
"""

from __future__ import annotations

import math
import operator
import re
import sys
from array import array
from dataclasses import MISSING, dataclass, fields as dataclass_fields
from itertools import chain, count, islice

import numpy as np

from tweetiment.errors import ModelFormatError
from tweetiment.features import FEATURE_MODES, Vocabulary, matrix_blocks
from tweetiment.models.maxent import MaxEntModel, TrainerConfig, maxent_probs
from tweetiment.models.naive_bayes import NaiveBayesModel, nb_scores
from tweetiment.sentiment import Sentiment, argmax_labels

VOCAB_MAGIC = "tweetiment-vocab"
MODEL_MAGIC = "tweetiment-model"
FORMAT_VERSION = "v2"  # what the writers write
_FIELD_END = re.compile("[\t\r\n]")  # ends a term field or its line
_WORD_END = re.compile("[\t\r\n ]")  # a space also ends a bigram's first word
_TERM_END = re.compile("[\t\r]")  # a v2 term line holds neither; the reader never sees a LF
_CHUNK = 4096  # numbers on one v2 chunk line, written and read one line at a time
# The characters of a line of indices or of values.  _chunk checks by their
# count that the numbers are one space apart: a regex with a repeated group
# would hold memory for each number it matched.
_INDEX_LINE = re.compile("[0-9 ]+")
_VALUE_LINE = re.compile("[-+.0-9e ]+")


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
    """ValueError for a budget that is not ASCII digits, and for a term the
    term lines cannot carry: a tab, CR or LF in any term, or a space inside
    either word of a bigram."""
    _count(str(vocab.unigram_budget), "unigram budget", ValueError)
    _count(str(vocab.bigram_budget), "bigram budget", ValueError)
    # one search over all the terms, and one per term only to name the first bad one
    if (_FIELD_END.search("".join(vocab.unigrams))
            or _WORD_END.search("".join(chain.from_iterable(vocab.bigrams)))):
        bad = [term for term in vocab.unigrams if _FIELD_END.search(term)]
        bad += [(a, b) for a, b in vocab.bigrams if _WORD_END.search(a) or _WORD_END.search(b)]
        raise ValueError(f"the {FORMAT_VERSION} format cannot carry the term {bad[0]!r}")


def _write_terms(vocab: Vocabulary, sink):
    for term in vocab.unigrams:
        sink.write(f"{term}\n")
    for first, second in vocab.bigrams:
        sink.write(f"{first} {second}\n")


def _bigram(term: str, words: dict) -> tuple:
    """The two words of a bigram term line, each the one str that `words`
    keeps for it."""
    first, space, second = term.partition(" ")
    if not space or " " in second:
        raise ModelFormatError(f"bigram term is not two words: {term!r}")
    return words.setdefault(first, first), words.setdefault(second, second)


def _read_terms(lines, budgets, counts) -> Vocabulary:
    """Read a v2 term block: the counted unigram lines, then the counted
    bigram lines, each parsed as it is read.  Every distinct word is kept
    as one str, which the unigrams and the bigrams share."""
    n_unigrams, n_bigrams = (_count(text, "term count") for text in counts)
    unigrams = tuple(islice(lines, min(n_unigrams, sys.maxsize)))
    if len(unigrams) < n_unigrams:
        raise ModelFormatError("truncated model file")
    words = dict(zip(unigrams, unigrams))
    bigrams = tuple(_bigram(_next_line(lines), words) for _ in range(n_bigrams))
    bad = next(filter(_TERM_END.search, words), None)
    if bad is not None:
        raise ModelFormatError(f"a term holds a tab or CR: {bad!r}")
    del words  # freed before the vocabulary checks its terms
    return _vocabulary(unigrams, bigrams, budgets)


def _read_term_lines(term_lines, budgets) -> Vocabulary:
    """Read v1 term lines, each as it comes, then put the terms in the order
    of their indices and check the two budget fields.  Every distinct word
    is kept as one str, which the unigrams and the bigrams share."""
    unigram_index: dict = {}
    bigram_index: dict = {}
    words: dict = {}
    n_terms = 0
    for n_terms, line in enumerate(term_lines, 1):
        fields = line.split("\t")
        if len(fields) != 3:
            raise ModelFormatError(f"malformed vocabulary line: {fields!r}")
        index_text, kind, term = fields
        index = _count(index_text, "vocabulary index")
        if kind == "U":
            unigram_index[words.setdefault(term, term)] = index
        elif kind == "B":
            bigram_index[_bigram(term, words)] = index
        else:
            raise ModelFormatError(f"unknown term kind: {kind!r}")
    del words
    if len(unigram_index) + len(bigram_index) != n_terms:
        raise ModelFormatError("a vocabulary term given twice")
    unigrams = sorted(unigram_index, key=unigram_index.__getitem__)
    bigrams = sorted(bigram_index, key=bigram_index.__getitem__)
    indices = chain(map(unigram_index.__getitem__, unigrams), map(bigram_index.__getitem__, bigrams))
    if not all(map(operator.eq, indices, count())):
        raise ModelFormatError("vocabulary indices are not contiguous")
    del unigram_index, bigram_index  # freed before the vocabulary checks its terms
    return _vocabulary(unigrams, bigrams, budgets)


def _vocabulary(unigrams, bigrams, budgets) -> Vocabulary:
    """The vocabulary read from a file of either version, once its two
    budget fields are checked."""
    budgets = [_count(text, f"{kind} budget") for text, kind in zip(budgets, ("unigram", "bigram"))]
    try:
        return Vocabulary(unigrams, bigrams, *budgets)
    except ValueError as error:  # a term given twice
        raise ModelFormatError(str(error)) from None


def write_vocabulary_file(vocab: Vocabulary, sink):
    """Write a standalone vocabulary file; ValueError, before anything is
    written, for a term, index or budget the format cannot carry."""
    _check_vocabulary(vocab)
    sink.write(
        f"{VOCAB_MAGIC} {FORMAT_VERSION} {vocab.unigram_budget} {vocab.bigram_budget}"
        f" {len(vocab.unigrams)} {len(vocab.bigrams)}\n"
    )
    _write_terms(vocab, sink)
    sink.write("end\n")


def read_vocabulary_file(source) -> Vocabulary:
    """Read a standalone vocabulary file of either version."""
    lines = _lines(source)
    header = _next_line(lines).split()
    if len(header) < 2 or header[0] != VOCAB_MAGIC:
        raise ModelFormatError("not a vocabulary file")
    if header[1] not in ("v1", "v2"):
        raise ModelFormatError(f"unsupported vocabulary format version: {header[1]}")
    if len(header) != (4 if header[1] == "v1" else 6):
        raise ModelFormatError("not a vocabulary file")
    if header[1] == "v1":  # no count and no end line: a cut file loads as a smaller one
        return _read_term_lines((line for line in lines if line.strip()), header[2:])
    vocabulary = _read_terms(lines, header[2:4], header[4:])
    _read_end(lines)
    return vocabulary


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


def _read_end(lines):
    """The end marker, as the last line."""
    if _next_line(lines) != "end":
        raise ModelFormatError("missing end marker")
    if next(lines, None) is not None:
        raise ModelFormatError("a line after the end marker")


def _count(text: str, what: str, error=ModelFormatError) -> int:
    """A model-file integer field: ASCII digits only."""
    if not (text.isascii() and text.isdigit()):
        raise error(f"bad {what}: {text!r}")
    return int(text)


def _block_header(line: str, name: str, n_fields: int, block: str) -> list:
    """The fields of a model file's `name` header line, which opens its `block` block."""
    if not line.startswith(name + "\t"):
        raise ModelFormatError(f"expected {block} block, found: {line!r}")
    fields = line.split("\t")
    if len(fields) != n_fields:
        raise ModelFormatError(f"malformed {name} header")
    return fields


def serialize_model(artifact: ModelArtifact, sink):
    """Write a ModelArtifact in format v2; ValueError, before anything is
    written, for a vocabulary it cannot carry."""
    _check_vocabulary(artifact.vocabulary)
    sink.write(f"{MODEL_MAGIC} {FORMAT_VERSION} {artifact.kind}\n")
    for key, spec in META_KEYS.items():
        if (value := getattr(artifact.metadata, key)) is not None:
            sink.write("\t".join(("meta", key, *spec.write(value))) + "\n")

    vocab = artifact.vocabulary
    sink.write(
        f"vocabulary\t{vocab.unigram_budget}\t{vocab.bigram_budget}"
        f"\t{len(vocab.unigrams)}\t{len(vocab.bigrams)}\n"
    )
    _write_terms(vocab, sink)

    # Each chunk line is formatted from at most _CHUNK numbers, so no whole
    # row is held as Python objects; a sparse kind leaves out each 0.
    spec = MODEL_KINDS[artifact.kind]
    for name, attribute, _ in spec.blocks:
        table = np.asarray(getattr(artifact.model, attribute), dtype=float)
        for c, row in enumerate(table.reshape(2, -1)):
            written = np.flatnonzero(row) if spec.sparse else np.arange(row.size)
            sink.write(f"{name}\t{c}\t{written.size}\n")
            for start in range(0, written.size, _CHUNK):
                block = written[start : start + _CHUNK]
                line = " ".join(["%r"] * block.size) + "\n"  # no str per number is kept
                if spec.sparse:
                    sink.write(line % tuple(block.tolist()))
                sink.write(_value_line(row[block], line))
    sink.write("end\n")


def _value_line(values: np.ndarray, line: str) -> str:
    """`line`, a "%r" for each of `values`, filled with their reprs.  When at
    most half of them are distinct, as the few counts of a Naive Bayes row
    give, repr runs once per distinct value.  Values are told apart by their
    bits, because np.unique on floats takes -0.0 for 0.0."""
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    if 2 * bits.size > values.size:
        del bits, inverse  # freed before the line is made
        return line % tuple(values.tolist())
    texts = np.array(list(map(repr, bits.view(float).tolist())), object)
    return " ".join(texts[inverse].tolist()) + "\n"


def deserialize_model(source) -> ModelArtifact:
    """Read a ModelArtifact of either version back; rejects unknown
    versions and kinds."""
    lines = _lines(source)
    header = _next_line(lines).split()
    if not header or header[0] != MODEL_MAGIC:
        raise ModelFormatError("not a model file")
    if len(header) != 3:
        raise ModelFormatError("malformed model header")
    if header[1] not in _BLOCK_READERS:
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

    vocabulary, model = _BLOCK_READERS[header[1]](kind, line, lines)
    _read_end(lines)
    try:
        metadata = TrainingMetadata(**{key: META_KEYS[key].read(meta_fields[key], ModelFormatError)
                                       if key in meta_fields else None for key in META_KEYS})
        return ModelArtifact(kind=kind, vocabulary=vocabulary, model=model, metadata=metadata)
    except ValueError as error:
        raise ModelFormatError(f"bad model metadata: {error}") from None


def _read_v1_blocks(kind, line, lines) -> tuple:
    """The vocabulary and the model of a v1 file, from its vocabulary header line on."""
    vocab_fields = _block_header(line, "vocabulary", 4, "vocabulary")
    n_terms = _count(vocab_fields[3], "vocabulary size")
    vocabulary = _read_term_lines((_next_line(lines) for _ in range(n_terms)), vocab_fields[1:3])
    parameter_fields = _block_header(_next_line(lines), "parameters", 2, "parameter")
    n_parameters = _count(parameter_fields[1], "parameter count")
    # line name -> (width, field count, slots, values); the pair (c, i) is slot c * width + i
    spec, vocab_size = MODEL_KINDS[kind], len(vocabulary)
    blocks = {name: (vocab_size if indexed else 1, 3 + indexed, array("q"), array("d"))
              for name, _, indexed in spec.blocks}
    for _ in range(n_parameters):
        line = _next_line(lines)
        fields = line.split("\t")
        width, n_fields, slots, values = blocks.get(fields[0], (0, 0, None, None))
        if len(fields) != n_fields:  # a name of no block has 0 fields
            raise ModelFormatError(f"bad parameter line: {line!r}")
        # checked inline, not through _count: this loop runs once per feature
        c_text, i_text = fields[1], (fields[2] if len(fields) == 4 else "0")
        if not (c_text.isascii() and c_text.isdigit() and i_text.isascii() and i_text.isdigit()):
            raise ModelFormatError(f"bad parameter line: {line!r}")
        try:
            values.append(float(fields[-1]))
        except ValueError:
            raise ModelFormatError(f"bad parameter line: {line!r}") from None
        c, i = int(c_text), int(i_text)
        if not (c < 2 and i < width):
            raise ModelFormatError(f"parameter out of range: {line!r}")
        slots.append(c * width + i)
    tables = []
    for name, (width, n_fields, slots, values) in blocks.items():
        where, table = np.frombuffer(slots, np.int64), np.zeros((2, width))
        counts = np.bincount(where, minlength=table.size)
        if counts.max(initial=0) > 1:  # named by its block, class and index
            pair = (name, *divmod(int(np.argmax(counts > 1)), width))[: n_fields - 1]
            raise ModelFormatError("parameter given twice: %r" % "".join(f"{part}\t" for part in pair))
        table.flat[where] = np.frombuffer(values)
        tables.append(table)
    if not all(np.isfinite(table).all() for table in tables):
        raise ModelFormatError("non-finite parameter value")
    missing = sum(table.size for table in tables) - n_parameters  # no line shares a slot
    if missing and not spec.sparse:  # Naive Bayes is the one dense kind
        raise ModelFormatError(f"Naive Bayes parameters lack {missing} of their {missing + n_parameters} values")
    return vocabulary, _model(spec, tables, vocab_size)


def _read_v2_blocks(kind, line, lines) -> tuple:
    """The vocabulary and the model of a v2 file, from its vocabulary header
    line on: each block and class is a header line with its count, then
    chunk lines of at most _CHUNK numbers."""
    vocab_fields = _block_header(line, "vocabulary", 5, "vocabulary")
    vocabulary = _read_terms(lines, vocab_fields[1:3], vocab_fields[3:])
    spec, tables = MODEL_KINDS[kind], []
    for name, _, indexed in spec.blocks:
        width = len(vocabulary) if indexed else 1
        table = np.zeros((2, width))
        for c, row in enumerate(table):
            line = _next_line(lines)
            fields = line.split("\t")
            if len(fields) != 3 or fields[:2] != [name, str(c)]:
                raise ModelFormatError(f"expected the parameters {name} {c}, found: {line[:80]!r}")
            n_values = _count(fields[2], "parameter count")
            if n_values > width or (n_values < width and not spec.sparse):
                raise ModelFormatError(f"the parameters {name} {c} hold {n_values} of {width} values")
            last = -1
            for start in range(0, n_values, _CHUNK):
                size = min(_CHUNK, n_values - start)
                if not spec.sparse:
                    row[start : start + size] = _chunk(_next_line(lines), size, False)
                    continue
                where = _chunk(_next_line(lines), size, True)
                if where[0] <= last or where[-1] >= width or (np.diff(where) <= 0).any():
                    raise ModelFormatError(
                        f"parameter indices of {name} {c} not ascending within 0..{width - 1}")
                last = where[-1]
                row[where] = _chunk(_next_line(lines), size, False)
        if not np.isfinite(table).all():
            raise ModelFormatError("non-finite parameter value")
        tables.append(table)
    return vocabulary, _model(spec, tables, len(vocabulary))


def _model(spec: ModelKind, tables: list, vocab_size: int):
    """The model of `spec` from its blocks' (2, width) tables; a block without an index is a column."""
    arrays = {attribute: table if indexed else table[:, 0]
              for (_, attribute, indexed), table in zip(spec.blocks, tables)}
    return spec.model_type(**arrays, vocab_size=vocab_size)


def _chunk(line: str, size: int, indices: bool) -> np.ndarray:
    """The `size` numbers of an index line or a value line, one space apart."""
    if (_INDEX_LINE if indices else _VALUE_LINE).fullmatch(line) and line.count(" ") + 1 == size:
        # fromstring reads an index past int64 as its maximum, out of range;
        # float() reads each value back exactly as repr wrote it
        try:
            numbers = np.fromstring(line, np.int64, sep=" ") if indices else np.array(line.split(" "), float)
        except ValueError:  # a value such as "", "." or "1-2"
            pass
        else:
            if len(numbers) == size:  # fromstring skips a doubled space
                return numbers
    raise ModelFormatError(f"bad parameter line of {size} numbers: {line[:80]!r}")


_BLOCK_READERS = {"v1": _read_v1_blocks, "v2": _read_v2_blocks}


def artifact_predict_many(artifact: ModelArtifact, tweets) -> list:
    """Classify normalized tweets, a TokenBatch or token lists, scoring the
    document matrix one block of rows at a time; exact ties go positive."""
    blocks = matrix_blocks(tweets, artifact.vocabulary, artifact.metadata.feature_mode)
    scorer = MODEL_KINDS[artifact.kind].scorer
    return [label for block in blocks for label in argmax_labels(scorer(artifact.model, block))]


def artifact_predict(artifact: ModelArtifact, tokens) -> Sentiment:
    """Classify one normalized token list: a one-row artifact_predict_many."""
    return artifact_predict_many(artifact, [tokens])[0]
