"""The format v1 parameter reader of commit ee21b29, kept for tests only as
an oracle: every (name, class, index) pair of every block has one slot in
a flat array, so one bincount finds repeats and gaps.  The function below
is `_model_from_parameters` of tweetiment.serialize at that commit,
unchanged; `tests/test_serialize.py` checks the current reader against it."""

from array import array

import numpy as np

from tweetiment.errors import ModelFormatError
from tweetiment.serialize import MODEL_KINDS, _next_line


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
