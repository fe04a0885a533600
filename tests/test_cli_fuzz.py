"""Generated CSV bytes through every CLI command: exit 0 or 3, never a
traceback or another code.

The bytes mix well-formed rows with invalid UTF-8, NUL bytes, stray
quotes, a field past csv.field_size_limit() and a leading byte-order
mark.  predict and eval score them with a valid model.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tweetiment.cli import main

TRAIN_CSV = (
    "1,1,love this :)\n2,1,great day @fan\n3,0,hate this :(\n"
    "4,0,awful day http://a.io\n5,1,good vibes #win\n6,0,so bad\n"
)

BOM = b"\xef\xbb\xbf"
word = st.sampled_from(
    [b"good", b"bad", b"love", b"hate", b"day", b":)", b":(", b"@fan", b"http://a.io",
     b"#win", b"sooooo", b"don't", "café".encode()]
)
hazard = st.sampled_from(
    [b"", b",", b'"', b'""', b"\n", b"\r\n", b"\r", b"\x00", b"\xff", b"\xc3",
     b"\xed\xa0\x80", BOM, b"x", b"-1", b"x" * 131_073]
)
# mostly words, so that some files parse and the commands run to the end
field = st.lists(st.one_of([word] * 7 + [hazard]), max_size=5).map(b" ".join)
# a row that ignores the file's shape: any fields, any id
stray_row = st.lists(st.one_of(field, hazard), min_size=1, max_size=4).map(b",".join)


def csv_file(bom, n_columns, rows):
    """Rows numbered from 1 in the file's shape, unless a stray row replaces one."""
    lines = []
    for n, (label, text, stray) in enumerate(rows, start=1):
        if stray is not None:
            lines.append(stray)
        elif n_columns == 3:
            lines.append(b"%d,%s,%s" % (n, label, text))
        else:
            lines.append(b"%d,%s" % (n, text))
    return bom + b"\n".join(lines)


csv_bytes = st.builds(
    csv_file,
    st.sampled_from([b"", BOM]),
    st.sampled_from([2, 3]),
    st.lists(
        st.tuples(
            st.sampled_from([b"0", b"1"]),
            field,
            st.one_of([st.none()] * 5 + [stray_row]),
        ),
        max_size=8,
    ),
)

COMMANDS = {
    "preprocess": ["preprocess", "{csv}", "{out}"],
    "stats": ["stats", "{csv}", "--rank-unigrams", "{out}"],
    "train": ["train", "{csv}", "{out}"],
    "predict": ["predict", "{model}", "{csv}", "{out}"],
    "eval": ["eval", "{model}", "{csv}"],
    "split": ["split", "{csv}", "{out}", "{out}2"],
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "train.csv").write_text(TRAIN_CSV, encoding="utf-8")
    assert main(["train", str(path / "train.csv"), str(path / "nb.model")]) == 0
    return path


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(max_examples=60, deadline=None)
@given(data=csv_bytes, lenient=st.booleans())
def test_generated_csv_exits_0_or_3(workdir, command, data, lenient):
    path = workdir / "input.csv"
    path.write_bytes(data)
    argv = [
        arg.format(csv=path, out=workdir / "out", model=workdir / "nb.model")
        for arg in COMMANDS[command]
    ]
    assert main(argv + ["--lenient"] * lenient) in (0, 3)
