"""Generated inputs through the CLI: each run ends in its documented exit
code, never in a traceback or another code.

- CSV bytes through every command exit 0 or 3.  The bytes mix well-formed
  rows with invalid UTF-8, NUL bytes, stray quotes, a field past
  csv.field_size_limit() and a leading byte-order mark.  predict and eval
  score them with a valid model.
- Config files through every command exit 0, 2 or 3.  They mix valid and
  invalid values of every setting with unknown keys and malformed lines.
- Byte and line mutations of valid NB, GIS and IIS model files, in
  format v1 and v2, run through predict and eval, exit 0 or 4.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import v1_writer
from tweetiment.cli import main
from tweetiment.config import SETTINGS
from tweetiment.serialize import deserialize_model

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
    (path / "unlabeled.csv").write_text("7,good day :)\n8,so bad\n", encoding="utf-8")
    (path / "pos.txt").write_text(":)\n:-)\n", encoding="utf-8")
    (path / "neg.txt").write_text(":(\n", encoding="utf-8")
    train = ["train", str(path / "train.csv")]
    assert main(train + [str(path / "nb.model")]) == 0
    for trainer in ("gis", "iis"):
        model = str(path / f"{trainer}.model")
        assert main(train + [model, "--model", "maxent", "--trainer", trainer]) == 0
    for kind in ("nb", "gis", "iis"):  # the same model in format v1
        with open(path / f"{kind}.model", encoding="utf-8") as source:
            artifact = deserialize_model(source)
        with open(path / f"{kind}-v1.model", "w", encoding="utf-8") as sink:
            v1_writer.serialize_model(artifact, sink)
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


# values each setting may take, valid and not; every setting may also take ANY_VALUE.
# Iteration caps stay small: a valid config must not make a run long.
SETTING_VALUES = {
    "model": ["nb", "maxent", "svm"],
    "features": ["presence", "frequency", "tfidf"],
    "unigrams": ["1", "5", "100000000000000000000"],
    "bigrams": ["0", "5", "100000000000000000000"],
    "trainer": ["gis", "iis", "GIS"],
    "max_iter": ["1", "3"],
    "tol": ["1e-6", "0.5", "1e-300"],
    "alpha": ["1", "0.5", "1e300"],
    "ratio": ["0.5", "0.8", "0.99", "1"],
    "seed": ["7", "-3", "99999999999999999999"],
    # @name stands for the file name.txt in the work directory; missing.txt is absent
    "emoticons_pos": ["@pos", "@neg", "@missing"],
    "emoticons_neg": ["@neg", "@pos", "@missing"],
}
assert SETTING_VALUES.keys() == SETTINGS.keys()
ANY_VALUE = ["abc", "0", "-1", "1.5", "nan", "inf", "-inf", "1e3", "1_0", "é", "a = b"]


def setting_line(key):
    # mostly the setting's own values, so that many files load and the commands run on
    own = st.sampled_from(SETTING_VALUES.get(key, ["1"]))
    values = st.one_of([own] * 4 + [st.sampled_from(ANY_VALUE)])
    return values.map(lambda value: f"{key} = {value}".encode())


setting_lines = st.sampled_from(sorted(SETTING_VALUES) + ["momentum"]).flatmap(setting_line)
config_hazard = st.sampled_from(
    [b"", b"# comment", b"seed", b"seed =", b"= 1", b"alpha = 1\xff", b"\x00", b"seed = 1 # two"]
)
config_bytes = st.builds(
    lambda bom, lines: bom + b"\n".join(lines),
    st.sampled_from([b"", BOM]),
    st.lists(st.one_of([setting_lines] * 6 + [config_hazard]), max_size=5),
)


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(max_examples=60, deadline=None)
@given(data=config_bytes)
def test_generated_config_exits_0_2_or_3(workdir, command, data):
    for name in (b"pos", b"neg", b"missing"):
        data = data.replace(b"@" + name, bytes(workdir / f"{name.decode()}.txt"))
    config = workdir / "settings.conf"
    config.write_bytes(data)
    csv = workdir / ("unlabeled.csv" if command == "predict" else "train.csv")
    argv = [
        arg.format(csv=csv, out=workdir / "out", model=workdir / "nb.model")
        for arg in COMMANDS[command]
    ]
    assert main(argv + ["--config", str(config)]) in (0, 2, 3)


# a field value a mutation may write: numbers the format reads and ones it refuses
model_field = st.sampled_from(
    [b"", b"0", b"1", b"2", b"7", b"-1", b"1.5", b"nan", b"inf", b"-0.0", b"1e308", b"x",
     b"99999999999999999999", b"gis", b"iis", b"presence", b"frequency", b"U", b"B", b"a b",
     b"\xff", b"\xef\xbb\xbf", b"\r", b"\x00", " ٤".encode()]
)


@st.composite
def mutated(draw, blob):
    """`blob` after one to three byte or line edits."""
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(["byte", "cut", "drop", "repeat", "swap", "field", "extra"]))
        if edit == "byte":
            i = draw(st.integers(0, len(blob)))
            blob = blob[:i] + draw(st.binary(min_size=1, max_size=2)) + blob[i + 1 :]
            continue
        if edit == "cut":
            blob = blob[: draw(st.integers(0, len(blob)))]
            continue
        lines = blob.split(b"\n")
        n, m = draw(st.integers(0, len(lines) - 1)), draw(st.integers(0, len(lines) - 1))
        separator = draw(st.sampled_from([b"\t", b" "]))  # a space parts the numbers of a chunk line
        fields = lines[n].split(separator)
        k = draw(st.integers(0, len(fields)))
        if edit == "drop":
            del lines[n]
        elif edit == "repeat":
            lines.insert(m, lines[n])
        elif edit == "swap":
            lines[n], lines[m] = lines[m], lines[n]
        elif edit == "field":
            fields[min(k, len(fields) - 1)] = draw(model_field)
            lines[n] = separator.join(fields)
        else:
            fields.insert(k, draw(model_field))
            lines[n] = separator.join(fields)
        blob = b"\n".join(lines)
    return blob


MODEL_COMMANDS = {
    "predict": ["predict", "{model}", "{unlabeled}", "{out}"],
    "eval": ["eval", "{model}", "{csv}"],
}


@pytest.mark.parametrize("command", sorted(MODEL_COMMANDS))
@pytest.mark.parametrize("kind", ["nb", "gis", "iis"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mutated_model_exits_0_or_4(workdir, command, kind, data):
    model = workdir / "mutated.model"
    version = data.draw(st.sampled_from(["", "-v1"]))
    model.write_bytes(data.draw(mutated((workdir / f"{kind}{version}.model").read_bytes())))
    paths = {"model": model, "unlabeled": workdir / "unlabeled.csv", "csv": workdir / "train.csv"}
    argv = [arg.format(out=workdir / "out", **paths) for arg in MODEL_COMMANDS[command]]
    assert main(argv) in (0, 4)
