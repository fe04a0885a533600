"""`cli.main` is the only code under src/ that opens a file for writing or
prints.

Each command returns its output files and its stdout text, and `main`
writes the files in order and only then prints.  So a command that fails
prints nothing, and making the writes atomic is a change to one function.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _writes(call: ast.Call) -> bool:
    """Whether an open() call's mode may write; a mode that is not a
    literal counts as writing."""
    modes = [keyword.value for keyword in call.keywords if keyword.arg == "mode"] + call.args[1:2]
    if not modes:
        return False
    mode = modes[0]
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)) or any(
        flag in mode.value for flag in "wax+"
    )


def output_calls(tree: ast.Module) -> list:
    """Each print() call and each open() call that writes, named by the
    function it is in (`<module>` outside any)."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Name):
                name = child.func.id
                if name == "print" or name == "open" and _writes(child):
                    found.append(f"{name} in {where} (line {child.lineno})")
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else where)

    visit(tree, "<module>")
    return found


def test_the_check_finds_writes_and_prints():
    tree = ast.parse(
        "def f(path, mode):\n"
        "    open(path)\n"
        "    open(path, encoding='utf-8')\n"
        "    open(path, 'rb')\n"
        "    open(path, 'w')\n"
        "    def g():\n"
        "        open(path, mode=mode)\n"
        "        print(path)\n"
        "    return open(path, 'r+')\n"
        "print(open('x', 'a'), open('y', 'xb'))\n"
    )
    assert output_calls(tree) == [
        "open in f (line 5)",
        "open in g (line 7)",
        "print in g (line 8)",
        "open in f (line 9)",
        "print in <module> (line 10)",
        "open in <module> (line 10)",
        "open in <module> (line 10)",
    ]


def test_only_cli_main_writes_files_and_prints():
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        for call in output_calls(ast.parse(path.read_text(encoding="utf-8"))):
            found.setdefault(path.relative_to(SRC).as_posix(), []).append(call.partition(" (")[0])
    assert list(found) == ["tweetiment/cli.py"]
    assert set(found["tweetiment/cli.py"]) == {"open in main", "print in main"}
