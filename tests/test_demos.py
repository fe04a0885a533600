"""Every demo script runs to completion against the package's public API,
and the callers the suite never runs (the README quickstart and the
benchmark) still find every name they import."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def _run_python(args, cwd):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), path])))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    result = _run_python([str(demo)], tmp_path)
    assert result.returncode == 0, result.stderr


def test_readme_quickstart_and_bench_imports_resolve(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    quickstart = re.search(r"## Library quickstart\n+```python\n(.*?)```", readme, re.S).group(1)
    result = _run_python(["-c", quickstart], tmp_path)
    assert result.returncode == 0, result.stderr

    missing = []
    for path in sorted((ROOT / "bench").glob("*.py")) + DEMOS:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {}  # local name -> imported tweetiment submodule
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("tweetiment"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    if not hasattr(module, alias.name):
                        missing.append(f"{path.name}: {node.module}.{alias.name}")
                    elif isinstance(getattr(module, alias.name), ModuleType):
                        modules[alias.asname or alias.name] = getattr(module, alias.name)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
                and not hasattr(modules[node.value.id], node.attr)
            ):
                missing.append(f"{path.name}: {node.value.id}.{node.attr}")
    assert missing == []
