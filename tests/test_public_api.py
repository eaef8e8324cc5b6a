"""The package exports exactly what the README's Library section documents,
and declares no error type that it never raises."""
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import camph
from camph import errors

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def _library_section() -> str:
    text = README.read_text(encoding="utf-8")
    return text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def test_every_exported_name_imports_and_is_documented():
    documented = set(re.findall(r"`([A-Za-z_]+)", _library_section()))
    namespace: dict = {}
    exec("from camph import *", namespace)
    for name in camph.__all__:
        assert name in namespace, name
        assert name in documented, f"{name} is exported but not in README"
    assert len(set(camph.__all__)) == len(camph.__all__)


def test_import_loads_no_numpy():
    # the package is pure standard library; numpy is only accepted as input
    code = "import camph, sys; print(any(m.split('.')[0] == 'numpy' for m in sys.modules))"
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout == "False\n"


def _raised_names(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


def test_every_error_is_raised_somewhere():
    # an error type that nothing raises is dead API
    declared = {
        name
        for name, obj in vars(errors).items()
        if isinstance(obj, type) and obj.__module__ == errors.__name__
    }
    raised = set()
    for path in (ROOT / "src" / "camph").glob("*.py"):
        if path.name != "errors.py":
            raised |= _raised_names(path)
    unraised = declared - raised - {"CamphError"}
    assert not unraised, unraised
