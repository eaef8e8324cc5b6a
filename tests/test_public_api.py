"""The package exports exactly what the README's Library section documents,
the README's code runs, and no error type is declared that nothing raises."""
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_readme_python_block_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def _listed_methods(section: str, owner: str) -> list[str]:
    """The backticked names in the parentheses that follow the first
    mention of ``owner``, nested parentheses included."""
    start = section.index("(", section.index(f"`{owner}`"))
    depth = 0
    for end in range(start, len(section)):
        depth += {"(": 1, ")": -1}.get(section[end], 0)
        if not depth:
            break
    return re.findall(r"`(\w+)", section[start:end])


@pytest.mark.parametrize(
    "owner", [camph.CompressedAnnotationMatrix, camph.PersistenceEngine]
)
def test_readme_names_only_methods_that_exist(owner):
    names = _listed_methods(_library_section(), owner.__name__)
    assert len(names) >= 4, names
    for name in names:
        assert callable(getattr(owner, name, None)), f"{owner.__name__}.{name}"


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


def _private_imports(path: Path) -> list[str]:
    """The underscore names that the module at ``path`` imports from a
    camph module."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "camph"
        ):
            names += [f"{node.module}.{alias.name}" for alias in node.names]
    return [name for name in names if name.rsplit(".", 1)[-1].startswith("_")]


def test_no_module_imports_a_private_name():
    # a private helper shared across modules is API in all but name
    found = {
        path.name: names
        for path in (ROOT / "src" / "camph").glob("*.py")
        if (names := _private_imports(path))
    }
    assert not found, found


def _imported_modules(path: Path) -> set[str]:
    """The camph modules that the module at ``path`` imports, by their
    names under the package: ``from .x import y`` gives ``x`` and ``x.y``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names |= {alias.name.removeprefix("camph.") for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "camph"
        ):
            module = (node.module or "").removeprefix("camph").lstrip(".")
            names.add(module)
            names |= {f"{module}.{a.name}".lstrip(".") for a in node.names}
    return names


def test_run_statistics_live_with_the_engine_and_the_formats():
    # the engine samples its own RunStats and io writes them; no stats
    # module stands between
    assert camph.RunStats.__module__ == "camph.engine"
    assert camph.format_stats.__module__ == "camph.io"
    importers = [
        path.name
        for path in (ROOT / "src" / "camph").glob("*.py")
        if "stats" in _imported_modules(path)
    ]
    assert not importers, importers
    assert not (ROOT / "src" / "camph" / "stats.py").exists()
