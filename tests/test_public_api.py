"""The package exports exactly what the README's Library section documents."""
import re
from pathlib import Path

import camph

README = Path(__file__).resolve().parent.parent / "README.md"


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
