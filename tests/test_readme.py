"""The README's library example imports only names the package exports."""

import re
from pathlib import Path

import l2srl

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_imports_are_exported():
    blocks = re.findall(r"from l2srl import \(([^)]*)\)", README.read_text(encoding="utf-8"))
    names = [name.strip() for block in blocks for name in block.split(",")]
    assert blocks and all(names)
    assert [name for name in names if not hasattr(l2srl, name)] == []
