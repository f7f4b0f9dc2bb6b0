"""DESIGN.md's module map against the tree, both ways.

Every package and top-level module of ``src/repro`` has an entry in the
map, and every module the map names exists: under ``src/repro`` (an
entry ``name/`` or ``name.py`` at the map's first indent, and a
``file.py`` named on its continuation lines, inside that package), or
under a root the map spells out, such as ``tests/oracles/``.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

_ENTRY = re.compile(r"^  (\w+)(/|\.py)(?=\s|$)")
_ROOT = re.compile(r"^([\w/]+/)(?=\s|$)")
_MODULE = re.compile(r"\b(\w+\.py)\b")


def _module_map() -> tuple[set[str], set[Path]]:
    """(top-level entries under ``src/repro``, every module path named)."""
    text = (ROOT / "DESIGN.md").read_text()
    section = text.split("## System inventory (module map)", 1)[1]
    block = section.split("```", 2)[1]
    top: set[str] = set()
    named: set[Path] = set()
    root = package = None
    for line in block.splitlines():
        head = _ROOT.match(line)
        if head:
            root = package = ROOT / head.group(1)
            line = line[head.end():]
        entry = _ENTRY.match(line)
        if entry:
            assert root == SRC, line
            name, kind = entry.groups()
            top.add(name + kind)
            package = SRC / name if kind == "/" else SRC
            named.add(SRC / (name if kind == "/" else name + ".py"))
            line = line[entry.end():]
        for module in _MODULE.findall(line):
            named.add(package / module)
    return top, named


def test_module_map_lists_every_package_and_top_level_module():
    top, _ = _module_map()
    packages = {
        path.name + "/" for path in SRC.iterdir() if (path / "__init__.py").exists()
    }
    modules = {path.name for path in SRC.glob("*.py") if not path.name.startswith("_")}
    assert top == packages | modules


def test_every_module_the_map_names_exists():
    _, named = _module_map()
    assert named
    assert not sorted(str(path) for path in named if not path.exists())
