"""The runtime is stdlib-only: every import in src/relheffter is from the
standard library or from relheffter itself."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "relheffter"


def imported_modules(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:  # level > 0 is relative
            yield node.module


def test_runtime_imports_only_the_standard_library():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    allowed = sys.stdlib_module_names | {"relheffter"}
    outside = [(path.name, module) for path in sources for module in imported_modules(path)
               if module.split(".")[0] not in allowed]
    assert outside == []
