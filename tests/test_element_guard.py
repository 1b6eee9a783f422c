"""Arrays, verifiers and certificates run on int element codes: a GroupElement
is built only in group.py (by GroupSpec, the arithmetic and ElementCodes.decode),
so objects cannot creep back into the hot paths unnoticed."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "relheffter"


def element_calls(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "GroupElement":
                yield node.lineno


def test_only_group_module_constructs_group_elements():
    sources = sorted(SRC.glob("*.py"))
    assert "group.py" in {path.name for path in sources}
    assert list(element_calls(SRC / "group.py"))  # the check sees a call where there is one
    calls = [(path.name, line) for path in sources if path.name != "group.py"
             for line in element_calls(path)]
    assert calls == []
