"""Arrays, verifiers and certificates run on int element codes: a GroupElement
is built only in group.py (by GroupSpec, the arithmetic and ElementCodes.decode),
and no function outside group.py takes one as a parameter, so objects cannot
creep back into the hot paths or the constructors unnoticed."""

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


def names_element(annotation: ast.expr) -> bool:
    """Whether an annotation names GroupElement, alone or inside another type,
    as a name, an attribute or in a string."""
    return any((isinstance(n, ast.Name) and n.id == "GroupElement")
               or (isinstance(n, ast.Attribute) and n.attr == "GroupElement")
               or (isinstance(n, ast.Constant) and "GroupElement" in str(n.value))
               for n in ast.walk(annotation))


def element_parameters(path: Path):
    """(function, parameter) for each parameter annotated with GroupElement."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for arg in ast.walk(node.args):
                if isinstance(arg, ast.arg) and arg.annotation and names_element(arg.annotation):
                    yield node.name, arg.arg


def test_only_group_module_constructs_group_elements():
    sources = sorted(SRC.glob("*.py"))
    assert "group.py" in {path.name for path in sources}
    assert list(element_calls(SRC / "group.py"))  # the check sees a call where there is one
    calls = [(path.name, line) for path in sources if path.name != "group.py"
             for line in element_calls(path)]
    assert calls == []


def test_only_group_module_takes_group_elements():
    sources = sorted(SRC.glob("*.py"))
    # the check sees a parameter where there is one
    assert ("sum_elements", "elems") in set(element_parameters(SRC / "group.py"))
    params = [(path.name, *param) for path in sources if path.name != "group.py"
              for param in element_parameters(path)]
    assert params == []
