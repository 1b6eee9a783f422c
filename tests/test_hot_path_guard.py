"""The certificate, the knight command and the lift run on int indices: the
cell-level orderings (orientation_to_orderings, Ordering.successors) and the
cell walk knight_tour stay the slow references that tests compare with (with
knight_step, which tests/knight_oracle.py holds), and no call from those three
paths reaches them."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "relheffter"
HOT = ("certify_biembedding", "cmd_knight", "lift_solution")
SLOW = {"orientation_to_orderings", "knight_tour", "knight_step", "successors"}


def definitions() -> dict[str, list[ast.FunctionDef]]:
    """Every function and method of the library, by name."""
    defs: dict[str, list[ast.FunctionDef]] = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.FunctionDef):
                defs.setdefault(node.name, []).append(node)
    return defs


def reachable(name: str, defs: dict[str, list[ast.FunctionDef]]) -> set[str]:
    """The names of the calls in the function, and in every library function
    or method of a called name, transitively."""
    seen: set[str] = set()
    todo = [name]
    while todo:
        for node in defs.get(todo.pop(), ()):
            for call in ast.walk(node):
                if isinstance(call, ast.Call):
                    func = call.func
                    callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if callee and callee not in seen:
                        seen.add(callee)
                        todo.append(callee)
    return seen


def test_hot_paths_never_reach_the_cell_level_references():
    defs = definitions()
    # the check sees the slow calls where there are some
    assert reachable("knight_tour", defs) & SLOW == {"orientation_to_orderings", "successors"}
    for name in HOT:
        assert name in defs
        assert reachable(name, defs) & SLOW == set(), name
