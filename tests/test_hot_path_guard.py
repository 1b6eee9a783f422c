"""The certificate, the knight command and the lift run on int indices: the
cell-level orderings (orientation_to_orderings, Ordering.successors) and the
cell walk knight_tour stay the slow references that tests compare with (with
knight_step, which tests/knight_oracle.py holds), and no call from those three
paths reaches them. The certificate derives each fact once: it reaches none of
the public stages that re-check what rho0 proved or what its lines give (the
graph from the entries, the faces from a rotation, the colouring by rotation
keys, a development from bare cycles), and those stages share the kernels that
it calls. One walk, orderings.orbit, decides whether a permutation is a single
cycle, for rho0 and for the cell walk knight_tour."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "relheffter"
HOT = ("certify_biembedding", "cmd_knight", "lift_solution")
SLOW = {"orientation_to_orderings", "knight_tour", "knight_step", "successors"}
STAGES = {"from_entries", "trace_faces", "two_color_check", "develop_and_verify"}


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


def test_certificate_never_reaches_the_checking_stages():
    defs = definitions()
    # the check sees a stage where one is called, by name or as an attribute
    wired = ast.parse("def wired(a, b):\n"
                      "    trace_faces(CayleyGraph.from_entries(a), develop_and_verify(b, a))\n"
                      "    two_color_check(a, b, a)")
    assert reachable("wired", {**defs, "wired": wired.body}) >= STAGES
    assert STAGES <= defs.keys()
    assert reachable("certify_biembedding", defs) & STAGES == set()
    assert reachable("certify_biembedding", defs) >= {"_rho0", "_count_faces", "_develop"}
    assert "_count_faces" in reachable("trace_faces", defs)
    assert "_develop" in reachable("develop_and_verify", defs)


def test_one_walk_decides_whether_a_permutation_is_one_cycle():
    defs = definitions()
    assert "orbit" in reachable("_rho0", defs) and "orbit" in reachable("knight_tour", defs)
    texts = [path.read_text() for path in sorted(SRC.glob("*.py"))]
    assert sum(text.count("lies on no cycle") for text in texts) == 1
