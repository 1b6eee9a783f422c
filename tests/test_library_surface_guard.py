"""Every module-level name of the library has a caller in the program: each
function, class and assignment at the top of a module in src/relheffter (but
__init__.py, which only re-exports) is referenced from another top-level
statement of the library, or from scripts/ or relbench/. A name that only the
tests call belongs in their oracles, not in src/. Names are matched as the
hot-path guard matches them: by identifier, as a name or an attribute."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "relheffter"
CALLERS = ("scripts", "relbench")


def defined(stmt: ast.stmt) -> list[str]:
    """The names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name)]


def referenced(node: ast.AST) -> set[str]:
    """The identifiers that a node reads, as a name or an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))
            or isinstance(n, ast.Attribute)}


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), str(path))


def test_every_library_name_has_a_caller_outside_the_tests():
    sources = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    statements = [(path.stem, stmt, referenced(stmt))
                  for path in sources for stmt in parse(path).body]
    outside: set[str] = set()
    for folder in CALLERS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            outside |= referenced(parse(path))
    defs = [(module, name, stmt) for module, stmt, _ in statements for name in defined(stmt)]
    # the check sees the definitions where there are some
    assert {"knight_search", "certify_biembedding", "EXIT_USAGE"} <= {name for _, name, _ in defs}
    offenders = [
        f"{module}.{name}" for module, name, stmt in defs
        if name not in outside
        and not any(name in refs for _, other, refs in statements if other is not stmt)
    ]
    assert not offenders, "no caller outside the tests: " + ", ".join(offenders)
