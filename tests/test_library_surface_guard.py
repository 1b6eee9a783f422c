"""Every name of the library has a caller in the program. Each function, class
and assignment at the top of a module in src/relheffter is referenced from
another top-level statement of the library, or from scripts/ or relbench/, and
each member of a library class but the dunders (method, property, field) is
read as an attribute in src/, scripts/ or relbench/ outside its own definition.
A field is one of the class body, one named in the field string of a
namedtuple("X", "a b") base, or an attribute that __init__ sets on self.
A name or member that only the tests read belongs in their oracles, not in
src/. Names are matched as the hot-path guard matches them: by identifier.
__init__.py holds the package docstring and imports nothing, so every name has
one import path, its module. No module imports an underscore-prefixed name of
another: what another module needs has a public name. The names that no call
chain from cli.main reaches are exactly those listed as benchmark-only."""

import ast
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "relheffter"
CALLERS = ("scripts", "relbench")


def defined(stmt: ast.stmt) -> list[str]:
    """The names a top-level or class-body statement defines."""
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


def class_members(cls: ast.ClassDef) -> list[tuple[str, ast.AST]]:
    """The names a class defines, each with the node that defines it."""
    found = [(name, stmt) for stmt in cls.body for name in defined(stmt)]
    for base in cls.bases:
        if (isinstance(base, ast.Call) and getattr(base.func, "id", None) == "namedtuple"
                and isinstance(base.args[1], ast.Constant)):
            found += [(name, base) for name in base.args[1].value.split()]
    for stmt in cls.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
            found += [(node.attr, stmt) for node in ast.walk(stmt)
                      if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                      and getattr(node.value, "id", None) == "self"]
    return found


def referenced(node: ast.AST) -> set[str]:
    """The identifiers that a node reads, as a name or an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))
            or isinstance(n, ast.Attribute)}


def attributes_read(node: ast.AST) -> Counter:
    """How often the node reads each attribute name."""
    return Counter(n.attr for n in ast.walk(node)
                   if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), str(path))


def modules() -> list[tuple[str, ast.Module]]:
    return [(path.stem, parse(path)) for path in sorted(SRC.glob("*.py"))]


def callers() -> list[ast.Module]:
    return [parse(path) for folder in CALLERS for path in sorted((ROOT / folder).rglob("*.py"))]


def test_every_library_name_has_a_caller_outside_the_tests():
    statements = [(module, stmt, referenced(stmt))
                  for module, tree in modules() for stmt in tree.body]
    outside: set[str] = set()
    for tree in callers():
        outside |= referenced(tree)
    defs = [(module, name, stmt) for module, stmt, _ in statements for name in defined(stmt)]
    # the check sees the definitions where there are some
    assert {"knight_search", "certify_biembedding", "EXIT_USAGE"} <= {name for _, name, _ in defs}
    offenders = [
        f"{module}.{name}" for module, name, stmt in defs
        if name not in outside
        and not any(name in refs for _, other, refs in statements if other is not stmt)
    ]
    assert not offenders, "no caller outside the tests: " + ", ".join(offenders)


def test_every_class_member_is_read_outside_the_tests():
    trees = modules()
    reads = Counter()
    for tree in [tree for _, tree in trees] + callers():
        reads += attributes_read(tree)
    members = [(f"{module}.{cls.name}", name, stmt)
               for module, tree in trees for cls in tree.body if isinstance(cls, ast.ClassDef)
               for name, stmt in class_members(cls)
               if not (name.startswith("__") and name.endswith("__"))]
    # the check sees the members where there are some
    assert {("group.GroupSpec", "codes"), ("topology.EmbeddingReport", "faces"),
            ("orderings.LiftSpec", "diagonal_indices")} <= {m[:2] for m in members}
    offenders = [f"{owner}.{name}" for owner, name, stmt in members
                 if reads[name] <= attributes_read(stmt)[name]]
    assert not offenders, "read only by the tests: " + ", ".join(offenders)


# The library names that no call chain from cli.main reaches: relbench's traced
# replay times the stages of the commands one call at a time through them, and
# relbench and the tests are their only callers (no script reads one).
# Ordering's fields go with it, and formula_genus is the report attribute that
# the replay sets and reads. PFArray.row and PFArray.col are not listed: they
# match local names of the library, which matching by identifier cannot tell
# from the members. The list shrinks as the replay moves onto the commands'
# own calls; a name that joins it has no caller in the program.
BENCHMARK_ONLY = {
    "Ordering", "row_orders", "col_orders", "successors", "orientation_to_orderings",
    "knight_tour", "lift_solution", "search_lift_shape",
    "_code_lines", "base_cycles", "build_rho0", "trace_faces", "two_color_check",
    "develop_and_verify", "from_entries", "formula_genus",
    "entries", "sum_elements",
}


def reads_of_names() -> dict[str, set[str]]:
    """The identifiers that each library name's definitions read, top-level
    names and class members alike. A class reads its bases, its decorators and
    its dunder members, which run wherever it is used; its other members are
    names of their own."""
    reads: dict[str, set[str]] = defaultdict(set)
    for _, tree in modules():
        for stmt in tree.body:
            for name in defined(stmt):
                if not isinstance(stmt, ast.ClassDef):
                    reads[name] |= referenced(stmt)
                    continue
                for node in (*stmt.bases, *stmt.keywords, *stmt.decorator_list):
                    reads[name] |= referenced(node)
                for member, node in class_members(stmt):
                    dunder = member.startswith("__") and member.endswith("__")
                    reads[name if dunder else member] |= referenced(node)
    return reads


def test_only_the_benchmark_only_names_are_unreached_from_main():
    reads = reads_of_names()
    reached, todo = set(), ["main"]
    while todo:
        name = todo.pop()
        if name in reads and name not in reached:
            reached.add(name)
            todo += reads[name]
    # the walk follows the commands into the library
    assert {"cmd_embed", "certify_biembedding", "knight_search", "orbit"} <= reached
    assert set(reads) - reached == BENCHMARK_ONLY


def test_scripts_call_no_benchmark_only_name():
    read = set()
    for path in sorted((ROOT / "scripts").rglob("*.py")):
        read |= referenced(parse(path))
    # the check sees the scripts' library calls where there are some
    assert {"LiftSpec", "reference_work"} <= read
    assert not read & BENCHMARK_ONLY, "benchmark-only names in scripts/: " + ", ".join(
        sorted(read & BENCHMARK_ONLY))


def test_the_package_imports_nothing():
    tree = parse(SRC / "__init__.py")
    assert not [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]


def test_no_module_imports_a_private_name_of_another():
    imports = [(module, node.module, alias.name)
               for module, tree in modules() for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level or (node.module or "").split(".")[0] == "relheffter")
               for alias in node.names]
    # the check sees the package's own imports where there are some
    assert ("cli", "orderings", "knight_search") in imports
    offenders = [f"{module} imports {source}.{name}"
                 for module, source, name in imports if name.startswith("_")]
    assert not offenders, "private names imported across modules: " + ", ".join(offenders)
