"""One command contract in the CLI: _finish is the only code that writes a
command's payload and maps its verdict to exit 0 or 1. The sweep ledger has
its own writer; every other function of cli.py neither reads EXIT_OK or
EXIT_VIOLATION nor calls sys.stdout.write."""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parent.parent / "src" / "relheffter" / "cli.py"
WRITERS = {"_finish", "cmd_sweep"}


def contract_uses() -> dict[str | None, list[str]]:
    """For each top-level function of cli.py (None for module-level code), the
    reads of EXIT_OK and EXIT_VIOLATION and the calls of sys.stdout.write in
    it, nested functions and lambdas included."""
    uses: dict[str | None, list[str]] = {}
    for top in ast.parse(CLI.read_text(), str(CLI)).body:
        name = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        for node in ast.walk(top):
            if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                    and node.id in ("EXIT_OK", "EXIT_VIOLATION")):
                uses.setdefault(name, []).append(node.id)
            elif isinstance(node, ast.Call) and ast.unparse(node.func) == "sys.stdout.write":
                uses.setdefault(name, []).append("sys.stdout.write")
    return uses


def test_only_finish_and_sweep_write_a_verdict():
    uses = contract_uses()
    # the check sees the uses where there are some
    assert set(uses.get("_finish", ())) == {"EXIT_OK", "EXIT_VIOLATION", "sys.stdout.write"}
    assert set(uses["cmd_sweep"]) == {"EXIT_OK", "EXIT_VIOLATION", "sys.stdout.write"}
    assert set(uses) <= WRITERS, {k: v for k, v in uses.items() if k not in WRITERS}
