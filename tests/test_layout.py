"""src/totprog holds what a command reads: every public name is used there,
and a command imports no module it does not need.

Each module's __all__ names its public API.  This parses every module of
src/totprog with ast and checks that each name in an __all__ is read
somewhere in the package: as a name (a call, an annotation, a base class) or
as an attribute (module.name, obj.name).  The def or class statement that
defines a name and the string in __all__ are not reads.  A name that no
module reads belongs with the tests that check it (tests/lemmas.py,
tests/oracles.py), not in src/.

The check goes by name alone, so a public name slips past it when some
other binding of the same name is read: a function g beside a local
variable g, or a module function primorials beside a method
ProgressionStats.primorials that is called.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "totprog"
MODULES = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _public(tree) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


def _reads(tree) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


READ = set().union(*map(_reads, MODULES.values()))


@pytest.mark.parametrize("module", [m for m in MODULES if _public(MODULES[m])])
def test_every_public_name_is_read_in_src(module):
    assert [name for name in _public(MODULES[module]) if name not in READ] == []


def test_only_the_character_sum_seam_reads_the_log_table_and_roots():
    """characters._log_table and lvalues._roots are read, or imported, only
    in characters and lvalues, so that every character sum goes through
    lvalues._char_sums."""
    readers = []
    for module, tree in MODULES.items():
        imported = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for a in node.names}
        if {"_log_table", "_roots"} & (_reads(tree) | imported):
            readers.append(module)
    assert sorted(readers) == ["characters", "lvalues"]


def test_no_module_reads_the_unfilled_running_sums():
    """ProgressionStats.theta_cum and log1m_cum are kept empty, for the
    benchmark's tracer alone: every walker of the step points reads
    ProgressionStats.sums, so there is one route to the sums."""
    assert [m for m, tree in MODULES.items() if {"theta_cum", "log1m_cum"} & _reads(tree)] == []


def test_the_cli_imports_neither_dataclasses_nor_inspect():
    """dataclasses pulls in inspect, ast, dis and tokenize, which every cold
    command would pay for; the records are NamedTuples instead."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC.parent)
    code = "import sys, totprog.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr
