"""Source hygiene, checked with the standard library's ``ast`` only: no module
under ``src/`` or ``tests/`` imports a name it never uses, and every package
``__init__`` lists each name it imports in ``__all__``. Also: importing the
package loads no process-pool machinery, and README.md and the CLI parser
name the same flags."""
import argparse
import ast
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from boxsuite.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))
PACKAGES = [p for p in MODULES if p.name == "__init__.py" and "src" in p.parts]


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _imports(tree: ast.Module):
    """(bound name, line) of every import but ``from __future__`` ones."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _dunder_all(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return {elt.value for elt in node.value.elts}
    return set()


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere, names inside string annotations, and ``__all__``."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= {n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                         if isinstance(n, ast.Name)}
    return used | _dunder_all(tree)


def _rel(path: Path) -> str:
    return str(path.relative_to(ROOT))


@pytest.mark.parametrize("path", MODULES, ids=_rel)
def test_every_import_is_used(path):
    tree = _tree(path)
    used = _used_names(tree)
    unused = [f"{name} (line {line})" for name, line in _imports(tree) if name not in used]
    assert not unused, f"{_rel(path)} imports names it never uses: {unused}"


@pytest.mark.parametrize("path", PACKAGES, ids=_rel)
def test_package_exports_are_listed(path):
    tree = _tree(path)
    missing = sorted({name for name, _ in _imports(tree)} - _dunder_all(tree))
    assert not missing, f"{_rel(path)} re-exports names missing from __all__: {missing}"


def test_the_checks_see_what_they_check():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\nimport json as j\nfrom typing import Optional, Any\n"
                     "def f(x: 'Optional[int]') -> None:\n    return os.path.sep\n"
                     "__all__ = ['Any']\n")
    assert {n for n, _ in _imports(tree)} == {"os", "j", "Optional", "Any"}
    assert {n for n, _ in _imports(tree)} - _used_names(tree) == {"j"}
    assert _dunder_all(tree) == {"Any"}


def test_importing_the_package_loads_no_process_pool():
    # Only a fit scan with threads > 1 needs multiprocessing; a single-process
    # run should not pay for importing it.
    code = ("import sys, boxsuite.cli, boxsuite.pipeline; "
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process') "
            "if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"


def _parser_options() -> dict[str, set[str]]:
    """Option strings of the top-level parser (key "") and of each
    subcommand, help options aside."""
    def options(parser: argparse.ArgumentParser) -> set[str]:
        return {opt for action in parser._actions
                if not isinstance(action, argparse._HelpAction)
                for opt in action.option_strings}

    parser = build_parser()
    found = {"": options(parser)}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            found.update((name, options(sub)) for name, sub in action.choices.items())
    return found


def _readme_command_lines(text: str) -> list[str]:
    """Every ``boxsuite ...`` command line in README.md: those in code blocks
    (joined across trailing backslashes) and those in inline code spans."""
    lines, in_block, pending = [], False, ""
    for line in text.splitlines():
        if line.startswith("```"):
            in_block = not in_block
        elif in_block and (pending or line.startswith("boxsuite ")):
            pending += line.strip()
            if pending.endswith("\\"):
                pending = pending[:-1]
            else:
                lines.append(pending)
                pending = ""
    return lines + re.findall(r"`(boxsuite [^`]*)`", text)


def test_readme_documents_every_cli_flag():
    readme = (ROOT / "README.md").read_text()
    missing = sorted(f"{command or 'boxsuite'} {opt}"
                     for command, opts in _parser_options().items() for opt in opts
                     if not re.search(rf"(?<![\w-]){re.escape(opt)}(?![\w-])", readme))
    assert not missing, f"README.md does not mention these CLI flags: {missing}"


def test_readme_command_lines_use_only_real_flags():
    options = _parser_options()
    every = set().union(*options.values())
    command_lines = _readme_command_lines((ROOT / "README.md").read_text())
    assert len(command_lines) >= 6  # the walkthrough's six commands at least
    unknown = []
    for line in command_lines:
        command = None
        for token in shlex.split(line)[1:]:
            if not token.startswith("-"):
                command = command or token
                continue
            flag = token.partition("=")[0]
            allowed = options[""] if command is None else options.get(command, every)
            if flag not in allowed:
                unknown.append(f"{flag} in {line!r}")
    assert not unknown, f"README.md uses flags the CLI does not accept: {unknown}"
