"""The public surface: the package's __all__ and README's example.

A name deleted from a module must leave __all__ with it, and README's
"typical session" must keep running and printing what it says. Every
qcore name the package exports must have a caller in the package, so
the state layer holds only what the numeric route uses.
"""

import ast
import contextlib
import io
import pathlib
import re

import ussd_lab

README = pathlib.Path(__file__).parents[1] / "README.md"
SRC = pathlib.Path(__file__).parents[1] / "src" / "ussd_lab"


def qcore_imports(path) -> set:
    """Names that path imports with `from .qcore import ...`."""
    return {alias.name for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "qcore"
            for alias in node.names}


def test_every_export_resolves_once():
    names = ussd_lab.__all__
    assert len(names) == len(set(names)), [n for n in names if names.count(n) > 1]
    assert [n for n in names if not hasattr(ussd_lab, n)] == []


def test_every_qcore_export_has_a_caller():
    exported = qcore_imports(SRC / "__init__.py") & set(ussd_lab.__all__)
    used = set().union(*(qcore_imports(f) for f in SRC.glob("*.py") if f.name != "__init__.py"))
    assert "PureState" in exported
    assert sorted(exported - used) == []


def test_readme_typical_session_runs():
    block = re.search(r"A typical session:\n\n```python\n(.*?)```", README.read_text(), re.S)
    assert block is not None
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block.group(1), str(README), "exec"), {})
    first, second = out.getvalue().splitlines()
    assert first == "0.68"
    total, closed = map(float, second.split())
    assert abs(total - closed) < 1e-12
