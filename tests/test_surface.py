"""The public surface: the package's __all__ and README's example.

A name deleted from a module must leave __all__ with it, and README's
"typical session" must keep running and printing what it says. Every
qcore name the package exports must have a caller in the package, so
the state layer holds only what the numeric route uses; likewise every
exported error class must be raised. The package exports no tolerance
record: each guard's bound is written at its check.
"""

import ast
import contextlib
import io
import pathlib
import re

import ussd_lab
from ussd_lab.errors import UssdLabError

README = pathlib.Path(__file__).parents[1] / "README.md"
SRC = pathlib.Path(__file__).parents[1] / "src" / "ussd_lab"


def qcore_imports(path) -> set:
    """Names that path imports with `from .qcore import ...`."""
    return {alias.name for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "qcore"
            for alias in node.names}


def src_trees() -> list:
    return [ast.parse(f.read_text()) for f in SRC.glob("*.py")]


def test_every_export_resolves_once():
    names = ussd_lab.__all__
    assert len(names) == len(set(names)), [n for n in names if names.count(n) > 1]
    assert [n for n in names if not hasattr(ussd_lab, n)] == []


def test_every_qcore_export_has_a_caller():
    exported = qcore_imports(SRC / "__init__.py") & set(ussd_lab.__all__)
    used = set().union(*(qcore_imports(f) for f in SRC.glob("*.py") if f.name != "__init__.py"))
    assert "PureState" in exported
    assert sorted(exported - used) == []


def test_every_qcore_function_has_a_caller():
    """Each public function qcore defines is imported by another module
    of the package: the one-state tensor, reorder, apply and
    projective_measure went when their last caller did."""
    defined = {node.name for node in ast.parse((SRC / "qcore.py").read_text()).body
               if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    used = set().union(*(qcore_imports(f) for f in SRC.glob("*.py") if f.name != "qcore.py"))
    assert {"apply_rows", "measure_rows"} <= defined
    assert sorted(defined - used) == []


def test_every_error_class_is_raised():
    """Each exported error class is raised in the package, by `raise X`,
    `raise X(...)` or `_check(..., X, ...)`; the base class is only
    caught."""
    exported = {n for n in ussd_lab.__all__ if isinstance(getattr(ussd_lab, n), type)
                and issubclass(getattr(ussd_lab, n), UssdLabError)}
    raised = set()
    for node in (n for tree in src_trees() for n in ast.walk(tree)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            raised |= {exc.id} if isinstance(exc, ast.Name) else set()
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "_check" and len(node.args) > 1
              and isinstance(node.args[1], ast.Name)):
            raised.add(node.args[1].id)
    assert "RangeError" in raised and "NumericalError" in raised
    assert sorted(exported - raised) == ["UssdLabError"]


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


def reachable(entries) -> set:
    """Names of the qcore, ussd and teleport top-level functions and
    classes that the entries reach by name, the entries included."""
    defs = {node.name: node for f in ("qcore.py", "ussd.py", "teleport.py")
            for node in ast.parse((SRC / f).read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    seen, todo = set(), list(entries)
    while todo:
        name = todo.pop()
        if name in seen or name not in defs:
            continue
        seen.add(name)
        todo += [n.id for n in ast.walk(defs[name]) if isinstance(n, ast.Name)]
    return seen


def test_born_route_never_reads_the_coupled_amplitudes():
    """The Born statistics are an independent route: the simulated
    protocol and teleport circuit reach the coupling kernel and the
    measurement kernel, never the closed-form coupled state."""
    route = reachable(["run_protocol", "coupling_unitary", "enumerate_runs", "run_teleport"])
    assert {"_coupling", "_chi_rows", "_live_runs", "_alice", "measure_rows",
            "factor_rows"} <= route
    assert "coupled_amplitudes" not in route
    # the walk does find it where it is named
    assert "coupled_amplitudes" in reachable(["coupled_state"])


def test_one_stack_contract():
    """The one-or-many rule and the name of a sequence's entry are written
    once, in errors._entries: no other module tests isinstance against
    Sequence or an instance class, or writes a " (inst[" literal. The row
    checks unit_rows and unitary_rows take no mask: every row is checked."""
    one = {"Sequence", "UssdInstance", "TeleportInstance"}
    for f in SRC.glob("*.py"):
        if f.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(f.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2):
                named = {n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)}
                assert not named & one, (f.name, node.lineno)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                assert " (inst[" not in node.value, (f.name, node.lineno)
    defs = {node.name: node for node in ast.parse((SRC / "qcore.py").read_text()).body
            if isinstance(node, ast.FunctionDef)}
    for name in ("unit_rows", "unitary_rows"):
        params = defs[name].args
        assert [a.arg for a in params.posonlyargs + params.args + params.kwonlyargs] \
            == ["stack", "where"], name


def callers(tree, callee) -> set:
    """Names of the top-level functions and methods (as Class.method) of
    tree whose bodies call callee by name."""
    scopes = [(node.name, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
    scopes += [(f"{cls.name}.{node.name}", node) for cls in tree.body
               if isinstance(cls, ast.ClassDef) for node in cls.body
               if isinstance(node, ast.FunctionDef)]
    return {name for name, node in scopes for call in ast.walk(node)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
            and call.func.id == callee}


def test_one_owner_per_stack_rule():
    """A stack is checked where it is built, and each rule has one owner.
    errors._entries alone writes the paired shape and length message
    ("N instances but ..."). check_pair's kernel _check_product has two
    callers: check_pair and _given, the one builder of stacks of given
    strategies; eval_report, _pairs and coupled_state name no pair check.
    _stack alone builds the record and fills its carried arrays.
    _preparations checks only the embedding vectors it is given, and
    run_protocol runs unit_rows on no ancilla row."""
    for f in SRC.glob("*.py"):
        if f.name != "errors.py":
            for node in ast.walk(ast.parse(f.read_text())):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    assert "instances but" not in node.value, (f.name, node.lineno)
    tree = ast.parse((SRC / "ussd.py").read_text())
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert "_check_pairs" not in defs
    assert callers(tree, "_check_product") == {"check_pair", "_given"}
    for name in ("eval_report", "_pairs", "coupled_state"):
        named = {n.id for n in ast.walk(defs[name]) if isinstance(n, ast.Name)}
        assert not named & {"check_pair", "_check_product"}, name
    assert callers(tree, "SeparablePoints") == {"_stack"}
    def checks(nodes) -> int:
        return sum(isinstance(c, ast.Call) and ast.unparse(c.func) == "_check_embeddings"
                   for n in nodes for c in ast.walk(n))

    prep = defs["_preparations"]
    given = [n for n in ast.walk(prep) if isinstance(n, ast.If)
             and ast.unparse(n.test) == "vecs is None"]
    assert len(given) == 1 and checks(given[0].orelse) == checks([prep]) == 1
    rows = {ast.unparse(c.args[0]) for c in ast.walk(defs["run_protocol"])
            if isinstance(c, ast.Call) and ast.unparse(c.func) == "unit_rows"}
    assert rows == {"chi", "psi0", "psi"}

def test_cli_imports_no_private_kernel():
    """The CLI formats and the library computes: cli.py imports no
    underscore name from .coherence or .ussd. eval's composition is
    ussd.eval_report, which the battery also runs."""
    names = [(node.module, alias.name)
             for node in ast.walk(ast.parse((SRC / "cli.py").read_text()))
             if isinstance(node, ast.ImportFrom) and node.level == 1
             and node.module in ("coherence", "ussd") for alias in node.names]
    assert [n for n in names if n[1].startswith("_")] == []
    assert ("ussd", "eval_report") in names
