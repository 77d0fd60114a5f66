import argparse
import ast
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_no_test_module_shadows_a_benchmark_module():
    # pytest imports both directories by prepending them to sys.path, so a
    # helper module named like one in perfbench/ would be imported in its place
    names = lambda d: {p.stem for p in (ROOT / d).glob("*.py")}
    assert names("tests") & names("perfbench") == set()


def test_no_package_module_imports_the_tests_or_the_benchmark():
    # reference code lives in tests/oracles.py and the benchmark outside the
    # package; the package must run without either on sys.path
    outside = {"tests", "perfbench"} | {p.stem for d in ("tests", "perfbench")
                                        for p in (ROOT / d).glob("*.py")}
    for path in sorted((ROOT / "src" / "ipstruct").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.partition(".")[0] not in outside, (path.name, name)


def test_no_package_module_uses_the_mrrr_eigensolver():
    # the LAPACK driver evr (syevr, heevr) failed with "Internal Error" under two
    # OpenBLAS threads: no package module names it as a driver or calls it
    found = []
    for path in sorted((ROOT / "src" / "ipstruct").glob("*.py")):
        with path.open("rb") as f:
            for tok in tokenize.tokenize(f.readline):
                if (tok.type == tokenize.STRING and tok.string.strip("\"'") == "evr"
                        or tok.type == tokenize.NAME and tok.string.lower().endswith(("syevr",
                                                                                      "heevr"))):
                    found.append(f"{path.name}:{tok.start[0]}: {tok.string}")
    assert found == []


def _tolerance_flow(skip=()):
    """``(takes, reads, passes)`` over the package modules not named in ``skip``:
    the functions with a ``tol`` parameter, those among them that read
    ``tol.equality`` or ``tol.subspace``, and for each the names of the
    functions it passes ``tol`` to."""
    takes, reads, passes = set(), set(), {}
    for path in sorted((ROOT / "src" / "ipstruct").glob("*.py")):
        if path.name in skip:
            continue
        for fn in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = fn.args
            if "tol" not in {p.arg for p in [*a.posonlyargs, *a.args, *a.kwonlyargs]}:
                continue
            name = getattr(fn, "name", f"<lambda>:{path.stem}:{fn.lineno}")
            takes.add(name)
            passes.setdefault(name, set())
            for node in ast.walk(fn):
                if (isinstance(node, ast.Attribute) and node.attr in ("equality", "subspace")
                        and isinstance(node.value, ast.Name) and node.value.id == "tol"):
                    reads.add(name)
                elif isinstance(node, ast.Call) and any(
                        isinstance(v, ast.Name) and v.id == "tol"
                        for v in [*node.args, *(k.value for k in node.keywords)]):
                    callee = node.func
                    passes[name].add(getattr(callee, "id", getattr(callee, "attr", None)))
    return takes, reads, passes


def test_every_tolerance_argument_reaches_a_threshold():
    # the tolerance a report records is the one applied: a function that takes
    # tol reads tol.equality or tol.subspace, or passes tol to a package
    # function that does
    takes, reached, passes = _tolerance_flow()
    assert reached
    while grown := {f for f in takes - reached if passes[f] & reached}:
        reached |= grown
    assert sorted(takes - reached) == []


def _cli_tolerance_calls():
    """For each ``_cmd_*`` function of the CLI: whether it calls ``_tolerance``,
    and the names of the functions it passes the result to.  A callee
    ``TABLE[key]`` stands for every value of the module-level dict ``TABLE``,
    and a callee ``{...}[key]`` for every value of that dict literal."""
    tree = ast.parse((ROOT / "src" / "ipstruct" / "cli.py").read_text())
    tables = {t.id: node.value.values for node in tree.body
              if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
              for t in node.targets if isinstance(t, ast.Name)}

    def callees(scope, var):
        out = set()
        for node in ast.walk(scope):
            if not (isinstance(node, ast.Call) and any(
                    isinstance(v, ast.Name) and v.id == var
                    for v in [*node.args, *(k.value for k in node.keywords)])):
                continue
            f = node.func
            table = getattr(f, "value", None) if isinstance(f, ast.Subscript) else None
            if isinstance(table, ast.Dict) or getattr(table, "id", None) in tables:
                values = table.values if isinstance(table, ast.Dict) else tables[table.id]
                out |= {getattr(v, "id", None) for v in values}
            else:
                out.add(getattr(f, "id", getattr(f, "attr", None)))
        return out

    flow = {}
    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_cmd_"):
            reads = [node for node in ast.walk(fn) if isinstance(node, ast.Call)
                     and getattr(node.func, "id", None) == "_tolerance"]
            names = {t.id for node in ast.walk(fn) if isinstance(node, ast.Assign)
                     and node.value in reads for t in node.targets}
            flow[fn.name] = (bool(reads), set().union(*(callees(fn, n) for n in names)))
    return flow


def test_every_command_line_tolerance_reaches_a_threshold():
    # the command-line form of the test above: a verb that parses --tol reads it
    # with _tolerance and passes the result to an analysis whose tol reaches a
    # threshold, so no report records a tolerance that was not applied
    from ipstruct.cli import build_parser

    takes, reached, passes = _tolerance_flow(skip=("cli.py",))
    while grown := {f for f in takes - reached if passes[f] & reached}:
        reached |= grown
    flow = _cli_tolerance_calls()
    assert sorted(f for f, (calls, to) in flow.items() if calls and not to & reached) == []

    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    parses = {p.get_default("func").__name__ for p in sub.choices.values()
              if any("--tol" in a.option_strings for a in p._actions)}
    assert parses == {f for f, (calls, _) in flow.items() if calls}


def _restacks(source: str) -> list[str]:
    """The calls ``np.stack``, ``np.array`` and ``np.asarray`` whose arguments read a
    ``.kraus`` or ``.states`` attribute other than through ``len``, outside the
    ``__post_init__`` of a class, as ``function:line``."""
    tree = ast.parse(source)
    exempt = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
              for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__"
              for node in ast.walk(fn)}
    counted = {id(a) for node in ast.walk(tree) if isinstance(node, ast.Call)
               and getattr(node.func, "id", None) == "len" for a in node.args}
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.Lambda)):
            continue
        for node in ast.walk(fn):
            f = getattr(node, "func", None)
            if (isinstance(node, ast.Call) and id(node) not in exempt
                    and isinstance(f, ast.Attribute) and f.attr in ("stack", "array", "asarray")
                    and getattr(f.value, "id", None) == "np"
                    and any(isinstance(a, ast.Attribute) and a.attr in ("kraus", "states")
                            and id(a) not in counted
                            for arg in [*node.args, *(k.value for k in node.keywords)]
                            for a in ast.walk(arg))):
                found.append(f"{getattr(fn, 'name', '<lambda>')}:{node.lineno}")
    return sorted(set(found))


def test_no_package_module_restacks_kraus_operators_or_code_states():
    # QuantumChannel.kraus and Code.states are each one complex stack, built once
    # by their constructors; no consumer builds its own from them
    assert _restacks("def f(ch, code):\n    return np.stack(ch.kraus), "
                     "np.array([s.T for s in code.states]), np.asarray(x=ch.kraus)\n") == [
        "f:2"]
    assert _restacks("def f(code):\n    return np.array([len(code.states)])\n") == []
    assert _restacks("class C:\n    def __post_init__(self):\n"
                     "        np.asarray(self.kraus)\n") == []
    found = {path.name: _restacks(path.read_text())
             for path in sorted((ROOT / "src" / "ipstruct").glob("*.py"))}
    assert {name: calls for name, calls in found.items() if calls} == {}
