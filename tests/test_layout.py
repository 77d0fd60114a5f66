import ast
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
