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
