from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_no_test_module_shadows_a_benchmark_module():
    # pytest imports both directories by prepending them to sys.path, so a
    # helper module named like one in perfbench/ would be imported in its place
    names = lambda d: {p.stem for p in (ROOT / d).glob("*.py")}
    assert names("tests") & names("perfbench") == set()
