import ast
import dataclasses
import math
import tokenize
from pathlib import Path

import pytest

import ipstruct
from ipstruct.tolerances import DEFAULT_TOL, ToleranceConfig

PACKAGE = Path(ipstruct.__file__).parent


def test_user_tolerance_must_be_positive_and_finite():
    tol = DEFAULT_TOL.with_user_tolerance(1e-6)
    assert (tol.equality, tol.subspace) == (1e-6, 1e-6)
    for bad in (0.0, -1e-9, math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            DEFAULT_TOL.with_user_tolerance(bad)


def test_config_holds_only_what_tol_sets():
    assert tuple(f.name for f in dataclasses.fields(ToleranceConfig)) == ("equality", "subspace")


def test_thresholds_live_in_tolerances_module():
    # a float literal in exponent form is a threshold; docstrings and comments
    # are not NUMBER tokens, so they may quote values
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "tolerances.py":
            continue
        with path.open("rb") as f:
            for tok in tokenize.tokenize(f.readline):
                text = tok.string.lower()
                if tok.type == tokenize.NUMBER and "e" in text and not text.startswith("0x"):
                    found.append(f"{path.name}:{tok.start[0]}: {tok.string}")
        # so is an integer literal given as the digits of round, np.round or .round:
        # rounding decides a tie
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and "round" in (getattr(node.func, "id", None),
                                                          getattr(node.func, "attr", None)):
                found += [f"{path.name}:{a.lineno}: round digits {a.value}"
                          for a in node.args + [k.value for k in node.keywords]
                          if isinstance(a, ast.Constant) and type(a.value) is int]
    assert found == []


def test_rank_cut_lives_in_few_modules():
    # channels._psd_support makes every rank cut of a PSD operator; the other
    # users cut singular values and null spaces, which are other decisions
    users = set()
    for path in sorted(PACKAGE.glob("*.py")):
        with path.open("rb") as f:
            for tok in tokenize.tokenize(f.readline):
                if tok.type == tokenize.NAME and tok.string == "RANK_REL":
                    users.add(path.name)
    assert users == {"tolerances.py", "channels.py", "spectral.py", "algebra.py"}


def test_every_constant_is_read_by_another_module():
    # a threshold that no module reads is dead: one home for every threshold
    # also means no orphans there
    tree = ast.parse((PACKAGE / "tolerances.py").read_text())
    constants = {t.id for node in tree.body if isinstance(node, ast.Assign)
                 for t in node.targets if isinstance(t, ast.Name) and t.id.isupper()}
    read = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "tolerances.py":
            continue
        with path.open("rb") as f:
            read |= {tok.string for tok in tokenize.tokenize(f.readline)
                     if tok.type == tokenize.NAME}
    assert len(constants) > 20
    assert sorted(constants - read) == []
