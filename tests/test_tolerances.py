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
    assert found == []
