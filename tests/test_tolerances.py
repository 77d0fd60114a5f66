import math

import pytest

from ipstruct.tolerances import DEFAULT_TOL


def test_user_tolerance_must_be_positive_and_finite():
    tol = DEFAULT_TOL.with_user_tolerance(1e-6)
    assert (tol.equality, tol.subspace) == (1e-6, 1e-6)
    assert tol.rank_rel == DEFAULT_TOL.rank_rel
    for bad in (0.0, -1e-9, math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            DEFAULT_TOL.with_user_tolerance(bad)
