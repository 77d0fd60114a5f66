import numpy as np
import pytest
from numpy.testing import assert_allclose

from ipstruct import Code, QuantumChannel, StochasticChannel, ValidationError, is_cptp
from ipstruct import zoo


def test_every_fixture_builds_and_validates():
    for name in zoo.fixture_names():
        d = zoo.descriptor(name)
        obj = d.build()
        if d.kind == "channel":
            assert isinstance(obj, QuantumChannel)
            assert is_cptp(obj).trace_preserving, name
        elif d.kind == "stochastic":
            assert isinstance(obj, StochasticChannel)
            assert_allclose(obj.matrix.sum(axis=0), 1.0, atol=1e-12)
        else:
            assert isinstance(obj, Code)


def test_expected_tables_use_known_tags():
    allowed = {"literature", "construction", "computed"}
    for name in zoo.fixture_names():
        for key, (value, tag) in zoo.descriptor(name).expected.items():
            assert tag in allowed, (name, key, tag)


def test_fixture_determinism():
    for name in zoo.fixture_names():
        a, b = zoo.fixture(name), zoo.fixture(name)
        if isinstance(a, QuantumChannel):
            assert all((x == y).all() for x, y in zip(a.kraus, b.kraus))
        elif isinstance(a, StochasticChannel):
            assert (a.matrix == b.matrix).all()
        else:
            assert all((x == y).all() for x, y in zip(a.states, b.states))


def test_unknown_names_rejected():
    with pytest.raises(ValidationError):
        zoo.fixture("no_such_thing")
    with pytest.raises(ValidationError):
        zoo.code_fixture("no_such_thing")


def test_code_fixtures_build():
    for name in zoo.code_fixture_names():
        code = zoo.code_fixture(name)
        assert isinstance(code, Code)
        for s in code.states:
            assert abs(np.trace(s) - 1.0) < 1e-9


def test_random_cptp_exact_and_deterministic():
    for seed in range(10):
        ch = zoo.random_cptp(3, 2, seed)
        acc = sum(k.conj().T @ k for k in ch.kraus)
        assert np.max(np.abs(acc - np.eye(3))) < 1e-13
    a = zoo.random_cptp(4, 3, 99)
    b = zoo.random_cptp(4, 3, 99)
    assert all((x == y).all() for x, y in zip(a.kraus, b.kraus))
    c = zoo.random_cptp(4, 3, 100)
    assert any((x != y).any() for x, y in zip(a.kraus, c.kraus))


@pytest.mark.parametrize("leak", [0.0, 0.2, 0.5])
def test_random_dfs_channel_is_tp_and_plants_subspace(leak):
    for seed in range(5):
        ch = zoo.random_dfs_channel(5, 2, seed, leak=leak)
        assert is_cptp(ch).trace_preserving
        # states on the planted subspace are exactly fixed
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rho = g @ g.conj().T
        rho /= np.trace(rho)
        big = np.zeros((5, 5), dtype=complex)
        big[:2, :2] = rho
        out = sum(k @ big @ k.conj().T for k in ch.kraus)
        assert np.max(np.abs(out - big)) < 1e-12


def test_random_dfs_channel_leak_populates_offdiagonal():
    quiet = zoo.random_dfs_channel(5, 2, 0, leak=0.0)
    noisy = zoo.random_dfs_channel(5, 2, 0, leak=0.4)
    def offdiag(ch):
        return max(np.linalg.norm(k[:2, 2:]) for k in ch.kraus)
    assert offdiag(quiet) < 1e-15
    assert offdiag(noisy) > 1e-3


def test_random_dfs_channel_guards():
    with pytest.raises(ValidationError):
        zoo.random_dfs_channel(3, 3, 0)
    with pytest.raises(ValidationError):
        zoo.random_dfs_channel(3, 0, 0)


def test_five_qubit_projector():
    p = zoo.five_qubit_code_projector()
    assert p.shape == (32, 32)
    assert np.linalg.norm(p @ p - p) < 1e-12
    assert np.linalg.norm(p - p.conj().T) < 1e-12
    assert abs(np.trace(p).real - 2.0) < 1e-12  # encodes one qubit


def test_five_qubit_logical_code_lives_in_code_space():
    p = zoo.five_qubit_code_projector()
    code = zoo.code_fixture("five_qubit_logical")
    for s in code.states:
        assert np.linalg.norm(p @ s @ p - s) < 1e-12


def test_rotation_angle_matches_builder():
    # first Kraus is kron(u, |0><0|) / sqrt(2): the u phases sit at (0,0)
    # and (2,2)
    ch = zoo.fixture("unitary_A_depolarize_B")
    k = ch.kraus[0] * np.sqrt(2)  # undo the depolarizing weight
    assert abs(np.angle(k[0, 0]) + zoo.ROTATION_ANGLE) < 1e-12
    assert abs(np.angle(k[2, 2]) - zoo.ROTATION_ANGLE) < 1e-12
