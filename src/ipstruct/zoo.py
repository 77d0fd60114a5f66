"""Named example channels, stochastic maps and codes, with expected results.

Every expected value carries a provenance tag:

* ``literature``   -- the value as published for this example;
* ``construction`` -- forced trivially by how the fixture is built;
* ``computed``     -- derived independently by an oracle in the test suite.

Builders are deterministic; the random generators take explicit seeds and
produce bit-identical output for identical seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .channels import QuantumChannel, StochasticChannel, channel_from_kraus
from .codes import Code
from .errors import ValidationError

__all__ = [
    "FixtureDescriptor",
    "fixture",
    "fixture_names",
    "descriptor",
    "code_fixture",
    "code_fixture_names",
    "random_cptp",
    "random_dfs_channel",
    "random_density",
    "five_qubit_code_projector",
]

# Pauli matrices: module-level constants used by several builders
I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

KET = {k: np.eye(2, dtype=complex)[:, k] for k in (0, 1)}


def _ketbra(a: int, b: int, dim: int = 2) -> np.ndarray:
    m = np.zeros((dim, dim), dtype=complex)
    m[a, b] = 1.0
    return m


def _proj(vec: np.ndarray) -> np.ndarray:
    v = np.asarray(vec, dtype=complex)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


# ---------------------------------------------------------------------------
# channel builders
# ---------------------------------------------------------------------------

def _dephasing_qubit() -> QuantumChannel:
    """Projective measurement in the computational basis, result discarded."""
    return channel_from_kraus([_ketbra(0, 0), _ketbra(1, 1)])


def _cyclic_four() -> StochasticChannel:
    """Each of four symbols stays put or advances by one, with equal odds."""
    m = np.zeros((4, 4))
    for k in range(4):
        m[k, k] = 0.5
        m[(k + 1) % 4, k] = 0.5
    return StochasticChannel(matrix=m)


def _squash_three() -> StochasticChannel:
    """Fixes symbols 0 and 1; symbol 2 is relabeled to 1."""
    m = np.zeros((3, 3))
    m[0, 0] = 1.0
    m[1, 1] = 1.0
    m[1, 2] = 1.0
    return StochasticChannel(matrix=m)


def _qutrit_half_fail() -> QuantumChannel:
    """Identity on span{|0>, |1>}; |2><2| decays to the maximally mixed state
    of that plane (coherences to |2> are destroyed)."""
    p01 = _ketbra(0, 0, 3) + _ketbra(1, 1, 3)
    k1 = _ketbra(0, 2, 3) / np.sqrt(2)
    k2 = _ketbra(1, 2, 3) / np.sqrt(2)
    return channel_from_kraus([p01, k1, k2])


def _depolarize_b() -> QuantumChannel:
    """Two qubits: A untouched, B fully depolarized."""
    ks = [np.kron(I2, _ketbra(i, j)) / np.sqrt(2) for i in (0, 1) for j in (0, 1)]
    return channel_from_kraus(ks)


def _cond_dephase_flip() -> QuantumChannel:
    """Measure B; on outcome 1 dephase A and reset B to |0>."""
    ks = [
        np.kron(I2, _ketbra(0, 0)),
        np.kron(_ketbra(0, 0), _ketbra(0, 1)),
        np.kron(_ketbra(1, 1), _ketbra(0, 1)),
    ]
    return channel_from_kraus(ks)


def _two_code_classical() -> StochasticChannel:
    """0 -> {0,1}, 1 -> {2,3}, 2 -> {0,2}, 3 -> {1,3}, uniformly."""
    m = np.zeros((4, 4))
    for col, rows in enumerate([(0, 1), (2, 3), (0, 2), (1, 3)]):
        for r in rows:
            m[r, col] = 0.5
    return StochasticChannel(matrix=m)


ROTATION_ANGLE = 0.7


def _unitary_a_depolarize_b() -> QuantumChannel:
    """A rotates about z by a fixed incommensurate angle; B depolarizes."""
    u = np.diag([np.exp(-1j * ROTATION_ANGLE), np.exp(1j * ROTATION_ANGLE)])
    ks = [np.kron(u, _ketbra(i, j)) / np.sqrt(2) for i in (0, 1) for j in (0, 1)]
    return channel_from_kraus(ks)


def _measure_then_depolarize() -> QuantumChannel:
    """Measure B; on outcome 1 depolarize A; then depolarize B regardless."""
    ks = [np.kron(I2, _ketbra(i, 0)) / np.sqrt(2) for i in (0, 1)]
    ks += [
        np.kron(_ketbra(a, b), _ketbra(i, 1)) / 2.0
        for a in (0, 1) for b in (0, 1) for i in (0, 1)
    ]
    return channel_from_kraus(ks)


def _pauli_on(qubit: int, op: np.ndarray, n: int = 5) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for q in range(n):
        out = np.kron(out, op if q == qubit else I2)
    return out


def five_qubit_code_projector() -> np.ndarray:
    """Rank-2 projector onto the five-qubit single-error-correcting code.

    The stabilizer generators XZZXI, IXZZX, XIXZZ, ZXIXZ are hard-coded
    textbook constants.
    """
    paulis = {"I": I2, "X": SX, "Y": SY, "Z": SZ}
    generators = ["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"]
    dim = 2**5
    proj = np.eye(dim, dtype=complex)
    for word in generators:
        g = np.array([[1.0 + 0j]])
        for ch in word:
            g = np.kron(g, paulis[ch])
        proj = proj @ (np.eye(dim) + g) / 2.0
    return proj


def _five_qubit_depolarize_one() -> QuantumChannel:
    """One of five qubits, chosen uniformly, is fully depolarized."""
    ks = []
    for q in range(5):
        for op in (I2, SX, SY, SZ):
            ks.append(_pauli_on(q, op) / (2.0 * np.sqrt(5.0)))
    return channel_from_kraus(ks)


def _ucp_d3() -> QuantumChannel:
    """Identity on span{|0>, |1>}; |2><2| decays to the maximally mixed state
    of the whole qutrit."""
    p01 = _ketbra(0, 0, 3) + _ketbra(1, 1, 3)
    ks = [p01] + [_ketbra(i, 2, 3) / np.sqrt(3) for i in range(3)]
    return channel_from_kraus(ks)


def _uncond_classical() -> StochasticChannel:
    """Merges {0,1} onto 0 and spreads {2,3} forward; the surviving
    distinction is {0,1} vs {2,3}."""
    m = np.array([
        [1.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 0.5, 0.0],
        [0.0, 0.0, 0.5, 0.5],
        [0.0, 0.0, 0.0, 0.5],
    ])
    return StochasticChannel(matrix=m)


def _ns_vs_code() -> Code:
    """Two-copy states |psi><psi| (x) |psi><psi| on two qubits: the partial
    traces are preserved by depolarizing B, yet the code is not noiseless."""
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    plus_i = np.array([1.0, 1.0j]) / np.sqrt(2)
    kets = [KET[0], KET[1], plus, plus_i]
    states = [np.kron(_proj(k), _proj(k)) for k in kets]
    return Code.from_states(states)


# ---------------------------------------------------------------------------
# code builders
# ---------------------------------------------------------------------------

def _code_cbit() -> Code:
    return Code.from_states([_ketbra(0, 0), _ketbra(1, 1)])


def _code_plus_minus() -> Code:
    return Code.from_states([_proj(np.array([1, 1])), _proj(np.array([1, -1]))])


def _code_qubit_full() -> Code:
    return Code.from_states([
        _ketbra(0, 0), _ketbra(1, 1),
        _proj(np.array([1, 1])), _proj(np.array([1, 1j])),
    ])


def _code_cyclic_four_02() -> Code:
    return Code.from_states([_ketbra(0, 0, 4), _ketbra(2, 2, 4)])


def _code_squash_segment() -> Code:
    """Two commuting states on a segment of the classical 3-simplex whose
    pairwise grid distances survive the squash map while a mixture pair does
    not."""
    rho1 = np.diag([0.755, 0.105, 0.140]).astype(complex)
    rho2 = np.diag([0.300, 0.350, 0.350]).astype(complex)
    return Code.from_states([rho1, rho2])


def _code_qutrit_half_pair() -> Code:
    """States (|psi><psi| + |2><2|)/2 with |psi> in the protected plane."""
    states = []
    for psi in (np.array([1, 0, 0]), np.array([0, 1, 0]),
                np.array([1, 1, 0]) / np.sqrt(2)):
        states.append(0.5 * _proj(psi) + 0.5 * _ketbra(2, 2, 3))
    return Code.from_states(states)


def _code_product_a_ground() -> Code:
    """States rho_A (x) |0><0|_B spanning the A factor."""
    ground = _ketbra(0, 0)
    blocks = [_ketbra(0, 0), _ketbra(1, 1),
              _proj(np.array([1, 1])), _proj(np.array([1, 1j]))]
    return Code.from_states([np.kron(b, ground) for b in blocks])


def _code_unitary_a_half() -> Code:
    blocks = [_ketbra(0, 0), _ketbra(1, 1),
              _proj(np.array([1, 1])), _proj(np.array([1, 1j]))]
    return Code.from_states([np.kron(b, I2 / 2.0) for b in blocks])


def _code_five_qubit_logical() -> Code:
    """A spanning set of density operators on the five-qubit code space."""
    proj = five_qubit_code_projector()
    w, v = np.linalg.eigh(proj)
    basis = v[:, w > 0.5]
    v0, v1 = basis[:, 0], basis[:, 1]
    kets = [v0, v1, (v0 + v1) / np.sqrt(2), (v0 + 1j * v1) / np.sqrt(2)]
    return Code.from_states([_proj(k) for k in kets])


def _code_ucp_sub() -> Code:
    """Density operators spanning the protected plane of the d=3 channel."""
    states = [_ketbra(0, 0, 3), _ketbra(1, 1, 3),
              _proj(np.array([1, 1, 0])), _proj(np.array([1, 1j, 0]))]
    return Code.from_states(states)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FixtureDescriptor:
    name: str
    kind: str  # "channel" | "stochastic" | "code"
    summary: str
    build: Callable[[], object]
    expected: Mapping[str, tuple[object, str]] = field(default_factory=dict)


_FIXTURES: dict[str, FixtureDescriptor] = {}


def _register(name, kind, summary, build, expected=None):
    _FIXTURES[name] = FixtureDescriptor(
        name=name, kind=kind, summary=summary, build=build,
        expected=dict(expected or {}),
    )


_register(
    "dephasing_qubit", "channel",
    "computational-basis dephasing of one qubit",
    _dephasing_qubit,
    {
        "noiseless_shape": ((1, 1), "literature"),
        "noiseless_cofactors": ((1, 1), "literature"),
        "fixed_space_dim": (2, "literature"),
    },
)
_register(
    "cyclic_four", "stochastic",
    "four symbols; each stays or advances cyclically with probability 1/2",
    _cyclic_four,
    {
        "max_code": ((0, 2), "literature"),
        "max_code_size": (2, "literature"),
    },
)
_register(
    "squash_three", "stochastic",
    "fixes symbols 0 and 1, relabels 2 to 1",
    _squash_three,
    {"fixed_symbols": ((0, 1), "construction")},
)
_register(
    "qutrit_half_fail", "channel",
    "identity on a plane, |2> decays into that plane",
    _qutrit_half_fail,
    {"weighted_pair_failure": (True, "literature")},
)
_register(
    "depolarize_B", "channel",
    "two qubits: A kept, B fully depolarized",
    _depolarize_b,
    {
        "noiseless_shape": ((2,), "literature"),
        "noiseless_cofactors": ((2,), "literature"),
        "tau_maximally_mixed": (True, "literature"),
    },
)
_register(
    "cond_dephase_flip", "channel",
    "measure B; on 1, dephase A and reset B to |0>",
    _cond_dephase_flip,
    {"noiseless_shape": ((2,), "computed")},
)
_register(
    "two_code_classical", "stochastic",
    "four symbols with exactly two maximum zero-error codes",
    _two_code_classical,
    {
        "max_codes": (((0, 1), (2, 3)), "literature"),
        "max_code_size": (2, "literature"),
    },
)
_register(
    "unitary_A_depolarize_B", "channel",
    "incommensurate z-rotation on A, full depolarization of B",
    _unitary_a_depolarize_b,
    {
        "unitarily_noiseless_shape": ((2,), "literature"),
        "noiseless_shape": ((1, 1), "literature"),
    },
)
_register(
    "measure_then_depolarize", "channel",
    "measure B, depolarize A on outcome 1, then depolarize B",
    _measure_then_depolarize,
    {"product_ground_code_preserved": (True, "literature")},
)
_register(
    "five_qubit_depolarize_one", "channel",
    "one of five qubits, chosen at random, fully depolarized",
    _five_qubit_depolarize_one,
    {"noiseless_shape": ((1,), "literature")},
)
_register(
    "ucp_d3", "channel",
    "identity on a plane, |2> decays to the maximally mixed qutrit",
    _ucp_d3,
    {"unconditional_shape": ((1,), "computed")},
)
_register(
    "uncond_classical", "stochastic",
    "four symbols whose {0,1} vs {2,3} distinction survives blind recovery",
    _uncond_classical,
    {"unconditional_shape": ((1, 1), "literature")},
)
_register(
    "ns_vs_code", "code",
    "two-copy states: reduced states survive, the code does not",
    _ns_vs_code,
    {"noiseless_under_depolarize_B": (False, "literature")},
)


_CODES: dict[str, Callable[[], Code]] = {
    "cbit": _code_cbit,
    "plus_minus": _code_plus_minus,
    "qubit_full": _code_qubit_full,
    "cyclic_four_02": _code_cyclic_four_02,
    "squash_segment": _code_squash_segment,
    "qutrit_half_pair": _code_qutrit_half_pair,
    "product_a_ground": _code_product_a_ground,
    "unitary_a_half": _code_unitary_a_half,
    "five_qubit_logical": _code_five_qubit_logical,
    "ucp_sub": _code_ucp_sub,
}


def fixture_names() -> list[str]:
    return sorted(_FIXTURES)


def descriptor(name: str) -> FixtureDescriptor:
    try:
        return _FIXTURES[name]
    except KeyError:
        raise ValidationError(
            f"unknown fixture {name!r}; available: {', '.join(fixture_names())}"
        ) from None


def fixture(name: str):
    """Build a named fixture (channel, stochastic map, or code)."""
    return descriptor(name).build()


def code_fixture_names() -> list[str]:
    return sorted(_CODES)


def code_fixture(name: str) -> Code:
    try:
        return _CODES[name]()
    except KeyError:
        raise ValidationError(
            f"unknown code fixture {name!r}; available: {', '.join(code_fixture_names())}"
        ) from None


# ---------------------------------------------------------------------------
# random instances
# ---------------------------------------------------------------------------

def random_cptp(d: int, kraus_count: int, seed: int) -> QuantumChannel:
    """Exactly trace-preserving random channel from a Haar-ish isometry.

    A complex Gaussian ``(d * kraus_count) x d`` matrix is orthonormalized;
    its row blocks are the Kraus operators, so ``sum K^dag K = 1`` holds to
    machine precision.  Identical seeds give bit-identical channels.
    """
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d * kraus_count, d)) \
        + 1j * rng.standard_normal((d * kraus_count, d))
    q, _ = np.linalg.qr(g)
    return channel_from_kraus(q.reshape(kraus_count, d, d))


def random_density(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def random_dfs_channel(d: int, dfs_dim: int, seed: int,
                       kraus_count: int = 3, leak: float = 0.0) -> QuantumChannel:
    """Random channel with a planted decoherence-free subspace.

    Kraus operators are block upper triangular with scalar blocks
    ``c_i * 1`` on the first ``dfs_dim`` dimensions, so every operator on
    the subspace is fixed.  With ``leak > 0`` the off-diagonal blocks are
    populated (subject to trace preservation), so the complement feeds the
    subspace and the structure stops being initialization free.
    """
    if not 0 < dfs_dim < d:
        raise ValidationError("need 0 < dfs_dim < d")
    rng = np.random.default_rng(seed)
    rest = d - dfs_dim
    c = rng.standard_normal(kraus_count) + 1j * rng.standard_normal(kraus_count)
    c /= np.linalg.norm(c)

    ds = np.zeros((kraus_count, dfs_dim, rest), dtype=complex)
    if leak > 0.0:
        ds = leak * (rng.standard_normal((kraus_count, dfs_dim, rest))
                     + 1j * rng.standard_normal((kraus_count, dfs_dim, rest)))
        # remove the component that would break trace preservation
        mean = np.einsum("i,iab->ab", c.conj(), ds)
        for i in range(kraus_count):
            ds[i] -= c[i] * mean
        gram = np.einsum("iab,iac->bc", ds.conj(), ds)
        top = float(np.linalg.eigvalsh(gram).max())
        if top >= 0.9:
            ds *= np.sqrt(0.5 / top)
            gram = np.einsum("iab,iac->bc", ds.conj(), ds)
    else:
        gram = np.zeros((rest, rest), dtype=complex)

    w, v = np.linalg.eigh(np.eye(rest) - gram)
    if w.min() < 0:
        raise ValidationError("leak too large for a trace-preserving completion")
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    g = rng.standard_normal((rest * kraus_count, rest)) \
        + 1j * rng.standard_normal((rest * kraus_count, rest))
    q, _ = np.linalg.qr(g)
    ks = []
    for i in range(kraus_count):
        k = np.zeros((d, d), dtype=complex)
        k[:dfs_dim, :dfs_dim] = c[i] * np.eye(dfs_dim)
        k[:dfs_dim, dfs_dim:] = ds[i]
        k[dfs_dim:, dfs_dim:] = q[i * rest:(i + 1) * rest, :] @ root
        ks.append(k)
    return channel_from_kraus(ks)
