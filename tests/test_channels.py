import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.stats import unitary_group

from ipstruct import (
    DEFAULT_TOL,
    QuantumChannel,
    StochasticChannel,
    Superoperator,
    ValidationError,
    apply_channel,
    channel_from_kraus,
    compose,
    embed_classical,
    is_cptp,
    to_superoperator,
)
from ipstruct.channels import (
    _psd_support,
    is_projector,
    projector_onto_support,
)
from ipstruct import spectral, zoo
from ipstruct.spectral import _joint_support
from ipstruct.structures import transpose_channel, unconditional_recovery
from ipstruct.tolerances import RANK_REL
from oracles import (
    adjoint,
    apply_superoperator,
    choi_matrix,
    hermitian_basis,
    is_hermitian,
    is_positive_semidefinite,
    is_unital,
    orthonormal_range_basis,
    restrict_to_subspace,
    unvec,
    vec,
)


def random_state(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def test_vec_column_stacking_convention():
    # columns are stacked: vec([[a, b], [c, d]]) = [a, c, b, d]
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert_allclose(vec(x), [1.0, 3.0, 2.0, 4.0])
    assert_allclose(unvec(vec(x), 2, 2), x)


def _composite(ch):
    """R o E with R the input-blind recovery."""
    return compose(unconditional_recovery(ch), ch)


@pytest.mark.parametrize("build", [
    *(lambda d=d: zoo.random_cptp(d, 2, d) for d in (1, 2, 3, 5, 18)),
    lambda: _composite(zoo.random_cptp(5, 3, 1)),
], ids=["1", "2", "3", "5", "18", "composite-cptp-5"])
def test_hermitian_coordinates_match_the_dense_change_of_basis(build):
    ch = build()
    d = ch.dim_in
    u = hermitian_basis(d)
    assert_allclose(u.conj().T @ u, np.eye(d * d), atol=1e-14)
    basis = [unvec(column, d, d) for column in u.T]
    for b in basis:
        assert_allclose(b, b.conj().T, atol=0)
    # the split's inverse change of basis writes the same operators, bit for bit
    operators = spectral._hermitian_operators(np.eye(d * d), d)
    assert operators.flags.c_contiguous and np.array_equal(operators, basis)
    m = to_superoperator(ch).matrix
    before = [k.copy() for k in ch.kraus]
    m_r = spectral._coordinates(ch)
    assert all(np.array_equal(k, b) for k, b in zip(ch.kraus, before))  # only read
    assert m_r.dtype == np.float64 and m_r.flags.f_contiguous
    assert_allclose(m_r, u.conj().T @ m @ u, atol=1e-14)


def _five_qubit_composite():
    """R o E for the five-qubit code under one random depolarization: 400 Kraus operators."""
    ch = zoo.fixture("five_qubit_depolarize_one")
    return compose(transpose_channel(ch, zoo.five_qubit_code_projector()), ch)


@pytest.mark.parametrize("build", [lambda: zoo.random_cptp(6, 3, 2), _five_qubit_composite],
                         ids=["cptp-6", "five-qubit-composite"])
def test_superoperator_ignores_the_kraus_layout(build):
    # a list, tuple or generator of operators is stored as one complex C-order
    # stack whatever their layout, and S is unchanged; a stack is kept as given
    ch = build()
    s = to_superoperator(ch).matrix
    fortran = [np.asfortranarray(k) for k in ch.kraus]
    views = list(np.ascontiguousarray(ch.kraus.transpose(0, 2, 1)).transpose(0, 2, 1))
    assert all(k.flags.f_contiguous and not k.flags.c_contiguous for k in fortran + views)
    for given in (fortran, tuple(fortran), (k for k in fortran), views):
        stored = channel_from_kraus(given).kraus
        assert stored.dtype == complex and stored.flags.c_contiguous
        assert stored.shape == ch.kraus.shape
        assert np.array_equal(to_superoperator(channel_from_kraus(stored)).matrix, s)
    assert channel_from_kraus(ch.kraus).kraus is ch.kraus


@pytest.mark.parametrize("build", [*(lambda s=s: zoo.random_cptp(16, 9, s) for s in range(2)),
                                   _five_qubit_composite],
                         ids=["cptp-16-9-0", "cptp-16-9-1", "five-qubit-composite"])
def test_hermitian_coordinates_hold_only_the_superoperator_and_the_result(build):
    # S beside the two Kraus stacks of to_superoperator (the C-order copy of the
    # one K^T view of the stack, and its conjugate), then S beside M_r (no ufunc
    # buffer for the strided views of S), with 16 KiB to spare: within the sum of all four
    ch = build()
    n, kraus = ch.dim_in ** 2, ch.kraus.nbytes
    phases = max(16 * n * n + 2 * kraus, 16 * n * n + 8 * n * n)
    tracemalloc.start()
    try:
        m_r = spectral._coordinates(ch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m_r.shape == (n, n)
    assert peak <= phases + 16 * 1024 <= 16 * n * n + 8 * n * n + 2 * kraus + 16 * 1024


def _square_channel(name):
    obj = zoo.fixture(name)
    if isinstance(obj, StochasticChannel) and obj.n_in == obj.n_out:
        return embed_classical(obj)
    return obj if getattr(obj, "is_square", False) else None


_SQUARE_ZOO = [n for n in zoo.fixture_names() if _square_channel(n) is not None]
_SWAP_INPUTS = {
    **{n: (lambda n=n: _square_channel(n)) for n in _SQUARE_ZOO},
    **{f"composite-{n}": (lambda n=n: _composite(_square_channel(n))) for n in _SQUARE_ZOO},
    **{f"cptp-{d}-{s}": (lambda d=d, s=s: zoo.random_cptp(d, 3, s))
       for d in (3, 8) for s in (1, 2)},
    **{f"dfs-{d}-{s}": (lambda d=d, s=s: zoo.random_dfs_channel(d, d // 2, s))
       for d in (6, 8) for s in (1, 2)},
    "composite-cptp-8": lambda: _composite(zoo.random_cptp(8, 3, 1)),
}


@pytest.mark.parametrize("build", _SWAP_INPUTS.values(), ids=_SWAP_INPUTS.keys())
def test_superoperator_is_conjugated_by_the_transpose_permutation(build):
    # the Hermitian coordinates are Re S - Im S F because every map in Kraus
    # form has S = F conj(S) F, F the permutation swap of vec(X) -> vec(X^T)
    ch = build()
    s = to_superoperator(ch).matrix
    d = ch.dim_in
    swap = np.arange(d * d).reshape(d, d).T.reshape(-1)
    eps = np.finfo(float).eps
    assert np.max(np.abs(s[swap][:, swap] - s.conj())) <= 4 * eps * np.max(np.abs(s))


def test_vec_unvec_roundtrip_rectangular():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    assert_allclose(unvec(vec(x), 3, 5), x)


def test_superoperator_of_unitary_is_conj_kron():
    rng = np.random.default_rng(1)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    u, _ = np.linalg.qr(g)
    ch = channel_from_kraus([u])
    assert_allclose(to_superoperator(ch).matrix, np.kron(u.conj(), u), atol=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_superoperator_matches_direct_action(seed):
    rng = np.random.default_rng(seed)
    ch = zoo.random_cptp(3, 2, seed)
    sup = to_superoperator(ch)
    rho = random_state(3, rng)
    assert_allclose(
        apply_superoperator(sup, rho), apply_channel(ch, rho), atol=1e-12
    )


@pytest.mark.parametrize("d_in, d_out", [(2, 3), (3, 2)])
def test_rectangular_superoperator_is_the_kron_sum(d_in, d_out):
    # the superoperator's rows index the output and its columns the input
    rng = np.random.default_rng(d_in)
    g = rng.standard_normal((2 * d_out, d_in)) + 1j * rng.standard_normal((2 * d_out, d_in))
    q, _ = np.linalg.qr(g)
    ch = channel_from_kraus([q[:d_out], q[d_out:]])
    sup = to_superoperator(ch)
    assert (sup.dim_in, sup.dim_out) == (d_in, d_out)
    expected = sum(np.kron(k.conj(), k) for k in ch.kraus)
    assert np.max(np.abs(sup.matrix - expected)) <= 1e-15
    rho = random_state(d_in, rng)
    assert_allclose(apply_superoperator(sup, rho), apply_channel(ch, rho), atol=1e-12)


def test_apply_channel_rectangular():
    # a 2 -> 3 isometry channel
    v = np.zeros((3, 2), dtype=complex)
    v[0, 0] = v[1, 1] = 1.0
    ch = channel_from_kraus([v])
    rho = np.array([[0.25, 0.1], [0.1, 0.75]], dtype=complex)
    out = apply_channel(ch, rho)
    assert out.shape == (3, 3)
    assert_allclose(out[:2, :2], rho)
    assert_allclose(out[2, :], 0.0, atol=1e-15)


def test_compose_matches_superoperator_product():
    a = zoo.random_cptp(3, 2, 11)
    b = zoo.random_cptp(3, 3, 12)
    comp = compose(a, b)
    assert_allclose(
        to_superoperator(comp).matrix,
        to_superoperator(a).matrix @ to_superoperator(b).matrix,
        atol=1e-12,
    )


def test_compose_dimension_mismatch():
    a = zoo.random_cptp(3, 2, 0)
    b = zoo.random_cptp(2, 2, 0)
    with pytest.raises(ValidationError):
        compose(a, b)


def test_adjoint_is_hilbert_schmidt_dual():
    rng = np.random.default_rng(4)
    ch = zoo.random_cptp(3, 3, 4)
    dag = adjoint(ch)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    lhs = np.trace(a.conj().T @ apply_channel(ch, b))
    rhs = np.trace(apply_channel(dag, a).conj().T @ b)
    assert abs(lhs - rhs) < 1e-12


def test_choi_matrix_positive_and_trace_condition():
    ch = zoo.random_cptp(3, 4, 5)
    j = choi_matrix(ch)
    w = np.linalg.eigvalsh((j + j.conj().T) / 2)
    assert w.min() > -1e-12
    # tracing out the output factor leaves the identity for a TP map
    t = j.reshape(3, 3, 3, 3)
    assert_allclose(np.einsum("iaja->ij", t), np.eye(3), atol=1e-12)


def test_is_cptp_on_zoo_fixtures():
    for name in zoo.fixture_names():
        d = zoo.descriptor(name)
        if d.kind == "channel":
            rep = is_cptp(d.build())
            assert rep.trace_preserving, f"{name}: {rep}"


def test_is_cptp_flags_non_tp():
    ch = QuantumChannel((np.eye(2, dtype=complex) * 0.5,))
    rep = is_cptp(ch)
    assert not rep.trace_preserving
    assert rep.tp_residual > 0.1


def test_is_cptp_does_no_choi_work(monkeypatch):
    # Kraus form makes a map completely positive, so is_cptp only sums K^dag K:
    # on the five-qubit recovery (32 x 32) the Choi matrix alone would be 16 MiB
    rec = transpose_channel(zoo.fixture("five_qubit_depolarize_one"),
                            zoo.five_qubit_code_projector())
    calls = []
    for name in ("eigvalsh", "eigh"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda *a, _real=real, **k: calls.append(a) or _real(*a, **k))
    tracemalloc.start()
    try:
        rep = is_cptp(rec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == []
    assert peak < 2 ** 20
    assert rep.trace_preserving


def test_user_tolerance_is_the_applied_one():
    tol = DEFAULT_TOL.with_user_tolerance(1e-12)
    ks = [np.sqrt(1 + 1e-10) * np.eye(2, dtype=complex)]
    assert not is_cptp(channel_from_kraus(ks), tol=tol).trace_preserving
    assert not is_unital(channel_from_kraus(ks), tol=tol)
    assert is_cptp(channel_from_kraus(ks)).trace_preserving


def test_channel_from_kraus_validation():
    with pytest.raises(ValidationError, match="no Kraus operators given"):
        channel_from_kraus(k for k in ())
    with pytest.raises(ValidationError, match=r"Kraus operator 1 has shape \(3, 3\), expected \(2, 2\)"):
        channel_from_kraus([np.eye(2), np.eye(3)])
    for ragged in ([np.eye(2), np.ones(2)], [np.array(1.0)], np.eye(2)):
        with pytest.raises(ValidationError, match="must be matrices"):
            channel_from_kraus(ragged)
    # real operators are stored as a complex stack
    assert channel_from_kraus([np.eye(2)]).kraus.dtype == complex
    with pytest.raises(ValidationError, match="non-finite"):
        channel_from_kraus([np.diag([1.0, np.nan])])
    for shape in ((1, 0), (0, 2)):
        with pytest.raises(ValidationError, match="no entries"):
            channel_from_kraus([np.zeros(shape)])
    with pytest.raises(ValidationError, match="non-finite"):
        Superoperator(dim_in=2, dim_out=2, matrix=np.diag([1.0, np.inf, 1.0, 1.0]))


@pytest.mark.parametrize("kraus,message", [
    (np.array(1.0), "must be matrices"),
    (np.zeros((0, 2, 2)), "no Kraus operators given"),
    ([np.diag([1.0, np.nan])], "Kraus operator 0 has non-finite entries"),
    (np.stack([np.eye(2), np.diag([np.inf, 0.0])]), "Kraus operator 1 has non-finite entries"),
    ([np.eye(2), np.eye(3)], r"Kraus operator 1 has shape \(3, 3\), expected \(2, 2\)"),
    ([np.eye(2), np.ones(2)], "must be matrices"),
    (np.zeros((1, 0, 2)), r"of shape \(0, 2\) have no entries"),
    ([np.zeros((2, 0))], r"of shape \(2, 0\) have no entries"),
], ids=["0-d", "empty-stack", "nan", "inf-in-stack", "ragged", "vector", "zero-rows", "zero-cols"])
def test_direct_construction_checks_the_stack(kraus, message):
    # the constructor takes the stack alone and checks it
    with pytest.raises(ValidationError, match=message):
        QuantumChannel(kraus)


def test_constructor_reads_dimensions_from_the_stack():
    ks = np.zeros((2, 3, 2), dtype=complex)
    ch = QuantumChannel(ks)
    assert (ch.dim_out, ch.dim_in) == (3, 2) and not ch.is_square
    # a complex C-order stack is kept as given; any other layout or container is stacked once
    assert ch.kraus is ks and channel_from_kraus(ks).kraus is ks
    for given in (np.asfortranarray(ks), ks.real, list(ks), tuple(ks), (k for k in ks)):
        stored = QuantumChannel(given).kraus
        assert stored.dtype == complex and stored.flags.c_contiguous
        assert np.array_equal(stored, ks)
    with pytest.raises(TypeError):
        QuantumChannel(ks, 2, 3)  # the dimensions are read, never given


def test_is_unital():
    assert is_unital(zoo.fixture("dephasing_qubit"))
    assert is_unital(zoo.fixture("depolarize_B"))
    assert not is_unital(zoo.fixture("ucp_d3"))


def test_restrict_to_subspace_identity_plane():
    ch = zoo.fixture("ucp_d3")
    p = np.diag([1.0, 1.0, 0.0]).astype(complex)
    sub, iso = restrict_to_subspace(ch, p)
    assert sub.dim_in == 2
    assert iso.shape == (3, 2)
    rng = np.random.default_rng(9)
    rho = random_state(2, rng)
    # the channel acts as the identity there
    assert_allclose(apply_channel(sub, rho), rho, atol=1e-12)


def test_restrict_to_subspace_rejects_non_projector():
    ch = zoo.fixture("ucp_d3")
    with pytest.raises(ValidationError):
        restrict_to_subspace(ch, np.diag([1.0, 0.5, 0.0]))


def test_embed_classical_matches_stochastic_action():
    sc = zoo.fixture("cyclic_four")
    ch = embed_classical(sc)
    assert is_cptp(ch).trace_preserving
    # sqrt(M[k, i]) |k><i| for each positive entry, in row-major order
    e = np.eye(4)
    assert np.array_equal(ch.kraus, [np.sqrt(sc.matrix[k, i]) * np.outer(e[k], e[i])
                                     for k in range(4) for i in range(4) if sc.matrix[k, i] > 0])
    for i in range(4):
        basis = np.zeros((4, 4), dtype=complex)
        basis[i, i] = 1.0
        out = apply_channel(ch, basis)
        assert_allclose(np.diag(out).real, sc.matrix[:, i], atol=1e-12)
        assert_allclose(out - np.diag(np.diag(out)), 0.0, atol=1e-12)


def test_embed_classical_kills_coherences():
    ch = embed_classical(zoo.fixture("cyclic_four"))
    off = np.zeros((4, 4), dtype=complex)
    off[0, 1] = 1.0
    assert_allclose(apply_channel(ch, off), 0.0, atol=1e-12)


def test_stochastic_validation():
    with pytest.raises(ValidationError):
        StochasticChannel(matrix=np.array([[0.5, 0.2], [0.4, 0.8]]))
    with pytest.raises(ValidationError):
        StochasticChannel(matrix=np.array([[-0.1, 0.0], [1.1, 1.0]]))
    with pytest.raises(ValidationError, match="non-finite"):
        StochasticChannel(matrix=np.array([[np.nan, 0.0], [1.0, 1.0]]))


def test_predicates():
    x = np.array([[1.0, 2.0], [2.0, 3.0]], dtype=complex)
    assert is_hermitian(x)
    assert not is_hermitian(x + 1j * np.array([[0, 1], [0, 0]]))
    assert is_positive_semidefinite(np.diag([0.0, 1.0]).astype(complex))
    assert not is_positive_semidefinite(np.diag([-0.1, 1.0]).astype(complex))
    assert is_projector(np.diag([1.0, 0.0, 1.0]).astype(complex))
    assert not is_projector(np.diag([1.0, 0.5, 0.0]).astype(complex))


def test_projector_onto_support():
    rho = np.diag([0.6, 0.4, 0.0]).astype(complex)
    p = projector_onto_support(rho)
    assert_allclose(p, np.diag([1.0, 1.0, 0.0]), atol=1e-12)
    basis = orthonormal_range_basis(p)
    assert basis.shape == (3, 2)
    assert_allclose(basis.conj().T @ basis, np.eye(2), atol=1e-12)


def test_support_cut_is_relative_and_strict():
    # in a random basis: kept above RANK_REL times the largest, dropped below
    top = 3.0
    w = np.array([0.5 * RANK_REL * top, top, 0.0, 2.0 * RANK_REL * top, 0.25 * top])
    u = unitary_group.rvs(5, random_state=np.random.default_rng(2))
    a = (u * w) @ u.conj().T
    kept, v = _psd_support(a)
    assert_allclose(kept, [top, 0.25 * top, 2.0 * RANK_REL * top], rtol=1e-5, atol=0.0)
    assert v.shape == (5, 3)
    assert_allclose(np.abs(v.conj().T @ u[:, [1, 4, 3]]), np.eye(3), atol=1e-9)
    assert_allclose(projector_onto_support(a), v @ v.conj().T, atol=0.0)
    # a value exactly at the cut is dropped
    assert _psd_support(np.diag([1.0, RANK_REL]))[0].tolist() == [1.0]


@pytest.mark.parametrize("d", [0, 1, 3])
def test_support_of_zero_matrix_is_empty(d):
    w, v = _psd_support(np.zeros((d, d), dtype=complex))
    assert w.shape == (0,) and v.shape == (d, 0)
    assert_allclose(projector_onto_support(np.zeros((d, d))), np.zeros((d, d)), atol=0.0)


def test_joint_support_is_unchanged_bit_for_bit():
    # the support basis feeds the decomposition, so its columns, phases and
    # order must stay those of this formula: sum_x x x^dag + x^dag x as two
    # products, of the operators side by side and of the operators stacked
    rng = np.random.default_rng(23)
    for d, r, k in [(3, 1, 2), (4, 2, 3), (6, 3, 2), (8, 8, 4), (8, 5, 6), (5, 0, 0)]:
        iso = unitary_group.rvs(d, random_state=rng)[:, :r]
        g = rng.standard_normal((k, r, r)) + 1j * rng.standard_normal((k, r, r))
        ops = iso @ g @ iso.conj().T
        wide = np.concatenate(list(ops), axis=1) if k else np.zeros((d, 0), dtype=complex)
        tall = ops.reshape(k * d, d)
        acc = wide @ wide.conj().T + tall.conj().T @ tall
        w, v = np.linalg.eigh((acc + acc.conj().T) / 2.0)
        expected = v[:, w > RANK_REL * np.max(np.abs(w))][:, ::-1]
        got = _joint_support(ops)
        assert got.shape == (d, r)  # the empty stack (k = 0) has an empty support
        assert np.array_equal(got, expected)
