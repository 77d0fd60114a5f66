import time
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose
from scipy.stats import unitary_group

import ipstruct
import ipstruct.algebra
import ipstruct.spectral
import ipstruct.structures
from ipstruct import (
    DecompositionError,
    NumericalError,
    StochasticChannel,
    ValidationError,
    apply_channel,
    build_fixing_recovery,
    channel_from_kraus,
    compose,
    embed_classical,
    fixed_point_structure,
    fixed_space,
    initialization_free_check,
    is_cptp,
    noiseless_structure,
    rotating_space,
    to_superoperator,
    transpose_channel,
    unconditional_recovery,
    unconditional_structure,
    unitarily_noiseless_structure,
    zoo,
)
from ipstruct.tolerances import DEFAULT_TOL, FIXED_STATE_RESIDUAL
from oracles import adjoint, collective_noise, dense_rotation_certificate, schur_weyl_sectors


def random_state(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


# ---------------------------------------------------------------------------
# transpose channel
# ---------------------------------------------------------------------------

def test_transpose_full_of_unitary_is_inverse():
    rng = np.random.default_rng(2)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    u, _ = np.linalg.qr(g)
    ch = channel_from_kraus([u])
    rec = transpose_channel(ch, np.eye(3, dtype=complex))
    # single Kraus, equal to U^dag up to a global phase
    assert len(rec.kraus) == 1
    k = rec.kraus[0]
    phase = k[0, :] @ u[:, 0]
    assert_allclose(k, u.conj().T * np.exp(-1j * np.angle(phase)) * abs(phase), atol=1e-9)
    comp = compose(rec, ch)
    rho = random_state(3, rng)
    assert_allclose(apply_channel(comp, rho), rho, atol=1e-10)


def test_transpose_full_of_dephasing_is_dephasing():
    ch = zoo.fixture("dephasing_qubit")
    rec = transpose_channel(ch, np.eye(2, dtype=complex))
    assert_allclose(
        to_superoperator(rec).matrix, to_superoperator(ch).matrix, atol=1e-10
    )


def test_transpose_restores_support_projector():
    # composite acts unitally on the support: P comes back to P
    cases = [
        (embed_classical(zoo.fixture("cyclic_four")), np.diag([1.0, 0, 1.0, 0])),
        (zoo.fixture("ucp_d3"), np.diag([1.0, 1.0, 0.0])),
        (zoo.fixture("depolarize_B"), np.eye(4) / 1.0),
    ]
    for ch, p in cases:
        p = p.astype(complex)
        rec = transpose_channel(ch, p)
        comp = compose(rec, ch)
        assert np.linalg.norm(apply_channel(comp, p) - p) < 1e-9


def test_transpose_sub_trace_preserving_when_image_not_full():
    # E(|2><2|) for this channel is supported on a plane, so the recovery
    # loses trace outside that plane
    ch = zoo.fixture("qutrit_half_fail")
    p = np.diag([0.0, 0.0, 1.0]).astype(complex)
    rep = is_cptp(transpose_channel(ch, p))
    assert not rep.trace_preserving


def test_transpose_validation_and_numerical_errors():
    ch = zoo.fixture("dephasing_qubit")
    with pytest.raises(ValidationError):
        transpose_channel(ch, np.diag([1.0, 0.5]))
    with pytest.raises(ValidationError):
        transpose_channel(ch, np.eye(3, dtype=complex))
    with pytest.raises(NumericalError):
        transpose_channel(ch, np.zeros((2, 2), dtype=complex))


def test_unconditional_recovery_is_adjoint_for_unital():
    for name in ("dephasing_qubit", "depolarize_B", "unitary_A_depolarize_B"):
        ch = zoo.fixture(name)
        rec = unconditional_recovery(ch)
        assert_allclose(
            to_superoperator(rec).matrix,
            to_superoperator(adjoint(ch)).matrix,
            atol=1e-9,
        )


@pytest.mark.parametrize("seed", range(10))
def test_unconditional_composition_unital(seed):
    d = 2 + seed % 3
    ch = zoo.random_cptp(d, 1 + seed % 3, seed)
    comp = compose(unconditional_recovery(ch), ch)
    eye = np.eye(d, dtype=complex)
    assert np.linalg.norm(apply_channel(comp, eye) - eye) < 1e-9


# ---------------------------------------------------------------------------
# structure pipelines
# ---------------------------------------------------------------------------

def test_noiseless_structure_fixtures():
    assert noiseless_structure(zoo.fixture("dephasing_qubit")).shape == (1, 1)
    s = noiseless_structure(zoo.fixture("depolarize_B"))
    assert s.shape == (2,) and s.cofactors == (2,)
    assert_allclose(s.distortion_states[0], np.eye(2) / 2, atol=1e-9)
    assert noiseless_structure(zoo.fixture("cond_dephase_flip")).shape == (2,)
    assert noiseless_structure(zoo.fixture("ucp_d3")).shape == (2,)


def test_noiseless_structure_residuals_small():
    for name in ("dephasing_qubit", "depolarize_B", "cond_dephase_flip"):
        s = noiseless_structure(zoo.fixture(name))
        assert max(s.residuals.values()) < 1e-8, name


def test_noiseless_structure_dimension_bookkeeping():
    for seed in range(10):
        d = 2 + seed % 3
        ch = zoo.random_cptp(d, 2 + seed % 2, seed)
        s = noiseless_structure(ch, seed=seed)
        assert sum(dk * dk for dk in s.shape) == fixed_space(ch).size
        assert s.support_rank <= d


def test_sample_state_is_fixed():
    ch = zoo.fixture("depolarize_B")
    s = noiseless_structure(ch)
    rng = np.random.default_rng(0)
    blocks = [random_state(dk, rng) for dk in s.shape]
    rho = s.sample_state(blocks)
    assert np.linalg.norm(apply_channel(ch, rho) - rho) < 1e-9
    # one block or weight per sector: none is dropped or ignored
    two = noiseless_structure(zoo.fixture("unitary_A_depolarize_B"))
    assert len(two.algebra.sectors) == 2
    for blocks in [np.eye(1)], [np.eye(1)] * 3:
        with pytest.raises(ValidationError, match="sectors"):
            two.sample_state(blocks)
        with pytest.raises(ValidationError, match="sectors"):
            two.algebra.element(blocks)
    with pytest.raises(ValidationError, match="1 weights for 2 sectors"):
        two.sample_state([np.eye(1)] * 2, [1.0])


def test_unitarily_noiseless_vs_noiseless_rotation():
    ch = zoo.fixture("unitary_A_depolarize_B")
    assert noiseless_structure(ch).shape == (1, 1)
    s = unitarily_noiseless_structure(ch)
    assert s.shape == (2,)
    assert s.kind == "unitarily-noiseless"


def test_unitarily_noiseless_equals_noiseless_without_rotation():
    for name in ("dephasing_qubit", "depolarize_B"):
        a = noiseless_structure(zoo.fixture(name))
        b = unitarily_noiseless_structure(zoo.fixture(name))
        assert a.shape == b.shape and a.cofactors == b.cofactors


def test_unconditional_structures():
    assert unconditional_structure(zoo.fixture("ucp_d3")).shape == (1,)
    ch = embed_classical(zoo.fixture("uncond_classical"))
    assert unconditional_structure(ch).shape == (1, 1)
    # unconditional never exceeds noiseless: here noiseless keeps a qubit
    assert noiseless_structure(zoo.fixture("ucp_d3")).shape == (2,)


def _square_channel(name):
    """The fixture as a square quantum channel (a classical map embedded), or None."""
    obj = zoo.fixture(name)
    if isinstance(obj, StochasticChannel) and obj.n_in == obj.n_out:
        return embed_classical(obj)
    return obj if getattr(obj, "is_square", False) else None


NESTING_INPUTS = {
    **{n: (lambda n=n: _square_channel(n)) for n in zoo.fixture_names()
       if _square_channel(n) is not None},
    **{f"cptp-{d}": (lambda d=d: zoo.random_cptp(d, 3, 1)) for d in (4, 8, 16)},
    **{f"dfs-{d}": (lambda d=d: zoo.random_dfs_channel(d, d // 2, 1)) for d in (4, 8, 16)},
}


@pytest.mark.parametrize("build", NESTING_INPUTS.values(), ids=NESTING_INPUTS.keys())
def test_noiseless_algebra_lies_in_the_unitarily_noiseless_algebra(build):
    # a fixed point is a unit-modulus eigenoperator, so the noiseless algebra is a
    # subalgebra of the unitarily-noiseless one; from d = 8 on the two sides come
    # from the two certified splits of one channel.  The unconditional structure
    # analyzes another map, so it is not compared
    def units(structure):  # orthonormal matrix units of the algebra, one per row
        a = np.concatenate([ipstruct.algebra._matrix_units(s, np.eye(s.n)) / np.sqrt(s.n)
                            for s in structure.algebra.sectors])
        return a.reshape(len(a), -1)

    ch = build()
    inner, outer = units(noiseless_structure(ch)), units(unitarily_noiseless_structure(ch))
    assert len(inner) <= len(outer)
    assert np.linalg.norm(inner - (inner @ outer.conj().T) @ outer, 2) <= DEFAULT_TOL.subspace


@pytest.mark.parametrize("name", ["unitary_A_depolarize_B", "depolarize_B"])
def test_unital_adjoint_composite_matches_unconditional(name):
    # for a unital channel the input-blind recovery is the adjoint, so the
    # fixed points of E^dag o E carry the unconditional structure
    ch = zoo.fixture(name)
    a = noiseless_structure(compose(adjoint(ch), ch))
    b = unconditional_structure(ch)
    assert sorted(zip(a.shape, a.cofactors)) == sorted(zip(b.shape, b.cofactors))


@pytest.mark.parametrize("analyze", [
    noiseless_structure, unitarily_noiseless_structure, unconditional_structure,
])
def test_one_superoperator_per_analysis(analyze, monkeypatch):
    calls = []
    original = ipstruct.channels.to_superoperator

    def counted(ch):
        calls.append(ch)
        return original(ch)

    for module in (ipstruct, ipstruct.channels, ipstruct.spectral,
                   ipstruct.structures, ipstruct.codes):
        if hasattr(module, "to_superoperator"):
            monkeypatch.setattr(module, "to_superoperator", counted)
    factorizations = []
    for module, name in ((scipy.linalg.lapack, "dgees"), (scipy.linalg, "eigh"),
                         (scipy.linalg.lapack, "dgetrf"), (scipy.linalg.lapack, "dpotrf")):
        def counted_factorization(*args, _name=name, _original=getattr(module, name), **kwargs):
            a = args[1] if _name == "dgees" else args[0]  # dgees(select, a, ...)
            if kwargs.get("lwork") != -1:  # not the workspace query
                factorizations.append((_name, a.dtype))
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted_factorization)
    analyze(zoo.random_cptp(8, 3, 1))
    assert len(calls) == 1
    # real factorizations, in Hermitian coordinates; the certified solve proves
    # each split without a dense one.  The composite R o E of the unconditional
    # analysis is self-adjoint: the Cholesky factor of (1 + delta) - M, then the
    # one that certifies the fixed points.  E is not: one LU factorization for
    # each split, and the Cholesky factorization that certifies the fixed points
    expected = {unconditional_structure: [("dpotrf", np.float64)] * 2,
                noiseless_structure: [("dgetrf", np.float64), ("dpotrf", np.float64)],
                unitarily_noiseless_structure: [("dgetrf", np.float64)]}[analyze]
    assert factorizations == expected


def _fixing_recovery(code_name):
    return lambda ch: build_fixing_recovery(zoo.code_fixture(code_name), ch)


@pytest.mark.parametrize("analyze, build", [
    *(pytest.param(analyze, build, id=f"{analyze.__name__}-{name}")
      for analyze in (noiseless_structure, unitarily_noiseless_structure,
                      unconditional_structure, fixed_point_structure)
      for name, build in (("random_cptp", lambda: zoo.random_cptp(8, 3, 1)),
                          ("squash_three", lambda: embed_classical(zoo.fixture("squash_three"))))),
    pytest.param(_fixing_recovery("ucp_sub"), lambda: zoo.fixture("ucp_d3"),
                 id="build_fixing_recovery-ucp_d3"),
    pytest.param(_fixing_recovery("product_a_ground"),
                 lambda: zoo.fixture("measure_then_depolarize"),
                 id="build_fixing_recovery-measure_then_depolarize"),
])
def test_one_support_pass_and_one_sort_per_decomposition(analyze, build, monkeypatch):
    # the spectral space's support is found once and serves the compression and
    # P0; the dual is orthonormal as the split builds it, so only a compression
    # onto a smaller support checks a basis; the sectors are sorted once, lifted
    calls = {"_joint_support": 0, "_is_orthonormal": 0, "_sector_key": 0}
    for module, name in ((ipstruct.spectral, "_joint_support"),
                         (ipstruct.spectral, "_is_orthonormal"),
                         (ipstruct.algebra, "_is_orthonormal"),
                         (ipstruct.algebra, "_sector_key")):
        def counted(*args, _name=name, _original=getattr(module, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(module, name, counted)
    decompositions = []

    def recorded(*args, _original=ipstruct.structures._decompose_on):
        decompositions.append(_original(*args))
        return decompositions[-1]

    monkeypatch.setattr(ipstruct.structures, "_decompose_on", recorded)
    analyze(build())
    [dec] = decompositions
    assert calls["_joint_support"] == 1
    assert calls["_is_orthonormal"] == int(dec.support_rank() < dec.ambient_dim) <= 1
    assert calls["_sector_key"] == len(dec.sectors)


@pytest.mark.parametrize("analyze", [
    noiseless_structure, unitarily_noiseless_structure, unconditional_structure,
])
def test_no_closure_check_and_one_centre_per_attempt(analyze, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an analysis ran the full closure check")

    for module in (ipstruct, ipstruct.algebra, ipstruct.structures, ipstruct.codes):
        if hasattr(module, "is_algebra"):
            monkeypatch.setattr(module, "is_algebra", refuse)
    calls = {"_eigen_clusters": 0, "_decompose_once": 0}
    for name in calls:
        original = getattr(ipstruct.algebra, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(ipstruct.algebra, name, counted)
    analyze(zoo.random_cptp(8, 3, 1))
    # one eigensolve of one generic element per attempt, whatever the sectors
    assert calls["_eigen_clusters"] == calls["_decompose_once"] >= 1


def test_large_algebras_decompose_in_seconds():
    # with a closure check of k^3 r^2 flops these took 17.6 s and 2.3 s
    # (one BLAS thread); now about 0.12 s and 0.2 s
    channels = [channel_from_kraus([np.eye(20)]), zoo.random_dfs_channel(24, 12, 1)]
    start = time.perf_counter()
    shapes = [noiseless_structure(ch).shape for ch in channels]
    assert time.perf_counter() - start < 5.0
    assert shapes == [(20,), (12, 1)]


@pytest.mark.parametrize("build, shape, cofactors", [
    (lambda: channel_from_kraus([np.eye(12)]), (12,), (1,)),
    (lambda: zoo.random_dfs_channel(16, 8, 1), (8, 1), (1, 8)),
], ids=["identity-d12", "planted-dfs-d16"])
def test_large_algebras_stay_small_in_memory(build, shape, cofactors):
    # the algebra layer once took a full SVD of a (k r^2) x r^2 matrix here:
    # killed for memory at d=12, a 4.13 GiB allocation error at d=16
    ch = build()
    tracemalloc.start()
    try:
        s = noiseless_structure(ch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (s.shape, s.cofactors) == (shape, cofactors)
    assert peak < 32 * 2**20


@pytest.mark.parametrize("analyze", [
    noiseless_structure, unitarily_noiseless_structure, unconditional_structure,
])
def test_identity_d32_decomposes_below_100_mb(analyze):
    # a full matrix algebra of k = r^2 = 1024 elements, so each span is a
    # 16 MB stack; the commutator Gram of the centre once peaked at 112 MB.
    # The certificate maps the k-element structure basis in chunks of 32^2 / 8
    ch = channel_from_kraus([np.eye(32)])
    tracemalloc.start()
    try:
        s = analyze(ch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (s.shape, s.cofactors) == ((32,), (1,))
    # about 48.5 MiB; a second support pass, compression and orthonormality
    # check of the 16 MB span took it to 72.2 MiB.  The dense certificate of
    # the unitarily-noiseless analysis still takes it to about 70.5 MiB
    assert peak < (100 * 2**20 if analyze is unitarily_noiseless_structure else 64 * 2**20)


@pytest.mark.parametrize("build, chunks", [
    *((lambda s=s: zoo.random_dfs_channel(12, 4, s), [17]) for s in range(3)),
    *((lambda s=s: zoo.random_dfs_channel(10, 5, s), [13, 13]) for s in range(3)),
    (lambda: channel_from_kraus([np.eye(16)]), [32] * 8),
], ids=[*(f"dfs-12-4-{s}" for s in range(3)), *(f"dfs-10-5-{s}" for s in range(3)),
        "identity-d16"])
def test_algebra_check_takes_the_certificate_chunks(build, chunks, monkeypatch):
    # the reconstruction distance reads the basis in chunks of d^2 / 8 elements, as
    # the structure certificate does: k = 17 elements at d = 12 in one chunk of 18,
    # k = 26 at d = 10 in two of 13, and the d = 16 identity's 256 in eight of 32
    seen, in_sectors = [], ipstruct.algebra._in_sectors

    def counted(sectors, cofactors, x):
        seen.append(len(x))
        return in_sectors(sectors, cofactors, x)

    monkeypatch.setattr(ipstruct.algebra, "_in_sectors", counted)
    noiseless_structure(build())
    assert seen == chunks


def test_planted_dfs_d32_structure_peak_does_not_rise():
    # the algebra check's chunks of d^2 / 8 elements and the in-place solve of the
    # lambda = 1 block add nothing to the peak: 1.197 (S + M_r), S + M_r = 24 d^4 bytes,
    # in a fresh process, 1.198 with chunks of k / 8 and a block grown from 2 columns;
    # a C-order draw, its solve and the hstack, three n x 2k blocks, read 1.364
    d = 32
    ch = zoo.random_dfs_channel(d, d // 2, 1)
    tracemalloc.start()
    try:
        s = noiseless_structure(ch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (s.shape, s.cofactors) == ((16, 1), (1, 16))
    assert peak <= 1.1984 * 24 * d ** 4


@pytest.mark.parametrize("analyze", [
    noiseless_structure, unitarily_noiseless_structure, unconditional_structure,
])
@pytest.mark.parametrize("d, seed", [(16, 1), (16, 2), (20, 1)])
def test_spectral_analysis_holds_one_superoperator(analyze, d, seed):
    # the superoperator S, its real form (half of S) and O(d^3) blocks: the
    # peak above the start stays under 1.8 S; copies of S once made it 2.1 S
    ch = zoo.random_cptp(d, 3, seed)
    tracemalloc.start()
    try:
        analyze(ch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.8 * 16 * d**4


@pytest.mark.parametrize("d, dfs", [(10, 5), (12, 4)])
@pytest.mark.parametrize("seed", range(3))
def test_structures_invariant_under_gauge_conjugation_and_seed(d, dfs, seed):
    ch = zoo.random_dfs_channel(d, dfs, seed)
    rng = np.random.default_rng(seed)
    mix = unitary_group.rvs(len(ch.kraus), random_state=rng)
    u = unitary_group.rvs(d, random_state=rng)
    mixed = channel_from_kraus([sum(m * k for m, k in zip(row, ch.kraus)) for row in mix])
    turned = channel_from_kraus([u @ k @ u.conj().T for k in ch.kraus])

    def verdict(s):
        # the certificates draw nothing: the same residual keys, each within its bound
        for key, value in s.residuals.items():
            assert value <= RESIDUAL_BOUNDS[key], (key, value)
        return s.shape, s.cofactors, s.support_rank, sorted(s.residuals)

    for analyze in (noiseless_structure, fixed_point_structure,
                    unitarily_noiseless_structure, unconditional_structure):
        expected = verdict(analyze(ch))
        assert verdict(analyze(mixed)) == expected
        assert verdict(analyze(turned)) == expected
        assert verdict(analyze(ch, seed=seed + 5)) == expected


# the bound each residual is held to: the decomposition's, the probe spread's
# and the structure certificate's; the Kraus certificates are reported, and
# read below 1e-8 on these channels
RESIDUAL_BOUNDS = {"algebra_closure": DEFAULT_TOL.subspace,
                   "tau_cross_check": DEFAULT_TOL.subspace,
                   "fixed_state_residual": FIXED_STATE_RESIDUAL,
                   "span_leak": FIXED_STATE_RESIDUAL, "gram_change": FIXED_STATE_RESIDUAL,
                   "kraus_invariance": 1e-8, "kraus_commutation": 1e-8}


def _dephase_a():
    # dephases the first qubit of two: keeps the span of x (x) 1/2 but not unitarily
    return channel_from_kraus([np.kron(np.diag(e), np.eye(2)) for e in np.eye(2)])


def _damp_b():
    # resets the second qubit of two: moves x (x) 1/2 out of that span
    return channel_from_kraus([np.kron(np.eye(2), np.outer(np.eye(2)[0], e)) for e in np.eye(2)])


@pytest.mark.parametrize("space, other, kind, key", [
    (lambda: fixed_space(zoo.fixture("depolarize_B")), zoo.fixture("unitary_A_depolarize_B"),
     "noiseless", "fixed_state_residual"),
    (lambda: rotating_space(zoo.fixture("unitary_A_depolarize_B")), _dephase_a(),
     "unitarily-noiseless", "gram_change"),
    (lambda: rotating_space(zoo.fixture("unitary_A_depolarize_B")), _damp_b(),
     "unitarily-noiseless", "span_leak"),
], ids=["fixed-by-another-map", "not-unitary-on-the-span", "leaving-the-span"])
def test_structure_checked_against_a_map_that_does_not_preserve_it(space, other, kind, key):
    with pytest.raises(DecompositionError) as info:
        ipstruct.structures._structure_from_space(space(), other, kind, 0, DEFAULT_TOL)
    assert info.value.residuals[key] > FIXED_STATE_RESIDUAL


def test_unitarily_noiseless_certificate_reads_the_channel(monkeypatch):
    ch = zoo.fixture("unitary_A_depolarize_B")
    applied = []
    original = ipstruct.structures.apply_channel

    def spy(channel, x):
        applied.append((channel, np.shape(x)))
        return original(channel, x)

    monkeypatch.setattr(ipstruct.structures, "apply_channel", spy)
    s = unitarily_noiseless_structure(ch)
    # E itself, on stacks that hold the algebra_dim = 4 basis elements
    assert all(c is ch and len(shape) == 3 for c, shape in applied)
    assert sum(shape[0] for _, shape in applied) == 4
    assert sorted(s.residuals) == ["algebra_closure", "gram_change", "span_leak",
                                   "tau_cross_check"]
    assert max(s.residuals.values()) < 1e-12
    # E rotates the structure states, so a fixedness residual could not certify it
    x = s.sample_state([np.diag([1.0, 0.0])])
    assert np.linalg.norm(apply_channel(ch, x) - x) > 0.1


def test_unitarily_noiseless_sectors_of_unequal_distortion_swap():
    # the map swaps |0> with the mixed plane of |1>, |2>: one classical bit that
    # flips each step.  E preserves the structure's coordinates but not the
    # Hilbert-Schmidt norms of its states (||tau|| is 1 and 1/sqrt(2))
    ch = embed_classical(StochasticChannel(np.array([[0, 1, 1], [0.5, 0, 0], [0.5, 0, 0]])))
    s = unitarily_noiseless_structure(ch)
    assert (s.shape, s.cofactors) == ((1, 1), (2, 1))
    assert s.residuals["span_leak"] < 1e-12 and s.residuals["gram_change"] < 1e-12


DENSE_CERTIFICATE_INPUTS = {
    **{n: (lambda n=n: _square_channel(n)) for n in zoo.fixture_names()
       if _square_channel(n) is not None},
    **{f"cptp-{d}-{s}": (lambda d=d, s=s: zoo.random_cptp(d, 3, s))
       for d in (4, 8, 16) for s in (1, 2)},
    **{f"dfs-{d}-{s}-leak-{leak}": (lambda d=d, s=s, leak=leak:
                                    zoo.random_dfs_channel(d, d // 2, s, leak=leak))
       for d in (4, 8, 16) for s in (1, 2) for leak in (0.0, 0.1)},
    "unequal-distortion-swap": lambda: embed_classical(
        StochasticChannel(np.array([[0, 1, 1], [0.5, 0, 0], [0.5, 0, 0]]))),
}


@pytest.mark.parametrize("build", DENSE_CERTIFICATE_INPUTS.values(),
                         ids=DENSE_CERTIFICATE_INPUTS.keys())
def test_unitarily_noiseless_certificate_matches_the_dense_reference(build):
    ch = build()
    s = unitarily_noiseless_structure(ch)
    expected = dense_rotation_certificate(s, ch)
    for key, value in expected.items():
        assert abs(s.residuals[key] - value) <= 1e-13, (key, s.residuals[key], value)


@pytest.mark.parametrize("other, key", [(_dephase_a, "gram_change"), (_damp_b, "span_leak")],
                         ids=["not-unitary-on-the-span", "leaving-the-span"])
def test_refuted_rotation_matches_the_dense_reference(other, key):
    # the decomposition is the analyzed channel's, so its structure carries the
    # sectors and distortion states that the refuted certificate read
    ch = zoo.fixture("unitary_A_depolarize_B")
    with pytest.raises(DecompositionError) as info:
        ipstruct.structures._structure_from_space(rotating_space(ch), other(),
                                                  "unitarily-noiseless", 0, DEFAULT_TOL)
    expected = dense_rotation_certificate(unitarily_noiseless_structure(ch), other())
    assert info.value.residuals.keys() == expected.keys()
    for k, value in expected.items():
        assert abs(info.value.residuals[k] - value) <= 1e-13, (k, info.value.residuals[k], value)
    assert min(info.value.residuals[key], expected[key]) > FIXED_STATE_RESIDUAL


def test_near_degenerate_spectrum_verdicts():
    # interior eigenvalue 1 - eps: outside the eigenvalue-1 band
    # (tol.peripheral) but closer to the unit circle than tol.spectral_gap
    eps = 1e-7
    ch = channel_from_kraus([
        np.sqrt(1 - eps) * np.eye(2), np.sqrt(eps) * np.diag([1.0, 0.0]),
        np.sqrt(eps) * np.diag([0.0, 1.0]),
    ])
    assert noiseless_structure(ch).shape == (1, 1)
    assert unconditional_structure(ch).shape == (1, 1)
    with pytest.raises(NumericalError) as info:
        unitarily_noiseless_structure(ch)
    assert "cluster_gap" in info.value.residuals


def test_structures_reject_non_square():
    v = np.zeros((3, 2), dtype=complex)
    v[0, 0] = v[1, 1] = 1.0
    ch = channel_from_kraus([v])
    with pytest.raises(ValidationError):
        noiseless_structure(ch)


# ---------------------------------------------------------------------------
# collective noise: the Schur-Weyl answer at every size
# ---------------------------------------------------------------------------

_COLLECTIVE_ANALYSES = (noiseless_structure, unitarily_noiseless_structure,
                        unconditional_structure)


def test_schur_weyl_sectors_count_every_dimension():
    # the sectors of n qubits fill the space: sum_k d_k n_k = 2^n; six qubits
    # give the known (9, 3), (5, 5), (5, 1), (1, 7)
    for n in range(1, 9):
        assert sum(d * m for d, m in schur_weyl_sectors(n)) == 2 ** n
    assert schur_weyl_sectors(6) == [(1, 7), (5, 1), (5, 5), (9, 3)]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("analyze", _COLLECTIVE_ANALYSES, ids=lambda f: f.__name__)
def test_collective_noise_has_the_schur_weyl_structure(analyze, n):
    structure = analyze(collective_noise(n, seed=n))
    assert sorted((s.d, s.n) for s in structure.algebra.sectors) == schur_weyl_sectors(n)
    assert structure.support_rank == 2 ** n
    for key, value in structure.residuals.items():
        assert value <= RESIDUAL_BOUNDS[key], (key, value)


def _sector_projectors(structure) -> dict:
    return {(s.d, s.n): s.isometry @ s.isometry.conj().T for s in structure.algebra.sectors}


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_collective_noise_structure_is_invariant(n):
    # a collective basis change V^(x)n, a global unitary W and a unitary mixing of
    # the Kraus operators: the sectors keep their shape and their projectors
    # follow the conjugation, and the collective one leaves them in place
    ch = collective_noise(n, seed=n)
    rng = np.random.default_rng(n)
    v = unitary_group.rvs(2, random_state=rng)
    vn = np.ones((1, 1))
    for _ in range(n):
        vn = np.kron(vn, v)
    w = unitary_group.rvs(2 ** n, random_state=rng)
    mix = unitary_group.rvs(len(ch.kraus), random_state=rng)
    variants = [(channel_from_kraus(vn @ ch.kraus @ vn.conj().T), vn),
                (channel_from_kraus(w @ ch.kraus @ w.conj().T), w),
                (channel_from_kraus(np.tensordot(mix, ch.kraus, axes=1)), np.eye(2 ** n))]
    for analyze in _COLLECTIVE_ANALYSES:
        base = _sector_projectors(analyze(ch))
        for variant, u in variants:
            got = _sector_projectors(analyze(variant))
            assert got.keys() == base.keys()
            for key, p in got.items():
                assert np.linalg.norm(p - u @ base[key] @ u.conj().T) < 1e-8
                if u is vn:
                    assert np.linalg.norm(p - base[key]) < 1e-8


# ---------------------------------------------------------------------------
# block certificates and initialization freedom
# ---------------------------------------------------------------------------

def test_fixed_point_structure_certificates():
    for name in ("dephasing_qubit", "depolarize_B", "ucp_d3"):
        s = fixed_point_structure(zoo.fixture(name))
        assert s.residuals["kraus_invariance"] < 1e-8, name
        assert s.residuals["kraus_commutation"] < 1e-8, name


def test_fixed_point_structure_on_planted_dfs():
    for seed in (0, 1, 2):
        ch = zoo.random_dfs_channel(5, 2, seed)
        s = fixed_point_structure(ch, seed=seed)
        assert 2 in s.shape
        assert s.residuals["kraus_invariance"] < 1e-8
        assert s.residuals["kraus_commutation"] < 1e-7


def test_initialization_free_planted():
    ch = zoo.random_dfs_channel(5, 2, 3, leak=0.0)
    s = fixed_point_structure(ch)
    idx = next(k for k, sec in enumerate(s.algebra.sectors) if sec.d == 2)
    rep = initialization_free_check(ch, s, idx)
    assert rep.initialization_free
    assert max(rep.kraus_residuals) < 1e-9
    for outside in (-1, len(s.algebra.sectors)):  # no wrap-around to the last sector
        with pytest.raises(ValidationError, match="sector index"):
            initialization_free_check(ch, s, outside)


def test_initialization_free_fails_with_leak():
    ch = zoo.random_dfs_channel(5, 2, 3, leak=0.3)
    s = fixed_point_structure(ch)
    idx = next(k for k, sec in enumerate(s.algebra.sectors) if sec.d == 2)
    rep = initialization_free_check(ch, s, idx)
    assert not rep.initialization_free
    assert max(rep.kraus_residuals) > 1e-3


def test_initialization_free_on_decaying_plane():
    # amplitude from |2> flows into the protected plane, so preparing
    # garbage outside the support corrupts the stored qubit
    ch = zoo.fixture("qutrit_half_fail")
    s = fixed_point_structure(ch)
    assert s.shape == (2,)
    rep = initialization_free_check(ch, s, 0)
    assert not rep.initialization_free


def test_tied_sector_order_does_not_depend_on_the_support_basis(monkeypatch):
    # squash_three has two (1, 1) sectors, one initialization-free and one
    # not; any unitary mix of the support columns spans the same support
    ch = embed_classical(zoo.fixture("squash_three"))

    def flags():
        s = fixed_point_structure(ch)
        return [bool(initialization_free_check(ch, s, k))
                for k in range(len(s.algebra.sectors))]

    expected = flags()
    assert sorted(expected) == [False, True]
    support = ipstruct.spectral._joint_support
    for seed in range(8):
        rng = np.random.default_rng(seed)

        def turned(ops):
            v = support(ops)
            return v @ unitary_group.rvs(v.shape[1], random_state=rng)

        monkeypatch.setattr(ipstruct.spectral, "_joint_support", turned)
        assert flags() == expected, seed


def test_initialization_free_trivial_when_support_is_everything():
    ch = zoo.fixture("dephasing_qubit")
    s = fixed_point_structure(ch)
    for k in range(len(s.algebra.sectors)):
        assert initialization_free_check(ch, s, k).initialization_free
