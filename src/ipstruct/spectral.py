"""Eigenstructure of channel superoperators.

The asymptotic behaviour of a trace-preserving map is governed by its
peripheral spectrum (eigenvalues on the unit circle).  For the fixed points
(``lambda = 1``) or the whole peripheral spectrum (``|lambda| = 1``) this module
extracts the right eigenoperators (the fixed or rotating operator space), the
left ones (that space for the adjoint map) and the spectral projector onto the
right space along all other components: for the fixed points, the time average.

The split runs in Hermitian coordinates: the orthonormal basis of Hermitian
operators ``E_aa`` and ``((1 - i) E_ab + (1 + i) E_ba) / 2`` (``a != b``), labelled
by the column-stacked index of ``(a, b)``, is the unitary ``U = alpha 1 + conj(alpha) F``
with ``alpha = (1 - i) / 2`` and ``F`` the permutation ``vec(X) -> vec(X^T)``.  Every map
in Kraus form is Hermiticity preserving (``E(X)^dag = E(X^dag)``), so its superoperator
``S`` has ``F S F = conj(S)`` and its matrix in this basis is the real
``M_r = U^dag S U = Re S - Im S F``; the split takes a
:class:`~ipstruct.channels.QuantumChannel` only.  The right space has an
orthonormal basis ``R`` and the left space a basis ``L`` with ``L^T R = 1``; as
operators these are Hermitian, and the projector ``P = R L^dag`` stays factored
(``SpectralSpace.project``).  Its pairing condition is ``||L||_2``.  The
invariant subspace is the eigenspace because the peripheral spectrum of a
trace-preserving positive map is semisimple.  A map with
``||M_r - M_r^T||_F <= SELF_ADJOINT`` is symmetric: by Bauer-Fike no eigenvalue
moves by more than that, far inside ``PERIPHERAL``, and its Schur form is
diagonal, so ``L = R`` with pairing condition 1.

* From ``d^2 >= _CERTIFIED_FLOOR`` a certified solve of the ``lambda = 1``
  cluster comes first.  Block inverse iteration with the factors of
  ``A = M_r - (1 + INVERSE_SHIFT) I``, the Cholesky factor of ``-A`` for a
  symmetric map and else the LU factors, gives ``R``; two solves with ``A^T``
  give ``L`` of any other.  They stand if the residuals are at most ``CERTIFIED_RESIDUAL`` and,
  with ``X = M - R L^T``, the rest of the spectrum is proven outside the
  ``PERIPHERAL`` disc around 1: for the fixed points by a Cholesky factor of
  ``(1 - PERIPHERAL) - (X + X^T) / 2``, or else ``1 / ||(M - 1 + R L^T)^-1||_F >
  PERIPHERAL``; for ``rotating_space`` inside the unit circle, by Cholesky
  factors of ``(1 - SPECTRAL_GAP) -+ X`` if ``X`` is symmetric, else by
  ``||X^p||_F^(1/p) <= 1 - SPECTRAL_GAP`` for a ``p = 2^j``, ``j <= SQUARINGS``.
  The gap it reports is that proven bound, never above the dense value.
* Otherwise, or when a factorization or certificate fails, a dense solve of ``M_r``
  gives the answer, or the error, that the selection rule makes: ``evd`` for a
  symmetric map, else one ordered real Schur form ``M_r = Z T Z^T`` led by the
  selected block ``T11`` (a conjugate pair shares ``|lambda|`` and ``|lambda - 1|``,
  so it is selected or dropped whole), with ``R = Z1``, ``L = Z1 + Z2 X^T`` for
  ``T11 X - X T22 = T12``, and pairing condition ``sqrt(1 + ||X||_2^2)``.

Memory: the change of coordinates holds the complex superoperator of the
transposed map (only read) and writes its real form ``M_r`` (half of it) in one
pass, with no temporary; the superoperator is freed before any factorization.
The certified solve reads ``M_r`` and fills one buffer of its size in place (two
while it squares) beside the ``n x (k + 2)`` block of :func:`_amplified`; a dense
solve overwrites ``M_r``, ``evd`` with two more buffers.  Only the selected
columns outlive the split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .channels import QuantumChannel, Superoperator, _psd_support, to_superoperator
from .errors import NumericalError, ValidationError
from .tolerances import (BASIS_ORTHONORMAL, CERTIFIED_RESIDUAL, INVERSE_CUT, INVERSE_SHIFT,
                         PAIRING_CONDITION, PERIPHERAL, RANK_REL, SELF_ADJOINT, SPECTRAL_GAP,
                         SQUARINGS)

__all__ = [
    "OperatorSpace",
    "SpectralSpace",
    "operator_space_from_span",
    "fixed_space",
    "rotating_space",
]


@dataclass(frozen=True)
class OperatorSpace:
    """A span of operators with a Hilbert-Schmidt orthonormal ``(size, dim, dim)`` basis."""

    dim: int
    basis: np.ndarray

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=complex).reshape(-1, self.dim, self.dim)
        object.__setattr__(self, "basis", basis)

    @property
    def size(self) -> int:
        return len(self.basis)

    def vec_matrix(self) -> np.ndarray:
        """``dim^2 x size`` matrix whose columns are the column-stacked basis."""
        return self.basis.transpose(0, 2, 1).reshape(-1, self.dim ** 2).T

    def support(self) -> np.ndarray:
        """Orthonormal columns spanning the joint support of the span."""
        return _joint_support(self.basis)

    def compressed(self, v: np.ndarray) -> "OperatorSpace":
        """The span of ``v^dag b v`` for an isometry ``v``, orthonormalized if it shrinks."""
        local = OperatorSpace(dim=v.shape[1], basis=v.conj().T @ self.basis @ v)
        if _is_orthonormal(local.basis):
            return local
        return operator_space_from_span(local.vec_matrix(), local.dim)


@dataclass(frozen=True)
class SpectralSpace(OperatorSpace):
    """The right eigenoperators of a selected part of the spectrum.

    ``dual`` spans the matching left eigenoperators (those of the adjoint
    map).  The spectral projector onto this space along the rest of the
    spectrum is kept factored as ``P(x) = sum_i <L_i, x> B_i`` over the basis
    and the matching left eigenoperators, the ``(size, dim, dim)`` stack ``left``.
    """

    dual: OperatorSpace
    left: np.ndarray

    def project(self, x: np.ndarray) -> np.ndarray:
        """``P(x) = sum_i <L_i, x> B_i`` for one operator or a stack of them."""
        x = np.asarray(x)
        # <L_i, x> read as conj(conj(x) L^T): the conjugate is taken on the small side
        coeff = (x.reshape(-1, self.dim ** 2).conj() @ self.left.reshape(self.size, -1).T).conj()
        return (coeff @ self.basis.reshape(self.size, -1)).reshape(x.shape)

    @property
    def projector(self) -> Superoperator:
        """The spectral projector as a dense ``d^2 x d^2`` matrix, built on each read."""
        left = self.left.transpose(0, 2, 1).reshape(self.size, -1)  # rows are vec(L_i)
        return Superoperator(dim_in=self.dim, dim_out=self.dim,
                             matrix=self.vec_matrix() @ left.conj())


def _is_orthonormal(basis: np.ndarray) -> bool:
    """Whether a ``(k, dim, dim)`` stack's Gram matrix is within ``BASIS_ORTHONORMAL`` of 1."""
    flat = basis.reshape(-1, basis.shape[-1] ** 2)
    gram = flat.conj() @ flat.T
    return bool(np.max(np.abs(gram - np.eye(len(basis))), initial=0.0) <= BASIS_ORTHONORMAL)


def _joint_support(ops: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the range of ``sum_x x x^dag + x^dag x``
    over a ``(k, dim, dim)`` stack ``ops``; largest eigenvalue first.
    Eigenvalues below ``RANK_REL`` times the largest count as zero."""
    d = ops.shape[-1]
    wide, tall = ops.transpose(1, 0, 2).reshape(d, -1), ops.reshape(-1, d)  # [x_1 ...], [x_1; ...]
    return _psd_support(wide @ wide.conj().T + tall.conj().T @ tall)[1]


def operator_space_from_span(vectors: np.ndarray, dim: int) -> OperatorSpace:
    """Orthonormalize a set of vectorized operators (columns) into a space.

    Directions with singular value below ``RANK_REL`` times the largest
    are dropped, so linearly dependent inputs are harmless.
    """
    v = np.asarray(vectors, dtype=complex)
    if v.ndim != 2 or v.shape[0] != dim * dim:
        raise NumericalError(f"span matrix has shape {v.shape}, expected ({dim*dim}, k)")
    u, s, _ = np.linalg.svd(v, full_matrices=False)
    keep = s > RANK_REL * np.max(s, initial=0.0)
    # the columns are column-stacked: a row of u^T, read in C order, is an operator transposed
    return OperatorSpace(dim=dim, basis=u[:, keep].T.reshape(-1, dim, dim).transpose(0, 2, 1))


# ---------------------------------------------------------------------------
# the spectral split
# ---------------------------------------------------------------------------

def _coordinates(ch: QuantumChannel) -> np.ndarray:
    """The real matrix ``M_r = Re S - Im S F`` of a square channel in Hermitian coordinates,
    in Fortran order so that LAPACK can overwrite it.

    It reads ``T = S^T``, the superoperator of the map with Kraus operators ``K^T`` (a view
    of the stack), freed on return.  ``F T F = conj(T)`` makes ``M_r^T = Re T + Im T F``,
    whose rows are those of ``T``: one pass in C order, with no temporary."""
    if not isinstance(ch, QuantumChannel):
        raise ValidationError(
            f"spectral analysis takes a QuantumChannel, not {type(ch).__name__}")
    if not ch.is_square:
        raise ValidationError("spectral analysis requires a square channel")
    d = ch.dim_in
    t = to_superoperator(QuantumChannel(ch.kraus.transpose(0, 2, 1), d, d)).matrix
    out = np.empty((d * d, d * d))
    # copyto and an in-place add read the strided views without a ufunc buffer
    o3, t3 = out.reshape(-1, d, d), t.reshape(-1, d, d)
    np.copyto(o3, t3.imag.transpose(0, 2, 1))
    o3 += t3.real
    return out.T


def _hermitian_operators(z: np.ndarray, d: int) -> np.ndarray:
    """The C-contiguous ``(k, d, d)`` stack of operators with real Hermitian coordinate
    columns ``z``: a column ``Y``, read in C order as a ``d x d`` array, gives the operator
    ``(Y + Y^T) / 2 + i (Y - Y^T) / 2``, built per ``(d, d)`` slice."""
    y = np.asarray(z, dtype=float).T.reshape(-1, d, d)
    out = np.empty(y.shape, dtype=complex)
    np.add(y, y.transpose(0, 2, 1), out=out.real)
    np.subtract(y, y.transpose(0, 2, 1), out=out.imag)
    out *= 0.5
    return out


def _ordered_schur(m_r: np.ndarray, select) -> tuple[np.ndarray, int, np.ndarray, np.ndarray]:
    """``(T, k, Z, |lambda|)`` from LAPACK ``dgees``, ``T`` led by the ``k`` eigenvalues
    that ``select`` accepts, the moduli in the order of ``T``'s diagonal.  It overwrites
    ``m_r``; the workspace query's outputs are dropped."""
    dgees = scipy.linalg.lapack.dgees
    lwork = int(dgees(select, m_r, lwork=-1, overwrite_a=True)[-2][0])
    t, k, wr, wi, z, _, info = dgees(select, m_r, sort_t=1, lwork=lwork, overwrite_a=True)
    if info != 0:  # 1..n: the QR iteration failed; n + 1 and n + 2: the reordering did
        reason = {len(m_r) + 1: "eigenvalues too close to reorder",
                  len(m_r) + 2: "a selected eigenvalue left the selection when reordered"}
        raise NumericalError("ordered Schur form failed: " + reason.get(
            info, f"the QR iteration did not converge (info {info})"),
            residuals={"schur_info": float(info)})
    return t, k, z, np.hypot(wr, wi)


def _amplified(factor: np.ndarray, piv: np.ndarray | None = None) -> np.ndarray:
    """Orthonormal columns spanning what solves with ``A = M - (1 + delta) I`` amplify by
    more than ``INVERSE_CUT / delta``, from its LU factors ``(factor, piv)`` or, without
    ``piv``, the Cholesky factor ``U`` of ``-A = U^T U``, whose pivots are ``U_ii^2``.

    Block inverse iteration from a fixed-seed block, drawn in Fortran order and solved in
    place, of ``k + min(k, 2)`` columns for the count ``k`` of pivots below ``delta /
    INVERSE_CUT`` (at least 1): it grows until ``min(k, 2)`` columns come out unamplified
    (``k`` singular values of ``Y = A^-1 X`` above the cut, from ``Y^T Y``, which loses only
    what lies 1e-8 below the largest), to the new ``k + min(k, 2)`` or, while all are
    amplified, to ``2 k``; one more solve on those ``k`` gives them.  No column once ``2 k >=
    n``.  The size only moves cost: a cluster direction that the block misses leaves ``X = M -
    R L^T`` an eigenvalue near 1, a certificate fails and the dense solve answers.
    """
    lapack, n, rng = scipy.linalg.lapack, len(factor), np.random.default_rng(0)
    pivots = factor.diagonal() ** 2 if piv is None else abs(factor.diagonal())
    solve = ((lambda b: lapack.dpotrs(factor, b, overwrite_b=True)[0]) if piv is None
             else lambda b: lapack.dgetrs(factor, piv, b, overwrite_b=True)[0])
    y, k = np.empty((n, 0)), max(1, int(np.sum(pivots * INVERSE_CUT < INVERSE_SHIFT)))
    while 2 * k < n and y.shape[1] < k + min(k, 2):
        width = 2 * k if k == y.shape[1] else k + min(k, 2)
        x = solve(rng.standard_normal((width - y.shape[1], n)).T / math.sqrt(n))
        y = np.hstack([y, x]) if y.shape[1] else x
        w, v = np.linalg.eigh(y.T @ y)  # ascending
        k = int(np.count_nonzero(INVERSE_SHIFT ** 2 * w > INVERSE_CUT ** 2))
    return np.linalg.qr(solve(y @ v[:, len(w) - k:]))[0] if 2 * k < n else np.empty((n, 0))


def _bounded(buf: np.ndarray, m_r: np.ndarray, r: np.ndarray, l: np.ndarray,
             sign: float, bound: float) -> bool:
    """Whether ``(1 - bound) - sign (X + X^T) / 2``, ``X = M - R L^T``, has a Cholesky
    factor, built 32 rows at a time and factored in ``buf``'s upper triangle: then every
    eigenvalue of ``X``, ``M``'s off the cluster and 0 on it, has ``sign Re < 1 - bound``."""
    np.copyto(buf, m_r)
    buf = scipy.linalg.blas.dgemm(-1.0, r, l, beta=1.0, c=buf, trans_b=True, overwrite_c=True)
    for i in range(0, len(buf), 32):
        buf[i:i + 32, i:] = -0.5 * sign * (buf[i:i + 32, i:] + buf[i:, i:i + 32].T)
    buf[np.diag_indices_from(buf)] += 1.0 - bound
    return scipy.linalg.lapack.dpotrf(buf, overwrite_a=True, clean=False)[1] == 0


def _certified(m_r: np.ndarray, peripheral: bool,
               symmetric: bool = False) -> tuple[np.ndarray, np.ndarray, float, float] | None:
    """Right and left bases ``R``, ``L`` of the eigenvalue-1 cluster with ``L^T R = 1``,
    a proven lower bound on the gap ``1 - |lambda|`` over the rest of the spectrum
    (``-inf`` unless ``peripheral``) and ``||L||_2``; ``None`` when a certificate fails.

    ``m_r`` is only read.  One more ``n x n`` buffer holds the factors of
    ``M - (1 + delta) I`` (of its negative if ``symmetric``, where ``L = R``), then the
    certificates of :func:`_bounded`; when the fixed points' fails, ``M - 1 + R L^T`` and
    its inverse; for a peripheral ``M`` that is not symmetric, squarings beside a second.
    """
    lapack, dgemm, n = scipy.linalg.lapack, scipy.linalg.blas.dgemm, len(m_r)
    diagonal, sign = np.arange(n), -1.0 if symmetric else 1.0
    # sign A, A = M - (1 + delta) I, in a Fortran-order buffer that LAPACK and BLAS overwrite in
    # place: -A of a symmetric M has a Cholesky factor unless an eigenvalue reaches 1 + delta
    buf = np.multiply(m_r, sign, order="F")
    buf[diagonal, diagonal] -= sign * (1.0 + INVERSE_SHIFT)
    # a Cholesky pivot never exceeds its diagonal entry: half of them below the cut draw no block
    if symmetric and 2 * np.sum(buf.diagonal() * INVERSE_CUT < INVERSE_SHIFT) >= n:
        return None
    *factors, info = (lapack.dpotrf(buf, overwrite_a=True, clean=False) if symmetric
                      else lapack.dgetrf(buf, overwrite_a=True))
    if info != 0 or (r := _amplified(*factors)).shape[1] == 0:
        return None
    l, cond = r, 1.0  # the Schur form of a symmetric M is diagonal
    if not symmetric:
        # A^-T = sum_i (lambda_i - 1 - delta)^-1 l_i r_i^T amplifies the left cluster by
        # 1/delta; R meets it through the nonsingular Gram matrix of the right cluster, and
        # two solves leave (delta / gap)^2 of the rest
        l = lapack.dgetrs(*factors, lapack.dgetrs(*factors, r, trans=1)[0], trans=1)[0]
        try:
            l = l @ np.linalg.inv(r.T @ l)
        except np.linalg.LinAlgError:
            return None
        cond = math.sqrt(np.linalg.eigvalsh(l.T @ l)[-1])  # ||L||_2 from the k x k Gram matrix
    residual = max(np.linalg.norm(m_r @ r - r), np.linalg.norm(m_r.T @ l - l) / cond)
    if not residual <= CERTIFIED_RESIDUAL:
        return None
    if not peripheral:  # the rest lies left of Re(lambda) = 1 - PERIPHERAL, outside the disc
        if _bounded(buf, m_r, r, l, 1.0, PERIPHERAL):
            return r, l, -math.inf, cond
        # a non-normal X: every eigenvalue of M - 1 + R L^T, those of M - 1 off the cluster
        # among them, is at least its least singular value, at least 1 / ||(...)^-1||_F
        np.copyto(buf, m_r)
        buf[diagonal, diagonal] -= 1.0
        lu, piv, info = lapack.dgetrf(dgemm(1.0, r, l, beta=1.0, c=buf, trans_b=True,
                                            overwrite_c=True), overwrite_a=True)
        if info == 0:  # the blocked inverse: 3.4x the default workspace's speed, n = 1024
            lwork = int(lapack.dgetri_lwork(n)[0])
            buf, info = lapack.dgetri(lu, piv, lwork=lwork, overwrite_lu=True)
        proven = info == 0 and 1.0 / np.linalg.norm(buf) > PERIPHERAL
        return (r, l, -math.inf, cond) if proven else None
    if symmetric:  # ||X||_2 = rho(X): the rest lies in |lambda| < 1 - SPECTRAL_GAP
        bounded = all(_bounded(buf, m_r, r, l, s, SPECTRAL_GAP) for s in (1.0, -1.0))
        return (r, l, SPECTRAL_GAP, cond) if bounded else None
    # rho(M - R L^T) <= ||(M - R L^T)^p||_F^(1/p), p = 2^j: the rest of the spectrum is off
    # the unit circle, and from 1, by the gap this proves, > PERIPHERAL as the inverse would
    np.copyto(buf, m_r)
    buf = dgemm(-1.0, r, l, beta=1.0, c=buf, trans_b=True, overwrite_c=True)  # X = M - R L^T
    spare, log_norm = np.empty_like(buf), -math.inf  # log ||(M - R L^T)^p||_F
    for j in range(SQUARINGS + 1):
        if j:
            buf, spare = dgemm(1.0, buf, buf, c=spare, overwrite_c=True), buf
        scale = float(np.linalg.norm(buf))
        if scale == 0.0:  # the rest of the spectrum is 0
            return r, l, 1.0, cond
        step = 2.0 * log_norm + math.log(scale) if j else math.log(scale)
        if j and step > log_norm + math.log1p(-SPECTRAL_GAP):  # the powers stopped shrinking
            return None
        gap, log_norm = 1.0 - math.exp(step / 2 ** j), step
        if gap >= SPECTRAL_GAP:
            return r, l, gap, cond
        buf /= scale
    return None


# d^2 from which every map tries _certified before the dense solve.  On random_cptp(d, 3, s),
# one BLAS thread, a split took about the same both ways at d = 5 (0.91 ms dense, 0.99 ms
# certified) and half the time certified at d = 8 (4.4 against 1.8 ms); below d = 8 the saving
# is under a millisecond, and small maps keep the dense digits
_CERTIFIED_FLOOR = 64


def _symmetric(m: np.ndarray) -> bool:
    """Whether ``||M - M^T||_F <= SELF_ADJOINT``, summed over 64 x 64 tiles, each against its
    mirror, and stopped once the sum is past the cut.  On ``random_cptp(d, 3, 1)`` and its
    symmetric R o E composite, one BLAS thread, 64 beat 128 and 256 from d = 32 on (d = 64:
    0.015 against 0.48 ms, and 45 against 118 ms for the composite)."""
    n, tile, squares = len(m), 64, 0.0
    for i in range(0, n, tile):
        for j in range(i, n, tile):
            block = m[i:i + tile, j:j + tile] - m[j:j + tile, i:i + tile].T
            squares += (1.0 if i == j else 2.0) * np.linalg.norm(block) ** 2
            if squares > SELF_ADJOINT ** 2:
                return False
    return True


def _fixed(re: float, im: float) -> bool:
    return math.hypot(re - 1.0, im) < PERIPHERAL


def _peripheral(re: float, im: float) -> bool:
    return abs(math.hypot(re, im) - 1.0) < PERIPHERAL


def _split(m_r: np.ndarray, d: int, peripheral: bool) -> tuple[SpectralSpace, float, float]:
    """Split the spectrum of the real matrix ``m_r`` of a map on ``d x d`` operators in
    Hermitian coordinates into the eigenvalues ``|lambda - 1| < PERIPHERAL`` (or, if
    ``peripheral``, ``||lambda| - 1| < PERIPHERAL``) and the rest; ``m_r`` may be overwritten.

    Returns the selected space, a lower bound on the gap ``1 - |lambda|`` to the largest
    unselected eigenvalue and the pairing condition ``||L||_2 = sqrt(1 + ||X||_2^2)``.  The
    gap is ``inf`` if nothing is left, the bound the certified solve proved, or the dense
    value up to rounding; a fixed split that the certified solve or ``evd`` answers: ``-inf``.
    """
    select, n = (_peripheral if peripheral else _fixed), len(m_r)
    symmetric = _symmetric(m_r)
    if n >= _CERTIFIED_FLOOR and (certified := _certified(m_r, peripheral, symmetric)):
        z1, left, gap, cond = certified
    elif symmetric:  # the Schur form is diagonal: X = 0 and the left space is the right one
        try:
            w, z = scipy.linalg.eigh(m_r, overwrite_a=True, driver="evd")
        except scipy.linalg.LinAlgError as exc:
            raise NumericalError(f"symmetric eigensolve failed: {exc}") from exc
        keep = np.fromiter(map(select, w, np.zeros(len(w))), dtype=bool, count=len(w))
        z1, cond = z[:, keep], 1.0
        gap = 1.0 - float(np.max(np.abs(w[~keep]), initial=-math.inf)) if peripheral else -math.inf
        del z
    else:
        t, k, z, moduli = _ordered_schur(m_r, select)
        x = np.zeros((k, n - k))
        gap = 1.0 - float(np.max(moduli[k:], initial=-math.inf))
        if 0 < k < n:
            x, scale, info = scipy.linalg.lapack.dtrsyl(t[:k, :k], t[k:, k:], t[:k, k:], isgn=-1)
            if info != 0:
                raise NumericalError("Sylvester solve for the spectral coupling failed",
                                     residuals={"sylvester_info": float(info)})
            x = x / scale
        z1, left = z[:, :k].copy(), z[:, :k] + z[:, k:] @ x.T
        # ||P|| = 1 / sigma_min(L^dag R) for orthonormal right/left bases R, L
        cond = float(np.sqrt(1.0 + np.linalg.norm(x, 2) ** 2))
        del t, z
    del m_r  # freed here when the caller passed its only reference: the k selected columns stay
    if z1.shape[1] == 0:
        raise NumericalError("no unit-modulus eigenvalues found" if peripheral
                             else "no eigenvalue 1 found; is the map trace preserving?")
    # each distinct stack is written once, C-contiguous: project reads it in place
    right = _hermitian_operators(z1, d)
    dual, left = (right, right) if symmetric else (
        _hermitian_operators(np.linalg.qr(left)[0], d), _hermitian_operators(left, d))
    space = SpectralSpace(dim=d, basis=right, dual=OperatorSpace(dim=d, basis=dual), left=left)
    return space, gap, cond


def fixed_space(ch: QuantumChannel) -> SpectralSpace:
    """Operators with ``E(X) = X`` (``|lambda - 1| < PERIPHERAL``), with
    the fixed points of the adjoint as ``dual`` and the time-averaged channel
    as ``projector``.

    Raises:
        ValidationError: if ``ch`` is not a square ``QuantumChannel``.
        NumericalError: if no eigenvalue is 1, or if the right/left pairing
            is numerically singular (``pairing_condition`` above
            ``PAIRING_CONDITION``).
    """
    space, _, cond = _split(_coordinates(ch), ch.dim_in, False)
    if not np.isfinite(cond) or cond > PAIRING_CONDITION:
        raise NumericalError(
            "eigenvalue-1 right/left eigenvector pairing is numerically singular",
            residuals={"pairing_condition": cond},
        )
    return space


def rotating_space(ch: QuantumChannel) -> SpectralSpace:
    """Span of eigenoperators with unit-modulus eigenvalues (``|lambda| = 1``
    within ``PERIPHERAL``), with the adjoint's span as ``dual`` and the
    peripheral spectral projector as ``projector``.

    Raises:
        ValidationError: if ``ch`` is not a square ``QuantumChannel``.
        NumericalError: if no eigenvalue has unit modulus, or if interior
            eigenvalues crowd the unit circle (cluster gap below
            ``SPECTRAL_GAP``), which would make the separation
            meaningless.
    """
    space, gap, _ = _split(_coordinates(ch), ch.dim_in, True)
    if gap < SPECTRAL_GAP:
        raise NumericalError(
            "peripheral spectrum is not separated from the interior",
            residuals={"cluster_gap": gap},
        )
    return space


# Views of one field of a SpectralSpace, not exported: read ``fixed_space(ch)``
# or ``rotating_space(ch)`` instead.  They stay only while BENCHMARK.json lists
# a metric under each name, and go with those metrics.

def fixed_space_adjoint(ch: QuantumChannel) -> OperatorSpace:
    return fixed_space(ch).dual


def rotating_space_adjoint(ch: QuantumChannel) -> OperatorSpace:
    return rotating_space(ch).dual


def asymptotic_projector(ch: QuantumChannel) -> Superoperator:
    return fixed_space(ch).projector


def peripheral_projector(ch: QuantumChannel) -> Superoperator:
    return rotating_space(ch).projector
