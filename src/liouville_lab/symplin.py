"""Cotamed complex structures and simultaneous pencil reduction.

Conventions, stated in every report: a skew form acts as w(v, w) = v^T A w,
taming means the symmetrized matrix (A J - J^T A)/2 is positive definite,
and the pencil endomorphism is B = A0^{-1} A1.  The block reduction follows
the chain construction of the generalized-eigenspace proof, one path for
both kinds of block: chains v_j = eps^{-j} (B - lam)^j v_0 paired with
w-chains normalized by w0(v_k, w_k) = 1.  A real lam is the case where every
conjugation is the identity; a complex chain lives in C^n and is realified
as sqrt(2) (Re, -Im), which orients each 4x4 block to the printed (mu, nu)
model.  Each block states the d x d unit of w1 and of J (d = 1 for a real
eigenvalue, d = 2 for a conjugate pair); one builder (_block_layout) lays
out the model pair and the blockwise J from these units.

Each pencil command, and each appendix-equivalence trial, analyses its
pencil once (_analyse): both forms' nondegeneracy, B and its spectrum (the
exact charpoly of a rational pencil, the float eigenvalues otherwise).
Existence, the reduction and the construction read it.  The pencil is
reduced once (_reduce): exactly when it can be, else in floats at the given
eps, and the construction builds and verifies one J from that reduction.
The tamed-J sampler draws once: every Cayley perturbation of g-norm below 1
is tamed.

Each question has one decision.  A rational form is nondegenerate when the
Bareiss determinant of _poly.frac_det is nonzero (no Pfaffian); the
segment (1-t) w0 + t w1 stays symplectic exactly when the ray does
(ray_nondegenerate; nothing is sampled); and the taming threshold of
omega + t d is one eigvalsh of sym(A_omega J) against the Cholesky factor
of sym(A_d J) (taming_threshold; no bisection).

The dense primitives of the randomized suites (the nondegeneracy det gate,
compatible_j, the tamed-J draw, the Cayley map and its inverse, the taming
spectrum, the float pencil solve) each have one implementation that takes
one matrix or an (N, n, n) stack and gives every matrix the bits of its own
2-d call; the public functions are that kernel on one matrix.  The cayley,
interpolation, appendix-equivalence and cocompatible suites run their
trials as stacks of at most _TRIAL_STACK, each trial drawing from its own
generator in the per-trial order, and raise what a per-trial loop would
raise first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from fractions import Fraction

import numpy as np

from . import _poly
from .exterior import EXACT, Coframe, Form

Q = Fraction

MAX_PENCIL_DIM = 12
SUITE_DIM = 6  # dimension of the cayley and interpolation suite forms
TAMING_EIG = 1e-10  # tames: min eig of sym(A J) > TAMING_EIG * scale
OMEGA0_GATE = 1e-9  # a reduction passes with w0 residual <= OMEGA0_GATE
OMEGA1_GATE = 10  # and w1 residual <= OMEGA1_GATE * eps
_REAL_REL_TOL = 1e-8  # an eigenvalue is real when |Im| <= this * |Re|
_CLUSTER_REL_TOL = 1e-7  # eigenvalue clusters, relative to the spectrum


class PencilError(ValueError):
    """Ill-conditioned pencil: eigenvalue clusters cannot be separated."""


class CotamedExistenceError(ValueError):
    """construct_cotamed called on a pencil with no cotamed structure."""


class RetryExhaustedError(RuntimeError):
    """The reduction or the J built from it failed its verification."""


# -- one matrix or a stack ----------------------------------------------------------


def _t(m: np.ndarray) -> np.ndarray:
    """The transpose of a matrix, or of each matrix of a stack."""
    return np.swapaxes(m, -1, -2)


def _amax(m: np.ndarray):
    """max |m_ij| of a matrix, or of each matrix of a stack."""
    return np.abs(m).max(axis=(-2, -1))


def _diag(v: np.ndarray) -> np.ndarray:
    """The diagonal matrix of a vector, or of each row of an (N, n) array."""
    n = v.shape[-1]
    out = np.zeros(v.shape + (n,))
    out[..., range(n), range(n)] = v
    return out


# -- skew forms and complex structures ------------------------------------------


@dataclass
class SkewForm:
    """Antisymmetric bilinear form w(v, w) = v^T A w; exact or float."""

    matrix: object  # list-of-lists of Fractions, or np.ndarray

    def __post_init__(self):
        if isinstance(self.matrix, np.ndarray):
            a = self.matrix
            if a.shape[0] != a.shape[1]:
                raise ValueError("square matrix required")
            _require_pencil_dim(a.shape[0])
            if np.max(np.abs(a + a.T)) > 1e-12 * max(1.0, np.max(np.abs(a))):
                raise ValueError("matrix is not antisymmetric")
            self.exact = False
        else:
            rows = [[Q(x) for x in r] for r in self.matrix]
            n = len(rows)
            if any(len(r) != n for r in rows):
                raise ValueError("square matrix required")
            _require_pencil_dim(n)
            for i in range(n):
                for j in range(n):
                    if rows[i][j] != -rows[j][i]:
                        raise ValueError("matrix is not antisymmetric")
            self.matrix = rows
            self.exact = True

    @property
    def dim(self) -> int:
        return len(self.matrix)

    def to_array(self) -> np.ndarray:
        if isinstance(self.matrix, np.ndarray):
            return self.matrix
        return np.array([[float(x) for x in r] for r in self.matrix])

    def to_form(self) -> Form:
        """The corresponding 2-form sum_{i<j} A_ij e^i ^ e^j (exact only)."""
        if not self.exact:
            raise ValueError("to_form requires an exact skew form")
        n = self.dim
        cf = Coframe(tuple(f"e{i + 1}" for i in range(n)))
        terms = {}
        for i in range(n):
            for j in range(i + 1, n):
                if self.matrix[i][j]:
                    terms[(1 << i) | (1 << j)] = self.matrix[i][j]
        return Form(cf, 2, terms, EXACT)


def _require_pencil_dim(n: int) -> None:
    if n % 2 or n > MAX_PENCIL_DIM:
        raise ValueError(f"dimension must be even and <= {MAX_PENCIL_DIM}")


def standard_omega(n2: int) -> SkewForm:
    """Standard form as interleaved Darboux pairs (e1,e2), (e3,e4), ...

    This convention has Pfaffian +1 in every dimension; the block basis of
    the pencil reduction uses the grouped [[0, I], [-I, 0]] layout instead.
    """
    rows = [[Q(0)] * n2 for _ in range(n2)]
    for i in range(0, n2, 2):
        rows[i][i + 1] = Q(1)
        rows[i + 1][i] = Q(-1)
    return SkewForm(rows)


@dataclass
class ComplexStructure:
    """Matrix J with J^2 = -I (1e-10 in float, exact for rational input)."""

    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        _require_square_minus_identity(self.matrix)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _require_square_minus_identity(J: np.ndarray) -> None:
    """The J^2 = -I gate (1e-10) of one matrix or of an (N, n, n) stack."""
    if np.any(_amax(J @ J + np.eye(J.shape[-1])) > 1e-10):
        raise ValueError("matrix does not square to -identity")


def is_nondegenerate(a: SkewForm) -> bool:
    """det A != 0: exactly (the Bareiss elimination of _poly.frac_det) for a
    rational form, by the det gate of _nondegenerate for a float one."""
    if a.exact:
        return _poly.frac_det(a.matrix) != 0
    return bool(_nondegenerate(a.to_array()))


def _nondegenerate(arr: np.ndarray):
    """The det gate |det A| > 1e-12 max(1, max|A_ij|)^n of a float skew
    matrix, or of each matrix of a stack."""
    n = arr.shape[-1]
    # Python's pow per matrix: numpy's vectorised power can differ from it
    # in the last bit
    scale = [max(1.0, x) ** n for x in np.ravel(_amax(arr)).tolist()]
    return np.abs(np.linalg.det(arr)) > 1e-12 * np.reshape(scale,
                                                          arr.shape[:-2])


def tames(a: SkewForm, j: ComplexStructure) -> bool:
    """w tames J iff the symmetric part of A J is positive definite;
    decided exactly for a rational form and an exactly integral J."""
    if a.dim != j.dim:
        raise ValueError("dimension mismatch")
    if a.exact:
        Jm = j.matrix
        if np.array_equal(Jm, np.round(Jm)):
            rows = [[Q(int(round(Jm[r][c]))) for c in range(a.dim)]
                    for r in range(a.dim)]
            prod = _poly.mat_mul(a.matrix, rows)
            sym = [[(prod[r][c] + prod[c][r]) / 2 for c in range(a.dim)]
                   for r in range(a.dim)]
            return _exact_positive_definite(sym)
    return bool(_tamed(a.to_array(), j.matrix))


def taming_margin(a: SkewForm, j: ComplexStructure) -> float:
    return float(_taming_spectrum(a.to_array(), j.matrix)[1][0])


def _taming_spectrum(arr: np.ndarray, jm: np.ndarray):
    """sym(A J) = (A J + (A J)^T) / 2 and its ascending eigenvalues, of one
    pair or of each pair of stacks."""
    m = arr @ jm
    s = (m + _t(m)) / 2
    return s, np.linalg.eigvalsh(s)


def _tamed(arr: np.ndarray, jm: np.ndarray):
    """The float taming test of tames, of one pair or of each pair of
    stacks: min eig sym(A J) > TAMING_EIG max(1, max|sym(A J)_ij|)."""
    s, eig = _taming_spectrum(arr, jm)
    return eig[..., 0] > TAMING_EIG * np.fmax(1.0, _amax(s))


def _exact_positive_definite(sym) -> bool:
    n = len(sym)
    for k in range(1, n + 1):
        minor = [row[:k] for row in sym[:k]]
        if _poly.frac_det(minor) <= 0:
            return False
    return True


# -- the pencil endomorphism and existence tests ---------------------------------


def pencil_endomorphism(a0: SkewForm, a1: SkewForm) -> np.ndarray:
    """B = A0^{-1} A1; verified w0-symmetric (A0 B is antisymmetric)."""
    if not is_nondegenerate(a0):
        raise ValueError("omega_0 is degenerate")
    return _float_endomorphism(a0.to_array(), a1.to_array())


def _float_endomorphism(m0: np.ndarray, m1: np.ndarray) -> np.ndarray:
    """The float solve of pencil_endomorphism, for a w0 known nondegenerate;
    of one pencil or of each pencil of two stacks."""
    if m0.shape != m1.shape:
        raise ValueError("dimension mismatch")
    b = np.linalg.solve(m0, m1)
    check = m0 @ b
    if np.any(_amax(check + _t(check)) > 1e-9 * np.fmax(1.0, _amax(check))):
        raise ArithmeticError("pencil endomorphism lost w0-symmetry")
    return b


@dataclass
class _Pencil:
    """One analysis of a pencil with both forms nondegenerate.

    For a rational pencil b is B = A0^{-1} A1 exactly (rows of Fractions)
    and spectrum its ascending charpoly det(x - B); otherwise b is the float
    B and spectrum its np.linalg.eigvals.  Neither depends on eps.
    """

    a0: SkewForm
    a1: SkewForm
    b: object
    spectrum: object

    @property
    def exact(self) -> bool:
        return self.a0.exact and self.a1.exact

    def ray_nondegenerate(self) -> bool:
        if self.exact:
            charpoly = self.spectrum
            return _poly.count_roots(
                charpoly, -_poly.root_bound(charpoly), 0) == 0
        return not np.any(_negative_real(self.spectrum))

    def floated(self) -> _Pencil:
        """The float record of a rational pencil, for the float reduction of
        a spectrum that is not rational and semisimple; the exact analysis
        has already decided nondegeneracy."""
        b = _float_endomorphism(self.a0.to_array(), self.a1.to_array())
        return _Pencil(self.a0, self.a1, b, np.linalg.eigvals(b))


def _analyse(a0: SkewForm, a1: SkewForm) -> _Pencil:
    """The one analysis of a pencil; raises "omega_k is degenerate".

    On a rational pencil a degenerate w0 leaves the exact solve without a
    full set of pivots, and a degenerate w1 makes B singular, so the
    charpoly's constant term is 0; no Pfaffian is needed.
    """
    if a0.exact and a1.exact:
        if a0.dim != a1.dim:
            raise ValueError("dimension mismatch")
        b = _poly.solve(a0.matrix, a1.matrix)
        if b is None:
            raise ValueError("omega_0 is degenerate")
        charpoly = _frac_charpoly(b)
        if charpoly[0] == 0:
            raise ValueError("omega_1 is degenerate")
        return _Pencil(a0, a1, b, charpoly)
    for k, a in enumerate((a0, a1)):
        if not is_nondegenerate(a):
            raise ValueError(f"omega_{k} is degenerate")
    b = _float_endomorphism(a0.to_array(), a1.to_array())
    return _Pencil(a0, a1, b, np.linalg.eigvals(b))


def _negative_real(vals: np.ndarray) -> np.ndarray:
    """Which eigenvalues of vals (any shape) are real to _REAL_REL_TOL and
    negative."""
    return (vals.real < 0) & (np.abs(vals.imag) <= _REAL_REL_TOL
                              * np.abs(vals.real))


def ray_nondegenerate(a0: SkewForm, a1: SkewForm) -> bool:
    """Whether w0 + t w1 stays symplectic for all t >= 0; by the paper's
    criterion also whether some J is tamed by both forms.

    It is also the segment question: for 0 < t <= 1,
    (1-t) A0 + t A1 = t A0 (B + (1-t)/t) is singular exactly when B has
    the eigenvalue -(1-t)/t, and these values fill (-inf, 0).  So both are
    "B has no negative real eigenvalue".  Rational pencils are decided
    exactly: B is invertible, so this is a Sturm count of zero roots of its
    charpoly in (-root_bound, 0).
    """
    return _analyse(a0, a1).ray_nondegenerate()


# -- simultaneous reduction -------------------------------------------------------


@dataclass
class RealBlock:
    eigenvalue: object  # float, or Fraction on the exact path
    chain_length: int   # k + 1

    @property
    def size(self) -> int:
        return 2 * self.chain_length

    @property
    def omega1_unit(self) -> np.ndarray:
        return np.array([[float(self.eigenvalue)]])

    @property
    def j_unit(self) -> np.ndarray:
        # J v = w, J w = -v per (v_i, w_i) pair tames both the standard and
        # the lambda-scaled standard form when lambda > 0
        if self.eigenvalue <= 0:
            raise ArithmeticError(
                "real block with nonpositive eigenvalue cannot be tamed"
            )
        return np.array([[-1.0]])


@dataclass
class ComplexBlock:
    mu: float
    nu: float
    chain_length: int

    @property
    def size(self) -> int:
        return 4 * self.chain_length

    @property
    def omega1_unit(self) -> np.ndarray:
        return np.array([[self.mu, self.nu], [-self.nu, self.mu]])

    @property
    def j_unit(self) -> np.ndarray:
        # the phase structure J_phi, phi = pi - psi/2, psi = arg(mu + i nu)
        phi = math.pi - math.atan2(self.nu, self.mu) / 2
        return np.array([
            [math.cos(phi), -math.sin(phi)],
            [math.sin(phi), math.cos(phi)],
        ])


@dataclass
class PencilBlocks:
    blocks: list
    basis: np.ndarray      # columns are the basis vectors
    eps: float
    omega0_residual: float
    omega1_residual: float


def _block_layout(blocks, unit, eps=0.0) -> np.ndarray:
    """A matrix in the block basis, from each block's d x d unit unit(b).

    A block of chain length m has v_0..v_(m-1), then w_0..w_(m-1), each d
    columns wide.  Its (v, w) part M holds the unit at every (v_i, w_i)
    and, for a nonzero eps, eps I_d at every (v_i, w_(i+1)); its (w, v)
    part is -M^T, written whole.
    """
    size = sum(b.size for b in blocks)
    out = np.zeros((size, size))
    at = 0
    for b in blocks:
        u = unit(b)
        d = len(u)
        big = d * b.chain_length
        v, w = slice(at, at + big), slice(at + big, at + 2 * big)
        m = out[v, w]
        for i in range(0, big, d):
            m[i:i + d, i:i + d] = u
        if eps:
            np.fill_diagonal(m[:, d:], eps)
        np.negative(m.T, out=out[w, v])
        at += 2 * big
    return out


def _model_matrices(blocks, eps=0.0):
    """(A0_model, A1_model): w0(v_i, w_i) = I_d and w1(v_i, w_i) = the
    block's unit of w1.  A nonzero eps adds the chain couplings
    w1(v_i, w_(i+1)) = eps I_d, the exact target of the transport."""
    return (_block_layout(blocks, lambda b: np.eye(len(b.omega1_unit))),
            _block_layout(blocks, lambda b: b.omega1_unit, eps))


def _blockwise_j(blocks) -> np.ndarray:
    """J in the block basis: each block's unit of J at every (v_i, w_i)."""
    return _block_layout(blocks, lambda b: b.j_unit)


def _cluster_eigenvalues(vals):
    """Group numerically repeated eigenvalues; raise if gaps are ambiguous."""
    scale = max(1.0, float(np.max(np.abs(vals))))
    order = sorted(range(len(vals)), key=lambda i: (vals[i].real, vals[i].imag))
    clusters = []
    for idx in order:
        v = vals[idx]
        for c in clusters:
            if abs(v - c[0]) <= _CLUSTER_REL_TOL * scale * 10:
                c[1].append(idx)
                c[0] = np.mean([vals[i] for i in c[1]])
                break
        else:
            clusters.append([v, [idx]])
    centers = [c[0] for c in clusters]
    for i in range(len(centers)):
        for j in range(i + 1, len(centers)):
            gap = abs(centers[i] - centers[j])
            if gap < 100 * _CLUSTER_REL_TOL * scale:
                raise PencilError(
                    f"eigenvalue clusters separated by only {gap:.2e}"
                )
    return [(complex(c[0]), len(c[1])) for c in clusters]


def simultaneous_reduce(a0: SkewForm, a1: SkewForm,
                        eps: float = 1e-3) -> PencilBlocks:
    """Simultaneous block reduction of two symplectic forms.

    Returns a basis in which w0 is exactly standard blockwise and w1 is
    within 10*eps of the block model assembled from real eigenvalues and
    complex (mu, nu) pairs.  Rational inputs whose endomorphism has rational
    spectrum and is diagonalizable take an exact path.
    """
    return _reduce(_analyse(a0, a1), eps)


def _reduce(p: _Pencil, eps: float) -> PencilBlocks:
    """The one reduction of p: the exact reduction when there is one, else
    the float reduction at eps, which must pass the gates (w0 residual <=
    OMEGA0_GATE, w1 residual <= OMEGA1_GATE eps) or raise
    RetryExhaustedError."""
    if p.exact:
        got = _try_exact_reduce(p)
        if got is not None:
            return got
        p = p.floated()
    clusters = _cluster_eigenvalues(p.spectrum)
    try:
        result = _float_reduce(p, clusters, eps)
    except (ArithmeticError, np.linalg.LinAlgError) as err:
        raise RetryExhaustedError(f"reduction failed: {err}") from err
    if (result.omega0_residual > OMEGA0_GATE
            or result.omega1_residual > OMEGA1_GATE * eps):
        raise RetryExhaustedError(
            f"reduction failed: residuals "
            f"{result.omega0_residual:.2e}/{result.omega1_residual:.2e}")
    return result


def _float_reduce(p: _Pencil, clusters, eps: float) -> PencilBlocks:
    m0 = p.a0.to_array()
    b, vals = p.b, p.spectrum
    n = b.shape[0]
    blocks = []
    columns = []
    scale = max(1.0, float(np.max(np.abs(vals))))
    for lam, mult in sorted(clusters, key=lambda c: (abs(c[0].imag) > 1e-8 * scale,
                                                     -c[0].real)):
        if lam.imag < -1e-8 * scale:
            continue  # conjugate partner of a complex cluster handled above
        if abs(lam.imag) <= 1e-8 * scale:
            # the block kind is decided here: a real lam keeps b real
            lam, bl = lam.real, b
        else:
            bl = b.astype(complex)
        space = _generalized_eigenspace(bl, lam, mult)
        vblocks, vcols = _extract_chains(bl, m0, lam, space, eps)
        blocks += vblocks
        columns += vcols
    basis = np.column_stack(columns)
    if basis.shape != (n, n):
        raise ArithmeticError("block extraction lost dimensions")
    model0, model1 = _model_matrices(blocks)
    # Newton correction toward exact w0-standardness: for antisymmetric
    # error E, the update basis (I - Omega^{-1} E / 2) cancels E to first
    # order, and two or three passes reach machine accuracy
    for _ in range(3):
        err = basis.T @ m0 @ basis - model0
        if float(np.max(np.abs(err))) <= 1e-13:
            break
        delta = -0.5 * np.linalg.solve(model0, err)
        basis = basis @ (np.eye(n) + delta)
    t0 = basis.T @ m0 @ basis
    t1 = basis.T @ p.a1.to_array() @ basis
    _, model1_eps = _model_matrices(blocks, eps)
    r0 = float(np.max(np.abs(t0 - model0)))
    r1_exact = float(np.max(np.abs(t1 - model1_eps)))
    r1_model = float(np.max(np.abs(t1 - model1)))
    # the eps chain couplings are part of the construction: against the
    # coupled target the transport must be near machine accuracy, while the
    # contract residual is measured against the uncoupled block model
    if r1_exact > 1e-6 * max(1.0, float(np.max(np.abs(t1)))):
        raise ArithmeticError(f"chain relations violated by {r1_exact:.2e}")
    return PencilBlocks(blocks, basis, eps, r0, r1_model)


def _generalized_eigenspace(b, lam, mult):
    n = b.shape[0]
    m = np.linalg.matrix_power(b - lam * np.eye(n, dtype=b.dtype), mult)
    u, s, vh = np.linalg.svd(m)
    scale = max(1.0, float(s[0]) if len(s) else 1.0)
    null_mask = s <= 1e-8 * scale
    basis = vh[null_mask].conj().T
    if basis.shape[1] < mult:
        raise ArithmeticError("generalized eigenspace dimension deficient")
    return basis


def _nilpotency_index(nmat, space):
    """Largest k with (B - lam)^k nonzero on span(space), via restriction.

    The zero threshold scales with the ambient operator norm: eigenspace
    bases computed through SVD carry noise of order cond * machine epsilon,
    which must not read as a nontrivial chain.
    """
    m = space.shape[1]
    r, *_ = np.linalg.lstsq(space, nmat @ space, rcond=None)
    scale = max(1.0, float(np.linalg.norm(nmat, 2)),
                float(np.linalg.norm(r, 2)))
    k = 0
    rk = np.eye(m, dtype=r.dtype)
    while k < m:
        rk_next = r @ rk
        if np.linalg.norm(rk_next, 2) <= 1e-7 * scale ** (k + 1):
            break
        rk = rk_next
        k += 1
    return k, rk


def _extract_chains(b, m0, lam, space, eps):
    """Chains within one generalized eigenspace, with w-duals.

    The caller passes a real lam with real b and space, and then every
    conjugation below is the identity.  A complex lam (one of a conjugate
    pair) has its w-chain in the conjugate eigenspace, pairing
    sesquilinearly; both chains are realified as (sqrt 2 Re, -sqrt 2 Im),
    where the minus orients the block so the transported w1 matches the
    printed (mu, nu) model exactly.
    """
    pair = isinstance(lam, complex)
    blocks, columns = [], []
    n = b.shape[0]
    nmat = b - lam * np.eye(n)
    nmat_conj = b - lam.conjugate() * np.eye(n) if pair else nmat
    while space.shape[1] > 0:
        k, rk = _nilpotency_index(nmat, space)
        j0 = int(np.argmax(np.linalg.norm(rk, axis=0)))
        vs = [space[:, j0]]
        for _ in range(k):
            vs.append(nmat @ vs[-1] / eps)
        ws = [_solve_pairing(m0, vs, space.conj(), want_index=k)]
        for _ in range(k):
            ws.insert(0, nmat_conj @ ws[0] / eps)
        vs, ws = _balance_chain(vs, ws)
        if pair:
            columns += _realify(vs) + _realify(ws)
            blocks.append(ComplexBlock(lam.real, lam.imag, k + 1))
        else:
            columns += vs + ws
            blocks.append(RealBlock(lam, k + 1))
        # the remaining u must satisfy conj(v_j)^T m0 u = 0 for the pairings
        # that eigenvalue orthogonality does not kill: v_j and conj(w_j)
        space = _symplectic_complement(
            m0, [v.conj() for v in vs] + ws, space)
    return blocks, columns


def _realify(vectors):
    """(sqrt 2 Re v, -sqrt 2 Im v) for each vector, in order."""
    return [col for v in vectors
            for col in (math.sqrt(2) * np.real(v), -math.sqrt(2) * np.imag(v))]


def _balance_chain(vs, ws):
    """Rescale v's by c and w's by 1/c to balance norms.

    A single factor per chain keeps every w0/w1 pairing (including the eps
    couplings) intact while conditioning the final basis matrix.
    """
    vn = max(float(np.linalg.norm(v)) for v in vs)
    wn = max(float(np.linalg.norm(w)) for w in ws)
    if vn == 0 or wn == 0:
        return vs, ws
    c = math.sqrt(wn / vn)
    return [c * v for v in vs], [w / c for w in ws]


def _solve_pairing(m0, vs, space, want_index):
    """w in span(space) with conj(v_j)^T m0 w = delta_{j, want_index}; the
    right-hand side takes the system's dtype, so real chains stay real."""
    a = np.array([v.conj() @ m0 @ space for v in vs])
    rhs = np.zeros(len(vs), dtype=a.dtype)
    rhs[want_index] = 1.0
    sol, *_ = np.linalg.lstsq(a, rhs, rcond=None)
    if np.max(np.abs(a @ sol - rhs)) > 1e-8:
        raise ArithmeticError("pairing system inconsistent")
    return space @ sol


def _symplectic_complement(m0, extracted, space):
    """Vectors u of span(space) with conj(v)^T m0 u = 0 for every extracted v
    (for real vectors: w0-orthogonal to all of them)."""
    cons = np.array([np.conj(v) @ m0 @ space for v in extracted])
    _, s, vh = np.linalg.svd(cons)
    rank = int(np.sum(s > 1e-10 * max(1.0, s[0] if len(s) else 1.0)))
    null = vh[rank:].conj().T
    return space @ null


def _try_exact_reduce(p: _Pencil):
    """Exact reduction for rational pencils with rational, semisimple spectrum.

    Returns None when the spectrum is not rational or the endomorphism is
    not diagonalizable; callers fall back to the float path.  Each pairing
    u^T M v dots the row u^T M, formed once per vector, with v, so every
    step is O(n^3) Fraction operations.
    """
    n = p.a0.dim
    m0 = p.a0.matrix
    m1 = p.a1.matrix
    roots = _poly.rational_roots(p.spectrum)
    if sum(m for _, m in roots) != n:
        return None
    columns = []
    blocks = []
    for lam, mult in sorted(roots, key=lambda t: -t[0]):
        space = _poly.kernel([[x - lam if i == j else x
                               for j, x in enumerate(row)]
                              for i, row in enumerate(p.b)])
        if len(space) != mult:
            return None  # nontrivial Jordan structure: use floats
        while space:
            # w0 is the first vector of the space that pairs with v0,
            # scaled to w0(v0, w0) = 1; the rest is the w0-complement of both
            v0 = space[0]
            v_row = _frac_row(v0, m0)
            pairs = [_dot(v_row, s) for s in space]
            at = next((j for j, x in enumerate(pairs) if x != 0), None)
            if at is None:
                raise ArithmeticError("inconsistent pairing system")
            w0 = [x / pairs[at] for x in space[at]]
            columns += [v0, w0]
            blocks.append(RealBlock(lam, 1))
            w_row = _frac_row(w0, m0)
            constraints = [pairs, [_dot(w_row, s) for s in space]]
            space = [_frac_row(c, space) for c in _poly.kernel(constraints)]
    basis = np.array([[float(x) for x in col] for col in zip(*columns)])
    model0, model1 = _model_matrices(blocks)
    rows0 = [_frac_row(u, m0) for u in columns]
    exact0 = all(
        _dot(rows0[i], columns[j]) == model0[i][j]
        for i in range(n) for j in range(n)
    )
    if not exact0:
        return None
    rows1 = [_frac_row(u, m1) for u in columns]
    r1 = max(
        abs(float(_dot(rows1[i], columns[j])) - model1[i][j])
        for i in range(n) for j in range(n)
    )
    return PencilBlocks(blocks, basis, 0.0, 0.0, r1)


def _frac_row(u, m):
    """The row vector u^T M, exactly (sum_j u_j M[j])."""
    return [_dot(u, col) for col in zip(*m)]


def _dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def _frac_charpoly(b):
    """Characteristic polynomial det(x - b), ascending, exact, in O(n^3).

    Similarities (row i -= u row m, column m += u column i, after a swap that
    puts a nonzero pivot at h[m][m-1]) make b upper Hessenberg; det(x - H)
    follows the recurrence of Cohen, A Course in Computational Algebraic
    Number Theory, Alg. 2.2.9.
    """
    h = [row[:] for row in b]
    n = len(h)
    for m in range(1, n - 1):
        piv = next((i for i in range(m, n) if h[i][m - 1] != 0), None)
        if piv is None:
            continue
        if piv != m:
            h[m], h[piv] = h[piv], h[m]
            for row in h:
                row[m], row[piv] = row[piv], row[m]
        t = h[m][m - 1]
        for i in range(m + 1, n):
            u = h[i][m - 1] / t
            if u == 0:
                continue
            h[i] = h[i][:m - 1] + [x - u * y for x, y in
                                   zip(h[i][m - 1:], h[m][m - 1:])]
            for row in h:
                row[m] += u * row[i]
    polys = [[Q(1)]]
    for m in range(1, n + 1):
        p = _poly.mul([-h[m - 1][m - 1], Q(1)], polys[m - 1])
        t = Q(1)
        for i in range(1, m):
            t *= h[m - i][m - i - 1]
            if t == 0:
                break
            p = _poly.sub(p, _poly.scale(polys[m - i - 1],
                                         t * h[m - i - 1][m - 1]))
        polys.append(p)
    return polys[n]


# -- cotamed construction ---------------------------------------------------------


def construct_cotamed(a0: SkewForm, a1: SkewForm,
                      eps: float = 1e-3) -> ComplexStructure:
    """Build J tamed by both forms via blockwise normal-form structures.

    Real blocks (eigenvalues are positive under the existence hypothesis)
    get the standard rotation per (v_j, w_j) pair; complex blocks get the
    phase structure J_phi with phi = pi - psi/2, psi = arg(mu + i nu).  The
    result is verified against both forms.
    """
    return _construct(_analyse(a0, a1), eps)


def _construct(p: _Pencil, eps: float) -> ComplexStructure:
    """construct_cotamed of an analysed pencil."""
    if not p.ray_nondegenerate():
        raise CotamedExistenceError("pencil admits no cotamed structure")
    reduction = _reduce(p, eps)
    basis = reduction.basis
    # the conjugated structure squares to -I exactly in exact arithmetic;
    # polishing removes the cond(basis)^2 float drift
    j = _polish_square_root(
        basis @ _blockwise_j(reduction.blocks) @ np.linalg.inv(basis))
    try:
        cand = ComplexStructure(j)
    except ValueError as err:
        failure = err
    else:
        if tames(p.a0, cand) and tames(p.a1, cand):
            return cand
        failure = "blockwise J failed a taming verification"
    raise RetryExhaustedError(
        f"cotamed construction failed "
        f"(cond(A0)={np.linalg.cond(p.a0.to_array()):.2e}, "
        f"cond(A1)={np.linalg.cond(p.a1.to_array()):.2e}): {failure}"
    )


# -- Cayley transform for complex structures ---------------------------------------


def cayley_map(j0: ComplexStructure, j: ComplexStructure) -> np.ndarray:
    """A = (J + J0)^{-1} (J - J0); anticommutes with J0, A - I invertible.

    The raw solve leaves anticommutator noise of order cond * eps; after the
    sanity gate the result is projected onto the exactly anticommuting
    subspace so downstream convex combinations stay inside the chart.
    """
    return _cayley_map(j0.matrix, j.matrix)


def _cayley_map(j0: np.ndarray, j: np.ndarray) -> np.ndarray:
    """cayley_map of one pair, or of each pair of two stacks."""
    s = j + j0
    if np.any(np.abs(np.linalg.det(s)) < 1e-12):
        raise ValueError("J + J0 is singular (J = -J0 boundary)")
    a = np.linalg.solve(s, j - j0)
    anti = a @ j0 + j0 @ a
    if np.any(_amax(anti) > 1e-9 * np.fmax(1.0, _amax(a))):
        raise ArithmeticError("Cayley image does not anticommute with J0")
    return (a + j0 @ a @ j0) / 2


def cayley_inverse(j0: ComplexStructure, a: np.ndarray) -> ComplexStructure:
    """Inverse transform A -> (A - I) J0 (A - I)^{-1}."""
    return ComplexStructure(
        _cayley_inverse(j0.matrix, np.asarray(a, dtype=float)))


def _cayley_inverse(j0: np.ndarray, a: np.ndarray) -> np.ndarray:
    """cayley_inverse of one pair, or of each pair of two stacks, with the
    J^2 = -I gate of ComplexStructure."""
    anti = a @ j0 + j0 @ a
    if np.any(_amax(anti) > 1e-10 * np.fmax(1.0, _amax(a))):
        raise ValueError("A does not anticommute with J0")
    s = a - np.eye(a.shape[-1])
    if np.any(np.abs(np.linalg.det(s)) < 1e-12):
        raise ValueError("A - I is singular (eigenvalue 1)")
    j = s @ j0 @ np.linalg.inv(s)
    _require_square_minus_identity(j)
    return j


def interpolate_tamed(j0: ComplexStructure, j1: ComplexStructure,
                      j2: ComplexStructure, ts) -> list:
    """Convex interpolation through the Cayley chart at J0, one J per t.

    J1 and J2 are mapped into the chart once.  A form that tames J0, J1
    and J2 tames every result as well (convexity of the chart image).
    """
    return [ComplexStructure(j) for j in
            _interpolate(j0.matrix, j1.matrix, j2.matrix, ts)]


def _interpolate(j0, j1, j2, ts) -> list:
    """interpolate_tamed of one triple or of each triple of three stacks:
    one matrix or stack per t."""
    a1 = _cayley_map(j0, j1)
    a2 = _cayley_map(j0, j2)
    return [_cayley_inverse(j0, (1 - t) * a1 + t * a2) for t in ts]


def compatible_j(a: SkewForm) -> ComplexStructure:
    """The canonical w-compatible structure J = -(-A^2)^{-1/2} A."""
    return ComplexStructure(_compatible(a.to_array()))


def _compatible(arr: np.ndarray) -> np.ndarray:
    """compatible_j of one float skew matrix, or of each matrix of a stack,
    with the J^2 = -I gate of ComplexStructure."""
    m = -(arr @ arr)
    vals, vecs = np.linalg.eigh((m + _t(m)) / 2)
    if np.any(vals.min(axis=-1) <= 0):
        raise ValueError("form is degenerate")
    inv_sqrt = vecs @ _diag(1.0 / np.sqrt(vals)) @ _t(vecs)
    j = _polish_square_root(-inv_sqrt @ arr)
    _require_square_minus_identity(j)
    return j


def _polish_square_root(j: np.ndarray) -> np.ndarray:
    """Drive J^2 + I toward zero: J <- J (I + E/2) is quadratic in E.

    Stops as soon as an iteration fails to improve (the attainable error is
    floored at roughly |J|^2 machine epsilon, and iterating past the floor
    just accumulates roundoff).  On a stack each matrix stops on its own:
    the live mask keeps the matrices still improving.
    """
    n = j.shape[-1]
    eye = np.eye(n)
    best = j.reshape(-1, n, n).copy()
    best_err = _amax(best @ best + eye)
    live = ~(best_err <= 1e-14)
    for _ in range(4):
        idx = np.flatnonzero(live)
        if not idx.size:
            break
        cur = best[idx]
        cand = cur @ (eye + (cur @ cur + eye) / 2)
        cand_err = _amax(cand @ cand + eye)
        better = ~(cand_err >= best_err[idx])
        best[idx[better]] = cand[better]
        best_err[idx[better]] = cand_err[better]
        live[idx] = better & ~(cand_err <= 1e-14)
    return best.reshape(j.shape)


def taming_threshold(omega: SkewForm, d: SkewForm,
                     j: ComplexStructure) -> float:
    """The infimum t* >= 0 of the t with omega + t d taming J.

    Requires d to tame J.  With S0 = sym(A_omega J) and S1 = sym(A_d J) > 0,
    omega + t d tames J exactly when S0 + t S1 > 0, that is when t exceeds
    -lam for every eigenvalue lam of L^-1 S0 L^-T (L the Cholesky factor of
    S1).  So t* = max(0, -lam_min), and every t > t* tames J.
    """
    if not tames(d, j):
        raise ValueError("direction form must tame J")
    s0 = _taming_spectrum(omega.to_array(), j.matrix)[0]
    s1 = _taming_spectrum(d.to_array(), j.matrix)[0]
    linv = np.linalg.inv(np.linalg.cholesky(s1))
    lam_min = np.linalg.eigvalsh(linv @ s0 @ linv.T)[0]
    return max(0.0, -float(lam_min))


# -- randomized suites ------------------------------------------------------------

# trials per stack of the randomized suites: bounds their memory for any
# trial count
_TRIAL_STACK = 4096


def _stacked(run, trials: int) -> list:
    """run(stack) for each stack of at most _TRIAL_STACK consecutive trials
    of range(trials), in order.  A stack that fails a gate (ValueError,
    with numpy's LinAlgError, or ArithmeticError) is run again one trial at
    a time, so that the error raised is the one of the lowest failing trial
    at its earliest gate, as a loop over the trials would raise it."""
    out = []
    for start in range(0, trials, _TRIAL_STACK):
        stack = range(start, min(start + _TRIAL_STACK, trials))
        try:
            out.append(run(stack))
        except (ValueError, ArithmeticError):
            for trial in stack:
                run(range(trial, trial + 1))
            raise
    return out


def random_skew(rng: np.random.Generator, dim: int) -> SkewForm:
    return SkewForm(_skew_draw(rng, dim))


def _skew_draw(rng: np.random.Generator, dim: int) -> np.ndarray:
    m = rng.standard_normal((dim, dim))
    return m - m.T


def random_nondegenerate_pair(rng, dim):
    a0, a1 = _nondegenerate_draws([rng], dim, 2)[0]
    return SkewForm(a0), SkewForm(a1)


def _nondegenerate_draws(rngs, dim: int, count: int) -> np.ndarray:
    """count random skew matrices from each generator, as an
    (N, count, dim, dim) stack; a generator whose draws do not all pass the
    det gate draws all count again, from itself, until they do.  An odd
    skew matrix is singular, so dim is checked first, as SkewForm checks
    it."""
    _require_pencil_dim(dim)

    def draw(rng):
        return [_skew_draw(rng, dim) for _ in range(count)]

    forms = np.array([draw(rng) for rng in rngs]).reshape(
        len(rngs), count, dim, dim)
    redraw = np.arange(len(rngs))
    while redraw.size:
        redraw = redraw[~_nondegenerate(forms[redraw]).all(axis=1)]
        for i in redraw.tolist():
            forms[i] = draw(rngs[i])
    return forms


def random_tamed_j(rng, a: SkewForm, j0: ComplexStructure) -> ComplexStructure:
    """Random J tamed by a: a Cayley perturbation of j0 = compatible_j(a).

    In the Cayley chart at J0 every A anticommuting with J0 whose operator
    norm in g = w(., J0 .) is below 1 gives a tamed J (McDuff-Salamon,
    Introduction to Symplectic Topology), so one draw, scaled to a g-norm
    from U(0.1, 0.95), always lands in the taming cone.
    """
    return ComplexStructure(
        _tamed_draws([rng], a.to_array()[None], j0.matrix[None])[0])


def _tamed_draws(rngs, arr: np.ndarray, j0: np.ndarray) -> np.ndarray:
    """random_tamed_j for each form of an (N, n, n) stack and its J0, the
    i-th drawing a standard normal n x n matrix and then its g-norm from
    rngs[i]."""
    n = arr.shape[-1]
    x = np.array([rng.standard_normal((n, n)) for rng in rngs]).reshape(
        len(rngs), n, n)
    u = np.array([rng.uniform(0.1, 0.95) for rng in rngs])
    anti = (x + j0 @ x @ j0) / 2
    # |A|_g = |L^T A L^{-T}|_2 for the Cholesky factor L of the Gram
    # matrix A J0 of g
    gram = arr @ j0
    lt = _t(np.linalg.cholesky((gram + _t(gram)) / 2))
    g_norm = np.linalg.norm(lt @ anti @ np.linalg.inv(lt), 2, axis=(-2, -1))
    cand = _cayley_inverse(j0, anti * (u / g_norm)[:, None, None])
    if not np.all(_tamed(arr, cand)):
        raise ArithmeticError("Cayley draw of g-norm below 1 is not tamed")
    return cand


@dataclass
class SuiteReport:
    name: str
    trials: int
    mismatches: int
    worst_margin: float
    seeds: list = field(default_factory=list)
    detail: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.mismatches == 0


def appendix_equivalence_suite(trials: int, dims=(4, 6, 8, 10),
                               seed: int = 0) -> SuiteReport:
    """Randomized check of the existence criterion and the construction.

    For each random nondegenerate pair, B = A0^{-1} A1 and its eigenvalues
    are computed once, in one stack per dimension, and the construction
    reads the same record.  When no eigenvalue is negative real (the
    spectral test of ray_nondegenerate on a float pencil), the
    sign law must hold (every real eigenvalue positive) and the
    construction must succeed with both tamings verified.  Otherwise the
    negative eigenvalue's predicted degeneracy parameter t0 = 1/(1 - lam)
    must make the pencil member singular (smallest singular value
    collapses), and the construction must refuse.
    """
    mismatches = 0
    worst = math.inf
    per_dim = {}
    ill_conditioned = 0
    for dim in dims:
        bad = 0
        for stack_bad, ill, margins in _stacked(
                partial(_appendix_trials, seed + 7919 * dim, dim),
                trials):
            bad += stack_bad
            ill_conditioned += ill
            worst = min([worst, *margins])
        per_dim[dim] = bad
        mismatches += bad
    return SuiteReport(
        "appendix-equivalence", trials * len(dims), mismatches,
        worst if worst < math.inf else 0.0, [seed],
        {"per_dim": per_dim, "ill_conditioned_reported": ill_conditioned},
    )


def _appendix_trials(seed: int, dim: int, stack: range):
    """The appendix-equivalence trials of one dimension, trial t drawing
    from default_rng(seed + t): the number of mismatches and of
    ill-conditioned spectra, and the smaller taming margin of each
    constructed J, in trial order."""
    rngs = [np.random.default_rng(seed + t) for t in stack]
    forms = _nondegenerate_draws(rngs, dim, 2)
    m0, m1 = forms[:, 0], forms[:, 1]
    # _analyse without its nondegeneracy gates, which the draw has passed
    b = _float_endomorphism(m0, m1)
    spectra = np.linalg.eigvals(b)
    negative = _negative_real(spectra)
    has_negative = negative.any(axis=-1)
    re, im = spectra.real, spectra.imag
    sign_law_fails = ((np.abs(im) <= 1e-8 * np.fmax(1.0, np.abs(re)))
                      & (re <= 0)).any(axis=-1)
    at = np.flatnonzero(has_negative)
    t0 = 1.0 / (1.0 - np.where(negative[at], re[at], np.inf).min(axis=-1))
    member = (1 - t0)[:, None, None] * m0[at] + t0[:, None, None] * m1[at]
    sv = np.linalg.svd(member, compute_uv=False)
    collapses = np.zeros(len(stack), dtype=bool)
    collapses[at] = ~(sv[:, -1] > 1e-8 * sv[:, 0])

    def pencil(i):
        # eigvals of one matrix is a real array when every eigenvalue is real
        vals = spectra[i]
        return _Pencil(SkewForm(m0[i]), SkewForm(m1[i]), b[i],
                       vals if vals.imag.any() else vals.real)

    bad = ill = 0
    built, js = [], []
    for i in range(len(stack)):
        if has_negative[i]:
            if not collapses[i]:
                bad += 1  # eigenvalue predicted a degeneracy that isn't
                continue
            try:
                _construct(pencil(i), 1e-3)
                bad += 1  # should have refused
            except CotamedExistenceError:
                pass
        elif sign_law_fails[i]:
            bad += 1
        else:
            try:
                j = _construct(pencil(i), 1e-3)
            except PencilError:
                # near-degenerate spectrum: reported, not guessed
                ill += 1
                continue
            except RetryExhaustedError:
                bad += 1
                continue
            built.append(i)
            js.append(j.matrix)
    js = np.array(js).reshape(len(built), dim, dim)
    margin0 = _taming_spectrum(m0[built], js)[1][:, 0]
    margin1 = _taming_spectrum(m1[built], js)[1][:, 0]
    margins = np.where(margin1 < margin0, margin1, margin0)
    return bad + int(np.count_nonzero(margins <= 0)), ill, margins.tolist()


def cayley_roundtrip_suite(trials: int, seed: int = 0) -> SuiteReport:
    worst = 0.0
    mismatches = 0
    for err in _stacked(partial(_cayley_trials, seed), trials):
        worst = max([worst, *err.tolist()])
        mismatches += int(np.count_nonzero(err > 1e-10))
    return SuiteReport("cayley-roundtrip", trials, mismatches, worst, [seed])


def _cayley_trials(seed: int, stack: range) -> np.ndarray:
    """The round-trip error max |J' - J| of each cayley suite trial, trial
    t drawing from default_rng(seed + t)."""
    rngs = [np.random.default_rng(seed + t) for t in stack]
    a = _nondegenerate_draws(rngs, SUITE_DIM, 1)[:, 0]
    j0 = _compatible(a)
    j = _tamed_draws(rngs, a, j0)
    return _amax(_cayley_inverse(j0, _cayley_map(j0, j)) - j)


def interpolation_suite(trials: int, seed: int = 0,
                        ts=(0.25, 0.5, 0.75)) -> SuiteReport:
    mismatches = 0
    worst = math.inf
    for margins in _stacked(partial(_interpolation_trials, seed, ts),
                            trials):
        worst = min([worst, *margins.tolist()])
        mismatches += int(np.count_nonzero(margins <= 0))
    return SuiteReport(
        "interpolation-convexity", trials * len(ts), mismatches,
        worst if worst < math.inf else 0.0, [seed],
    )


def _interpolation_trials(seed: int, ts, stack: range) -> np.ndarray:
    """The taming margin of each interpolated J, trial by trial and t by t
    within a trial, trial t drawing from default_rng(seed + 31 t)."""
    rngs = [np.random.default_rng(seed + 31 * t) for t in stack]
    a = _nondegenerate_draws(rngs, SUITE_DIM, 1)[:, 0]
    j0 = _compatible(a)
    j1 = _tamed_draws(rngs, a, j0)
    j2 = _tamed_draws(rngs, a, j0)
    margins = [_taming_spectrum(a, j)[1][:, 0]
               for j in _interpolate(j0, j1, j2, ts)]
    return np.array(margins).T.ravel()


def remark_pair():
    """The R^4 pair w0 = dx1^dx3 + dx2^dx4, w1 = dx2^dx1 + dx3^dx4."""
    a0 = SkewForm([
        [0, 0, 1, 0],
        [0, 0, 0, 1],
        [-1, 0, 0, 0],
        [0, -1, 0, 0],
    ])
    a1 = SkewForm([
        [0, -1, 0, 0],
        [1, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, -1, 0],
    ])
    return a0, a1


def cocompatible_counterexample_suite(trials: int, seed: int = 0) -> SuiteReport:
    """No w0-compatible J is tamed by w1 for the wedge-orthogonal pair.

    Verifies w0 ^ w1 = 0 exactly, then samples random w0-compatible
    structures (symplectic conjugates of the standard one) and exhibits for
    each a vector v with w1(v, Jv) <= 0.  Survivors are counted; the
    expected count is zero.

    Why none survives: for a w0-compatible J on R^2n, g = sym(A0 J) = A0 J
    is positive definite and tr(g^-1 sym(A1 J)) = tr(B), B = A0^-1 A1,
    which is 2n top(w0^(n-1) ^ w1) / top(w0^n).  Here w0 ^ w1 = 0, so the
    trace is 0: the eigenvalues of g^-1 sym(A1 J), those of a symmetric
    matrix congruent to sym(A1 J), sum to 0, so sym(A1 J) is not positive
    definite and w1 does not tame J.  The samples cross-check this.
    """
    a0, a1 = remark_pair()
    wedge_top = a0.to_form().wedge(a1.to_form()).top_coefficient()
    if wedge_top != 0:
        raise ArithmeticError("w0 ^ w1 is not exactly zero")
    survivors = 0
    worst = -math.inf

    def run(stack):
        return _cocompatible_trials(
            a0, a1, range(seed + stack.start, seed + stack.stop))

    for vmin, survived in _stacked(run, trials):
        survivors += int(np.count_nonzero(survived))
        worst = max([worst, *vmin.tolist()])
    return SuiteReport(
        "cocompatible-counterexample", trials, survivors, worst, [seed],
        {"wedge_top": str(wedge_top)},
    )


def _cocompatible_trials(a0: SkewForm, a1: SkewForm, seeds: range):
    """Per trial, the smallest eigenvalue of sym(w1 J) for a random
    w0-compatible J, and whether the trial survives: vmin > 0, or the
    eigenvector v of vmin fails w1(v, Jv) <= 1e-12.

    Each trial draws from its own default_rng(seed); the trials then run as
    one (N, 4, 4) stack, each with the values of its own 4x4 computation.
    """
    m0 = a0.to_array()
    m1 = a1.to_array()
    c = np.array([np.random.default_rng(seed).standard_normal((4, 4))
                  for seed in seeds])
    ham = np.linalg.solve(m0, (c + _t(c)) / 2)
    s = _expm(ham * 0.5)
    j = s @ compatible_j(a0).matrix @ np.linalg.inv(s)
    _require_square_minus_identity(j)
    m = m1 @ j
    vals, vecs = np.linalg.eigh((m + _t(m)) / 2)
    vmin = vals[:, 0]
    v = vecs[:, :, 0]
    pairing = np.einsum("ni,ij,nj->n", v, m1, np.einsum("nij,nj->ni", j, v))
    return vmin, (vmin > 0) | ~(pairing <= 1e-12)


def _expm(m: np.ndarray) -> np.ndarray:
    """Scaling-and-squaring matrix exponential (Taylor core) of each matrix
    of an (N, n, n) stack; the matrices that share the scaling exponent k
    run their Taylor and squaring steps together."""
    norms = np.abs(m).sum(axis=-2).max(axis=-1)
    ks = np.array([max(0, int(math.ceil(math.log2(max(x, 1e-16)))) + 1)
                   for x in norms.tolist()], dtype=int)
    out = np.empty_like(m)
    eye = np.eye(m.shape[-1])
    for k in np.unique(ks).tolist():
        idx = np.flatnonzero(ks == k)
        small = m[idx] / (2 ** k)
        acc = term = eye
        for i in range(1, 20):
            term = term @ small / i
            acc = acc + term
        for _ in range(k):
            acc = acc @ acc
        out[idx] = acc
    return out
