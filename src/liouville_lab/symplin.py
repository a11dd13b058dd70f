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
pencil once (_analyse): both forms' nondegeneracy, B and its spectrum (for
a rational pencil the monic h with h^2 the exact charpoly, in half its
degree; the float eigenvalues otherwise).
Existence, the reduction and the construction read it.  The pencil is
reduced once (_reduce): exactly, in Python ints, when it can be, else in
floats at the given eps, and the construction builds and verifies one J
from that reduction.
The float reduction and the construction take a stack of pencils that
share one block layout, and one pencil runs as a stack of one.  The Jordan
blocks of a skew pencil come in equal pairs, so a 2-dimensional
generalized eigenspace carries no chain, and the pencils of a stack split
it together; a stack of more than one pencil has no larger eigenspace.
The tamed-J sampler draws once: every Cayley perturbation of g-norm below 1
is tamed.

Each question has one decision.  _analyse decides that a rational pencil
is nondegenerate: w0 is when the exact solve finds a full set of pivots,
and w1 is when the charpoly's constant term is nonzero (no Pfaffian);
_poly.frac_det serves only a rational form in a mixed pencil.  The segment
(1-t) w0 + t w1 stays symplectic exactly when the ray does
(_Pencil.ray_nondegenerate; nothing is sampled).

The dense primitives of the randomized suites (the nondegeneracy det gate,
the compatible J, the tamed-J draw, the Cayley map and its inverse, the
taming spectrum, the float pencil solve) each have one implementation that
takes one matrix or an (N, n, n) stack and gives every matrix the bits of
its own 2-d call.  The cayley, interpolation, appendix-equivalence and
cocompatible suites run their trials as stacks of at most _TRIAL_STACK,
each trial drawing from its own generator in the per-trial order, and
raise what a per-trial loop would raise first; the appendix-equivalence
suite builds its cotamed structures in one stack per block layout.  A
stack seeds its generators in one pass (_trial_rngs), each with the stream
of default_rng of its trial's seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property, partial
from fractions import Fraction

import numpy as np

from . import _poly
from .exterior import EXACT, Coframe, Form

Q = Fraction

MAX_PENCIL_DIM = 12
SUITE_DIM = 6  # dimension of the cayley and interpolation suite forms
INTERPOLATION_TS = (0.25, 0.5, 0.75)  # the interpolation suite's times
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

    # list-of-lists of Fractions, or a float np.ndarray: one matrix or an
    # (N, n, n) stack of them
    matrix: object

    def __post_init__(self):
        if isinstance(self.matrix, np.ndarray):
            a = self.matrix
            if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
                raise ValueError("square matrix required")
            _require_pencil_dim(a.shape[-1])
            if np.any(_amax(a + _t(a)) > 1e-12 * np.fmax(1.0, _amax(a))):
                raise ValueError("matrix is not antisymmetric")
            self.exact = False
        else:
            rows = [[x if isinstance(x, Q) else Q(x) for x in r]
                    for r in self.matrix]
            n = len(rows)
            if any(len(r) != n for r in rows):
                raise ValueError("square matrix required")
            _require_pencil_dim(n)
            if any(x != -y for row, col in zip(rows, zip(*rows))
                   for x, y in zip(row, col)):
                raise ValueError("matrix is not antisymmetric")
            self.matrix = rows
            self.exact = True

    @property
    def dim(self) -> int:
        return len(self.matrix) if self.exact else self.matrix.shape[-1]

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
    if n < 2 or n % 2 or n > MAX_PENCIL_DIM:
        raise ValueError(
            f"dimension must be even and between 2 and {MAX_PENCIL_DIM}")


@dataclass
class ComplexStructure:
    """Matrix J with J^2 = -I (1e-10 in float, exact for rational input);
    one matrix or an (N, n, n) stack of them."""

    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        _require_square_minus_identity(self.matrix)

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]


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


def tames(a: SkewForm, j: ComplexStructure):
    """w tames J iff the symmetric part of A J is positive definite;
    decided exactly for a rational form and an exactly integral J.  Of one
    pair (a bool), or of each pair of a stack of float forms and structures
    (a bool array)."""
    if a.dim != j.dim:
        raise ValueError("dimension mismatch")
    if a.exact and np.array_equal(j.matrix, np.round(j.matrix)):
        prod = _poly.mat_mul(a.matrix, [[int(x) for x in row]
                                        for row in j.matrix.tolist()])
        # 2 sym(A J): a positive multiple keeps every leading minor's sign
        return _exact_positive_definite(
            [[x + y for x, y in zip(r, c)] for r, c in zip(prod, zip(*prod))])
    tamed = _tamed(a.to_array(), j.matrix)
    return tamed if tamed.ndim else bool(tamed)


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
    """Sylvester's criterion in one pass: without row swaps, the k-th pivot
    of the fraction-free (Bareiss) elimination of the integer D sym, D > 0,
    is its k-th leading minor, so the first pivot <= 0 decides."""
    m, _ = _poly.int_matrix(sym)
    d = 1
    for k, top in enumerate(m):
        p = top[k]
        if p <= 0:
            return False
        for i, row in enumerate(m[k + 1:], k + 1):
            m[i] = [(p * x - row[k] * y) // d for x, y in zip(row, top)]
        d = p
    return True


# -- the pencil endomorphism and existence tests ---------------------------------


def _float_endomorphism(m0: np.ndarray, m1: np.ndarray) -> np.ndarray:
    """B = A0^{-1} A1, verified w0-symmetric (A0 B is antisymmetric), for
    a w0 known nondegenerate; of one pencil or of each pencil of two
    stacks."""
    if m0.shape != m1.shape:
        raise ValueError("dimension mismatch")
    b = np.linalg.solve(m0, m1)
    check = m0 @ b
    if np.any(_amax(check + _t(check)) > 1e-9 * np.fmax(1.0, _amax(check))):
        raise ArithmeticError("pencil endomorphism lost w0-symmetry")
    return b


@dataclass
class _Pencil:
    """One analysis of a pencil with both forms nondegenerate, or of a stack
    of float pencils (forms, B and spectra stacked along a first axis).

    For a rational pencil b is B = A0^{-1} A1 exactly (rows of Fractions)
    and spectrum the ascending monic h with h^2 = det(x - B): the roots of
    B at half their multiplicity.  Otherwise b is the float B and spectrum
    its np.linalg.eigvals.  Neither depends on eps.  clusters are the
    eigenvalue clusters of a float pencil in reduction order
    (_cluster_eigenvalues), computed by _reduce when not given; a stack
    gives them with each eigenvalue an (N,) array, one layout for all.
    """

    a0: SkewForm
    a1: SkewForm
    b: object
    spectrum: object
    clusters: list = None

    @property
    def exact(self) -> bool:
        return self.a0.exact and self.a1.exact

    @cached_property
    def chain(self) -> list:
        """The Sturm chain of h, of a rational pencil: built once for both
        the ray test and the rational roots of the exact reduction."""
        return _poly.sturm_chain(self.spectrum)

    def ray_nondegenerate(self):
        """Whether w0 + t w1 stays symplectic for all t >= 0; by the paper's
        criterion also whether some J is tamed by both forms.  A bool, or a
        bool array for a stack.

        It is also the segment question: for 0 < t <= 1,
        (1-t) A0 + t A1 = t A0 (B + (1-t)/t) is singular exactly when B has
        the eigenvalue -(1-t)/t, and these values fill (-inf, 0).  So both
        are "B has no negative real eigenvalue".  Rational pencils are
        decided exactly: B is invertible, so this is a Sturm count of zero
        roots in (-root_bound, 0) of the half-degree factor h of its
        charpoly.
        """
        if self.exact:
            h = self.spectrum
            return _poly.count_roots(h, -_poly.root_bound(h), 0,
                                     self.chain) == 0
        admits = ~_negative_real(self.spectrum).any(axis=-1)
        return admits if admits.ndim else bool(admits)

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
    charpoly's constant term is 0; no Pfaffian is needed.  The charpoly,
    det(x A0 - A1) / det A0 = (Pf(x A0 - A1) / Pf A0)^2, is h^2 for a monic
    h of half its degree, or this raises ArithmeticError.
    """
    if a0.exact and a1.exact:
        if a0.dim != a1.dim:
            raise ValueError("dimension mismatch")
        b = _poly.solve(a0.matrix, a1.matrix)
        if b is None:
            raise ValueError("omega_0 is degenerate")
        charpoly = _poly.charpoly(b)
        if charpoly[0] == 0:
            raise ValueError("omega_1 is degenerate")
        return _Pencil(a0, a1, b, _poly.square_root(charpoly))
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
    """A reduction: the blocks and the basis that carries w0 to the block
    model.  For a stack of pencils, blocks holds one block list per pencil,
    basis is the (N, n, n) stack and the residuals are (N,) arrays."""

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
    part is -M^T, written whole.  Of one block list, or an (N, n, n) stack
    from one block list per pencil, all of one layout.
    """
    stack = blocks if blocks and isinstance(blocks[0], list) else [blocks]
    size = sum(b.size for b in stack[0])
    out = np.zeros((len(stack), size, size))
    at = 0
    for k, b in enumerate(stack[0]):
        u = np.array([unit(bl[k]) for bl in stack])
        d = u.shape[-1]
        big = d * b.chain_length
        v, w = slice(at, at + big), slice(at + big, at + 2 * big)
        m = out[:, v, w]
        for i in range(0, big, d):
            m[:, i:i + d, i:i + d] = u
        if eps:
            off = np.arange(big - d)
            m[:, off, off + d] = eps
        np.negative(_t(m), out=out[:, w, v])
        at += 2 * big
    return out if stack is blocks else out[0]


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
    """Group numerically repeated eigenvalues; raise if gaps are ambiguous.

    The clusters come in reduction order, as (lam, mult): the real ones
    first (lam a float), then one per conjugate pair (lam the complex of
    positive imaginary part), each kind by decreasing real part.
    """
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
    out = []
    for lam, mult in sorted(((complex(c[0]), len(c[1])) for c in clusters),
                            key=lambda c: (abs(c[0].imag) > 1e-8 * scale,
                                           -c[0].real)):
        if lam.imag < -1e-8 * scale:
            continue  # the conjugate partner of a complex cluster
        # the block kind is decided here: a real lam keeps b real
        out.append((lam.real if abs(lam.imag) <= 1e-8 * scale else lam, mult))
    return out


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
    RetryExhaustedError.  A stack of float pencils is reduced at once, and
    raises as soon as one of its pencils fails."""
    if p.exact:
        got = _try_exact_reduce(p)
        if got is not None:
            return got
        p = p.floated()
    clusters = p.clusters
    if clusters is None:
        clusters = _cluster_eigenvalues(p.spectrum)
    try:
        result = _float_reduce(p, clusters, eps)
    except (ArithmeticError, np.linalg.LinAlgError) as err:
        raise RetryExhaustedError(f"reduction failed: {err}") from err
    r0 = np.ravel(result.omega0_residual)
    r1 = np.ravel(result.omega1_residual)
    failed = np.flatnonzero((r0 > OMEGA0_GATE) | (r1 > OMEGA1_GATE * eps))
    if failed.size:
        i = failed[0]
        raise RetryExhaustedError(
            f"reduction failed: residuals {r0[i]:.2e}/{r1[i]:.2e}")
    return result


def _float_reduce(p: _Pencil, clusters, eps: float) -> PencilBlocks:
    """The float reduction of one pencil, or of a stack of pencils that
    share one block layout, from its clusters in reduction order.

    One pencil runs as a stack of one.  Every step runs on the (N, n, n)
    stack and gives each pencil the bits of its own run: the eigenspace
    SVDs, the chains (_extract_chains), the Newton correction and the
    residuals.  The first pencil to fail a gate names the error.
    """
    m0, m1, b = p.a0.to_array(), p.a1.to_array(), p.b
    one = b.ndim == 2
    if one:
        m0, m1, b = m0[None], m1[None], b[None]
        clusters = [(np.array([lam]), mult) for lam, mult in clusters]
    count, n = len(b), b.shape[-1]
    blocks = [[] for _ in range(count)]
    columns = []
    for lam, mult in clusters:
        bl = b.astype(complex) if np.iscomplexobj(lam) else b
        space = _generalized_eigenspace(bl, lam, mult)
        vblocks, vcols = _extract_chains(bl, m0, lam, space, eps)
        for mine, more in zip(blocks, vblocks):
            mine += more
        columns += vcols
    basis = np.stack(columns, axis=-1)
    if basis.shape[-2:] != (n, n):
        raise ArithmeticError("block extraction lost dimensions")
    model0, model1 = _model_matrices(blocks)
    # Newton correction toward exact w0-standardness: for antisymmetric
    # error E, the update basis (I - Omega^{-1} E / 2) cancels E to first
    # order, and two or three passes reach machine accuracy; each pencil
    # stops at its own first error <= 1e-13
    live = np.arange(count)
    for _ in range(3):
        cur = basis[live]
        err = _t(cur) @ m0[live] @ cur - model0[live]
        going = ~(_amax(err) <= 1e-13)
        live = live[going]
        if not live.size:
            break
        delta = -0.5 * np.linalg.solve(model0[live], err[going])
        basis[live] = cur[going] @ (np.eye(n) + delta)
    t0 = _t(basis) @ m0 @ basis
    t1 = _t(basis) @ m1 @ basis
    _, model1_eps = _model_matrices(blocks, eps)
    r0 = _amax(t0 - model0)
    r1_exact = _amax(t1 - model1_eps)
    r1_model = _amax(t1 - model1)
    # the eps chain couplings are part of the construction: against the
    # coupled target the transport must be near machine accuracy, while the
    # contract residual is measured against the uncoupled block model
    violated = np.flatnonzero(r1_exact > 1e-6 * np.fmax(1.0, _amax(t1)))
    if violated.size:
        raise ArithmeticError(
            f"chain relations violated by {r1_exact[violated[0]]:.2e}")
    if one:
        return PencilBlocks(blocks[0], basis[0], eps, float(r0[0]),
                            float(r1_model[0]))
    return PencilBlocks(blocks, basis, eps, r0, r1_model)


def _generalized_eigenspace(b, lam, mult):
    """An orthonormal basis of ker (B - lam)^mult of each pencil of a stack,
    (N, n, m); every pencil's kernel must have the same dimension m."""
    n = b.shape[-1]
    m = np.linalg.matrix_power(
        b - lam[:, None, None] * np.eye(n, dtype=b.dtype), mult)
    _, s, vh = np.linalg.svd(m)
    dims = np.count_nonzero(s <= 1e-8 * np.fmax(1.0, s[:, :1]), axis=-1)
    if np.any(dims < mult):
        raise ArithmeticError("generalized eigenspace dimension deficient")
    if np.any(dims != dims[0]):
        raise ArithmeticError(
            "generalized eigenspace dimensions differ within the stack")
    return _t(vh[:, n - dims[0]:].conj())


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
    """Chains within one generalized eigenspace of each pencil of a stack,
    with w-duals: one block list per pencil, and the basis columns, each an
    (N, n) array.

    The caller passes a real lam with real b and space, and then every
    conjugation below is the identity.  A complex lam (one of a conjugate
    pair) has its w-chain in the conjugate eigenspace, pairing
    sesquilinearly; both chains are realified as (sqrt 2 Re, -sqrt 2 Im),
    where the minus orients the block so the transported w1 matches the
    printed (mu, nu) model exactly.

    A 2-dimensional eigenspace carries no chain: the Jordan blocks of
    B = A0^{-1} A1 of a skew pencil come in equal pairs (R. C. Thompson,
    Lin. Alg. Appl. 147, 1991).  So it is one pair (v, w) with k = 0, found
    without _nilpotency_index, whose symplectic complement must be empty,
    and the pencils of a stack take these steps together.  A larger
    eigenspace is split by _nilpotency_index, and only in a stack of one.
    """
    count, n = len(b), b.shape[-1]
    chain_free = space.shape[-1] == 2
    if count > 1 and not chain_free:
        raise ArithmeticError("a stack splits only 2-dimensional eigenspaces")
    pair = np.iscomplexobj(lam)
    if not chain_free:
        nmat = b - lam[:, None, None] * np.eye(n)
        nmat_conj = b - lam.conj()[:, None, None] * np.eye(n) if pair else nmat
    blocks, columns = [[] for _ in range(count)], []
    while space.shape[-1] > 0:
        if chain_free:
            k, j0 = 0, 0
        else:
            k, rk = _nilpotency_index(nmat[0], space[0])
            j0 = int(np.argmax(np.linalg.norm(rk, axis=0)))
        vs = [space[:, :, j0]]
        for _ in range(k):
            vs.append(_mv(nmat, vs[-1]) / eps)
        ws = [_solve_pairing(m0, vs, space.conj(), want_index=k)]
        for _ in range(k):
            ws.insert(0, _mv(nmat_conj, ws[0]) / eps)
        vs, ws = _balance_chain(vs, ws)
        if pair:
            columns += _realify(vs) + _realify(ws)
            for mine, z in zip(blocks, lam.tolist()):
                mine.append(ComplexBlock(z.real, z.imag, k + 1))
        else:
            columns += vs + ws
            for mine, x in zip(blocks, lam.tolist()):
                mine.append(RealBlock(x, k + 1))
        # the remaining u must satisfy conj(v_j)^T m0 u = 0 for the pairings
        # that eigenvalue orthogonality does not kill: v_j and conj(w_j)
        space = _symplectic_complement(
            m0, [v.conj() for v in vs] + ws, space)
        if chain_free and space.shape[-1]:
            raise ArithmeticError(
                "2-dimensional eigenspace is not one symplectic pair")
    return blocks, columns


def _mv(m, v):
    """m v for each matrix of an (N, n, n) stack and row of an (N, n)
    array."""
    return (m @ v[:, :, None])[:, :, 0]


def _norm(v):
    """The 2-norm of each row of an (N, n) array, with the bits of
    np.linalg.norm of that row: one dot product of the contiguous row, or
    of its real and of its imaginary part for a complex row."""
    v = np.ascontiguousarray(v)

    def dot(x):
        return (x[:, None, :] @ x[:, :, None])[:, 0, 0]

    return np.sqrt(dot(v.real) + dot(v.imag) if np.iscomplexobj(v)
                   else dot(v))


def _realify(vectors):
    """(sqrt 2 Re v, -sqrt 2 Im v) for each vector, in order."""
    return [col for v in vectors
            for col in (math.sqrt(2) * np.real(v), -math.sqrt(2) * np.imag(v))]


def _balance_chain(vs, ws):
    """Rescale v's by c and w's by 1/c to balance norms.

    A single factor per chain keeps every w0/w1 pairing (including the eps
    couplings) intact while conditioning the final basis matrix.  No norm
    is 0: v_0 is a unit vector and w_k pairs with v_k to 1.
    """
    vn = np.max([_norm(v) for v in vs], axis=0)
    wn = np.max([_norm(w) for w in ws], axis=0)
    c = np.sqrt(wn / vn)[:, None]
    return [c * v for v in vs], [w / c for w in ws]


def _solve_pairing(m0, vs, space, want_index):
    """w in span(space) with conj(v_j)^T m0 w = delta_{j, want_index}, for
    each pencil of a stack; one least-squares solve per pencil, since lstsq
    takes no stacks.  The right-hand side takes the system's dtype, so real
    chains stay real."""
    a = np.concatenate([v.conj()[:, None] @ m0 @ space for v in vs], axis=1)
    rhs = np.zeros(len(vs), dtype=a.dtype)
    rhs[want_index] = 1.0
    sol = np.array([np.linalg.lstsq(x, rhs, rcond=None)[0] for x in a])
    if np.any(np.abs(_mv(a, sol) - rhs) > 1e-8):
        raise ArithmeticError("pairing system inconsistent")
    return _mv(space, sol)


def _symplectic_complement(m0, extracted, space):
    """Vectors u of span(space) with conj(v)^T m0 u = 0 for every extracted v
    (for real vectors: w0-orthogonal to all of them), for each pencil of a
    stack; the complements must have one dimension."""
    cons = np.concatenate(
        [np.conj(v)[:, None] @ m0 @ space for v in extracted], axis=1)
    _, s, vh = np.linalg.svd(cons)
    rank = np.count_nonzero(s > 1e-10 * np.fmax(1.0, s[:, :1]), axis=-1)
    if np.any(rank != rank[0]):
        raise ArithmeticError(
            "symplectic complements differ in dimension within the stack")
    return space @ _t(vh[:, rank[0]:].conj())


def _try_exact_reduce(p: _Pencil):
    """Exact reduction for rational pencils with rational, semisimple spectrum.

    Returns None when the spectrum is not rational or the endomorphism is
    not diagonalizable; callers fall back to the float path.  It runs in
    Python ints: A0, A1 are scaled once to integers, and each vector is an
    integer numerator vector over one positive denominator, shared by the
    vectors of a space, so a pairing u^T M v is the integer row u^T M,
    formed once, times v over a known positive scale.  The eigenspace of
    lam is ker(A1 - lam A0) = ker(B - lam); a complement is the kernel of
    the integer pairings.  So each vector has its rational value, the w0
    Gram check is an integer equality, and the basis and the w1 residual
    are int quotients, rounded as float(Fraction) rounds them.
    """
    n = p.a0.dim
    m0, s0 = _poly.int_matrix(p.a0.matrix)
    m1, s1 = _poly.int_matrix(p.a1.matrix)
    # charpoly = h^2: each root of h is a root of twice its multiplicity
    roots = [(lam, 2 * mult)
             for lam, mult in _poly.rational_roots(p.spectrum, p.chain)]
    if sum(m for _, m in roots) != n:
        return None
    columns, blocks = [], []  # columns as (numerators, denominator)
    for lam, mult in sorted(roots, key=lambda t: -t[0]):
        a, b = lam.numerator, lam.denominator
        space, den = _poly.kernel([[b * s0 * x - a * s1 * y
                                    for x, y in zip(r1, r0)]
                                   for r0, r1 in zip(m0, m1)])
        if len(space) != mult:
            return None  # nontrivial Jordan structure: use floats
        while space:
            # v0 = space[0], w0 the first vector that pairs with it, scaled
            # to w0(v0, w0) = 1; the rest is the w0-complement of both
            v_row = _int_row(space[0], m0)
            pairs = [_int_dot(v_row, s) for s in space]
            at = next((j for j, x in enumerate(pairs) if x != 0), None)
            if at is None:
                raise ArithmeticError("inconsistent pairing system")
            # w0(v0, s) = pairs[at] / (s0 den^2), so w0 = s s0 den / pairs[at]
            sign = 1 if pairs[at] > 0 else -1
            w0 = ([sign * s0 * den * x for x in space[at]], abs(pairs[at]))
            columns += [(space[0], den), w0]
            blocks.append(RealBlock(lam, 1))
            w_row = _int_row(w0[0], m0)
            combos, kden = _poly.kernel([pairs,
                                         [_int_dot(w_row, s) for s in space]])
            space = [[_int_dot(c, col) for col in zip(*space)]
                     for c in combos]
            den *= kden
    basis = np.array([[num[i] / d for num, d in columns] for i in range(n)])
    model0, model1 = _model_matrices(blocks)
    r1 = []
    for (u, du), m0_row, m1_row in zip(columns, model0, model1):
        row0, row1 = _int_row(u, m0), _int_row(u, m1)
        for (v, dv), x0, x1 in zip(columns, m0_row, m1_row):
            if _int_dot(row0, v) != int(x0) * s0 * du * dv:
                return None
            r1.append(abs(_int_dot(row1, v) / (s1 * du * dv) - x1))
    return PencilBlocks(blocks, basis, 0.0, 0.0, max(r1))


def _int_row(u, m):
    """The row vector u^T M of integers (sum_j u_j M[j])."""
    return [_int_dot(u, col) for col in zip(*m)]


def _int_dot(u, v):
    return sum(x * y for x, y in zip(u, v))


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
    """construct_cotamed of an analysed pencil, or of a stack of float
    pencils that share one block layout (_float_reduce): one J, or the
    (N, n, n) stack of them.  A stack is refused when one of its pencils
    admits no cotamed structure, and fails when one of them fails; its
    error then gives the largest condition numbers of the stack."""
    if not np.all(p.ray_nondegenerate()):
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
        if np.all(np.logical_and(tames(p.a0, cand), tames(p.a1, cand))):
            return cand
        failure = "blockwise J failed a taming verification"
    raise RetryExhaustedError(
        f"cotamed construction failed "
        f"(cond(A0)={np.max(np.linalg.cond(p.a0.to_array())):.2e}, "
        f"cond(A1)={np.max(np.linalg.cond(p.a1.to_array())):.2e}): {failure}"
    )


# -- Cayley transform for complex structures ---------------------------------------


def _cayley_map(j0: np.ndarray, j: np.ndarray) -> np.ndarray:
    """A = (J + J0)^{-1} (J - J0), of one pair or of each pair of two
    stacks; A anticommutes with J0 and A - I is invertible.

    The raw solve leaves anticommutator noise of order cond * eps; after the
    sanity gate the result is projected onto the exactly anticommuting
    subspace so downstream convex combinations stay inside the chart.
    """
    s = j + j0
    if np.any(np.abs(np.linalg.det(s)) < 1e-12):
        raise ValueError("J + J0 is singular (J = -J0 boundary)")
    a = np.linalg.solve(s, j - j0)
    anti = a @ j0 + j0 @ a
    if np.any(_amax(anti) > 1e-9 * np.fmax(1.0, _amax(a))):
        raise ArithmeticError("Cayley image does not anticommute with J0")
    return (a + j0 @ a @ j0) / 2


def _cayley_inverse(j0: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The inverse transform A -> (A - I) J0 (A - I)^{-1}, of one pair or
    of each pair of two stacks, with the J^2 = -I gate of
    ComplexStructure."""
    anti = a @ j0 + j0 @ a
    if np.any(_amax(anti) > 1e-10 * np.fmax(1.0, _amax(a))):
        raise ValueError("A does not anticommute with J0")
    s = a - np.eye(a.shape[-1])
    if np.any(np.abs(np.linalg.det(s)) < 1e-12):
        raise ValueError("A - I is singular (eigenvalue 1)")
    j = s @ j0 @ np.linalg.inv(s)
    _require_square_minus_identity(j)
    return j


def _interpolate(j0, j1, j2, ts) -> list:
    """Convex interpolation through the Cayley chart at J0, of one triple
    or of each triple of three stacks: one matrix or stack per t.

    J1 and J2 are mapped into the chart once.  A form that tames J0, J1
    and J2 tames every result as well (convexity of the chart image).
    """
    a1 = _cayley_map(j0, j1)
    a2 = _cayley_map(j0, j2)
    return [_cayley_inverse(j0, (1 - t) * a1 + t * a2) for t in ts]


def _compatible(arr: np.ndarray) -> np.ndarray:
    """The canonical w-compatible structure J = -(-A^2)^{-1/2} A of one
    float skew matrix, or of each matrix of a stack, with the J^2 = -I gate
    of ComplexStructure."""
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


# the constants of numpy's SeedSequence (O'Neill's seed_seq_fe, 4-word pool)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _trial_rngs(seeds):
    """One generator per non-negative int seed, in order, each with the
    stream of np.random.default_rng(seed); an iterator, so that a caller
    may hold one generator at a time.

    default_rng(seed) is PCG64 seeded with SeedSequence(seed)
    .generate_state(4, np.uint64), and nearly all its cost is that hash.
    Here the hash runs once for all seeds, as uint32 array arithmetic; a
    seed below 2^128 is at most 4 entropy words, where padding with zero
    words is exact, and longer seeds are grouped by word count.
    """
    seeds = list(seeds)
    if min(seeds, default=0) < 0:
        raise ValueError("expected non-negative integer")
    widths = [max(4, -(-s.bit_length() // 32)) for s in seeds]
    states = np.empty((len(seeds), 4), np.uint64)
    for k in set(widths):
        idx = [i for i, w in enumerate(widths) if w == k]
        words = np.frombuffer(b"".join(seeds[i].to_bytes(4 * k, "little")
                                       for i in idx), "<u4")
        states[idx] = _seed_states(words.reshape(-1, k).T.astype(np.uint32))
    seed_state = _seed_state_type()
    return (np.random.Generator(np.random.PCG64(seed_state(s)))
            for s in states)


def _seed_states(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence(words).generate_state(4, np.uint64) for each column of
    a (k, N) uint32 array of entropy words, k >= 4: numpy's pool hash
    (hashmix, mix) and output hash on all N columns at once."""
    h = _INIT_A

    def hashmix(value):
        nonlocal h
        value = value ^ h
        h = h * _MULT_A & 0xFFFFFFFF
        value = value * h
        return value ^ value >> 16

    def mix(x, y):
        r = _MIX_L * x - _MIX_R * y
        return r ^ r >> 16

    pool = [hashmix(word) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    out = np.empty((entropy.shape[1], 8), np.uint32)
    h = _INIT_B
    for i in range(8):
        value = pool[i % 4] ^ h
        h = h * _MULT_B & 0xFFFFFFFF
        value = value * h
        out[:, i] = value ^ value >> 16
    return out.astype("<u4").view("<u8").astype(np.uint64)


@cache
def _seed_state_type():
    """The seed sequence that hands PCG64 a seed's state words, computed
    by _trial_rngs: the one request PCG64 makes of it.  The class is made
    on first use, since numpy.random loads lazily and costs every process
    that imports it about 5 MB."""

    class SeedState(np.random.bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("only the 4 uint64 words of PCG64 are known")
            return self.words

    return SeedState


def _skew_draw(rng: np.random.Generator, dim: int) -> np.ndarray:
    m = rng.standard_normal((dim, dim))
    return m - m.T


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


def _tamed_draws(rngs, arr: np.ndarray, j0: np.ndarray) -> np.ndarray:
    """A random J tamed by each form of an (N, n, n) stack: a Cayley
    perturbation of its J0 = _compatible(form), the i-th drawing a standard
    normal n x n matrix and then its g-norm from rngs[i].

    In the Cayley chart at J0 every A anticommuting with J0 whose operator
    norm in g = w(., J0 .) is below 1 gives a tamed J (McDuff-Salamon,
    Introduction to Symplectic Topology), so one draw, scaled to a g-norm
    from U(0.1, 0.95), always lands in the taming cone.
    """
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
    must make the pencil member (1 - t0) A0 + t0 A1 singular (its smallest
    singular value collapses against (1 - t0) max|A0| + t0 max|A1|); the
    construction refuses such a pencil by the same spectral test, so it is
    not built.  The constructions of a dimension run as a few stacks, one
    per block layout (_appendix_trials).
    """
    for dim in dims:
        _require_pencil_dim(dim)
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
    the stream of default_rng(seed + t) (_trial_rngs): the number of
    mismatches and of ill-conditioned spectra, and the smaller taming
    margin of each constructed J, in trial order.

    A trial with a negative real eigenvalue is not built: _construct
    refuses a float pencil exactly when its spectrum has one.  The others
    are clustered one by one (a PencilError is an ill-conditioned
    spectrum) and grouped by layout, the ordered kind and size of their
    clusters; each group whose clusters have size 2 at most is one stack
    for _construct.  A trial with a larger cluster, and each trial of a group
    that fails, is built alone, so that each trial counts as the per-trial
    loop counted it: a RetryExhaustedError is a mismatch.
    """
    rngs = list(_trial_rngs(seed + t for t in stack))
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
    # the member collapses when its smallest singular value is negligible
    # against the size of its two terms: its own largest singular value is
    # no yardstick, since both singular values of a 2 x 2 skew matrix agree
    size = np.abs(1 - t0) * _amax(m0[at]) + t0 * _amax(m1[at])
    collapses = np.zeros(len(stack), dtype=bool)
    collapses[at] = ~(sv[:, -1] > 1e-8 * size)

    def pencils(idx, clusters):
        return _Pencil(SkewForm(m0[idx]), SkewForm(m1[idx]), b[idx],
                       spectra[idx], clusters)

    # eigenvalue predicted a degeneracy that isn't, or a real eigenvalue
    # breaks the sign law
    bad = int(np.count_nonzero(np.where(has_negative, ~collapses,
                                        sign_law_fails)))
    ill = 0
    groups = {}
    for i in np.flatnonzero(~has_negative & ~sign_law_fails).tolist():
        # eigvals of one matrix is a real array when every eigenvalue is real
        vals = spectra[i]
        try:
            clusters = _cluster_eigenvalues(vals if vals.imag.any()
                                            else vals.real)
        except PencilError:
            # near-degenerate spectrum: reported, not guessed
            ill += 1
            continue
        layout = tuple((isinstance(lam, complex), mult)
                       for lam, mult in clusters)
        groups.setdefault(layout, []).append((i, clusters))
    js, alone = {}, []
    for layout, group in groups.items():
        if max(mult for _, mult in layout) > 2:
            alone += group
            continue
        idx = [i for i, _ in group]
        stacked = [(np.array([c[k][0] for _, c in group]), mult)
                   for k, (_, mult) in enumerate(group[0][1])]
        try:
            js.update(zip(idx, _construct(pencils(idx, stacked), 1e-3).matrix))
        except (RetryExhaustedError, ValueError, ArithmeticError):
            alone += group
    for i, clusters in sorted(alone, key=lambda trial: trial[0]):
        try:
            js[i] = _construct(pencils(i, clusters), 1e-3).matrix
        except RetryExhaustedError:
            bad += 1
    built = sorted(js)
    j = np.array([js[i] for i in built]).reshape(len(built), dim, dim)
    margin0 = _taming_spectrum(m0[built], j)[1][:, 0]
    margin1 = _taming_spectrum(m1[built], j)[1][:, 0]
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
    t drawing the stream of default_rng(seed + t) (_trial_rngs)."""
    rngs = list(_trial_rngs(seed + t for t in stack))
    a = _nondegenerate_draws(rngs, SUITE_DIM, 1)[:, 0]
    j0 = _compatible(a)
    j = _tamed_draws(rngs, a, j0)
    return _amax(_cayley_inverse(j0, _cayley_map(j0, j)) - j)


def interpolation_suite(trials: int, seed: int = 0) -> SuiteReport:
    mismatches = 0
    worst = math.inf
    for margins in _stacked(partial(_interpolation_trials, seed), trials):
        worst = min([worst, *margins.tolist()])
        mismatches += int(np.count_nonzero(margins <= 0))
    return SuiteReport(
        "interpolation-convexity", trials * len(INTERPOLATION_TS),
        mismatches, worst if worst < math.inf else 0.0, [seed],
    )


def _interpolation_trials(seed: int, stack: range) -> np.ndarray:
    """The taming margin of each interpolated J, trial by trial and t by t
    (INTERPOLATION_TS) within a trial, trial t drawing the stream of
    default_rng(seed + 31 t) (_trial_rngs)."""
    rngs = list(_trial_rngs(seed + 31 * t for t in stack))
    a = _nondegenerate_draws(rngs, SUITE_DIM, 1)[:, 0]
    j0 = _compatible(a)
    j1 = _tamed_draws(rngs, a, j0)
    j2 = _tamed_draws(rngs, a, j0)
    margins = [_taming_spectrum(a, j)[1][:, 0]
               for j in _interpolate(j0, j1, j2, INTERPOLATION_TS)]
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
    wedge_top = a0.to_form().top_pairing(a1.to_form())
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

    Each trial draws the stream of its own default_rng(seed), one
    generator at a time (_trial_rngs); the trials then run as
    one (N, 4, 4) stack, each with the values of its own 4x4 computation.
    """
    m0 = a0.to_array()
    m1 = a1.to_array()
    c = np.array([rng.standard_normal((4, 4)) for rng in _trial_rngs(seeds)])
    ham = np.linalg.solve(m0, (c + _t(c)) / 2)
    s = _expm(ham * 0.5)
    j = s @ _compatible(m0) @ np.linalg.inv(s)
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
    for k in sorted(set(ks.tolist())):
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
