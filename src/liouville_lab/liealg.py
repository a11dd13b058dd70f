"""Lie algebras by structure constants and exact contact-type certificates.

Structure constants are exact rationals; the Chevalley-Eilenberg rule
d(e^k) = -sum_{i<j} c^k_{ij} e^i ^ e^j, kept as one table, extends to all
left-invariant forms as an antiderivation: d of a blade is a signed sum
over its bits.  With antisymmetric brackets d(d(e^k)) = 0 is the Jacobi
identity, so Jacobi is verified exactly as d^2 = 0.  Certificates
(contact sign, Liouville-pair positivity over the coefficient simplex,
Geiges identities) are computed exactly, each as the top coefficient of a
wedge read by `Form.top_pairing` against a wedge-power ladder built once,
so the top-degree product itself is never formed; only the Geiges-group
normal-form isomorphism, which involves rotation angles, runs in floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import _poly
from .exterior import EXACT, Coframe, Form, _wedge_sign, blade_mask, mask_blade

Q = Fraction


class StructureConstantError(ValueError):
    """Structure constants are out of range or fail the Jacobi identity."""


class LieAlgebra:
    """Finite-dimensional Lie algebra over Q given by structure constants.

    brackets[(i, j)] with i < j maps k -> c^k_{ij}, meaning
    [e_i, e_j] = sum_k c^k_{ij} e_k.  Antisymmetry is built into the storage;
    the Jacobi identity is verified exactly at construction, as d^2 = 0.
    """

    def __init__(self, names, brackets, check=True):
        self.names = tuple(names)
        self.dim = len(self.names)
        clean = {}
        for (i, j), row in brackets.items():
            if not 0 <= i < j < self.dim:
                raise StructureConstantError("bracket indices must satisfy i < j")
            if not all(0 <= k < self.dim for k in row):
                raise StructureConstantError("bracket value index out of range")
            row = {k: Q(v) for k, v in row.items() if v != 0}
            if row:
                clean[(i, j)] = row
        self.brackets = clean
        # d(e^k) = -sum_{i<j} c^k_{ij} e^i ^ e^j as (mask, coeff) pairs,
        # the coefficients already in the exact ring
        self._d1 = [[] for _ in range(self.dim)]
        for (i, j), row in clean.items():
            for k, c in row.items():
                self._d1[k].append(((1 << i) | (1 << j), EXACT.coerce(-c)))
        if check and not self.d_squared_check():
            raise StructureConstantError("Jacobi identity fails")

    def coframe(self) -> Coframe:
        return Coframe(self.names)

    def _d_blade(self, mask):
        """d of the unit blade e^mask as a signed sum over its bits.

        The (mask, coeff) pairs come unmerged, bit by bit in increasing
        order: the term (m, c) of d(e^i) lands on rest | m, where rest is
        the blade without bit i, with the sign (-1)^pos of i's position
        times that of rest ^ m (a 2-form commutes with every form).
        """
        out = []
        sign = 1
        bits = mask
        while bits:
            low = bits & -bits
            rest = mask ^ low
            for m, c in self._d1[low.bit_length() - 1]:
                if not m & rest:
                    s = sign * _wedge_sign(rest, m)
                    out.append((rest | m, c if s > 0 else -c))
            sign = -sign
            bits ^= low
        return out

    def _d_terms(self, terms, ring=EXACT):
        """d of the form with blade coefficients `terms` (mask -> coeff).

        The linear extension of `_d_blade`, summed pair by pair in `ring`;
        in the exact ring a blade whose sum cancels is dropped and re-enters
        at the end, while the float ring drops nothing.  A float
        coefficient times an exact table entry is the float product.
        """
        out = {}
        for mask, c in terms.items():
            for m, dc in self._d_blade(mask):
                term = c * dc
                if ring.is_zero(term):
                    continue
                total = out.get(m, 0) + term
                if ring.is_zero(total):
                    del out[m]
                else:
                    out[m] = total
        return out

    def ce_differential(self, a: Form) -> Form:
        """Chevalley-Eilenberg exterior derivative of a left-invariant form."""
        cf = self.coframe()
        if a.coframe != cf:
            raise ValueError("form coframe does not match algebra")
        # top forms have zero differential; keep top degree for bookkeeping
        degree = min(a.degree + 1, self.dim)
        return Form(cf, degree, self._d_terms(a.terms, a.ring), a.ring)

    def d_squared_check(self) -> bool:
        """d(d(e^k)) = 0 for every k: the Jacobi identity, exactly."""
        return not any(self._d_terms(dict(dk)) for dk in self._d1)

    def permuted(self, perm):
        """Relabel basis: new index p carries old index perm[p]."""
        inv = {old: new for new, old in enumerate(perm)}
        names = tuple(self.names[old] for old in perm)
        brackets = {}
        for (i, j), row in self.brackets.items():
            ni, nj = inv[i], inv[j]
            sign = 1
            if ni > nj:
                ni, nj = nj, ni
                sign = -1
            brackets[(ni, nj)] = {inv[k]: sign * c for k, c in row.items()}
        return LieAlgebra(names, brackets, check=False)

    def __repr__(self):
        return f"LieAlgebra({', '.join(self.names)})"


def permute_form(a: Form, perm) -> Form:
    """Transport a form to the relabeled coframe of `permuted(perm)`."""
    inv = {old: new for new, old in enumerate(perm)}
    names = tuple(a.coframe.names[old] for old in perm)
    cf = Coframe(names)
    terms = {}
    for mask, c in a.terms.items():
        new_idx = [inv[i] for i in mask_blade(mask)]
        sign = _perm_parity_sign(new_idx)
        terms_key = blade_mask(new_idx)
        terms[terms_key] = terms.get(terms_key, 0) + (c if sign > 0 else -c)
    return Form(cf, a.degree, terms, a.ring)


def _perm_parity_sign(seq):
    seq = list(seq)
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def semidirect_sum(action, base_names, fiber_names) -> LieAlgebra:
    """Abelian base acting on an abelian fiber: [a_i, v] = A_i v.

    `action` is one matrix per base generator; the matrices must commute
    exactly or the construction raises.  For this bracket the Jacobi
    identity, checked by the constructor as d^2 = 0, says exactly that.
    """
    p, q = len(base_names), len(fiber_names)
    for m in action:
        if len(m) != q or any(len(r) != q for r in m):
            raise ValueError("action matrix size does not match fiber dimension")
    names = tuple(base_names) + tuple(fiber_names)
    brackets = {}
    for i, m in enumerate(action):
        for j in range(q):
            row = {p + k: m[k][j] for k in range(q) if m[k][j] != 0}
            if row:
                brackets[(i, p + j)] = row
    try:
        return LieAlgebra(names, brackets)
    except StructureConstantError as exc:
        raise StructureConstantError("action matrices do not commute") from exc


# -- certificates --------------------------------------------------------------


def sign_verdict(x) -> str:
    """The verdict of an exact sign: positive, negative, or indefinite
    for 0."""
    return "positive" if x > 0 else "negative" if x < 0 else "indefinite"


def _simplex_verdict(p, chain):
    """(verdict, number of roots in (0, 1], witness) of p on [0, 1].

    The verdict is the sign of p when no root lies in (0, 1] and p(0),
    p(1) share it, else indefinite.  Unless it is positive, the witness is
    ("point", x, p(x)) for the first x of 0, 1 with p(x) <= 0, else the
    `_poly.root_witness` of the least root in (0, 1].
    """
    roots = _poly.count_roots(p, 0, 1, chain)
    v0, v1 = _poly.evaluate(p, 0), _poly.evaluate(p, 1)
    verdict = sign_verdict(v0)
    if roots or sign_verdict(v1) != verdict:
        verdict = "indefinite"
    if verdict == "positive":
        witness = None
    elif v0 <= 0:
        witness = ("point", Q(0), v0)
    elif v1 <= 0:
        witness = ("point", Q(1), v1)
    else:
        witness = _poly.root_witness(p, chain, Q(1))
    return verdict, roots, witness


@dataclass
class PositivityCertificate:
    """Replayable record of an exactness-backed sign verdict."""

    verdict: str                    # "positive" | "negative" | "indefinite"
    kind: str                       # "exact-sign" | "exact-sturm"
    orientation: str
    value: Fraction | None = None   # exact-sign: the top coefficient
    polynomial: list | None = None  # exact-sturm: simplex polynomial coeffs
    root_count: int | None = None
    witness: tuple | None = None

    def replay(self) -> bool:
        """Re-derive the verdict (with root count and witness) from the
        stored data."""
        if self.kind == "exact-sign":
            return sign_verdict(self.value) == self.verdict
        p = self.polynomial
        return _simplex_verdict(p, _poly.sturm_chain(p)) == (
            self.verdict, self.root_count, self.witness)


def contact_check(g: LieAlgebra, a: Form) -> PositivityCertificate:
    """Exact sign of a ^ (da)^m against the listed coframe orientation."""
    if g.dim % 2 == 0:
        raise ValueError("contact_check requires an odd-dimensional algebra")
    if a.degree != 1:
        raise ValueError("contact_check requires a 1-form")
    m = (g.dim - 1) // 2
    top = a.top_pairing(g.ce_differential(a).power(m))
    return PositivityCertificate(
        verdict=sign_verdict(top),
        kind="exact-sign",
        orientation=_orientation_str(g),
        value=top,
    )


def pair_polynomial(g: LieAlgebra, a_plus: Form, a_minus: Form):
    """Coefficients of p(x) = P(x, 1-x) for the pair positivity polynomial.

    P(C+, C-) is the top coefficient of
    (C+ a+ - C- a-) ^ (C+ da+ + C- da-)^(n-1), homogeneous of degree n.
    """
    n = (g.dim + 1) // 2
    pp = g.ce_differential(a_plus).powers(n - 1)
    pm = g.ce_differential(a_minus).powers(n - 1)
    c = [0] * (n + 1)  # p = sum_i c_i x^i (1 - x)^(n - i)
    for j in range(n):
        binom = math.comb(n - 1, j)
        rest = pm[n - 1 - j]
        c[j + 1] += binom * EXACT.coerce(a_plus.wedge(pp[j]).top_pairing(rest))
        c[j] -= binom * EXACT.coerce(a_minus.wedge(pp[j]).top_pairing(rest))
    # x^i (1 - x)^(n - i) = sum_k (-1)^k C(n - i, k) x^(i + k)
    return _poly.poly(
        sum((-1) ** (m - i) * math.comb(n - i, m - i) * c[i]
            for i in range(m + 1))
        for m in range(n + 1))


def liouville_pair_check(g: LieAlgebra, a_plus: Form,
                         a_minus: Form) -> PositivityCertificate:
    """Certify the Liouville-pair condition over the coefficient simplex.

    The pair condition is equivalent to positivity of the homogeneous
    polynomial P(C+, C-) for all C+, C- >= 0 not both zero; substituting
    (x, 1-x) reduces it to p > 0 on [0, 1], decided exactly by Sturm root
    isolation.  Both forms must be exact.
    """
    if g.dim % 2 == 0:
        raise ValueError("liouville_pair_check requires odd dimension")
    if a_plus.degree != 1 or a_minus.degree != 1:
        raise ValueError("liouville_pair_check requires 1-forms")
    if not (a_plus.ring.exact and a_minus.ring.exact):
        raise ValueError("liouville_pair_check requires exact forms")
    p = pair_polynomial(g, a_plus, a_minus)
    verdict, root_count, witness = _simplex_verdict(p, _poly.sturm_chain(p))
    return PositivityCertificate(
        verdict=verdict,
        kind="exact-sturm",
        orientation=_orientation_str(g),
        polynomial=p,
        root_count=root_count,
        witness=witness,
    )


def geiges_pair_check(g: LieAlgebra, a_plus: Form, a_minus: Form) -> bool:
    """Exact check of the Geiges identities.

    Requires a+ ^ (da+)^n = -(a- ^ (da-)^n) != 0 together with
    a± ^ (da±)^k ^ (da∓)^(n-k) = 0 for all 0 <= k <= n-1.
    """
    if g.dim % 2 == 0:
        raise ValueError("geiges_pair_check requires odd dimension")
    n = (g.dim - 1) // 2
    pp = g.ce_differential(a_plus).powers(n)
    pm = g.ce_differential(a_minus).powers(n)
    vol_plus = a_plus.top_pairing(pp[n])
    if vol_plus == 0 or vol_plus + a_minus.top_pairing(pm[n]) != 0:
        return False
    for k in range(n):
        if (a_plus.wedge(pp[k]).top_pairing(pm[n - k])
                or a_minus.wedge(pm[k]).top_pairing(pp[n - k])):
            return False
    return True


def _orientation_str(g: LieAlgebra) -> str:
    return "volume = " + "∧".join(g.names)


# -- Geiges groups and the block-rotation normal form ---------------------------


@dataclass
class GeigesIsomorphism:
    r: int
    s: int
    residual: float
    traces: list

    @property
    def traces_vanish(self) -> bool:
        return all(t == 0 for t in self.traces)


def geiges_isomorphism(preset: Preset) -> GeigesIsomorphism:
    """Conjugate the Geiges action to the rotation block normal form.

    Reads the exact powers A, ..., A^(n-1) of the action that `geiges(n)`
    keeps in its preset's meta.  Builds B = diag(1, R_theta, ...,
    R_{s theta}) (with an extra -1 block for even n, theta = 2 pi / n),
    finds real P with A = P^-1 B P, and returns the worst structure-constant
    mismatch between the pushed-forward semidirect algebra and the
    block-form one, i.e. max_i |P A^i P^-1 - B^i|.  The exact integer
    traces tr(A^j), j = 1..n-1, are returned alongside (they vanish, which
    is what places the image inside the unimodular subgroup).
    """
    powers = preset.meta["powers"]
    n = len(powers) + 1
    r = 1 if n % 2 else 2
    s = (n - r) // 2
    traces = [sum(power[i][i] for i in range(n)) for power in powers]
    if n == 1:
        return GeigesIsomorphism(1, 0, 0.0, traces)
    A = np.array(powers[0], dtype=float)
    theta = 2 * math.pi / n
    blocks = [np.array([[1.0]])]
    if r == 2:
        blocks.append(np.array([[-1.0]]))
    for j in range(1, s + 1):
        c, sn = math.cos(j * theta), math.sin(j * theta)
        blocks.append(np.array([[c, -sn], [sn, c]]))
    B = _block_diag(blocks)
    # columns of Q: real eigenvector for +1 (and -1), then (Im v, Re v) per
    # complex eigenvalue e^{i j theta}, which carries A to the R_{j theta} block
    vals, vecs = np.linalg.eig(A)
    cols = [_real_eigvec(vals, vecs, 1.0)]
    if r == 2:
        cols.append(_real_eigvec(vals, vecs, -1.0))
    for j in range(1, s + 1):
        lam = complex(math.cos(j * theta), math.sin(j * theta))
        v = _complex_eigvec(vals, vecs, lam)
        cols.append(np.imag(v))
        cols.append(np.real(v))
    Qm = np.column_stack(cols)
    P = np.linalg.inv(Qm)
    residual = 0.0
    Bp = np.eye(n)
    for power in powers:
        Bp = Bp @ B
        Ap = np.array(power, dtype=float)
        residual = max(residual, float(np.max(np.abs(P @ Ap @ Qm - Bp))))
    return GeigesIsomorphism(r, s, residual, traces)


def _block_diag(blocks):
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n))
    at = 0
    for b in blocks:
        k = b.shape[0]
        out[at:at + k, at:at + k] = b
        at += k
    return out


def _real_eigvec(vals, vecs, lam):
    i = int(np.argmin(np.abs(vals - lam)))
    v = np.real(vecs[:, i])
    return v / np.linalg.norm(v)


def _complex_eigvec(vals, vecs, lam):
    i = int(np.argmin(np.abs(vals - lam)))
    v = vecs[:, i]
    return v / np.linalg.norm(v)


# -- presets --------------------------------------------------------------------


@dataclass
class Preset:
    """A named algebra together with its distinguished invariant forms."""

    key: str
    algebra: LieAlgebra
    alpha_plus: Form | None = None
    alpha_minus: Form | None = None
    liouville_form: Form | None = None
    orientation: str = ""
    meta: dict = field(default_factory=dict)


def aff_r() -> Preset:
    """Lie algebra of the affine group of the line: [T, Theta] = Theta."""
    g = LieAlgebra(("T*", "Θ*"), {(0, 1): {1: Q(1)}})
    beta = Form.covector(g.coframe(), "Θ*")
    return Preset("aff_r", g, liouville_form=beta,
                  orientation=_orientation_str(g))


def aff_c() -> Preset:
    """Lie algebra of complex affine transformations; dX* = X*^U* + V*^Y*."""
    g = LieAlgebra(
        ("U*", "V*", "X*", "Y*"),
        {
            (0, 2): {2: Q(1)},   # [U, X] = X
            (1, 2): {3: Q(1)},   # [V, X] = Y
            (0, 3): {3: Q(1)},   # [U, Y] = Y
            (1, 3): {2: Q(-1)},  # [V, Y] = -X
        },
    )
    beta = Form.covector(g.coframe(), "X*")
    return Preset("aff_c", g, liouville_form=beta,
                  orientation=_orientation_str(g))


def grs(r: int, s: int) -> Preset:
    """Direct product of r real and s complex affine algebras."""
    if r + 2 * s < 1 or r < 0 or s < 0:
        raise ValueError("need r + 2s >= 1")
    names = []
    brackets = {}
    at = 0
    for i in range(1, r + 1):
        names += [f"T{i}*", f"Θ{i}*"]
        brackets[(at, at + 1)] = {at + 1: Q(1)}
        at += 2
    for j in range(1, s + 1):
        names += [f"U{j}*", f"V{j}*", f"X{j}*", f"Y{j}*"]
        brackets[(at, at + 2)] = {at + 2: Q(1)}
        brackets[(at + 1, at + 2)] = {at + 3: Q(1)}
        brackets[(at, at + 3)] = {at + 3: Q(1)}
        brackets[(at + 1, at + 3)] = {at + 2: Q(-1)}
        at += 4
    g = LieAlgebra(tuple(names), brackets)
    beta = None
    if r >= 1:
        beta = Form.covector(g.coframe(), "Θ1*")
    elif s >= 1:
        beta = Form.covector(g.coframe(), "X1*")
    return Preset(f"grs:{r},{s}", g, liouville_form=beta,
                  orientation=_orientation_str(g))


def grs1(r: int, s: int) -> Preset:
    """Unimodular subgroup algebra h1 ⋉ (R^r x C^s).

    The base is the kernel of the trace functional t_1+...+t_r+2 sum Re w_j,
    with basis T_i - T_r (i < r), U_j - 2 T_r and V_j when r >= 1, and
    U_j - U_s (j < s) plus V_j when r = 0.  For r >= 1, s = 0 the preset
    carries the standard Liouville pair; for s > 0 no pair is attached.  The
    linear product model behind those pairs is a sampled check,
    `formfam.linear_model_pair_check`, run by acceptance criterion 13; it
    certifies nothing about this preset.
    """
    n = r + 2 * s
    if n < 1 or r < 0 or s < 0:
        raise ValueError("need r + 2s >= 1")
    fiber_names = [f"Θ{i}*" for i in range(1, r + 1)]
    for j in range(1, s + 1):
        fiber_names += [f"X{j}*", f"Y{j}*"]
    qdim = r + 2 * s

    def t_action(i):
        m = [[Q(0)] * qdim for _ in range(qdim)]
        m[i][i] = Q(1)
        return m

    def u_action(j):
        m = [[Q(0)] * qdim for _ in range(qdim)]
        m[r + 2 * j][r + 2 * j] = Q(1)
        m[r + 2 * j + 1][r + 2 * j + 1] = Q(1)
        return m

    def v_action(j):
        m = [[Q(0)] * qdim for _ in range(qdim)]
        m[r + 2 * j + 1][r + 2 * j] = Q(1)   # [V, X] = Y
        m[r + 2 * j][r + 2 * j + 1] = Q(-1)  # [V, Y] = -X
        return m

    base_names = []
    action = []
    if r >= 1:
        for i in range(r - 1):
            base_names.append(f"H{i + 1}*")
            action.append(_mat_sub(t_action(i), t_action(r - 1)))
        for j in range(s):
            base_names.append(f"HU{j + 1}*")
            action.append(_mat_sub(u_action(j), _mat_scale(t_action(r - 1), 2)))
            base_names.append(f"V{j + 1}*")
            action.append(v_action(j))
    else:
        for j in range(s - 1):
            base_names.append(f"HU{j + 1}*")
            action.append(_mat_sub(u_action(j), u_action(s - 1)))
        for j in range(s):
            base_names.append(f"V{j + 1}*")
            action.append(v_action(j))
    g = semidirect_sum(action, base_names, fiber_names)
    preset = Preset(f"grs1:{r},{s}", g, orientation=_orientation_str(g))
    if s == 0 and r >= 1:
        cf = g.coframe()
        # theta_r plays the distinguished role of the concrete pair
        plus = {cf.index(f"Θ{r}*"): Q(1)}
        rest = {cf.index(f"Θ{i}*"): Q(1) for i in range(1, r)}
        ap = Form(cf, 1, {1 << k: v for k, v in {**rest, **plus}.items()})
        am_terms = dict(rest)
        am_terms[cf.index(f"Θ{r}*")] = Q(-1)
        am = Form(cf, 1, {1 << k: v for k, v in am_terms.items()})
        preset.alpha_plus, preset.alpha_minus = ap, am
        _fix_pair_orientation(preset)
    return preset


def _mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _mat_scale(a, c):
    return [[c * x for x in row] for row in a]


def totally_real(m: int) -> Preset:
    """The concrete pair ±e^{t_1+...+t_{m-1}} dθ_0 + sum e^{-t_i} dθ_i.

    Dimension 2m - 1 (degree-m totally real field).  The fiber coframe is
    Θ0*, ..., Θ{m-1}* with brackets [T_i, Θ_0] = -Θ_0 and
    [T_i, Θ_j] = δ_ij Θ_j; the listed coframe order is adjusted (a single
    transposition at the tail when needed) so the plus form has positive
    contact volume.
    """
    if m < 1:
        raise ValueError("m >= 1 required")
    base_names = [f"T{i}*" for i in range(1, m)]
    fiber_names = [f"Θ{i}*" for i in range(m)]
    action = []
    for i in range(m - 1):
        mat = [[Q(0)] * m for _ in range(m)]
        mat[0][0] = Q(-1)
        mat[i + 1][i + 1] = Q(1)
        action.append(mat)
    g = semidirect_sum(action, base_names, fiber_names)
    cf = g.coframe()
    ap_terms = {1 << cf.index(n): Q(1) for n in fiber_names}
    am_terms = dict(ap_terms)
    am_terms[1 << cf.index("Θ0*")] = Q(-1)
    preset = Preset(
        f"totreal:{m}", g,
        alpha_plus=Form(cf, 1, ap_terms),
        alpha_minus=Form(cf, 1, am_terms),
        orientation=_orientation_str(g),
    )
    _fix_pair_orientation(preset)
    return preset


def sol_from_sl2(a) -> Preset:
    """Sol-type pair ±e^t dx + e^{-t} dy with a hyperbolic SL(2,Z) monodromy.

    The algebra does not depend on the matrix; `a` certifies that the pair
    descends to the mapping torus (det = 1, |trace| > 2).
    """
    rows = [list(map(int, r)) for r in a]
    if len(rows) != 2 or any(len(r) != 2 for r in rows):
        raise ValueError("expected a 2x2 integer matrix")
    det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    tr = rows[0][0] + rows[1][1]
    if det != 1:
        raise ValueError("matrix must lie in SL(2,Z)")
    if abs(tr) <= 2:
        raise ValueError("matrix is not hyperbolic (|trace| <= 2)")
    g = LieAlgebra(
        ("T*", "X*", "Y*"),
        {(0, 1): {1: Q(-1)}, (0, 2): {2: Q(1)}},
    )
    cf = g.coframe()
    ap = Form(cf, 1, {1 << 1: Q(1), 1 << 2: Q(1)})
    am = Form(cf, 1, {1 << 1: Q(-1), 1 << 2: Q(1)})
    key = "sol:" + ",".join(str(x) for r in rows for x in r)
    preset = Preset(key, g, alpha_plus=ap, alpha_minus=am,
                    orientation=_orientation_str(g))
    _fix_pair_orientation(preset)
    return preset


def geiges(n: int) -> Preset:
    """Geiges group algebra R^{n-1} ⋉ R^n with its left-invariant pair.

    The j-th base generator acts by the j-th power of the cyclic-type
    integer matrix A; meta["powers"] keeps A, ..., A^(n-1) for
    `geiges_isomorphism`.  The distinguished pair is (E2*, E1*) in the
    fiber coframe, verified to be a Geiges pair exactly in dimensions 3
    and 5.
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    if n == 1:
        g = LieAlgebra(("Θ*",), {})
        cf = g.coframe()
        return Preset(
            "geiges:1", g,
            alpha_plus=Form.covector(cf, 0),
            alpha_minus=-Form.covector(cf, 0),
            orientation=_orientation_str(g),
            meta={"powers": []},
        )
    a = [[0] * n for _ in range(n)]
    a[0][1] = -1
    for i in range(1, n - 1):
        a[i][i + 1] = 1
    a[n - 1][0] = -1
    powers = [a]
    for _ in range(n - 2):
        powers.append(_poly.mat_mul(powers[-1], a))
    base_names = [f"Y{i}*" for i in range(1, n)]
    fiber_names = [f"E{i}*" for i in range(1, n + 1)]
    g = semidirect_sum(powers, base_names, fiber_names)
    cf = g.coframe()
    ap = Form.covector(cf, "E2*")
    am = Form.covector(cf, "E1*")
    preset = Preset(f"geiges:{n}", g, alpha_plus=ap, alpha_minus=am,
                    orientation=_orientation_str(g), meta={"powers": powers})
    _fix_pair_orientation(preset)
    return preset


def _fix_pair_orientation(preset: Preset):
    """Swap the last two listed covectors if the plus volume is negative.

    The underlying geometry fixes the pair only up to a choice of
    orientation; the listed coframe order is bookkeeping, so a single tail
    transposition realizes the positive choice.  Reports always state the
    resulting order.
    """
    g, ap = preset.algebra, preset.alpha_plus
    cert = contact_check(g, ap)
    if cert.verdict == "positive":
        return
    if cert.verdict == "indefinite":
        raise ValueError("preset pair is not contact; cannot orient")
    perm = list(range(g.dim))
    perm[-1], perm[-2] = perm[-2], perm[-1]
    preset.algebra = g.permuted(perm)
    preset.alpha_plus = permute_form(preset.alpha_plus, perm)
    preset.alpha_minus = permute_form(preset.alpha_minus, perm)
    preset.orientation = _orientation_str(preset.algebra)
    assert contact_check(preset.algebra, preset.alpha_plus).verdict == "positive"


def preset(key: str) -> Preset:
    """Resolve a preset id such as 'totreal:2', 'grs1:2,0' or 'sol:2,1,1,1'."""
    name, _, args = key.partition(":")
    if name == "aff_r":
        return aff_r()
    if name == "aff_c":
        return aff_c()
    if name == "grs":
        r, s = (int(x) for x in args.split(","))
        return grs(r, s)
    if name == "grs1":
        r, s = (int(x) for x in args.split(","))
        return grs1(r, s)
    if name == "totreal":
        return totally_real(int(args))
    if name == "s1" or key == "s1":
        return totally_real(1)
    if name == "geiges":
        return geiges(int(args))
    if name == "sol":
        vals = [int(x) for x in args.split(",")]
        if len(vals) != 4:
            raise ValueError("sol preset takes 4 integers a,b,c,d")
        return sol_from_sl2([[vals[0], vals[1]], [vals[2], vals[3]]])
    raise ValueError(f"unknown preset {key!r}")
