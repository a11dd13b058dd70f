"""Number fields, unit lattices and torus-bundle monodromies.

The working order is Z[X]/(f) for a monic integer polynomial f of degree at
most 4.  Norms are exact integers (determinant of the multiplication
matrix, which equals the resultant Res(f, g) for monic f); unit discovery
is a bounded coordinate-box search whose norm filter is one exact batched
determinant per slice of the box (int64 within an overflow bound, Python
ints beyond it).  For real quadratic fields a continued-fraction Pell
oracle (pell_fundamental_unit) gives the fundamental unit independently;
find_units does not call it, and the tests compare the two.  The
log-embedding vectors of the positive units, together with the exponential
kernel contributions 2*pi*i per complex place and, for totally complex
fields, the torsion preimages, span the rank n-1 lattice whose monodromy
matrices glue the torus bundle.  The torsion comes from the same box search
as the free units.  The polynomial discriminant is the norm of f'(theta),
so it shares the norm's determinant.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from . import _poly, liealg

HYPERPLANE_TOL = 1e-10  # gamma_lattice: largest |trace| of a log vector

class FieldError(ValueError):
    """Defining polynomial is unusable for the working order."""


@dataclass(frozen=True)
class Poly:
    """Monic integer polynomial, ascending coefficients, degree 1..4."""

    coeffs: tuple

    def __post_init__(self):
        cs = tuple(int(c) for c in self.coeffs)
        object.__setattr__(self, "coeffs", cs)
        n = len(cs) - 1
        if not 1 <= n <= 4:
            raise FieldError("degree must be between 1 and 4")
        if cs[-1] != 1:
            raise FieldError("polynomial must be monic")
        rational = _poly.poly(cs)
        if _poly.degree(_poly.gcd_poly(rational, _poly.derivative(rational))) > 0:
            raise FieldError("polynomial must be squarefree")
        if n >= 2 and _poly.rational_roots(rational):
            raise FieldError("polynomial has a rational root")
        if n == 4 and self._has_quadratic_factor(cs):
            raise FieldError("degree-4 polynomial splits into two quadratics")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @staticmethod
    def _has_quadratic_factor(coeffs) -> bool:
        """Whether X^4 + aX^3 + bX^2 + cX + d = (X^2 + pX + q)(X^2 + rX + s).

        q + s is then an integer root t of the resolvent cubic
        y^3 - b y^2 + (ac - 4d) y - (a^2 d - 4bd + c^2), and q, s and p, r
        are the roots of z^2 - t z + d and z^2 - a z + (b - t); a root t
        gives a factorization when both discriminants are squares and one
        pairing meets ps + qr = c (Kappe-Warren, Amer. Math. Monthly 1989).
        """
        d, c, b, a, _ = coeffs
        cubic = _poly.poly([4 * b * d - a * a * d - c * c, a * c - 4 * d,
                            -b, 1])
        for t, _ in _poly.rational_roots(cubic):
            t = int(t)  # a rational root of a monic integer cubic
            discs = (t * t - 4 * d, a * a - 4 * (b - t))
            if min(discs) < 0 or any(math.isqrt(x) ** 2 != x for x in discs):
                continue
            qs, pr = map(math.isqrt, discs)
            q, s = (t + qs) // 2, (t - qs) // 2
            p, r = (a + pr) // 2, (a - pr) // 2
            if p * s + q * r == c or r * s + q * p == c:
                return True
        return False


@dataclass
class NumberField:
    """Defining polynomial plus polished embeddings, real roots first.

    Real roots are ordered descending; complex representatives have
    positive imaginary part (one per conjugate pair), ordered by
    descending real part.  That ordering is the only choice made here, and
    all downstream lattice data states vectors in it.
    """

    poly: Poly
    real_roots: list
    complex_roots: list

    @property
    def degree(self) -> int:
        return self.poly.degree

    @property
    def signature(self) -> tuple:
        return len(self.real_roots), len(self.complex_roots)

    @property
    def is_totally_real(self) -> bool:
        return not self.complex_roots

    def all_embedding_points(self):
        return [complex(r) for r in self.real_roots] + list(self.complex_roots)

    def embed(self, x: "OrderElement"):
        """Values of x under the r real and s complex embeddings."""
        reals = [_eval_int_poly(x.coords, r) for r in self.real_roots]
        cplx = [_eval_int_poly(x.coords, z) for z in self.complex_roots]
        return reals, cplx

    def discriminant(self) -> int:
        """disc(f) = (-1)^{n(n-1)/2} Res(f, f'), exact; for monic f the
        resultant is the norm of f'(theta), the determinant of its
        multiplication matrix."""
        n = self.degree
        fp = OrderElement(_derivative_coeffs(self.poly.coeffs))
        return (-1) ** (n * (n - 1) // 2) * _poly.int_det(mult_matrix(self, fp))


def _derivative_coeffs(coeffs) -> tuple:
    return tuple(i * c for i, c in enumerate(coeffs))[1:]


def _eval_int_poly(coords, x):
    acc = 0.0 if not isinstance(x, complex) else 0j
    for c in reversed(coords):
        acc = acc * x + c
    return acc


def field_from_poly(coeffs) -> NumberField:
    """Build a NumberField: companion-matrix roots plus Newton polishing."""
    p = Poly(tuple(coeffs))
    n = p.degree
    if n == 1:
        roots = [complex(-p.coeffs[0], 0.0)]
    else:
        comp = np.zeros((n, n))
        comp[1:, :-1] = np.eye(n - 1)
        comp[:, -1] = [-c for c in p.coeffs[:-1]]
        roots = [complex(z) for z in np.linalg.eigvals(comp)]
    dcoeffs = _derivative_coeffs(p.coeffs)
    polished = []
    for z in roots:
        for _ in range(10):
            fz = _eval_int_poly(p.coeffs, z)
            dz = _eval_int_poly(dcoeffs, z)
            if dz == 0:
                break
            z = z - fz / dz
        polished.append(z)
    reals, cplx = [], []
    for z in polished:
        if abs(z.imag) <= 1e-10 * (1 + abs(z)):
            reals.append(z.real)
        elif z.imag > 0:
            cplx.append(z)
    reals.sort(reverse=True)
    cplx.sort(key=lambda z: -z.real)
    field = NumberField(p, reals, cplx)
    if len(reals) + 2 * len(cplx) != n:
        raise FieldError("embedding count does not match degree")
    for z in field.all_embedding_points():
        if abs(_eval_int_poly(p.coeffs, z)) > 1e-12 * (1 + abs(z)) ** n:
            raise FieldError("root polishing failed")
    return field


@dataclass(frozen=True)
class OrderElement:
    """Element of Z[X]/(f) in the power basis, exact integer coordinates."""

    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(int(c) for c in self.coords))

    def __neg__(self):
        return OrderElement(tuple(-c for c in self.coords))

    def is_one(self) -> bool:
        return self.coords[0] == 1 and all(c == 0 for c in self.coords[1:])


def one(field: NumberField) -> OrderElement:
    return OrderElement((1,) + (0,) * (field.degree - 1))


def multiply(field: NumberField, x: OrderElement, y: OrderElement) -> OrderElement:
    n = field.degree
    prod = [0] * (2 * n - 1)
    for i, a in enumerate(x.coords):
        for j, b in enumerate(y.coords):
            prod[i + j] += a * b
    # reduce mod f using monicity: X^n = -(c_0 + ... + c_{n-1} X^{n-1})
    for k in range(2 * n - 2, n - 1, -1):
        c = prod[k]
        if c == 0:
            continue
        prod[k] = 0
        for i in range(n):
            prod[k - n + i] -= c * field.poly.coeffs[i]
    return OrderElement(tuple(prod[:n]))


def mult_matrix(field: NumberField, x: OrderElement):
    """Integer matrix of multiplication by x in the power basis (columns)."""
    n = field.degree
    cols = []
    for j in range(n):
        ej = OrderElement(tuple(1 if i == j else 0 for i in range(n)))
        cols.append(multiply(field, x, ej).coords)
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def norm(field: NumberField, x: OrderElement) -> int:
    """Exact field norm: det of the multiplication matrix (= Res(f, x))."""
    value = _poly.int_det(mult_matrix(field, x))
    reals, cplx = field.embed(x)
    approx = 1.0
    for v in reals:
        approx *= v
    for z in cplx:
        approx *= abs(z) ** 2
    if abs(approx - value) > 1e-6 * max(1.0, abs(value)):
        raise ArithmeticError(
            f"embedding product {approx} disagrees with exact norm {value}"
        )
    return value


def invert_unit(field: NumberField, u: OrderElement) -> OrderElement:
    """Inverse of a unit (|norm| = 1) via the adjugate, exactly.

    u^-1 is column 0 of M(u)^-1 = det * adj(M(u)), whose entry i is
    (-1)^i times the minor of M(u) without row 0 and column i.
    """
    m = mult_matrix(field, u)
    det = _poly.int_det(m)
    if det not in (1, -1):
        raise ValueError("element is not a unit")
    if field.degree == 1:
        return OrderElement((det,))
    return OrderElement(tuple(
        (-1) ** i * det * _poly.int_det([row[:i] + row[i + 1:] for row in m[1:]])
        for i in range(field.degree)
    ))


def log_vector(field: NumberField, u: OrderElement):
    """Log embedding: (log rho_i(u)..., log|sigma_j(u)|...)."""
    reals, cplx = field.embed(u)
    return [math.log(abs(v)) for v in reals] + [math.log(abs(z)) for z in cplx]


@dataclass
class UnitGroup:
    """Torsion units plus free generators of a finite-index unit subgroup."""

    torsion: list                  # all roots of unity found in the order
    torsion_generator: OrderElement
    torsion_order: int
    free_generators: list          # shortest-log-first, rank = r + s - 1
    rank: int


def find_units(field: NumberField, box_bound: int) -> UnitGroup:
    """Enumerate |coords| <= box_bound, keep exact norm +-1, reduce.

    Raises if the candidate count exceeds 10^6 or the free rank found falls
    short of the Dirichlet rank r + s - 1 (in which case the caller should
    increase box_bound rather than accept a deficient lattice).
    """
    n = field.degree
    if (2 * box_bound + 1) ** n > 10 ** 6:
        raise ValueError("box too large: more than 10^6 candidates")
    r, s = field.signature
    units = _box_units(field, box_bound)
    torsion, free_candidates = [], []
    for u in units:
        lv = log_vector(field, u)
        size = math.sqrt(sum(v * v for v in lv))
        if size <= 1e-9:
            if _element_order(field, u):
                torsion.append(u)
            else:  # pragma: no cover - log-null non-torsion cannot happen
                free_candidates.append((size, u))
        else:
            free_candidates.append((size, u))
    tor_gen, tor_order = _torsion_generator(field, torsion)
    rank_target = r + s - 1
    free = _greedy_rank_filter(field, free_candidates, rank_target)
    if len(free) < rank_target:
        raise ValueError(
            f"unit rank {len(free)} below Dirichlet rank {rank_target}; "
            "increase box_bound"
        )
    return UnitGroup(torsion, tor_gen, tor_order, free, len(free))


_BOX_SLICE = 8192  # candidates per batched determinant


def _box_units(field, box_bound):
    """Elements with |c_i| <= box_bound and exact norm +-1, in product order.

    M(u) = sum_k c_k M(X^k), so each slice of the box, taken in the order of
    `itertools.product`, is one einsum over the basis matrices and one
    batched cofactor determinant, on the dtype `_search_dtype` allows.  The
    zero vector has determinant 0 and never passes.
    """
    n = field.degree
    basis = [mult_matrix(field, OrderElement([int(i == k) for i in range(n)]))
             for k in range(n)]
    dtype = _search_dtype(basis, box_bound)
    basis = np.array(basis, dtype=dtype)
    side = max(0, 2 * box_bound + 1)
    total = side ** n
    hits = []
    for start in range(0, total, _BOX_SLICE):
        flat = np.arange(start, min(start + _BOX_SLICE, total))
        coords = np.stack(np.unravel_index(flat, (side,) * n), axis=-1)
        coords = (coords - box_bound).astype(dtype)
        det = _cofactor_det(np.einsum("ck,kij->cij", coords, basis))
        hits.extend(OrderElement(c) for c in coords[np.abs(det) == 1])
    return hits


def _search_dtype(basis, box_bound):
    """int64 when no determinant over the box can overflow, else object.

    Entries are at most box_bound * sum_k |M(X^k)_ij|, so every term and
    partial sum of the cofactor expansion is at most n! * prod_i max_j of
    that bound; int64 is exact while this stays below 2^62.
    """
    n = len(basis)
    bound = math.factorial(n)
    for i in range(n):
        bound *= max(box_bound * sum(abs(m[i][j]) for m in basis)
                     for j in range(n))
    return np.int64 if bound < 2 ** 62 else object


def _cofactor_det(m):
    """Determinants of a stack of k x k matrices by Laplace expansion.

    Exact on int64 within the caller's bound and on Python ints (k <= 4).
    """
    k = m.shape[-1]
    if k == 1:
        return m[..., 0, 0]
    det = 0
    for j in range(k):
        term = m[..., 0, j] * _cofactor_det(np.delete(m[..., 1:, :], j, axis=-1))
        det = det - term if j % 2 else det + term
    return det


def _element_order(field, u) -> int:
    """The order m <= 12 of u in the unit group, or 0 if u has none."""
    p = one(field)
    for m in range(1, 13):
        p = multiply(field, p, u)
        if p.is_one():
            return m
    return 0


def _torsion_generator(field, torsion):
    best, best_order = one(field), 1
    for u in torsion:
        m = _element_order(field, u)
        if m > best_order or (m == best_order and u.coords > best.coords):
            best, best_order = u, m
    return best, best_order


def _greedy_rank_filter(field, candidates, rank_target):
    """Shortest-first selection of log vectors increasing the rank."""
    chosen = []
    chosen_logs = []
    for _, u in sorted(candidates, key=lambda t: (t[0], t[1].coords)):
        lv = log_vector(field, u)
        if _residual_norm(chosen_logs, lv) > 1e-8:
            chosen.append(_canonical_unit(field, u))
            chosen_logs.append(log_vector(field, chosen[-1]))
            if len(chosen) == rank_target:
                break
    return chosen


def _residual_norm(basis, v):
    """Distance from v to the span of the vectors in `basis`."""
    v = np.array(v, dtype=float)
    if basis:
        a = np.array(basis, dtype=float).T
        v = v - a @ np.linalg.lstsq(a, v, rcond=None)[0]
    return float(np.linalg.norm(v))


def _canonical_unit(field, u) -> OrderElement:
    """Pick the representative of {±u, ±u^-1} with first log-embedding > 0.

    Normalizes reporting: for Q[sqrt 2] this selects 3 + 2X rather than its
    inverse 3 - 2X.  Sign is chosen to make the first embedding positive.
    """
    candidates = [u, -u]
    inv = invert_unit(field, u)
    candidates += [inv, -inv]
    r, s = field.signature

    def keyfun(w):
        reals, cplx = field.embed(w)
        first = reals[0] if r else abs(cplx[0])
        return (first <= 0, -(first > 1), w.coords)

    best = min(candidates, key=keyfun)
    return best


def positive_units(group: UnitGroup, field: NumberField):
    """Generators with all real embeddings positive; squares repair failures."""
    out = []
    for u in group.free_generators:
        reals, _ = field.embed(u)
        if all(v > 0 for v in reals):
            out.append(u)
        else:
            out.append(_canonical_unit(field, multiply(field, u, u)))
    return out


@dataclass
class LatticeData:
    """Basis of the log-embedding lattice plus monodromy matrices."""

    gamma_basis: list         # vectors: r real entries then s complex entries
    monodromy: list           # integer matrices, one per generator used
    generators: list          # OrderElements matching `monodromy`
    rank: int


def gamma_lattice(field: NumberField, gens, units: UnitGroup) -> LatticeData:
    """Preimage lattice of the positive units in the trace-zero hyperplane.

    The basis consists of the log vectors of the free positive generators,
    together with the reduced lattice generated by the kernel vectors
    2*pi*i per complex place and, for totally complex fields, the torsion
    preimages of the torsion generator of `units`: a root of unity other
    than 1 is a positive unit only when there is no real place.  Rank must
    come out to n - 1 exactly (r + s - 1 free part plus s from the
    kernel/torsion).
    """
    r, s = field.signature
    n = field.degree
    basis = []
    monodromy_gens = list(gens)
    for u in gens:
        basis.append(_full_log_vector(field, u))
    if s:
        tor_gen, tor_order = one(field), 1
        if r == 0:
            tor_gen, tor_order = units.torsion_generator, units.torsion_order
        imag_rows = []
        if tor_order > 1:
            _, cplx = field.embed(tor_gen)
            args = [cmath.phase(z) for z in cplx]
            ints = []
            for a in args:
                k = round(a * tor_order / (2 * math.pi))
                if abs(a * tor_order / (2 * math.pi) - k) > 1e-9:
                    raise ArithmeticError("torsion argument not commensurable")
                ints.append(k)
            imag_rows.append(ints)
            monodromy_gens.append(tor_gen)
        for j in range(s):
            imag_rows.append([tor_order if i == j else 0 for i in range(s)])
        reduced = _hnf_rows(imag_rows)
        for row in reduced:
            vec = [0.0] * r + [
                complex(0.0, k * 2 * math.pi / tor_order) for k in row
            ]
            basis.append(vec)
    # verify trace-zero hyperplane membership and rank
    for vec in basis:
        tr = sum(v for v in vec[:r]) + 2 * sum(v.real for v in vec[r:])
        if abs(tr) > HYPERPLANE_TOL:
            raise ArithmeticError("lattice vector leaves the trace-zero hyperplane")
    flat = [
        [v for z in vec for v in ((z.real, z.imag) if isinstance(z, complex) else (z,))]
        for vec in basis
    ]
    rank = int(np.linalg.matrix_rank(np.array(flat), tol=1e-8)) if flat else 0
    if rank != n - 1:
        raise ArithmeticError(f"lattice rank {rank} != n - 1 = {n - 1}")
    mats = monodromy_matrices(field, monodromy_gens)
    return LatticeData(basis, mats, monodromy_gens, rank)


def _full_log_vector(field, u):
    reals, cplx = field.embed(u)
    return [math.log(v) for v in reals] + [
        complex(math.log(abs(z)), cmath.phase(z)) for z in cplx
    ]


def _hnf_rows(rows):
    """Row-style Hermite reduction of an integer row lattice (small sizes)."""
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return []
    cols = len(rows[0])
    out = []
    pivot_col = 0
    while pivot_col < cols and rows:
        with_pivot = [r for r in rows if r[pivot_col] != 0]
        without = [r for r in rows if r[pivot_col] == 0]
        if not with_pivot:
            rows = without
            pivot_col += 1
            continue
        while len(with_pivot) > 1:
            with_pivot.sort(key=lambda r: abs(r[pivot_col]))
            base = with_pivot[0]
            rest = []
            for r in with_pivot[1:]:
                q = r[pivot_col] // base[pivot_col]
                r = [a - q * b for a, b in zip(r, base)]
                if r[pivot_col] != 0:
                    rest.append(r)
                elif any(r):
                    without.append(r)
            with_pivot = [base] + rest
        piv = with_pivot[0]
        if piv[pivot_col] < 0:
            piv = [-a for a in piv]
        out.append(piv)
        rows = without
        pivot_col += 1
    return out


def monodromy_matrices(field: NumberField, gens):
    """Integer matrices of multiplication by each generator; det = 1 exact.

    A float cross-check verifies that the embedding matrix conjugates each
    monodromy to diag(rho_i(u), complex blocks) within 1e-8.
    """
    mats = []
    n = field.degree
    emb = np.zeros((n, n))
    row = 0
    for root in field.real_roots:
        emb[row, :] = [root ** j for j in range(n)]
        row += 1
    for z in field.complex_roots:
        emb[row, :] = [(z ** j).real for j in range(n)]
        emb[row + 1, :] = [(z ** j).imag for j in range(n)]
        row += 2
    for u in gens:
        m = mult_matrix(field, u)
        det = _poly.int_det(m)
        if det != 1:
            raise ArithmeticError("monodromy determinant is not 1")
        mf = np.array(m, dtype=float)
        conj = emb @ mf @ np.linalg.inv(emb)
        reals, cplx = field.embed(u)
        target = np.zeros((n, n))
        at = 0
        for v in reals:
            target[at, at] = v
            at += 1
        for z in cplx:
            target[at, at] = z.real
            target[at, at + 1] = -z.imag
            target[at + 1, at] = z.imag
            target[at + 1, at + 1] = z.real
            at += 2
        if np.max(np.abs(conj - target)) > 1e-8:
            raise ArithmeticError("monodromy does not diagonalize to embeddings")
        mats.append(m)
    return mats


# -- Pell oracle for real quadratic orders --------------------------------------


def pell_fundamental_unit(field: NumberField) -> OrderElement:
    """Continued-fraction fundamental unit of Z[X]/(f), f real quadratic.

    Walks the periodic surd expansion of the larger root with exact integer
    state and returns the first convergent p/q with |p^2 + b p q + c q^2| = 1
    as the canonical positive representative.
    """
    if field.degree != 2 or not field.is_totally_real:
        raise ValueError("Pell oracle requires a real quadratic field")
    c, b, _ = field.poly.coeffs
    disc = b * b - 4 * c
    # theta = (-b + sqrt(disc)) / 2: surd state x = (P + sqrt(D)) / Qd
    P, D, Qd = -b, disc, 2
    p_prev, p_cur = 1, None
    q_prev, q_cur = 0, None
    for _ in range(200):
        a = _floor_surd(P, D, Qd)
        if p_cur is None:
            p_cur, q_cur = a, 1
        else:
            p_cur, p_prev = a * p_cur + p_prev, p_cur
            q_cur, q_prev = a * q_cur + q_prev, q_cur
        # convergent element p - q theta, whose norm is q^2 f(p/q)
        nrm = p_cur * p_cur + b * p_cur * q_cur + c * q_cur * q_cur
        if abs(nrm) == 1 and q_cur > 0:
            u = OrderElement((p_cur, -q_cur))
            reals, _ = field.embed(u)
            if any(v < 0 for v in reals) or nrm == -1:
                u = multiply(field, u, u)
            return _canonical_unit(field, u)
        P = a * Qd - P
        Qd = (D - P * P) // Qd
    raise ArithmeticError("Pell expansion did not terminate")


def _floor_surd(P: int, D: int, Qd: int) -> int:
    """floor((P + sqrt(D)) / Qd) with exact integer arithmetic, D non-square."""
    t = math.isqrt(D)
    if Qd > 0:
        return (P + t) // Qd
    m = (P + t) // Qd
    k = m * Qd - P
    return m if (k >= 0 and D < k * k) else m - 1


# -- full pipeline ----------------------------------------------------------------


@dataclass
class PairReport:
    field: NumberField
    units: UnitGroup
    positive_generators: list
    lattice: LatticeData
    preset: liealg.Preset | None
    certificate: liealg.PositivityCertificate | None


def build_liealg_pair(field: NumberField, box_bound: int | None = None) -> PairReport:
    """Units, lattice and (totally real case) the exact pair certificate.

    For s > 0 only the lattice data is produced; the left-invariant pair on
    the associated group involves the linear product model, a sampled check
    (`formfam.linear_model_pair_check`, acceptance criterion 13), not
    certified here.
    """
    if box_bound is None:
        box_bound = _default_box(field)
    units = find_units(field, box_bound)
    pos = positive_units(units, field)
    lattice = gamma_lattice(field, pos, units)
    preset = None
    cert = None
    if field.is_totally_real:
        preset = liealg.totally_real(field.degree)
        cert = liealg.liouville_pair_check(
            preset.algebra, preset.alpha_plus, preset.alpha_minus
        )
    return PairReport(field, units, pos, lattice, preset, cert)


def _default_box(field: NumberField) -> int:
    return {1: 1, 2: 40, 3: 12, 4: 8}[field.degree]
