"""Exact polynomials and exact linear algebra over the rationals.

Polynomials are lists of Fractions in ascending order, trimmed so the last
entry is nonzero (the zero polynomial is the empty list).  Matrices are
lists of rows.  This module holds the package's one exact path: polynomial
arithmetic, Sturm chains, root counting and isolation, rational roots, the
matrix product and one fraction-free elimination on integer rows, behind
every exact determinant, solve and null space.  It backs every Sturm-style
positivity certificate; nothing here is allowed to touch floating point.
"""

from __future__ import annotations

import math
from fractions import Fraction

Q = Fraction
_ISOLATION_WIDTH = Q(1, 2**40)  # isolate_root bisects below this width


def poly(coeffs) -> list[Fraction]:
    p = [Q(c) for c in coeffs]
    return trim(p)


def trim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def degree(p) -> int:
    return len(p) - 1


def add(p, q):
    n = max(len(p), len(q))
    out = [Q(0)] * n
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return trim(out)


def neg(p):
    return [-c for c in p]


def sub(p, q):
    return add(p, neg(q))


def scale(p, c):
    c = Q(c)
    if c == 0:
        return []
    return [c * a for a in p]


def mul(p, q):
    if not p or not q:
        return []
    out = [Q(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return trim(out)


def pow_(p, k: int):
    out = [Q(1)]
    for _ in range(k):
        out = mul(out, p)
    return out


def evaluate(p, x) -> Fraction:
    x = Q(x)
    acc = Q(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def derivative(p):
    return trim([Q(i) * c for i, c in enumerate(p)][1:])


def divmod_poly(p, q):
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(p)
    quot = [Q(0)] * max(len(p) - len(q) + 1, 0)
    dq = degree(q)
    lc = q[-1]
    while len(r) - 1 >= dq and r:
        k = len(r) - 1 - dq
        c = r[-1] / lc
        quot[k] = c
        for i, b in enumerate(q):
            r[k + i] -= c * b
        trim(r)
    return trim(quot), r


def gcd_poly(p, q):
    a, b = list(p), list(q)
    while b:
        a, b = b, divmod_poly(a, b)[1]
    if a:
        a = [c / a[-1] for c in a]
    return a


def squarefree_part(p):
    if degree(p) <= 1:
        return list(p)
    g = gcd_poly(p, derivative(p))
    if degree(g) < 1:
        return list(p)
    return divmod_poly(p, g)[0]


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def sturm_chain(p):
    """Sturm sequence of the squarefree part of p."""
    p = squarefree_part(p)
    chain = [p, derivative(p)]
    while chain[-1]:
        rem = divmod_poly(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append(neg(rem))
    return [c for c in chain if c]


def sign_variations(signs) -> int:
    nz = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(nz, nz[1:]) if a != b)


def variations_at(chain, x) -> int:
    return sign_variations([_sign(evaluate(c, x)) for c in chain])


def variations_at_pos_inf(chain) -> int:
    return sign_variations([_sign(c[-1]) for c in chain])


def count_roots(p, a, b, chain=None) -> int:
    """Number of distinct real roots of p in (a, b]."""
    if chain is None:
        chain = sturm_chain(p)
    return variations_at(chain, a) - variations_at(chain, b)


def count_roots_above(p, a) -> int:
    """Number of distinct real roots of p in (a, +inf)."""
    chain = sturm_chain(p)
    return variations_at(chain, a) - variations_at_pos_inf(chain)


def isolate_root(p, a, b):
    """Shrink (a, b], known to contain at least one root, below
    _ISOLATION_WIDTH."""
    chain = sturm_chain(p)
    a, b = Q(a), Q(b)
    while b - a > _ISOLATION_WIDTH:
        m = (a + b) / 2
        if count_roots(p, a, m, chain) >= 1:
            b = m
        else:
            a = m
    return a, b


def positive_on_01(p):
    """Exact test for p > 0 on [0, 1].

    Returns (True, None) or (False, witness) where the witness is either a
    rational x in [0, 1] with p(x) <= 0 or an isolating interval of a root.
    """
    v0 = evaluate(p, 0)
    if v0 <= 0:
        return False, ("point", Q(0), v0)
    v1 = evaluate(p, 1)
    if v1 <= 0:
        return False, ("point", Q(1), v1)
    n = count_roots(p, 0, 1)
    if n == 0:
        return True, None
    a, b = isolate_root(p, Q(0), Q(1))
    m = (a + b) / 2
    vm = evaluate(p, m)
    if vm <= 0:
        return False, ("point", m, vm)
    return False, ("root-interval", a, b)


def positive_on_open_ray(p):
    """Exact test for p > 0 on (0, +inf); same witness shape as above."""
    if not p:
        return False, ("point", Q(1), Q(0))
    if _sign(p[-1]) <= 0:
        return False, ("leading", _sign(p[-1]))
    if count_roots_above(p, 0) == 0:
        # no root in (0, inf) and a positive leading coefficient: p > 0 there
        return True, None
    bound = root_bound(p)
    a, b = isolate_root(p, Q(0), bound)
    m = (a + b) / 2
    vm = evaluate(p, m)
    if vm <= 0:
        return False, ("point", m, vm)
    return False, ("root-interval", a, b)


def root_bound(p) -> Fraction:
    """Cauchy bound: all real roots lie in (-B, B)."""
    if degree(p) < 1:
        return Q(1)
    lc = abs(p[-1])
    b = Q(1) + max(abs(c) for c in p[:-1]) / lc
    return b


def rational_roots(p):
    """(root, multiplicity) pairs of the rational roots of p, ascending.

    Every rational root is k/lead for the leading coefficient lead of
    `content_cleared(p)`.  Sturm bisection narrows each real root to an
    interval (a, b] of width at most 1/(2 lead), which holds at most one
    such point, and that point is tested exactly.
    """
    if degree(p) < 1:
        return []
    lead = abs(content_cleared(p)[-1])
    chain = sturm_chain(p)
    bound = root_bound(chain[0])
    width = Q(1, 2 * lead)
    found = []
    todo = [(-bound, variations_at(chain, -bound),
             bound, variations_at(chain, bound))]
    while todo:
        a, va, b, vb = todo.pop()
        if va == vb:
            continue
        if va - vb == 1 and b - a <= width:
            r = Q(math.floor(b * lead), lead)
            if r > a and evaluate(p, r) == 0:
                found.append(r)
            continue
        m = (a + b) / 2
        vm = variations_at(chain, m)
        todo += [(a, va, m, vm), (m, vm, b, vb)]
    roots = []
    for r in sorted(found):
        mult = 0
        q = list(p)
        while evaluate(q, r) == 0:
            q = divmod_poly(q, poly([-r, 1]))[0]
            mult += 1
        roots.append((r, mult))
    return roots


def _eliminate(m, ncols):
    """Fraction-free Gauss-Jordan elimination of integer rows in place, with
    pivots in the first ncols columns (Bareiss, Math. Comp. 22, 1968).

    Returns the pivot columns, the sign of the row swaps and the last pivot
    d: the rows divided by d are the reduced row echelon form, and a square
    m of full rank has determinant sign * d.
    """
    pivots = []
    sign = d = 1
    for c in range(ncols):
        k = len(pivots)
        r = next((i for i in range(k, len(m)) if m[i][c]), None)
        if r is None:
            continue
        if r != k:
            m[k], m[r] = m[r], m[k]
            sign = -sign
        top = m[k]
        p = top[c]
        for i, row in enumerate(m):
            if i != k:
                f = row[c]
                m[i] = [(p * x - f * y) // d for x, y in zip(row, top)]
        pivots.append(c)
        d = p
    return pivots, sign, d


def _int_rows(rows):
    """Each rational row times the lcm of its denominators, as Python ints,
    and the product of those multipliers."""
    out, scale = [], 1
    for row in rows:
        row = [Q(x) for x in row]
        lcm = math.lcm(*(x.denominator for x in row))
        out.append([x.numerator * (lcm // x.denominator) for x in row])
        scale *= lcm
    return out, scale


def _det(m) -> int:
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("square matrix required")
    pivots, sign, d = _eliminate(m, n)
    return sign * d if len(pivots) == n else 0


def int_det(rows) -> int:
    """Exact determinant of an integer matrix."""
    return _det([list(map(int, r)) for r in rows])


def frac_det(rows) -> Fraction:
    """Exact determinant of a rational matrix, on integer-scaled rows."""
    m, scale = _int_rows(rows)
    return Q(_det(m), scale)


def solve(a, b):
    """The exact X with a X = b for a square a, as rows; None when a is
    singular.  Scaling a row of [a | b] to integers leaves X unchanged."""
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("square matrix required")
    m, _ = _int_rows([list(ra) + list(rb) for ra, rb in zip(a, b)])
    pivots, _, d = _eliminate(m, n)
    if len(pivots) < n:
        return None
    return [[Q(x, d) for x in row[n:]] for row in m]


def kernel(rows):
    """Exact null-space basis of a nonempty list of rows: per free column f
    of the RREF, 1 at f, 0 at the other free columns and minus the reduced
    entries of column f at the pivot columns."""
    m, _ = _int_rows(rows)
    ncols = len(m[0])
    pivots, _, d = _eliminate(m, ncols)
    basis = []
    for f in (j for j in range(ncols) if j not in pivots):
        vec = [Q(0)] * ncols
        vec[f] = Q(1)
        for row, p in zip(m, pivots):
            vec[p] = Q(-row[f], d)
        basis.append(vec)
    return basis


def mat_mul(a, b):
    """Exact product of two square matrices of the same size."""
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def content_cleared(p) -> list[int]:
    """Integer coefficient list with the common denominator cleared."""
    if not p:
        return []
    den = 1
    for c in p:
        den = den * c.denominator // math.gcd(den, c.denominator)
    ints = [int(c * den) for c in p]
    g = 0
    for c in ints:
        g = math.gcd(g, abs(c))
    if g > 1:
        ints = [c // g for c in ints]
    return ints
