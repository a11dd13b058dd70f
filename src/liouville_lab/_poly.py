"""Exact polynomials and exact linear algebra over the rationals.

Polynomials arrive as lists of Fractions in ascending order, trimmed so the
last entry is nonzero (the zero polynomial is the empty list).  Matrices
are lists of rows.  This module holds the package's one exact path:
evaluation, products and square roots of polynomials; one Sturm path in
Python ints (a signed remainder sequence by pseudo-division, whose signs at
a/b are integer sums, and one bisection over integer numerators) behind
root counting, root witnesses and rational roots; the matrix product, the
division-free charpoly and one fraction-free elimination on integer rows,
behind every exact determinant, solve and null space.  It backs every
Sturm-style positivity certificate; nothing here is allowed to touch
floating point.
"""

from __future__ import annotations

import math
from fractions import Fraction

Q = Fraction
_WITNESS_BITS = 40  # a root witness interval is at most 2^-40 wide


def poly(coeffs) -> list[Fraction]:
    return trim([Q(c) for c in coeffs])


def trim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def degree(p) -> int:
    return len(p) - 1


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


def evaluate(p, x) -> Fraction:
    x = Q(x)
    acc = Q(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def derivative(p):
    return trim([i * c for i, c in enumerate(p)][1:])


def square_root(p):
    """The monic h with h h = p, for a monic p of even degree; raises
    ArithmeticError when p is not such a square."""
    m = degree(p) // 2
    h = [Q(0)] * m + [Q(1)]
    for k in range(m - 1, -1, -1):
        # x^(m+k) of h^2 is 2 h_k plus products of coefficients above h_k
        h[k] = (p[m + k] - sum(h[i] * h[m + k - i]
                               for i in range(k + 1, m))) / 2
    if mul(h, h) != p:
        raise ArithmeticError("polynomial is not a square")
    return h


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def sturm_chain(p):
    """Sturm sequence of the squarefree part of p, each member content
    cleared to integers (a positive multiple, so every sign is kept).

    The signed remainder sequence of P = content_cleared(p) and P' ends in
    gcd(P, P'); when that has positive degree the sequence restarts from
    the squarefree part P / gcd, an exact division in Z[x].
    """
    chain = _remainders(content_cleared(p))
    if chain and len(chain[-1]) > 1:
        g = chain[-1] if chain[-1][-1] > 0 else [-c for c in chain[-1]]
        chain = _remainders(_divide_exact(chain[0], g))
    return chain


def _remainders(top):
    """The signed remainder sequence of a primitive integer polynomial top
    and its derivative, in Python ints (Basu, Pollack and Roy, Algorithms in
    Real Algebraic Geometry, 8.3): each remainder comes from a
    pseudo-division scaled by |lc| > 0, so it is a positive multiple of the
    one over Q, and is cut to its primitive part."""
    chain = [top] if top else []
    r = _primitive(derivative(top))
    while r:
        chain.append(r)
        r = [-c for c in _primitive(_pseudo_remainder(chain[-2], r))]
    return chain


def _pseudo_remainder(a, b):
    """|lc(b)|^k times the remainder of a by b in Z[x], for the k steps of
    the long division."""
    r = list(a)
    lc, n = b[-1], len(b) - 1
    m = abs(lc)
    while len(r) > n:
        c = r.pop() if lc > 0 else -r.pop()
        k = len(r) - n
        r = [m * x for x in r]
        for i, y in enumerate(b[:-1]):
            r[k + i] -= c * y
        trim(r)
    return r


def _divide_exact(a, b):
    """The quotient a / b in Z[x], for a b that divides a there."""
    r = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        q[k] = r[k + len(b) - 1] // b[-1]
        for i, y in enumerate(b):
            r[k + i] -= q[k] * y
    return q


def _primitive(c) -> list[int]:
    """An integer polynomial divided by the gcd of its coefficients."""
    g = math.gcd(*c)
    return [x // g for x in c] if g > 1 else c


def sign_variations(signs) -> int:
    nz = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(nz, nz[1:]) if a != b)


def variations_at(chain, x) -> int:
    """Sign variations of an integer chain at the rational x."""
    x = Q(x)
    return _variations(chain, x.numerator, _powers(chain, x.denominator))


def _powers(chain, b) -> list[int]:
    """b^k for every exponent k of the members of chain."""
    return [b ** k for k in range(max(map(len, chain), default=0))]


def _variations(chain, a, powers) -> int:
    """Sign variations of an integer chain at a/b, b > 0, from
    powers = _powers(chain, b): each c(a/b) b^deg(c) =
    sum c_i a^i b^(deg(c) - i), summed in integers by a homogeneous Horner
    rule, has the sign of c(a/b)."""
    signs = []
    for c in chain:
        acc = 0
        for k, ci in enumerate(reversed(c)):
            acc = acc * a + ci * powers[k]
        signs.append(_sign(acc))
    return sign_variations(signs)


def count_roots(p, a, b, chain=None) -> int:
    """Number of distinct real roots of p in (a, b]."""
    if chain is None:
        chain = sturm_chain(p)
    return variations_at(chain, a) - variations_at(chain, b)


def _bisect(chain, a, b, den, width):
    """The intervals (a/den, b/den] that hold a root of chain[0] and at
    which a Sturm bisection of (a/den, b/den] stops, from left to right.

    a, b and every midpoint are integer numerators over den; an interval
    is halved while it holds a root and b - a > width.
    """
    powers = _powers(chain, den)
    todo = [(a, _variations(chain, a, powers),
             b, _variations(chain, b, powers))]
    while todo:
        a, va, b, vb = todo.pop()
        if va == vb:
            continue
        if b - a > width:
            m = (a + b) >> 1
            vm = _variations(chain, m, powers)
            todo += [(m, vm, b, vb), (a, va, m, vm)]
        else:
            yield a, b


def positive_on_open_ray(p):
    """Exact test for p > 0 on (0, +inf).

    Returns (True, None) or (False, witness): ("point", 1, 0) for the
    zero polynomial, ("leading", sign) for a leading coefficient <= 0,
    else the `root_witness` of the bound root_bound(p).
    """
    if not p:
        return False, ("point", Q(1), Q(0))
    if _sign(p[-1]) <= 0:
        return False, ("leading", _sign(p[-1]))
    chain = sturm_chain(p)
    bound = root_bound(p)
    if count_roots(p, 0, bound, chain) == 0:
        # no root in (0, inf) and a positive leading coefficient: p > 0 there
        return True, None
    return False, root_witness(p, chain, bound)


def root_witness(p, chain, bound):
    """A point ("point", x, p(x)) of (0, bound) where p <= 0, or an
    interval ("root-interval", a, b) of width at most 2^-40 around the
    least root of p in (0, bound]; chain is sturm_chain(p), and p has a
    root in (0, bound].

    The bisection runs over den = den(bound) 2^shift: an interval it halves
    is num(bound) 2^(shift - j) / den wide after j halvings and wider than
    2^-40, so j < 40 + log2(bound) < shift and its midpoint is an integer.
    """
    shift = _WITNESS_BITS + bound.numerator.bit_length()
    den = bound.denominator << shift
    a, b = next(_bisect(chain, 0, bound.numerator << shift, den,
                        den >> _WITNESS_BITS))
    m = Q(a + b, 2 * den)
    vm = evaluate(p, m)
    if vm <= 0:
        return "point", m, vm
    return "root-interval", Q(a, den), Q(b, den)


def root_bound(p) -> Fraction:
    """Cauchy bound: all real roots lie in (-B, B)."""
    if degree(p) < 1:
        return Q(1)
    return 1 + Q(max(abs(c) for c in p[:-1]), abs(p[-1]))


def rational_roots(p, chain=None):
    """(root, multiplicity) pairs of the rational roots of p, ascending;
    chain, when given, is sturm_chain(p).

    Every rational root is k/lead for the leading coefficient lead of the
    integer polynomial P = content_cleared(p).  Sturm bisection narrows the
    real roots to intervals (a, b] of width at most 1/(2 lead), each of
    which holds at most one such point, and that point is tested exactly.
    All of it runs in Python ints: the endpoints are integer numerators
    over one denominator 2^shift, fine enough for every midpoint the
    bisection takes, and a candidate u/v in lowest terms is a root as often
    as v x - u divides P.
    """
    if degree(p) < 1:
        return []
    ints = content_cleared(p)
    lead = abs(ints[-1])
    if chain is None:
        chain = sturm_chain(p)
    top = chain[0]
    # an integer at least the Cauchy bound 1 + max |c_i| / |c_n| of top
    bound = 1 - (-max(map(abs, top[:-1])) // abs(top[-1]))
    # an interval that is split is 2 bound 2^shift / 2^j wide for some j
    # and wider than 2^shift / (2 lead), so j <= shift: its midpoint is an
    # integer
    shift = (2 * bound * lead).bit_length()
    roots = []
    for a, b in _bisect(chain, -bound << shift, bound << shift, 1 << shift,
                        (1 << shift) // (2 * lead)):
        u = b * lead >> shift  # floor(b lead / 2^shift): the last k/lead <= b
        if u << shift <= a * lead:
            continue
        g = math.gcd(u, lead)
        u, v = u // g, lead // g
        mult = 0
        while (q := _divide_linear(ints, u, v)) is not None:
            ints, mult = q, mult + 1
        if mult:
            roots.append((Q(u, v), mult))
    return roots


def _divide_linear(c, u, v):
    """The quotient of the integer polynomial c by v x - u, or None when
    v x - u does not divide it in Z[x]."""
    q = [0] * (len(c) - 1)
    carry = c[-1]
    for i in range(len(c) - 1, 0, -1):
        q[i - 1], rem = divmod(carry, v)
        if rem:
            return None
        carry = c[i - 1] + u * q[i - 1]
    return None if carry else q


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


def int_matrix(rows):
    """(D M, D) for a matrix M of ints and Fractions and the lcm D of its
    denominators: one positive scale for all entries, and Python ints (a
    Fraction may hold numpy integers)."""
    den = math.lcm(*(int(x.denominator) for row in rows for x in row))
    return [[int(x.numerator) * (den // int(x.denominator)) for x in row]
            for row in rows], den


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
    """Exact determinant of a rational matrix, on its integer multiple."""
    m, den = int_matrix(rows)
    return Q(_det(m), den ** len(m))


def solve(a, b):
    """The exact X with a X = b for a square a, as rows; None when a is
    singular.  Scaling [a | b] to integers leaves X unchanged."""
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("square matrix required")
    m, _ = int_matrix([list(ra) + list(rb) for ra, rb in zip(a, b)])
    pivots, _, d = _eliminate(m, n)
    if len(pivots) < n:
        return None
    return [[Q(x, d) for x in row[n:]] for row in m]


def kernel(rows):
    """Exact null-space basis of a nonempty list of rational rows, as the
    integer numerators of its vectors over one positive denominator: per
    free column f of the RREF, 1 at f, 0 at the other free columns and
    minus the reduced entries of column f at the pivot columns."""
    m, _ = int_matrix(rows)
    ncols = len(m[0])
    pivots, _, d = _eliminate(m, ncols)
    sign = 1 if d > 0 else -1
    basis = []
    for f in (j for j in range(ncols) if j not in pivots):
        vec = [0] * ncols
        vec[f] = sign * d
        for row, p in zip(m, pivots):
            vec[p] = -sign * row[f]
        basis.append(vec)
    return basis, sign * d


def charpoly(rows) -> list[Fraction]:
    """det(x - M) of a square rational matrix M, ascending.

    Berkowitz's division-free recurrence (Inf. Proc. Lett. 18, 1984) on the
    integer D M (int_matrix): each leading block's charpoly is a Toeplitz
    matrix of its border products R A^j S times the one before, and with
    det(y - D M) = sum c_k y^k the coefficient of x^k is c_k / D^(n-k).
    """
    n = len(rows)
    a, den = int_matrix(rows)
    p = [1]  # descending charpoly of the leading k x k block
    for k in range(n):
        # the Toeplitz column: 1, -a_kk, then -R A^j S for the border R, S
        col = [1, -a[k][k]]
        s = [a[i][k] for i in range(k)]
        for _ in range(k):
            col.append(-sum(x * y for x, y in zip(a[k], s)))
            s = [sum(x * y for x, y in zip(a[i], s)) for i in range(k)]
        p = [sum(col[i - j] * p[j] for j in range(min(i, k) + 1))
             for i in range(k + 2)]
    return [Q(p[n - m], den ** (n - m)) for m in range(n + 1)]


def mat_mul(a, b):
    """Exact product of two square matrices of the same size."""
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def content_cleared(p) -> list[int]:
    """Integer coefficient list with the common denominator cleared."""
    if not p:
        return []
    return _primitive(int_matrix([p])[0][0])
