import itertools
import math
import random
from fractions import Fraction as Q

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import liouville_lab._poly as poly

# -- Fraction references: the routines the integer Sturm path replaced ---------


def add(p, q):
    n = max(len(p), len(q))
    out = [Q(0)] * n
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return poly.trim(out)


def neg(p):
    return [-c for c in p]


def pow_(p, k):
    out = [Q(1)]
    for _ in range(k):
        out = poly.mul(out, p)
    return out


def divmod_poly(p, q):
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(p)
    quot = [Q(0)] * max(len(p) - len(q) + 1, 0)
    dq = poly.degree(q)
    lc = q[-1]
    while len(r) - 1 >= dq and r:
        k = len(r) - 1 - dq
        c = r[-1] / lc
        quot[k] = c
        for i, b in enumerate(q):
            r[k + i] -= c * b
        poly.trim(r)
    return poly.trim(quot), r


def gcd_poly(p, q):
    a, b = list(p), list(q)
    while b:
        a, b = b, divmod_poly(a, b)[1]
    return [c / a[-1] for c in a]


def squarefree_part(p):
    if poly.degree(p) <= 1:
        return list(p)
    g = gcd_poly(p, poly.derivative(p))
    if poly.degree(g) < 1:
        return list(p)
    return divmod_poly(p, g)[0]


def isolate_root(p, a, b):
    """Shrink (a, b], known to contain at least one root, below 2^-40 by a
    Sturm bisection in Fractions, every sign from a Fraction evaluation."""
    chain = fraction_sturm_chain(p)
    a, b = Q(a), Q(b)
    while b - a > Q(1, 2 ** 40):
        m = (a + b) / 2
        a, b = (a, m) if fraction_count_roots(chain, a, m) >= 1 else (m, b)
    return a, b


def reference_root_witness(p, b):
    a, b = isolate_root(p, 0, b)
    m = (a + b) / 2
    vm = poly.evaluate(p, m)
    return ("point", m, vm) if vm <= 0 else ("root-interval", a, b)


def positive_on_01(p, chain=None):
    """Exact test for p > 0 on [0, 1] on the integer Sturm path, the
    reference for the witness of the pair verdict: (True, None), or (False,
    witness) for a point of [0, 1] where p <= 0 or an isolating interval
    of a root."""
    v0 = poly.evaluate(p, 0)
    if v0 <= 0:
        return False, ("point", Q(0), v0)
    v1 = poly.evaluate(p, 1)
    if v1 <= 0:
        return False, ("point", Q(1), v1)
    if chain is None:
        chain = poly.sturm_chain(p)
    if poly.count_roots(p, 0, 1, chain) == 0:
        return True, None
    return False, poly.root_witness(p, chain, Q(1))


def reference_positive_on_01(p):
    v0 = poly.evaluate(p, 0)
    if v0 <= 0:
        return False, ("point", Q(0), v0)
    v1 = poly.evaluate(p, 1)
    if v1 <= 0:
        return False, ("point", Q(1), v1)
    if fraction_count_roots(fraction_sturm_chain(p), 0, 1) == 0:
        return True, None
    return False, reference_root_witness(p, Q(1))


def reference_positive_on_open_ray(p):
    if not p:
        return False, ("point", Q(1), Q(0))
    if p[-1] < 0:
        return False, ("leading", -1)
    bound = poly.root_bound(p)
    if fraction_count_roots(fraction_sturm_chain(p), 0, bound) == 0:
        return True, None
    return False, reference_root_witness(p, bound)


def test_arithmetic_basics():
    p = poly.poly([1, 2, 3])          # 1 + 2x + 3x^2
    q = poly.poly([-1, 1])            # x - 1
    assert poly.evaluate(p, 2) == 17
    assert poly.mul(p, q) == poly.poly([-1, -1, -1, 3])
    quot, rem = divmod_poly(p, q)
    assert add(poly.mul(quot, q), rem) == p
    assert poly.derivative(p) == poly.poly([2, 6])
    assert poly.trim([Q(0), Q(0)]) == []


def test_gcd_and_squarefree():
    # (x-1)^2 (x+2)
    p = poly.mul(poly.mul(poly.poly([-1, 1]), poly.poly([-1, 1])),
                 poly.poly([2, 1]))
    sf = squarefree_part(p)
    assert poly.degree(sf) == 2
    assert poly.evaluate(sf, 1) == 0
    assert poly.evaluate(sf, -2) == 0


def test_count_roots_known_cubic():
    # roots exactly at 1, 2, 3
    p = poly.mul(poly.mul(poly.poly([-1, 1]), poly.poly([-2, 1])),
                 poly.poly([-3, 1]))
    assert poly.count_roots(p, 0, 4) == 3
    assert poly.count_roots(p, Q(3, 2), Q(5, 2)) == 1
    assert poly.count_roots(p, 4, 10) == 0
    assert poly.count_roots(p, 0, poly.root_bound(p)) == 3
    assert poly.count_roots(p, Q(5, 2), poly.root_bound(p)) == 1


def test_count_roots_with_multiplicity():
    # (x - 1)^2 x: distinct roots {0, 1}
    p = poly.mul(poly.mul(poly.poly([-1, 1]), poly.poly([-1, 1])),
                 poly.poly([0, 1]))
    assert poly.count_roots(p, -1, 2) == 2


def test_positive_on_01():
    ok, witness = positive_on_01(poly.poly([1, 0, 1]))   # 1 + x^2
    assert ok and witness is None
    ok, witness = positive_on_01(poly.poly([Q(-1, 10), 1]))  # x - 1/10
    assert not ok
    kind = witness[0]
    assert kind in ("point", "root-interval")


def test_positive_on_open_ray():
    ok, _ = poly.positive_on_open_ray(poly.poly([1, 0, 1]))
    assert ok
    ok, witness = poly.positive_on_open_ray(poly.poly([-1, 0, 1]))  # x^2 - 1
    assert not ok and witness is not None
    # root exactly at 0 does not spoil the open ray
    ok, _ = poly.positive_on_open_ray(poly.poly([0, 0, 1]))   # x^2
    assert ok
    ok, _ = poly.positive_on_open_ray(poly.poly([0, -1, 1]))  # x(x-1)
    assert not ok


def test_positive_on_01_witnesses_an_interior_root():
    # both endpoint values positive, so the witness comes from isolation
    p = poly.poly([Q(1, 5), -1, 1])   # roots (1 -+ 1/sqrt(5)) / 2
    ok, (kind, m, value) = positive_on_01(p)
    assert not ok and kind == "point"
    assert 0 < m < 1 and value == poly.evaluate(p, m) and value <= 0
    p = poly.poly([Q(3, 16), -1, 1])  # (x - 1/4)(x - 3/4)
    ok, (kind, a, b) = positive_on_01(p)
    assert not ok and kind == "root-interval"
    assert b == Q(1, 4) and 0 < b - a <= Q(1, 2 ** 40)
    assert poly.evaluate(p, (a + b) / 2) > 0


def test_positive_on_open_ray_witnesses():
    assert poly.positive_on_open_ray([]) == (False, ("point", 1, 0))
    assert poly.positive_on_open_ray(poly.poly([1, -1])) == \
        (False, ("leading", -1))   # 1 - x
    p = poly.poly([Q(3, 16), -1, 1])  # (x - 1/4)(x - 3/4)
    ok, (kind, a, b) = poly.positive_on_open_ray(p)
    assert not ok and kind == "root-interval"
    assert b == Q(1, 4) and 0 < b - a <= Q(1, 2 ** 40)
    assert poly.count_roots(p, a, b) == 1


def test_positive_on_open_ray_witness_pinned():
    p = poly.poly([Q(3, 16), -1, 1])  # (x - 1/4)(x - 3/4)
    assert poly.positive_on_open_ray(p) == (
        False, ("root-interval", Q(274877906943, 2 ** 40), Q(1, 4)))


def test_isolate_root_brackets():
    p = poly.poly([-2, 0, 1])   # root at sqrt(2)
    a, b = isolate_root(p, 1, 2)
    assert b - a <= Q(1, 2 ** 40)
    assert poly.count_roots(p, a, b) == 1
    assert poly.evaluate(p, a) < 0 < poly.evaluate(p, b)


@settings(max_examples=150, deadline=None)
@given(
    coeffs=st.lists(st.integers(min_value=-6, max_value=6), min_size=1,
                    max_size=6),
    seed=st.integers(min_value=0, max_value=10 ** 6),
)
def test_positive_on_01_matches_dense_sampling(coeffs, seed):
    # soundness of the Sturm certificate against a brute-force oracle
    p = poly.poly(coeffs)
    ok, witness = positive_on_01(p)
    rng = random.Random(seed)
    samples = [Q(i, 64) for i in range(65)]
    samples += [Q(rng.randint(0, 2 ** 20), 2 ** 20) for _ in range(40)]
    sampled_min = min(poly.evaluate(p, x) for x in samples)
    if ok:
        assert sampled_min > 0
    else:
        assert witness is not None
        if witness[0] == "point":
            assert poly.evaluate(p, witness[1]) <= 0
        else:
            a, b = witness[1], witness[2]
            assert poly.count_roots(p, a, b) >= 1


def test_int_det_against_expansion():
    rng = random.Random(4)

    def det_oracle(rows):
        n = len(rows)
        if n == 1:
            return rows[0][0]
        total = 0
        for j in range(n):
            if rows[0][j]:
                minor = [[rows[i][k] for k in range(n) if k != j]
                         for i in range(1, n)]
                total += (-1) ** j * rows[0][j] * det_oracle(minor)
        return total

    for _ in range(20):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert poly.int_det(rows) == det_oracle(rows)


def test_frac_det_matches_int_det():
    rng = random.Random(9)
    for _ in range(10):
        rows = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(4)]
        assert poly.frac_det(rows) == poly.int_det(rows)


# -- the fraction-free elimination against Fraction references -----------------


def reference_rref(aug, ncols_left):
    """Gauss-Jordan elimination on Fractions, in place, pivoting in the
    first ncols_left columns (the elimination symplin used before the
    fraction-free kernel)."""
    n = len(aug)
    row = 0
    for col in range(ncols_left):
        piv = None
        for r in range(row, n):
            if aug[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        aug[row], aug[piv] = aug[piv], aug[row]
        inv = 1 / aug[row][col]
        aug[row] = [x * inv for x in aug[row]]
        for r in range(n):
            if r != row and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[row])]
        row += 1


def kernel_fractions(rows):
    """poly.kernel as Fraction vectors."""
    nums, den = poly.kernel(rows)
    return [[Q(x, den) for x in vec] for vec in nums]


def reference_kernel(m):
    """Null-space basis from the Fraction RREF, one vector per free column."""
    ncols = len(m[0])
    aug = [[Q(x) for x in row] for row in m]
    reference_rref(aug, ncols)
    pivots = []
    for row in aug:
        for j, x in enumerate(row):
            if x != 0:
                pivots.append(j)
                break
    kernel = []
    for f in (j for j in range(ncols) if j not in pivots):
        vec = [Q(0)] * ncols
        vec[f] = Q(1)
        for r, p in enumerate(pivots):
            vec[p] = -aug[r][f]
        kernel.append(vec)
    return kernel


def reference_solve(a, b):
    """X with a X = b from the Fraction RREF of [a | b]; None when singular."""
    n = len(a)
    aug = [[Q(x) for x in ra] + [Q(x) for x in rb] for ra, rb in zip(a, b)]
    reference_rref(aug, n)
    if any(aug[i][i] != 1 for i in range(n)):
        return None
    return [row[n:] for row in aug]


def leibniz_det(rows):
    """Sum over permutations of sign * product of entries."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                         if perm[i] > perm[j])
        term = (-1) ** inversions
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


RATIONAL = st.builds(Q, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def rational_matrices(draw):
    """Matrices of 1-6 rows and 1-7 columns, some rows zero or
    combinations of earlier rows, so rank deficiency is common."""
    nrows = draw(st.integers(1, 6))
    ncols = draw(st.integers(1, 7))
    entry = st.one_of(*[st.just(Q(0))] * draw(st.integers(0, 2)), RATIONAL)
    rows = []
    for i in range(nrows):
        kind = draw(st.sampled_from(["entries"] * 4 + ["zero", "combination"]))
        if kind == "zero":
            rows.append([Q(0)] * ncols)
        elif kind == "combination" and i:
            coeffs = draw(st.lists(RATIONAL, min_size=i, max_size=i))
            rows.append([sum(c * r[j] for c, r in zip(coeffs, rows))
                         for j in range(ncols)])
        else:
            rows.append(draw(st.lists(entry, min_size=ncols, max_size=ncols)))
    return rows


@settings(derandomize=True, max_examples=300, deadline=None)
@given(rational_matrices(), st.lists(RATIONAL, min_size=6, max_size=6))
def test_elimination_matches_fraction_references(rows, rhs):
    basis = kernel_fractions(rows)
    assert basis == reference_kernel(rows)
    assert all(sum(x * v for x, v in zip(row, vec)) == 0
               for row in rows for vec in basis)
    k = min(len(rows), len(rows[0]))
    square = [row[:k] for row in rows[:k]]
    det = leibniz_det(square)
    assert poly.frac_det(square) == det
    den = math.lcm(*(x.denominator for row in square for x in row))
    ints = [[int(x * den) for x in row] for row in square]
    assert poly.int_det(ints) == leibniz_det(ints) == det * den ** k
    b = [[c, c * row[0]] for c, row in zip(rhs, square)]
    x = poly.solve(square, b)
    assert x == reference_solve(square, b)
    assert (x is None) == (det == 0)
    if x is not None:
        assert [[sum(a * x[m][j] for m, a in enumerate(row)) for j in range(2)]
                for row in square] == b


@pytest.mark.parametrize("rows, det, kernel", [
    ([[5]], 5, []),
    ([[0]], 0, [[1]]),
    ([[0, 0], [0, 0]], 0, [[1, 0], [0, 1]]),
    ([[0, 2], [3, 0]], -6, []),                 # a row swap flips the sign
    ([[1, 2], [2, 4]], 0, [[-2, 1]]),
    ([[Q(1, 2), Q(1, 3)], [Q(1, 4), Q(1, 6)]], 0, [[Q(-2, 3), 1]]),
])
def test_elimination_small_cases(rows, det, kernel):
    rows = [[Q(x) for x in row] for row in rows]
    assert poly.frac_det(rows) == det
    assert kernel_fractions(rows) == kernel
    x = poly.solve(rows, [[1] for _ in rows])
    assert (x is None) == (det == 0)


def test_elimination_of_rectangular_rows():
    # two rows, four columns: the free columns 2 and 3 span the kernel
    rows = [[1, 0, 2, -1], [0, 3, 0, 6]]
    assert kernel_fractions(rows) == [[-2, 0, 1, 0], [1, -2, 0, 1]]
    assert poly.kernel(rows) == ([[-6, 0, 3, 0], [3, -6, 0, 3]], 3)
    assert poly.kernel([[0, 0, 0]]) == ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 1)
    # a negative last pivot: numerators and denominator change sign
    assert poly.kernel([[-2, 1]]) == ([[1, 2]], 2)
    assert poly.kernel([[Q(1, 2), Q(1, 3), 1], [Q(1, 4), Q(-1, 6), 0]]) == (
        [[-24, -36, 24]], 24)
    with pytest.raises(ValueError, match="square"):
        poly.int_det(rows)
    with pytest.raises(ValueError, match="square"):
        poly.solve(rows, [[1], [1]])


def test_content_cleared():
    assert poly.content_cleared(poly.poly([Q(1, 2), Q(3, 4)])) == [2, 3]
    assert poly.content_cleared([]) == []


def divisor_search_roots(p):
    """The trial-division search `rational_roots` replaced, kept as reference.

    Candidates are ±a/b for divisors a of the constant term and b of the
    leading coefficient of the cleared integer polynomial; it returns []
    when 0 is a root, so callers strip factors of x first.
    """
    def divisors(n):
        return sorted({d for k in range(1, math.isqrt(n) + 1) if n % k == 0
                       for d in (k, n // k)})

    ints = poly.content_cleared(p)
    if not ints or ints[0] == 0:
        return []
    candidates = {Q(s * a, b) for a in divisors(abs(ints[0]))
                  for b in divisors(abs(ints[-1])) for s in (1, -1)}
    roots = []
    for r in sorted(candidates):
        m, q = 0, list(p)
        while poly.evaluate(q, r) == 0:
            q = divmod_poly(q, poly.poly([-r, 1]))[0]
            m += 1
        if m:
            roots.append((r, m))
    return roots


nonzero_rationals = st.builds(Q, st.integers(-12, 12),
                              st.integers(1, 6)).filter(bool)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    roots=st.lists(nonzero_rationals, max_size=5),
    zeros=st.integers(min_value=0, max_value=2),
    quadratic=st.lists(st.integers(-4, 4), min_size=3, max_size=3),
    scale=st.builds(Q, st.integers(1, 9).map(lambda k: k * (-1) ** k),
                    st.integers(1, 9)),
)
def test_rational_roots_match_divisor_search(roots, zeros, quadratic, scale):
    # linear factors (b x - a) give non-monic products and rational roots
    # with denominators, repeated draws repeated roots; a quadratic factor
    # adds irrational or complex roots, and x^zeros roots at 0
    p = poly.poly([scale])
    for r in roots:
        p = poly.mul(p, poly.poly([-r.numerator, r.denominator]))
    if quadratic[0] and quadratic[2]:
        p = poly.mul(p, poly.poly(quadratic))
    rest = divisor_search_roots(p)
    if zeros:
        p = poly.mul(p, pow_(poly.poly([0, 1]), zeros))
        rest = sorted(rest + [(Q(0), zeros)])
    assert poly.rational_roots(p) == rest
    assert sum(m for _, m in rest) >= len(roots) + zeros


def fraction_sturm_chain(p):
    """The Sturm chain in Fractions, as it was before its members were
    content cleared to integers."""
    p = squarefree_part(p)
    chain = [p, poly.derivative(p)]
    while chain[-1]:
        rem = divmod_poly(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append(neg(rem))
    return [c for c in chain if c]


def fraction_variations_at(chain, x):
    """Sign variations from Fraction evaluations of the chain at x."""
    values = [poly.evaluate(c, x) for c in chain]
    return poly.sign_variations([(v > 0) - (v < 0) for v in values])


def fraction_count_roots(chain, a, b):
    """Distinct roots in (a, b] from a Fraction chain."""
    return fraction_variations_at(chain, a) - fraction_variations_at(chain, b)


def fraction_rational_roots(p):
    """rational_roots with every Sturm sign from a Fraction evaluation."""
    if poly.degree(p) < 1:
        return []
    lead = abs(poly.content_cleared(p)[-1])
    chain = fraction_sturm_chain(p)
    bound = poly.root_bound(chain[0])
    width = Q(1, 2 * lead)
    found = []
    todo = [(-bound, fraction_variations_at(chain, -bound),
             bound, fraction_variations_at(chain, bound))]
    while todo:
        a, va, b, vb = todo.pop()
        if va == vb:
            continue
        if va - vb == 1 and b - a <= width:
            r = Q(math.floor(b * lead), lead)
            if r > a and poly.evaluate(p, r) == 0:
                found.append(r)
            continue
        m = (a + b) / 2
        vm = fraction_variations_at(chain, m)
        todo += [(a, va, m, vm), (m, vm, b, vb)]
    roots = []
    for r in sorted(found):
        mult, q = 0, list(p)
        while poly.evaluate(q, r) == 0:
            q = divmod_poly(q, poly.poly([-r, 1]))[0]
            mult += 1
        roots.append((r, mult))
    return roots


rationals_to_7 = st.builds(Q, st.integers(-20, 20), st.integers(1, 7))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    roots=st.lists(st.tuples(rationals_to_7, st.integers(1, 3)), max_size=4),
    extra=st.lists(rationals_to_7, max_size=4),
    scale=rationals_to_7.filter(bool),
    points=st.lists(rationals_to_7, min_size=2, max_size=6),
)
def test_integer_sturm_signs_match_fraction_evaluation(roots, extra, scale,
                                                       points):
    # rational roots with multiplicities times a random rational factor;
    # the points include the rational roots, where a chain member is 0
    p = poly.poly([scale])
    for r, mult in roots:
        p = poly.mul(p, pow_(poly.poly([-r, 1]), mult))
    p = poly.mul(p, poly.poly(extra + [1]))
    if poly.degree(p) < 1:
        return
    chain = poly.sturm_chain(p)
    reference = fraction_sturm_chain(p)
    assert len(chain) == len(reference)
    for ints, fracs in zip(chain, reference):
        ratio = Q(ints[-1]) / fracs[-1]
        assert ratio > 0 and [ratio * c for c in fracs] == ints
    for x in points + [r for r, _ in roots]:
        assert poly.variations_at(chain, x) == fraction_variations_at(
            reference, x)
    for a, b in zip(points, points[1:]):
        a, b = min(a, b), max(a, b)
        assert poly.count_roots(p, a, b) == (
            fraction_variations_at(reference, a)
            - fraction_variations_at(reference, b))
    assert poly.rational_roots(p) == fraction_rational_roots(p)


witness_roots = st.one_of(st.sampled_from([Q(0), Q(1), Q(1, 4)]),
                          st.builds(Q, st.integers(-8, 16), st.integers(1, 8)))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    roots=st.lists(st.tuples(witness_roots, st.integers(1, 3)), max_size=4),
    quadratic=st.lists(rationals_to_7, min_size=2, max_size=2),
    scale=rationals_to_7.filter(bool),
)
def test_root_witnesses_match_fraction_bisection(roots, quadratic, scale):
    # repeated roots, roots at 0 and 1, a factor x^2 + b x + c with
    # irrational, rational or complex roots, and either sign of the leading
    # coefficient: the integer bisection finds the same witness as the
    # Fraction one, endpoint for endpoint
    p = poly.poly([scale])
    for r, mult in roots:
        p = poly.mul(p, pow_(poly.poly([-r, 1]), mult))
    p = poly.mul(p, poly.poly(quadratic + [1]))
    for got, want in ((positive_on_01(p), reference_positive_on_01(p)),
                      (poly.positive_on_open_ray(p),
                       reference_positive_on_open_ray(p))):
        assert got == want
        witness = got[1]
        if witness and witness[0] != "leading":
            assert all(type(x) is Q for x in witness[1:])


def test_square_root_of_a_square_only():
    h = poly.mul(poly.poly([-1, 1]), poly.poly([Q(2, 3), 0, 1]))
    assert poly.square_root(poly.mul(h, h)) == h
    assert poly.square_root(poly.poly([1])) == [1]
    for p in ([1, 0, 1], [0, 1], [1, 2, 3, 0, 1]):
        with pytest.raises(ArithmeticError, match="not a square"):
            poly.square_root(poly.poly(p))


def test_rational_roots_of_large_prime_roots():
    for prime in (1000003, 1000000000039):
        p = pow_(poly.poly([-prime, 1]), 2)
        assert poly.rational_roots(p) == [(Q(prime), 2)]
        q = poly.mul(poly.poly([-1, 3 * prime]), poly.poly([2, 0, 1]))
        assert poly.rational_roots(q) == [(Q(1, 3 * prime), 1)]


# real roots on the grid k/4, endpoints on the grid 1/8 + k/4: every root is
# at least 1/8 from every endpoint and 1/4 from every other root
grid_roots = st.lists(st.integers(-32, 32), max_size=5, unique=True)
endpoints = st.integers(-36, 36).map(lambda k: Q(2 * k + 1, 8))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    roots=grid_roots,
    complex_pairs=st.lists(st.tuples(st.integers(-3, 3), st.integers(1, 3)),
                           max_size=2),
    lead=st.sampled_from([Q(1), Q(-2), Q(3, 5)]),
    a=endpoints, b=endpoints,
)
def test_sturm_counts_match_numpy_roots(roots, complex_pairs, lead, a, b):
    # complex factors (x - u)^2 + v^2 keep |Im| >= 1, so numpy's real
    # roots are exactly those with a tiny imaginary part
    p = poly.poly([lead])
    for k in roots:
        p = poly.mul(p, poly.poly([Q(-k, 4), 1]))
    for u, v in complex_pairs:
        p = poly.mul(p, poly.poly([u * u + v * v, -2 * u, 1]))
    a, b = min(a, b), max(a, b)
    if poly.degree(p) < 1:
        return
    found = np.roots([float(c) for c in reversed(p)])
    real = sorted(z.real for z in found if abs(z.imag) < 1e-6)
    assert len(real) == len(roots)
    inside = sum(1 for x in real if a < x < b)
    assert poly.count_roots(p, a, b) == inside
    assert poly.count_roots(p, a, poly.root_bound(p)) == sum(
        1 for x in real if x > a)


def test_rational_roots_beside_a_close_irrational_root():
    # 1/3 and sqrt(1/9 + 10^-12) lie in one interval of width 1/(2 lead):
    # the bisection stops there and tests its one candidate k/lead
    for sign in (1, -1):
        p = poly.mul(poly.poly([-sign, 3]),
                     poly.poly([-(Q(1, 9) + Q(1, 10 ** 12)), 0, 1]))
        p = poly.mul(p, poly.poly([-sign, 3]))
        assert poly.rational_roots(p) == [(Q(sign, 3), 2)]
        assert poly.rational_roots(p) == fraction_rational_roots(p)
