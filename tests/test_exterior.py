import random
from fractions import Fraction as Q

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liouville_lab.exterior import (
    EXACT, FLOAT64, Coframe, Form, VectorElem, interior_product, pullback,
)


def pfaffian_expansion(rows):
    """Independent oracle: recursive cofactor expansion along the first row."""
    n = len(rows)
    if n == 0:
        return Q(1)
    if n % 2:
        return Q(0)
    if n == 2:
        return Q(rows[0][1])
    total = Q(0)
    sign = 1
    for j in range(1, n):
        if rows[0][j]:
            keep = [k for k in range(1, n) if k != j]
            sub = [[rows[a][b] for b in keep] for a in keep]
            total += sign * Q(rows[0][j]) * pfaffian_expansion(sub)
        sign = -sign
    return total


def random_form(rng, coframe, degree, nterms=3):
    f = Form.zero(coframe, degree)
    names = list(range(coframe.dim))
    for _ in range(nterms):
        blade = tuple(sorted(rng.sample(names, degree)))
        c = Q(rng.randint(-5, 5), rng.randint(1, 4))
        f = f + Form.from_blades(coframe, degree, {blade: c})
    return f


CF4 = Coframe(("dx", "dy", "dz", "dw"))


def test_wedge_repeated_covector_vanishes():
    dx = Form.covector(CF4, "dx")
    assert dx.wedge(dx).is_zero()


def test_float_form_of_zeros_is_zero():
    # the float ring keeps zero coefficients; is_zero reads their values
    for zero in (0.0, -0.0, np.zeros(3)):
        a = Form(CF4, 1, {1: zero, 2: zero}, FLOAT64)
        assert len(a.terms) == 2 and a.is_zero()
    assert not Form(CF4, 1, {1: 0.0, 2: np.array([0.0, 1e-300])},
                    FLOAT64).is_zero()
    dx = Form.covector(CF4, 0, FLOAT64)
    assert (dx - dx).terms == {1: 0.0} and (dx - dx).is_zero()


def test_wedge_anticommutes():
    dx = Form.covector(CF4, "dx")
    dy = Form.covector(CF4, "dy")
    assert dx.wedge(dy) == -(dy.wedge(dx))


def test_wedge_coframe_mismatch():
    other = Coframe(("da", "db"))
    with pytest.raises(ValueError, match="coframe"):
        Form.covector(CF4, 0).wedge(Form.covector(other, 0))


def test_wedge_degree_overflow():
    vol = Form.volume(CF4)
    with pytest.raises(ValueError, match="overflow"):
        vol.wedge(Form.covector(CF4, 0))


def test_power_identity_and_binomial():
    dx, dy, dz, dw = (Form.covector(CF4, i) for i in range(4))
    omega = dx.wedge(dy) + dz.wedge(dw)
    assert omega.power(1) == omega
    sq = omega.power(2)
    assert sq.top_coefficient() == 2
    assert omega.power(0) == Form.scalar(CF4, 1)


def test_power_odd_degree_rejected():
    with pytest.raises(ValueError, match="even"):
        Form.covector(CF4, 0).power(2)


@pytest.mark.parametrize("n2", [2, 4, 6, 8, 10, 12])
def test_pfaffian_top_coefficient_identity(n2):
    # top of w^n = n! Pf(A) for w = sum_{i<j} A_ij e^i^e^j; oracle is the
    # recursive expansion above, computed independently of the wedge engine
    rng = random.Random(20 + n2)
    cf = Coframe(tuple(f"e{i}" for i in range(n2)))
    for _ in range(8 if n2 <= 6 else 2):
        rows = [[Q(0)] * n2 for _ in range(n2)]
        for i in range(n2):
            for j in range(i + 1, n2):
                rows[i][j] = Q(rng.randint(-4, 4), rng.randint(1, 3))
                rows[j][i] = -rows[i][j]
        omega = Form.zero(cf, 2)
        for i in range(n2):
            for j in range(i + 1, n2):
                if rows[i][j]:
                    omega = omega + Form.from_blades(cf, 2, {(i, j): rows[i][j]})
        n = n2 // 2
        fact = 1
        for k in range(2, n + 1):
            fact *= k
        assert omega.power(n).top_coefficient() == fact * pfaffian_expansion(rows)


def test_power_matches_repeated_wedge():
    rng = random.Random(7)
    omega = random_form(rng, CF4, 2, nterms=4)
    assert omega.power(2) == omega.wedge(omega)


def test_interior_product_basics():
    dx = Form.covector(CF4, "dx")
    v = VectorElem(CF4, (1, 0, 0, 0))
    assert interior_product(v, dx) == Form.scalar(CF4, 1)
    dydz = Form.covector(CF4, "dy").wedge(Form.covector(CF4, "dz"))
    assert interior_product(v, dydz).is_zero()


def test_interior_product_degree_zero_rejected():
    v = VectorElem(CF4, (1, 0, 0, 0))
    with pytest.raises(ValueError, match="degree"):
        interior_product(v, Form.scalar(CF4, 1))


def test_interior_product_antiderivation():
    rng = random.Random(11)
    for _ in range(10):
        a = random_form(rng, CF4, 1, 2)
        b = random_form(rng, CF4, 2, 3)
        v = VectorElem(CF4, tuple(Q(rng.randint(-3, 3)) for _ in range(4)))
        lhs = interior_product(v, a.wedge(b))
        rhs = interior_product(v, a).wedge(b) - a.wedge(interior_product(v, b))
        assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(
    degree=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=10 ** 6),
)
def test_interior_product_squares_to_zero(degree, seed):
    rng = random.Random(seed)
    a = random_form(rng, CF4, degree, 3)
    v = VectorElem(CF4, tuple(Q(rng.randint(-3, 3)) for _ in range(4)))
    once = interior_product(v, a)
    if once.degree >= 1:
        assert interior_product(v, once).is_zero()


@settings(max_examples=40, deadline=None)
@given(
    da=st.integers(min_value=0, max_value=2),
    db=st.integers(min_value=0, max_value=2),
    dc=st.integers(min_value=0, max_value=2),
    seed=st.integers(min_value=0, max_value=10 ** 6),
)
def test_wedge_graded_anticommutativity_and_associativity(da, db, dc, seed):
    rng = random.Random(seed)
    cf = Coframe(tuple(f"e{i}" for i in range(8)))
    a = random_form(rng, cf, da, 2)
    b = random_form(rng, cf, db, 2)
    c = random_form(rng, cf, dc, 2)
    sign = -1 if (da * db) % 2 else 1
    assert a.wedge(b) == sign * b.wedge(a)
    if da + db + dc <= 8:
        assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    dim=st.integers(min_value=1, max_value=9),
    data=st.data(),
)
def test_wedge_graded_commutativity_exact_and_float(dim, data):
    # a ^ b = (-1)^(pq) b ^ a for random sparse forms of any degrees; the
    # coefficients are dyadic, so the float wedge is exact and must give the
    # exact wedge's values in both orders
    p = data.draw(st.integers(min_value=0, max_value=dim), label="p")
    q = data.draw(st.integers(min_value=0, max_value=dim - p), label="q")
    seed = data.draw(st.integers(min_value=0, max_value=10 ** 6), label="seed")
    rng = random.Random(seed)
    cf = Coframe(tuple(f"e{i}" for i in range(dim)))

    def dyadic_form(degree):
        blades = {}
        for _ in range(rng.randint(1, 4)):
            blade = tuple(sorted(rng.sample(range(dim), degree)))
            blades[blade] = Q(rng.randint(-8, 8), 2 ** rng.randint(0, 3))
        return Form.from_blades(cf, degree, blades)

    a, b = dyadic_form(p), dyadic_form(q)
    sign = -1 if (p * q) % 2 else 1
    ab = a.wedge(b)
    assert ab == sign * b.wedge(a)
    fa, fb = a.to_float(), b.to_float()
    assert fa.wedge(fb).terms == ab.to_float().terms
    assert (sign * fb.wedge(fa)).terms == ab.to_float().terms


def test_top_coefficient_examples():
    assert Form.volume(CF4).top_coefficient() == 1
    cf2 = Coframe(("dx", "dy"))
    dydx = Form.covector(cf2, "dy").wedge(Form.covector(cf2, "dx"))
    assert dydx.top_coefficient() == -1
    with pytest.raises(ValueError, match="top"):
        Form.covector(CF4, 0).top_coefficient()


def test_pullback_examples():
    cf2 = Coframe(("dx", "dy"))
    dx = Form.covector(cf2, "dx")
    ident = [[1, 0], [0, 1]]
    assert pullback(ident, dx) == dx
    assert pullback([[2, 0], [0, 1]], dx) == 2 * dx


def test_pullback_functorial():
    rng = random.Random(3)
    cf3 = Coframe(("e1", "e2", "e3"))
    for _ in range(6):
        L = [[Q(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)]
        a = random_form(rng, cf3, 1, 2)
        b = random_form(rng, cf3, 1, 2)
        assert pullback(L, a.wedge(b)) == pullback(L, a).wedge(pullback(L, b))


def test_pullback_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        pullback([[1, 0], [0, 1]], Form.covector(CF4, 0))


def test_exact_to_float_roundtrip():
    rng = random.Random(5)
    a = random_form(rng, CF4, 2, 4)
    fa = a.to_float()
    for mask, c in a.terms.items():
        assert abs(fa.terms[mask] - float(c)) <= 1e-12 * max(1.0, abs(float(c)))


def test_exact_ring_rejects_floats():
    with pytest.raises(TypeError):
        Form(CF4, 1, {1: 0.5}, EXACT)


def test_coframe_validation():
    with pytest.raises(ValueError, match="distinct"):
        Coframe(("dx", "dx"))
    with pytest.raises(ValueError, match="dimension"):
        Coframe(tuple(f"e{i}" for i in range(17)))
