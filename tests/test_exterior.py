import random
from fractions import Fraction as Q

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liouville_lab.exterior import (
    EXACT, FLOAT64, Coframe, Form, VectorElem, blade_mask, interior_product,
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
    f = Form(coframe, degree, {})
    names = list(range(coframe.dim))
    for _ in range(nterms):
        blade = tuple(sorted(rng.sample(names, degree)))
        c = Q(rng.randint(-5, 5), rng.randint(1, 4))
        f = f + Form(coframe, degree, {blade_mask(blade): c})
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
    vol = Form(CF4, 4, {CF4.volume_mask: 1})
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
        omega = Form(cf, 2, {})
        for i in range(n2):
            for j in range(i + 1, n2):
                if rows[i][j]:
                    omega = omega + Form(cf, 2, {blade_mask((i, j)): rows[i][j]})
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
        return Form(cf, degree, {blade_mask(b): c for b, c in blades.items()})

    a, b = dyadic_form(p), dyadic_form(q)
    sign = -1 if (p * q) % 2 else 1
    ab = a.wedge(b)
    assert ab == sign * b.wedge(a)
    fa, fb = a.to_float(), b.to_float()
    assert fa.wedge(fb).terms == ab.to_float().terms
    assert (sign * fb.wedge(fa)).terms == ab.to_float().terms


def test_top_coefficient_examples():
    assert Form(CF4, 4, {CF4.volume_mask: 1}).top_coefficient() == 1
    cf2 = Coframe(("dx", "dy"))
    dydx = Form.covector(cf2, "dy").wedge(Form.covector(cf2, "dx"))
    assert dydx.top_coefficient() == -1
    with pytest.raises(ValueError, match="top"):
        Form.covector(CF4, 0).top_coefficient()


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


def _float_bits(x):
    if isinstance(x, np.ndarray):
        return ("array", x.dtype.str, x.tobytes())
    return ("float", type(x).__name__, x.hex())


@settings(derandomize=True, max_examples=200, deadline=None)
@given(dim=st.integers(min_value=1, max_value=8), data=st.data())
def test_top_pairing_reads_the_top_coefficient_of_the_wedge(dim, data):
    # exactly on exact forms; bit for bit on float forms whose coefficients
    # are floats, float64 arrays or a mix, with an empty sum read as +0.0
    p = data.draw(st.integers(min_value=0, max_value=dim), label="p")
    seed = data.draw(st.integers(min_value=0, max_value=10 ** 6), label="seed")
    rng = random.Random(seed)
    cf = Coframe(tuple(f"e{i}" for i in range(dim)))

    def blades(degree, meet=()):
        # mostly the complements of the blades of the form to be met, so
        # that several pairs reach the volume blade
        pool = [m for m in range(1 << dim) if m.bit_count() == degree]
        picked = [cf.volume_mask ^ m for m in meet if rng.random() < 0.8]
        return picked + [m for m in rng.sample(pool, min(len(pool), 5))
                         if m not in picked][:rng.randint(0, 3)]

    def exact(degree, meet=()):
        return Form(cf, degree, {m: Q(rng.randint(-6, 6), rng.choice([1, 1, 2, 3]))
                                 for m in blades(degree, meet)})

    floats = [0.0, -0.0, 1.0, -1.0, 0.1, 1 / 3, -2.5e5, 3.0000000000000004]

    def real(degree, arrays, meet=()):
        def coeff():
            if arrays and rng.random() < 0.6:
                return np.array([rng.choice(floats) for _ in range(3)])
            return rng.choice(floats)
        return Form(cf, degree, {m: coeff() for m in blades(degree, meet)},
                    FLOAT64)

    a = exact(p)
    b = exact(dim - p, a.terms)
    got = a.top_pairing(b)
    assert type(got) is Q and got == a.wedge(b).top_coefficient()
    for arrays in (False, True):
        fa = real(p, arrays)
        fb = real(dim - p, arrays, fa.terms)
        assert (_float_bits(fa.top_pairing(fb))
                == _float_bits(fa.wedge(fb).top_coefficient()))
    empty = Form(cf, p, {}, FLOAT64).top_pairing(Form(cf, dim - p, {}, FLOAT64))
    assert _float_bits(empty) == _float_bits(0.0)


def test_top_pairing_rejects_non_complementary_degrees():
    dx, dy = Form.covector(CF4, 0), Form.covector(CF4, 1)
    with pytest.raises(ValueError, match="complementary"):
        dx.top_pairing(dy)
    with pytest.raises(ValueError, match="complementary"):
        dx.wedge(dy).top_pairing(dx)
    with pytest.raises(ValueError, match="ring"):
        dx.top_pairing(Form(CF4, 3, {0b1110: 1.0}, FLOAT64))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(dim=st.integers(min_value=2, max_value=8),
       seed=st.integers(min_value=0, max_value=10 ** 6))
def test_powers_ladder_matches_power(dim, seed):
    rng = random.Random(seed)
    cf = Coframe(tuple(f"e{i}" for i in range(dim)))
    omega = random_form(rng, cf, 2, nterms=rng.randint(1, 6))
    k = dim // 2
    ladder = omega.powers(k)
    assert len(ladder) == k + 1 and ladder[0] == Form.scalar(cf, 1)
    for j in range(k + 1):
        assert ladder[j] == omega.power(j)
        assert list(ladder[j].terms) == list(omega.power(j).terms)
