"""The integer-first exact ring against a Fraction-only reference.

Exact coefficients are Python ints, with a `Fraction` only where a value is
not integral.  The reference below is the kernel as it stood when every
exact coefficient was a `Fraction`: the same loops and the same summation
order, with its own blade sign (inversions of the concatenated index
lists).  Its forms carry non-integral rationals, which the benchmark
workloads never meet, so both branches of the ring are exercised.
"""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liouville_lab import liealg
from liouville_lab.exterior import Coframe, Form, mask_blade

# -- the Fraction-only reference -------------------------------------------------


def ref_sign(ma, mb):
    idx = mask_blade(ma) + mask_blade(mb)
    inversions = sum(1 for i in range(len(idx)) for j in range(i + 1, len(idx))
                     if idx[i] > idx[j])
    return -1 if inversions % 2 else 1


def ref_wedge(a, b):
    """Blade dict of a ^ b, every coefficient a Fraction, zeros dropped."""
    terms = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            if ma & mb:
                continue
            c = Q(ca) * Q(cb)
            if ref_sign(ma, mb) < 0:
                c = -c
            terms[ma | mb] = terms.get(ma | mb, Q(0)) + c
    return {m: c for m, c in terms.items() if c != 0}


def ref_power(a, k):
    out = {0: Q(1)}
    for _ in range(k):
        out = ref_wedge(out, a)
    return out


def ref_d_terms(brackets, dim, terms):
    """d of a form from the bracket table, summed as `_d_terms` sums it."""
    d1 = [[] for _ in range(dim)]
    for (i, j), row in brackets.items():
        for k, c in row.items():
            if c != 0:
                d1[k].append(((1 << i) | (1 << j), -Q(c)))
    out = {}
    for mask, c in terms.items():
        sign = 1
        bits = mask
        while bits:
            low = bits & -bits
            rest = mask ^ low
            for m, dc in d1[low.bit_length() - 1]:
                if not m & rest:
                    s = sign * ref_sign(rest, m)
                    term = Q(c) * (dc if s > 0 else -dc)
                    if term == 0:
                        continue
                    total = out.get(rest | m, Q(0)) + term
                    if total == 0:
                        del out[rest | m]
                    else:
                        out[rest | m] = total
            sign = -sign
            bits ^= low
    return out


# -- strategies --------------------------------------------------------------------

# ints, integral Fractions and non-integral rationals, as callers pass them
COEFFS = st.one_of(
    st.integers(-6, 6),
    st.builds(Q, st.integers(-6, 6)),
    st.builds(Q, st.integers(-9, 9), st.sampled_from([2, 3, 4, 6])),
)


@st.composite
def exact_terms(draw, dim, degree, max_terms=6):
    blades = [m for m in range(1 << dim) if m.bit_count() == degree]
    masks = draw(st.lists(st.sampled_from(blades), min_size=0,
                          max_size=max_terms, unique=True))
    return {m: draw(COEFFS) for m in masks}


def _cf(dim):
    return Coframe(tuple(f"e{i}" for i in range(dim)))


def assert_canonical(terms):
    """Every coefficient is an int where it is integral, else a Fraction."""
    for c in terms.values():
        assert type(c) is (int if Q(c).denominator == 1 else Q)


# -- properties --------------------------------------------------------------------


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(1, 8), st.data())
def test_wedge_matches_fraction_reference(dim, data):
    p = data.draw(st.integers(0, dim), label="p")
    q = data.draw(st.integers(0, dim - p), label="q")
    ta = data.draw(exact_terms(dim, p), label="a")
    tb = data.draw(exact_terms(dim, q), label="b")
    cf = _cf(dim)
    got = Form(cf, p, ta).wedge(Form(cf, q, tb))
    want = ref_wedge({m: c for m, c in ta.items() if c != 0},
                     {m: c for m, c in tb.items() if c != 0})
    assert list(got.terms.items()) == list(want.items())
    assert_canonical(got.terms)
    if p + q == dim:
        top = got.top_coefficient()
        assert type(top) is Q and top == want.get(cf.volume_mask, 0)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(st.integers(1, 8), st.data())
def test_power_matches_fraction_reference(dim, data):
    degree = data.draw(st.sampled_from([0, 2] if dim >= 2 else [0]),
                       label="degree")
    k = data.draw(st.integers(0, dim // degree if degree else 3), label="k")
    ta = data.draw(exact_terms(dim, degree, max_terms=5), label="a")
    a = Form(_cf(dim), degree, ta)
    want = ref_power({m: c for m, c in ta.items() if c != 0}, k)
    ladder = a.powers(k)
    for got in (a.power(k), ladder[k]):
        assert list(got.terms.items()) == list(want.items())
        assert_canonical(got.terms)


@st.composite
def rational_algebras(draw):
    """(dim, brackets) with rational structure constants; Jacobi is not
    needed, since d is compared term by term."""
    n = draw(st.integers(1, 8))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    brackets = {}
    for pair in (draw(st.lists(st.sampled_from(pairs), max_size=8,
                               unique=True)) if pairs else []):
        ks = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3,
                           unique=True))
        brackets[pair] = {k: draw(COEFFS) for k in ks}
    return n, brackets


@settings(derandomize=True, max_examples=200, deadline=None)
@given(rational_algebras(), st.data())
def test_d_terms_match_fraction_reference(table, data):
    n, brackets = table
    g = liealg.LieAlgebra(tuple(f"e{i}" for i in range(n)), brackets,
                          check=False)
    for row in g._d1:
        assert_canonical(dict(row))
    degree = data.draw(st.integers(0, n), label="degree")
    terms = data.draw(exact_terms(n, degree), label="terms")
    got = g._d_terms(terms)
    assert list(got.items()) == list(ref_d_terms(brackets, n, terms).items())
    a = Form(g.coframe(), degree, terms)
    assert_canonical(g.ce_differential(a).terms)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(rational_algebras().filter(lambda t: t[0] % 2), st.data())
def test_contact_value_matches_reference_and_is_a_fraction(table, data):
    n, brackets = table
    g = liealg.LieAlgebra(tuple(f"e{i}" for i in range(n)), brackets,
                          check=False)
    terms = data.draw(exact_terms(n, 1), label="alpha")
    cert = liealg.contact_check(g, Form(g.coframe(), 1, terms))
    alpha = {m: c for m, c in terms.items() if c != 0}
    vol = ref_wedge(alpha, ref_power(ref_d_terms(brackets, n, alpha),
                                     (n - 1) // 2))
    assert type(cert.value) is Q
    assert cert.value == vol.get((1 << n) - 1, 0)


@pytest.mark.parametrize("key", [
    "totreal:1", "totreal:3", "grs1:3,0", "geiges:3", "sol:2,1,1,1"])
def test_pair_polynomial_coefficients_are_fractions(key):
    pre = liealg.preset(key)
    p = liealg.pair_polynomial(pre.algebra, pre.alpha_plus, pre.alpha_minus)
    assert p and all(type(c) is Q for c in p)
    # a scaled pair has non-integral wedge coefficients
    half = Q(1, 2) * pre.alpha_plus
    q = liealg.pair_polynomial(pre.algebra, half, pre.alpha_minus)
    assert all(type(c) is Q for c in q)
    m = (pre.algebra.dim - 1) // 2
    value = liealg.contact_check(pre.algebra, pre.alpha_plus).value
    assert liealg.contact_check(pre.algebra, half).value == value / 2 ** (m + 1)
