import math
import time
from itertools import product

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from liouville_lab import _poly
from liouville_lab import numfield as nf


SQRT2 = nf.field_from_poly([-2, 0, 1])
GAUSS = nf.field_from_poly([1, 0, 1])
RAT = nf.field_from_poly([-1, 1])
CUBIC = nf.field_from_poly([-1, -3, 0, 1])


def test_signatures_and_roots():
    assert RAT.signature == (1, 0)
    assert GAUSS.signature == (0, 1)
    assert abs(GAUSS.complex_roots[0] - 1j) < 1e-12
    assert SQRT2.signature == (2, 0)
    # real embeddings ordered descending: rho_1 = +sqrt(2)
    assert abs(SQRT2.real_roots[0] - math.sqrt(2)) < 1e-12
    assert abs(SQRT2.real_roots[1] + math.sqrt(2)) < 1e-12
    assert CUBIC.signature == (3, 0)


def test_rejects_degenerate_polynomials():
    with pytest.raises(nf.FieldError, match="monic"):
        nf.field_from_poly([1, 0, 2])
    with pytest.raises(nf.FieldError, match="rational root"):
        nf.field_from_poly([-1, 0, 1])          # X^2 - 1
    with pytest.raises(nf.FieldError, match="squarefree"):
        nf.field_from_poly([1, 2, 1])           # (X+1)^2
    with pytest.raises(nf.FieldError, match="two quadratics"):
        nf.field_from_poly([-4, 0, 0, 0, 1])    # (X^2-2)(X^2+2)
    with pytest.raises(nf.FieldError, match="degree"):
        nf.field_from_poly([1, 0, 0, 0, 0, 1])


def test_norm_closed_forms():
    # quadratic norms a^2 - 2 b^2 and a^2 + b^2
    for a, b in [(3, 2), (1, 1), (7, -5), (0, 3)]:
        assert nf.norm(SQRT2, nf.OrderElement((a, b))) == a * a - 2 * b * b
        assert nf.norm(GAUSS, nf.OrderElement((a, b))) == a * a + b * b
    assert nf.norm(SQRT2, nf.one(SQRT2)) == 1
    assert nf.norm(CUBIC, nf.OrderElement((0, 1, 0))) == 1


def test_norm_multiplicativity():
    x = nf.OrderElement((2, 1))
    y = nf.OrderElement((-1, 3))
    xy = nf.multiply(SQRT2, x, y)
    assert nf.norm(SQRT2, xy) == nf.norm(SQRT2, x) * nf.norm(SQRT2, y)


def test_find_units_rational():
    grp = nf.find_units(RAT, 1)
    assert grp.rank == 0
    assert sorted(u.coords for u in grp.torsion) == [(-1,), (1,)]
    assert nf.positive_units(grp, RAT) == []


def test_find_units_gauss():
    grp = nf.find_units(GAUSS, 1)
    assert grp.rank == 0
    assert sorted(u.coords for u in grp.torsion) == [
        (-1, 0), (0, -1), (0, 1), (1, 0)
    ]
    assert grp.torsion_order == 4
    assert grp.torsion_generator.coords == (0, 1)


def test_find_units_sqrt2():
    grp = nf.find_units(SQRT2, 40)
    assert grp.rank == 1
    gen = grp.free_generators[0]
    assert gen.coords == (1, 1)          # fundamental unit 1 + X, norm -1
    assert nf.norm(SQRT2, gen) == -1
    pos = nf.positive_units(grp, SQRT2)
    assert pos[0].coords == (3, 2)       # squares to the positive generator


def test_find_units_rank_failure_reported():
    # fundamental unit of Z[sqrt 19] is 170 + 39 sqrt 19: box 5 cannot see it
    field = nf.field_from_poly([-19, 0, 1])
    with pytest.raises(ValueError, match="increase box_bound"):
        nf.find_units(field, 5)


def test_find_units_box_cap():
    with pytest.raises(ValueError, match="10\\^6"):
        nf.find_units(CUBIC, 60)


def test_positive_units_square_mixed_signs():
    grp = nf.find_units(SQRT2, 40)
    u = grp.free_generators[0]
    reals, _ = SQRT2.embed(u)
    assert min(reals) < 0 < max(reals)
    sq = nf.positive_units(grp, SQRT2)[0]
    reals, _ = SQRT2.embed(sq)
    assert all(v > 0 for v in reals)
    assert nf.norm(SQRT2, sq) == 1


def test_pell_oracle_agrees_with_box_search():
    for coeffs in ([-2, 0, 1], [-3, 0, 1], [-1, -1, 1]):
        field = nf.field_from_poly(coeffs)
        grp = nf.find_units(field, 40)
        pos = nf.positive_units(grp, field)[0]
        pell = nf.pell_fundamental_unit(field)
        assert pell.coords == pos.coords


def test_gamma_lattice_sqrt2():
    grp = nf.find_units(SQRT2, 40)
    pos = nf.positive_units(grp, SQRT2)
    lat = nf.gamma_lattice(SQRT2, pos, grp)
    assert lat.rank == 1
    vec = lat.gamma_basis[0]
    assert abs(vec[0] - math.log(3 + 2 * math.sqrt(2))) <= 1e-10
    assert abs(vec[1] - math.log(3 - 2 * math.sqrt(2))) <= 1e-10
    assert lat.monodromy == [[[3, 4], [2, 3]]]


def test_gamma_lattice_gauss():
    grp = nf.find_units(GAUSS, 1)
    pos = nf.positive_units(grp, GAUSS)
    lat = nf.gamma_lattice(GAUSS, pos, grp)
    assert lat.rank == 1
    vec = lat.gamma_basis[0]
    assert abs(vec[0] - complex(0, math.pi / 2)) <= 1e-10
    assert lat.monodromy == [[[0, -1], [1, 0]]]


def test_gamma_lattice_rational_is_trivial():
    lat = nf.gamma_lattice(RAT, [], nf.find_units(RAT, 1))
    assert lat.rank == 0
    assert lat.gamma_basis == []


def test_log_vectors_live_in_trace_zero_hyperplane():
    grp = nf.find_units(CUBIC, 12)
    pos = nf.positive_units(grp, CUBIC)
    for u in pos:
        lv = nf.log_vector(CUBIC, u)
        assert abs(sum(lv)) <= 1e-10


def test_monodromy_identity_unit():
    mats = nf.monodromy_matrices(SQRT2, [nf.one(SQRT2)])
    assert mats == [[[1, 0], [0, 1]]]


def test_monodromy_integrality_and_determinant():
    grp = nf.find_units(CUBIC, 12)
    pos = nf.positive_units(grp, CUBIC)
    import liouville_lab._poly as poly
    for m in nf.monodromy_matrices(CUBIC, pos):
        assert all(isinstance(x, int) for row in m for x in row)
        assert poly.int_det(m) == 1


def test_embedding_cross_check_on_norms():
    # exact integer norm vs the float product of embeddings, 1e-6 relative
    grp = nf.find_units(CUBIC, 12)
    for u in grp.free_generators:
        reals, cplx = CUBIC.embed(u)
        approx = 1.0
        for v in reals:
            approx *= v
        for z in cplx:
            approx *= abs(z) ** 2
        exact = nf.norm(CUBIC, u)
        assert abs(approx - exact) <= 1e-6 * max(1, abs(exact))


def test_build_liealg_pair_rational():
    rep = nf.build_liealg_pair(RAT)
    assert rep.preset.key == "totreal:1"
    assert rep.certificate.verdict == "positive"
    assert rep.lattice.rank == 0


def test_build_liealg_pair_sqrt2():
    rep = nf.build_liealg_pair(SQRT2)
    assert rep.certificate.verdict == "positive"
    assert rep.certificate.kind == "exact-sturm"
    assert rep.lattice.monodromy == [[[3, 4], [2, 3]]]


def test_build_liealg_pair_cubic():
    rep = nf.build_liealg_pair(CUBIC)
    assert rep.units.rank == 2
    assert rep.certificate.verdict == "positive"
    assert rep.lattice.rank == 2


def test_build_liealg_pair_complex_has_no_certificate():
    rep = nf.build_liealg_pair(GAUSS)
    assert rep.certificate is None
    assert rep.preset is None
    assert rep.lattice.rank == 1


def test_unit_inverse_is_exact():
    u = nf.OrderElement((3, 2))
    inv = nf.invert_unit(SQRT2, u)
    assert nf.multiply(SQRT2, u, inv).is_one()
    with pytest.raises(ValueError, match="unit"):
        nf.invert_unit(SQRT2, nf.OrderElement((2, 0)))
    for field in (RAT, CUBIC, nf.field_from_poly([-1, 0, -3, 0, 1])):
        for u in nf._box_units(field, 2):
            assert nf.multiply(field, u, nf.invert_unit(field, u)).is_one()


def test_discriminants():
    assert GAUSS.discriminant() == -4
    assert SQRT2.discriminant() == 8
    assert CUBIC.discriminant() == 81


def sylvester_resultant(f, g) -> int:
    """Reference: Res(f, g) of integer polynomials (ascending coefficients)
    as the determinant of their Sylvester matrix."""
    n, m = len(f) - 1, len(g) - 1
    rows = []
    for p, count in ((f, m), (g, n)):
        for i in range(count):
            row = [0] * (n + m)
            for j, c in enumerate(reversed(p)):
                row[i + j] = c
            rows.append(row)
    return _poly.int_det(rows)


def fraction_horner(coeffs, z):
    """Reference: Horner on the complex values of Fraction coefficients."""
    acc = 0j
    for c in reversed(_poly.poly(coeffs)):
        acc = acc * z + complex(c)
    return acc


monic_coeffs = st.lists(st.integers(-12, 12), min_size=1,
                        max_size=4).map(lambda low: low + [1])
FIXED_POLYS = [[10 ** 18 + 3, 0, 0, 0, 1], [1, 0, -10, 0, 1]]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.one_of(monic_coeffs, st.sampled_from(FIXED_POLYS)))
def test_discriminant_matches_sylvester_resultant(coeffs):
    try:
        poly = nf.Poly(tuple(coeffs))
    except nf.FieldError:
        assume(False)
    n = poly.degree
    fp = [i * c for i, c in enumerate(coeffs)][1:]
    want = (-1) ** (n * (n - 1) // 2) * sylvester_resultant(coeffs, fp)
    assert nf.NumberField(poly, [], []).discriminant() == want


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.one_of(monic_coeffs, st.sampled_from(FIXED_POLYS)),
       st.complex_numbers(max_magnitude=1e3, allow_nan=False))
def test_integer_horner_matches_fraction_horner(coeffs, z):
    # same bits, signed zeros included, at a random point and at the
    # companion-matrix roots that root polishing starts from
    n = len(coeffs) - 1
    comp = np.zeros((n, n))
    comp[1:, :-1] = np.eye(n - 1)
    comp[:, -1] = [-c for c in coeffs[:-1]]
    fp = [i * c for i, c in enumerate(coeffs)][1:]
    for x in [z, *map(complex, np.linalg.eigvals(comp))]:
        for p in (coeffs, fp):
            assert repr(nf._eval_int_poly(p, x)) == repr(fraction_horner(p, x))


def test_quartic_mixed_signature_pipeline():
    # X^4 - 2: roots ±2^(1/4), ±i 2^(1/4): signature (2, 1), unit rank 2;
    # X - 1 and X^2 + 1 are units with single-digit coordinates
    field = nf.field_from_poly([-2, 0, 0, 0, 1])
    assert field.signature == (2, 1)
    assert nf.norm(field, nf.OrderElement((-1, 1, 0, 0))) == -1
    assert nf.norm(field, nf.OrderElement((1, 0, 1, 0))) == 1
    rep = nf.build_liealg_pair(field, box_bound=2)
    assert rep.units.rank == 2
    assert rep.lattice.rank == 3          # r + s - 1 + s = n - 1
    assert rep.certificate is None        # s > 0: lattice data only
    import liouville_lab._poly as poly
    for m in rep.lattice.monodromy:
        assert poly.int_det(m) == 1
    for vec in rep.lattice.gamma_basis:
        tr = sum(v for v in vec[:2]) + 2 * sum(
            z.real for z in vec[2:] if isinstance(z, complex))
        assert abs(tr) <= 1e-10


def test_complex_cubic_pipeline():
    # X^3 - X - 1: one real place, so -1 is not a positive unit and only
    # the 2*pi*i kernel vector joins the free generator; every complex
    # cubic used to fail with a determinant -1 monodromy
    field = nf.field_from_poly([-1, -1, 0, 1])
    assert field.signature == (1, 1)
    rep = nf.build_liealg_pair(field)
    assert rep.units.torsion_order == 2
    assert rep.lattice.rank == 2
    assert rep.lattice.gamma_basis[-1] == [0.0, complex(0.0, 2 * math.pi)]
    assert len(rep.lattice.monodromy) == 1
    import liouville_lab._poly as poly
    assert poly.int_det(rep.lattice.monodromy[0]) == 1


# -- the resolvent-cubic split test against the divisor search it replaced -----


def divisor_split(coeffs):
    """(X^2 + aX + b)(X^2 + cX + d) by trial division of f(0) != 0, the
    search `Poly._has_quadratic_factor` replaced, kept as a reference."""
    f0, f1, f2, f3 = coeffs[:4]
    n = abs(f0)
    divisors = {d for k in range(1, math.isqrt(n) + 1) if n % k == 0
                for d in (k, n // k)}
    for b in [d for a in sorted(divisors) for d in (a, -a)]:
        d = f0 // b
        s = f3                       # a + c
        m = f2 - b - d               # a * c
        disc = s * s - 4 * m
        if disc < 0:
            continue
        rt = math.isqrt(disc)
        if rt * rt != disc:
            continue
        for a in ((s + rt) // 2, (s - rt) // 2):
            if (s + rt) % 2 and a == (s + rt) // 2:
                continue
            if (s - rt) % 2 and a == (s - rt) // 2:
                continue
            if a * d + b * (s - a) == f1:
                return True
    return False


small = st.integers(-30, 30)


@st.composite
def quartics(draw):
    """(ascending coefficients, split by construction) with f(0) != 0."""
    if draw(st.booleans()):
        p, r = draw(small), draw(small)
        q, s = (draw(small.filter(bool)) for _ in range(2))
        return (q * s, p * s + q * r, q + s + p * r, p + r, 1), True
    a, b, c = draw(small), draw(small), draw(small)
    d = draw(st.integers(-3000, 3000).filter(bool))
    return (d, c, b, a, 1), None


@settings(derandomize=True, max_examples=500, deadline=None)
@given(quartics())
def test_resolvent_split_matches_divisor_search(case):
    coeffs, split = case
    got = nf.Poly._has_quadratic_factor(coeffs)
    assert got == divisor_split(coeffs)
    if split:
        assert got


def test_split_test_on_large_constant_term_is_fast():
    # trial division of f(0) ran for more than a minute here
    t0 = time.perf_counter()
    assert nf.Poly((10 ** 18 + 3, 0, 0, 0, 1)).degree == 4
    assert time.perf_counter() - t0 < 1.0
    q = 10 ** 9 + 7
    with pytest.raises(nf.FieldError, match="two quadratics"):
        nf.Poly((q * (q + 2), 0, 2 * q + 2, 0, 1))  # (X^2+q)(X^2+q+2)


# -- batched unit search ----------------------------------------------------------


def reference_box_units(field, box_bound):
    """The per-candidate search: one Python mult matrix and int_det each."""
    units = []
    for coords in product(range(-box_bound, box_bound + 1),
                          repeat=field.degree):
        if all(c == 0 for c in coords):
            continue
        u = nf.OrderElement(coords)
        if _poly.int_det(nf.mult_matrix(field, u)) in (1, -1):
            units.append(u)
    return units


def reference_find_units(field, units):
    """`find_units` on the units of the per-candidate search."""
    r, s = field.signature
    torsion, free_candidates = [], []
    for u in units:
        size = math.sqrt(sum(v * v for v in nf.log_vector(field, u)))
        if size <= 1e-9 and nf._element_order(field, u):
            torsion.append(u)
        else:
            free_candidates.append((size, u))
    tor_gen, tor_order = nf._torsion_generator(field, torsion)
    free = nf._greedy_rank_filter(field, free_candidates, r + s - 1)
    if len(free) < r + s - 1:
        raise ValueError("increase box_bound")
    return nf.UnitGroup(torsion, tor_gen, tor_order, free, len(free))


def search_dtype(field, box_bound):
    n = field.degree
    basis = [nf.mult_matrix(field, nf.OrderElement([int(i == k) for i in range(n)]))
             for k in range(n)]
    return nf._search_dtype(basis, box_bound)


def assert_same_search(field, box_bound):
    got = [u.coords for u in nf._box_units(field, box_bound)]
    assert all(type(c) is int for coords in got for c in coords)
    units = reference_box_units(field, box_bound)
    assert got == [u.coords for u in units]
    try:
        want = reference_find_units(field, units)
    except ValueError:
        with pytest.raises(ValueError, match="increase box_bound"):
            nf.find_units(field, box_bound)
        return
    grp = nf.find_units(field, box_bound)
    assert grp.torsion == want.torsion
    assert grp.free_generators == want.free_generators
    assert grp.torsion_order == want.torsion_order
    assert grp.rank == want.rank


@st.composite
def monic_fields(draw):
    n = draw(st.integers(1, 4))
    coeffs = [draw(st.integers(-9, 9)) for _ in range(n)] + [1]
    try:
        return nf.field_from_poly(coeffs)
    except nf.FieldError:
        assume(False)


@settings(derandomize=True, max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(monic_fields(), st.integers(1, 4))
def test_batched_unit_search_matches_per_candidate_loop(field, box_bound):
    assert_same_search(field, box_bound)


def test_batched_unit_search_whole_quartic_box():
    # x^4 - 3x^2 - 1 at its default box: 83,521 candidates, every unit in order
    field = nf.field_from_poly([-1, 0, -3, 0, 1])
    assert search_dtype(field, 8) is np.int64
    assert_same_search(field, 8)


@pytest.mark.parametrize("coeffs", [[-1, 1], [5, 1]])
def test_batched_unit_search_degree_one(coeffs):
    field = nf.field_from_poly(coeffs)
    for box_bound in (0, 1, 4):
        assert_same_search(field, box_bound)
    assert [u.coords for u in nf._box_units(field, 3)] == [(-1,), (1,)]


def test_batched_unit_search_object_path():
    # the overflow bound passes 2^62, so the box runs on Python ints
    field = nf.field_from_poly([7, -900, 13, -17, 1])
    assert search_dtype(field, 1) is np.int64
    assert search_dtype(field, 2) is object
    assert_same_search(field, 2)


def test_cofactor_det_is_exact_on_python_ints():
    rng = np.random.default_rng(7)
    for k in range(1, 5):
        mats = [[[int(x) * 10 ** 15 + int(y) for x, y in zip(rx, ry)]
                 for rx, ry in zip(*rng.integers(-99, 99, (2, k, k)))]
                for _ in range(20)]
        got = nf._cofactor_det(np.array(mats, dtype=object))
        assert list(got) == [_poly.int_det(m) for m in mats]


@st.composite
def totally_real_quartics(draw):
    coeffs = [draw(st.integers(-3, 3)), draw(st.integers(-5, 5)),
              draw(st.integers(-12, -2)), draw(st.integers(-3, 3)), 1]
    try:
        field = nf.field_from_poly(coeffs)
    except nf.FieldError:
        assume(False)
    assume(field.is_totally_real)
    return field


@settings(derandomize=True, max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(totally_real_quartics())
def test_free_generators_are_independent(field):
    try:
        grp = nf.find_units(field, 4)
    except ValueError:
        assume(False)
    logs = np.array([nf.log_vector(field, u) for u in grp.free_generators])
    assert grp.rank == 3
    assert np.linalg.matrix_rank(logs, tol=1e-8) == grp.rank
