import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liouville_lab import liealg
from liouville_lab.exterior import EXACT, FLOAT64, Form, blade_mask, mask_blade


def dense_jacobi(g):
    """The dense O(n^5) Jacobi loop over structure constants, kept as a
    reference for `d_squared_check`."""
    n = g.dim
    c = g.structure_constant
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                for l in range(n):
                    s = Q(0)
                    for m in range(n):
                        s += c(i, j, m) * c(m, k, l)
                        s += c(j, k, m) * c(m, i, l)
                        s += c(k, i, m) * c(m, j, l)
                    if s != 0:
                        return False
    return True


def wedge_ce_differential(g, a):
    """d by unit Forms and two wedges per blade position, kept as a
    reference for `LieAlgebra.ce_differential`."""
    cf = g.coframe()
    if a.degree == 0:
        return Form.zero(cf, min(1, g.dim), a.ring)
    if a.degree == g.dim:
        return Form.zero(cf, g.dim, a.ring)
    d1 = [Form(cf, 2, {(1 << i) | (1 << j): -row[k]
                       for (i, j), row in g.brackets.items() if k in row})
          for k in range(g.dim)]
    out = Form.zero(cf, a.degree + 1, a.ring)
    for mask, c in a.terms.items():
        idxs = mask_blade(mask)
        for pos, i in enumerate(idxs):
            di = d1[i] if a.ring.exact else d1[i].to_float()
            if di.is_zero():
                continue
            before = Form(cf, pos, {blade_mask(idxs[:pos]): 1}, a.ring)
            after_idx = idxs[pos + 1:]
            after = Form(cf, len(after_idx), {blade_mask(after_idx): 1},
                         a.ring)
            sign = -1 if pos % 2 else 1
            out = out + (sign * c) * before.wedge(di).wedge(after)
    return out


def test_aff_c_structure_equations():
    p = liealg.aff_c()
    g = p.algebra
    cf = g.coframe()
    u, v, x, y = (Form.covector(cf, n) for n in ("U*", "V*", "X*", "Y*"))
    assert g.ce_differential(u).is_zero()
    assert g.ce_differential(v).is_zero()
    assert g.ce_differential(x) == x.wedge(u) + v.wedge(y)
    assert g.ce_differential(y) == x.wedge(v) + y.wedge(u)


def test_aff_c_liouville_volume():
    # beta = X*: d(beta)^2 is a nonzero multiple of U*^V*^X*^Y*; the sign is
    # +2 in the listed orientation (checked against the coordinate frame
    # e^-u(cos v dx + sin v dy) by hand)
    p = liealg.aff_c()
    top = p.algebra.ce_differential(p.liouville_form).power(2).top_coefficient()
    assert top == 2


def test_aff_r_ce():
    p = liealg.aff_r()
    g = p.algebra
    cf = g.coframe()
    t, theta = Form.covector(cf, "T*"), Form.covector(cf, "Θ*")
    assert g.ce_differential(theta) == -(t.wedge(theta))
    assert g.ce_differential(Form.scalar(cf, 5)).is_zero()


def test_broken_jacobi_rejected():
    brackets = {
        (0, 1): {2: Q(1)},
        (0, 2): {0: Q(1)},
        (1, 2): {1: Q(-5)},
    }
    with pytest.raises(liealg.StructureConstantError, match="Jacobi"):
        liealg.LieAlgebra(("a", "b", "c"), brackets)


def test_bracket_indices_out_of_range_rejected():
    names = ("a", "b")
    with pytest.raises(liealg.StructureConstantError, match="i < j"):
        liealg.LieAlgebra(names, {(1, 0): {0: 1}})
    for k in (2, -1):
        with pytest.raises(liealg.StructureConstantError, match="range"):
            liealg.LieAlgebra(names, {(0, 1): {k: 1}})


PRESET_KEYS = [
    "aff_r", "aff_c", "grs:1,1", "grs1:1,0", "grs1:2,0", "grs1:3,0",
    "grs1:2,1", "grs1:0,1", "totreal:1", "totreal:2", "totreal:3",
    "totreal:4", "geiges:2", "geiges:3", "geiges:4", "geiges:5",
    "sol:2,1,1,1",
]


@pytest.mark.parametrize("key", PRESET_KEYS)
def test_presets_satisfy_jacobi_and_d_squared(key):
    p = liealg.preset(key)
    assert dense_jacobi(p.algebra)
    assert p.algebra.d_squared_check()


def test_abelian_is_trivially_ok():
    g = liealg.LieAlgebra(tuple(f"e{i}" for i in range(4)), {})
    assert dense_jacobi(g) and g.d_squared_check()


def test_jacobi_wrappers_are_gone():
    assert not hasattr(liealg.LieAlgebra, "jacobi_check")
    for name in ("jacobi_check", "d_squared_check", "ce_differential"):
        assert not hasattr(liealg, name)


# -- the d-of-a-blade kernel against the references it replaced ---------------

COEFFS = [-2, -1, 1, 2, Q(1, 2), Q(-3, 2), Q(1, 3), Q(-2, 5)]


@st.composite
def bracket_tables(draw):
    """(dim, brackets): random sparse tables, or semidirect sums of
    commuting diagonal matrices, which satisfy Jacobi."""
    n = draw(st.integers(1, 7))
    if n >= 2 and draw(st.booleans()):
        p = draw(st.integers(1, n - 1))
        brackets = {}
        for i in range(p):
            for j in range(p, n):
                lam = draw(st.sampled_from([0] + COEFFS))
                if lam:
                    brackets[(i, j)] = {j: lam}
        return n, brackets
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    brackets = {}
    for pair in draw(st.lists(st.sampled_from(pairs), max_size=6,
                              unique=True)) if pairs else []:
        ks = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2,
                           unique=True))
        brackets[pair] = {k: draw(st.sampled_from(COEFFS)) for k in ks}
    return n, brackets


def _algebra(table):
    n, brackets = table
    return liealg.LieAlgebra(tuple(f"e{i}" for i in range(n)), brackets,
                             check=False)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(bracket_tables())
def test_d_squared_check_matches_dense_jacobi(table):
    g = _algebra(table)
    ok = dense_jacobi(g)
    assert g.d_squared_check() == ok
    if ok:
        liealg.LieAlgebra(g.names, g.brackets)
    else:
        with pytest.raises(liealg.StructureConstantError, match="Jacobi"):
            liealg.LieAlgebra(g.names, g.brackets)


FLOATS = [1.0, -1.0, 2.0, 0.1, -0.7, 1 / 3, 1e-3, -2.5e5, 3.0000000000000004]


@st.composite
def forms_on(draw, g, ring):
    degree = draw(st.integers(0, g.dim))
    blades = [m for m in range(1 << g.dim) if m.bit_count() == degree]
    masks = draw(st.lists(st.sampled_from(blades), min_size=1, max_size=6,
                          unique=True))
    coeff = st.sampled_from(COEFFS if ring is EXACT else FLOATS)
    return Form(g.coframe(), degree, {m: draw(coeff) for m in masks}, ring)


def _terms(a):
    if a.ring.exact:
        return list(a.terms.items())
    return [(m, c.hex()) for m, c in a.terms.items()]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.data(), bracket_tables(), st.sampled_from([EXACT, FLOAT64]))
def test_ce_differential_matches_wedge_construction(data, table, ring):
    g = _algebra(table)
    a = data.draw(forms_on(g, ring))
    got, want = g.ce_differential(a), wedge_ce_differential(g, a)
    assert got.degree == want.degree and got.ring is want.ring
    assert _terms(got) == _terms(want)


def test_semidirect_zero_action_is_abelian():
    zero = [[Q(0), Q(0)], [Q(0), Q(0)]]
    g = liealg.semidirect_sum([zero], ("a",), ("x", "y"))
    assert not g.brackets


def test_semidirect_noncommuting_rejected():
    a = [[Q(0), Q(1)], [Q(0), Q(0)]]
    b = [[Q(0), Q(0)], [Q(1), Q(0)]]
    with pytest.raises(liealg.StructureConstantError, match="commute"):
        liealg.semidirect_sum([a, b], ("a", "b"), ("x", "y"))


def test_totally_real_2_brackets():
    p = liealg.totally_real(2)
    g = p.algebra
    i_t = g.names.index("T1*")
    i0 = g.names.index("Θ0*")
    i1 = g.names.index("Θ1*")
    assert g.structure_constant(i_t, i0, i0) == -1
    assert g.structure_constant(i_t, i1, i1) == 1


def test_grs1_sol_brackets():
    # unimodular diagonal action of the two-real-places group
    p = liealg.grs1(2, 0)
    g = p.algebra
    h = g.names.index("H1*")
    t1 = g.names.index("Θ1*")
    t2 = g.names.index("Θ2*")
    assert g.structure_constant(h, t1, t1) == 1
    assert g.structure_constant(h, t2, t2) == -1


def test_contact_check_examples():
    # dim 1: nonvanishing = positive volume
    p1 = liealg.totally_real(1)
    assert liealg.contact_check(p1.algebra, p1.alpha_plus).verdict == "positive"
    # dim 3: hand-expanded coefficient +2
    p2 = liealg.totally_real(2)
    cert = liealg.contact_check(p2.algebra, p2.alpha_plus)
    assert cert.verdict == "positive" and cert.value == 2
    # kernel direction kills the volume
    cf = p2.algebra.coframe()
    t = Form.covector(cf, "T1*")
    assert liealg.contact_check(p2.algebra, t).verdict == "indefinite"


def test_contact_check_requires_odd_dim():
    p = liealg.aff_r()
    with pytest.raises(ValueError, match="odd"):
        liealg.contact_check(p.algebra, p.liouville_form)


def test_liouville_pair_endpoints_match_contact():
    p = liealg.totally_real(2)
    cert = liealg.liouville_pair_check(p.algebra, p.alpha_plus, p.alpha_minus)
    # P(1, 0) = contact volume of alpha_plus; P(0, 1) = -volume of alpha_minus
    import liouville_lab._poly as poly
    plus_vol = liealg.contact_check(p.algebra, p.alpha_plus).value
    minus_vol = liealg.contact_check(p.algebra, p.alpha_minus).value
    assert poly.evaluate(cert.polynomial, 1) == plus_vol
    assert poly.evaluate(cert.polynomial, 0) == -minus_vol


def test_liouville_pair_positive_and_replayable():
    p = liealg.totally_real(2)
    cert = liealg.liouville_pair_check(p.algebra, p.alpha_plus, p.alpha_minus)
    assert cert.verdict == "positive"
    assert cert.kind == "exact-sturm"
    assert cert.replay()


def test_exact_sign_certificates_replay_their_sign():
    p = liealg.totally_real(2)
    cert = liealg.contact_check(p.algebra, p.alpha_plus)
    assert cert.kind == "exact-sign" and cert.replay()
    for value, verdict in ((Q(3, 2), "positive"), (Q(-2), "negative"),
                           (Q(0), "indefinite")):
        cert = liealg.PositivityCertificate(verdict, "exact-sign", "",
                                            value=value)
        assert cert.replay()
        for other in {"positive", "negative", "indefinite"} - {verdict}:
            cert.verdict = other
            assert not cert.replay()


def test_liouville_pair_check_requires_exact_forms():
    p = liealg.totally_real(2)
    for ap, am in ((p.alpha_plus.to_float(), p.alpha_minus),
                   (p.alpha_plus, p.alpha_minus.to_float())):
        with pytest.raises(ValueError, match="requires exact forms"):
            liealg.liouville_pair_check(p.algebra, ap, am)


def test_equal_pair_is_indefinite():
    p = liealg.totally_real(2)
    cert = liealg.liouville_pair_check(p.algebra, p.alpha_plus, p.alpha_plus)
    assert cert.verdict == "indefinite"
    assert cert.witness is not None
    assert cert.replay()


@pytest.mark.parametrize("key", [
    "totreal:1", "totreal:2", "totreal:3", "totreal:4", "grs1:1,0",
    "grs1:2,0", "grs1:3,0", "sol:2,1,1,1", "geiges:2", "geiges:3",
])
def test_preset_pairs_certify(key):
    p = liealg.preset(key)
    assert liealg.contact_check(p.algebra, p.alpha_plus).verdict == "positive"
    assert liealg.contact_check(p.algebra, p.alpha_minus).verdict == "negative"
    cert = liealg.liouville_pair_check(p.algebra, p.alpha_plus, p.alpha_minus)
    assert cert.verdict == "positive"


def test_geiges_pair_examples():
    p1 = liealg.geiges(1)
    assert liealg.geiges_pair_check(p1.algebra, p1.alpha_plus, p1.alpha_minus)
    p3 = liealg.totally_real(2)
    assert liealg.geiges_pair_check(p3.algebra, p3.alpha_plus, p3.alpha_minus)
    # the dim-5 concrete pair is Liouville but not Geiges
    p5 = liealg.totally_real(3)
    assert not liealg.geiges_pair_check(p5.algebra, p5.alpha_plus,
                                        p5.alpha_minus)


def test_geiges_group_pairs_dim3_dim5():
    for n in (2, 3):
        p = liealg.geiges(n)
        assert liealg.geiges_pair_check(p.algebra, p.alpha_plus, p.alpha_minus)


def test_geiges_isomorphism_residuals():
    for n in range(1, 6):
        iso = liealg.geiges_isomorphism(n)
        assert iso.residual <= 1e-10
        assert iso.traces_vanish
        assert iso.r == (1 if n % 2 else 2)
        assert iso.s == (n - iso.r) // 2
    assert liealg.geiges_isomorphism(1).residual == 0.0


def test_grs1_1_0_is_circle_pair():
    p = liealg.grs1(1, 0)
    assert p.algebra.dim == 1
    assert p.alpha_plus == -p.alpha_minus


def test_sol_preset_validation():
    with pytest.raises(ValueError, match="hyperbolic"):
        liealg.sol_from_sl2([[1, 1], [0, 1]])
    with pytest.raises(ValueError, match="SL"):
        liealg.sol_from_sl2([[2, 0], [0, 1]])
    p = liealg.sol_from_sl2([[2, 1], [1, 1]])
    cf = p.algebra.coframe()
    assert p.alpha_plus == Form.covector(cf, "X*") + Form.covector(cf, "Y*")


def test_grs_r0_has_no_pair():
    p = liealg.grs1(0, 1)
    assert p.alpha_plus is None


def test_preset_parse_errors():
    with pytest.raises(ValueError, match="unknown preset"):
        liealg.preset("nope:1")
    with pytest.raises(ValueError, match="4 integers"):
        liealg.preset("sol:1,2")


def test_corrupted_pairs_lose_the_certificate():
    rng = random.Random(0)
    p = liealg.totally_real(2)
    cf = p.algebra.coframe()
    found_noncertified = 0
    for _ in range(10):
        noise = Form(cf, 1, {
            1 << rng.randrange(cf.dim): Q(rng.randint(2, 5))
        })
        cert = liealg.liouville_pair_check(
            p.algebra, p.alpha_plus + noise, -1 * p.alpha_plus + noise
        )
        if cert.verdict != "positive":
            found_noncertified += 1
            assert cert.witness is not None
    assert found_noncertified > 0
