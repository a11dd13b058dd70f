import math
import random
from fractions import Fraction as Q
from itertools import zip_longest

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liouville_lab import _poly, liealg
from liouville_lab.exterior import (EXACT, FLOAT64, MAX_DIM, Form, blade_mask,
                                    mask_blade)
from test_poly import positive_on_01


def dense_jacobi(g):
    """The dense O(n^5) Jacobi loop over structure constants, kept as a
    reference for `d_squared_check`."""
    n = g.dim

    def c(i, j, k):
        """c^k_{ij}, antisymmetric in i and j."""
        if i > j:
            return -c(j, i, k)
        return g.brackets.get((i, j), {}).get(k, Q(0))

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
        return Form(cf, min(1, g.dim), {}, a.ring)
    if a.degree == g.dim:
        return Form(cf, g.dim, {}, a.ring)
    d1 = [Form(cf, 2, {(1 << i) | (1 << j): -row[k]
                       for (i, j), row in g.brackets.items() if k in row})
          for k in range(g.dim)]
    out = Form(cf, a.degree + 1, {}, a.ring)
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
    assert i_t < i0 < i1
    assert g.brackets == {(i_t, i0): {i0: -1}, (i_t, i1): {i1: 1}}


def test_grs1_sol_brackets():
    # unimodular diagonal action of the two-real-places group
    p = liealg.grs1(2, 0)
    g = p.algebra
    h = g.names.index("H1*")
    t1 = g.names.index("Θ1*")
    t2 = g.names.index("Θ2*")
    assert h < t2 < t1
    assert g.brackets == {(h, t1): {t1: 1}, (h, t2): {t2: -1}}


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


def test_pair_certificates_no_report_shows():
    # recombined pairs, pinned in full: an indefinite verdict with a
    # root-interval witness, and a negative one with a point witness at 0
    pre = liealg.preset("totreal:3")
    ap = pre.alpha_plus
    cert = liealg.liouville_pair_check(pre.algebra, 3 * ap, -ap)
    assert cert.verdict == "indefinite"
    assert cert.polynomial == [6, -36, 0, 192]
    assert all(type(c) is Q for c in cert.polynomial)
    assert cert.root_count == 1
    assert cert.witness == ("root-interval", Q(274877906943, 2 ** 40),
                            Q(1, 4))
    pre = liealg.preset("totreal:1")
    ap, am = pre.alpha_plus, pre.alpha_minus
    cert = liealg.liouville_pair_check(pre.algebra, -ap + 2 * am,
                                       3 * ap - 2 * am)
    assert cert.verdict == "negative"
    assert cert.polynomial == [-5, 2]
    assert cert.root_count == 0
    assert cert.witness == ("point", 0, -5)
    assert type(cert.witness[1]) is Q and type(cert.witness[2]) is Q


def test_a_non_positive_pair_is_decided_once(counted_calls):
    # one root count; p(0), p(1) for the verdict and the witness's
    # midpoint, where the witness took a second count and p(0), p(1) again
    pre = liealg.preset("totreal:3")
    calls = {}
    counted_calls(_poly, "count_roots", calls)
    counted_calls(_poly, "evaluate", calls)
    cert = liealg.liouville_pair_check(pre.algebra, 3 * pre.alpha_plus,
                                       -pre.alpha_plus)
    assert cert.verdict == "indefinite"
    assert cert.witness[0] == "root-interval"
    assert calls == {"count_roots": 1, "evaluate": 3}


def test_tampered_pair_certificates_do_not_replay():
    pre = liealg.preset("totreal:1")
    ap, am = pre.alpha_plus, pre.alpha_minus
    cert = liealg.liouville_pair_check(pre.algebra, -ap + 2 * am,
                                       3 * ap - 2 * am)
    assert cert.verdict == "negative" and cert.replay()
    cert.verdict = "indefinite"
    assert not cert.replay()
    pre = liealg.preset("totreal:3")
    cert = liealg.liouville_pair_check(pre.algebra, 3 * pre.alpha_plus,
                                       -pre.alpha_plus)
    assert cert.verdict == "indefinite" and cert.replay()
    cert.root_count = 2
    assert not cert.replay()
    cert.root_count, cert.verdict = 1, "negative"
    assert not cert.replay()
    cert.verdict = "indefinite"
    assert cert.replay()
    cert.witness = ("point", Q(0), Q(6))
    assert not cert.replay()


def poly_add(p, q):
    """p + q of two ascending Fraction lists, trimmed."""
    return _poly.trim([a + b for a, b in zip_longest(p, q, fillvalue=0)])


def poly_pow(p, k):
    out = [Q(1)]
    for _ in range(k):
        out = _poly.mul(out, p)
    return out


def monomial_pair_polynomial(g, a_plus, a_minus):
    """pair_polynomial by its definition: each top coefficient from the full
    wedge product, each x^i (1 - x)^(n - i) a product of Fraction
    polynomials."""
    n = (g.dim + 1) // 2
    dap, dam = g.ce_differential(a_plus), g.ce_differential(a_minus)
    x, one_minus_x = [Q(0), Q(1)], [Q(1), Q(-1)]
    p = []
    for j in range(n):
        binom = math.comb(n - 1, j)
        rest = dap.power(j).wedge(dam.power(n - 1 - j))
        t_plus = a_plus.wedge(rest).top_coefficient()
        t_minus = a_minus.wedge(rest).top_coefficient()
        mono = _poly.mul(poly_pow(x, j + 1), poly_pow(one_minus_x, n - 1 - j))
        p = poly_add(p, [binom * t_plus * c for c in mono])
        mono = _poly.mul(poly_pow(x, j), poly_pow(one_minus_x, n - j))
        p = poly_add(p, [-binom * t_minus * c for c in mono])
    return p


@settings(derandomize=True, max_examples=120, deadline=None)
@given(
    key=st.sampled_from(["totreal:1", "totreal:2", "totreal:3", "grs1:2,0",
                         "sol:2,1,1,1", "geiges:2", "geiges:3"]),
    coeffs=st.lists(st.builds(Q, st.integers(-6, 6), st.integers(1, 5)),
                    min_size=4, max_size=4),
)
def test_pair_polynomial_matches_monomial_reference(key, coeffs):
    # presets recombined with rational, mostly non-integral coefficients;
    # the verdict is the old one: positive when p > 0 on [0, 1], negative
    # when -p > 0 there, indefinite otherwise
    pre = liealg.preset(key)
    g, ap, am = pre.algebra, pre.alpha_plus, pre.alpha_minus
    a, b, c, d = coeffs
    plus, minus = a * ap + b * am, c * ap + d * am
    p = liealg.pair_polynomial(g, plus, minus)
    assert p == monomial_pair_polynomial(g, plus, minus)
    assert all(type(x) is Q for x in p)
    cert = liealg.liouville_pair_check(g, plus, minus)
    assert cert.polynomial == p
    if positive_on_01(p)[0]:
        verdict = "positive"
    elif positive_on_01([-x for x in p])[0]:
        verdict = "negative"
    else:
        verdict = "indefinite"
    assert cert.verdict == verdict
    assert cert.root_count == _poly.count_roots(p, 0, 1)
    assert cert.witness == positive_on_01(p)[1]
    assert cert.replay()


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
        iso = liealg.geiges_isomorphism(liealg.geiges(n))
        assert iso.residual <= 1e-10
        assert iso.traces_vanish
        assert iso.r == (1 if n % 2 else 2)
        assert iso.s == (n - iso.r) // 2
    assert liealg.geiges_isomorphism(liealg.geiges(1)).residual == 0.0


def reference_geiges_isomorphism(n):
    """The normal form by the loops that built its own action matrix: the
    exact powers A, ..., A^(n-1) with their traces, then the float powers
    Ap @ A of the residual, kept as a reference for `geiges_isomorphism`.
    Returns (exact powers, float powers, traces, residual)."""
    if n == 1:
        return [], [], [], 0.0
    a = [[0] * n for _ in range(n)]
    a[0][1] = -1
    for i in range(1, n - 1):
        a[i][i + 1] = 1
    a[n - 1][0] = -1
    powers, traces = [], []
    power = [row[:] for row in a]
    for _ in range(1, n):
        powers.append(power)
        traces.append(sum(power[i][i] for i in range(n)))
        power = _poly.mat_mul(power, a)
    r = 1 if n % 2 else 2
    s = (n - r) // 2
    A = np.array(a, dtype=float)
    theta = 2 * math.pi / n
    blocks = [np.array([[1.0]])]
    if r == 2:
        blocks.append(np.array([[-1.0]]))
    for j in range(1, s + 1):
        c, sn = math.cos(j * theta), math.sin(j * theta)
        blocks.append(np.array([[c, -sn], [sn, c]]))
    B = liealg._block_diag(blocks)
    vals, vecs = np.linalg.eig(A)
    cols = [liealg._real_eigvec(vals, vecs, 1.0)]
    if r == 2:
        cols.append(liealg._real_eigvec(vals, vecs, -1.0))
    for j in range(1, s + 1):
        lam = complex(math.cos(j * theta), math.sin(j * theta))
        v = liealg._complex_eigvec(vals, vecs, lam)
        cols.append(np.imag(v))
        cols.append(np.real(v))
    Qm = np.column_stack(cols)
    P = np.linalg.inv(Qm)
    residual = 0.0
    Bp = np.eye(n)
    Ap = np.eye(n)
    float_powers = []
    for _ in range(1, n):
        Bp = Bp @ B
        Ap = Ap @ A
        float_powers.append(Ap)
        residual = max(residual, float(np.max(np.abs(P @ Ap @ Qm - Bp))))
    return powers, float_powers, traces, residual


@pytest.mark.parametrize("n", range(1, 14))
def test_geiges_isomorphism_matches_the_old_power_loops(n):
    powers, float_powers, traces, residual = reference_geiges_isomorphism(n)
    # float(A^i) is the float product Ap @ A bit for bit, zeros' signs too
    assert [np.array(p, dtype=float).tobytes() for p in powers] == [
        p.tobytes() for p in float_powers]
    if 2 * n - 1 <= MAX_DIM:
        preset = liealg.geiges(n)
        assert preset.meta["powers"] == powers
    else:  # past the coframe limit there is no algebra, only its action
        preset = liealg.Preset(f"geiges:{n}", None, meta={"powers": powers})
    iso = liealg.geiges_isomorphism(preset)
    assert iso.residual.hex() == residual.hex()
    assert iso.traces == traces


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
