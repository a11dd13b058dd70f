"""The batched grid evaluation against per-sample evaluation, bit for bit.

Every sampled check evaluates its whole grid in one pass of the exterior
engine over float64 arrays.  These tests evaluate the same forms one sample
at a time through `ParamForm.at(s)` -> `wedge`/`power` and require equal
float64 bit patterns at every sample, and equal public results.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liouville_lab import cli
from liouville_lab import formfam as ff
from liouville_lab import liealg

from test_formfam import d_squared_sup

ALGEBRAS = {key: liealg.preset(key) for key in
            ("totreal:1", "totreal:2", "sol:2,1,1,1", "geiges:2",
             "totreal:3", "geiges:3")}

# knots of the piecewise profiles and zeros of the torsion profiles:
# s = pi makes (1 + cos s)/2 exactly zero, s = 0 zeroes sin and 1 - cos
SPECIAL = [0.0, 1.0, 1 / 3, 2 / 3, 0.5, -1.0, math.pi, -math.pi,
           2 * math.pi, 3 * math.pi, math.pi / 2]


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def assert_same_bits(batched, scalar):
    assert batched.shape == (len(scalar),)
    np.testing.assert_array_equal(bits(batched), bits(scalar))


def per_sample(build, pforms, points):
    """build(...).top_coefficient() evaluated at each point on its own."""
    out = []
    for pt in points:
        uv = pt if isinstance(pt, tuple) else (pt,)
        out.append(build(*[pf.at(*uv) for pf in pforms]).top_coefficient())
    return out


def batched(build, pforms, u, v=0.0):
    return ff._grid_tops(build, [pf.at(u, v) for pf in pforms], len(u))


# -- random parameter forms from the profile library --------------------------------


def _leaf(draw):
    kind = draw(st.sampled_from(
        ["const", "linear", "exp", "sin", "cos", "torsion_f", "torsion_g",
         "step5", "step3", "plateau", "lutz", "zero"]))
    a = draw(st.sampled_from([1.0, -1.0, 0.5, 2.0, 3.0]))
    b = draw(st.sampled_from([0.0, 0.25, -1.0]))
    if kind == "const":
        return ff.const(draw(st.sampled_from([1.0, -2.0, 0.5])))
    if kind == "zero":
        return ff.const(0.0)
    if kind == "linear":
        return ff.linear(a, b)
    if kind == "exp":
        return ff.exp_fn(a / 2, b)
    if kind == "sin":
        return ff.sin_cos(a, b)[0]
    if kind == "cos":
        return ff.sin_cos(a, b)[1]
    if kind == "torsion_f":
        return 0.5 * (ff.sin_cos()[1] + 1.0)
    if kind == "torsion_g":
        return 0.5 * (ff.const(1.0) - ff.sin_cos()[1])
    if kind == "step5":
        return ff.smoothstep5().precompose_affine(a, b)
    if kind == "step3":
        return ff.smoothstep3()
    if kind == "plateau":
        kind = draw(st.sampled_from(["quintic", "cubic"]))
        return ff.plateau_bump(1.0, kind)
    return ff.lutz_twist_profile(1, 1.0)


@st.composite
def param_forms(draw):
    key = draw(st.sampled_from(sorted(ALGEBRAS)))
    g = ALGEBRAS[key].algebra
    nparams = draw(st.sampled_from([1, 2]))
    nstatic = draw(st.sampled_from([0, 1]))
    dim = nparams + nstatic + g.dim
    if not 3 <= dim <= 7:
        nparams, nstatic = 2, 0
        dim = 2 + g.dim
    params = ("du", "dv")[:nparams]
    static = ("dθ",)[:nstatic]
    pf = ff.ParamForm(params, static, g, 1, {})
    for i in range(dim):
        if draw(st.booleans()) or i == dim - 1:
            terms = []
            for _ in range(draw(st.integers(1, 2))):
                f = _leaf(draw) * draw(st.sampled_from([1.0, -0.75, 2.5]))
                gv = _leaf(draw) if nparams == 2 else ff.const(1.0)
                terms.append((f, gv))
            pf.terms[1 << i] = ff.ParamCoeff(terms)
    return pf


def _top_build(dim):
    if dim % 2:
        npow = (dim - 1) // 2
        return lambda lam, dlam: lam.wedge(dlam.power(npow))
    return lambda lam, dlam: dlam.power(dim // 2)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(pf=param_forms(),
       extra=st.lists(st.floats(-4.0, 8.0, allow_nan=False), max_size=12),
       v_extra=st.lists(st.sampled_from([0.0, 0.5, 1.0, -0.3, math.pi]),
                        min_size=1, max_size=3))
def test_batched_tops_match_per_sample(pf, extra, v_extra):
    dpf = pf.d()
    build = _top_build(pf.coframe.dim)
    s = SPECIAL + extra
    if pf.nparams == 2:
        pts = [(u, v) for u in s for v in v_extra]
        u = np.array([p[0] for p in pts])
        v = np.array([p[1] for p in pts])
    else:
        pts = s
        u, v = np.array(s), 0.0
    assert_same_bits(batched(build, [pf, dpf], u, v),
                     per_sample(build, [pf, dpf], pts))
    # the 2-form alone, as the cutoff and weak-filling checks use it
    if pf.coframe.dim % 2 == 0:
        even = lambda w: w.power(pf.coframe.dim // 2)  # noqa: E731
        assert_same_bits(batched(even, [dpf], u, v),
                         per_sample(even, [dpf], pts))


def test_vanishing_coefficient_keeps_the_per_sample_sum_order():
    # at s = 2 pi the coefficient (1 - cos s)/2 is exactly zero; the engine
    # keeps it, so the sample and the single pass over all blades add the
    # terms of (d lambda)^3 in one order (an engine that dropped it at that
    # sample alone would add them in another and round otherwise)
    pf = ff.ParamForm(("du",), (), ALGEBRAS["geiges:3"].algebra, 1, {})
    pf.terms[1 << 3] = ff.ParamCoeff.of(ff.sin_cos()[0] * 2.5)
    pf.terms[1 << 4] = ff.ParamCoeff.of(ff.sin_cos()[0] * 2.5)
    pf.terms[1 << 5] = ff.ParamCoeff.of(
        0.5 * (ff.const(1.0) - ff.sin_cos()[1]) * -0.75)
    dpf = pf.d()
    build = lambda w: w.power(3)  # noqa: E731
    assert_same_bits(batched(build, [dpf], np.array(SPECIAL)),
                     per_sample(build, [dpf], SPECIAL))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(pf=param_forms(),
       extra=st.lists(st.floats(-4.0, 8.0, allow_nan=False), max_size=8))
def test_batched_d_squared_sup_matches_per_sample(pf, extra):
    pts = SPECIAL + extra
    dd = pf.d().d()
    scalar = max((dd.at(s).sup_norm() for s in pts), default=0.0)
    assert bits(d_squared_sup(pf, pts)) == bits(max(0.0, scalar))


# -- the grid operations of the families benchmark workload -------------------------


def _reference_contact(triple, grid_n):
    pf = triple.form
    dpf = pf.d()
    npow = (pf.coframe.dim - 1) // 2
    pts = ff._grid_points(triple.interval, grid_n)
    values = per_sample(lambda a, da: a.wedge(da.power(npow)), [pf, dpf], pts)
    batch = batched(lambda a, da: a.wedge(da.power(npow)), [pf, dpf],
                    np.array(pts))
    assert_same_bits(batch, values)
    min_value, argmin = min(zip(values, pts))
    return min_value, argmin, len(pts)


@pytest.mark.parametrize("pair,k,grid", [
    ("sol:2,1,1,1", 3, 8192), ("totreal:3", 1, 1024), ("geiges:2", 2, 2048),
    ("sol:2,1,1,1", 2, 1024),   # the README example
])
def test_giroux_grid_matches_per_sample(pair, k, grid):
    triple = ff.gt_form(liealg.preset(pair), k)
    chk = ff.contact_grid_check(triple, grid)
    assert (chk.min_value, chk.argmin, chk.samples) == \
        _reference_contact(triple, grid)
    assert type(chk.min_value) is float and type(chk.argmin) is float


@pytest.mark.parametrize("pair,k,tau", [
    ("sol:2,1,1,1", 2, 0.5), ("totreal:2", 1, 0.37),
])
def test_lutz_grid_matches_per_sample(pair, k, tau):
    p = liealg.preset(pair)
    psi = ff.plateau_bump(1.0)
    lam_k = ff.lutz_lambda_k(p, k)
    npow = (lam_k.coframe.dim + 1) // 2
    # the reference rebuilds lambda_{k,tau} the way the check defines it
    scale = ff.ProfileFn(lambda s: 1.0 - tau * psi(s),
                         lambda s: -tau * psi.deriv(s))
    lam_tau = ff.ParamForm(lam_k.params, lam_k.static, lam_k.algebra, 1, {})
    for m, c in lam_k.terms.items():
        lam_tau.terms[m] = ff.ParamCoeff([(scale * f, g) for f, g in c.terms])
    ds = ff.ParamCoeff([(ff.ProfileFn(lambda s: tau * psi(s),
                                      lambda s: tau * psi.deriv(s)),
                         ff.const(1.0))])
    lam_tau.terms[1] = lam_tau.terms[1].plus(ds) if 1 in lam_tau.terms else ds
    build = lambda a, da: a.wedge(da.power(npow - 1))  # noqa: E731
    pts = ff._grid_points((-1.0, 1.0), 512)
    lhs = per_sample(build, [lam_tau, lam_tau.d()], pts)
    base = per_sample(build, [lam_k, lam_k.d()], pts)
    worst = 0.0
    for s, a, b in zip(pts, lhs, base):
        rhs = (1.0 - tau * psi(s)) ** npow * b
        worst = max(worst, abs(a - rhs) / max(1.0, abs(a), abs(rhs)))
    assert bits(ff.lutz_family_check(p, k, tau)) == bits(worst)
    assert_same_bits(batched(build, [lam_tau, lam_tau.d()], np.array(pts)),
                     lhs)


def _reference_cutoff(pair, c, psi, grid_n):
    pf = ff.cutoff_liouville(pair, c, psi)
    dpf = pf.d()
    p = pf.coframe.dim // 2
    pts = np.linspace(-c - 1.0, c + 1.0, grid_n + 1)
    worst = (math.inf, None)
    for s, top in zip(pts, per_sample(lambda w: w.power(p), [dpf], pts)):
        if top < worst[0]:
            worst = (top, float(s))
    return worst


@pytest.mark.parametrize("pair,profile", [
    ("sol:2,1,1,1", "quintic"), ("totreal:2", "cubic"),
])
def test_cutoff_grid_matches_per_sample(pair, profile):
    p = liealg.preset(pair)
    psi = ff.cutoff_step(profile)
    c_star = ff.min_c_search(p, psi, grid_n=256)
    # the search and the refined report read these minima
    for c, grid_n in ((c_star, 256), (c_star - 1e-3, 256), (0.0, 256),
                      (c_star, 1024)):
        assert ff.cutoff_positive_on_grid(p, c, psi, grid_n) == \
            _reference_cutoff(p, c, psi, grid_n)


def test_weak_filling_grid_matches_per_sample():
    eps, grid_n = 0.003, 128
    res = ff.sol_weak_filling_fixture(eps, grid_n)
    preset = liealg.sol_from_sl2([[2, 1], [1, 1]])
    g = preset.algebra
    pf = ff.ParamForm(("ds", "dσ"), ("dθ",), g, 1, {})
    off = pf.offset
    for m, cc in preset.alpha_plus.terms.items():
        pf.terms[m << off] = ff.ParamCoeff([(ff.exp_fn(1.0) * float(cc),
                                             ff.const(1.0))])
    for m, cc in preset.alpha_minus.terms.items():
        add = ff.ParamCoeff([(ff.exp_fn(-1.0) * float(cc), ff.const(1.0))])
        key = m << off
        pf.terms[key] = pf.terms[key].plus(add) if key in pf.terms else add
    pf.terms[1 << 2] = ff.ParamCoeff([(ff.const(1.0), ff.linear(1.0))])
    dbeta = pf.d()
    cf = dbeta.coframe
    names = g.coframe().names
    omega = ff.Form(cf, 2, {
        ff.blade_mask((2, 3 + names.index("T*"))): 1.0,
        ff.blade_mask((3 + names.index("X*"), 3 + names.index("Y*"))): 1.0,
    }, ff.FLOAT64)
    shift = float(eps) * omega
    build = lambda w: (w + shift).power(cf.dim // 2)  # noqa: E731
    pts = [(s, sig) for s in np.linspace(-2.0, 2.0, grid_n)
           for sig in np.linspace(-1.0, 1.0, grid_n)]
    values = per_sample(build, [dbeta], pts)
    u = np.array([p[0] for p in pts])
    v = np.array([p[1] for p in pts])
    assert_same_bits(batched(build, [dbeta], u, v), values)
    assert bits(res.min_top) == bits(min([math.inf] + values))
    assert res.passed


# -- the families workload against the old rule of dropping zero blades -------------


class _DroppingRing(type(ff.FLOAT64)):
    """float64 scalars under the rule the float ring once had: a zero
    coefficient is dropped, which reorders the sums wherever one is zero."""

    def is_zero(self, x):
        return x == 0


DROPPING = _DroppingRing(ff.FLOAT64.kind)


def test_families_workload_grids_match_the_dropping_ring(monkeypatch, capsys):
    # every grid of the families benchmark's commands and fixture, each
    # sample against its own evaluation with zero blades dropped
    grid_tops = ff._grid_tops
    seen = []

    def checked(build, forms, shape):
        got = grid_tops(build, forms, shape)
        n = got.size
        want = [build(*[
            ff.Form(f.coframe, f.degree,
                    {m: float(np.broadcast_to(c, got.shape).flat[i])
                     for m, c in f.terms.items()}, DROPPING)
            for f in forms]).top_coefficient() + 0.0 for i in range(n)]
        assert_same_bits(got.ravel(), want)
        seen.append(n)
        return got

    monkeypatch.setattr(ff, "_grid_tops", checked)
    for argv in (
        "giroux-torsion --pair sol:2,1,1,1 --k 3 --grid 8192",
        "giroux-torsion --pair totreal:3 --k 1 --grid 1024",
        "giroux-torsion --pair geiges:2 --k 2 --grid 2048",
        "lutz-check --pair sol:2,1,1,1 --k 2 --tau 0.61",
        "lutz-check --pair totreal:2 --k 1 --tau 0.23",
        "cutoff --pair sol:2,1,1,1 --profile quintic",
        "cutoff --pair totreal:2 --profile cubic",
    ):
        assert cli.run(argv.split() + ["--json"]) == 0
    capsys.readouterr()
    assert ff.sol_weak_filling_fixture(0.0042, 128).passed
    # 3 torsion grids, 2 per Lutz check, 2 per cutoff search (the batch
    # of its 18 probes and the refined check), the fixture
    assert len(seen) == 12 and seen[-1] == 128 * 128
    assert seen.count(18 * 257) == 2
