"""The float grid evaluator: the profile-node memo of `_libm_scope`, the
single pass of `_grid_tops` over forms that keep their zero coefficients
and the array grid of `_grid_points`.

Each is checked against a per-sample or set-based reference, bit for bit.
"""

import math
import types
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liouville_lab import formfam as ff
from liouville_lab import liealg
from liouville_lab.exterior import FLOAT64, Coframe, Form

SAMPLES = [0.0, -0.0, 1 / 3, 0.5, 2 / 3, 1.0, -1.0, math.pi / 2, math.pi,
           -math.pi, 2 * math.pi, 2.75, -3.5]


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


# -- the per-call memo -------------------------------------------------------------


def _shared_leaf(draw):
    """A library leaf, used again below through products and affine maps."""
    a = draw(st.sampled_from([1.0, -1.0, 0.5, 2.0]))
    b = draw(st.sampled_from([0.0, 0.25]))
    return draw(st.sampled_from([
        ff.exp_fn(a / 2, b), ff.sin_cos(a, b)[0], ff.sin_cos(a, b)[1],
        0.5 * (ff.sin_cos()[1] + 1.0),
        ff.smoothstep5().precompose_affine(a, b),
        ff.plateau_bump(1.0, "quintic"), ff.lutz_twist_profile(1, 1.0),
    ]))


def _use(draw, leaf):
    """leaf again: scaled, precomposed (the identity map among others),
    squared or multiplied by another library profile."""
    kind = draw(st.sampled_from(["scaled", "affine", "square", "product"]))
    c = draw(st.sampled_from([1.0, -0.75, 2.5]))
    if kind == "scaled":
        return leaf * c
    if kind == "affine":
        a = draw(st.sampled_from([1.0, -1.0, 0.5]))
        b = draw(st.sampled_from([0.0, 0.5]))
        return leaf.precompose_affine(a, b) * c
    if kind == "square":
        return leaf * leaf * c
    return leaf * _shared_leaf(draw) + c


@st.composite
def shared_leaf_forms(draw):
    g = liealg.preset(draw(st.sampled_from(
        ["totreal:1", "sol:2,1,1,1", "geiges:2"]))).algebra
    nparams = draw(st.sampled_from([1, 2]))
    pf = ff.ParamForm(("du", "dv")[:nparams], (), g, 1, {})
    leaf = _shared_leaf(draw)
    for i in range(pf.coframe.dim):
        terms = [(_use(draw, leaf),
                  _use(draw, leaf) if nparams == 2 else ff.const(1.0))
                 for _ in range(draw(st.integers(1, 3)))]
        pf.terms[1 << i] = ff.ParamCoeff(terms)
    return pf


def assert_at_matches_per_sample(pf, u, v):
    """Each coefficient of pf.at(u, v) against its scalar call per sample."""
    form = pf.at(u, v)
    pts = list(zip(u.tolist(), np.broadcast_to(v, u.shape).tolist()))
    for m, coeff in pf.terms.items():
        scalar = [coeff(x, y) for x, y in pts]
        if m in form.terms:
            np.testing.assert_array_equal(bits(form.terms[m]), bits(scalar))
        else:
            assert not any(scalar)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(pf=shared_leaf_forms(),
       extra=st.lists(st.floats(-4.0, 8.0, allow_nan=False), max_size=8),
       v=st.sampled_from([0.0, -0.3, 1.0, math.pi]))
def test_shared_leaf_forms_match_scalar_evaluation(pf, extra, v):
    u = np.array(SAMPLES + extra)
    vs = np.resize(np.array([v, 0.5, -1.0]), u.shape)
    assert_at_matches_per_sample(pf, u, vs if pf.nparams == 2 else 0.0)
    assert_at_matches_per_sample(pf.d(), u, vs if pf.nparams == 2 else 0.0)


def counting_math(monkeypatch):
    """Patch formfam's math so each sin, cos and exp call is counted."""
    calls = {}

    def counted(name):
        real = getattr(math, name)

        def fn(x):
            calls[name] = calls.get(name, 0) + 1
            return real(x)
        return fn

    monkeypatch.setattr(ff, "math", types.SimpleNamespace(
        **{**vars(math), **{n: counted(n) for n in ("sin", "cos", "exp")}}))
    return calls


def test_each_leaf_is_computed_once_per_at_call(monkeypatch):
    calls = counting_math(monkeypatch)
    pf = ff.ParamForm(("ds",), (), liealg.preset("sol:2,1,1,1").algebra,
                      1, {})
    e = ff.exp_fn(1.0)
    for i in (1, 2, 3):
        pf.terms[1 << i] = ff.ParamCoeff.of(e * float(i))
    s = np.linspace(-1.0, 1.0, 7)
    # the three blades share e, and its derivative reads e's node
    for form in (pf, pf.d()):
        calls.clear()
        form.at(s)
        assert calls == {"exp": s.size}
    # outside a call there is no memo: each evaluation runs again
    calls.clear()
    e(s)
    e(s)
    assert calls == {"exp": 2 * s.size}


def test_memo_arrays_are_read_only_and_the_scope_closes():
    x = np.linspace(0.0, 1.0, 5)
    assert ff._libm_memo.get() is None
    fresh = ff._libm(math.sin, x)
    assert fresh is not ff._libm(math.sin, x) and fresh.flags.writeable
    # `_libm` keeps no table, inside a scope either
    with ff._libm_scope():
        first = ff._libm(math.sin, x)
        again = ff._libm(math.sin, x)
        assert again is not first
        assert first.flags.writeable and again.flags.writeable

    pf = ff.ParamForm(("ds",), (), liealg.preset("totreal:1").algebra, 1, {})
    pf.terms[2] = ff.ParamCoeff.of(ff.exp_fn(1.0))
    pf.at(x)
    assert ff._libm_memo.get() is None
    pf.terms[4] = ff.ParamCoeff.of(ff.ProfileFn(lambda s: 1 / 0,
                                                lambda s: 0.0))
    with pytest.raises(ZeroDivisionError):
        pf.at(x)
    assert ff._libm_memo.get() is None

    # profile nodes: the same array gives the same read-only result
    shared = ff.exp_fn(1.0) * 2.0
    ident = ff.ProfileFn(lambda s: s, lambda s: 1.0)
    with ff._libm_scope():
        first = shared(x)
        assert shared(x) is first and not first.flags.writeable
        # keyed on identity: equal bytes in another array run again
        other = shared(x.copy())
        assert other is not first
        np.testing.assert_array_equal(bits(other), bits(first))
        # a result that is the argument is a read-only view of it
        view = ident(x)
        assert ident(x) is view and view is not x
        assert np.shares_memory(view, x) and not view.flags.writeable
        assert x.flags.writeable
        # a scalar runs as it is
        assert shared(0.0) == 2.0
    assert shared(x) is not shared(x)

    # the table holds each sample array only while the scope is open, also
    # when a profile raises
    pf = ff.ParamForm(("ds",), (), liealg.preset("sol:2,1,1,1").algebra,
                      1, {})
    pf.terms[2] = ff.ParamCoeff.of(shared)
    pf.terms[4] = ff.ParamCoeff.of(shared * 3.0)
    y = np.linspace(0.0, 1.0, 5)
    alive = weakref.ref(y)
    pf.at(y)
    assert y.flags.writeable
    del y
    assert alive() is None
    pf.terms[8] = ff.ParamCoeff.of(ff.ProfileFn(lambda s: 1 / 0,
                                                lambda s: 0.0))
    y = np.linspace(0.0, 1.0, 5)
    alive = weakref.ref(y)
    try:
        pf.at(y)
    except ZeroDivisionError:
        pass
    assert ff._libm_memo.get() is None
    del y
    assert alive() is None


def test_one_cutoff_at_steps_each_profile_once(counted_calls):
    # psi and psi' at c + s and at c - s: one `_unit_step` each, where each
    # blade's wrapper evaluated them again (16 calls)
    form = ff.cutoff_liouville(liealg.preset("sol:2,1,1,1"), 1.5,
                               ff.cutoff_step("quintic")).d()
    calls = {}
    counted_calls(ff, "_unit_step", calls)
    form.at(np.linspace(-2.5, 2.5, 257))
    assert calls == {"_unit_step": 4}


def test_one_check_runs_each_shared_profile_once(monkeypatch):
    # lambda and d lambda are evaluated in one scope, so each profile they
    # share runs once per sample
    sol = liealg.preset("sol:2,1,1,1")
    triple = ff.gt_form(sol, 1)
    calls = counting_math(monkeypatch)
    check = ff.contact_grid_check(triple, 1024)
    assert check.samples == 1025
    assert calls == {"cos": 1025, "sin": 1025}
    # the Lutz check: one grid of 513 samples for both forms and psi, plus
    # the 257-sample validation of f and g that `ProfileTriple` runs
    calls.clear()
    ff.lutz_family_check(sol, 2, 0.5, grid_n=512)
    assert calls == {"cos": 513 + 257, "sin": 513}


def test_validation_and_library_checks_run_each_shared_profile_once(
        monkeypatch):
    # f and g of the torsion family read one cosine, and so do the
    # validation of `ProfileTriple` and `gt_reparam_check`; the linear model
    # shares exp(s) and exp(-s) between a, b and the form
    sol = liealg.preset("sol:2,1,1,1")
    calls = counting_math(monkeypatch)
    ff.gt_form(sol, 1)
    assert calls == {"cos": 257}
    calls.clear()
    ff.gt_reparam_check(sol, 512)
    assert calls == {"cos": 257 + 511, "sin": 511}
    p = liealg.totally_real(2)
    calls.clear()
    ff.linear_model_pair_check(p.algebra, p.alpha_plus, -0.5, 0.75,
                               grid_n=12)
    assert calls == {"exp": 5 * 144}


def test_library_grid_checks_keep_their_bits():
    # bits of the grid checks that no CLI report covers
    assert ff.sol_weak_filling_fixture(0.005, 128).min_top.hex() \
        == "0x1.8030c34e3a030p+4"
    p = liealg.totally_real(2)
    res = ff.linear_model_pair_check(p.algebra, p.alpha_plus, -0.5, 0.75,
                                     grid_n=12)
    assert res.min_top.hex() == "0x1.4ea36fe2f456cp+3"
    assert res.factor_error.hex() == "0x1.7ed94c914fbf9p-51"
    assert ff.gt_reparam_check(liealg.preset("sol:2,1,1,1"), 512).hex() \
        == "0x1.d828000000000p-40"


@st.composite
def family_forms(draw):
    """A cutoff (quintic or cubic), Lutz or torsion form of a preset pair,
    or its d."""
    pair = liealg.preset(draw(st.sampled_from(
        ["sol:2,1,1,1", "totreal:2", "geiges:2"])))
    family = draw(st.sampled_from(["cutoff", "lutz", "torsion"]))
    kind = draw(st.sampled_from(["quintic", "cubic"]))
    if family == "cutoff":
        c = draw(st.floats(0.0, 3.0))
        pf = ff.cutoff_liouville(pair, c, ff.cutoff_step(kind))
    elif family == "lutz":
        pf = ff.lutz_lambda_k(pair, draw(st.integers(1, 3)), kind)
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pf = ff.gt_form(pair, draw(st.integers(1, 3))).form
    return pf.d() if draw(st.booleans()) else pf


@settings(derandomize=True, max_examples=60, deadline=None)
@given(pf=family_forms(),
       grid=st.lists(st.floats(-7.0, 7.0, allow_nan=False), min_size=1,
                     max_size=40),
       v=st.floats(-7.0, 7.0, allow_nan=False))
def test_family_coefficients_keep_their_bits_in_the_scope(pf, grid, v):
    # every coefficient of one `at` call against its evaluation outside any
    # scope, where no node and no leaf is shared
    u = np.array(grid)
    vs = np.full(u.shape, v)
    form = pf.at(u, vs)
    assert ff._libm_memo.get() is None
    for m, coeff in pf.terms.items():
        want = np.broadcast_to(coeff(u, vs), u.shape)
        if m in form.terms:
            np.testing.assert_array_equal(bits(form.terms[m]), bits(want))
        else:
            assert not coeff.terms


# -- scattered zeros over many coefficient columns ----------------------------------


def test_grid_tops_keep_scalar_bits_over_scattered_zeros():
    # 81 coefficient columns, each sample zeroed on one of six patterns
    # (patterns 0 and 1 differ only in column 70, pattern 5 zeroes none):
    # every sample keeps the bits of its own scalar evaluation
    cf = Coframe(tuple(f"e{i}" for i in range(9)))
    rng = np.random.default_rng(15)
    n = 48
    one = [1 << i for i in range(9)]
    two = [1 << i | 1 << j for i in range(9) for j in range(i + 1, 9)]
    ncols = len(one) + 2 * len(two)
    pool = rng.random((6, ncols)) < 0.3
    pool[1] = pool[0]
    pool[1, 70] = not pool[0, 70]
    pool[5] = False
    pattern = rng.integers(0, len(pool), n)
    pattern[:3] = (0, 1, 5)   # pattern 5 keeps every column nonzero
    vals = rng.normal(size=(n, ncols))
    vals[pool[pattern]] = 0.0
    blades = [one, two, two]
    cols = np.split(np.arange(ncols), np.cumsum([len(b) for b in blades])[:-1])
    forms = [Form(cf, deg, {m: vals[:, c] for m, c in zip(b, idx)}, FLOAT64)
             for deg, b, idx in zip((1, 2, 2), blades, cols)]

    def build(a, w, z):
        return a.wedge(w.power(2)).wedge(z.power(2))

    got = ff._grid_tops(build, forms, n)
    want = [build(*[Form(f.coframe, f.degree,
                         {m: float(c[i]) for m, c in f.terms.items()},
                         FLOAT64) for f in forms]).top_coefficient() + 0.0
            for i in range(n)]
    assert sum(len(f.terms) for f in forms) == ncols
    np.testing.assert_array_equal(bits(got), bits(want))


# -- the grid points --------------------------------------------------------------


def set_grid_points(interval, grid_n):
    """The set-based builder the array grid replaced."""
    s0, s1 = interval
    pts = {s0 + (s1 - s0) * i / max(grid_n, 1) for i in range(grid_n + 1)}
    pts.add(s0)
    pts.add(s1)
    j = math.ceil(s0 / (math.pi / 2))
    while j * math.pi / 2 <= s1 + 1e-12:
        pts.add(j * math.pi / 2)
        j += 1
    return sorted(pts)


@pytest.mark.parametrize("interval,grid_n", [
    ((0.0, 2 * math.pi), 1024), ((0.0, 6 * math.pi), 8192),
    ((0.0, 4 * math.pi), 2048), ((-1.0, 1.0), 512), ((-1.0, 1.0), 256),
    ((-0.3, 0.3), 7), ((0.0, 2 * math.pi), 0), ((0.0, 2 * math.pi), 1),
    ((-0.0, 3.0), 5), ((-2.0, -0.0), 4), ((-math.pi, math.pi), 3),
    ((1.0, 1.0), 4), ((-1e-3, 1e-3), 100),
])
def test_grid_points_match_set_builder(interval, grid_n):
    got = ff._grid_points(interval, grid_n)
    want = set_grid_points(interval, grid_n)
    assert got.dtype == np.float64
    np.testing.assert_array_equal(bits(got), bits(want))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(a=st.floats(-20.0, 20.0), width=st.floats(0.0, 40.0),
       grid_n=st.integers(0, 3000))
def test_grid_points_match_set_builder_on_random_intervals(a, width, grid_n):
    interval = (a, a + width)
    np.testing.assert_array_equal(
        bits(ff._grid_points(interval, grid_n)),
        bits(set_grid_points(interval, grid_n)))
