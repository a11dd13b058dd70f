"""Acceptance criteria, one test per criterion, with stated tolerances.

Each test prints a single PASS line on success (pytest -s shows them); the
assertions pin the tolerances and runtime caps directly.
"""

import math
import time

import numpy as np

from liouville_lab import formfam as ff
from liouville_lab import liealg, numfield, symplin
from liouville_lab.exterior import Form


def _report(num, text):
    print(f"ACCEPTANCE {num:2d}: PASS — {text}")


def test_criterion_01_sqrt2_pipeline():
    t0 = time.perf_counter()
    field = numfield.field_from_poly([-2, 0, 1])
    grp = numfield.find_units(field, 40)
    pos = numfield.positive_units(grp, field)
    lat = numfield.gamma_lattice(field, pos, grp)
    elapsed = time.perf_counter() - t0
    assert pos[0].coords == (3, 2)
    assert lat.monodromy == [[[3, 4], [2, 3]]]
    vec = lat.gamma_basis[0]
    assert abs(vec[0] - math.log(3 + 2 * math.sqrt(2))) <= 1e-10
    assert abs(vec[1] - math.log(3 - 2 * math.sqrt(2))) <= 1e-10
    assert elapsed < 1.0
    _report(1, f"Q[sqrt2] pipeline: unit 3+2X, monodromy [[3,4],[2,3]], "
               f"gamma generator to 1e-10 ({elapsed:.3f} s)")


def test_criterion_02_gauss_pipeline():
    t0 = time.perf_counter()
    field = numfield.field_from_poly([1, 0, 1])
    grp = numfield.find_units(field, 1)
    pos = numfield.positive_units(grp, field)
    lat = numfield.gamma_lattice(field, pos, grp)
    elapsed = time.perf_counter() - t0
    assert grp.rank == 0
    assert sorted(u.coords for u in grp.torsion) == [
        (-1, 0), (0, -1), (0, 1), (1, 0)
    ]
    assert abs(lat.gamma_basis[0][0] - complex(0.0, math.pi / 2)) <= 1e-10
    assert lat.monodromy == [[[0, -1], [1, 0]]]
    assert elapsed < 1.0
    _report(2, f"Q[i] pipeline: torsion units, gamma = i pi/2, quarter-turn "
               f"monodromy ({elapsed:.3f} s)")


def test_criterion_03_exact_pair_certificates():
    t0 = time.perf_counter()
    for degree in (2, 3, 4):  # base dimension n = degree - 1: dims 3, 5, 7
        preset = liealg.totally_real(degree)
        cert = liealg.liouville_pair_check(
            preset.algebra, preset.alpha_plus, preset.alpha_minus)
        assert cert.kind == "exact-sturm"
        assert cert.verdict == "positive"
        plus = liealg.contact_check(preset.algebra, preset.alpha_plus)
        minus = liealg.contact_check(preset.algebra, preset.alpha_minus)
        assert plus.verdict == "positive"
        assert minus.verdict == "negative"
    # the direct grid of d(e^s a+ + e^-s a-)^n over s in [-10, 10] agrees
    # with the exact pair certificate
    grid_presets = ("totreal:2", "totreal:3", "sol:2,1,1,1", "geiges:2")
    for key in grid_presets:
        preset = liealg.preset(key)
        cert = liealg.liouville_pair_check(
            preset.algebra, preset.alpha_plus, preset.alpha_minus)
        min_top, _ = ff.beta_grid_check(preset)
        assert cert.verdict == "positive" and min_top > 0, key
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(3, f"exact Sturm pair certificates in dims 3, 5, 7; the grid "
               f"verdict agrees on {', '.join(grid_presets)} "
               f"({elapsed:.3f} s)")


GT_CASES = [
    ("totreal:1", k) for k in (1, 2, 3)
] + [
    ("sol:2,1,1,1", k) for k in (1, 2, 3)
]

_GT_CACHE = {}


def _gt_check(pair_key, k):
    if (pair_key, k) not in _GT_CACHE:
        preset = liealg.preset(pair_key)
        triple = ff.gt_form(preset, k)
        _GT_CACHE[(pair_key, k)] = (
            triple, ff.contact_grid_check(triple, 1024)
        )
    return _GT_CACHE[(pair_key, k)]


def test_criterion_04_giroux_torsion_grids():
    t0 = time.perf_counter()
    for pair_key, k in GT_CASES:
        _, chk = _gt_check(pair_key, k)
        assert chk.passed, f"{pair_key} k={k}"
        assert chk.min_value > 0
        assert chk.samples >= 1024
    # u = ln((1 + cos s) / sin s) turns sin s [dt + (e^u a+ + e^-u a-)/2]
    # into the k = 1 family
    worst = max(ff.gt_reparam_check(liealg.preset(pair_key), 512)
                for pair_key in ("totreal:1", "sol:2,1,1,1"))
    assert worst <= 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(4, f"torsion family positive on 1024-point grids for "
               f"k in 1..3 over both pairs, and the reparametrized form to "
               f"1e-10 at grid 512 (worst {worst:.1e}) ({elapsed:.3f} s)")


def test_criterion_05_reeb_residuals_on_grids():
    for pair_key, k in GT_CASES:
        triple, _ = _gt_check(pair_key, k)
        pts = ff._grid_points(triple.interval, 1024)
        for s in pts:
            res = ff.reeb_field(triple, s, tol=1e-8)
            assert res.residual_pairing <= 1e-8
            assert res.residual_closure <= 1e-8
    # closed form on the three-torus: R = cos s dtheta + sin s dt
    triple, _ = _gt_check("totreal:1", 1)
    for s in np.linspace(0, 2 * math.pi, 257):
        res = ff.reeb_field(triple, float(s))
        assert abs(res.X.coords[0] - math.cos(s)) <= 1e-10
        assert abs(res.u - math.sin(s)) <= 1e-10
    _report(5, "Reeb residuals <= 1e-8 at every criterion-4 grid point; "
               "T^3 closed form to 1e-10")


def test_criterion_06_appendix_equivalence_suite():
    t0 = time.perf_counter()
    rep = symplin.appendix_equivalence_suite(1000, dims=(4, 6, 8, 10), seed=0)
    elapsed = time.perf_counter() - t0
    assert rep.trials == 4000
    assert rep.mismatches == 0
    assert elapsed < 60.0
    _report(6, f"sign law, construction and refusal over 4000 random "
               f"pencils, zero mismatches, ill-conditioned reported: "
               f"{rep.detail['ill_conditioned_reported']} ({elapsed:.1f} s)")


def test_criterion_07_cayley_and_convexity():
    rep = symplin.cayley_roundtrip_suite(500, seed=0)
    assert rep.mismatches == 0
    assert rep.worst_margin <= 1e-10
    rep2 = symplin.interpolation_suite(167, seed=0, ts=(0.25, 0.5, 0.75))
    assert rep2.trials >= 500
    assert rep2.mismatches == 0
    _report(7, f"Cayley round trip worst error {rep.worst_margin:.2e} over "
               f"500 samples; taming preserved in {rep2.trials} "
               f"interpolations")


def test_criterion_08_pencil_reduction_fixtures():
    eps = 1e-3
    rng = np.random.default_rng(2024)
    fixtures = [
        [symplin.RealBlock(2.0, 1)],
        [symplin.RealBlock(1.5, 2)],                      # real chain k = 1
        [symplin.ComplexBlock(1.0, 2.0, 1)],              # complex block
        [symplin.RealBlock(3.0, 2), symplin.ComplexBlock(-1.0, 1.5, 1)],
        [symplin.RealBlock(0.5, 1), symplin.RealBlock(4.0, 1),
         symplin.ComplexBlock(0.25, -0.75, 1)],           # dim 8 mixed
    ]
    for blocks in fixtures:
        a0m, a1m = symplin._model_matrices(blocks, eps)
        n = a0m.shape[0]
        p0 = rng.standard_normal((n, n))
        while abs(np.linalg.det(p0)) < 0.2:
            p0 = rng.standard_normal((n, n))
        a0 = symplin.SkewForm(p0.T @ a0m @ p0)
        a1 = symplin.SkewForm(p0.T @ a1m @ p0)
        red = symplin.simultaneous_reduce(a0, a1, eps)
        assert red.omega0_residual <= 1e-9
        assert red.omega1_residual <= 10 * eps
        want = sorted(
            (round(b.mu, 6), round(abs(b.nu), 6), b.chain_length)
            if isinstance(b, symplin.ComplexBlock)
            else (round(float(b.eigenvalue), 6), 0.0, b.chain_length)
            for b in blocks
        )
        got = sorted(
            (round(b.mu, 6), round(abs(b.nu), 6), b.chain_length)
            if isinstance(b, symplin.ComplexBlock)
            else (round(float(b.eigenvalue), 6), 0.0, b.chain_length)
            for b in red.blocks
        )
        for w, g in zip(want, got):
            assert abs(w[0] - g[0]) <= 1e-6
            assert abs(w[1] - g[1]) <= 1e-6
            assert w[2] == g[2]
    _report(8, "construct-then-recover pencils (chains, complex, mixed, "
               "dims <= 8): parameters to 1e-6, residual <= 10 eps")


def test_criterion_09_remark_fixture():
    a0, a1 = symplin.remark_pair()
    assert a0.to_form().wedge(a1.to_form()).top_coefficient() == 0
    j = symplin.construct_cotamed(a0, a1)
    assert symplin.tames(a0, j) and symplin.tames(a1, j)
    rep = symplin.cocompatible_counterexample_suite(10 ** 4, seed=0)
    assert rep.mismatches == 0
    _report(9, f"remark pair: w0^w1 = 0 exactly, cotamed J built, "
               f"10^4 compatible structures all fail w1-taming "
               f"(worst margin {rep.worst_margin:.3f})")


def test_criterion_10_geiges():
    for n in (2, 3):   # dims 3 and 5
        p = liealg.geiges(n)
        assert liealg.geiges_pair_check(p.algebra, p.alpha_plus,
                                        p.alpha_minus)
    for n in range(1, 6):
        iso = liealg.geiges_isomorphism(n)
        assert iso.residual <= 1e-10
        assert all(t == 0 for t in iso.traces)
    _report(10, "Geiges pairs exact in dims 3 and 5; normal-form residual "
                "<= 1e-10 and exact trace vanishing for n <= 5")


def test_criterion_11_lutz_and_xi_identities():
    sol = liealg.sol_from_sl2([[2, 1], [1, 1]])
    worst = 0.0
    for k in (1, 2, 3):
        for tau in (0.0, 0.25, 0.5, 0.75):
            err = ff.lutz_family_check(sol, k, tau, grid_n=512)
            worst = max(worst, err)
            assert err <= 1e-8
    rng = np.random.default_rng(5)
    worst_xi = 0.0
    for _ in range(100):
        c_plus, c_minus = rng.uniform(0, 3, size=2)
        if c_plus == 0 and c_minus == 0:
            c_plus = 1.0
        res = ff.xi_nondegenerate(sol, float(c_plus), float(c_minus),
                                  float(rng.uniform(0.05, 4)),
                                  float(rng.uniform(-3, 3)))
        worst_xi = max(worst_xi, res.identity_error)
        assert res.identity_error <= 1e-9
        assert res.nonzero
    _report(11, f"twist interpolation identity <= 1e-8 (worst {worst:.1e}); "
                f"cone volume identity <= 1e-9 over 100 draws "
                f"(worst {worst_xi:.1e})")


def test_criterion_12_weak_filling_and_cutoff():
    for eps in (1e-3, 1e-2):
        res = ff.sol_weak_filling_fixture(eps, grid_n=128)
        assert res.wedge_plus_zero and res.wedge_minus_zero
        assert res.passed
    # the generalized weak filling of dimension 5: alpha ^ (Omega + tau
    # dalpha)^2 > 0 for every tau >= 0, decided exactly
    for eps in ("1/100", "1/1000"):
        cert = ff.sol_weak_filling_ray_fixture(eps)
        assert cert.kind == "exact-sturm"
        assert cert.symplectic_ok and cert.ray_ok
        assert cert.verdict == "positive"
    sol = liealg.sol_from_sl2([[2, 1], [1, 1]])
    psi = ff.cutoff_step("quintic")
    c_star = ff.min_c_search(sol, psi, grid_n=256)
    assert c_star < 64.0
    refined = ff.cutoff_positive_on_grid(sol, c_star, psi, 4 * 256)
    assert refined[0] > 0
    _report(12, f"suspension weak-filling fixture passes for eps in "
                f"{{1e-3, 1e-2}} with exact wedge vanishing; exact-sturm "
                f"weak domination on the whole ray for eps in "
                f"{{1/100, 1/1000}}; cutoff c* = {c_star:.4f} survives the "
                f"refined grid")


def test_criterion_13_linear_product_model():
    # B = a(s) e^(nu t) alpha + b(s) e^(mu t) dtheta over (ds, dtheta, dt)
    # x g, with a = e^s + e^-s and b = e^s - e^-s, for a positive contact
    # form alpha on g and nu > mu
    line = liealg.LieAlgebra(("Θ*",), {})
    tr2 = liealg.totally_real(2)
    cases = [
        (line, Form.covector(line.coframe(), 0), -1.0, 1.0, 24),
        (tr2.algebra, tr2.alpha_plus, -0.5, 0.75, 12),
    ]
    worst = 0.0
    for g, alpha, mu, nu, grid_n in cases:
        res = ff.linear_model_pair_check(g, alpha, mu, nu, grid_n=grid_n)
        assert res.passed
        assert res.min_top > 0
        assert res.factor_error <= 1e-8
        worst = max(worst, res.factor_error)
    _report(13, f"linear product model: dB^(q+2) > 0 and equal to its "
                f"closed-form factor to 1e-8 (worst {worst:.1e}) over "
                f"contact bases of dims 1 and 3")
