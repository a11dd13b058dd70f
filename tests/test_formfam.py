import math
import random

import numpy as np
import pytest

from liouville_lab import formfam as ff
from liouville_lab import liealg
from liouville_lab.exterior import FLOAT64, Form, blade_mask, mask_blade


S1 = liealg.totally_real(1)
SOL = liealg.sol_from_sl2([[2, 1], [1, 1]])
TR3 = liealg.totally_real(3)


# -- derivative reference ------------------------------------------------------
#
# A profile is a function and its analytic derivative, and nothing checks one
# against the other when a profile is built: every profile comes from the
# formfam library, none from input, so the tests check them here, on seeded
# sample points.

FD_STEP = 1e-5  # the central-difference step at rate 1
FD_TOL = 1e-6   # relative to max(1, sup |p'|) over the samples


def fd_check(p, s, kinks=()):
    """Assert that p.deriv matches a central difference of p at the samples s.

    Samples within 1e-3 of a kink (a point where the profile or its
    derivative is not smooth) are skipped.  The step is FD_STEP over the
    profile's rate, sup |p'| / max(1, sup |p|) on the samples, so a steep
    profile such as sin(300 s) gets a step its truncation error allows;
    that error then scales with sup |p'|, and so does the tolerance.  The
    message names the first failing sample in the order of s.
    """
    s = np.asarray(s, dtype=float)
    for k in kinks:
        s = s[np.abs(s - k) >= 1e-3]

    def values(fn, x):
        return np.broadcast_to(np.asarray(fn(x), dtype=float), x.shape)

    dv = values(p.deriv, s)
    rate = max(1.0, np.abs(dv).max() / max(1.0, np.abs(values(p, s)).max()))
    h = FD_STEP / rate
    fd = (values(p, s + h) - values(p, s - h)) / (2 * h)
    bad = np.flatnonzero(np.abs(fd - dv) > FD_TOL * max(1.0, np.abs(dv).max()))
    if bad.size:
        i = bad[0]
        raise AssertionError(
            f"derivative of {p.label} fails the FD check at s={float(s[i])}:"
            f" analytic {float(dv[i])} vs central difference {float(fd[i])}")


def samples(lo, hi, n=64, seed=1234):
    return np.random.default_rng(seed).uniform(lo, hi, n)


def test_profile_fd_validation_catches_wrong_derivative():
    with pytest.raises(AssertionError, match="fails the FD check"):
        fd_check(ff.ProfileFn(np.sin, np.sin, "bad"), samples(-3.0, 3.0))
    fd_check(ff.ProfileFn(np.sin, np.cos, "good"), samples(-3.0, 3.0))


def test_caller_profile_reports_its_first_failing_point():
    # a wrong factor inside (0, 1) of a piecewise profile; the message names
    # the first failing sample in the order given
    bad = ff.ProfileFn(lambda s: ff._unit_step(s, lambda x: x * x, 1.0),
                       lambda s: ff._unit_step(s, lambda x: 2.1 * x, 0.0),
                       "bad")
    with pytest.raises(AssertionError,
                       match=r"^derivative of bad fails the FD check at "
                             r"s=0\.25: analytic 0\.525 vs central "
                             r"difference 0\.5\d*$"):
        fd_check(bad, np.array([-0.5, 1.5, 0.25, 0.75]))


def test_profile_check_skips_knots():
    # a kink at a sample point fails the check unless it is listed
    s = samples(-3.0, 3.0)
    k = float(s[0])
    ramp = ff.ProfileFn(lambda s: np.maximum(s - k, 0.0),
                        lambda s: np.where(s > k, 1.0, 0.0), "ramp")
    with pytest.raises(AssertionError, match=f"at s={k}:"):
        fd_check(ramp, s)
    fd_check(ramp, s, kinks=(k,))


def test_steep_constructors_build_with_closed_form_derivatives():
    s = samples(-3.0, 3.0) / 300.0
    f, g = ff.sin_fn(300.0), ff.exp_fn(250.0)
    for x in s.tolist():
        assert f(x) == math.sin(300.0 * x + 0.0)
        assert f.deriv(x) == 300.0 * math.cos(300.0 * x + 0.0)
        assert g(x) == math.exp(250.0 * x + 0.0)
        assert g.deriv(x) == 250.0 * math.exp(250.0 * x + 0.0)
    fd_check(f, s)
    fd_check(g, s)


RATES = (-250.0, -3.0, -1.0, -0.5, -0.0, 0.0, 0.75, 1.5, 300.0)
SHIFTS = (-1.0, 0.0, 0.25)


def library_profiles():
    """(profile, samples, kinks) over a sweep of the library's parameters,
    with sums, products, negation and affine precomposition among them."""
    out = []
    for i, (a, b) in enumerate((a, b) for a in RATES for b in SHIFTS):
        s = samples(-3.0, 3.0, seed=i) / max(1.0, abs(a))
        for ctor in (ff.linear, ff.exp_fn, ff.sin_fn, ff.cos_fn):
            out.append((ctor(a, b), s, ()))
        out.append((ff.sin_fn(a, b) * ff.exp_fn(-b, a / 4)
                    - ff.cos_fn(a, b) * ff.linear(b, 1.0), s, ()))
    s = samples(-1.0, 2.0, 256)
    for kind in ("quintic", "cubic"):
        step = ff.cutoff_step(kind)
        out.append((step, s, (0.0, 1.0)))
        out.append((step * ff.exp_fn(1.0) + 2.0, s, (0.0, 1.0)))
        for a, b in ((3.0, -1.0), (-1.0, 0.5), (0.5, 0.25)):
            kinks = ((0.0 - b) / a, (1.0 - b) / a)
            out.append((step.precompose_affine(a, b), samples(-3.0, 3.0),
                        kinks))
        for eps in (0.5, 1.0, 2.0):
            out.append((ff.plateau_bump(eps, kind), samples(-0.5, 2.5, 256),
                        (0.0, eps / 3, 2 * eps / 3, eps)))
            for k in (1, 2, 3):
                out.append((ff.lutz_twist_profile(k, eps, kind),
                            samples(-eps, eps, 256), (eps / 3, 2 * eps / 3)))
    out.append((-ff.const(2.5) + ff.linear(2.0), s, ()))
    return out


def test_library_constructors_pass_the_fd_reference():
    for p, s, kinks in library_profiles():
        fd_check(p, s, kinks)


def test_derivative_profile_has_no_second_derivative():
    f = ff.sin_fn(2.0)
    fp = f.derivative()
    assert fp(0.3) == f.deriv(0.3)
    for p in (fp, 3.0 * fp, fp * ff.exp_fn(1.0)):
        with pytest.raises(NotImplementedError,
                           match=r"sin\(2\.0s\+0\.0\)' is a derivative "
                                 r"profile; its derivative is not taken"):
            p.deriv(0.3)


def cli_forms(key):
    """(ParamForm, sample interval, kinks) of each form the family commands
    build for a pair: the torsion family (giroux-torsion, reeb), lambda_k
    (lutz-check) and the cutoff form for both profiles (cutoff)."""
    p = liealg.preset(key)
    out = [(ff.gt_form(p, k).to_param_form(), (0.0, 2 * math.pi * k), ())
           for k in (1, 2)]
    for kind in ("quintic", "cubic"):
        for k in (1, 2):
            out.append((ff.lutz_lambda_k(p, k, kind), (-1.0, 1.0),
                        (1 / 3, 2 / 3)))
        for c in (0.0, 0.75, 2.5):
            out.append((ff.cutoff_liouville(p, c, ff.cutoff_step(kind)),
                        (-c - 1.0, c + 1.0), (-c, 1.0 - c, c, c - 1.0)))
    return out


@pytest.mark.parametrize("key", ["sol:2,1,1,1", "totreal:2", "geiges:2"])
def test_cli_family_factors_pass_the_fd_reference(key):
    # a factor of pf.d() made by derivative() has no derivative of its own
    # (its values are those of the checked analytic derivative); every
    # other factor is checked
    forms, checked = cli_forms(key), 0
    for pf, (lo, hi), kinks in forms:
        s = samples(lo, hi, 128)
        for form in (pf, pf.d()):
            for coeff in form.terms.values():
                for p in (q for pair in coeff.terms for q in pair):
                    try:
                        fd_check(p, s, kinks)
                    except NotImplementedError:
                        assert form is not pf
                        continue
                    checked += 1
    assert checked >= 4 * len(forms)
    # the plateau bump of lutz-check, outside any form
    for kind in ("quintic", "cubic"):
        fd_check(ff.plateau_bump(1.0, kind), samples(-0.5, 1.5, 256),
                 (0.0, 1 / 3, 2 / 3, 1.0))


def test_profile_library_and_arithmetic():
    f = ff.exp_fn(2.0, 1.0)
    assert abs(f(0.3) - math.exp(1.6)) < 1e-12
    assert abs(f.deriv(0.3) - 2 * math.exp(1.6)) < 1e-12
    g = ff.sin_fn() * ff.cos_fn() + ff.linear(3.0, -1.0)
    s = 0.4
    assert abs(g(s) - (math.sin(s) * math.cos(s) + 3 * s - 1)) < 1e-12
    assert abs(g.deriv(s) - (math.cos(2 * s) + 3)) < 1e-10
    h = f.precompose_affine(-1.0, 0.5)
    assert abs(h(0.2) - math.exp(2 * 0.3 + 1)) < 1e-12


def test_smoothsteps_are_cutoffs():
    for kind in ("quintic", "cubic"):
        psi = ff.cutoff_step(kind)
        assert psi(-0.5) == 0.0 and psi(0.0) == 0.0
        assert psi(1.0) == 1.0 and psi(2.0) == 1.0
        assert 0 < psi(0.5) < 1


def test_unit_step_evaluates_inside_only_between():
    seen = []

    def inside(x):
        seen.append(x.copy() if isinstance(x, np.ndarray) else x)
        return x * x * (3 - 2 * x)

    s = np.array([-1.0, 0.0, 0.25, math.nan, 1.0, 2.0, 0.75])
    got = ff._unit_step(s, inside, 1.0)
    assert len(seen) == 1
    assert np.array_equal(seen[0], [0.25, math.nan, 0.75], equal_nan=True)
    scalar = [ff._unit_step(x, inside, 1.0) for x in s.tolist()]
    assert np.array_equal(got, scalar, equal_nan=True)
    assert np.isnan(got[3])


def test_plateau_bump_shape():
    psi = ff.plateau_bump(1.0)
    assert psi(-0.1) == 0.0 and psi(1.1) == 0.0
    assert psi(1 / 3) == 1.0 and psi(0.5) == 1.0 and psi(2 / 3) == 1.0


def test_d_param_trivials():
    pf = ff.ParamForm(("ds", "dt"), (), None, 1, {})
    pf.add_term(("dt",), ff.ParamCoeff.of(ff.sin_fn()))
    d = pf.d()
    val = d.at(0.3)
    assert abs(val.terms[0b11] - math.cos(0.3)) < 1e-12
    assert pf.d_squared_sup([0.1, 0.7, 2.0]) <= 1e-9


def test_d_param_leibniz_on_exponential():
    # d(e^s a+) = e^s ds^a+ + e^s da+ at sampled s
    g = SOL.algebra
    pf = ff.ParamForm(("ds", "dt"), (), g, 1, {})
    off = pf.offset
    for m, c in SOL.alpha_plus.terms.items():
        pf.terms[m << off] = ff.ParamCoeff.of(ff.exp_fn(1.0) * float(c))
    d = pf.d()
    for s in (0.0, 0.8, -1.3):
        got = d.at(s)
        es = math.exp(s)
        lam = ff.ParamForm(("ds", "dt"), (), g, 1, dict(pf.terms)).at(s)
        dap = g.ce_differential(SOL.alpha_plus.to_float())
        expect = {}
        for m, c in SOL.alpha_plus.terms.items():
            expect[(m << off) | 1] = es * float(c)
        for m, c in dap.terms.items():
            expect[m << off] = es * float(c)
        for m, c in expect.items():
            assert abs(got.terms.get(m, 0.0) - c) < 1e-12
        del lam


def test_d_param_squares_to_zero_on_families():
    samples = [0.1, 1.0, 2.5, 4.0]
    fixtures = [
        ff.gt_form(SOL, 1).to_param_form(),
        ff.gt_form(TR3, 1).to_param_form(),
        ff.cutoff_liouville(SOL, 2.0, ff.cutoff_step("quintic")),
        ff.lutz_lambda_k(SOL, 2),
    ]
    for pf in fixtures:
        assert pf.d_squared_sup(samples) <= 1e-9
    # two-parameter fixture
    lin = ff.ParamForm(("ds", "dt"), (), SOL.algebra, 1, {})
    for m, c in SOL.alpha_plus.terms.items():
        lin.terms[m << lin.offset] = ff.ParamCoeff(
            [(ff.exp_fn(1.0) * float(c), ff.exp_fn(-0.5))]
        )
    assert lin.d_squared_sup([(0.3, 0.7), (1.0, -1.0)]) <= 1e-9


def test_gt_form_endpoints():
    triple = ff.gt_form(SOL, 1)
    lam0 = triple.to_param_form().at(0.0)
    off = 2
    for m, c in SOL.alpha_plus.terms.items():
        assert abs(lam0.terms.get(m << off, 0.0) - float(c)) < 1e-12
    lam_pi = triple.to_param_form().at(math.pi)
    for m, c in SOL.alpha_minus.terms.items():
        assert abs(lam_pi.terms.get(m << off, 0.0) - float(c)) < 1e-12
    assert abs(lam_pi.terms.get(0b10, 0.0)) < 1e-12


def test_gt_form_collapses_to_circle_family():
    # over the pair ±dθ the family is cos s dθ + sin s dt
    triple = ff.gt_form(S1, 1)
    for s in (0.3, 1.2, 2.9):
        lam = triple.to_param_form().at(s)
        assert abs(lam.terms.get(0b100, 0.0) - math.cos(s)) < 1e-12
        assert abs(lam.terms.get(0b010, 0.0) - math.sin(s)) < 1e-12


def test_gt_requires_positive_k():
    with pytest.raises(ValueError, match="k >= 1"):
        ff.gt_form(S1, 0)


def test_contact_grid_check_t3_constant():
    triple = ff.gt_form(S1, 2)
    chk = ff.contact_grid_check(triple, 256)
    assert chk.passed
    assert abs(chk.min_value - 1.0) < 1e-9   # constant top coefficient


@pytest.mark.parametrize("k", [2, 3])
def test_frequency_k_torus_family_constant_volume(k):
    # cos(ks) dθ + sin(ks) dt over the circle pair: the volume is the
    # constant k, independent of s
    f = 0.5 * (ff.cos_fn(k) + 1.0)
    g = 0.5 * (ff.const(1.0) - ff.cos_fn(k))
    h = ff.sin_fn(k)
    triple = ff.ProfileTriple(f, g, h, ff.PairData.from_preset(S1),
                              (0.0, 2 * math.pi))
    pf = triple.to_param_form()
    dpf = pf.d()
    for s in np.linspace(0.0, 2 * math.pi, 37):
        top = pf.at(s).wedge(dpf.at(s)).top_coefficient()
        assert abs(top - k) <= 1e-12 * k


def test_contact_grid_check_sol():
    chk = ff.contact_grid_check(ff.gt_form(SOL, 1), 256)
    assert chk.passed and chk.min_value > 0


def test_degenerate_triple_fails():
    with pytest.raises(ValueError, match="invalid"):
        ff.ProfileTriple(ff.const(0.0), ff.const(0.0), ff.const(1.0),
                         ff.PairData.from_preset(SOL), (0.0, 1.0))
    # (f, g, h) = (1, 0, 0) is a valid triple but h' = h = 0 kills the
    # contact volume, so the grid check fails
    triple = ff.ProfileTriple(ff.const(1.0), ff.const(0.0), ff.const(0.0),
                              ff.PairData.from_preset(S1), (0.0, 1.0))
    chk = ff.contact_grid_check(triple, 32)
    assert not chk.passed


def test_reeb_t3_closed_form():
    triple = ff.gt_form(S1, 1)
    for s in (0.0, 0.4, math.pi / 2, 2.2):
        res = ff.reeb_field(triple, s)
        assert abs(res.X.coords[0] - math.cos(s)) <= 1e-10
        assert abs(res.u - math.sin(s)) <= 1e-10
        assert res.residual_pairing <= 1e-10
        assert res.residual_closure <= 1e-10


def test_reeb_sol_at_quarter_turn():
    triple = ff.gt_form(SOL, 1)
    res = ff.reeb_field(triple, math.pi / 2)
    assert max(abs(v) for v in res.X.coords) <= 1e-10
    assert abs(res.u - 1.0) <= 1e-10
    assert res.residual_pairing <= 1e-8
    assert res.residual_closure <= 1e-8


def test_reeb_residuals_across_grid():
    triple = ff.gt_form(SOL, 1)
    for s in np.linspace(0.0, 2 * math.pi, 64):
        res = ff.reeb_field(triple, float(s))
        assert res.residual_pairing <= 1e-8
        assert res.residual_closure <= 1e-8


def reeb_branch_values(triple, s):
    """Both u-branch values of the Reeb field at s, where defined."""
    pair = triple.pair
    res = ff.reeb_field(triple, s)
    fv, gv, hv = triple.f(s), triple.g(s), triple.h(s)
    fp, gp, hp = triple.f.deriv(s), triple.g.deriv(s), triple.h.deriv(s)
    x = np.array(res.X.coords)
    ap_x = float(ff._covector_array(pair.alpha_plus) @ x)
    am_x = float(ff._covector_array(pair.alpha_minus) @ x)
    u_h = (1.0 - fv * ap_x - gv * am_x) / hv if hv else None
    u_hp = -(fp * ap_x + gp * am_x) / hp if hp else None
    return u_h, u_hp


def test_reeb_branch_consistency():
    # where |h| is small but nonzero the two u-branch formulas must agree
    triple = ff.gt_form(SOL, 1)
    for delta in (1e-7, 1e-6, 1e-5):
        s = math.pi - delta  # h = sin s ~ delta
        u_h, u_hp = reeb_branch_values(triple, s)
        assert u_h is not None and u_hp is not None
        assert abs(u_h - u_hp) <= 1e-6


def test_reeb_invalid_profile():
    triple = ff.ProfileTriple(ff.const(1.0), ff.const(1.0), ff.const(0.0),
                              ff.PairData.from_preset(SOL), (0.0, 1.0))
    with pytest.raises(ArithmeticError):
        ff.reeb_field(triple, 0.5)


def test_gt_top_coefficient_periodicity():
    triple = ff.gt_form(SOL, 2)
    pf = triple.to_param_form()
    dpf = pf.d()
    for s in (0.3, 1.1, 2.0):
        a = pf.at(s).wedge(dpf.at(s).power(2)).top_coefficient()
        b = pf.at(s + 2 * math.pi).wedge(
            dpf.at(s + 2 * math.pi).power(2)).top_coefficient()
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("tau", [0.0, 0.25, 0.5, 0.75])
def test_lutz_identity(k, tau):
    err = ff.lutz_family_check(SOL, k, tau, grid_n=128)
    assert err <= 1e-8


def test_lutz_identity_second_cutoff_choice():
    # the identity holds for any admissible cutoff: quintic and cubic
    for kind in ("quintic", "cubic"):
        err = ff.lutz_family_check(SOL, 2, 0.5, grid_n=64, kind=kind)
        assert err <= 1e-8


def test_lutz_tau_one_vanishes_on_plateau():
    psi = ff.plateau_bump(1.0)
    lam_k = ff.lutz_lambda_k(SOL, 1)
    scale_zero_at = 0.5  # psi = 1 there, so (1 - tau psi) = 0 at tau = 1
    npow = (lam_k.coframe.dim + 1) // 2
    base = lam_k.at(scale_zero_at).wedge(
        lam_k.d().at(scale_zero_at).power(npow - 1)).top_coefficient()
    assert abs((1 - 1.0 * psi(scale_zero_at)) ** npow * base) == 0.0


def test_xi_identity_random_draws():
    rng = random.Random(0)
    for _ in range(50):
        c_plus = rng.uniform(0, 2)
        c_minus = rng.uniform(0, 2)
        if c_plus == 0 and c_minus == 0:
            continue
        b = rng.uniform(0.1, 3)
        delta = rng.uniform(-2, 2)
        res = ff.xi_nondegenerate(SOL, c_plus, c_minus, b, delta)
        assert res.identity_error <= 1e-9
        assert res.nonzero


def test_xi_degenerate_boundary():
    res = ff.xi_nondegenerate(SOL, 1.0, 1.0, 0.0, 0.5)
    assert abs(res.top_power_value) <= 1e-12
    assert not res.nonzero


def test_xi_reduces_to_contact_volume():
    res = ff.xi_nondegenerate(SOL, 1.0, 0.0, 2.0, 0.0)
    # w = da+ + B dt^a+: top power = p B C+^p dt ^ a+ ^ da+^(p-1)
    assert res.identity_error <= 1e-12
    assert res.top_power_value != 0


def test_xi_rejects_zero_cone_point():
    with pytest.raises(ValueError, match="not both zero"):
        ff.xi_nondegenerate(SOL, 0.0, 0.0, 1.0, 0.0)


def test_linear_model_dim3():
    ab = liealg.LieAlgebra(("Θ*",), {})
    alpha = Form.covector(ab.coframe(), 0)
    res = ff.linear_model_pair_check(ab, alpha, -1.0, 1.0, grid_n=24)
    assert res.passed
    assert res.factor_error <= 1e-8


def test_linear_model_higher_base():
    p = liealg.totally_real(2)
    res = ff.linear_model_pair_check(p.algebra, p.alpha_plus, -0.5, 0.75,
                                     grid_n=12)
    assert res.passed


def test_linear_model_precondition():
    ab = liealg.LieAlgebra(("Θ*",), {})
    alpha = Form.covector(ab.coframe(), 0)
    with pytest.raises(ValueError, match="nu > mu"):
        ff.linear_model_pair_check(ab, alpha, 1.0, 1.0)


def test_ab_squared_identity():
    # a^2 - b^2 = 4 for a = e^s + e^-s, b = e^s - e^-s
    for s in (-2.0, 0.0, 1.7):
        a = math.exp(s) + math.exp(-s)
        b = math.exp(s) - math.exp(-s)
        assert abs(a * a - b * b - 4.0) < 1e-12


def test_weak_domination_omega_dalpha_reduces_to_contact():
    g = SOL.algebra
    ap = SOL.alpha_plus
    dap = g.ce_differential(ap)
    cert = ff.weak_domination_ray_check(ap, dap, dap)
    assert cert.verdict == "positive"
    assert cert.kind == "exact-sturm"


def test_weak_domination_zero_omega_reports_halves():
    g = SOL.algebra
    ap = SOL.alpha_plus
    dap = g.ce_differential(ap)
    zero2 = Form.zero(g.coframe(), 2)
    cert = ff.weak_domination_ray_check(ap, zero2, dap)
    assert not cert.symplectic_ok
    assert cert.ray_ok
    assert cert.verdict == "indefinite"


def test_weak_domination_rejects_float_forms():
    # the ray is decided exactly or not at all
    g = SOL.algebra
    ap = SOL.alpha_plus
    dap = g.ce_differential(ap)
    for forms in ((ap.to_float(), dap, dap), (ap, dap.to_float(), dap),
                  (ap, dap, dap.to_float())):
        with pytest.raises(ValueError, match="requires exact forms"):
            ff.weak_domination_ray_check(*forms)


def test_sol_ray_fixture_exact():
    for eps in ("1/100", "1/1000"):
        cert = ff.sol_weak_filling_ray_fixture(eps)
        assert cert.verdict == "positive"
        assert cert.kind == "exact-sturm"


def test_sol_fixture_wedge_and_grid():
    res = ff.sol_weak_filling_fixture(0.01, grid_n=48)
    assert res.wedge_plus_zero and res.wedge_minus_zero
    assert res.passed
    res0 = ff.sol_weak_filling_fixture(0.0, grid_n=32)
    assert res0.min_top > 0   # exact product Liouville form


def test_cutoff_outside_support_matches_liouville():
    # where psi' = 0 and psi = 1 the cutoff form equals the plain beta
    psi = ff.cutoff_step("quintic")
    c = 3.0
    pf = ff.cutoff_liouville(SOL, c, psi)
    dpf = pf.d()
    plain = ff.beta_grid_check(SOL, (0.0, 0.0), 1)
    p = pf.coframe.dim // 2
    inside = dpf.at(0.0).power(p).top_coefficient()
    assert abs(inside - plain[0]) <= 1e-9 * max(1.0, abs(inside))


def test_cutoff_c0_fails_and_search_recovers():
    psi = ff.cutoff_step("quintic")
    bad = ff.cutoff_positive_on_grid(SOL, 0.0, psi, 128)
    assert not bad[0] > 0
    c_star = ff.min_c_search(SOL, psi, grid_n=128)
    assert c_star < 64
    refined = ff.cutoff_positive_on_grid(SOL, c_star, psi, 512)
    assert refined[0] > 0


def test_cutoff_second_profile_choice():
    psi = ff.cutoff_step("cubic")
    c_star = ff.min_c_search(SOL, psi, grid_n=128)
    assert ff.cutoff_positive_on_grid(SOL, c_star, psi, 512)[0] > 0


def test_cutoff_dim5_pair():
    psi = ff.cutoff_step("quintic")
    c_star = ff.min_c_search(TR3, psi, grid_n=96)
    assert ff.cutoff_positive_on_grid(TR3, c_star, psi, 384)[0] > 0


def test_cutoff_rejects_bad_psi():
    with pytest.raises(ValueError, match="psi"):
        ff.cutoff_liouville(SOL, 1.0, ff.const(0.5))


def test_cutoff_cap_exceeded_reports_violation():
    # (a+, -a+) never becomes Liouville: the coefficient function vanishes
    # at s = 0 for every c, so the search must hit its cap and report it
    bad = ff.PairData(SOL.algebra, SOL.alpha_plus.to_float(),
                      (-1 * SOL.alpha_plus).to_float(), "corrupt")
    psi = ff.cutoff_step("quintic")
    with pytest.raises(ff.CapExceededError) as err:
        ff.min_c_search(bad, psi, grid_n=64, cap=4.0)
    assert err.value.violating_s is not None


def test_gt_form_warns_on_corrupted_pair():
    import warnings
    corrupted = liealg.Preset(
        "corrupt", SOL.algebra, SOL.alpha_plus, SOL.alpha_plus,
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ff.gt_form(corrupted, 1)
    assert any("not certified" in str(w.message) for w in caught)


def test_phi_at_half_pi_vanishes():
    assert abs(math.log((1 + math.cos(math.pi / 2)) / math.sin(math.pi / 2))) \
        == 0.0


def test_gt_reparam_identity():
    assert ff.gt_reparam_check(SOL, 512) <= 1e-10


def test_beta_grid_agrees_with_exact_certificate():
    rng = random.Random(1)
    from fractions import Fraction as Q
    presets = [liealg.totally_real(2), liealg.totally_real(3),
               liealg.sol_from_sl2([[2, 1], [1, 1]]), liealg.geiges(2)]
    fixtures = []
    for p in presets:
        fixtures.append((p.algebra, p.alpha_plus, p.alpha_minus))
    # corrupted pairs: random sign and coefficient tweaks
    count = 0
    attempts = 0
    while count < 20 and attempts < 200:
        attempts += 1
        p = presets[rng.randrange(len(presets))]
        cf = p.algebra.coframe()
        noise = Form(cf, 1, {
            1 << rng.randrange(cf.dim): Q(rng.randint(-3, 3))
        })
        ap = p.alpha_plus + noise
        am = p.alpha_minus + (-1 if rng.random() < 0.5 else 1) * noise
        cert = liealg.liouville_pair_check(p.algebra, ap, am)
        if cert.verdict != "positive" and cert.witness is not None:
            if cert.witness[0] == "point":
                x = float(cert.witness[1])
                if not (1e-9 < x < 1 - 1e-9):
                    continue
                s_viol = 0.5 * math.log(x / (1 - x))
                if abs(s_viol) > 10:
                    continue
        fixtures.append((p.algebra, ap, am))
        count += 1
    assert count == 20
    for g, ap, am in fixtures:
        cert = liealg.liouville_pair_check(g, ap, am)
        pair = ff.PairData(g, ap.to_float(), am.to_float())
        min_top, _ = ff.beta_grid_check(pair, grid_n=200)
        assert (cert.verdict == "positive") == (min_top > 0)


# -- d of a blade against the float-wedge construction it replaced ------------


def reference_dblade(pf, mask):
    """d(blade) by the Leibniz rule over float wedges, slot by slot."""
    cf = pf.coframe
    idxs = mask_blade(mask)
    acc = {}
    for pos, i in enumerate(idxs):
        if pf.algebra is None or i < pf.offset:
            continue  # parameter and static covectors are closed
        k = i - pf.offset
        # d(e^k) = -sum_{a<b} c^k_ab e^a ^ e^b, straight from the brackets
        base = {(1 << a) | (1 << b): -row[k]
                for (a, b), row in pf.algebra.brackets.items() if k in row}
        if not base:
            continue
        di = Form(cf, 2, {m << pf.offset: float(c)
                          for m, c in base.items()}, FLOAT64)
        before = Form(cf, pos, {blade_mask(idxs[:pos]): 1.0}, FLOAT64)
        after = Form(cf, len(idxs) - pos - 1,
                     {blade_mask(idxs[pos + 1:]): 1.0}, FLOAT64)
        sign = -1.0 if pos % 2 else 1.0
        for m, c in before.wedge(di).wedge(after).terms.items():
            acc[m] = acc.get(m, 0.0) + sign * c
    return {m: c for m, c in acc.items() if c != 0.0}


def reference_d(pf):
    """ParamForm.d() term by term, with the reference d of each blade."""
    out = {}

    def add(mask, coeff):
        out[mask] = out[mask].plus(coeff) if mask in out else coeff

    for mask, coeff in pf.terms.items():
        if not mask & 1:
            add(mask | 1, coeff.d1_coeff())
        if pf.nparams == 2 and not mask & 2:
            dc = coeff.d2_coeff()
            add(mask | 2, dc.scaled(-1.0) if mask & 1 else dc)
        for m, c in reference_dblade(pf, mask).items():
            add(m, coeff.scaled(c))
    return out


def family_forms(monkeypatch, key):
    """Every ParamForm whose d() the family checks take, for one preset."""
    p = liealg.preset(key)
    seen = []
    d = ff.ParamForm.d

    def recording_d(self):
        seen.append(self)
        return d(self)

    monkeypatch.setattr(ff.ParamForm, "d", recording_d)
    ff.contact_grid_check(ff.gt_form(p, 1), 16)
    ff.lutz_family_check(p, 1, 0.5, grid_n=8)
    ff.cutoff_positive_on_grid(p, 1.0, ff.cutoff_step("cubic"), 8)
    ff.beta_grid_check(p, grid_n=8)
    ff.linear_model_pair_check(p.algebra, p.alpha_plus, -0.5, 0.75, grid_n=4)
    ff.sol_weak_filling_fixture(0.01, 4)
    monkeypatch.undo()
    return seen


@pytest.mark.parametrize("key", [
    "totreal:1", "totreal:2", "totreal:3", "sol:2,1,1,1", "sol:3,2,1,1",
    "geiges:2", "geiges:3", "grs1:2,0"])
def test_d_matches_float_wedge_reference(monkeypatch, key):
    forms = family_forms(monkeypatch, key)
    assert len(forms) >= 6
    u = np.array([-1.3, -0.2, 0.0, 0.4, 1.0, 2.7])
    v = np.array([0.3, -1.1, 0.0, 0.5, 2.0, -0.6])
    for pf in forms + [pf.d() for pf in forms]:
        for mask in pf.terms:
            got = [(m, c.hex()) for m, c in pf._dblade(mask).items()]
            want = [(m, c.hex()) for m, c in
                    reference_dblade(pf, mask).items()]
            assert got == want
        d, ref = pf.d().terms, reference_d(pf)
        assert list(d) == list(ref)
        for mask, coeff in d.items():
            np.testing.assert_array_equal(
                np.asarray(coeff(u, v)).view(np.uint64),
                np.asarray(ref[mask](u, v)).view(np.uint64))
