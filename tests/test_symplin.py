import functools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction as Q
from itertools import zip_longest
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from liouville_lab import _poly
from liouville_lab import symplin as sl


def frac_det_oracle(rows):
    """Independent determinant via permutation expansion (small sizes)."""
    n = len(rows)
    if n == 1:
        return Q(rows[0][0])
    total = Q(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        total += (-1) ** j * Q(rows[0][j]) * frac_det_oracle(minor)
    return total


def random_rational_skew(rng, n):
    rows = [[Q(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = Q(rng.integers(-4, 5), int(rng.integers(1, 4)))
            rows[j][i] = -rows[i][j]
    return sl.SkewForm(rows)


def standard_omega(n2):
    """The standard form as interleaved Darboux pairs (e1,e2), (e3,e4), ...

    This convention has Pfaffian +1 in every dimension; the block basis of
    the pencil reduction uses the grouped [[0, I], [-I, 0]] layout instead.
    """
    rows = [[Q(0)] * n2 for _ in range(n2)]
    for i in range(0, n2, 2):
        rows[i][i + 1] = Q(1)
        rows[i + 1][i] = Q(-1)
    return sl.SkewForm(rows)


def test_pfaffian_standard_form():
    # standard_omega's interleaved Darboux pairs have Pfaffian +1
    for n in (2, 4, 6, 8):
        om = standard_omega(n)
        assert pfaffian_by_expansion(om.matrix) == 1
        assert sl.is_nondegenerate(om)


def test_pfaffian_zero_row():
    rows = [[Q(0)] * 4 for _ in range(4)]
    rows[2][3] = Q(5)
    rows[3][2] = Q(-5)
    assert pfaffian_by_expansion(rows) == 0
    assert not sl.is_nondegenerate(sl.SkewForm(rows))


def test_pfaffian_squares_to_determinant():
    # the determinant that decides is_nondegenerate is Pf^2
    rng = np.random.default_rng(1)
    for n in (4, 6, 8):
        for _ in range(3):
            a = random_rational_skew(rng, n)
            pf = pfaffian_by_expansion(a.matrix)
            assert pf ** 2 == _poly.frac_det(a.matrix) == frac_det_oracle(
                a.matrix)
            assert sl.is_nondegenerate(a) == (pf != 0)


def test_skewform_validation():
    with pytest.raises(ValueError, match="antisymmetric"):
        sl.SkewForm([[0, 1], [1, 0]])
    with pytest.raises(ValueError, match="even"):
        sl.SkewForm(np.zeros((3, 3)))
    with pytest.raises(ValueError, match="12"):
        sl.SkewForm(np.zeros((14, 14)))


def test_tames_standard():
    om = standard_omega(4)
    j = sl.ComplexStructure(sl._compatible(om.to_array()))
    assert sl.tames(om, j)
    minus = sl.ComplexStructure(-j.matrix)
    assert not sl.tames(om, minus)


def test_tames_exact_path():
    om = standard_omega(2)
    j = sl.ComplexStructure(np.array([[0.0, -1.0], [1.0, 0.0]]))
    assert sl.tames(om, j)


def test_tames_decides_exactly_only_an_integral_j():
    # sym(A J0) = diag(1, 1, delta, delta) is exactly positive definite;
    # J = J0 + eps X (X anticommuting with J0) lies within allclose of J0,
    # but couples the two blocks by ~eps^2 > delta, so its exact sym(A J)
    # is not positive definite: the rounded J0 must not decide it
    delta, eps = Q(1, 10 ** 20), 1e-9
    a = sl.SkewForm([[0, 1, 0, 0], [-1, 0, 0, 0],
                     [0, 0, 0, delta], [0, 0, -delta, 0]])
    j0 = np.array([[0.0, -1, 0, 0], [1, 0, 0, 0],
                   [0, 0, 0, -1], [0, 0, 1, 0]])
    x = np.zeros((4, 4))
    x[0:2, 2:4] = x[2:4, 0:2] = [[1, 0], [0, -1]]
    assert np.array_equal(x @ j0 + j0 @ x, np.zeros((4, 4)))
    j = j0 + eps * x
    assert np.allclose(j, j0)
    assert sl.tames(a, sl.ComplexStructure(j0))
    prod = _poly.mat_mul(a.matrix, [[Q(v) for v in row] for row in j])
    sym = [[(prod[r][c] + prod[c][r]) / 2 for c in range(4)]
           for r in range(4)]
    assert not sl._exact_positive_definite(sym)
    assert not sl.tames(a, sl.ComplexStructure(j))


def test_tames_4x4_phase_block():
    # the 4x4 model pair with its phase structure J_phi: taming needs
    # cos(phi) < 0 and cos(phi + psi) < 0 in this basis convention
    mu, nu = -0.3, 0.8
    blocks = [sl.ComplexBlock(mu, nu, 1)]
    a0m, a1m = sl._model_matrices(blocks)
    a0 = sl.SkewForm(a0m)
    a1 = sl.SkewForm(a1m)
    psi = math.atan2(nu, mu)
    phi = math.pi - psi / 2
    rot = np.array([
        [math.cos(phi), -math.sin(phi)],
        [math.sin(phi), math.cos(phi)],
    ])
    j = np.zeros((4, 4))
    j[0:2, 2:4] = rot
    j[2:4, 0:2] = -rot.T
    jc = sl.ComplexStructure(j)
    assert sl.tames(a0, jc)
    assert sl.tames(a1, jc)


def test_pencil_endomorphism_examples():
    om = standard_omega(4).to_array()
    assert np.allclose(sl._float_endomorphism(om, om), np.eye(4))
    assert np.allclose(sl._float_endomorphism(om, 2 * om), 2 * np.eye(4))


def test_pencil_endomorphism_pairing():
    rng = np.random.default_rng(5)
    m0, m1 = sl._nondegenerate_draws([rng], 6, 2)[0]
    b = sl._float_endomorphism(m0, m1)
    for _ in range(20):
        v = rng.standard_normal(6)
        w = rng.standard_normal(6)
        assert abs((b @ v) @ m0 @ w - v @ m1 @ w) <= 1e-12 * max(
            1.0, abs(v @ m1 @ w))


def test_pencil_endomorphism_requires_nondegenerate():
    degenerate = sl.SkewForm(np.zeros((4, 4)))
    with pytest.raises(ValueError, match="omega_0 is degenerate"):
        sl._analyse(degenerate, standard_omega(4))


def test_segment_and_ray_trivials():
    om = standard_omega(4)
    two = sl.SkewForm([[2 * x for x in row] for row in om.matrix])
    neg = sl.SkewForm([[-x for x in row] for row in om.matrix])
    assert sl._analyse(om, two).ray_nondegenerate()
    assert not sl._analyse(om, neg).ray_nondegenerate()
    # which is the segment verdict: w0 + neg is degenerate at t = 1/2
    assert not sl.is_nondegenerate(sl.SkewForm(
        [[x + y for x, y in zip(r0, r1)]
         for r0, r1 in zip(om.matrix, neg.matrix)]))


def test_remark_pair_is_cotamed():
    a0, a1 = sl.remark_pair()
    assert sl.is_nondegenerate(a0) and sl.is_nondegenerate(a1)
    assert a0.to_form().wedge(a1.to_form()).top_coefficient() == 0
    assert sl._analyse(a0, a1).ray_nondegenerate()
    j = sl.construct_cotamed(a0, a1)
    assert sl.tames(a0, j) and sl.tames(a1, j)


def test_reduce_scalar_multiple():
    om = standard_omega(4)
    lam = 3.0
    scaled = sl.SkewForm(np.array(om.to_array() * lam))
    red = sl.simultaneous_reduce(sl.SkewForm(om.to_array()), scaled)
    assert all(isinstance(b, sl.RealBlock) for b in red.blocks)
    assert all(abs(float(b.eigenvalue) - lam) <= 1e-9 for b in red.blocks)
    assert red.omega0_residual <= 1e-9


@pytest.mark.parametrize("mu,nu", [(1.0, 2.0), (-0.5, 1.5)])
def test_reduce_recovers_complex_block(mu, nu):
    rng = np.random.default_rng(42)
    blocks = [sl.ComplexBlock(mu, nu, 1)]
    a0m, a1m = sl._model_matrices(blocks)
    p0 = rng.standard_normal((4, 4))
    while abs(np.linalg.det(p0)) < 0.3:
        p0 = rng.standard_normal((4, 4))
    a0 = sl.SkewForm(p0.T @ a0m @ p0)
    a1 = sl.SkewForm(p0.T @ a1m @ p0)
    red = sl.simultaneous_reduce(a0, a1, 1e-3)
    assert len(red.blocks) == 1
    b = red.blocks[0]
    assert isinstance(b, sl.ComplexBlock)
    assert abs(b.mu - mu) <= 1e-6
    assert abs(abs(b.nu) - abs(nu)) <= 1e-6
    assert red.omega0_residual <= 1e-9
    assert red.omega1_residual <= 10 * 1e-3


def test_reduce_recovers_jordan_chain():
    rng = np.random.default_rng(7)
    eps = 1e-3
    blocks = [sl.RealBlock(2.0, 2)]
    a0m, a1m = sl._model_matrices(blocks, eps)
    p0 = rng.standard_normal((4, 4))
    a0 = sl.SkewForm(p0.T @ a0m @ p0)
    a1 = sl.SkewForm(p0.T @ a1m @ p0)
    red = sl.simultaneous_reduce(a0, a1, eps)
    assert len(red.blocks) == 1
    b = red.blocks[0]
    assert isinstance(b, sl.RealBlock)
    assert b.chain_length == 2
    assert abs(float(b.eigenvalue) - 2.0) <= 1e-6
    assert red.omega1_residual <= 10 * eps


def test_reduce_mixed_dim8():
    rng = np.random.default_rng(11)
    eps = 1e-3
    blocks = [sl.RealBlock(3.0, 2), sl.ComplexBlock(-1.0, 1.5, 1)]
    a0m, a1m = sl._model_matrices(blocks, eps)
    p0 = rng.standard_normal((8, 8))
    a0 = sl.SkewForm(p0.T @ a0m @ p0)
    a1 = sl.SkewForm(p0.T @ a1m @ p0)
    red = sl.simultaneous_reduce(a0, a1, eps)
    kinds = sorted(type(b).__name__ for b in red.blocks)
    assert kinds == ["ComplexBlock", "RealBlock"]
    assert red.omega0_residual <= 1e-9
    assert red.omega1_residual <= 10 * eps


def test_exact_reduce_rational_spectrum():
    d0 = standard_omega(4)
    rows = [[Q(0)] * 4 for _ in range(4)]
    rows[0][1], rows[1][0] = Q(1, 3), Q(-1, 3)
    rows[2][3], rows[3][2] = Q(5, 2), Q(-5, 2)
    d1 = sl.SkewForm(rows)
    red = sl.simultaneous_reduce(d0, d1)
    eigs = sorted(b.eigenvalue for b in red.blocks)
    assert eigs == [Q(1, 3), Q(5, 2)]          # exact rationals, not floats
    assert red.omega0_residual == 0.0


def rational_jordan_pencil():
    """The rational model pair of one real block of chain 2 at lambda = 2,
    chain coupling 1, as exact skew forms."""
    ms = sl._model_matrices([sl.RealBlock(Q(2), 2)], eps=1)
    return [sl.SkewForm([[Q(x) for x in row] for row in m.tolist()])
            for m in ms]


def test_rational_jordan_pencil_takes_the_float_reduction():
    # the spectrum is rational but the eigenspace of 2 is one-dimensional:
    # the exact path declines and the float path resolves the chain
    a0, a1 = rational_jordan_pencil()
    assert sl._try_exact_reduce(sl._analyse(a0, a1)) is None
    red = sl.simultaneous_reduce(a0, a1, 1e-3)
    assert [(b.eigenvalue, b.chain_length) for b in red.blocks] == [(2.0, 2)]
    assert red.eps == 1e-3
    assert red.omega0_residual <= 1e-9
    assert red.omega1_residual <= 1e-2


def test_block_parameter_stability_across_eps():
    # the clustered spectrum should not move as eps is refined
    rng = np.random.default_rng(3)
    blocks = [sl.ComplexBlock(0.7, -1.1, 1), sl.RealBlock(2.5, 1)]
    a0m, a1m = sl._model_matrices(blocks)
    p0 = rng.standard_normal((6, 6))
    a0 = sl.SkewForm(p0.T @ a0m @ p0)
    a1 = sl.SkewForm(p0.T @ a1m @ p0)
    seen = []
    for eps in (1e-2, 1e-3, 1e-4):
        red = sl.simultaneous_reduce(a0, a1, eps)
        params = sorted(
            (round(b.mu, 6), round(abs(b.nu), 6)) if isinstance(b, sl.ComplexBlock)
            else (round(float(b.eigenvalue), 6), 0.0)
            for b in red.blocks
        )
        seen.append(params)
    assert seen[0] == seen[1] == seen[2]


def test_construct_cotamed_standard():
    om = standard_omega(4)
    j = sl.construct_cotamed(om, sl.SkewForm([list(r) for r in om.matrix]))
    assert sl.tames(om, j)


def test_construct_cotamed_requires_existence():
    om = standard_omega(4)
    neg = sl.SkewForm([[-x for x in row] for row in om.matrix])
    with pytest.raises(sl.CotamedExistenceError):
        sl.construct_cotamed(om, neg)


def test_sign_law_on_random_pairs():
    # when the segment stays nondegenerate, every real eigenvalue of the
    # pencil endomorphism is positive
    rng = np.random.default_rng(17)
    checked = 0
    for _ in range(200):
        m0, m1 = sl._nondegenerate_draws([rng], 6, 2)[0]
        pencil = sl._analyse(sl.SkewForm(m0), sl.SkewForm(m1))
        if pencil.ray_nondegenerate():
            checked += 1
            for lam in pencil.spectrum:
                if abs(lam.imag) <= 1e-8 * max(1.0, abs(lam.real)):
                    assert lam.real > 0
    assert checked > 10


def test_cayley_map_trivials():
    j0 = sl._compatible(standard_omega(6).to_array())
    assert np.allclose(sl._cayley_map(j0, j0), 0.0)
    assert np.allclose(sl._cayley_inverse(j0, np.zeros((6, 6))), j0)


def test_cayley_singular_cases():
    j0 = sl._compatible(standard_omega(4).to_array())
    with pytest.raises(ValueError, match="singular"):
        sl._cayley_map(j0, -j0)
    with pytest.raises(ValueError, match="anticommute"):
        sl._cayley_inverse(j0, np.eye(4))


def test_cayley_roundtrip_and_anticommutation():
    rng = np.random.default_rng(23)
    for trial in range(25):
        a = sl._skew_draw(np.random.default_rng(trial), 6)
        if not sl._nondegenerate(a):
            continue
        j0 = sl._compatible(a)
        j = sl._tamed_draws([rng], a[None], j0[None])[0]
        am = sl._cayley_map(j0, j)
        assert np.max(np.abs(am @ j0 + j0 @ am)) <= 1e-12 * max(
            1.0, float(np.max(np.abs(am))))
        back = sl._cayley_inverse(j0, am)
        assert np.max(np.abs(back - j)) <= 1e-10


def g_norm(a, j0, x):
    """Operator norm of x in g = w(., J0 .), from the Gram matrix A J0."""
    gram = a @ j0
    vals, vecs = np.linalg.eigh((gram + gram.T) / 2)
    half = vecs @ np.diag(np.sqrt(vals)) @ vecs.T
    half_inv = vecs @ np.diag(1 / np.sqrt(vals)) @ vecs.T
    return float(np.linalg.norm(half @ x @ half_inv, 2))


@settings(derandomize=True, max_examples=120, deadline=None)
@given(dim=st.sampled_from([2, 4, 6, 8, 10, 12]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_random_tamed_j_draws_once_inside_the_unit_g_ball(dim, seed):
    rng = np.random.default_rng(seed)
    a = sl._nondegenerate_draws([rng], dim, 1)[0, 0]
    j0 = sl._compatible(a)
    j = sl._tamed_draws([rng], a[None], j0[None])[0]
    assert sl.tames(sl.SkewForm(a), sl.ComplexStructure(j))
    assert g_norm(a, j0, sl._cayley_map(j0, j)) < 1


def test_random_tamed_j_names_an_untamed_draw(monkeypatch):
    # the taming test of the sampler, one flag per draw of the stack
    monkeypatch.setattr(sl, "_tamed", lambda a, j: np.zeros(len(j), bool))
    om = standard_omega(4).to_array()[None]
    with pytest.raises(ArithmeticError, match="not tamed"):
        sl._tamed_draws([np.random.default_rng(0)], om, sl._compatible(om))


def test_interpolate_endpoints():
    rng = np.random.default_rng(31)
    a = sl._nondegenerate_draws([rng], 4, 1)[0]
    j0 = sl._compatible(a)
    j1 = sl._tamed_draws([rng], a, j0)
    j2 = sl._tamed_draws([rng], a, j0)
    at0, at1 = sl._interpolate(j0, j1, j2, (0.0, 1.0))
    assert np.allclose(at0, j1)
    assert np.allclose(at1, j2)


@pytest.mark.parametrize("suite, maps_per_trial", [
    (sl.cayley_roundtrip_suite, 1), (sl.interpolation_suite, 2),
])
def test_suites_build_one_cayley_chart_per_trial(monkeypatch, suite,
                                                 maps_per_trial):
    # one stacked J0 per stack of trials, handed to the sampler, and one
    # stacked chart image per sampled J (the interpolation maps J1 and J2
    # once for all of its t values)
    calls = {"_compatible": [], "_cayley_map": []}
    for name in calls:
        raw = getattr(sl, name)

        def counted(*args, _raw=raw, _name=name):
            calls[_name].append(len(args[0]))
            return _raw(*args)

        monkeypatch.setattr(sl, name, counted)
    monkeypatch.setattr(sl, "_TRIAL_STACK", 8)
    suite(20, seed=331)
    assert calls == {"_compatible": [8, 8, 4],
                     "_cayley_map": [n for n in (8, 8, 4)
                                     for _ in range(maps_per_trial)]}


# -- the suites' former trial loops, the references of the stacked suites ----------


def reference_nondegenerate(a):
    """The former float det gate of is_nondegenerate."""
    arr = a.to_array()
    det = float(np.linalg.det(arr))
    scale = max(1.0, float(np.max(np.abs(arr)))) ** a.dim
    return abs(det) > 1e-12 * scale


def reference_skew(rng, dim):
    """A random skew form, redrawn until it passes the det gate."""
    while True:
        m = rng.standard_normal((dim, dim))
        a = sl.SkewForm(m - m.T)
        if reference_nondegenerate(a):
            return a


def reference_pair(rng, dim):
    while True:
        m0 = rng.standard_normal((dim, dim))
        m1 = rng.standard_normal((dim, dim))
        a0, a1 = sl.SkewForm(m0 - m0.T), sl.SkewForm(m1 - m1.T)
        if reference_nondegenerate(a0) and reference_nondegenerate(a1):
            return a0, a1


def reference_polish(j):
    n = j.shape[0]
    eye = np.eye(n)
    best = j
    best_err = float(np.max(np.abs(j @ j + eye)))
    for _ in range(4):
        if best_err <= 1e-14:
            break
        cand = best @ (eye + (best @ best + eye) / 2)
        cand_err = float(np.max(np.abs(cand @ cand + eye)))
        if cand_err >= best_err:
            break
        best, best_err = cand, cand_err
    return best


def reference_compatible_j(a):
    arr = a.to_array()
    m = -(arr @ arr)
    vals, vecs = np.linalg.eigh((m + m.T) / 2)
    if np.min(vals) <= 0:
        raise ValueError("form is degenerate")
    inv_sqrt = vecs @ np.diag(1.0 / np.sqrt(vals)) @ vecs.T
    return sl.ComplexStructure(reference_polish(-inv_sqrt @ arr))


def reference_cayley_map(j0, j):
    s = j.matrix + j0.matrix
    if abs(np.linalg.det(s)) < 1e-12:
        raise ValueError("J + J0 is singular (J = -J0 boundary)")
    a = np.linalg.solve(s, j.matrix - j0.matrix)
    anti = a @ j0.matrix + j0.matrix @ a
    if np.max(np.abs(anti)) > 1e-9 * max(1.0, float(np.max(np.abs(a)))):
        raise ArithmeticError("Cayley image does not anticommute with J0")
    return (a + j0.matrix @ a @ j0.matrix) / 2


def reference_cayley_inverse(j0, a):
    anti = a @ j0.matrix + j0.matrix @ a
    if np.max(np.abs(anti)) > 1e-10 * max(1.0, float(np.max(np.abs(a)))):
        raise ValueError("A does not anticommute with J0")
    s = a - np.eye(a.shape[0])
    if abs(np.linalg.det(s)) < 1e-12:
        raise ValueError("A - I is singular (eigenvalue 1)")
    return sl.ComplexStructure(s @ j0.matrix @ np.linalg.inv(s))


def reference_taming_margin(a, j):
    m = a.to_array() @ j.matrix
    return float(np.linalg.eigvalsh((m + m.T) / 2)[0])


def reference_tames(a, j):
    m = a.to_array() @ j.matrix
    s = (m + m.T) / 2
    scale = max(1.0, float(np.max(np.abs(s))))
    return bool(np.linalg.eigvalsh(s)[0] > sl.TAMING_EIG * scale)


def reference_random_tamed_j(rng, a, j0):
    x = rng.standard_normal((a.dim, a.dim))
    anti = (x + j0.matrix @ x @ j0.matrix) / 2
    gram = a.to_array() @ j0.matrix
    lt = np.linalg.cholesky((gram + gram.T) / 2).T
    g = np.linalg.norm(lt @ anti @ np.linalg.inv(lt), 2)
    cand = reference_cayley_inverse(j0, anti * (rng.uniform(0.1, 0.95) / g))
    if not reference_tames(a, cand):
        raise ArithmeticError("Cayley draw of g-norm below 1 is not tamed")
    return cand


def reference_cayley_suite(trials, seed):
    worst = 0.0
    mismatches = 0
    for trial in range(trials):
        rng = np.random.default_rng(seed + trial)
        a = reference_skew(rng, sl.SUITE_DIM)
        j0 = reference_compatible_j(a)
        j = reference_random_tamed_j(rng, a, j0)
        back = reference_cayley_inverse(j0, reference_cayley_map(j0, j))
        err = float(np.max(np.abs(back.matrix - j.matrix)))
        worst = max(worst, err)
        if err > 1e-10:
            mismatches += 1
    return sl.SuiteReport("cayley-roundtrip", trials, mismatches, worst,
                          [seed])


def reference_interpolation_suite(trials, seed, ts=(0.25, 0.5, 0.75)):
    mismatches = 0
    worst = math.inf
    for trial in range(trials):
        rng = np.random.default_rng(seed + 31 * trial)
        a = reference_skew(rng, sl.SUITE_DIM)
        j0 = reference_compatible_j(a)
        j1 = reference_random_tamed_j(rng, a, j0)
        j2 = reference_random_tamed_j(rng, a, j0)
        a1 = reference_cayley_map(j0, j1)
        a2 = reference_cayley_map(j0, j2)
        for out in [reference_cayley_inverse(j0, (1 - t) * a1 + t * a2)
                    for t in ts]:
            margin = reference_taming_margin(a, out)
            worst = min(worst, margin)
            if margin <= 0:
                mismatches += 1
    return sl.SuiteReport("interpolation-convexity", trials * len(ts),
                          mismatches, worst if worst < math.inf else 0.0,
                          [seed])


def reference_appendix_suite(trials, dims, seed):
    """appendix_equivalence_suite as a loop over its dimensions, each
    counted trial by trial (reference_appendix_trials)."""
    mismatches = ill_conditioned = 0
    per_dim, margins = {}, []
    for dim in dims:
        bad, ill, got = reference_appendix_trials(seed + 7919 * dim, dim,
                                                  trials)
        per_dim[dim] = bad
        mismatches += bad
        ill_conditioned += ill
        margins += got
    return sl.SuiteReport(
        "appendix-equivalence", trials * len(dims), mismatches,
        min(margins, default=0.0), [seed],
        {"per_dim": per_dim, "ill_conditioned_reported": ill_conditioned},
    )


STACKED_SUITES = {
    "cayley": (sl.cayley_roundtrip_suite, reference_cayley_suite),
    "interpolation": (sl.interpolation_suite, reference_interpolation_suite),
    "appendix": (functools.partial(sl.appendix_equivalence_suite, dims=(4, 6)),
                 functools.partial(reference_appendix_suite, dims=(4, 6))),
}


def bits(x):
    return np.array([x], dtype=float).view(np.int64)[0]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(name=st.sampled_from(sorted(STACKED_SUITES)),
       trials=st.integers(0, 12), seed=st.integers(0, 2 ** 32 - 1),
       stack=st.sampled_from([1, 2, 5, 4096]))
@example(name="cayley", trials=0, seed=3, stack=4096)
@example(name="interpolation", trials=1, seed=24, stack=4096)
@example(name="appendix", trials=1, seed=331, stack=4096)
@example(name="appendix", trials=11, seed=600, stack=4)
@example(name="cayley", trials=9, seed=600, stack=2)
@example(name="interpolation", trials=7, seed=0, stack=3)
def test_stacked_suites_match_their_trial_loops(name, trials, seed, stack):
    suite, reference = STACKED_SUITES[name]
    with mock.patch.object(sl, "_TRIAL_STACK", stack):
        rep = suite(trials, seed=seed)
    ref = reference(trials, seed=seed)
    assert (rep.trials, rep.mismatches) == (ref.trials, ref.mismatches)
    assert bits(rep.worst_margin) == bits(ref.worst_margin)
    assert (rep.name, rep.seeds, rep.detail) == (ref.name, ref.seeds,
                                                 ref.detail)


def test_stacked_kernels_match_their_per_matrix_references():
    # one stack of 40 forms of dimension 6 against the former scalar
    # functions, matrix by matrix, bit for bit
    rngs = [np.random.default_rng(s) for s in range(40)]
    refs = [np.random.default_rng(s) for s in range(40)]
    a = sl._nondegenerate_draws(rngs, 6, 1)[:, 0]
    forms = [reference_skew(rng, 6) for rng in refs]
    assert np.array_equal(a.view(np.int64),
                          np.array([f.matrix for f in forms]).view(np.int64))
    j0 = sl._compatible(a)
    j = sl._tamed_draws(rngs, a, j0)
    image = sl._cayley_map(j0, j)
    for i, form in enumerate(forms):
        rj0 = reference_compatible_j(form)
        rj = reference_random_tamed_j(refs[i], form, rj0)
        rimage = reference_cayley_map(rj0, rj)
        for got, want in ((j0[i], rj0.matrix), (j[i], rj.matrix),
                          (image[i], rimage)):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert bits(sl.taming_margin(form, rj)) == bits(
            reference_taming_margin(form, rj))


def test_stacked_det_gate_decides_each_form_as_the_scalar_gate():
    # |det| of each form lies between 1e-12 c^4 with c^4 from Python's pow
    # and from numpy's vectorised power, which rounds it differently on
    # CPUs with a vectorised pow
    cases = [(2.105671498451571, 2.10567149845157e-06),
             (3.0419975290877237, 3.041997529087722e-06),
             (3.4363813953448834, 3.4363813953448815e-06)]
    forms = np.array([[[0, c, 0, 0], [-c, 0, 0, 0], [0, 0, 0, e],
                       [0, 0, -e, 0]] for c, e in cases])
    want = [reference_nondegenerate(sl.SkewForm(m)) for m in forms]
    assert sl._nondegenerate(forms).tolist() == want
    assert [sl.is_nondegenerate(sl.SkewForm(m)) for m in forms] == want


def test_a_nan_matrix_hides_no_failing_one_from_a_stacked_gate():
    j = np.array([sl._compatible(standard_omega(4).to_array())] * 3)
    j[0, 0, 0] = np.nan
    sl._require_square_minus_identity(j[:1])
    j[2, 0, 0] += 1e-9
    with pytest.raises(ValueError, match="does not square to -identity"):
        sl._require_square_minus_identity(j)


class ScriptedDraws:
    """A generator stand-in whose standard_normal returns given matrices."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def standard_normal(self, shape):
        return np.array(self.draws.pop(0), dtype=float).reshape(shape)


def test_a_degenerate_draw_is_redrawn_from_its_own_generator():
    rng = np.random.default_rng(5)
    m = [rng.standard_normal((4, 4)) for _ in range(6)]
    zero = np.zeros((4, 4))
    # trial 1 draws a degenerate first form: both of its forms are drawn
    # again from its generator, and trial 0 draws nothing more
    rngs = [ScriptedDraws(m[0], m[1]), ScriptedDraws(zero, m[2], m[3], m[4])]
    forms = sl._nondegenerate_draws(rngs, 4, 2)
    assert [r.draws for r in rngs] == [[], []]
    want = [[m[0], m[1]], [m[3], m[4]]]
    assert np.array_equal(forms, [[x - x.T for x in pair] for pair in want])
    ref = [reference_pair(ScriptedDraws(*r), 4)
           for r in ([m[0], m[1]], [zero, m[2], m[3], m[4]])]
    assert np.array_equal(forms, [[a.matrix for a in pair] for pair in ref])
    single = sl._nondegenerate_draws([ScriptedDraws(zero, zero, m[5])], 4, 1)
    assert np.array_equal(single[0, 0], m[5] - m[5].T)


@pytest.mark.parametrize("dim", [3, 14])
def test_draws_reject_the_dimensions_skew_forms_reject(dim):
    # an odd skew matrix is singular: without the check the draw would
    # redraw it for ever (here: until the scripted draws run out)
    with pytest.raises(ValueError, match="dimension must be even"):
        sl._nondegenerate_draws([ScriptedDraws(np.ones((dim, dim)))], dim, 1)


def test_a_failing_stack_raises_the_first_failure_of_the_trial_loop():
    # trial 7 fails the first gate and trial 3 the second: a loop over the
    # trials meets trial 3 first
    gates = {3: 2, 7: 1}

    def run(stack):
        for gate in (1, 2):
            for trial in stack:
                if gates.get(trial) == gate:
                    raise ValueError(f"trial {trial} fails gate {gate}")
        return list(stack)

    with pytest.raises(ValueError, match="trial 3 fails gate 2"):
        sl._stacked(run, 10)
    assert sl._stacked(run, 3) == [[0, 1, 2]]
    assert sl._stacked(run, 0) == []


def test_suites_name_an_untamed_draw(monkeypatch):
    monkeypatch.setattr(sl, "_tamed", lambda a, j: np.zeros(len(j), bool))
    for suite in (sl.cayley_roundtrip_suite, sl.interpolation_suite):
        with pytest.raises(ArithmeticError, match="not tamed"):
            suite(5, seed=0)


def test_interpolation_preserves_taming():
    rep = sl.interpolation_suite(40, seed=0)
    assert rep.mismatches == 0
    assert rep.worst_margin > 0


def test_cocompatible_counterexample_basics():
    a0, a1 = sl.remark_pair()
    # standard compatible structure has an explicit violating vector
    j = sl._compatible(a0.to_array())
    m = a1.to_array() @ j
    vals, vecs = np.linalg.eigh((m + m.T) / 2)
    assert vals[0] <= 0
    v = vecs[:, 0]
    assert v @ a1.to_array() @ (j @ v) <= 1e-12


def trace_of_b_by_wedges(a0, a1):
    """2n top(w0^(n-1) ^ w1) / top(w0^n), exactly."""
    n = a0.dim // 2
    w0, w1 = a0.to_form(), a1.to_form()
    return (2 * n * w0.power(n - 1).wedge(w1).top_coefficient()
            / w0.power(n).top_coefficient())


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.sampled_from([4, 6, 8]), st.integers(0, 2 ** 32 - 1))
def test_compatible_trace_is_the_trace_of_b(dim, seed):
    # for a w0-compatible J with g = sym(A0 J):
    # tr(g^-1 sym(A1 J)) = tr(B) = 2n top(w0^(n-1) ^ w1) / top(w0^n)
    rng = np.random.default_rng(seed)
    m0, m1 = sl._nondegenerate_draws([rng], dim, 2)[0]
    # the float draws as exact dyadic rationals
    a0, a1 = (sl.SkewForm([[Q(x) for x in row] for row in m])
              for m in (m0, m1))
    trace = sum(row[i] for i, row in enumerate(_poly.solve(a0.matrix,
                                                           a1.matrix)))
    assert trace == trace_of_b_by_wedges(a0, a1)
    c = rng.standard_normal((dim, dim))
    ham = np.linalg.solve(m0, (c + c.T) / 2)
    # a symplectic S = exp(ham) of bounded condition, for a random A0
    s = sl._expm((ham * (0.5 / max(1.0, np.linalg.norm(ham, 2))))[None])[0]
    j = s @ sl._compatible(m0) @ np.linalg.inv(s)
    g = (m0 @ j + (m0 @ j).T) / 2
    s1 = (m1 @ j + (m1 @ j).T) / 2
    got = np.trace(np.linalg.solve(g, s1))
    b_norm = np.abs(np.linalg.eigvals(np.linalg.solve(m0, m1))).sum()
    assert abs(got - float(trace)) <= 1e-9 * max(1.0, b_norm)


def test_remark_pair_trace_of_b_is_exactly_zero():
    # so no w0-compatible J is w1-tamed: the eigenvalues of g^-1 sym(A1 J)
    # sum to 0, so they are not all positive
    a0, a1 = sl.remark_pair()
    b = _poly.solve(a0.matrix, a1.matrix)
    assert sum(b[i][i] for i in range(4)) == 0
    assert trace_of_b_by_wedges(a0, a1) == 0


def test_cocompatible_suite_small():
    rep = sl.cocompatible_counterexample_suite(500, seed=0)
    assert rep.mismatches == 0
    assert rep.detail["wedge_top"] == "0"


def reference_expm(m):
    """Per-matrix scaling-and-squaring exponential, the reference of the
    stacked `_expm`."""
    norm = np.linalg.norm(m, 1)
    k = max(0, int(math.ceil(math.log2(max(norm, 1e-16)))) + 1)
    small = m / (2 ** k)
    out = np.eye(m.shape[0])
    term = np.eye(m.shape[0])
    for i in range(1, 20):
        term = term @ small / i
        out = out + term
    for _ in range(k):
        out = out @ out
    return out


def reference_cocompatible_trials(trials, seed):
    """The suite trial by trial: (vmin, survived) per trial."""
    a0, a1 = sl.remark_pair()
    m0, m1 = a0.to_array(), a1.to_array()
    j_std = sl._compatible(m0)
    vmins, survived = [], []
    for trial in range(trials):
        rng = np.random.default_rng(seed + trial)
        c = rng.standard_normal((4, 4))
        ham = np.linalg.solve(m0, (c + c.T) / 2)
        s = reference_expm(ham * 0.5)
        j = sl.ComplexStructure(s @ j_std @ np.linalg.inv(s))
        m = m1 @ j.matrix
        vals, vecs = np.linalg.eigh((m + m.T) / 2)
        v = vecs[:, 0]
        vmins.append(float(vals[0]))
        survived.append(vals[0] > 0
                        or not float(v @ m1 @ (j.matrix @ v)) <= 1e-12)
    return np.array(vmins), np.array(survived, dtype=bool)


@pytest.mark.parametrize("seed", [0, 331, 600, 12345])
def test_stacked_cocompatible_trials_match_per_trial(seed):
    a0, a1 = sl.remark_pair()
    vmin, survived = sl._cocompatible_trials(a0, a1, range(seed, seed + 2000))
    ref_vmin, ref_survived = reference_cocompatible_trials(2000, seed)
    assert np.array_equal(vmin, ref_vmin)
    assert np.array_equal(vmin.view(np.int64), ref_vmin.view(np.int64))
    assert np.array_equal(survived, ref_survived)
    rep = sl.cocompatible_counterexample_suite(2000, seed)
    assert rep.worst_margin == max(ref_vmin.tolist())
    assert rep.mismatches == int(ref_survived.sum()) == 0


def test_stacked_expm_matches_per_matrix():
    # scales spread over several scaling exponents k, including k = 0
    rng = np.random.default_rng(7)
    m = rng.standard_normal((60, 4, 4)) * np.geomspace(1e-3, 40, 60)[:, None,
                                                                      None]
    out = sl._expm(m)
    ref = np.array([reference_expm(x) for x in m])
    assert np.array_equal(out.view(np.int64), ref.view(np.int64))
    assert sl._expm(np.empty((0, 4, 4))).shape == (0, 4, 4)


def test_cocompatible_suite_without_trials():
    rep = sl.cocompatible_counterexample_suite(0, seed=3)
    assert (rep.trials, rep.mismatches, rep.worst_margin) == (0, 0, -math.inf)


def test_cocompatible_suite_in_several_stacks(monkeypatch):
    whole = sl.cocompatible_counterexample_suite(100, seed=5)
    ref_vmin, _ = reference_cocompatible_trials(100, 5)
    assert whole.worst_margin == max(ref_vmin.tolist())
    stacks = []
    trials = sl._cocompatible_trials

    def recording(a0, a1, seeds):
        stacks.append(seeds)
        return trials(a0, a1, seeds)

    monkeypatch.setattr(sl, "_TRIAL_STACK", 7)
    monkeypatch.setattr(sl, "_cocompatible_trials", recording)
    assert sl.cocompatible_counterexample_suite(100, seed=5) == whole
    assert [s for seeds in stacks for s in seeds] == list(range(5, 105))
    assert max(len(seeds) for seeds in stacks) == 7


# seeds at the word boundaries of SeedSequence entropy (1, 2, 3, 4, 5 and 7
# words of 32 bits) and a fixed spread of 16- to 256-bit seeds
BOUNDARY_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128 - 1,
                  2**128, 2**200]
SPREAD_SEEDS = [random.Random(bits).getrandbits(bits)
                for bits in range(16, 257, 5)]


@pytest.mark.parametrize("seeds", [BOUNDARY_SEEDS, SPREAD_SEEDS,
                                   range(2**32 - 6, 2**32 + 6)],
                         ids=["boundaries", "spread", "straddle"])
def test_trial_rngs_give_the_streams_of_default_rng(seeds):
    for seed, rng in zip(seeds, sl._trial_rngs(seeds), strict=True):
        assert np.array_equal(
            rng.bit_generator.seed_seq.generate_state(4, np.uint64),
            np.random.SeedSequence(seed).generate_state(4, np.uint64))
        ref = np.random.default_rng(seed)
        assert np.array_equal(rng.standard_normal(9), ref.standard_normal(9))
        assert rng.uniform(0.1, 0.95) == ref.uniform(0.1, 0.95)


def test_importing_the_library_leaves_numpy_random_unloaded():
    # numpy.random costs a process about 5 MB; only the suites load it
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, liouville_lab.cli; print('numpy.random' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout == "False\n"


def test_cocompatible_suite_leaves_numpy_ma_unloaded():
    # _expm groups its scaling exponents without np.unique, which loads
    # numpy.ma (about 1 MB of peak memory on the first suite of a process)
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, liouville_lab.cli as cli; "
            "cli.run(['suite', '--name', 'cocompatible', '--json']); "
            "print('numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.splitlines()[-1] == "False"


def test_trial_rngs_refuse_what_default_rng_refuses():
    assert list(sl._trial_rngs([])) == []
    with pytest.raises(ValueError, match="expected non-negative integer"):
        np.random.default_rng(-1)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        sl._trial_rngs([3, -1])
    state = next(sl._trial_rngs([3])).bit_generator.seed_seq
    for n_words, dtype in ((8, np.uint64), (4, np.uint32), (2, np.uint64)):
        with pytest.raises(ValueError, match="only the 4 uint64 words"):
            state.generate_state(n_words, dtype)


def test_stacked_square_gate():
    j = np.array([sl._compatible(standard_omega(4).to_array())] * 3)
    sl._require_square_minus_identity(j)
    j[1, 0, 0] += 1e-9
    with pytest.raises(ValueError, match="does not square to -identity"):
        sl._require_square_minus_identity(j)
    with pytest.raises(ValueError, match="does not square to -identity"):
        sl.ComplexStructure(j[1])


def test_equivalence_suite_small():
    rep = sl.appendix_equivalence_suite(30, dims=(4, 6), seed=0)
    assert rep.mismatches == 0


def reference_appendix_trials(seed, dim, trials, replaced=None):
    """_appendix_trials as a loop over its trials, each built alone by the
    single-pencil construction: the former per-trial loop, with the member's
    collapse measured against the size of its two terms.  `replaced` maps a
    trial to the two skew matrices that stand in for its draw."""
    bad = ill = 0
    margins = []
    for trial in range(trials):
        if trial in (replaced or {}):
            a0, a1 = (sl.SkewForm(m) for m in replaced[trial])
        else:
            a0, a1 = reference_pair(np.random.default_rng(seed + trial), dim)
        pencil = sl._analyse(a0, a1)
        vals = pencil.spectrum
        negative = [lam.real for lam in vals if lam.real < 0
                    and abs(lam.imag) <= 1e-8 * abs(lam.real)]
        if negative:
            t0 = 1.0 / (1.0 - min(negative))
            m0, m1 = a0.to_array(), a1.to_array()
            sv = np.linalg.svd((1 - t0) * m0 + t0 * m1, compute_uv=False)
            size = abs(1 - t0) * np.max(np.abs(m0)) + t0 * np.max(np.abs(m1))
            if sv[-1] > 1e-8 * size:
                bad += 1
                continue
            try:
                sl._construct(pencil, 1e-3)
                bad += 1
            except sl.CotamedExistenceError:
                pass
        elif any(lam.real <= 0 for lam in vals
                 if abs(lam.imag) <= 1e-8 * max(1.0, abs(lam.real))):
            bad += 1
        else:
            try:
                j = sl._construct(pencil, 1e-3)
            except sl.PencilError:
                ill += 1
                continue
            except sl.RetryExhaustedError:
                bad += 1
                continue
            margin = min(reference_taming_margin(a0, j),
                         reference_taming_margin(a1, j))
            margins.append(margin)
            if margin <= 0:
                bad += 1
    return bad, ill, margins


# (seed, dim) of _appendix_trials: the bench suite seeds at every dimension,
# and three stacks with a trial whose construction fails, so that its
# layout is built again one trial at a time
STACKED_TRIALS = ([(331 + 7919 * dim, dim) for dim in (2, 4, 6, 8, 10, 12)]
                  + [(600 + 7919 * dim, dim) for dim in (4, 10)]
                  + [(73514, 6), (197352, 8), (235190, 10)])


@pytest.mark.parametrize("seed, dim", STACKED_TRIALS)
def test_appendix_trials_match_single_pencil_constructions(seed, dim):
    # every trial's margin bit for bit, not only the worst one, and the
    # mismatch and ill-conditioned counts
    bad, ill, margins = sl._appendix_trials(seed, dim, range(100))
    want_bad, want_ill, want = reference_appendix_trials(seed, dim, 100)
    assert (bad, ill) == (want_bad, want_ill)
    assert len(margins) == len(want)
    assert np.array_equal(np.array(margins).view(np.int64),
                          np.array(want).view(np.int64))


def test_ill_conditioned_trials_count_alike_in_stacks(monkeypatch):
    # every third clustering fails: the suite clusters its trials in trial
    # order, as the per-trial loop's constructions do, so both count the
    # same trials as ill-conditioned
    real = sl._cluster_eigenvalues

    def run(fn, *args):
        calls = []

        def every_third(vals):
            calls.append(len(vals))
            if len(calls) % 3 == 0:
                raise sl.PencilError("eigenvalue clusters separated by only 0")
            return real(vals)

        monkeypatch.setattr(sl, "_cluster_eigenvalues", every_third)
        return fn(*args), len(calls)

    (bad, ill, margins), calls = run(sl._appendix_trials, 331 + 7919 * 8, 8,
                                     range(100))
    want, want_calls = run(reference_appendix_trials, 331 + 7919 * 8, 8, 100)
    assert ill == calls // 3 > 0 and calls == want_calls
    assert (bad, ill) == want[:2]
    assert np.array_equal(np.array(margins).view(np.int64),
                          np.array(want[2]).view(np.int64))


def test_appendix_suite_splits_no_two_dimensional_eigenspace(counted_calls):
    # at the bench suite seed every built trial has clusters of size 2
    # only: no _nilpotency_index call (238 when each trial was built
    # alone), and one construction per block layout, 8 over the four
    # dimensions; the refused trials are not built
    calls = {}
    counted_calls(sl, "_nilpotency_index", calls)
    counted_calls(sl, "_construct", calls)
    rep = sl.appendix_equivalence_suite(100, dims=(4, 6, 8, 10), seed=331)
    assert (rep.mismatches, rep.detail["ill_conditioned_reported"]) == (0, 0)
    assert calls == {"_construct": 8}


def test_appendix_trials_build_a_larger_eigenspace_alone(monkeypatch):
    # the draws of trials 3 and 11 of 20 are replaced by congruences of the
    # model pair with real blocks 2, 2 and 5: B has the eigenvalue 2 four
    # times, so the two share a layout with a cluster of size 4; they are
    # built one at a time, while the generic trials still run in stacks
    m0, m1 = sl._model_matrices([sl.RealBlock(2.0, 1), sl.RealBlock(2.0, 1),
                                 sl.RealBlock(5.0, 1)])
    rng = np.random.default_rng(3)
    replaced = {}
    for trial in (3, 11):
        p = rng.standard_normal((6, 6))
        replaced[trial] = [(x - x.T) / 2 for x in (p.T @ m0 @ p,
                                                   p.T @ m1 @ p)]
    draws = sl._nondegenerate_draws

    def replacing(rngs, dim, count):
        forms = draws(rngs, dim, count)
        for trial, pair in replaced.items():
            forms[trial] = pair
        return forms

    construct = sl._construct
    stacked, alone = [], []

    def recording(p, eps):
        if p.b.ndim == 3:
            stacked.append(max(mult for _, mult in p.clusters))
        else:
            alone.append(max(mult for _, mult in sl._cluster_eigenvalues(
                p.spectrum)))
        return construct(p, eps)

    want_bad, want_ill, want = reference_appendix_trials(
        600 + 7919 * 6, 6, 20, replaced)
    monkeypatch.setattr(sl, "_nondegenerate_draws", replacing)
    monkeypatch.setattr(sl, "_construct", recording)
    bad, ill, margins = sl._appendix_trials(600 + 7919 * 6, 6, range(20))
    assert (bad, ill) == (want_bad, want_ill)
    assert np.array_equal(np.array(margins).view(np.int64),
                          np.array(want).view(np.int64))
    assert stacked and max(stacked) == 2
    assert alone.count(4) == 2


def test_a_stack_of_pencils_splits_no_larger_eigenspace():
    # B = 2 I on dimension 4 for both pencils: a 4-dimensional eigenspace
    m0, m1 = sl._model_matrices([sl.RealBlock(2.0, 1), sl.RealBlock(2.0, 1)])
    b = np.stack([np.linalg.solve(m0, m1)] * 2)
    lam = np.array([2.0, 2.0])
    space = sl._generalized_eigenspace(b, lam, 4)
    assert space.shape == (2, 4, 4)
    with pytest.raises(ArithmeticError, match="only 2-dimensional"):
        sl._extract_chains(b, np.stack([m0] * 2), lam, space, 1e-3)
    blocks, _ = sl._extract_chains(b[:1], m0[None], lam[:1], space[:1], 1e-3)
    assert blocks == [[sl.RealBlock(2.0, 1), sl.RealBlock(2.0, 1)]]


# -- exact pencil kernels against their former implementations ---------------------


def faddeev_leverrier_charpoly(b):
    """Reference charpoly (ascending): n exact matrix products, O(n^4)."""
    n = len(b)
    coeffs = [Q(1)]
    mk = [[Q(0)] * n for _ in range(n)]
    c = Q(1)
    for k in range(1, n + 1):
        mk = _poly.mat_mul(b, mk)
        for i in range(n):
            mk[i][i] += c
        bm = _poly.mat_mul(b, mk)
        c = -Q(sum(bm[i][i] for i in range(n)), k)
        coeffs.append(c)
    return list(reversed(coeffs))


def pfaffian_by_expansion(rows):
    """Reference Pfaffian: expansion along the first row, (n-1)!! leaves."""
    n = len(rows)
    if n == 0:
        return Q(1)
    total = Q(0)
    sign = 1
    for j in range(1, n):
        c = rows[0][j]
        if c != 0:
            keep = [k for k in range(1, n) if k != j]
            sub = [[rows[a][b] for b in keep] for a in keep]
            total += sign * c * pfaffian_by_expansion(sub)
        sign = -sign
    return total


def poly_add(p, q):
    """p + q of two ascending Fraction lists, trimmed."""
    return _poly.trim([a + b for a, b in zip_longest(p, q, fillvalue=0)])


def hessenberg_charpoly(b):
    """Reference charpoly (ascending) in Fractions, in O(n^3).

    Similarities (row i -= u row m, column m += u column i, after a swap that
    puts a nonzero pivot at h[m][m-1]) make b upper Hessenberg; det(x - H)
    follows the recurrence of Cohen, A Course in Computational Algebraic
    Number Theory, Alg. 2.2.9.
    """
    h = [row[:] for row in b]
    n = len(h)
    for m in range(1, n - 1):
        piv = next((i for i in range(m, n) if h[i][m - 1] != 0), None)
        if piv is None:
            continue
        if piv != m:
            h[m], h[piv] = h[piv], h[m]
            for row in h:
                row[m], row[piv] = row[piv], row[m]
        t = h[m][m - 1]
        for i in range(m + 1, n):
            u = h[i][m - 1] / t
            if u == 0:
                continue
            h[i] = h[i][:m - 1] + [x - u * y for x, y in
                                   zip(h[i][m - 1:], h[m][m - 1:])]
            for row in h:
                row[m] += u * row[i]
    polys = [[Q(1)]]
    for m in range(1, n + 1):
        p = _poly.mul([-h[m - 1][m - 1], Q(1)], polys[m - 1])
        t = Q(1)
        for i in range(1, m):
            t *= h[m - i][m - i - 1]
            if t == 0:
                break
            c = t * h[m - i - 1][m - 1]
            p = poly_add(p, [-c * a for a in polys[m - i - 1]])
        polys.append(p)
    return polys[n]


RATIONAL = st.builds(Q, st.integers(-6, 6), st.integers(1, 4))


def sparse_entries(data):
    """Entry strategy whose share of zeros is drawn first (none to most)."""
    zeros = data.draw(st.integers(0, 4))
    return st.one_of(*[st.just(Q(0))] * zeros, RATIONAL)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(st.data())
def test_hessenberg_charpoly_matches_faddeev_leverrier(data):
    n = data.draw(st.integers(1, 12))
    entry = sparse_entries(data)
    b = [data.draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    want = faddeev_leverrier_charpoly(b)
    assert hessenberg_charpoly(b) == want
    assert _poly.charpoly(b) == want


@pytest.mark.parametrize("b", [
    [[1, 2, 3], [0, 4, 5], [6, 7, 8]],            # subdiagonal pivot swap
    [[1, 2, 3], [0, 4, 5], [0, 7, 8]],            # zero column: skipped
    [[0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]],
    [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]],
    [[5]],
])
def test_hessenberg_charpoly_swap_and_skip(b):
    b = [[Q(x) for x in row] for row in b]
    want = faddeev_leverrier_charpoly(b)
    assert hessenberg_charpoly(b) == want
    assert _poly.charpoly(b) == want


def skew_from_upper(n, upper):
    rows = [[Q(0)] * n for _ in range(n)]
    at = 0
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j], rows[j][i] = upper[at], -upper[at]
            at += 1
    return rows


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.data())
def test_is_nondegenerate_matches_pfaffian_expansion(data):
    n = data.draw(st.sampled_from([2, 4, 6, 8]))
    entry = sparse_entries(data)
    rows = skew_from_upper(n, data.draw(st.lists(
        entry, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2)))
    if data.draw(st.booleans()):
        # a zero first row: singular whatever the rest is
        rows = skew_from_upper(n, [Q(0)] * (n - 1) + [
            rows[i][j] for i in range(1, n) for j in range(i + 1, n)])
    assert sl.is_nondegenerate(sl.SkewForm(rows)) == (
        pfaffian_by_expansion(rows) != 0)


@pytest.mark.parametrize("upper, expected", [
    ([0, 0, 0, 0, 0, 5], 0),       # zero first row
    ([0, 3, 0, 0, 2, 0], -6),      # a[0][1] = 0: the elimination pivots
    ([0, 0, 7, 1, 0, 0], 7),       # pivot in the last column
    ([1, 0, 0, 0, 0, 1], 1),
])
def test_is_nondegenerate_pivots(upper, expected):
    rows = skew_from_upper(4, [Q(x) for x in upper])
    assert pfaffian_by_expansion(rows) == expected
    assert sl.is_nondegenerate(sl.SkewForm(rows)) == (expected != 0)


# -- the paired spectrum of a skew pencil -------------------------------------------
#
# det(x A0 - A1) = Pf(x A0 - A1)^2 for skew A0, A1, so the charpoly of
# B = A0^{-1} A1 is a square and the Jordan blocks of B come in equal pairs
# (R. C. Thompson, Lin. Alg. Appl. 147, 1991): a 2-dimensional generalized
# eigenspace carries no chain, which is why the float reduction calls no
# _nilpotency_index there.


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.data())
def test_exact_charpoly_of_a_skew_pencil_is_a_square(data):
    n = data.draw(st.sampled_from([2, 4, 6, 8]))
    entry = sparse_entries(data)
    size = n * (n - 1) // 2
    a0, a1 = (skew_from_upper(n, data.draw(st.lists(
        entry, min_size=size, max_size=size))) for _ in range(2))
    b = _poly.solve(a0, a1)
    assume(b is not None)
    charpoly = _poly.charpoly(b)
    h = _poly.square_root(charpoly)
    assert _poly.mul(h, h) == charpoly


def test_non_square_charpoly_is_an_arithmetic_error(monkeypatch):
    # there is no fallback: a charpoly that is not h^2 ends the analysis
    real = _poly.charpoly
    monkeypatch.setattr(_poly, "charpoly",
                        lambda b: poly_add(real(b), [Q(0), Q(1)]))
    a0, a1 = congruent_rational_pencil([Q(1, 2), 3], P4)
    with pytest.raises(ArithmeticError, match="not a square"):
        sl._analyse(a0, a1)


# -- the integer exact path against its Fraction reference ---------------------------


def frac_row(u, m):
    """The row vector u^T M, in Fractions (sum_j u_j M[j])."""
    return [frac_dot(u, col) for col in zip(*m)]


def frac_dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def frac_kernel(rows):
    nums, den = _poly.kernel(rows)
    return [[Q(x, den) for x in vec] for vec in nums]


def fraction_exact_reduce(p):
    """The Fraction reduction that the integer _try_exact_reduce replaced,
    kept as its reference: O(n^3) Fraction operations, the roots from the
    full Hessenberg charpoly and the eigenspaces from B - lam."""
    n = p.a0.dim
    m0 = p.a0.matrix
    m1 = p.a1.matrix
    roots = _poly.rational_roots(hessenberg_charpoly(p.b))
    if sum(m for _, m in roots) != n:
        return None
    columns = []
    blocks = []
    for lam, mult in sorted(roots, key=lambda t: -t[0]):
        space = frac_kernel([[x - lam if i == j else x
                              for j, x in enumerate(row)]
                             for i, row in enumerate(p.b)])
        if len(space) != mult:
            return None
        while space:
            v0 = space[0]
            v_row = frac_row(v0, m0)
            pairs = [frac_dot(v_row, s) for s in space]
            at = next((j for j, x in enumerate(pairs) if x != 0), None)
            if at is None:
                raise ArithmeticError("inconsistent pairing system")
            w0 = [x / pairs[at] for x in space[at]]
            columns += [v0, w0]
            blocks.append(sl.RealBlock(lam, 1))
            w_row = frac_row(w0, m0)
            constraints = [pairs, [frac_dot(w_row, s) for s in space]]
            space = [frac_row(c, space) for c in frac_kernel(constraints)]
    basis = np.array([[float(x) for x in col] for col in zip(*columns)])
    model0, model1 = sl._model_matrices(blocks)
    rows0 = [frac_row(u, m0) for u in columns]
    if not all(frac_dot(rows0[i], columns[j]) == model0[i][j]
               for i in range(n) for j in range(n)):
        return None
    rows1 = [frac_row(u, m1) for u in columns]
    r1 = max(abs(float(frac_dot(rows1[i], columns[j])) - model1[i][j])
             for i in range(n) for j in range(n))
    return sl.PencilBlocks(blocks, basis, 0.0, 0.0, r1)


EXACT_POOL = [Q(1, 3), Q(5, 4), Q(9, 7), Q(2), Q(-1, 2), Q(-7, 4), Q(3)]


def exact_block_model(units):
    """The exact pair A0 = [[0, I], [-I, 0]], A1 = [[0, S], [-S^T, 0]] per
    d x d unit S, blockwise; B is diag(S^T, S) on each block."""
    size = 2 * sum(len(u) for u in units)
    a0 = [[Q(0)] * size for _ in range(size)]
    a1 = [[Q(0)] * size for _ in range(size)]
    at = 0
    for u in units:
        d = len(u)
        for i in range(d):
            a0[at + i][at + d + i], a0[at + d + i][at + i] = Q(1), Q(-1)
            for j in range(d):
                a1[at + i][at + d + j] = Q(u[i][j])
                a1[at + d + j][at + i] = -Q(u[i][j])
        at += 2 * d
    return a0, a1


@st.composite
def exact_pencil_draws(draw):
    """(A0, A1, semisimple): a rational congruence P^T M P (entries of P
    in [-4, 4] over 1, 2, 3, 4 or 7) of a block model of dimension 2 to 10.
    Real eigenvalues repeat; a draw may add a rational Jordan chain, a real
    irrational pair sqrt(c) or a complex pair, and then has no exact
    reduction."""
    other = draw(st.sampled_from(["none"] * 4 + ["chain", "irrational",
                                                 "complex"]))
    size = draw(st.integers(1, 5 if other == "none" else 3))
    pool = draw(st.lists(st.sampled_from(EXACT_POOL), min_size=1,
                         max_size=3, unique=True))
    units = [[[lam]] for lam in draw(st.lists(
        st.sampled_from(pool), min_size=size, max_size=size))]
    lam = draw(st.sampled_from(EXACT_POOL))
    if other == "chain":
        units.append([[lam, 1], [0, lam]])
    elif other == "irrational":
        units.append([[0, draw(st.sampled_from([2, 3, 5]))], [1, 0]])
    elif other == "complex":
        units.append([[lam, 1], [-1, lam]])
    m0, m1 = exact_block_model(draw(st.permutations(units)))
    n = len(m0)
    entry = st.builds(Q, st.integers(-4, 4), st.sampled_from([1, 2, 3, 4, 7]))
    p = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    assume(_poly.frac_det(p) != 0)
    pt = [list(col) for col in zip(*p)]
    a0, a1 = (sl.SkewForm(_poly.mat_mul(pt, _poly.mat_mul(m, p)))
              for m in (m0, m1))
    return a0, a1, other == "none"


@settings(derandomize=True, max_examples=80, deadline=None)
@given(exact_pencil_draws())
def test_integer_exact_reduce_matches_fraction_reference(draw):
    a0, a1, semisimple = draw
    pencil = sl._analyse(a0, a1)
    ref = fraction_exact_reduce(pencil)
    got = sl._try_exact_reduce(pencil)
    assert (ref is not None) == semisimple
    if ref is None:
        assert got is None
        return
    assert got.blocks == ref.blocks
    assert got.basis.tobytes() == ref.basis.tobytes()
    assert (got.eps, got.omega0_residual, got.omega1_residual) == (
        ref.eps, ref.omega0_residual, ref.omega1_residual)


def leading_minors_positive(sym):
    """The n-elimination loop that _exact_positive_definite replaced, kept
    as its reference: the Bareiss determinant of every leading minor."""
    n = len(sym)
    for k in range(1, n + 1):
        minor = [row[:k] for row in sym[:k]]
        if _poly.frac_det(minor) <= 0:
            return False
    return True


@pytest.mark.parametrize("sym, definite", [
    ([[2, 1], [1, 2]], True),
    ([[0, 1], [1, 0]], False),                # zero first minor, det < 0
    ([[0, 0], [0, 1]], False),                # zero first minor, det 0
    ([[1, 1], [1, 1]], False),                # singular second minor
    ([[1, 2], [2, 1]], False),                # negative second minor
    ([[1, 0, 0], [0, 0, 1], [0, 1, 5]], False),
    ([[Q(1, 2), Q(1, 3)], [Q(1, 3), Q(1, 4)]], True),
    ([[-1]], False),
])
def test_positive_definite_cases(sym, definite):
    sym = [[Q(x) for x in row] for row in sym]
    assert sl._exact_positive_definite(sym) == definite
    assert leading_minors_positive(sym) == definite


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data())
def test_positive_definite_matches_leading_minor_loop(data):
    # G^T D G: definite for D > 0 and G invertible, singular leading minors
    # from zeros in D or a rank-deficient G, negative ones from D < 0
    n = data.draw(st.integers(1, 7))
    entry = sparse_entries(data)
    g = [data.draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    d = data.draw(st.lists(st.sampled_from([Q(0), Q(-1), Q(1), Q(2, 3)]),
                           min_size=n, max_size=n))
    sym = [[sum(g[k][i] * d[k] * g[k][j] for k in range(n))
            for j in range(n)] for i in range(n)]
    if data.draw(st.booleans()):
        # a symmetric shift: indefinite and singular minors in the middle
        shift = data.draw(entry)
        for i in range(n):
            sym[i][i] += shift
    assert sl._exact_positive_definite(sym) == leading_minors_positive(sym)


BENCH_REAL_POOL = [0.5 + 0.25 * i for i in range(15)]
# (dimension, complex blocks) of the benchmark's float pencils
BENCH_FLOAT_LAYOUTS = [(4, 0), (6, 1), (8, 1), (10, 2), (4, 1), (6, 0),
                       (8, 2), (10, 1)]


@st.composite
def float_skew_pencils(draw):
    """(A0, A1): a random skew pair of dimension 2 to 10, as the appendix
    suite draws it, or a congruence of a benchmark float pencil's model
    pair (distinct real eigenvalues from the bench pool, complex blocks as
    the bench draws them, cond(P) < 100)."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        a0, a1 = reference_pair(rng, draw(st.sampled_from([2, 4, 6, 8, 10])))
        return a0.to_array(), a1.to_array()
    dim, n_cplx = draw(st.sampled_from(BENCH_FLOAT_LAYOUTS))
    lams = draw(st.permutations(BENCH_REAL_POOL))[:dim // 2 - 2 * n_cplx]
    mus = st.sampled_from([-1.0, -0.5, 0.5, 1.0])
    nus = st.sampled_from([0.75, 1.25, 1.75])
    blocks = [sl.RealBlock(lam, 1) for lam in lams] + [
        sl.ComplexBlock(draw(mus) + 0.1 * i, draw(nus) + 0.1 * i, 1)
        for i in range(n_cplx)]
    m0, m1 = sl._model_matrices(blocks)
    while True:
        p = rng.standard_normal((dim, dim))
        if np.linalg.cond(p) < 100:
            break
    return p.T @ m0 @ p, p.T @ m1 @ p


@settings(derandomize=True, max_examples=150, deadline=None)
@given(float_skew_pencils())
def test_two_dimensional_eigenspaces_carry_no_chain(pencil):
    # the reference: _nilpotency_index, which larger clusters still call,
    # finds k = 0 on every 2-dimensional generalized eigenspace
    m0, m1 = ((m - m.T) / 2 for m in pencil)
    p = sl._analyse(sl.SkewForm(m0), sl.SkewForm(m1))
    try:
        clusters = sl._cluster_eigenvalues(p.spectrum)
    except sl.PencilError:
        assume(False)
    n = len(m0)
    seen = 0
    for lam, mult in clusters:
        b = p.b.astype(complex) if isinstance(lam, complex) else p.b
        space = sl._generalized_eigenspace(b[None], np.array([lam]), mult)[0]
        if space.shape[1] == 2:
            k, _ = sl._nilpotency_index(b - lam * np.eye(n), space)
            assert k == 0
            seen += 1
    assert seen == len(clusters)


# -- one exact reduction per cotamed construction ------------------------------------


def congruent_rational_pencil(real, p):
    """(P^T A0 P, P^T A1 P) for the exact model pair of real eigenvalues."""
    n = 2 * len(real)
    a0 = [[Q(0)] * n for _ in range(n)]
    a1 = [[Q(0)] * n for _ in range(n)]
    for k, lam in enumerate(real):
        a0[2 * k][2 * k + 1], a0[2 * k + 1][2 * k] = Q(1), Q(-1)
        a1[2 * k][2 * k + 1], a1[2 * k + 1][2 * k] = Q(lam), -Q(lam)

    def cong(m):
        mp = _poly.mat_mul(m, p)
        pt = [list(col) for col in zip(*p)]
        return _poly.mat_mul(pt, mp)

    return sl.SkewForm(cong(a0)), sl.SkewForm(cong(a1))


P4 = [[Q(x) for x in row] for row in
      [[1, 2, 0, -1], [0, 1, 3, 1], [2, 0, 1, 1], [1, -1, 0, 2]]]

# an ill-conditioned rational pencil (eigenvalues 8/3, 4, 4/3): its exact
# basis has cond ~2.4e4 and the float J built from it misses J^2 = -I
ILL_CONDITIONED_O0 = [
    [0, 6, -2, 8, 21, 3], [-6, 0, -1, 7, 6, 2], [2, 1, 0, 7, -11, 2],
    [-8, -7, -7, 0, 17, 4], [-21, -6, 11, -17, 0, 12],
    [-3, -2, -2, -4, -12, 0]]
ILL_CONDITIONED_O1 = [
    ["0", "24", "-88/3", "136/3", "48", "64/3"],
    ["-24", "0", "4/3", "12", "28", "28/3"],
    ["88/3", "-4/3", "0", "76/3", "-52/3", "-40/3"],
    ["-136/3", "-12", "-76/3", "0", "136/3", "100/3"],
    ["-48", "-28", "52/3", "-136/3", "0", "68/3"],
    ["-64/3", "-28/3", "40/3", "-100/3", "-68/3", "0"]]


@pytest.fixture
def exact_reductions(monkeypatch):
    calls = []
    real = sl._try_exact_reduce

    def counted(pencil):
        calls.append(pencil)
        return real(pencil)

    monkeypatch.setattr(sl, "_try_exact_reduce", counted)
    return calls


def test_cotamed_reduces_an_exact_pencil_once(exact_reductions):
    a0, a1 = congruent_rational_pencil([Q(1, 2), 3], P4)
    j = sl.construct_cotamed(a0, a1)
    assert sl.tames(a0, j) and sl.tames(a1, j)
    assert len(exact_reductions) == 1


def test_ill_conditioned_exact_pencil_fails_after_one_reduction(
        exact_reductions):
    a0 = sl.SkewForm([[Q(x) for x in row] for row in ILL_CONDITIONED_O0])
    a1 = sl.SkewForm([[Q(x) for x in row] for row in ILL_CONDITIONED_O1])
    with pytest.raises(sl.RetryExhaustedError) as err:
        sl.construct_cotamed(a0, a1)
    assert str(err.value) == (
        "cotamed construction failed (cond(A0)=1.07e+01, "
        "cond(A1)=1.24e+01): matrix does not square to -identity")
    assert len(exact_reductions) == 1


def chain_pencil(seed):
    """A float congruence of the model pair of one real chain of length 2
    (eigenvalue 2, coupling 1e-3), P standard normal from the seed."""
    a0m, a1m = sl._model_matrices([sl.RealBlock(2.0, 2)], 1e-3)
    p = np.random.default_rng(seed).standard_normal((4, 4))
    return sl.SkewForm(p.T @ a0m @ p), sl.SkewForm(p.T @ a1m @ p)


@pytest.fixture
def float_reductions(monkeypatch):
    """The eps of every float reduction, in call order."""
    seen = []
    real = sl._float_reduce

    def recorded(pencil, clusters, eps):
        seen.append(eps)
        return real(pencil, clusters, eps)

    monkeypatch.setattr(sl, "_float_reduce", recorded)
    return seen


def test_failing_float_chain_pencil_is_reduced_once(monkeypatch,
                                                   counted_calls,
                                                   exact_reductions,
                                                   float_reductions):
    # with every taming check failing, a float pencil with a Jordan chain is
    # reduced once, at the given eps, over one clustering of its spectrum;
    # so are a chain-free float pencil and an exact one
    seen = float_reductions
    calls = {}
    counted_calls(sl, "_cluster_eigenvalues", calls)
    monkeypatch.setattr(sl, "tames", lambda a, j, tol=1e-10: False)
    with pytest.raises(sl.RetryExhaustedError, match="taming verification"):
        sl.construct_cotamed(*chain_pencil(3), eps=2e-3)
    assert seen == [2e-3]
    assert calls == {"_cluster_eigenvalues": 1}
    a0, a1 = congruent_rational_pencil([Q(1, 2), 3], P4)
    fa0, fa1 = sl.SkewForm(a0.to_array()), sl.SkewForm(a1.to_array())
    for argv, want in (([fa0, fa1], [1e-3]), ([a0, a1], [])):
        seen.clear()
        with pytest.raises(sl.RetryExhaustedError, match="taming verification"):
            sl.construct_cotamed(*argv)
        assert seen == want
    assert len(exact_reductions) == 1


def test_pencil_reduce_takes_the_one_reduction(float_reductions):
    # pencil-reduce reduces a chain pencil once, at the given eps
    red = sl.simultaneous_reduce(*chain_pencil(3))
    assert [b.chain_length for b in red.blocks] == [2]
    assert float_reductions == [1e-3] and red.eps == 1e-3


def test_float_reduction_failing_its_gate_is_not_retried(monkeypatch):
    # a float chain reduction that misses the w1 gate at eps raises at once
    seen = []
    real = sl._float_reduce

    def off_gate(pencil, clusters, eps):
        seen.append(eps)
        red = real(pencil, clusters, eps)
        red.omega1_residual = 11 * eps
        return red

    monkeypatch.setattr(sl, "_float_reduce", off_gate)
    with pytest.raises(sl.RetryExhaustedError,
                       match=r"^reduction failed: residuals "):
        sl.simultaneous_reduce(*chain_pencil(3))
    assert seen == [1e-3]


def test_rational_pencil_needs_no_pfaffian_and_no_float_solve(monkeypatch):
    # the exact solve and charpoly decide existence and nondegeneracy
    def forbidden(*args):
        raise AssertionError("called on a rational pencil")

    for name in ("is_nondegenerate", "_float_endomorphism"):
        monkeypatch.setattr(sl, name, forbidden)
    a0, a1 = congruent_rational_pencil([Q(1, 2), 3], P4)
    j = sl.construct_cotamed(a0, a1)
    assert sl.tames(a0, j) and sl.tames(a1, j)
    assert sl.simultaneous_reduce(a0, a1).eps == 0.0


def test_exact_pencil_names_the_degenerate_form():
    a0, a1 = congruent_rational_pencil([Q(1, 2), 3], P4)
    pencil = sl._analyse(a0, a1)
    assert pencil.exact
    assert _poly.mat_mul(a0.matrix, pencil.b) == a1.matrix
    assert _poly.mul(pencil.spectrum, pencil.spectrum) == (
        faddeev_leverrier_charpoly(pencil.b))
    zero = sl.SkewForm([[Q(0)] * 4 for _ in range(4)])
    for pair, message in (((zero, a1), "omega_0"), ((a0, zero), "omega_1")):
        for call in (sl._analyse, sl.simultaneous_reduce,
                     sl.construct_cotamed):
            with pytest.raises(ValueError, match=f"{message} is degenerate"):
                call(*pair)


def test_cotame_analyses_its_pencil_once(counted_calls):
    # B and its spectrum do not depend on eps: existence, the reduction and
    # the construction all read one analysis
    calls = {}
    counted_calls(sl, "_float_endomorphism", calls)
    counted_calls(_poly, "charpoly", calls)
    counted_calls(np.linalg, "eigvals", calls)
    counted_calls(np.linalg, "det", calls)
    a0, a1 = congruent_rational_pencil([Q(1, 2), 3], P4)
    fa0, fa1 = sl.SkewForm(a0.to_array()), sl.SkewForm(a1.to_array())
    for argv, want in (
            ([fa0, fa1], {"_float_endomorphism": 1, "eigvals": 1, "det": 2}),
            ([a0, a1], {"charpoly": 1})):
        calls.clear()
        j = sl.construct_cotamed(*argv)
        assert sl.tames(argv[0], j) and sl.tames(argv[1], j)
        assert calls == want


def test_rational_cotame_builds_one_sturm_chain_of_h(counted_calls):
    # the ray test and the rational roots of the exact reduction share it
    calls = {}
    counted_calls(_poly, "sturm_chain", calls)
    a0, a1 = congruent_rational_pencil([Q(1, 2), 3], P4)
    j = sl.construct_cotamed(a0, a1)
    assert sl.tames(a0, j) and sl.tames(a1, j)
    assert calls == {"sturm_chain": 1}
    h = sl._analyse(a0, a1).spectrum
    assert (_poly.rational_roots(h, _poly.sturm_chain(h))
            == _poly.rational_roots(h) == [(Q(1, 2), 1), (Q(3), 1)])


def test_skew_form_keeps_its_fraction_entries():
    rows = [[Q(0), Q(1, 3)], [Q(-1, 3), Q(0)]]
    form = sl.SkewForm(rows)
    assert all(x is y for r, fr in zip(rows, form.matrix)
               for x, y in zip(r, fr))
    assert sl.SkewForm([[0, "1/3"], [Q(-1, 3), 0]]).matrix == rows


def test_rational_fallback_solves_in_float_once(monkeypatch, counted_calls):
    # the remark pair's B has no rational eigenvalue, so its exact analysis
    # gives way to the float reduction; its spectrum has no Jordan chain,
    # so even with every taming check failing the exact attempt, the
    # clustering and the float reduction each run once
    calls = {}
    for name in ("_float_endomorphism", "_try_exact_reduce",
                 "_cluster_eigenvalues", "_float_reduce"):
        counted_calls(sl, name, calls)
    counted_calls(_poly, "charpoly", calls)
    counted_calls(np.linalg, "eigvals", calls)
    monkeypatch.setattr(sl, "tames", lambda a, j, tol=1e-10: False)
    with pytest.raises(sl.RetryExhaustedError, match="taming verification"):
        sl.construct_cotamed(*sl.remark_pair())
    assert calls == {"charpoly": 1, "_float_endomorphism": 1,
                     "eigvals": 1, "_try_exact_reduce": 1,
                     "_cluster_eigenvalues": 1, "_float_reduce": 1}


def test_appendix_suite_analyses_each_trial_once(monkeypatch):
    # one stacked solve and one stacked eigvals per dimension and stack of
    # trials, which every trial's construction reads
    calls = {"_float_endomorphism": [], "eigvals": []}
    for owner, name in ((sl, "_float_endomorphism"), (np.linalg, "eigvals")):
        raw = getattr(owner, name)

        def counted(*args, _raw=raw, _name=name):
            calls[_name].append(args[-1].shape)
            return _raw(*args)

        monkeypatch.setattr(owner, name, counted)
    monkeypatch.setattr(sl, "_TRIAL_STACK", 6)
    rep = sl.appendix_equivalence_suite(10, dims=(4, 6), seed=331)
    assert rep.trials == 20
    shapes = [(6, 4, 4), (4, 4, 4), (6, 6, 6), (4, 6, 6)]
    assert calls == {"_float_endomorphism": shapes, "eigvals": shapes}


# -- exact existence on rational pencils ---------------------------------------------


def test_exact_existence_near_a_zero_eigenvalue():
    # B has the double eigenvalue -1e-10: float eigvals splits it into a
    # pair with imaginary parts ~1e-16, above the 1e-8 relative tolerance,
    # so only the Sturm count on the exact charpoly finds it
    a0, a1 = congruent_rational_pencil([Q(-1, 10 ** 10), 1], P4)
    assert not sl._analyse(a0, a1).ray_nondegenerate()
    with pytest.raises(sl.CotamedExistenceError):
        sl.construct_cotamed(a0, a1)
    a0, a1 = congruent_rational_pencil([Q(1, 10 ** 10), 1], P4)
    assert sl._analyse(a0, a1).ray_nondegenerate()


# -- block builders against their former per-kind implementations ------------------


def per_kind_model(blocks):
    """Reference: the model pair with one branch per block kind."""
    size = sum(b.size for b in blocks)
    a0 = np.zeros((size, size))
    a1 = np.zeros((size, size))
    at = 0
    for b in blocks:
        m = b.chain_length
        if isinstance(b, sl.RealBlock):
            lam_blk = float(b.eigenvalue) * np.eye(m)
            eye = np.eye(m)
            a0[at:at + m, at + m:at + 2 * m] = eye
            a0[at + m:at + 2 * m, at:at + m] = -eye
            a1[at:at + m, at + m:at + 2 * m] = lam_blk
            a1[at + m:at + 2 * m, at:at + m] = -lam_blk.T
            at += 2 * m
        else:
            rot = np.array([[b.mu, b.nu], [-b.nu, b.mu]])
            big = 2 * m
            lam_blk = np.zeros((big, big))
            id_blk = np.zeros((big, big))
            for i in range(m):
                lam_blk[2 * i:2 * i + 2, 2 * i:2 * i + 2] = rot
                id_blk[2 * i:2 * i + 2, 2 * i:2 * i + 2] = np.eye(2)
            a0[at:at + big, at + big:at + 2 * big] = id_blk
            a0[at + big:at + 2 * big, at:at + big] = -id_blk
            a1[at:at + big, at + big:at + 2 * big] = lam_blk
            a1[at + big:at + 2 * big, at:at + big] = -lam_blk.T
            at += 2 * big
    return a0, a1


def per_kind_model_with_chain_eps(blocks, eps):
    """Reference: the model pair plus the eps chain couplings, per kind."""
    a0, a1 = per_kind_model(blocks)
    at = 0
    for b in blocks:
        m = b.chain_length
        if isinstance(b, sl.RealBlock):
            for i in range(m - 1):
                a1[at + i, at + m + i + 1] += eps
                a1[at + m + i + 1, at + i] -= eps
            at += 2 * m
        else:
            big = 2 * m
            for i in range(m - 1):
                for d in range(2):
                    a1[at + 2 * i + d, at + big + 2 * (i + 1) + d] += eps
                    a1[at + big + 2 * (i + 1) + d, at + 2 * i + d] -= eps
            at += 2 * big
    return a0, a1


def per_kind_j(blocks):
    """Reference: the blockwise J with one branch per block kind."""
    size = sum(b.size for b in blocks)
    j = np.zeros((size, size))
    at = 0
    for b in blocks:
        m = b.chain_length
        if isinstance(b, sl.RealBlock):
            if b.eigenvalue <= 0:
                raise ArithmeticError(
                    "real block with nonpositive eigenvalue cannot be tamed"
                )
            for i in range(m):
                j[at + m + i, at + i] = 1.0
                j[at + i, at + m + i] = -1.0
            at += 2 * m
        else:
            phi = math.pi - math.atan2(b.nu, b.mu) / 2
            rot = np.array([
                [math.cos(phi), -math.sin(phi)],
                [math.sin(phi), math.cos(phi)],
            ])
            big = 2 * m
            for i in range(m):
                j[at + 2 * i:at + 2 * i + 2,
                  at + big + 2 * i:at + big + 2 * i + 2] = rot
                j[at + big + 2 * i:at + big + 2 * i + 2,
                  at + 2 * i:at + 2 * i + 2] = -rot.T
            at += 2 * big
    return j


_entry = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)
_blocks = st.lists(st.one_of(
    st.builds(sl.RealBlock,
              st.one_of(_entry, st.sampled_from([Q(1, 3), Q(-5, 2), Q(0)])),
              st.integers(1, 3)),
    st.builds(sl.ComplexBlock, _entry, _entry, st.integers(1, 3)),
), min_size=1, max_size=4)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_blocks, st.one_of(st.just(0.0), st.floats(1e-6, 1.0)))
def test_block_builders_match_per_kind_references(blocks, eps):
    # one builder for both kinds, fed each block's d x d units, gives every
    # entry of the former per-kind builders
    ref = per_kind_model_with_chain_eps(blocks, eps) if eps else \
        per_kind_model(blocks)
    for got, want in zip(sl._model_matrices(blocks, eps), ref):
        assert np.array_equal(got, want)
    try:
        want = per_kind_j(blocks)
    except ArithmeticError as err:
        with pytest.raises(ArithmeticError, match=str(err)):
            sl._blockwise_j(blocks)
    else:
        assert np.array_equal(sl._blockwise_j(blocks), want)
