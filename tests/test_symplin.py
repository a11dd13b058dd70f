import functools
import math
from fractions import Fraction as Q
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
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


def test_pfaffian_standard_form():
    # standard_omega's interleaved Darboux pairs have Pfaffian +1
    for n in (2, 4, 6, 8):
        om = sl.standard_omega(n)
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
    om = sl.standard_omega(4)
    j = sl.compatible_j(om)
    assert sl.tames(om, j)
    minus = sl.ComplexStructure(-j.matrix)
    assert not sl.tames(om, minus)


def test_tames_exact_path():
    om = sl.standard_omega(2)
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
    om = sl.standard_omega(4)
    b = sl.pencil_endomorphism(om, om)
    assert np.allclose(b, np.eye(4))
    two = sl.SkewForm([[2 * x for x in row] for row in om.matrix])
    assert np.allclose(sl.pencil_endomorphism(om, two), 2 * np.eye(4))


def test_pencil_endomorphism_pairing():
    rng = np.random.default_rng(5)
    a0, a1 = sl.random_nondegenerate_pair(rng, 6)
    b = sl.pencil_endomorphism(a0, a1)
    m0, m1 = a0.to_array(), a1.to_array()
    for _ in range(20):
        v = rng.standard_normal(6)
        w = rng.standard_normal(6)
        assert abs((b @ v) @ m0 @ w - v @ m1 @ w) <= 1e-12 * max(
            1.0, abs(v @ m1 @ w))


def test_pencil_endomorphism_requires_nondegenerate():
    degenerate = sl.SkewForm(np.zeros((4, 4)))
    with pytest.raises(ValueError, match="degenerate"):
        sl.pencil_endomorphism(degenerate, sl.standard_omega(4))


def test_segment_and_ray_trivials():
    om = sl.standard_omega(4)
    two = sl.SkewForm([[2 * x for x in row] for row in om.matrix])
    neg = sl.SkewForm([[-x for x in row] for row in om.matrix])
    assert sl.ray_nondegenerate(om, two)
    assert not sl.ray_nondegenerate(om, neg)
    # which is the segment verdict: w0 + neg is degenerate at t = 1/2
    assert not sl.is_nondegenerate(sl.SkewForm(
        [[x + y for x, y in zip(r0, r1)]
         for r0, r1 in zip(om.matrix, neg.matrix)]))
    assert sl._analyse(om, two).ray_nondegenerate()
    assert not sl._analyse(om, neg).ray_nondegenerate()


def test_remark_pair_is_cotamed():
    a0, a1 = sl.remark_pair()
    assert sl.is_nondegenerate(a0) and sl.is_nondegenerate(a1)
    assert a0.to_form().wedge(a1.to_form()).top_coefficient() == 0
    assert sl.ray_nondegenerate(a0, a1)
    j = sl.construct_cotamed(a0, a1)
    assert sl.tames(a0, j) and sl.tames(a1, j)


def test_reduce_scalar_multiple():
    om = sl.standard_omega(4)
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
    d0 = sl.standard_omega(4)
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
    om = sl.standard_omega(4)
    j = sl.construct_cotamed(om, sl.SkewForm([list(r) for r in om.matrix]))
    assert sl.tames(om, j)


def test_construct_cotamed_requires_existence():
    om = sl.standard_omega(4)
    neg = sl.SkewForm([[-x for x in row] for row in om.matrix])
    with pytest.raises(sl.CotamedExistenceError):
        sl.construct_cotamed(om, neg)


def test_sign_law_on_random_pairs():
    # when the segment stays nondegenerate, every real eigenvalue of the
    # pencil endomorphism is positive
    rng = np.random.default_rng(17)
    checked = 0
    for _ in range(200):
        a0, a1 = sl.random_nondegenerate_pair(rng, 6)
        b = sl.pencil_endomorphism(a0, a1)
        if sl.ray_nondegenerate(a0, a1):
            checked += 1
            for lam in np.linalg.eigvals(b):
                if abs(lam.imag) <= 1e-8 * max(1.0, abs(lam.real)):
                    assert lam.real > 0
    assert checked > 10


def test_cayley_map_trivials():
    om = sl.standard_omega(6)
    j0 = sl.compatible_j(om)
    assert np.allclose(sl.cayley_map(j0, j0), 0.0)
    back = sl.cayley_inverse(j0, np.zeros((6, 6)))
    assert np.allclose(back.matrix, j0.matrix)


def test_cayley_singular_cases():
    om = sl.standard_omega(4)
    j0 = sl.compatible_j(om)
    minus = sl.ComplexStructure(-j0.matrix)
    with pytest.raises(ValueError, match="singular"):
        sl.cayley_map(j0, minus)
    bad = np.eye(4)
    with pytest.raises(ValueError, match="anticommute"):
        sl.cayley_inverse(j0, bad)


def test_cayley_roundtrip_and_anticommutation():
    rng = np.random.default_rng(23)
    for trial in range(25):
        a = sl.random_skew(np.random.default_rng(trial), 6)
        if not sl.is_nondegenerate(a):
            continue
        j0 = sl.compatible_j(a)
        j = sl.random_tamed_j(rng, a, j0)
        am = sl.cayley_map(j0, j)
        assert np.max(np.abs(am @ j0.matrix + j0.matrix @ am)) <= 1e-12 * max(
            1.0, float(np.max(np.abs(am))))
        back = sl.cayley_inverse(j0, am)
        assert np.max(np.abs(back.matrix - j.matrix)) <= 1e-10


def g_norm(a, j0, x):
    """Operator norm of x in g = w(., J0 .), from the Gram matrix A J0."""
    gram = a.to_array() @ j0.matrix
    vals, vecs = np.linalg.eigh((gram + gram.T) / 2)
    half = vecs @ np.diag(np.sqrt(vals)) @ vecs.T
    half_inv = vecs @ np.diag(1 / np.sqrt(vals)) @ vecs.T
    return float(np.linalg.norm(half @ x @ half_inv, 2))


@settings(derandomize=True, max_examples=120, deadline=None)
@given(dim=st.sampled_from([2, 4, 6, 8, 10, 12]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_random_tamed_j_draws_once_inside_the_unit_g_ball(dim, seed):
    rng = np.random.default_rng(seed)
    a = sl.random_skew(rng, dim)
    while not sl.is_nondegenerate(a):
        a = sl.random_skew(rng, dim)
    j0 = sl.compatible_j(a)
    j = sl.random_tamed_j(rng, a, j0)
    assert sl.tames(a, j)
    assert g_norm(a, j0, sl.cayley_map(j0, j)) < 1


def test_random_tamed_j_names_an_untamed_draw(monkeypatch):
    # the taming test of the sampler, one flag per draw of the stack
    monkeypatch.setattr(sl, "_tamed", lambda a, j: np.zeros(len(j), bool))
    om = sl.standard_omega(4)
    with pytest.raises(ArithmeticError, match="not tamed"):
        sl.random_tamed_j(np.random.default_rng(0), om, sl.compatible_j(om))


def test_interpolate_endpoints():
    rng = np.random.default_rng(31)
    a = sl.random_skew(rng, 4)
    while not sl.is_nondegenerate(a):
        a = sl.random_skew(rng, 4)
    j0 = sl.compatible_j(a)
    j1 = sl.random_tamed_j(rng, a, j0)
    j2 = sl.random_tamed_j(rng, a, j0)
    at0, at1 = sl.interpolate_tamed(j0, j1, j2, (0.0, 1.0))
    assert np.allclose(at0.matrix, j1.matrix)
    assert np.allclose(at1.matrix, j2.matrix)


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
    mismatches = 0
    worst = math.inf
    per_dim = {}
    ill_conditioned = 0
    for dim in dims:
        bad = 0
        for trial in range(trials):
            rng = np.random.default_rng(seed + 7919 * dim + trial)
            a0, a1 = reference_pair(rng, dim)
            pencil = sl._analyse(a0, a1)
            vals = pencil.spectrum
            if not any(lam.real < 0 and abs(lam.imag) <= 1e-8 * abs(lam.real)
                       for lam in vals):
                if any(lam.real <= 0 for lam in vals
                       if abs(lam.imag) <= 1e-8 * max(1.0, abs(lam.real))):
                    bad += 1
                    continue
                try:
                    j = sl._construct(pencil, 1e-3)
                except sl.PencilError:
                    ill_conditioned += 1
                    continue
                except sl.RetryExhaustedError:
                    bad += 1
                    continue
                margin = min(reference_taming_margin(a0, j),
                             reference_taming_margin(a1, j))
                worst = min(worst, margin)
                if margin <= 0:
                    bad += 1
            else:
                neg = min(lam.real for lam in vals if lam.real < 0
                          and abs(lam.imag) <= 1e-8 * abs(lam.real))
                t0 = 1.0 / (1.0 - neg)
                member = (1 - t0) * a0.to_array() + t0 * a1.to_array()
                sv = np.linalg.svd(member, compute_uv=False)
                if sv[-1] > 1e-8 * sv[0]:
                    bad += 1
                    continue
                try:
                    sl._construct(pencil, 1e-3)
                    bad += 1
                except sl.CotamedExistenceError:
                    pass
        per_dim[dim] = bad
        mismatches += bad
    return sl.SuiteReport(
        "appendix-equivalence", trials * len(dims), mismatches,
        worst if worst < math.inf else 0.0, [seed],
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
    j = np.array([sl.compatible_j(sl.standard_omega(4)).matrix] * 3)
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


def test_taming_threshold_examples():
    om = sl.standard_omega(4)
    j = sl.compatible_j(om)
    assert sl.taming_threshold(om, om, j) == 0.0
    neg = sl.SkewForm([[-x for x in row] for row in om.matrix])
    t = sl.taming_threshold(neg, om, j)
    assert abs(t - 1.0) <= 1e-12
    # t is the infimum: every larger t tames J, t / 2 does not
    for mult in (1.001 * t, 2 * t, 10 * t):
        assert sl.tames(shifted(neg, om, mult), j)
    assert not sl.tames(shifted(neg, om, t / 2), j)
    with pytest.raises(ValueError, match="tame"):
        sl.taming_threshold(om, neg, j)


def test_taming_threshold_random_tamed_is_zero():
    rng = np.random.default_rng(41)
    a = sl.random_skew(rng, 4)
    while not sl.is_nondegenerate(a):
        a = sl.random_skew(rng, 4)
    j = sl.compatible_j(a)
    assert sl.taming_threshold(a, a, j) == 0.0


def shifted(omega, d, t):
    """The float skew form omega + t d."""
    return sl.SkewForm(omega.to_array() + t * d.to_array())


def bisection_taming_threshold(omega, d, j):
    """Reference threshold: the taming margin of omega + t d is concave in
    t, so its passing set is a ray; double t until it passes (up to 1e6),
    then bisect to width 1e-6 and return the passing endpoint."""
    def margin(t):
        return sl.taming_margin(shifted(omega, d, t), j)

    if margin(0.0) > 0:
        return 0.0
    hi = 1.0
    while margin(hi) <= 0:
        hi *= 2
        assert hi <= 1e6
    lo = 0.0
    while hi - lo > 1e-6:
        mid = (lo + hi) / 2
        if margin(mid) > 0:
            hi = mid
        else:
            lo = mid
    return hi


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from([4, 6, 8]), st.integers(0, 2 ** 32 - 1),
       st.booleans())
def test_taming_threshold_is_the_infimum_the_bisection_brackets(
        dim, seed, perturb):
    # j is compatible with d, or a random d-tamed Cayley draw around it
    rng = np.random.default_rng(seed)
    omega, d = sl.random_nondegenerate_pair(rng, dim)
    j = sl.compatible_j(d)
    if perturb:
        j = sl.random_tamed_j(rng, d, j)
    new = sl.taming_threshold(omega, d, j)
    old = bisection_taming_threshold(omega, d, j)
    assert new <= old <= new + 1e-6 * max(1.0, new)
    if new > 0:
        assert sl.tames(shifted(omega, d, 2 * new), j)
        assert not sl.tames(shifted(omega, d, new / 2), j)


def test_cocompatible_counterexample_basics():
    a0, a1 = sl.remark_pair()
    # standard compatible structure has an explicit violating vector
    j = sl.compatible_j(a0)
    m = a1.to_array() @ j.matrix
    vals, vecs = np.linalg.eigh((m + m.T) / 2)
    assert vals[0] <= 0
    v = vecs[:, 0]
    assert v @ a1.to_array() @ (j.matrix @ v) <= 1e-12


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
    f0, f1 = sl.random_nondegenerate_pair(rng, dim)
    # the float draws as exact dyadic rationals
    a0, a1 = (sl.SkewForm([[Q(x) for x in row] for row in f.to_array()])
              for f in (f0, f1))
    trace = sum(row[i] for i, row in enumerate(_poly.solve(a0.matrix,
                                                           a1.matrix)))
    assert trace == trace_of_b_by_wedges(a0, a1)
    m0, m1 = f0.to_array(), f1.to_array()
    c = rng.standard_normal((dim, dim))
    ham = np.linalg.solve(m0, (c + c.T) / 2)
    # a symplectic S = exp(ham) of bounded condition, for a random A0
    s = sl._expm((ham * (0.5 / max(1.0, np.linalg.norm(ham, 2))))[None])[0]
    j = s @ sl.compatible_j(f0).matrix @ np.linalg.inv(s)
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
    j_std = sl.compatible_j(a0)
    vmins, survived = [], []
    for trial in range(trials):
        rng = np.random.default_rng(seed + trial)
        c = rng.standard_normal((4, 4))
        ham = np.linalg.solve(m0, (c + c.T) / 2)
        s = reference_expm(ham * 0.5)
        j = sl.ComplexStructure(s @ j_std.matrix @ np.linalg.inv(s))
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


def test_stacked_square_gate():
    j = np.array([sl.compatible_j(sl.standard_omega(4)).matrix] * 3)
    sl._require_square_minus_identity(j)
    j[1, 0, 0] += 1e-9
    with pytest.raises(ValueError, match="does not square to -identity"):
        sl._require_square_minus_identity(j)
    with pytest.raises(ValueError, match="does not square to -identity"):
        sl.ComplexStructure(j[1])


def test_equivalence_suite_small():
    rep = sl.appendix_equivalence_suite(30, dims=(4, 6), seed=0)
    assert rep.mismatches == 0


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
    assert sl._frac_charpoly(b) == faddeev_leverrier_charpoly(b)


@pytest.mark.parametrize("b", [
    [[1, 2, 3], [0, 4, 5], [6, 7, 8]],            # subdiagonal pivot swap
    [[1, 2, 3], [0, 4, 5], [0, 7, 8]],            # zero column: skipped
    [[0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]],
    [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]],
    [[5]],
])
def test_hessenberg_charpoly_swap_and_skip(b):
    b = [[Q(x) for x in row] for row in b]
    assert sl._frac_charpoly(b) == faddeev_leverrier_charpoly(b)


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
                                                   exact_reductions,
                                                   float_reductions):
    # with every taming check failing, a float pencil with a Jordan chain is
    # reduced once, at the given eps, over one clustering of its spectrum;
    # so are a chain-free float pencil and an exact one
    seen = float_reductions
    calls = {}
    counted_calls(monkeypatch, sl, "_cluster_eigenvalues", calls)
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

    for name in ("is_nondegenerate", "pencil_endomorphism",
                 "_float_endomorphism"):
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
    assert pencil.spectrum == faddeev_leverrier_charpoly(pencil.b)
    zero = sl.SkewForm([[Q(0)] * 4 for _ in range(4)])
    for pair, message in (((zero, a1), "omega_0"), ((a0, zero), "omega_1")):
        for call in (sl._analyse, sl.simultaneous_reduce, sl.ray_nondegenerate,
                     sl.construct_cotamed):
            with pytest.raises(ValueError, match=f"{message} is degenerate"):
                call(*pair)


def counted_calls(monkeypatch, owner, name, calls):
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_cotame_analyses_its_pencil_once(monkeypatch):
    # B and its spectrum do not depend on eps: existence, the reduction and
    # the construction all read one analysis
    calls = {}
    counted_calls(monkeypatch, sl, "_float_endomorphism", calls)
    counted_calls(monkeypatch, sl, "_frac_charpoly", calls)
    counted_calls(monkeypatch, np.linalg, "eigvals", calls)
    counted_calls(monkeypatch, np.linalg, "det", calls)
    a0, a1 = congruent_rational_pencil([Q(1, 2), 3], P4)
    fa0, fa1 = sl.SkewForm(a0.to_array()), sl.SkewForm(a1.to_array())
    for argv, want in (
            ([fa0, fa1], {"_float_endomorphism": 1, "eigvals": 1, "det": 2}),
            ([a0, a1], {"_frac_charpoly": 1})):
        calls.clear()
        j = sl.construct_cotamed(*argv)
        assert sl.tames(argv[0], j) and sl.tames(argv[1], j)
        assert calls == want


def test_rational_fallback_solves_in_float_once(monkeypatch):
    # the remark pair's B has no rational eigenvalue, so its exact analysis
    # gives way to the float reduction; its spectrum has no Jordan chain,
    # so even with every taming check failing the exact attempt, the
    # clustering and the float reduction each run once
    calls = {}
    for name in ("_float_endomorphism", "_frac_charpoly", "_try_exact_reduce",
                 "_cluster_eigenvalues", "_float_reduce"):
        counted_calls(monkeypatch, sl, name, calls)
    counted_calls(monkeypatch, np.linalg, "eigvals", calls)
    monkeypatch.setattr(sl, "tames", lambda a, j, tol=1e-10: False)
    with pytest.raises(sl.RetryExhaustedError, match="taming verification"):
        sl.construct_cotamed(*sl.remark_pair())
    assert calls == {"_frac_charpoly": 1, "_float_endomorphism": 1,
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
    assert not sl.ray_nondegenerate(a0, a1)
    assert not sl._analyse(a0, a1).ray_nondegenerate()
    with pytest.raises(sl.CotamedExistenceError):
        sl.construct_cotamed(a0, a1)
    a0, a1 = congruent_rational_pencil([Q(1, 10 ** 10), 1], P4)
    assert sl.ray_nondegenerate(a0, a1)


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
