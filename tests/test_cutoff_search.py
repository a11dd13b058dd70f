"""The cutoff-constant search: one batch for the probes of the all-pass
walk, read by the bisection, against the sequential walk it replaces.

The reference below is the search as a loop of one-probe checks, each
building its own cutoff form on its own grid; the library must give the
same c, or raise the same error, and the same bits for every probe.
"""

import math

import numpy as np
import pytest

from liouville_lab import formfam as ff
from liouville_lab import liealg

#: the preset pairs the `cutoff` command accepts, every family up to
#: dimension 14 (at 16, totreal:8 and geiges:8 take about a second a case)
PAIRS = ([f"totreal:{n}" for n in range(1, 8)]
         + [f"geiges:{n}" for n in range(1, 8)]
         + ["sol:2,1,1,1", "sol:3,2,1,1", "sol:5,2,2,1",
            "grs1:2,0", "grs1:3,0", "grs1:4,0", "s1"])
SOL = liealg.preset("sol:2,1,1,1")


def reference_positive_on_grid(pair, c, psi, grid_n):
    """One probe as the sequential search ran it: its own form, its own
    grid, its own pass."""
    if not math.isfinite(c):
        raise ValueError(f"cutoff constant must be finite, got {c}")
    pf = ff.cutoff_liouville(pair, c, psi)
    try:
        with np.errstate(over="raise"):
            return ff._min_top_power(
                pf, np.linspace(-c - 1.0, c + 1.0, grid_n + 1))
    except (OverflowError, FloatingPointError) as err:
        raise ValueError(f"cutoff constant {c} overflows float64 on the "
                         f"grid: {err}") from err


def reference_min_c_search(pair, psi, grid_n=256, cap=64.0):
    """The bisection with every probe checked alone, in walk order."""
    def passes(c):
        return reference_positive_on_grid(pair, c, psi, grid_n)[0] > 0

    if passes(0.0):
        return 0.0
    if not passes(cap):
        raise ff.CapExceededError(f"no positive cutoff constant below {cap}")
    lo, hi = 0.0, cap
    while hi - lo > ff.BISECTION_TOL:
        mid = (lo + hi) / 2
        if passes(mid):
            hi = mid
        else:
            lo = mid
    return hi


def outcome(search, *args, **kwargs):
    """The c a search returns, by its bits, or the class and message of the
    error it raises."""
    try:
        return ("c", float(search(*args, **kwargs)).hex())
    except Exception as err:  # the error itself is the outcome
        return (type(err), str(err))


def spine(cap):
    """c = 0, the cap and each next midpoint of a walk that always goes
    left, as the walk computes them."""
    probes, lo, hi = [0.0, cap], 0.0, cap
    while hi - lo > ff.BISECTION_TOL:
        hi = (lo + hi) / 2
        probes.append(hi)
    return probes


def hexed(minima):
    return [(top.hex(), None if at is None else at.hex())
            for top, at in minima]


@pytest.mark.parametrize("grid_n", [64, 256])
@pytest.mark.parametrize("kind", ["quintic", "cubic"])
@pytest.mark.parametrize("key", PAIRS)
def test_search_matches_the_sequential_walk(key, kind, grid_n):
    pair, psi = liealg.preset(key), ff.cutoff_step(kind)
    got = outcome(ff.min_c_search, pair, psi, grid_n)
    assert got == outcome(reference_min_c_search, pair, psi, grid_n)
    assert got == ("c", (2.0 ** -10).hex())


@pytest.mark.parametrize("kind", ["quintic", "cubic"])
@pytest.mark.parametrize("key", ["sol:2,1,1,1", "totreal:2", "geiges:2"])
def test_a_walk_that_turns_right_matches(counted_calls, key, kind):
    # psi(2s - 1) climbs on (1/2, 1), so every c below about 1/2 fails and
    # the walk leaves the batch after its probe at 1/2
    pair = liealg.preset(key)
    psi = ff.cutoff_step(kind).precompose_affine(2.0, -1.0)
    want = outcome(reference_min_c_search, pair, psi, 64)
    calls = {}
    counted_calls(ff, "cutoff_positive_on_grid", calls)
    got = outcome(ff.min_c_search, pair, psi, 64)
    assert got == want
    assert 0.5 < float.fromhex(got[1]) < 0.51
    # the probes off the spine run one at a time
    assert calls["cutoff_positive_on_grid"] == 9


def test_the_corrupt_pair_exceeds_the_cap_as_before():
    bad = liealg.Preset("corrupt", SOL.algebra, SOL.alpha_plus,
                        -1 * SOL.alpha_plus)
    psi = ff.cutoff_step("quintic")
    got = outcome(ff.min_c_search, bad, psi, 64, cap=4.0)
    assert got == outcome(reference_min_c_search, bad, psi, 64, cap=4.0)
    assert got == (ff.CapExceededError,
                   "no positive cutoff constant below 4.0")


@pytest.mark.parametrize("cap", [1000.0, 1e200, 1e308])
def test_a_cap_past_the_float64_range_raises_as_before(cap):
    psi = ff.cutoff_step("quintic")
    got = outcome(ff.min_c_search, SOL, psi, 64, cap=cap)
    assert got == outcome(reference_min_c_search, SOL, psi, 64, cap=cap)
    assert got[0] is ValueError
    assert got[1].startswith(f"cutoff constant {cap} overflows float64")


@pytest.mark.parametrize("cap", [math.inf, -math.inf, math.nan])
def test_a_non_finite_cap_raises_as_before(cap):
    psi = ff.cutoff_step("cubic")
    got = outcome(ff.min_c_search, SOL, psi, 64, cap=cap)
    assert got == outcome(reference_min_c_search, SOL, psi, 64, cap=cap)
    assert got == (ValueError, f"cutoff constant must be finite, got {cap}")


@pytest.mark.parametrize("kind", ["quintic", "cubic"])
@pytest.mark.parametrize("key", ["sol:2,1,1,1", "totreal:2", "totreal:3",
                                 "geiges:2"])
def test_batched_minima_keep_each_probes_bits(key, kind):
    pair, psi = liealg.preset(key), ff.cutoff_step(kind)
    # the spine of the default cap, and constants whose grids cross the
    # kinks of psi elsewhere
    cs = spine(64.0) + [0.75, 2.5, 0.5009765625, 1e-3]
    want = [reference_positive_on_grid(pair, c, psi, 256) for c in cs]
    assert hexed(ff._cutoff_minima(pair, cs, psi, 256)) == hexed(want)
    assert hexed([ff.cutoff_positive_on_grid(pair, c, psi, 256)
                  for c in cs]) == hexed(want)


def test_one_search_makes_one_grid_pass(counted_calls):
    calls = {}
    counted_calls(ff, "_grid_tops", calls)
    c = ff.min_c_search(SOL, ff.cutoff_step("quintic"), 256)
    assert c == 2.0 ** -10 and calls == {"_grid_tops": 1}
