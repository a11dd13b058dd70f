"""Output oracles: one check per operation, raising OracleError on mismatch.

The oracles pin verdicts, exit codes and mathematical invariants (gates,
residual bounds, unit ranks, determinants, zero mismatches).  They never pin
float digits or certificate labels, so a change that replaces a sampled
certificate by an exact one, or batches a float kernel, passes unchanged.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations


class OracleError(AssertionError):
    """An operation's output disagrees with its oracle."""


def expect(cond, message):
    if not cond:
        raise OracleError(message)


def _detail(result, verdict, exit_code=0):
    code, report = result
    expect(report is not None, f"no JSON report (exit code {code})")
    expect(code == exit_code, f"exit code {code}, expected {exit_code}")
    expect(report["verdict"] == verdict,
           f"verdict {report['verdict']!r}, expected {verdict!r}")
    return report["detail"]


def _rational(x):
    if isinstance(x, dict):
        return Fraction(x["num"], x["den"])
    return Fraction(x)


def _int_det(m):
    """Leibniz determinant, independent of the library's Bareiss code."""
    n = len(m)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                         if perm[i] > perm[j])
        term = -1 if inversions % 2 else 1
        for i in range(n):
            term *= m[i][perm[i]]
        total += term
    return total


# -- families ---------------------------------------------------------------------


def giroux_torsion(result):
    d = _detail(result, "pass")
    if "min_value" in d:
        expect(d["min_value"] > 0, f"grid minimum {d['min_value']} <= 0")


def reeb(result, tol=1e-8):
    d = _detail(result, "pass")
    expect(d["residual_pairing"] <= tol,
           f"pairing residual {d['residual_pairing']:.2e} > {tol}")
    expect(d["residual_closure"] <= tol,
           f"closure residual {d['residual_closure']:.2e} > {tol}")


def lutz_check(result):
    d = _detail(result, "pass")
    expect(d["max_relative_error"] <= 1e-8,
           f"identity error {d['max_relative_error']:.2e} > 1e-8")


def cutoff(result):
    d = _detail(result, "pass")
    expect(0.0 <= d["c_star"] < 64.0, f"c* = {d['c_star']} outside [0, 64)")
    expect(d["refined_min"] > 0, f"refined minimum {d['refined_min']} <= 0")


def weak_filling(res):
    expect(res.wedge_plus_zero and res.wedge_minus_zero,
           "w ^ da+- is not exactly zero")
    expect(res.min_top > 0, f"grid minimum {res.min_top} <= 0")
    expect(res.passed, "fixture verdict is negative")


# -- exact algebra ----------------------------------------------------------------


def verify_pair(result):
    _detail(result, "positive")


def verify_contact(result):
    d = _detail(result, "positive")
    top = _rational(d["top_coefficient"])
    expect(top > 0, f"top coefficient {top} <= 0")


def geiges(result):
    d = _detail(result, "pass")
    expect(d["geiges_pair"] is True, "Geiges identities fail")
    expect(d["isomorphism_residual"] <= 1e-10,
           f"isomorphism residual {d['isomorphism_residual']:.2e} > 1e-10")


# -- number fields ----------------------------------------------------------------


def numfield(signature, torsion_order):
    """Oracle for `numfield --monodromy` on a field of known signature."""
    r, s = signature
    degree = r + 2 * s

    def check(result):
        d = _detail(result, "pass")
        expect(d["signature"] == [r, s], f"signature {d['signature']}")
        units = d["units"]
        expect(units["rank"] == r + s - 1,
               f"unit rank {units['rank']}, Dirichlet rank {r + s - 1}")
        expect(units["torsion_order"] == torsion_order,
               f"torsion order {units['torsion_order']}, "
               f"expected {torsion_order}")
        expect(d["lattice_rank"] == degree - 1,
               f"lattice rank {d['lattice_rank']} != {degree - 1}")
        mats = d["monodromy"]
        expect(len(mats) >= units["rank"], "fewer monodromies than units")
        for m in mats:
            expect(_int_det(m) == 1, f"monodromy det {_int_det(m)} != 1")

    return check


# -- pencils ----------------------------------------------------------------------


def pencil_reduce(real, complex_pairs, eps=1e-3):
    """Oracle for a pencil built from known blocks.

    `real` lists the real eigenvalues (one block each), `complex_pairs` the
    (mu, nu) of the complex blocks; the recovered blocks must match them.
    """

    def check(result):
        d = _detail(result, "pass")
        expect(d["omega0_residual"] <= 1e-9,
               f"omega0 residual {d['omega0_residual']:.2e} > 1e-9")
        expect(d["omega1_residual"] <= 10 * eps,
               f"omega1 residual {d['omega1_residual']:.2e} > {10 * eps}")
        got_real = sorted(b["lambda"] for b in d["blocks"]
                          if b["type"] == "real")
        got_cplx = sorted((b["mu"], abs(b["nu"])) for b in d["blocks"]
                          if b["type"] == "complex")
        want_real = sorted(float(x) for x in real)
        want_cplx = sorted((mu, abs(nu)) for mu, nu in complex_pairs)
        expect(len(got_real) == len(want_real)
               and len(got_cplx) == len(want_cplx),
               f"block types {len(got_real)} real / {len(got_cplx)} complex, "
               f"expected {len(want_real)} / {len(want_cplx)}")
        for g, w in zip(got_real, want_real):
            expect(abs(g - w) <= 1e-6 * max(1.0, abs(w)),
                   f"real eigenvalue {g}, expected {w}")
        for (gm, gn), (wm, wn) in zip(got_cplx, want_cplx):
            expect(abs(gm - wm) <= 1e-6 * max(1.0, abs(wm))
                   and abs(gn - wn) <= 1e-6 * max(1.0, abs(wn)),
                   f"complex block ({gm}, {gn}), expected ({wm}, {wn})")

    return check


def cotame(result):
    d = _detail(result, "pass")
    expect(d["cotamed_exists"] is True, "existence test is negative")
    expect(all(m > 0 for m in d["taming_margins"]),
           f"taming margins {d['taming_margins']}")


def suite(trials):
    def check(result):
        d = _detail(result, "pass")
        expect(d["mismatches"] == 0, f"{d['mismatches']} mismatches")
        expect(d["trials"] >= trials, f"{d['trials']} trials, asked {trials}")

    return check
