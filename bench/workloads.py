"""Seeded inputs and the fixed operation list of each workload.

Every operation is one in-process `cli.run(argv)` call or, where no CLI
command exists, one public library call.  The seed decides the generated
inputs (float pencils, the prime, s/tau/eps values, suite seeds) and the
order of the operation list; the library sees only the generated inputs.
Work per round is kept nearly independent of the seed, so runs with
different seeds measure the same amount of work.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import oracle


@dataclass
class Op:
    """One operation of a workload's closed loop."""

    id: str
    metric: str                 # end-to-end latency metric it counts toward
    check: Callable             # oracle, raises oracle.OracleError
    argv: list | None = None    # CLI argv, run with --json appended
    call: Callable | None = None  # library call when there is no command
    defect: str | None = None   # exception class of a known defect


def build(workload: str, seed: int, workdir: Path):
    """(warm-up op, shuffled operation list) for a workload and seed."""
    rng = random.Random(seed)
    ops = _BUILDERS[workload](rng, seed, workdir)
    warmup = ops[0]
    rng.shuffle(ops)
    return warmup, ops


def _cli(metric, check, *argv, defect=None, label=None):
    argv = [str(a) for a in argv]
    return Op(label or " ".join(argv), metric, check, argv=argv,
              defect=defect)


# -- families ---------------------------------------------------------------------


def _families(rng, seed, workdir):
    from liouville_lab import formfam

    ops = []
    for i in range(32):
        pair = "sol:2,1,1,1" if i % 2 == 0 else "totreal:2"
        s = rng.uniform(-math.pi, math.pi)
        ops.append(_cli("reeb_ms", oracle.reeb, "reeb", "--pair", pair,
                        "--s", repr(s)))
    for pair, k, grid in (("sol:2,1,1,1", 3, 8192), ("totreal:3", 1, 1024),
                          ("geiges:2", 2, 2048)):
        ops.append(_cli("giroux_torsion_ms", oracle.giroux_torsion,
                        "giroux-torsion", "--pair", pair, "--k", k,
                        "--grid", grid))
    for pair, k in (("sol:2,1,1,1", 2), ("totreal:2", 1)):
        tau = rng.uniform(0.2, 0.8)
        ops.append(_cli("lutz_check_ms", oracle.lutz_check, "lutz-check",
                        "--pair", pair, "--k", k, "--tau", repr(tau)))
    for pair, profile in (("sol:2,1,1,1", "quintic"), ("totreal:2", "cubic")):
        ops.append(_cli("cutoff_ms", oracle.cutoff, "cutoff", "--pair", pair,
                        "--profile", profile))
    eps = 10 ** rng.uniform(-3, -2)
    ops.append(Op(f"sol_weak_filling_fixture eps={eps!r} grid=128",
                  "weak_filling_ms", oracle.weak_filling,
                  call=lambda: formfam.sol_weak_filling_fixture(eps, 128)))
    return ops


# -- exact ------------------------------------------------------------------------


def _exact(rng, seed, workdir):
    ops = []
    pairs = ([f"totreal:{n}" for n in range(1, 6)]
             + ["grs1:2,0", "grs1:3,0", "grs1:4,0"]
             + [f"geiges:{n}" for n in range(3, 6)]
             + ["sol:2,1,1,1", "sol:3,2,1,1"])
    for key in pairs:
        ops.append(_cli("verify_ms", oracle.verify_pair, "verify-pair",
                        "--preset", key))
    for key, form in (("totreal:3", "alpha_plus"), ("totreal:4", "alpha_plus"),
                      ("geiges:5", "alpha_plus"), ("aff_c", "liouville")):
        ops.append(_cli("verify_ms", oracle.verify_contact, "verify-contact",
                        "--preset", key, "--form", form))
    for n in range(3, 8):
        ops.append(_cli("geiges_ms", oracle.geiges, "geiges", "--n", n))
    return ops


# -- number fields ----------------------------------------------------------------

# (ascending coefficients, signature, torsion order); the complex cubic is a
# known defect: the lattice appends the torsion unit -1, whose monodromy has
# determinant -1 in odd degree, and cli.run raises ArithmeticError.
_FIELDS = (
    ((-2, 0, 1), (2, 0), 2, None),
    ((1, 0, 1), (0, 1), 4, None),
    ((-3, 0, 1), (2, 0), 2, None),
    ((-1, -3, 0, 1), (3, 0), 2, None),
    ((-1, -1, 0, 1), (1, 1), 2, "ArithmeticError"),
    ((-1, 0, -3, 0, 1), (2, 1), 2, None),
)


def _number_fields(rng, seed, workdir):
    return [
        _cli("numfield_ms", oracle.numfield(sig, tor), "numfield",
             "--poly", ",".join(map(str, coeffs)), "--monodromy",
             defect=defect)
        for coeffs, sig, tor, defect in _FIELDS
    ]


# -- pencils ----------------------------------------------------------------------

# (dimension, complex blocks) of the float pencils; the seed draws the
# eigenvalues and the congruence, the block structure stays fixed
FLOAT_PENCILS = ((4, 0), (6, 1), (8, 1), (10, 2), (4, 1), (6, 0), (8, 2),
                 (10, 1))
_REAL_POOL = [0.5 + 0.25 * i for i in range(15)]          # 0.5 .. 4.0
_RATIONAL_POOL = [Fraction(p, q) for q in (1, 2, 3) for p in range(1, 10)
                  if math.gcd(p, q) == 1 and Fraction(p, q) <= 4]
# Known defect: cotame on a rational pencil can end in RetryExhaustedError
# (the exact basis can be ill-conditioned, and every eps-halving retry repeats
# the same exact reduction, while the float path on the same matrices
# succeeds).
# A failure costs seven reductions, so pencils drawn per workload seed would
# make the work per round depend on the seed; the rational pencils come from
# one fixed generator seed instead, and every run carries the same failure.
RATIONAL_PENCIL_SEED = 0
_PRIMES = [1000003, 1000033, 1000037, 1000039, 1000081, 1000099]


def _grouped_models(real, complex_pairs):
    """Model pair in the grouped (v's then w's) block layout, as lists."""
    size = 2 * len(real) + 4 * len(complex_pairs)
    a0 = [[0] * size for _ in range(size)]
    a1 = [[0] * size for _ in range(size)]
    at = 0
    for lam in real:
        a0[at][at + 1], a0[at + 1][at] = 1, -1
        a1[at][at + 1], a1[at + 1][at] = lam, -lam
        at += 2
    for mu, nu in complex_pairs:
        rot = ((mu, nu), (-nu, mu))
        for i in range(2):
            a0[at + i][at + 2 + i], a0[at + 2 + i][at + i] = 1, -1
            for j in range(2):
                a1[at + i][at + 2 + j] = rot[i][j]
                a1[at + 2 + j][at + i] = -rot[i][j]
        at += 4
    return a0, a1


def _congruence(p, m):
    """P^T M P for list matrices (exact when the entries are exact)."""
    n = len(p)
    mp = [[sum(m[i][k] * p[k][j] for k in range(n)) for j in range(n)]
          for i in range(n)]
    return [[sum(p[k][i] * mp[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def _write(workdir, name, rows):
    path = workdir / name
    path.write_text(json.dumps(rows))
    return str(path)


def _pencil_ops(workdir, name, a0, a1, real, complex_pairs, defect=None):
    f0 = _write(workdir, f"{name}-omega0.json", a0)
    f1 = _write(workdir, f"{name}-omega1.json", a1)
    check = oracle.pencil_reduce(real, complex_pairs)
    return [
        _cli("pencil_reduce_ms", check, "pencil-reduce", "--omega0", f0,
             "--omega1", f1, label=f"pencil-reduce {name}"),
        _cli("cotame_ms", oracle.cotame, "cotame", "--omega0", f0,
             "--omega1", f1, defect=defect, label=f"cotame {name}"),
    ]


def _float_pencil(rng, dim, n_cplx):
    nprng = np.random.default_rng(rng.getrandbits(32))
    lams = rng.sample(_REAL_POOL, dim // 2 - 2 * n_cplx)
    cplx = [(rng.choice((-1.0, -0.5, 0.5, 1.0)) + 0.1 * i,
             rng.choice((0.75, 1.25, 1.75)) + 0.1 * i) for i in range(n_cplx)]
    a0, a1 = (np.array(m, dtype=float) for m in _grouped_models(lams, cplx))
    while True:
        p = nprng.standard_normal((dim, dim))
        if np.linalg.cond(p) < 100:
            break
    m0, m1 = p.T @ a0 @ p, p.T @ a1 @ p
    return (m0 - m0.T) / 2, (m1 - m1.T) / 2, lams, cplx


def _rational_pencil(rng, dim):
    lams = rng.sample(_RATIONAL_POOL, dim // 2)
    a0, a1 = _grouped_models(lams, [])
    while True:
        p = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(dim)]
        if round(np.linalg.det(np.array(p, dtype=float))) != 0:
            break
    return _congruence(p, a0), _congruence(p, a1), lams


def _pencils(rng, seed, workdir):
    ops = []
    for i, (dim, n_cplx) in enumerate(FLOAT_PENCILS):
        m0, m1, lams, cplx = _float_pencil(rng, dim, n_cplx)
        ops += _pencil_ops(workdir, f"float{i}", m0.tolist(), m1.tolist(),
                           lams, cplx)
    fixed = random.Random(RATIONAL_PENCIL_SEED)
    for i, dim in enumerate((4, 6, 8, 4, 6, 8)):
        m0, m1, lams = _rational_pencil(fixed, dim)
        text = [[[str(x) for x in row] for row in m] for m in (m0, m1)]
        ops += _pencil_ops(workdir, f"rational{i}", *text, lams, [],
                           defect="RetryExhaustedError")
    # trial division in the rational-root search scales with the prime
    prime = rng.choice(_PRIMES)
    a0, a1 = _grouped_models([1], [])
    big = [[str(prime * x) for x in row] for row in a0]
    ops += _pencil_ops(workdir, "prime", [[str(x) for x in r] for r in a0],
                       big, [prime], [])
    for name, trials, extra in (
            ("appendix-equivalence", 100, ["--dims", "4,6,8,10"]),
            ("cayley", 200, []), ("interpolation", 100, []),
            ("cocompatible", 2000, [])):
        # known defect: the tamed-J sampler of the cayley and interpolation
        # suites can give up with RuntimeError (cayley for suite seeds
        # 600-799, interpolation for seeds 24, 55, 210, 520, ...)
        ops.append(_cli("suite_ms", oracle.suite(trials), "suite", "--name",
                        name, "--trials", trials, "--seed", seed, *extra,
                        defect="RuntimeError"
                        if name in ("cayley", "interpolation") else None))
    return ops


_BUILDERS = {
    "families": _families,
    "exact": _exact,
    "number-fields": _number_fields,
    "pencils": _pencils,
}
