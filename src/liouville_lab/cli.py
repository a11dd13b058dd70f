"""Command-line front end: runs certificates and suites, emits reports.

Exit codes: 0 = verdict passes, 1 = mathematical verdict negative,
2 = input or usage error.  With --json the report is a single JSON object
on stdout, byte-identical for identical inputs and seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

import numpy as np

from . import formfam, liealg, numfield, symplin

SCHEMA = "liouville-lab/1"
LUTZ_IDENTITY_TOL = 1e-8  # lutz-check gate on the max relative error
GEIGES_RESIDUAL_TOL = 1e-10  # geiges gate on the isomorphism residual


class UsageError(ValueError):
    pass


def _report(command, inputs, verdict, kind, detail=None, tolerances=None,
            orientation=None):
    """A subcommand's report; `run` stamps the seed on it and emits it."""
    return {
        "schema": SCHEMA,
        "command": command,
        "inputs": inputs,
        "verdict": verdict,
        "certificate": kind,
        "tolerances": tolerances or {},
        "orientation": orientation,
        "detail": detail or {},
    }


def _emit(report, args):
    if args.json:
        print(json.dumps(report, sort_keys=True, default=_json_default))
    else:
        print(f"[{report['command']}] verdict: {report['verdict']} "
              f"({report['certificate']})")
        for key, val in sorted(report["detail"].items()):
            print(f"  {key}: {_short(val)}")
        if report.get("orientation"):
            print(f"  orientation: {report['orientation']}")
    return 0 if report["verdict"] in ("pass", "positive", "true") else 1


def _short(val):
    text = json.dumps(val, default=_json_default)
    return text if len(text) <= 400 else text[:397] + "..."


def _json_default(x):
    if isinstance(x, Fraction):
        return {"num": x.numerator, "den": x.denominator}
    if isinstance(x, complex):
        return {"re": x.real, "im": x.imag}
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    raise TypeError(f"not JSON-serializable: {type(x)}")


def _load_matrix(path_or_inline):
    """Matrix from a JSON file (row arrays; rationals as {num, den}); JSON
    of any other shape is a ValueError."""
    try:
        with open(path_or_inline) as fh:
            data = json.load(fh)
    except OSError:
        data = json.loads(path_or_inline)

    def conv(x):
        if isinstance(x, dict):
            return Fraction(x["num"], x["den"])
        if isinstance(x, (str, int)):
            return Fraction(x)
        return float(x)

    try:
        rows = data["matrix"] if isinstance(data, dict) else data
        return [[conv(x) for x in row] for row in rows]
    except (KeyError, TypeError, ZeroDivisionError) as err:
        raise ValueError(f"malformed matrix: {err!r}") from err


def _skew(path):
    rows = _load_matrix(path)
    if any(isinstance(x, float) for row in rows for x in row):
        return symplin.SkewForm(np.array([[float(x) for x in r] for r in rows]))
    return symplin.SkewForm(rows)


def _int_list(text):
    return [int(x) for x in text.split(",")]


def _positive(kind, zero=False):
    """argparse type: a `kind` number above 0, so an int count is at least
    1; with zero=True, a number of at least 0.

    A grid, trial count, unit search box, tolerance or eps of 0 or less
    leaves nothing to sample or search or no room to pass, and a seed below
    0 is no seed of numpy's SeedSequence, so each is a usage error (exit 2).
    """
    def parse(text):
        value = kind(text)
        if not (value >= 0 if zero else value > 0):
            raise argparse.ArgumentTypeError(
                f"must be {'non-negative' if zero else 'positive'}, "
                f"got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names it: "invalid int value"
    return parse


# -- subcommands -------------------------------------------------------------


def _cmd_cotame(args):
    a0 = _skew(args.omega0)
    a1 = _skew(args.omega1)
    # construct_cotamed decides existence and returns only a J both forms tame
    try:
        j = symplin.construct_cotamed(a0, a1, eps=args.eps)
    except symplin.CotamedExistenceError:
        detail = {"cotamed_exists": False}
        verdict = "negative"
    else:
        detail = {
            "cotamed_exists": True,
            "J": j.matrix.tolist(),
            "taming_margins": [
                symplin.taming_margin(a0, j), symplin.taming_margin(a1, j),
            ],
        }
        verdict = "pass"
    return _report(
        "cotame", {"omega0": args.omega0, "omega1": args.omega1},
        verdict, "exact-pre/numeric-J" if a0.exact and a1.exact else "numeric",
        detail, {"taming_eig": symplin.TAMING_EIG, "eps": args.eps},
        "omega(v,w) = v^T A w; taming = sym(AJ) positive definite",
    )


def _cmd_pencil_reduce(args):
    a0 = _skew(args.omega0)
    a1 = _skew(args.omega1)
    red = symplin.simultaneous_reduce(a0, a1, eps=args.eps)
    blocks = []
    for b in red.blocks:
        if isinstance(b, symplin.RealBlock):
            blocks.append({"type": "real", "lambda": float(b.eigenvalue),
                           "chain": b.chain_length})
        else:
            blocks.append({"type": "complex", "mu": b.mu, "nu": b.nu,
                           "chain": b.chain_length})
    return _report(
        "pencil-reduce", {"omega0": args.omega0, "omega1": args.omega1},
        "pass", "exact" if red.eps == 0.0 else "grid",
        {
            "blocks": blocks,
            "omega0_residual": red.omega0_residual,
            "omega1_residual": red.omega1_residual,
            "basis": red.basis.tolist(),
            # nilpotent chains are accuracy-guaranteed only on synthetic
            # fixtures whose chain structure is known
            "experimental_chains": any(b["chain"] > 1 for b in blocks),
        },
        {"eps": args.eps, "omega0_gate": symplin.OMEGA0_GATE,
         "omega1_gate": symplin.OMEGA1_GATE * args.eps},
    )


def _cmd_verify_pair(args):
    preset = liealg.preset(args.preset)
    if preset.alpha_plus is None:
        raise UsageError(f"preset {args.preset} has no Liouville pair")
    cert = liealg.liouville_pair_check(
        preset.algebra, preset.alpha_plus, preset.alpha_minus
    )
    return _report(
        "verify-pair", {"preset": args.preset},
        cert.verdict,
        "positive-exact" if cert.verdict == "positive" else cert.kind,
        {
            "polynomial": [str(c) for c in (cert.polynomial or [])],
            "root_count": cert.root_count,
            "witness": _witness_json(cert.witness),
        },
        {}, cert.orientation,
    )


def _cmd_verify_contact(args):
    preset = liealg.preset(args.preset)
    form = {
        "alpha_plus": preset.alpha_plus,
        "alpha_minus": preset.alpha_minus,
        "liouville": preset.liouville_form,
    }[args.form]
    if form is None:
        raise UsageError(f"preset {args.preset} has no form {args.form}")
    g = preset.algebra
    if g.dim % 2 == 0:
        # even dimension: certify the Liouville volume sign of d(form)^n
        da = g.ce_differential(form)
        top = da.top_pairing(da.power(g.dim // 2 - 1))
        return _report(
            "verify-contact", {"preset": args.preset, "form": args.form},
            liealg.sign_verdict(top), "exact-sign",
            {"top_coefficient": top, "checked": "liouville-volume"},
            {}, preset.orientation,
        )
    cert = liealg.contact_check(g, form)
    return _report(
        "verify-contact", {"preset": args.preset, "form": args.form},
        cert.verdict, "exact-sign",
        {"top_coefficient": cert.value, "checked": "contact-volume"},
        {}, cert.orientation,
    )


def _pair(key):
    """The preset named by --pair, which must carry a Liouville pair."""
    preset = liealg.preset(key)
    if preset.alpha_plus is None or preset.alpha_minus is None:
        raise ValueError(f"preset {preset.key} carries no pair")
    return preset


@functools.cache
def _torsion_family(pair, k):
    """The torsion family of a preset pair, built and checked once per
    process; `reeb_field` and `contact_grid_check` only read it."""
    return formfam.gt_form(_pair(pair), k)


def _cmd_giroux_torsion(args):
    triple = _torsion_family(args.pair, args.k)
    chk = formfam.contact_grid_check(triple, args.grid)
    return _report(
        "giroux-torsion", {"pair": args.pair, "k": args.k, "grid": args.grid},
        "pass" if chk.passed else "negative", chk.kind,
        {"min_value": chk.min_value, "argmin": chk.argmin,
         "samples": chk.samples},
        {"positivity": "strict"}, chk.orientation,
    )


def _cmd_reeb(args):
    triple = _torsion_family(args.pair, args.k)
    res = formfam.reeb_field(triple, args.s, tol=args.tol)
    return _report(
        "reeb", {"pair": args.pair, "k": args.k, "s": args.s},
        "pass", "grid-certified",
        {
            "X": list(res.X.coords),
            "u": res.u,
            "branch": res.branch,
            "residual_pairing": res.residual_pairing,
            "residual_closure": res.residual_closure,
        },
        {"tol": args.tol},
    )


def _cmd_lutz_check(args):
    err = formfam.lutz_family_check(_pair(args.pair), args.k, args.tau,
                                    grid_n=args.grid)
    return _report(
        "lutz-check", {"pair": args.pair, "k": args.k, "tau": args.tau},
        "pass" if err <= LUTZ_IDENTITY_TOL else "negative", "grid-certified",
        {"max_relative_error": err}, {"identity": LUTZ_IDENTITY_TOL},
    )


def _cmd_cutoff(args):
    preset = _pair(args.pair)
    psi = formfam.cutoff_step(args.profile)
    if args.c is not None:
        top, argmin = formfam.cutoff_positive_on_grid(
            preset, args.c, psi, args.grid)
        return _report(
            "cutoff", {"pair": args.pair, "c": args.c},
            "pass" if top > 0 else "negative", "grid-certified",
            {"min_value": top, "argmin": argmin}, {},
        )
    c_star = formfam.min_c_search(preset, psi, grid_n=args.grid)
    refined, argmin = formfam.cutoff_positive_on_grid(
        preset, c_star, psi, 4 * args.grid)
    return _report(
        "cutoff", {"pair": args.pair, "profile": args.profile},
        "pass" if refined > 0 else "negative", "grid-certified",
        {"c_star": c_star, "refined_min": refined, "argmin": argmin},
        {"bisection": formfam.BISECTION_TOL},
    )


def _cmd_numfield(args):
    field = numfield.field_from_poly(_int_list(args.poly))
    report = numfield.build_liealg_pair(field, box_bound=args.box)
    r, s = field.signature
    detail = {
        "poly": list(field.poly.coeffs),
        "signature": [r, s],
        "poly_discriminant": field.discriminant(),
        "units": {
            "torsion_order": report.units.torsion_order,
            "free_generators": [list(u.coords) for u in
                                report.units.free_generators],
            "positive_generators": [list(u.coords) for u in
                                    report.positive_generators],
            "rank": report.units.rank,
        },
        "gamma_basis": [
            [z if not isinstance(z, complex) else {"re": z.real, "im": z.imag}
             for z in vec]
            for vec in report.lattice.gamma_basis
        ],
        "lattice_rank": report.lattice.rank,
    }
    if args.monodromy:
        detail["monodromy"] = report.lattice.monodromy
    verdict = "pass"
    kind = "exact"
    if report.certificate is not None:
        detail["liouville_certificate"] = (
            "positive-exact" if report.certificate.verdict == "positive"
            else report.certificate.verdict
        )
        verdict = "pass" if report.certificate.verdict == "positive" \
            else "negative"
    return _report(
        "numfield", {"poly": args.poly, "box": args.box},
        verdict, kind, detail,
        {"hyperplane": numfield.HYPERPLANE_TOL},
    )


def _cmd_geiges(args):
    n = args.n
    preset = liealg.geiges(n)
    pair_ok = liealg.geiges_pair_check(
        preset.algebra, preset.alpha_plus, preset.alpha_minus)
    iso = liealg.geiges_isomorphism(preset)
    verdict = "pass" if (pair_ok and iso.residual <= GEIGES_RESIDUAL_TOL
                         and iso.traces_vanish) else "negative"
    return _report(
        "geiges", {"n": n},
        verdict, "exact+numeric-isomorphism",
        {
            "geiges_pair": pair_ok,
            "isomorphism_residual": iso.residual,
            "signature": [iso.r, iso.s],
            "traces": iso.traces,
        },
        {"residual": GEIGES_RESIDUAL_TOL}, preset.orientation,
    )


def _cmd_suite(args):
    name = args.name
    if name == "appendix-equivalence":
        dims = _int_list(args.dims)
        if len(set(dims)) < len(dims):
            # per_dim keys on the dimension: a repeat would run its draws
            # twice and report them once
            raise UsageError(f"--dims repeats a dimension: {args.dims}")
        rep_data = symplin.appendix_equivalence_suite(
            args.trials, dims=tuple(dims), seed=args.seed)
    elif name == "cayley":
        rep_data = symplin.cayley_roundtrip_suite(args.trials, seed=args.seed)
    elif name == "interpolation":
        rep_data = symplin.interpolation_suite(args.trials, seed=args.seed)
    elif name == "cocompatible":
        rep_data = symplin.cocompatible_counterexample_suite(
            args.trials, seed=args.seed)
    else:
        raise UsageError(f"unknown suite {name!r}")
    return _report(
        "suite", {"name": name, "trials": args.trials, "dims": args.dims},
        "pass" if rep_data.passed else "negative", "randomized",
        {
            "trials": rep_data.trials,
            "mismatches": rep_data.mismatches,
            "worst_margin": rep_data.worst_margin,
            "seeds": rep_data.seeds,
            **rep_data.detail,
        },
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it as is."""
    ap = argparse.ArgumentParser(
        prog="liouville-lab",
        description="certificates for contact forms, Liouville pairs, "
                    "cotamed structures and unit-lattice monodromies",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="JSON report on stdout")
    common.add_argument("--seed", type=_positive(int, zero=True), default=0)
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add("cotame", help="decide and construct a cotamed J")
    p.add_argument("--omega0", required=True)
    p.add_argument("--omega1", required=True)
    p.add_argument("--eps", type=_positive(float), default=1e-3)
    p.set_defaults(fn=_cmd_cotame)

    p = add("pencil-reduce", help="simultaneous block reduction")
    p.add_argument("--omega0", required=True)
    p.add_argument("--omega1", required=True)
    p.add_argument("--eps", type=_positive(float), default=1e-3)
    p.set_defaults(fn=_cmd_pencil_reduce)

    p = add("verify-pair", help="exact Liouville-pair certificate")
    p.add_argument("--preset", required=True)
    p.set_defaults(fn=_cmd_verify_pair)

    p = add("verify-contact", help="exact contact-volume sign")
    p.add_argument("--preset", required=True)
    p.add_argument("--form", default="alpha_plus",
                   choices=["alpha_plus", "alpha_minus", "liouville"])
    p.set_defaults(fn=_cmd_verify_contact)

    p = add("giroux-torsion", help="grid check of the torsion form")
    p.add_argument("--pair", required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--grid", type=_positive(int), default=1024)
    p.set_defaults(fn=_cmd_giroux_torsion)

    p = add("reeb", help="Reeb field of the torsion family at s")
    p.add_argument("--pair", required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--tol", type=_positive(float), default=1e-8)
    p.set_defaults(fn=_cmd_reeb)

    p = add("lutz-check", help="twist-interpolation identity")
    p.add_argument("--pair", required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--tau", type=float, default=0.5)
    p.add_argument("--grid", type=_positive(int), default=512)
    p.set_defaults(fn=_cmd_lutz_check)

    p = add("cutoff", help="cutoff Liouville positivity / search")
    p.add_argument("--pair", required=True)
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--grid", type=_positive(int), default=256)
    p.add_argument("--profile", default="quintic",
                   choices=["quintic", "cubic"])
    p.set_defaults(fn=_cmd_cutoff)

    p = add("numfield", help="units, lattice and monodromy")
    p.add_argument("--poly", required=True,
                   help="comma list of ascending integer coefficients")
    p.add_argument("--box", type=_positive(int), default=None)
    p.add_argument("--monodromy", action="store_true")
    p.set_defaults(fn=_cmd_numfield)

    p = add("geiges", help="Geiges pair and normal-form residual")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=_cmd_geiges)

    p = add("suite", help="randomized verification suites")
    p.add_argument("--name", required=True,
                   choices=["appendix-equivalence", "cayley",
                            "interpolation", "cocompatible"])
    p.add_argument("--trials", type=_positive(int), default=100)
    p.add_argument("--dims", default="4,6")
    p.set_defaults(fn=_cmd_suite)

    return ap


def _witness_json(witness):
    if witness is None:
        return None
    return [str(x) for x in witness]


def _merge_negative_lists(argv):
    """Join '--poly -2,0,1' into '--poly=-2,0,1' so argparse accepts it."""
    out = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok in ("--poly", "--dims") and i + 1 < len(argv):
            nxt = argv[i + 1]
            if nxt.startswith("-") and any(ch.isdigit() for ch in nxt):
                out.append(f"{tok}={nxt}")
                skip = True
                continue
        out.append(tok)
    return out


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_merge_negative_lists(list(argv)))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        report = args.fn(args)
        report["seed"] = args.seed
        return _emit(report, args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    except (ValueError, OSError, json.JSONDecodeError) as err:
        print(f"input error: {err}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
