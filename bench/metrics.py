"""Metric definitions: end-to-end metrics and per-layer metrics.

End-to-end metrics are measured with tracing off.  `END_TO_END` are the
ones every workload reports in its JSON result (and BENCHMARK.json bounds);
round_s, failed_ratio and the per-command `LATENCIES` are printed and
recorded with them.  round_norm, the round time in units of a reference
kernel timed alongside it (run.run_round), is the bounded round metric,
because round_s moves by 15-40% between runs as a shared host changes
speed.  setup_s is the set-up wall time rescaled by the same reference
kernel (run.timed_set_up); its raw wall time is printed as setup_wall_s.

Per-layer metrics come from the traced rounds: counts are taken from the
first traced round (they repeat exactly), times are medians over the traced
rounds.  Metric names start with a letter, so the `_poly` module's metrics
are named `poly.*`.
"""

from __future__ import annotations

import statistics

END_TO_END = {"setup_s": "s", "round_norm": "ratio", "peak_rss_mb": "MB"}

LATENCIES = (
    "giroux_torsion_ms", "reeb_ms", "lutz_check_ms", "cutoff_ms",
    "weak_filling_ms", "verify_ms", "geiges_ms", "numfield_ms",
    "pencil_reduce_ms", "cotame_ms", "suite_ms",
)

PERCENTILES = (50, 90, 95, 99, 99.9)


def latency_summary(samples):
    """Median, sample count and the highest percentile with >= 10 beyond."""
    out = {"median": statistics.median(samples), "samples": len(samples)}
    n = len(samples)
    fit = [p for p in PERCENTILES if n * (1 - p / 100) >= 10]
    if fit:
        p = fit[-1]
        ranked = sorted(samples)
        out[f"p{p:g}"] = ranked[min(n - 1, int(p / 100 * n))]
    return out


# -- per-layer --------------------------------------------------------------------


def _stat(span, key):
    return lambda spans, rnd: spans.get(span, {}).get(key, 0)


def _ratio(num, den):
    def fn(spans, rnd):
        d = den(spans, rnd)
        return num(spans, rnd) / d if d else 0.0
    return fn


def _under(span, parent):
    return lambda spans, rnd: spans.get(span, {}).get("under", {}).get(parent, 0)


def _layer(span, *kinds):
    """Metrics `<span>.calls` and/or `<span>.self_s` of one traced span."""
    prefix = "poly" + span[len("_poly"):] if span.startswith("_poly") else span
    return [(f"{prefix}.{k}", "count" if k == "calls" else "s",
             _stat(span, k)) for k in kinds]


CALLS_SELF = ("calls", "self_s")
SELF = ("self_s",)

# (name, unit, function of (span stats of one round, bench round record))
PER_LAYER = [
    # exterior
    ("exterior.Form.calls", "count", _stat("exterior.Form", "calls")),
    ("exterior.Form.self_s", "s", _stat("exterior.Form", "self_s")),
    ("exterior.wedge.float.calls", "count",
     _stat("exterior.Form.wedge.float", "calls")),
    ("exterior.wedge.float.self_s", "s",
     _stat("exterior.Form.wedge.float", "self_s")),
    ("exterior.wedge.exact.calls", "count",
     _stat("exterior.Form.wedge.exact", "calls")),
    ("exterior.wedge.exact.self_s", "s",
     _stat("exterior.Form.wedge.exact", "self_s")),
    ("exterior.power.calls", "count", _stat("exterior.Form.power", "calls")),
    # formfam
    *_layer("formfam.ParamForm.at", *CALLS_SELF),
    *_layer("formfam.contact_grid_check", *SELF),
    *_layer("formfam.reeb_field", *CALLS_SELF),
    *_layer("formfam.cutoff_positive_on_grid", *CALLS_SELF),
    *_layer("formfam.lutz_family_check", *SELF),
    *_layer("formfam.sol_weak_filling_fixture", *SELF),
    # liealg
    *_layer("liealg.LieAlgebra.jacobi_check", *CALLS_SELF),
    *_layer("liealg.preset", *SELF),
    *_layer("liealg.LieAlgebra.ce_differential", *CALLS_SELF),
    *_layer("liealg.liouville_pair_check", *SELF),
    # _poly
    *_layer("_poly.sturm_chain", *CALLS_SELF),
    ("poly.sturm_chain.len_sum", "count", _stat("_poly.sturm_chain", "value")),
    *_layer("_poly.int_det", *CALLS_SELF),
    ("poly.int_det.unit_hits", "count", _stat("_poly.int_det", "value")),
    # numfield
    ("numfield.find_units.hit_ratio", "ratio",
     _ratio(_stat("_poly.int_det", "value"), _stat("_poly.int_det", "calls"))),
    *_layer("numfield.find_units", *SELF),
    *_layer("numfield.mult_matrix", *CALLS_SELF),
    *_layer("numfield.gamma_lattice", *SELF),
    *_layer("numfield.monodromy_matrices", *SELF),
    # symplin
    *_layer("symplin.simultaneous_reduce", *CALLS_SELF),
    ("symplin.simultaneous_reduce.exact_ratio", "ratio",
     _ratio(_stat("symplin.simultaneous_reduce", "value"),
            _stat("symplin.simultaneous_reduce", "calls"))),
    *_layer("symplin.construct_cotamed", *CALLS_SELF),
    ("symplin.construct_cotamed.failed", "count",
     _stat("symplin.construct_cotamed", "raised")),
    ("symplin.construct_cotamed.reduce_per_call", "ratio",
     _ratio(_under("symplin.simultaneous_reduce", "symplin.construct_cotamed"),
            _stat("symplin.construct_cotamed", "calls"))),
    *_layer("symplin.tames", "calls"),
    *_layer("symplin.appendix_equivalence_suite", *SELF),
    *_layer("symplin.cayley_roundtrip_suite", *SELF),
    *_layer("symplin.interpolation_suite", *SELF),
    *_layer("symplin.cocompatible_counterexample_suite", *SELF),
    # cli
    *_layer("cli.run", *SELF),
    ("cli.report_bytes", "bytes", lambda spans, rnd: rnd["bytes"]),
    # the tracer itself
    ("trace.spans", "count",
     lambda spans, rnd: sum(s["calls"] for s in spans.values())),
]

# filled in from the untraced and traced round times, not from spans
TRACE_OVERHEAD = ("trace.overhead_s", "s")


def per_layer(span_rounds, bench_rounds):
    """{metric: (value, unit)}: first-round counts, median times."""
    out = {}
    for name, unit, fn in PER_LAYER:
        values = [fn(s, r) for s, r in zip(span_rounds, bench_rounds)]
        out[name] = (float(statistics.median(values)) if unit == "s"
                     else values[0], unit)
    return out


def nondeterministic_counts(span_rounds, bench_rounds):
    """Count metrics whose value differs between traced rounds."""
    return [name for name, unit, fn in PER_LAYER if unit != "s"
            and len({fn(s, r) for s, r in zip(span_rounds, bench_rounds)}) > 1]
