"""Self-check of the benchmark.

    python3 bench/selfcheck.py [--seed N] [--workload NAME ...]

Run from the repository root.  For each workload it
- runs two traced runs with the same seed and requires identical counts
  (every per-layer metric whose unit is not a time: `.calls`, `.len_sum`,
  `.unit_hits`, `ParamForm.at.calls`, ratios, report bytes);
- requires the JSON result of an untraced run to hold exactly the
  end_to_end metrics of BENCHMARK.json, and that of a traced run exactly
  the per_layer metrics, each with its unit;
- requires the run record to hold a latency for every command the workload
  runs;
and finally that the benchmark, copied without the library next to it,
exits with an error and prints no result.  Exits 1 on any finding.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# the per-command latencies each workload must report
LATENCIES = {
    "families": {"giroux_torsion_ms", "reeb_ms", "lutz_check_ms",
                 "cutoff_ms", "weak_filling_ms"},
    "exact": {"verify_ms", "geiges_ms"},
    "number-fields": {"numfield_ms"},
    "pencils": {"pencil_reduce_ms", "cotame_ms", "suite_ms"},
}
TIME_UNITS = {"s", "ms"}


def run(workload, seed, trace, seconds=1, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def result(proc):
    if proc.returncode != 0:
        raise RuntimeError(f"exit code {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_workload(workload, seed, spec, findings):
    def finding(msg):
        findings.append(f"{workload}: {msg}")

    units = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    first = result(run(workload, seed, 1))
    second = result(run(workload, seed, 1))
    plain = result(run(workload, seed, 0))
    for trace, res in ((1, first), (0, plain)):
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        if got != units[trace]:
            finding(f"--trace {trace} metrics differ from BENCHMARK.json: "
                    f"missing {sorted(set(units[trace]) - set(got))}, "
                    f"extra {sorted(set(got) - set(units[trace]))}, units "
                    f"{ {k: (got[k], u) for k, u in units[trace].items() if k in got and got[k] != u} }")
        if not res["correct"]:
            finding(f"--trace {trace} run is not correct")
    for name, unit in units[1].items():
        if unit in TIME_UNITS or name not in first["metrics"]:
            continue
        a = first["metrics"][name]["value"]
        b = second["metrics"][name]["value"]
        if a != b:
            finding(f"{name} differs between traced runs: {a} != {b}")
    record = json.loads((BENCH / "out" /
                         f"{workload}-seed{seed}-trace0.json").read_text())
    got = set(record["latencies_ms"])
    if got != LATENCIES[workload]:
        finding(f"latencies {sorted(got)}, expected "
                f"{sorted(LATENCIES[workload])}")
    for name, lat in record["latencies_ms"].items():
        if not lat["median"] > 0 or lat["samples"] < 1:
            finding(f"latency {name} has no positive median: {lat}")


def check_stripped(findings):
    """Without the library next to it the benchmark must fail, silently."""
    (BENCH / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / "out") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH, Path(tmp) / "bench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run("exact", 1, 0, cwd=tmp)
    if proc.returncode == 0 or proc.stdout.strip():
        findings.append(f"stripped copy: exit code {proc.returncode}, "
                        f"stdout {proc.stdout[-200:]!r}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--workload", action="append", choices=sorted(LATENCIES))
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    findings = []
    for workload in args.workload or LATENCIES:
        check_workload(workload, args.seed, spec, findings)
        print(f"checked {workload}", flush=True)
    check_stripped(findings)
    for f in findings:
        print("FINDING", f)
    print("self-check", "failed" if findings else "passed")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
