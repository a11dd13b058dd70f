"""liouville-lab benchmark: one closed-loop workload, end to end or traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each workload is a closed loop: one client in
one single-threaded process runs the workload's fixed operation list round
after round, each operation starting when the previous one returned.  An
operation is an in-process `cli.run(argv)` call (stdout captured, JSON report
parsed) or one public library call, and its output is checked against an
oracle.  Rounds run until another one would overrun S seconds.  During
untraced rounds a host clock (hostclock.py) times a small reference kernel
every 50 ms, inside operations too; its time is left out of round_s, and
round_norm counts the round in units of the kernel's mean time, which
cancels the speed drift of a shared host.  setup_s, the median of one
set-up in this process and SETUP_PROBES in fresh ones, is rescaled the same
way (timed_set_up); the raw wall time is setup_wall_s.

With --trace 0 the last stdout line is the JSON result with the end-to-end
metrics; earlier lines print every metric with its unit, the per-command
latencies and any failed operation with its exception class.  With --trace 1
the process first runs untraced rounds for a third of S, then installs the
span wrappers of tracer.py and runs traced rounds; the JSON result holds the
per-layer metrics and the tracing overhead.  A full record of the run (the
environment, every metric, failures) is written to bench/out/, and a traced
run also writes its spans there.

`correct` is false when an operation fails in a way that is not a listed
known defect; known defects still count in `failed` and in failed_ratio.
"""

from __future__ import annotations

import os

# before numpy is imported anywhere: pin BLAS/OpenMP pools to one thread
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

import metrics  # noqa: E402
import oracle  # noqa: E402
from hostclock import HostClock, kernel  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_PROBES = 4        # extra set-ups in fresh processes, for the median
SETUP_KERNELS = 8       # kernel samples just before and just after a set-up
SETUP_PERIOD_S = 0.01   # host-clock period during a set-up
ROUND_PERIOD_S = 0.05   # host-clock period during untraced rounds
REFERENCE_KERNEL_S = 0.0007  # hostclock.kernel time that defines setup_s
UNTRACED_SHARE = 1 / 3  # of --seconds, in a traced run


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["families", "exact", "number-fields", "pencils"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only set up, print the set-up times and exit")
    return ap.parse_args(argv)


# -- operations -------------------------------------------------------------------


def execute(op, cli):
    """Run one operation: (seconds, report bytes, failure or None).

    The time covers the call only; parsing and the oracle run after it.  A
    failure is (phase, exception class, message), phase "call" when the
    library raised and "oracle" when the output was wrong.
    """
    out = io.StringIO()
    t = time.perf_counter()
    try:
        if op.call is not None:
            result = op.call()
        else:
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = cli.run(op.argv + ["--json"])
    except Exception as err:  # recorded as a failed operation, loop goes on
        return time.perf_counter() - t, 0, ("call", type(err).__name__,
                                            str(err))
    dt = time.perf_counter() - t
    text = out.getvalue()
    try:
        if op.call is None:
            result = (code, json.loads(text) if text.strip() else None)
        op.check(result)
    except (oracle.OracleError, ValueError, KeyError, TypeError) as err:
        return dt, len(text), ("oracle", type(err).__name__, str(err))
    return dt, len(text), None


def run_round(ops, cli, clock=None, tracer=None, first_index=0):
    """One pass over the operation list.

    With a host clock (untraced rounds) the time its handler took is left
    out of round_s and of every operation's time, and round_norm is round_s
    divided by the mean kernel time over the round: the round counted in
    kernel times, which cancels the speed drift of a shared host.  Without
    one, round_norm is None.
    """
    times = {}
    failures = []
    nbytes = 0
    mark = clock.mark() if clock is not None else None
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_index = first_index + i
        spent = clock.spent if clock is not None else 0.0
        dt, n, failure = execute(op, cli)
        if clock is not None:
            dt -= clock.spent - spent
        times[op.metric] = times.get(op.metric, 0.0) + dt
        nbytes += n
        if failure is not None:
            failures.append((op, *failure))
    if clock is None:
        round_s, round_norm = time.perf_counter() - start, None
    else:
        kernel_s, spent = clock.since(mark)
        round_s = time.perf_counter() - start - spent
        round_norm = round_s / kernel_s
    return {"round_s": round_s, "round_norm": round_norm, "times": times,
            "failures": failures, "bytes": nbytes, "attempted": len(ops)}


def run_rounds(ops, cli, seconds, clock=None, tracer=None):
    """Rounds until the next one would likely end after `seconds` (>= 1)."""
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(run_round(ops, cli, clock, tracer,
                                len(rounds) * len(ops)))
        elapsed = time.perf_counter() - start
        typical = statistics.median(r["round_s"] for r in rounds)
        if elapsed + typical > seconds:
            return rounds


# -- set-up -----------------------------------------------------------------------


def set_up(args, workdir):
    """Import the library, build the seeded inputs, run the warm-up op.

    Returns (cli module, operation list, set-up seconds).  Exits with code 2
    when the library source is not next to the benchmark.
    """
    t0 = time.perf_counter()
    if not (SRC / "liouville_lab" / "__init__.py").is_file():
        print(f"liouville_lab source not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    # numpy arrives with the library, inside the timed set-up
    import liouville_lab
    from liouville_lab import cli

    if Path(liouville_lab.__file__).resolve().parent != SRC / "liouville_lab":
        print(f"imported liouville_lab from {liouville_lab.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        sys.exit(2)
    import workloads

    workdir.mkdir(parents=True, exist_ok=True)
    warmup, ops = workloads.build(args.workload, args.seed, workdir)
    failure = execute(warmup, cli)[2]
    if failure is not None:
        print(f"warm-up operation {warmup.id} failed: {failure}",
              file=sys.stderr)
        sys.exit(1)
    return cli, ops, time.perf_counter() - t0


def timed_set_up(args, workdir):
    """set_up, timed against the host clock.

    Returns (cli, ops, {"setup_s", "setup_wall_s"}).  setup_wall_s is the
    set-up's wall time without the clock handler's time.  setup_s is that
    time rescaled to a host on which hostclock.kernel takes
    REFERENCE_KERNEL_S, with the mean kernel time of the samples taken
    during the set-up and SETUP_KERNELS just before and just after it.  A
    shared host changes speed by a third between minutes, and the rescaling
    divides that out, as round_norm does for the rounds.
    """
    kernel()  # first call, out of the mean
    with HostClock(SETUP_PERIOD_S) as clock:
        for _ in range(SETUP_KERNELS):
            clock.sample()
        spent = clock.spent
        cli, ops, wall = set_up(args, workdir)
        wall -= clock.spent - spent
        for _ in range(SETUP_KERNELS):
            clock.sample()
    scale = REFERENCE_KERNEL_S / statistics.fmean(clock.samples)
    return cli, ops, {"setup_s": wall * scale, "setup_wall_s": wall}


def probe_set_up(args):
    """Set-up times measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         args.workload, "--seed", str(args.seed), "--seconds", "0",
         "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


# -- environment ------------------------------------------------------------------


def environment():
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        top, _, sha = git.stdout.strip().partition("\n")
        git_sha = sha if git.returncode == 0 and Path(top) == ROOT else None
    except (OSError, subprocess.TimeoutExpired):
        git_sha = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "liouville_lab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    import numpy

    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


# -- reporting --------------------------------------------------------------------


def failure_summary(rounds):
    """{op id: {class, phase, message, count, known}} over all rounds."""
    out = {}
    for r in rounds:
        for op, phase, cls, msg in r["failures"]:
            entry = out.setdefault(op.id, {
                "class": cls, "phase": phase, "message": msg[:300],
                "count": 0,
                "known_defect": phase == "call" and cls == op.defect})
            entry["count"] += 1
    return out


def end_to_end(rounds, setup_samples):
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(len(r["failures"]) for r in rounds)
    out = {
        "setup_s": (statistics.median(s["setup_s"] for s in setup_samples),
                    "s"),
        "setup_wall_s": (statistics.median(s["setup_wall_s"]
                                           for s in setup_samples), "s"),
        "round_s": (statistics.median(r["round_s"] for r in rounds), "s"),
        "round_norm": (statistics.median(r["round_norm"] for r in rounds),
                       "ratio"),
        "failed_ratio": (failed / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    latencies = {}
    for name in metrics.LATENCIES:
        samples = [1000 * r["times"][name] for r in rounds
                   if name in r["times"]]
        if samples:
            latencies[name] = metrics.latency_summary(samples)
    return out, latencies


def main(argv=None):
    args = parse_args(argv)
    workdir = OUT / f"inputs-{os.getpid()}"
    try:
        cli, ops, setup = timed_set_up(args, workdir)
        if args.setup_probe:
            print(json.dumps(setup))
            return 0
        if args.trace:
            return traced_run(args, cli, ops)
        return untraced_run(args, cli, ops, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def untraced_run(args, cli, ops, setup):
    with HostClock(ROUND_PERIOD_S) as clock:
        rounds = run_rounds(ops, cli, args.seconds, clock)
    setup_samples = [setup] + [probe_set_up(args)
                                 for _ in range(SETUP_PROBES)]
    e2e, latencies = end_to_end(rounds, setup_samples)
    failures = failure_summary(rounds)
    lines = [f"{name:<18} {value:.6g} {unit}" for name, (value, unit)
             in e2e.items()]
    for name, lat in latencies.items():
        pct = [f"{k} {v:.6g} ms" for k, v in lat.items()
               if k not in ("median", "samples")]
        lines.append(f"{name:<18} {lat['median']:.6g} ms  (median of "
                     f"{lat['samples']} rounds; "
                     f"{', '.join(pct) or 'no percentile has 10 samples beyond it'})")
    record = {"setup_samples": setup_samples,
              "round_s": [r["round_s"] for r in rounds],
              "round_norm": [r["round_norm"] for r in rounds],
              "latencies_ms": latencies}
    return finish(args, rounds, failures, lines,
                  {k: e2e[k] for k in metrics.END_TO_END}, e2e, record)


def traced_run(args, cli, ops):
    from tracer import Tracer

    start = time.perf_counter()
    plain = run_rounds(ops, cli, args.seconds * UNTRACED_SHARE)
    remaining = args.seconds - (time.perf_counter() - start)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_rounds(ops, cli, remaining, tracer=tracer)
    finally:
        tracer.uninstall()
    span_rounds = tracer.per_round(len(ops), 0)
    layers = metrics.per_layer(span_rounds, traced)
    overhead = (statistics.median(r["round_s"] for r in traced)
                - statistics.median(r["round_s"] for r in plain))
    layers[metrics.TRACE_OVERHEAD[0]] = (overhead, metrics.TRACE_OVERHEAD[1])
    drifting = metrics.nondeterministic_counts(span_rounds, traced)
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.save(OUT / f"{args.workload}-spans.npz", [op.id for op in ops])
    rounds = plain + traced
    lines = [f"{name:<48} {value:.6g} {unit}"
             for name, (value, unit) in layers.items()]
    if drifting:
        lines.append(f"counts that differ between traced rounds: {drifting}")
    record = {"untraced_round_s": [r["round_s"] for r in plain],
              "traced_round_s": [r["round_s"] for r in traced],
              "drifting_counts": drifting}
    return finish(args, rounds, failure_summary(rounds), lines, layers,
                  layers, record)


def finish(args, rounds, failures, lines, reported, recorded, record):
    """Print the summary and the JSON result line, write the run record."""
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(len(r["failures"]) for r in rounds)
    correct = all(f["known_defect"] for f in failures.values())
    env = environment()
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {len(rounds)}  attempted {attempted}  failed {failed}  "
          f"correct {correct}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    for line in lines:
        print(line)
    for op_id, f in failures.items():
        tag = "known defect" if f["known_defect"] else "UNEXPECTED"
        print(f"failed {f['count']}x [{tag}] {op_id}: {f['class']} "
              f"({f['phase']}): {f['message'][:120]}")
    OUT.mkdir(parents=True, exist_ok=True)
    record.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "environment": env, "attempted": attempted,
        "failed": failed, "correct": correct, "failures": failures,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in recorded.items()},
    })
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
