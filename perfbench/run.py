"""Benchmark of the quasistat verdict pipeline.

Each workload is one CLI invocation, run in-process through
``quasistat.cli.main(argv)`` in a single-process closed loop: invocation i of
a run uses seed 10000 * --seed + i, and the next invocation starts when the
previous one returns.  Every invocation's report is checked; at the end of a
run the first seed is repeated and must reproduce its CSV and report.

    python3 perfbench/run.py --workload pd_invariance --seed 1 --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced invocations and reports the per-layer metrics of
``spans.py``.  The last line of standard output is one JSON object; the lines
before it are a readable report.  See README.md for why each workload and
metric is here.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import provenance
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SEED_STRIDE = 10_000
SETUP_REPS = 5

# workload -> (subcommand, flags).  front_bounds passes --rho equal to
# --alpha: verify-lemma reads --alpha as the intensity today, and keeps the
# same meaning once it reads --rho.
WORKLOADS = {
    "pd_invariance": ("test-invariance", {
        "kind": "pd", "alpha": 0.5, "replicas": 2000, "trunc-n": 500, "topk": 5, "n-perm": 199}),
    "front_bounds": ("verify-lemma", {
        "alpha": 0.5, "rho": 0.5, "tau": 10, "replicas": 1000, "trunc-n": 500, "grid-points": 100}),
    "pp_gaps_deep": ("test-invariance", {
        "kind": "pp", "rho": 1, "tau": 1, "replicas": 200, "trunc-n": 100000, "topk": 10}),
}

REPORTS = {
    "test-invariance": "test_invariance_report.json",
    "verify-lemma": "verify_lemma_report.json",
}

END_TO_END = {
    "replicas_per_s": "replicas/s",
    "run_s.p50": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "cli.self_s": "s",
    "cli.replica_rng.calls": "count",
    "cli.replica_rng.s": "s",
    "cli.write_csv.s": "s",
    "pointproc.sample.calls": "count",
    "pointproc.sample.s": "s",
    "pointproc.points_drawn": "count",
    "pointproc.validate.calls": "count",
    "pointproc.validate.s": "s",
    "dynamics.evolve.calls": "count",
    "dynamics.evolve.s": "s",
    "dynamics.points_reranked": "count",
    "dynamics.rank_useful_frac": "frac",
    "dynamics.shift.s": "s",
    "dynamics.tail_prob.s": "s",
    "dynamics.tail_prob.evals": "count",
    "analysis.front_profile.calls": "count",
    "analysis.front_profile.s": "s",
    "analysis.jump_check.s": "s",
    "analysis.gap_vector.s": "s",
    "stattest.verdict.s": "s",
    "stattest.energy.s": "s",
    "stattest.energy.pooled_rows": "count",
    "stattest.energy.dist_bytes": "bytes",
    "stattest.energy.gemm_flops": "flop",
    "stattest.ks.calls": "count",
    "stattest.ks.s": "s",
    "trace_overhead_frac": "frac",
    "ops_failed_frac": "frac",
}


@dataclass
class Invocation:
    seed: int
    traced: bool
    seconds: float = 0.0
    exit_code: object = None
    problems: list = field(default_factory=list)
    fingerprint: object = None


def workload_argv(workload, seed, out_dir):
    command, flags = workload
    argv = [command]
    for flag, value in flags.items():
        argv += [f"--{flag}", str(value)]
    return argv + ["--seed", str(seed), "--out", str(out_dir)]


def check_report(command, exit_code, out_dir):
    """Problems with one invocation's outcome, and its fingerprint for the repeat.

    Exit 1 is a statistical rejection and is valid when the report agrees.
    """
    if exit_code not in (0, 1):
        return [f"exit code {exit_code}"], None
    try:
        report = json.loads((out_dir / REPORTS[command]).read_text())
    except (OSError, ValueError) as exc:
        return [f"report missing or not JSON: {exc}"], None
    if not isinstance(report, dict):
        return ["report malformed: not a JSON object"], None
    problems = []
    try:
        if command == "test-invariance":
            p_values = [entry["p"] for entry in report["ks"]] + [report["energy_p"]]
            if not all(0.0 <= p <= 1.0 for p in p_values):
                problems.append(f"p-value outside [0, 1]: {p_values}")
            if report["verdict"] not in ("consistent", "rejected"):
                problems.append(f"unknown verdict {report['verdict']!r}")
            passed = report["verdict"] == "consistent"
        else:
            # pathwise theorems: a single violation is a wrong result
            for key in ("markov_violations", "z_violations"):
                if report[key] != 0:
                    problems.append(f"{key} = {report[key]}")
            passed = report["passed"]
        if passed != (exit_code == 0):
            problems.append(f"exit code {exit_code} disagrees with the report")
    except (KeyError, TypeError) as exc:
        problems.append(f"report malformed: {exc!r}")
    report.pop("runtime_seconds", None)
    csvs = {p.name: p.read_bytes() for p in sorted(out_dir.glob("*.csv"))}
    return problems, (report, csvs)


def invoke(cli, workload, seed, out_dir, tracer=None):
    """One closed-loop invocation: argv to the report on disk, then its checks."""
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = workload_argv(workload, seed, out_dir)
    inv = Invocation(seed=seed, traced=tracer is not None)
    stderr = io.StringIO()
    patched = tracer.installed() if tracer else contextlib.nullcontext()
    with patched, contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        start = time.perf_counter()
        try:
            inv.exit_code = cli.main(argv)
        except SystemExit as exc:
            inv.exit_code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            inv.problems.append("raised " + traceback.format_exc().strip().splitlines()[-1])
        inv.seconds = time.perf_counter() - start
    if not inv.problems:
        inv.problems, inv.fingerprint = check_report(workload[0], inv.exit_code, out_dir)
    if inv.problems and stderr.getvalue().strip():
        inv.problems.append("stderr: " + stderr.getvalue().strip().splitlines()[-1])
    return inv


def run_loop(cli, workload, seed, seconds, out_dir, tracer=None):
    """Closed loop for ``seconds``; returns (invocations, repeat, wall seconds)."""
    base = seed * SEED_STRIDE
    minimum = 2 if tracer else 1
    invocations = []
    start = time.perf_counter()
    while len(invocations) < minimum or time.perf_counter() - start < seconds:
        traced = tracer is not None and len(invocations) % 2 == 1
        invocations.append(invoke(cli, workload, base + len(invocations), out_dir,
                                  tracer if traced else None))
    wall = time.perf_counter() - start
    repeat = invoke(cli, workload, base, out_dir)
    first = invocations[0]
    if not repeat.problems and repeat.fingerprint != first.fingerprint:
        repeat.problems.append(f"seed {base} did not reproduce its CSV and report")
    return invocations, repeat, wall


def measure_setup(reps):
    """Median wall seconds for a fresh interpreter to import quasistat.cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import quasistat.cli"], env=env, cwd=ROOT,
                       check=True, timeout=120)
        times.append(time.perf_counter() - start)
    return statistics.median(times), times


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end_metrics(workload, invocations, wall, setup_s):
    replicas = workload[1]["replicas"]
    completed = sum(1 for inv in invocations if not inv.problems)
    values = {
        "replicas_per_s": completed * replicas / wall,
        "run_s.p50": statistics.median(inv.seconds for inv in invocations),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "setup_s": setup_s,
    }
    return {name: _metric(values[name], unit) for name, unit in END_TO_END.items()}


def per_layer_metrics(cli, workload, tracer, invocations, failed_frac):
    traced = [inv.seconds for inv in invocations if inv.traced]
    untraced = [inv.seconds for inv in invocations if not inv.traced]
    n = len(traced)
    counters = tracer.counters
    topk = workload[1].get("topk", cli.DEFAULTS["topk"])
    reranked = counters["dynamics.points_reranked"]
    values = {
        "cli.self_s": tracer.layer_self_s()["cli"] / n,
        "dynamics.rank_useful_frac":
            (topk + 1) * counters["dynamics.reranks"] / reranked if reranked else 0.0,
        "trace_overhead_frac": statistics.median(traced) / statistics.median(untraced) - 1.0,
        "ops_failed_frac": failed_frac,
    }
    for name in PER_LAYER:
        span, _, stat = name.rpartition(".")
        if name in values:
            continue
        if stat == "calls":
            values[name] = tracer.calls[span] / n
        elif stat == "s":
            values[name] = tracer.self_s[span] / n
        else:
            values[name] = counters[name] / n
    return {name: _metric(values[name], unit) for name, unit in PER_LAYER.items()}


def report_lines(name, invocations, repeat, metrics, tracer):
    lines = [f"workload {name}: {len(invocations)} invocations in the loop + 1 repeat of seed "
             f"{repeat.seed}; exit 1 (statistical rejection, valid) on "
             f"{sum(inv.exit_code == 1 for inv in invocations)}"]
    for inv in invocations + [repeat]:
        for problem in inv.problems:
            lines.append(f"  FAILED seed {inv.seed}: {problem}")
    untraced = [inv.seconds for inv in invocations if not inv.traced]
    traced = [inv.seconds for inv in invocations if inv.traced]
    for metric, entry in metrics.items():
        note = (f"  (median of {len(untraced)} invocations, min {min(untraced):.4f}, "
                f"max {max(untraced):.4f})" if metric == "run_s.p50" else "")
        lines.append(f"  {metric:<30} {entry['value']:>16.6g} {entry['unit']}{note}")
    if tracer is not None:
        layers = tracer.layer_self_s()
        lines.append("  layer self seconds per traced invocation: " + ", ".join(
            f"{layer} {seconds / len(traced):.4f}" for layer, seconds in layers.items()))
        lines.append(f"  sum of layer self times / traced wall time: "
                     f"{sum(layers.values()) / sum(traced):.4f}")
        lines.append("  absent, missing: " + (", ".join(tracer.missing) or "none"))
        lines.append("  absent, never called: " + (", ".join(tracer.uncalled()) or "none"))
        if tracer.counter_errors:
            lines.append("  counters that failed: " + ", ".join(sorted(tracer.counter_errors)))
    return lines


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None, workloads=WORKLOADS, setup_reps=SETUP_REPS):
    args = parse_args(argv, workloads)
    if not (SRC / "quasistat" / "cli.py").is_file():
        print(f"error: no quasistat sources under {SRC}", file=sys.stderr)
        return 2
    blas_threads = provenance.cap_blas_threads()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from quasistat import cli

    workload = workloads[args.workload]
    print("machine " + json.dumps(provenance.machine(ROOT, blas_threads), sort_keys=True))
    print("argv: quasistat " + " ".join(workload_argv(workload, "<seed>", "<out>")))
    tracer = spans.Tracer() if args.trace else None
    if not args.trace:
        setup_s, setup_times = measure_setup(setup_reps)
        print("setup_s samples: " + ", ".join(f"{t:.4f}" for t in setup_times))
    work = HERE / ".work" / str(os.getpid())
    try:
        invocations, repeat, wall = run_loop(cli, workload, args.seed, args.seconds,
                                             work / "out", tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = len(invocations) + 1
    failed = sum(bool(inv.problems) for inv in invocations + [repeat])
    if args.trace:
        metrics = per_layer_metrics(cli, workload, tracer, invocations, failed / attempted)
    else:
        metrics = end_to_end_metrics(workload, invocations, wall, setup_s)
    for line in report_lines(args.workload, invocations, repeat, metrics, tracer):
        print(line)
    print(f"ops_failed_frac {failed / attempted:.6g} frac ({failed} failed of {attempted} attempted)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
