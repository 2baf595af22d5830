"""Smoke test of the benchmark at tiny sizes (about half a minute).

    python3 perfbench/smoke.py

Checks that every workload and metric of BENCHMARK.json is the one run.py
reports, that each metric prints by name with its unit in both modes, and
that a report doctored to show a nonzero ``markov_violations`` is counted as
a failed invocation.  Exits 1 and lists what failed otherwise.
"""

import contextlib
import io
import json
import sys

import run

TINY = {
    "pd_invariance": {"replicas": 20, "trunc-n": 50},
    "front_bounds": {"replicas": 5, "trunc-n": 50, "grid-points": 20},
    "pp_gaps_deep": {"replicas": 10, "trunc-n": 1000},
}


def run_tiny(workloads, name, trace):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = run.main(["--workload", name, "--seed", "3", "--seconds", "1", "--trace", str(trace)],
                        workloads=workloads, setup_reps=1)
    lines = stdout.getvalue().strip().splitlines()
    return code, lines[:-1], json.loads(lines[-1])


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []

    def expect(condition, message):
        if not condition:
            problems.append(message)

    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json workloads differ from run.WORKLOADS")
    tiny = {name: (command, {**flags, **TINY[name]})
            for name, (command, flags) in run.WORKLOADS.items()}
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[section]}
        for name in tiny:
            code, readable, result = run_tiny(tiny, name, trace)
            where = f"{name} --trace {trace}"
            expect(code == 0, f"{where}: exit code {code}")
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   f"{where}: result keys {sorted(result)}")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 2,
                   f"{where}: {result['failed']} of {result['attempted']} failed")
            got = {metric: entry["unit"] for metric, entry in result["metrics"].items()}
            expect(got == wanted, f"{where}: metrics {got} differ from BENCHMARK.json {wanted}")
            # ops_failed_frac is printed in both modes, as are `attempted` and `failed`
            for metric, unit in {**wanted, "ops_failed_frac": "frac"}.items():
                expect(any(line.split()[:1] == [metric] and line.split()[2:3] == [unit]
                           for line in readable),
                       f"{where}: no readable line for {metric} in {unit}")

    # a nonzero markov_violations in the report must count as a failed invocation
    from quasistat import cli

    emit = cli._emit

    def doctored(cfg, experiment, record):
        if experiment == "verify_lemma":
            record = {**record, "markov_violations": 1}
        return emit(cfg, experiment, record)

    cli._emit = doctored
    try:
        _, readable, result = run_tiny(tiny, "front_bounds", 0)
    finally:
        cli._emit = emit
    expect(not result["correct"] and result["failed"] == result["attempted"],
           f"doctored markov_violations: {result['failed']} of {result['attempted']} failed")
    expect(any("markov_violations = 1" in line for line in readable),
           "doctored markov_violations: failure reason not printed")

    for problem in problems:
        print("FAIL", problem)
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
