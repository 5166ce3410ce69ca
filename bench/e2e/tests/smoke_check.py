#!/usr/bin/env python3
"""Smoke test of vgpu-bench against BENCHMARK.json.

Runs every workload BENCHMARK.json lists in --smoke mode (about a second of
measurement each), untraced and traced, and checks that each run passes
its own correctness check and prints exactly the metrics BENCHMARK.json
names for that kind of run, with the same units.

  python3 smoke_check.py <path/to/vgpu-bench> <path/to/BENCHMARK.json>
"""
import json
import subprocess
import sys


def check_run(exe, workload, trace, expected):
    cmd = [exe, "--workload", workload, "--seed", "1", "--smoke",
           "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    where = "%s --trace %d" % (workload, trace)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return ["%s: last line is not a JSON result (exit %d)\n%s"
                % (where, proc.returncode, proc.stderr[-2000:])]
    problems = []
    if proc.returncode != 0 or not result["correct"] or result["failed"]:
        problems.append("%s: exit %d, correct=%s, failed=%s of %s"
                        % (where, proc.returncode, result["correct"],
                           result["failed"], result["attempted"]))
    metrics = result["metrics"]
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            problems.append("%s: missing metric %s" % (where, m["name"]))
        elif got["unit"] != m["unit"]:
            problems.append("%s: %s has unit %s, BENCHMARK.json says %s"
                            % (where, m["name"], got["unit"], m["unit"]))
    extra = sorted(set(metrics) - {m["name"] for m in expected})
    if extra:
        problems.append("%s: metrics not in BENCHMARK.json: %s"
                        % (where, ", ".join(extra)))
    return problems


def main():
    exe, spec_path = sys.argv[1], sys.argv[2]
    with open(spec_path) as f:
        spec = json.load(f)
    problems = []
    for workload in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            problems += check_run(exe, workload["name"], trace, spec[key])
    for p in problems:
        print("FAIL", p)
    print("%d problem(s) across %d workloads"
          % (len(problems), len(spec["workloads"])))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
