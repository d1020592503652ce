#!/usr/bin/env python3
"""Smoke test of the repo benchmark: tiny shapes of all three generators
through the same code path as the real runs.

    python3 perfbench/smoke_test.py

For each workload it runs perfbench/run.py --tiny three times (seed 1
untraced, seed 1 traced, seed 2 untraced) and asserts that:
  * each run exits 0 and its last line is the result JSON, with
    "correct": true and a number for every metric BENCHMARK.json names
    for that mode;
  * every named metric is also printed by name with its unit;
  * the same seed reproduces the digest and a different seed changes it.
It also checks that layer_map.json maps every per-layer metric.
Exits 0 when all checks pass.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fleet", "paper", "chaos")

failures = []


def expect(cond, msg):
    if not cond:
        failures.append(msg)
        print("FAIL: " + msg)


def bench(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "2", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    tag = "%s seed=%d trace=%d" % (workload, seed, trace)
    expect(proc.returncode == 0, "%s exited %d: %s" % (tag, proc.returncode, proc.stderr[-2000:]))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        expect(False, "%s printed nothing" % tag)
        return None, None, ""
    result = json.loads(lines[-1])
    digest = re.search(r"^digest (0x[0-9a-f]{16})", proc.stdout, re.M)
    expect(digest is not None, "%s printed no digest" % tag)
    return result, digest.group(1) if digest else None, "\n".join(lines[:-1])


def check_metrics(workload, trace, result, text, spec):
    tag = "%s trace=%d" % (workload, trace)
    expect(result["correct"] is True, "%s: correct is not true" % tag)
    expect(result["failed"] == 0 and result["attempted"] >= 1,
           "%s: attempted/failed %r/%r" % (tag, result["attempted"], result["failed"]))
    for m in spec["per_layer" if trace else "end_to_end"]:
        entry = result["metrics"].get(m["name"], {})
        expect(isinstance(entry.get("value"), (int, float)), "%s: %s value" % (tag, m["name"]))
        printed = re.search(r"^\s+%s\s+\S+\s+%s\b" % (re.escape(m["name"]), re.escape(m["unit"])),
                            text, re.M)
        expect(printed is not None, "%s: %s not printed with its unit" % (tag, m["name"]))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "layer_map.json")) as f:
        layer_map = {m["name"]: m for m in json.load(f)["metrics"]}
    e2e = {m["name"] for m in spec["end_to_end"]}
    for m in spec["per_layer"]:
        entry = layer_map.get(m["name"])
        expect(entry is not None, "layer_map.json lacks %s" % m["name"])
        if entry:
            expect(entry["moves"] in e2e or entry["moves"].startswith("none"),
                   "%s moves unknown metric %r" % (m["name"], entry["moves"]))
            expect(set(entry["on"] + entry["flat_on"]) <= set(WORKLOADS),
                   "%s names an unknown workload" % m["name"])

    for workload in WORKLOADS:
        r1, d1, text1 = bench(workload, 1, 0)
        rt, dt, textt = bench(workload, 1, 1)
        r2, d2, _ = bench(workload, 2, 0)
        if r1:
            check_metrics(workload, 0, r1, text1, spec)
        if rt:
            check_metrics(workload, 1, rt, textt, spec)
        expect(d1 is not None and d1 == dt, "%s: seed 1 digest not reproduced (%s vs %s)"
               % (workload, d1, dt))
        expect(d2 is not None and d2 != d1, "%s: seed 2 did not change the digest" % workload)
        print("%s: digest seed1 %s, seed2 %s" % (workload, d1, d2))

    print("smoke: %s" % ("PASS" if not failures else "%d FAILED" % len(failures)))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
