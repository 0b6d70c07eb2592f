#!/usr/bin/env python3
"""Self-test of the p4ce benchmark: does each half measure what it claims?

    python3 perfbench/selftest.py

Run from the repository root; takes a few minutes. Checks:

1. output format: every run prints exactly the metrics BENCHMARK.json declares,
   with the declared units, and a correct result.
2. model sensitivity: raising Calibration::cpu_post_wr lowers the simulated
   commit rate of the leader-CPU-bound p4ce_closed_4r, and leaves the
   bandwidth-bound mu_goodput_2r's simulated goodput unchanged.
3. host sensitivity: a busy-wait in the benchmark's own commit callback
   lowers host_commits_per_s in proportion to the added host time per
   commit, and leaves every simulated metric and every per-layer count
   bit-identical.

Exits non-zero if any check fails.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Host-side timings: everything else in the traced output is a count that
# must not move when only host time is added.
HOST_METRICS = {
    "sim.host_ns_per_event", "consensus.propose_host_ns", "core.create_s", "core.start_s",
    "driver.traced_host_commits_per_s", "driver.host_commits_per_wall_s",
    "driver.reference_mevents_per_s", "driver.trace_overhead_share",
}
# Raising cpu_post_wr from 180 to 240 ns adds 60 ns to a P4CE commit (one
# post) and 120 ns to a Mu batch (two posts), which stays below the Mu
# leader's wire time per batch, so Mu remains bandwidth bound.
CPU_POST_WR_NS = 240
SPIN_NS = 20000
SECONDS = 4

failures = []


def run(workload, trace, seed=7, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace), *extra]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"no result from {' '.join(cmd)}:\n{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["exit"] = done.returncode
    result["stderr"] = done.stderr
    return result


def value(result, name):
    return result["metrics"][name]["value"]


def check(ok, what):
    print(("PASS  " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def check_correct(result, what):
    ok = result["correct"] and result["exit"] == 0
    detail = ""
    if not ok:
        reasons = [l for l in result["stderr"].splitlines() if "output check failed" in l]
        detail = f" ({reasons[0] if reasons else 'exit ' + str(result['exit'])})"
    check(ok, f"{what}: output check{detail}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}

    base = {t: run("p4ce_closed_4r", t) for t in (0, 1)}
    for t in (0, 1):
        printed = {k: v["unit"] for k, v in base[t]["metrics"].items()}
        check(printed == declared[t], f"--trace {t} prints exactly the declared metrics and units")
        check_correct(base[t], f"p4ce_closed_4r --trace {t}")

    slow_cpu = run("p4ce_closed_4r", 0, extra=("--cpu-post-wr-ns", str(CPU_POST_WR_NS)))
    a, b = value(base[0], "sim_commit_rate_mops"), value(slow_cpu, "sim_commit_rate_mops")
    check(b < 0.95 * a, f"cpu_post_wr {CPU_POST_WR_NS} ns lowers p4ce_closed_4r "
          f"sim_commit_rate_mops: {a:.4f} -> {b:.4f} M/s")

    mu = run("mu_goodput_2r", 0)
    mu_slow = run("mu_goodput_2r", 0, extra=("--cpu-post-wr-ns", str(CPU_POST_WR_NS)))
    a, b = value(mu, "sim_goodput_gbps"), value(mu_slow, "sim_goodput_gbps")
    check(abs(b - a) <= 0.01 * a, f"cpu_post_wr {CPU_POST_WR_NS} ns leaves mu_goodput_2r "
          f"sim_goodput_gbps unchanged: {a:.4f} -> {b:.4f} GB/s")
    check_correct(mu, "mu_goodput_2r")

    spin = {t: run("p4ce_closed_4r", t, extra=("--callback-spin-ns", str(SPIN_NS)))
            for t in (0, 1)}
    sim_names = [n for n in declared[0] if n.startswith("sim_")]
    check(all(value(spin[0], n) == value(base[0], n) for n in sim_names),
          "commit-callback busy-wait leaves every sim_* metric bit-identical")
    counts = [n for n in declared[1] if n not in HOST_METRICS]
    moved = [n for n in counts if value(spin[1], n) != value(base[1], n)]
    check(not moved, "commit-callback busy-wait leaves every per-layer count bit-identical"
          + (f" (moved: {', '.join(moved)})" if moved else ""))
    # One commit callback per commit on p4ce_closed_4r, so the wall time per
    # commit should grow by the spin. The spin is wall time, so compare the
    # unscaled rate; the scaled headline must fall too.
    r0 = value(base[1], "driver.host_commits_per_wall_s")
    r1 = value(spin[1], "driver.host_commits_per_wall_s")
    added_ns = (1 / r1 - 1 / r0) * 1e9
    check(0.75 * SPIN_NS <= added_ns <= 1.25 * SPIN_NS,
          f"a {SPIN_NS} ns busy-wait per commit adds {added_ns:.0f} ns of wall time per commit "
          f"(wall commits/s {r0:.0f} -> {r1:.0f})")
    h0, h1 = value(base[0], "host_commits_per_s"), value(spin[0], "host_commits_per_s")
    check(h1 < 0.5 * h0, f"the busy-wait lowers host_commits_per_s: {h0:.0f} -> {h1:.0f}")

    if failures:
        print(f"{len(failures)} check(s) failed")
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
