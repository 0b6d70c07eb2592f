#!/usr/bin/env python3
"""Perf smoke for scripts/check.sh: compare BENCH_*.json against the
checked-in baselines.

Usage: perf_smoke.py <bench-name>...

For each bench name, loads BENCH_<name>.json from the current directory and
bench/baselines/<name>.json, then:

  * every key in the baseline's "values" must be present in the run and
    no more than TOLERANCE (35%) below the baseline — on failure the
    offending metric is named together with how far below baseline it
    landed.

The gated values are rates divided by the speed of a reference loop timed
next to them (see bench/micro_event.cpp): a slower or busier host moves
them little, while a 2x slowdown of the code halves them.
Exits non-zero if any metric regressed.
"""
import json
import sys

TOLERANCE = 0.35  # unloaded or shared-core runs read <=15% below, 2x slower ~50%


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print(f"  BAD {path}: {e}")
        return None


def compare_values(name, current, baseline):
    ok = True
    for key, ref in baseline.get("values", {}).items():
        got = current["values"].get(key)
        if got is None:
            print(f"  MISSING    {name}.{key}: not in the bench output")
            ok = False
            continue
        ratio = got / ref
        if ratio >= 1.0 - TOLERANCE:
            print(f"  ok         {name}.{key}: {got:.3g} vs baseline {ref:.3g} "
                  f"({ratio:.2f}x)")
        else:
            print(f"  REGRESSION {name}.{key}: {got:.3g} vs baseline {ref:.3g} "
                  f"— {(1.0 - ratio) * 100:.1f}% below baseline "
                  f"(tolerance {TOLERANCE * 100:.0f}%)")
            ok = False
    return ok


def main(argv):
    if len(argv) < 2:
        print("usage: perf_smoke.py <bench-name>...")
        return 2
    all_ok = True
    for name in argv[1:]:
        current = load(f"BENCH_{name}.json")
        baseline = load(f"bench/baselines/{name}.json")
        if current is None or baseline is None:
            all_ok = False
            continue
        all_ok &= compare_values(name, current, baseline)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
