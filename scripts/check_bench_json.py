#!/usr/bin/env python3
"""Schema check for the bench harness's JSON artefacts.

Validates every BENCH_*.json (and any SERIES_*.json / FLIGHT_*.json) given on
the command line — or globbed from the current directory when no arguments
are passed:

  * the file parses as JSON and contains no non-finite numbers (NaN/Inf
    anywhere in the tree poisons downstream plotting silently);
  * BENCH files carry the p4ce-bench-v1 envelope: "schema", "bench",
    a "meta" block recording the host's core count (hw_cores, a positive
    integer), the protocol backend ("mu", "p4ce", "one_sided", "mixed"
    for comparison benches, or "none" for protocol-free microbenches), the
    build type (build_type, a non-empty string), the bench's wall seconds
    (wall_s, non-negative) and the process's peak resident memory
    (peak_rss_mb, positive), a "values" object and a
    "tables" array of {title, columns, rows};
  * latency-named values are non-negative (table *cells* are exempt —
    tab4 legitimately prints "-1.00" for a timed-out scenario);
  * a "runs" array with one entry per simulated cluster, each labelled with
    its backend, machines and domains and carrying a "metrics" object of
    counter/gauge/histogram series;
  * in each run, a bare counter "name" equals the sum of its labelled
    "name{...}" children when it has any: a family counts each event once,
    in one owner's child, and the bare series is the run's total;
  * sim.events_alloc is exactly 0 in every run: no event callable the
    simulator schedules falls back to the heap;
  * a run's "attribution" report, when present, has exactly the eight stages
    the code emits (STAGES below), each a non-negative histogram with
    monotone p50 <= p99 <= p999;
  * SERIES files carry p4ce-series-v1 with column-aligned frames;
  * FLIGHT files carry p4ce-flight-v1 with per-capture frames.

Exits non-zero on the first malformed file, failing tier-1.
"""
import collections
import glob
import json
import math
import sys


# The commit-latency stages obs::LatencyAttribution::stage_name() emits, in
# causal order.
STAGES = ("leader.cpu", "leader.post", "link.to_switch", "switch.scatter",
          "replica.ack", "gather.quorum", "link.to_leader", "commit.cpu")

SERIES_FIELDS = {
    "counter": ("value",),
    "gauge": ("value", "high_water"),
    "histogram": ("count", "mean", "p50", "p99", "min", "max"),
}


def fail(path, msg):
    print(f"  BAD {path}: {msg}")
    return False


def finite_tree(path, node, where="$"):
    """Reject NaN/Inf anywhere (json.load happily parses bare NaN)."""
    if isinstance(node, float) and not math.isfinite(node):
        return fail(path, f"non-finite number at {where}")
    if isinstance(node, dict):
        return all(finite_tree(path, v, f"{where}.{k}") for k, v in node.items())
    if isinstance(node, list):
        return all(finite_tree(path, v, f"{where}[{i}]") for i, v in enumerate(node))
    return True


def check_histogram(path, hist, where):
    ok = True
    for key, value in hist.items():
        if key.endswith("_ns") and isinstance(value, (int, float)) and value < 0:
            ok = fail(path, f"negative latency {where}.{key} = {value}")
    p50, p99, p999 = (hist.get(k, 0) for k in ("p50_ns", "p99_ns", "p999_ns"))
    if not (p50 <= p99 <= p999):
        ok = fail(path, f"non-monotone quantiles at {where}: {p50} / {p99} / {p999}")
    return ok


def check_bench(path, doc):
    ok = True
    if doc.get("schema") != "p4ce-bench-v1":
        ok = fail(path, f"schema is {doc.get('schema')!r}, want p4ce-bench-v1")
    if not isinstance(doc.get("bench"), str):
        ok = fail(path, "missing \"bench\" name")
    meta = doc.get("meta")
    if not isinstance(meta, dict):
        ok = fail(path, "missing \"meta\" block (hw_cores/backend/build_type/wall_s/"
                        "peak_rss_mb)")
    else:
        hw_cores = meta.get("hw_cores")
        if not isinstance(hw_cores, int) or hw_cores < 1:
            ok = fail(path, f"meta.hw_cores = {hw_cores!r}, want a positive integer")
        backend = meta.get("backend")
        if backend not in ("mu", "p4ce", "one_sided", "mixed", "none"):
            ok = fail(path, f"meta.backend = {backend!r}, want one of "
                            "mu/p4ce/one_sided/mixed/none")
        build_type = meta.get("build_type")
        if not isinstance(build_type, str) or not build_type:
            ok = fail(path, f"meta.build_type = {build_type!r}, want a non-empty string")
        wall_s = meta.get("wall_s")
        if not isinstance(wall_s, (int, float)) or wall_s < 0:
            ok = fail(path, f"meta.wall_s = {wall_s!r}, want a non-negative number")
        peak_rss_mb = meta.get("peak_rss_mb")
        if not isinstance(peak_rss_mb, (int, float)) or peak_rss_mb <= 0:
            ok = fail(path, f"meta.peak_rss_mb = {peak_rss_mb!r}, want a positive number")
    values = doc.get("values")
    if not isinstance(values, dict):
        return fail(path, "missing \"values\" object")
    for key, value in values.items():
        if not isinstance(value, (int, float)):
            ok = fail(path, f"values.{key} is not a number")
        elif ("latency" in key or key.endswith("_ns") or key.endswith("_us")) and value < 0:
            ok = fail(path, f"negative latency values.{key} = {value}")
    tables = doc.get("tables")
    if not isinstance(tables, list):
        return fail(path, "missing \"tables\" array")
    for i, table in enumerate(tables):
        if not isinstance(table.get("title"), str):
            ok = fail(path, f"tables[{i}] has no title")
        columns = table.get("columns")
        if not isinstance(columns, list) or not columns:
            ok = fail(path, f"tables[{i}] has no columns")
            continue
        for j, row in enumerate(table.get("rows", [])):
            if len(row) != len(columns):
                ok = fail(path, f"tables[{i}].rows[{j}]: {len(row)} cells vs "
                                f"{len(columns)} columns")
    for block in ("attribution", "metrics"):
        if block in doc:
            ok = fail(path, f"top-level \"{block}\" block; it belongs in runs[]")
    runs = doc.get("runs")
    if not isinstance(runs, list):
        return fail(path, "missing \"runs\" array")
    for i, run in enumerate(runs):
        ok &= check_run(path, run, f"runs[{i}]")
    return ok


def check_run(path, run, where):
    if not isinstance(run, dict):
        return fail(path, f"{where} is not an object")
    ok = True
    if run.get("backend") not in ("mu", "p4ce", "one_sided"):
        ok = fail(path, f"{where}.backend = {run.get('backend')!r}, want mu/p4ce/one_sided")
    for key in ("machines", "domains"):
        value = run.get(key)
        if not isinstance(value, int) or value < 1:
            ok = fail(path, f"{where}.{key} = {value!r}, want a positive integer")
    metrics = run.get("metrics")
    if not isinstance(metrics, dict):
        ok = fail(path, f"{where} has no \"metrics\" object")
    else:
        for name, series in metrics.items():
            fields = SERIES_FIELDS.get(series.get("type")) if isinstance(series, dict) else None
            if fields is None:
                ok = fail(path, f"{where}.metrics.{name} has no counter/gauge/histogram type")
            elif not all(isinstance(series.get(f), (int, float)) for f in fields):
                ok = fail(path, f"{where}.metrics.{name} lacks numeric {'/'.join(fields)}")
        ok &= check_rollup(path, metrics, where)
        events_alloc = metrics.get("sim.events_alloc", {}).get("value")
        if events_alloc != 0:
            ok = fail(path, f"{where}.metrics.sim.events_alloc = {events_alloc!r}, want 0")
    attribution = run.get("attribution")
    if attribution is not None:
        at = f"{where}.attribution"
        if not isinstance(attribution.get("rounds"), int):
            ok = fail(path, f"{at} has no round count")
        ok &= check_histogram(path, attribution.get("total", {}), f"{at}.total")
        if attribution.get("dominant_stage") not in STAGES + ("none",):
            ok = fail(path, f"{at}.dominant_stage = {attribution.get('dominant_stage')!r}")
        stages = attribution.get("stages", {})
        if tuple(stages) != STAGES:
            ok = fail(path, f"{at}.stages are {list(stages)}, want {list(STAGES)}")
        for stage, hist in stages.items():
            ok &= check_histogram(path, hist, f"{at}.stages.{stage}")
    return ok


def check_rollup(path, metrics, where):
    """Each bare counter with labelled children must read their sum."""
    children = collections.defaultdict(int)
    for name, series in metrics.items():
        if "{" in name and isinstance(series, dict) and series.get("type") == "counter":
            children[name[:name.index("{")]] += series.get("value", 0)
    ok = True
    for family, total in children.items():
        bare = metrics.get(family)
        if not isinstance(bare, dict) or bare.get("type") != "counter":
            ok = fail(path, f"{where}.metrics has {family}{{...}} counters but no bare {family}")
        elif bare.get("value") != total:
            ok = fail(path, f"{where}.metrics.{family} = {bare.get('value')!r}, "
                            f"want {total}, the sum of its labelled children")
    return ok


def check_series(path, doc):
    ok = True
    if doc.get("schema") != "p4ce-series-v1":
        ok = fail(path, f"schema is {doc.get('schema')!r}, want p4ce-series-v1")
    series = doc.get("series")
    if not isinstance(series, list):
        return fail(path, "missing \"series\" column list")
    for i, frame in enumerate(doc.get("frames", [])):
        # Row layout: [t_ns, epoch, v0, v1, ...] padded to the column count.
        if len(frame) != 2 + len(series):
            ok = fail(path, f"frames[{i}]: {len(frame)} fields vs "
                            f"{2 + len(series)} expected")
    return ok


def check_flight(path, doc):
    ok = True
    if doc.get("schema") != "p4ce-flight-v1":
        ok = fail(path, f"schema is {doc.get('schema')!r}, want p4ce-flight-v1")
    captures = doc.get("captures")
    if not isinstance(captures, list):
        return fail(path, "missing \"captures\" array")
    for i, cap in enumerate(captures):
        if not cap.get("kind"):
            ok = fail(path, f"captures[{i}] has no kind")
        if not isinstance(cap.get("at_ns"), (int, float)):
            ok = fail(path, f"captures[{i}] has no at_ns")
    return ok


def main(argv):
    paths = argv[1:]
    if not paths:
        paths = sorted(glob.glob("BENCH_*.json") + glob.glob("SERIES_*.json") +
                       glob.glob("FLIGHT_*.json"))
    if not paths:
        print("check_bench_json: no artefacts found")
        return 1

    all_ok = True
    for path in paths:
        try:
            with open(path) as f:
                doc = json.load(f)
        except (OSError, ValueError) as e:
            all_ok = fail(path, f"unparseable: {e}")
            continue
        ok = finite_tree(path, doc)
        name = path.rsplit("/", 1)[-1]
        if name.startswith("SERIES_"):
            ok &= check_series(path, doc)
        elif name.startswith("FLIGHT_"):
            ok &= check_flight(path, doc)
        else:
            ok &= check_bench(path, doc)
        print(f"  {'ok ' if ok else 'BAD'} {path}")
        all_ok &= ok
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
