#!/usr/bin/env python3
"""Repository benchmark: build, run one workload, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The first run configures and builds
perfbench/CMakeLists.txt (Release) into .bench_build/perfbench; later
runs only re-check the build. Each workload runs in its own process(es)
and the result is the last line of stdout: one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics of BENCHMARK.json, --trace 1 the per-layer ones. Every metric is
defined in perfbench/catalog.json; a human-readable table of all of them
(diagnostics included) precedes the result line.

--self-test runs every workload's traced session twice on one seed and
fails unless every count metric repeats exactly.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "manytiers_perfbench")
WORKLOADS = ("grid_costmodels", "grid_alpha_sweep", "serve_quotes",
             "serve_reload")
GRID_SETUP_PROCESSES = 3  # cold repetitions behind a grid's setup_s
SESSION_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_catalog():
    with open(os.path.join(HERE, "catalog.json")) as f:
        catalog = json.load(f)
    spec_path = "BENCHMARK.json"
    if os.path.exists(spec_path):
        # The catalog documents exactly the metrics BENCHMARK.json gates.
        with open(spec_path) as f:
            spec = json.load(f)
        for section in ("end_to_end", "per_layer"):
            listed = [(m["name"], m["unit"]) for m in spec[section]]
            documented = [(m["name"], m["unit"]) for m in catalog[section]]
            if listed != documented:
                raise SystemExit(
                    f"perfbench: BENCHMARK.json {section} and "
                    f"perfbench/catalog.json disagree")
        if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
            raise SystemExit("perfbench: BENCHMARK.json workloads changed")
    return catalog


def build():
    """Configure (a no-op when current), then build what is stale."""
    env = clean_env()
    try:
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, env=env)
        subprocess.run(["cmake", "--build", BUILD_DIR, "-j",
                        str(os.cpu_count() or 1)],
                       check=True, stdout=sys.stderr, env=env)
    except subprocess.CalledProcessError as e:
        raise SystemExit(f"perfbench: build failed ({e})")


def clean_env():
    # MANYTIERS_* variables select kernels and thread counts; the
    # benchmark runs the defaults.
    return {k: v for k, v in os.environ.items()
            if not k.startswith("MANYTIERS_")}


def session(workload, seed, seconds, trace, cold_only=False):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(int(trace))]
    if cold_only:
        cmd.append("--cold-only")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=clean_env(),
                          timeout=SESSION_TIMEOUT_S, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: session {cmd} exited "
                         f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def pct(values, p):
    """Linear-interpolated percentile, p in [0, 1]."""
    values = sorted(values)
    rank = p * (len(values) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (rank - lo) * (values[hi] - values[lo])


def applies(scopes, workload):
    return any(s == "*" or s == workload or
               (s.endswith("*") and workload.startswith(s[:-1]))
               for s in scopes)


def run_grid(workload, seed, seconds):
    start = time.monotonic()
    sessions = [session(workload, seed, seconds, False, cold_only=True)
                for _ in range(GRID_SETUP_PROCESSES - 1)]
    remaining = max(seconds - (time.monotonic() - start), 1.0)
    main = session(workload, seed, remaining, False)
    sessions.append(main)
    failed = sum(s["failed"] for s in sessions)
    # Reports must be byte-identical across processes too.
    failed += sum(s["report_fnv"] != main["report_fnv"] for s in sessions)
    wall = statistics.median(main["warm_wall_s"])
    cpu = statistics.median(main["warm_cpu_s"])
    metrics = {
        "setup_s": statistics.median(s["cold_wall_s"] for s in sessions),
        "peak_rss_mb": max(s["peak_rss_mb"] for s in sessions),
        "latency_p50_ms": wall * 1e3,
        "cpu_ms_per_op": cpu * 1e3,
    }
    diagnostics = {
        "grid_wall_s": wall,
        "grid_wall_p90_s": pct(main["warm_wall_s"], 0.9),
        "grid_cpu_s": cpu,
        "grid_tasks_per_s": main["tasks"] / wall,
        "warm_repetitions": len(main["warm_wall_s"]),
    }
    return metrics, diagnostics, sum(s["attempted"] for s in sessions), failed


def run_serve(workload, seed, seconds):
    s = session(workload, seed, seconds, False)
    metrics = {
        "setup_s": statistics.median(s["setup_s"]),
        "peak_rss_mb": s["peak_rss_mb"],
        "cpu_ms_per_op": s["cpu_ms_per_request"],
    }
    diagnostics = {}
    for rate in ("low", "high"):
        for p in ("p50", "p90", "p99"):
            diagnostics[f"quote_{p}_us.{rate}"] = s[f"{rate}.{p}_us"]
        diagnostics[f"samples.{rate}"] = s[f"{rate}.samples"]
        diagnostics[f"lateness_p50_us.{rate}"] = s[f"{rate}.lateness_p50_us"]
    if workload == "serve_quotes":
        metrics["latency_p50_ms"] = s["rtt.p50_us"] * 1e-3
        diagnostics["quote_rtt_p50_us"] = s["rtt.p50_us"]
        diagnostics["quote_rtt_p90_us"] = s["rtt.p90_us"]
        diagnostics["samples.rtt"] = s["rtt.samples"]
        diagnostics["quote_max_rps"] = s["sat.achieved_per_s"]
        diagnostics["samples.sat"] = s["sat.samples"]
    else:
        reloads = s["reload_ms"]
        if not reloads:
            raise SystemExit("perfbench: no reload completed")
        metrics["latency_p50_ms"] = pct(reloads, 0.5)
        diagnostics["reads_per_s.high"] = s["high.achieved_per_s"]
        diagnostics["reload_p50_ms"] = metrics["latency_p50_ms"]
        diagnostics["reload_p90_ms"] = pct(reloads, 0.9)
        diagnostics["samples.reload"] = len(reloads)
    return metrics, diagnostics, s["attempted"], s["failed"]


def run_traced(workload, seed, seconds, catalog):
    s = session(workload, seed, seconds, True)
    metrics = {}
    for m in catalog["per_layer"]:
        if applies(m["workloads"], workload):
            if m["name"] not in s:
                raise SystemExit(f"perfbench: {workload} did not report "
                                 f"{m['name']}")
            metrics[m["name"]] = s[m["name"]]
        else:
            metrics[m["name"]] = 0  # the layer is not on this path
    return metrics, {}, s["attempted"], s["failed"]


def measure(workload, seed, seconds, trace, catalog):
    if trace:
        return run_traced(workload, seed, seconds, catalog)
    if workload.startswith("grid_"):
        return run_grid(workload, seed, seconds)
    return run_serve(workload, seed, seconds)


def self_test(catalog):
    """Every count metric must repeat exactly between two traced runs."""
    counts = [m["name"] for m in catalog["per_layer"] if m["unit"] == "count"]
    ok = True
    for workload in WORKLOADS:
        first, second = (measure(workload, 7, 6, True, catalog)
                         for _ in range(2))
        for name in counts:
            same = first[0][name] == second[0][name]
            ok = ok and same
            log(f"{workload:18s} {name:30s} {first[0][name]!r:>10} "
                f"{second[0][name]!r:>10} {'ok' if same else 'DIFFERS'}")
        ok = ok and first[3] == 0 and second[3] == 0
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    catalog = load_catalog()
    build()
    if args.self_test:
        return self_test(catalog)

    metrics, diagnostics, attempted, failed = measure(
        args.workload, args.seed, args.seconds, args.trace, catalog)
    units = {m["name"]: m["unit"]
             for m in catalog["end_to_end"] + catalog["per_layer"] +
             catalog["diagnostics"]}
    diagnostics["failed_ratio"] = failed / attempted
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for name, value in list(metrics.items()) + list(diagnostics.items()):
        print(f"  {name:32s} {value:>16.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
