"""flowlattice benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 perfbench/run.py --workload reconstruct --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout and imports flowlattice from its src/.
Every pass over the workload's items is a fresh interpreter
(`worker.py`), started one at a time, so the library's process-global
caches are cold in each.  SETUP_RUNS interpreters that only set up
come first, so `setup_s` is a median over many set-ups; then passes
repeat until the next one would end after --seconds.  Every time reported is scaled to the host's nominal
speed with the reference kernel timed between items (`hostspeed.py`).
Every pass of a run times the same items, so each item's latency is
taken as its median over the passes.  Human-readable lines come first;
the last line of stdout is the JSON result.  Exit status is 1 when a
pass fails to run, and nothing is printed on stdout then.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import REF_NOMINAL_S, REF_WINDOW
from worker import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Nominal seconds of one pass, interpreter start and oracles included
# (nproc 2 Xeon, Python 3.11.7).  They fix the tail's rank, not the run's length.
PASS_S = {"reconstruct": 7.0, "isometry": 8.6, "flows": 4.3, "certify": 10.0}
WORKLOADS = tuple(PASS_S)
MIN_PASSES = 3
SETUP_RUNS = 8          # set-up-only interpreters before the passes
TAIL_BEYOND = 10        # samples beyond the tail
PASS_TIMEOUT_S = 120

E2E_UNITS = {"items_per_s": "items/s", "item_p50_ms": "ms", "item_tail_ms": "ms",
             "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics of the traced run, in BENCHMARK.json order.
FUNCTION_METRICS = [
    "intmat.is_totally_unimodular.calls", "intmat.is_totally_unimodular.total_s",
    "intmat.is_totally_unimodular.self_s", "intmat.is_totally_unimodular.ok_ratio",
    "intmat.is_weakly_unimodular.calls", "intmat.is_weakly_unimodular.self_s",
    "intmat.rank.calls", "intmat.rank.self_s",
    "intmat.determinant.calls", "intmat.determinant.self_s",
    "matroid.subset_rank.calls", "matroid.coordinatize.self_s",
    "matroid.circuits.calls", "matroid.circuits.total_s",
    "matroid.circuits.self_s", "matroid.circuits.returned",
    "matroid.is_isomorphic.calls", "matroid.is_isomorphic.total_s",
    "matroid.is_isomorphic.self_s", "matroid.is_isomorphic.ok_ratio",
    "gram.is_g_feasible.total_s", "gram.is_g_feasible.self_s",
    "gram.g_table.self_s", "gram.build_x.self_s",
    "gram.tu_signing.calls", "gram.tu_signing.total_s", "gram.tu_signing.self_s",
    "flows.enumerate_coefficients.self_s", "flows.enumerate_coefficients.yielded",
    "flows.is_simple_metric.total_s",
    "flows.consistent_decompose.total_s", "flows.consistent_decompose.self_s",
    "rebuild.reconstruct_matroid.total_s", "rebuild.to_g_positive_basis.self_s",
    "cli.run.calls", "cli.run.self_s",
]
PER_LAYER = [f"{layer}.{m}" for layer in LAYERS for m in ("self_s", "calls")] \
    + FUNCTION_METRICS + ["trace.overhead_ratio"]


def unit_of(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def nominal_passes(workload, seconds):
    return max(MIN_PASSES, math.floor(seconds / PASS_S[workload]))


def tail_rank(problems, samples_each):
    """1-based rank of the tail among the latencies of `problems`, each
    measured `samples_each` times: the highest that leaves >= TAIL_BEYOND
    samples beyond it, or the fastest when none does."""
    return max(1, problems - math.ceil(TAIL_BEYOND / samples_each))


def one_pass(workload, seed, trace, setup_only=False):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    cmd += ["--setup-only"] * setup_only
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PASS_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} pass exited with status {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_passes(workload, seed, seconds, trace):
    """SETUP_RUNS set-ups alone, then passes until the next would end after
    `seconds`, at least MIN_PASSES; with `trace`, traced and untraced
    passes alternate.  Returns the passes and the set-up-only runs."""
    started = time.monotonic()
    setups = [one_pass(workload, seed, 0, setup_only=True) for _ in range(SETUP_RUNS)]
    passes = []
    while True:
        elapsed = time.monotonic() - started
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
        passes.append(one_pass(workload, seed, trace and len(passes) % 2))
    if len({p["digest"] for p in passes + setups}) != 1:
        raise RuntimeError("passes saw different inputs for the same seed")
    return passes, setups


def reference_times(p):
    """Per item of a pass, the reference kernel's median time over the
    REF_WINDOW samples taken on each side of it."""
    at = [i for i, _ in p["refs"]]
    ref = [r for _, r in p["refs"]]
    out = []
    for i in range(len(p["latencies_s"])):
        k = bisect.bisect_right(at, i)      # refs[k - 1] was taken just before item i
        out.append(statistics.median(ref[max(0, k - REF_WINDOW):k + REF_WINDOW]))
    return out


def scaled_latencies(p):
    """A pass's item latencies at the host's nominal speed."""
    return [lat * REF_NOMINAL_S / r for lat, r in zip(p["latencies_s"], reference_times(p))]


def pass_scale(p):
    """Nominal ÷ measured reference time over a whole pass."""
    return REF_NOMINAL_S / statistics.median(r for _, r in p["refs"])


def setup_scale(p):
    """Nominal ÷ measured reference time just before and after set-up."""
    return REF_NOMINAL_S / statistics.median(p["setup_refs"])


def end_to_end(passes, nominal, scaled=True, setups=()):
    """The end-to-end metrics, and the tail's percentile and samples beyond it.

    Throughput takes each item's median latency over the passes; p50 and
    tail take each problem's median over its relabellings and the passes;
    set-up is the median over the passes and the set-up-only `setups`.
    With `scaled`, every time is first brought to the host's nominal speed.
    """
    runs = [scaled_latencies(p) if scaled else p["latencies_s"] for p in passes]
    items = list(zip(*runs))
    samples = {}
    for shape, item in zip(passes[0]["shapes"], items):
        samples.setdefault(shape, []).extend(item)
    lat = sorted(statistics.median(v) for v in samples.values())
    per_problem = len(items) // len(lat)
    rank = tail_rank(len(lat), per_problem * nominal)
    metrics = {
        "items_per_s": len(items) / sum(statistics.median(item) for item in items),
        "item_p50_ms": 1000 * statistics.median(lat),
        "item_tail_ms": 1000 * lat[rank - 1],
        "setup_s": statistics.median(p["setup_s"] * (setup_scale(p) if scaled else 1)
                                     for p in [*passes, *setups]),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    beyond = (len(lat) - rank) * per_problem * len(passes)
    return metrics, math.floor(100 * rank / len(lat)), beyond


def per_layer(traced, untraced):
    """Per-pass means of the traced passes' layer and function figures,
    times at the host's nominal speed."""
    k = len(traced)
    scale = [pass_scale(p) for p in traced]
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(p["layers"][layer]["self_s"] * c
                                     for p, c in zip(traced, scale)) / k
        out[f"{layer}.calls"] = sum(p["layers"][layer]["calls"] for p in traced) / k
    for name in FUNCTION_METRICS:
        fn, field = name.rsplit(".", 1)
        recs = [p["stats"][fn] for p in traced]
        calls = sum(r["calls"] for r in recs)
        if field == "ok_ratio":
            out[name] = sum(r["truthy"] for r in recs) / calls if calls else 0.0
        elif field == "yielded":
            out[name] = sum(r["returned"] for r in recs) / k
        elif field.endswith("_s"):
            out[name] = sum(r[field] * c for r, c in zip(recs, scale)) / k
        else:
            out[name] = sum(r[field] for r in recs) / k
    out["trace.overhead_ratio"] = statistics.mean(sum(scaled_latencies(p)) for p in traced) / \
        statistics.mean(sum(scaled_latencies(p)) for p in untraced)
    return out


def print_trace_tables(traced):
    k = len(traced)
    stats = {}
    for p in traced:
        for fn, r in p["stats"].items():
            acc = stats.setdefault(fn, [0, 0.0, 0.0])
            acc[0] += r["calls"]
            acc[1] += r["total_s"]
            acc[2] += r["self_s"]
    print("per-function, per pass (calls, inclusive s, self s), by self time:")
    for fn, (calls, total, own) in sorted(stats.items(), key=lambda kv: -kv[1][2]):
        if calls:
            print(f"  {fn:42s} {calls / k:10.0f} {total / k:10.4f} {own / k:10.4f}")
    edges = {}
    for p in traced:
        for parent, child, calls, total in p["edges"]:
            acc = edges.setdefault((parent or "<benchmark>", child), [0, 0.0])
            acc[0] += calls
            acc[1] += total
    print("heaviest parent -> child spans, per pass (calls, s):")
    for (parent, child), (calls, total) in sorted(edges.items(), key=lambda kv: -kv[1][1])[:15]:
        print(f"  {parent} -> {child}: {calls / k:.0f} {total / k:.4f}")


def machine():
    return f"nproc {os.cpu_count()}, {platform.machine()}, Python {platform.python_version()}"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "flowlattice" / "__init__.py").is_file():
        print(f"perfbench: no flowlattice sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    try:
        # traced and untraced passes alternate; their time ratio is the overhead
        passes, setups = run_passes(args.workload, args.seed, args.seconds, args.trace)
        traced = [p for p in passes if "stats" in p]
        untraced = [p for p in passes if "stats" not in p]
        if args.trace and not traced:
            raise RuntimeError("no traced pass ran within the time budget")
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    nominal = nominal_passes(args.workload, args.seconds)
    e2e, pct, beyond = end_to_end(untraced, nominal, setups=setups)
    unscaled = end_to_end(untraced, nominal, scaled=False, setups=setups)[0]
    host_ms = 1000 * statistics.median(r for p in untraced for _, r in p["refs"])
    attempted = sum(len(p["latencies_s"]) for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    print(f"workload {args.workload}  seed {args.seed}  inputs sha256:{passes[0]['digest']}")
    print(f"machine  {machine()}")
    print(f"passes   {len(untraced)} untraced + {len(traced)} traced + {len(setups)} set-up only, "
          f"each a fresh interpreter, "
          f"{len(passes[0]['latencies_s'])} items, closed loop, one caller; "
          f"an item's latency is its median over the untraced passes")
    print(f"host     reference kernel {host_ms:.4f} ms (nominal {1000 * REF_NOMINAL_S:g} ms); "
          f"times below are at the nominal speed, as measured in brackets")
    for p in passes:
        for i, reason in p["failures"]:
            print(f"FAILED item {i}: {reason}")
    if args.trace:
        metrics = per_layer(traced, untraced)
        print_trace_tables(traced)
    else:
        metrics = e2e
    for name, value in e2e.items():
        note = f"  [{unscaled[name]:.4f}]" if name != "peak_rss_mb" else ""
        if name == "item_tail_ms":
            note += f"  (p{pct}, {beyond} samples beyond)"
        print(f"{name:14s} {value:12.4f} {E2E_UNITS[name]}{note}")
    print(f"{'failed_ratio':14s} {failed / attempted:12.4f} ratio  ({failed} of {attempted})")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
