"""One pass over a workload's items in a fresh interpreter.

`run.py` starts this once per pass, so flowlattice's process-global
caches are cold at the start of every pass.  The pass builds the inputs
from the seed, prepares them (set-up), calls every item back to back in
a closed loop with one caller (timed), reads the peak resident set, and
only then runs the oracles.  It prints one JSON object on stdout.
With --setup-only it stops after set-up.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import resource
import sys
import tempfile
import time
import traceback
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ("intmat", "matroid", "flows", "gram", "rebuild", "cli")

# this directory is sys.path[0]
from hostspeed import REF_EVERY_S, REF_WINDOW, time_reference  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, digest  # noqa: E402


def load_library():
    """The flowlattice modules of this checkout's src/, never an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    mods = {name: importlib.import_module(f"flowlattice.{name}") for name in LAYERS}
    found = Path(sys.modules["flowlattice"].__file__).resolve().parent
    if found != src / "flowlattice":
        raise ImportError(f"flowlattice imported from {found}, not {src}")
    return types.SimpleNamespace(**mods)


def timed_pass(workload, items, lib):
    """Call every item back to back; an item that raises yields its exception.

    Before an item, at most every REF_EVERY_S, and after the last one,
    the reference kernel is timed: `refs` holds (index of the next item,
    seconds).  Items are timed without it.
    """
    outputs, latencies, refs = [], [], []
    last = -REF_EVERY_S
    for item in items:
        if time.perf_counter() - last >= REF_EVERY_S:
            refs.append((len(latencies), time_reference()))
            last = time.perf_counter()
        t0 = time.perf_counter()
        try:
            out = workload.run(item, lib)
        except Exception as exc:  # counted as a failed item, never fatal
            traceback.print_exc(file=sys.stderr)
            out = exc
        latencies.append(time.perf_counter() - t0)
        outputs.append(out)
    refs.append((len(latencies), time_reference()))
    return outputs, latencies, refs


def shape_ids(workload, specs):
    """Per item, the index of the first item posing the same problem."""
    if workload.shape is None:
        return list(range(len(specs)))
    first = {}
    return [first.setdefault(workload.shape(spec), i) for i, spec in enumerate(specs)]


def check_all(workload, specs, outputs):
    failures = []
    for i, (spec, out) in enumerate(zip(specs, outputs)):
        if isinstance(out, Exception):
            failures.append((i, f"raised {out!r}"))
            continue
        try:
            reason = workload.check(spec, out)
        except Exception as exc:  # a malformed output can break the oracle
            reason = f"oracle raised {exc!r}"
        if reason:
            failures.append((i, reason))
    return failures


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the parent just before it started this process")
    ap.add_argument("--setup-only", action="store_true",
                    help="stop after set-up and time the reference kernel instead of the items")
    args = ap.parse_args(argv)

    # the host's speed on either side of set-up; not counted in set-up
    before = [time_reference() for _ in range(REF_WINDOW)]
    lib = load_library()
    workload = WORKLOADS[args.workload]
    specs = workload.generate(args.seed)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        items = workload.prepare(specs, lib, Path(tmp))
        setup_s = time.monotonic() - args.spawned_at - sum(before)
        setup_refs = before + [time_reference() for _ in range(REF_WINDOW)]
        if args.setup_only:
            json.dump({"digest": digest(specs), "setup_s": setup_s, "setup_refs": setup_refs},
                      sys.stdout)
            sys.stdout.write("\n")
            return
        tracer = Tracer({name: getattr(lib, name) for name in LAYERS}) if args.trace \
            else contextlib.nullcontext()
        with tracer:
            outputs, latencies, refs = timed_pass(workload, items, lib)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {
        "digest": digest(specs),
        "setup_s": setup_s,
        "setup_refs": setup_refs,
        "latencies_s": latencies,
        "shapes": shape_ids(workload, specs),
        "refs": refs,
        "peak_rss_mb": peak_rss_mb,
        "failures": check_all(workload, specs, outputs),
    }
    if args.trace:
        result["stats"] = {k: vars(v) for k, v in tracer.stats.items()}
        result["layers"] = {k: vars(v) for k, v in tracer.layer_totals().items()}
        result["edges"] = [[p, c, e.calls, e.total_s] for (p, c), e in tracer.edges.items()]
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
