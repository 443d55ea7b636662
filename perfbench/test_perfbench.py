"""Tests of the benchmark itself: generators, oracles and tracer.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import hostspeed  # noqa: E402
import oracles as orc  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def lib():
    return worker.load_library()


# --- generators ----------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    gen = wl.WORKLOADS[name].generate
    first = gen(11)
    assert repr(gen(11)) == repr(first)
    assert wl.digest(gen(11)) == wl.digest(first)
    assert wl.digest(gen(12)) != wl.digest(first)


def test_reconstruct_covers_every_base_of_every_small_bridgeless_graph():
    assert len(wl.gen_reconstruct(3)) == 418


def test_flows_basis_matches_the_library(lib):
    specs = wl.gen_flows(5)
    wl.prep_flows(specs, lib, None)   # raises when a generated basis differs


# --- oracles ---------------------------------------------------------------------

def test_reference_determinants_agree():
    m = ((2, -1, 0, 3), (1, 1, 4, 0), (0, 5, -2, 1), (3, 0, 1, 1))
    assert orc.det_cofactor(m) == orc.det_exact(m) != 0
    assert orc.is_tu_by_minors(((1, -1, 0), (0, 1, -1)))
    assert not orc.is_tu_by_minors(((1, 1), (1, -1)))


def test_graph_references():
    k4 = list(wl.FLOW_GRAPHS["K4"])
    assert len(orc.cycle_masks(k4)) == 7
    assert len(orc.bond_masks(k4)) == 7
    assert len(orc.signed_cycle_flows(k4)) == 14
    assert orc.spanning_tree_count(k4) == 16


def _first(specs, outputs, pred):
    return next((s, o) for s, o in zip(specs, outputs) if pred(s))


def test_reconstruct_oracle_rejects_corruption(lib):
    specs = wl.gen_reconstruct(2)[:3]
    items = wl.prep_reconstruct(specs, lib, None)
    spec, out = specs[0], wl.run_reconstruct(items[0], lib)
    assert wl.check_reconstruct(spec, out) is None
    assert wl.check_reconstruct(spec, dataclasses.replace(out, feasible=False))
    cert = out.report.certificate
    rows = [list(r) for r in cert.entries]
    rows[0][0] += 1
    report = dataclasses.replace(out.report, certificate=cert.from_rows(rows))
    assert wl.check_reconstruct(spec, dataclasses.replace(out, report=report))
    # the rebuilt matroid of another graph's Gram matrix
    other = next(o for o in (wl.run_reconstruct(i, lib) for i in items)
                 if o.report.matroid.rep != out.report.matroid.rep)
    report = dataclasses.replace(out.report, matroid=other.report.matroid)
    assert wl.check_reconstruct(spec, dataclasses.replace(out, report=report))


def test_isometry_oracle_rejects_corruption(lib):
    specs = [s for s in wl.gen_isometry(4) if len(s[2]) == 9]
    items = wl.prep_isometry(specs, lib, None)
    outputs = [wl.run_isometry(i, lib) for i in items]
    for spec, out in zip(specs, outputs):
        assert wl.check_isometry(spec, out) is None
        assert wl.check_isometry(spec, dataclasses.replace(out, isometric=not out.isometric))
    spec, out = _first(specs, outputs, lambda s: s[1])
    labels = out.witness.label_map
    collapsed = ((labels[0][0], labels[1][1]),) + labels[1:]
    bad = dataclasses.replace(out.witness, label_map=collapsed)
    assert wl.check_isometry(spec, dataclasses.replace(out, witness=bad))


def test_isometry_oracle_rejects_a_bijection_that_breaks_circuits():
    k4 = tuple(wl.FLOW_GRAPHS["K4"])      # edges 0:01 1:02 2:03 3:12 4:13 5:23
    spec = ("flow", True, k4, k4, ("graph", k4))
    names = [f"e{j + 1}" for j in range(6)]
    swap = {"e1": "e6", "e6": "e1"}         # 01 <-> 23 is no automorphism of K4
    for label_map, ok in (({}, True), (swap, False)):
        witness = types.SimpleNamespace(label_map=tuple((a, label_map.get(a, a)) for a in names))
        out = type("Decision", (), {"__bool__": lambda self: True, "witness": witness})()
        assert (wl.check_isometry(spec, out) is None) == ok


def test_flows_oracle_rejects_corruption(lib):
    specs = wl.gen_flows(6)
    items = wl.prep_flows(specs, lib, None)
    spec, item = next((s, i) for s, i in zip(specs, items)
                      if s[0] == "simple" and s[1] == "K4")
    out = wl.run_flows(item, lib)
    assert wl.check_flows(spec, out) is None
    flipped = dataclasses.replace(out, simple=not out.simple,
                                  witness=None if out.simple else out.witness)
    assert wl.check_flows(spec, flipped)
    spec, item = next((s, i) for s, i in zip(specs, items)
                      if s[0] == "simple" and s[1] == "K4" and not wl.run_flows(i, lib))
    out = wl.run_flows(item, lib)
    b, c = out.witness
    nudged = dataclasses.replace(out, witness=(b + b, c - b))
    assert wl.check_flows(spec, nudged)
    spec, item = next((s, i) for s, i in zip(specs, items) if s[0] == "decompose")
    parts = wl.run_flows(item, lib)
    assert wl.check_flows(spec, parts) is None
    assert wl.check_flows(spec, parts[1:])


def test_certify_oracle_rejects_corruption(lib, tmp_path):
    specs = wl.gen_certify(7)
    items = wl.prep_certify(specs, lib, tmp_path)
    seen = set()
    for spec, item in zip(specs, items):
        kind = spec[1]
        if kind in seen or (kind == "graph" and len(spec[2]) > 5):
            continue
        seen.add(kind)
        code, text = wl.run_certify(item, lib)
        assert wl.check_certify(spec, (code, text)) is None
        if kind == "graph":
            assert wl.check_certify(spec, (1, "TU no  witness rows=[0] cols=[0] det=2\nWU yes\n"))
        elif kind == "planted":
            lines = text.splitlines()
            wrong_det = lines[0].rsplit("=", 1)[0] + "=" + str(int(lines[0].rsplit("=", 1)[1]) + 1)
            assert wl.check_certify(spec, (code, "\n".join([wrong_det] + lines[1:])))
            assert wl.check_certify(spec, (0, "TU yes\nWU yes\n"))
        elif kind == "fano":
            x = spec[2]
            assert wl.check_certify(spec, (0, "TU-SIGNING\n" + wl.matrix_text(x)))
        else:
            u = [[int(t) for t in ln.split()] for ln in text.splitlines()[2:]]
            # negating one corner of a nonzero 2x2 block (det 0 in a TU
            # matrix) makes its det +-2: same absolute value, not TU
            i, k, j, l = next((i, k, j, l) for i, k in itertools.combinations(range(len(u)), 2)
                              for j, l in itertools.combinations(range(len(u[0])), 2)
                              if u[i][j] and u[i][l] and u[k][j] and u[k][l])
            u[i][j] = -u[i][j]
            assert wl.check_certify(spec, (0, "TU-SIGNING\n" + wl.matrix_text(u)))
            u[i][j] = 0
            assert wl.check_certify(spec, (0, "TU-SIGNING\n" + wl.matrix_text(u)))
            assert wl.check_certify(spec, (1, "NO-TU-SIGNING\n"))
    assert seen == {"graph", "planted", "fano", "sharp"}


# --- tracer --------------------------------------------------------------------------

def test_tracer_restores_every_binding(lib):
    import flowlattice

    modules = [flowlattice] + [getattr(lib, n) for n in worker.LAYERS]
    before = [dict(vars(m)) for m in modules]
    with Tracer({n: getattr(lib, n) for n in worker.LAYERS}) as tracer:
        assert lib.matroid.is_totally_unimodular is not before[2]["is_totally_unimodular"]
        assert flowlattice.circuits is not before[0]["circuits"]
        tri = lib.matroid.from_graph([(1, 2), (2, 3), (3, 1)])
        lib.matroid.is_isomorphic(tri, tri)
    assert tracer.stats["matroid.circuits"].calls == 2
    assert tracer.stats["intmat.rank"].calls > 0
    for m, saved in zip(modules, before):
        assert all(vars(m)[k] is v for k, v in saved.items())


def _toy(source):
    mod = types.ModuleType("toy.layer")
    exec(source, vars(mod))
    return mod


TOY = """
now = [0.0]

def inner():
    now[0] += 2
    return (1, 2)

def outer():
    now[0] += 1
    inner()
    now[0] += 3
    return True

def count():
    for i in range(3):
        now[0] += 5
        yield i

def consume():
    now[0] += 1
    total = sum(count())
    now[0] += 1
    return total
"""


def test_self_time_of_a_nested_call():
    toy = _toy(TOY)
    with Tracer({"toy": toy}, namespaces=[toy], clock=lambda: toy.now[0]) as tr:
        toy.outer()
        toy.outer()
    assert vars(tr.stats["toy.outer"]) == {"calls": 2, "total_s": 12.0, "self_s": 8.0,
                                           "truthy": 2, "returned": 0}
    assert vars(tr.stats["toy.inner"]) == {"calls": 2, "total_s": 4.0, "self_s": 4.0,
                                           "truthy": 2, "returned": 4}
    assert tr.layer_totals()["toy"].self_s == 12.0
    assert tr.edges[("toy.outer", "toy.inner")].calls == 2
    assert tr.edges[(None, "toy.outer")].total_s == 12.0


def test_self_time_of_a_wrapped_generator():
    toy = _toy(TOY)
    with Tracer({"toy": toy}, namespaces=[toy], clock=lambda: toy.now[0]) as tr:
        assert toy.consume() == 3
    assert vars(tr.stats["toy.count"]) == {"calls": 1, "total_s": 15.0, "self_s": 15.0,
                                           "truthy": 0, "returned": 3}
    assert tr.stats["toy.consume"].total_s == 17.0
    assert tr.stats["toy.consume"].self_s == 2.0
    assert toy.count.__name__ == "count" and not hasattr(toy.count, "__wrapped__")


# --- end-to-end figures ----------------------------------------------------------------

def toy_pass(latencies, ref_s, setup_s=0.1, shapes=None):
    return {"latencies_s": latencies, "refs": [(0, ref_s), (len(latencies), ref_s)],
            "shapes": shapes or list(range(len(latencies))),
            "setup_s": setup_s, "setup_refs": [ref_s] * 8, "peak_rss_mb": 20.0}


def test_end_to_end_takes_each_items_median_over_passes():
    # item 2 is slow in one pass only; its median over the passes drops that pass
    nominal = hostspeed.REF_NOMINAL_S
    passes = [toy_pass(lat, nominal, setup) for lat, setup in (
        ([0.01, 0.02, 0.50, 0.04], 0.3), ([0.01, 0.02, 0.03, 0.04], 0.1),
        ([0.01, 0.03, 0.03, 0.05], 0.2))]
    metrics, pct, beyond = run.end_to_end(passes, nominal=5)
    assert metrics["items_per_s"] == pytest.approx(4 / 0.10)
    assert metrics["item_p50_ms"] == pytest.approx(25.0)
    assert metrics["setup_s"] == pytest.approx(0.2)
    # two items beyond the tail leave 2 x 5 nominal samples beyond it
    assert run.tail_rank(4, 5) == 2
    assert metrics["item_tail_ms"] == pytest.approx(20.0)
    assert (pct, beyond) == (50, 6)


def test_p50_and_tail_take_each_problems_median_over_its_relabellings():
    # items 0 and 2 pose one problem, 1 and 3 another
    nominal = hostspeed.REF_NOMINAL_S
    passes = [toy_pass([0.01, 0.10, 0.03, 0.20], nominal, shapes=[0, 1, 0, 1])] * 5
    metrics, pct, beyond = run.end_to_end(passes, nominal=5)
    assert metrics["items_per_s"] == pytest.approx(4 / 0.34)
    assert metrics["item_p50_ms"] == pytest.approx(85.0)    # median of 20 and 150 ms
    # 2 relabellings x 5 passes: the slower problem alone is 10 samples beyond
    assert run.tail_rank(2, 10) == 1
    assert metrics["item_tail_ms"] == pytest.approx(20.0)
    assert (pct, beyond) == (50, 10)
    assert run.tail_rank(2, 6) == 1     # never past the fastest problem


def test_relabellings_of_a_problem_share_its_shape():
    for seed in (1, 2):
        for name, each in (("isometry", wl.ISOMETRY_SCRAMBLES), ("certify", wl.CERTIFY_SCRAMBLES)):
            work = wl.WORKLOADS[name]
            specs = work.generate(seed)
            ids = worker.shape_ids(work, specs)
            assert all(ids.count(i) == each for i in set(ids))
            assert len(set(ids)) * each == len(specs)


def test_times_are_scaled_to_the_nominal_host_speed():
    nominal = hostspeed.REF_NOMINAL_S
    slow = toy_pass([0.02, 0.04], 2 * nominal, setup_s=0.4)
    assert run.scaled_latencies(slow) == pytest.approx([0.01, 0.02])
    metrics = run.end_to_end([slow], nominal=5)[0]
    assert metrics["setup_s"] == pytest.approx(0.2)
    assert run.end_to_end([slow], nominal=5, scaled=False)[0]["setup_s"] == 0.4
    # set-up takes the host speed measured around it, and set-up-only runs count
    fast_setup = {"setup_s": 0.3, "setup_refs": [nominal / 2] * 8}
    setups = [fast_setup, fast_setup]
    assert run.end_to_end([slow], nominal=5, setups=setups)[0]["setup_s"] == pytest.approx(0.6)
    # an item takes the median reference time of the samples around it
    p = {"latencies_s": [1.0] * 10, "refs": [(i, 1.0 if i < 5 else 3.0) for i in range(10)]}
    times = run.reference_times(p)
    assert hostspeed.REF_WINDOW == 4 and (times[0], times[4], times[9]) == (1.0, 2.0, 3.0)
    assert hostspeed.reference() == hostspeed.reference()


# --- the recorded definition -----------------------------------------------------------

def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert [m["name"] for m in spec["per_layer"]] == run.PER_LAYER
    assert all(m["unit"] == run.unit_of(m["name"]) for m in spec["per_layer"])
