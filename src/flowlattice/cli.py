"""Command-line front end: parse graphs, matrices, and Gram files, run
the pipeline, and emit human or machine reports.

Exit status: 0 = affirmative/success, 1 = negative decision,
2 = input or bound error.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache

from . import flows, gram, intmat, matroid, rebuild
from .errors import FlowLatticeError, FormatError


def _read(path: str) -> str:
    """The text of the regular file at path, read once and decoded as
    UTF-8, line ends as they are: every parser splits with
    `str.splitlines`.  No such file, one that cannot be read and one that
    is not UTF-8 raise FormatError."""
    if not os.path.isfile(path):
        raise FormatError(f"no such file: {path}")
    try:
        with open(path, "rb") as f:
            return f.read().decode()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from exc


def load_matroid(path: str) -> matroid.RegularMatroid:
    """Matroid file if the header says so, otherwise a graph edge list."""
    text = _read(path)
    # only the first line with a word outside its comment is read here
    for line in text.splitlines():
        words = line.split("#", 1)[0].split()
        if words:
            if words[0] == "matroid":
                return matroid.parse_matroid(text)
            break
    return matroid.from_graph(matroid.parse_graph(text))


def load_vector(spec: str) -> flows.FlowVector:
    """The vector in the file spec names, else the vector spec spells."""
    return flows.parse_flow_vector(_read(spec) if os.path.isfile(spec) else spec)


def _parse_base(spec: str | None, m: matroid.RegularMatroid):
    if spec is None:
        return None
    try:
        idx = tuple(int(t) - 1 for t in spec.replace(",", " ").split())
    except ValueError as exc:
        raise FormatError(f"base must be 1-based indices: {spec!r}") from exc
    if any(not 0 <= i < m.size for i in idx):
        raise FormatError(f"base index out of range in {spec!r}")
    return idx


def _subset_labels(m: matroid.RegularMatroid, subset) -> str:
    return "{" + ",".join(m.ground[i] for i in subset) + "}"


def _emit_witness(check: intmat.UnimodularityCheck) -> str:
    return (
        f"witness rows={list(check.witness_rows)} cols={list(check.witness_cols)} "
        f"det={check.witness_det}"
    )


def cmd_tu_check(args) -> int:
    m = intmat.parse_matrix(_read(args.file))
    tu = intmat.is_totally_unimodular(m)
    # total unimodularity implies weak unimodularity
    wu = tu or intmat.is_weakly_unimodular(m)
    print(f"TU {'yes' if tu else 'no'}" + ("" if tu else "  " + _emit_witness(tu)))
    print(f"WU {'yes' if wu else 'no'}" + ("" if wu else "  " + _emit_witness(wu)))
    return 0 if tu else 1


def cmd_circuits(args) -> int:
    m = load_matroid(args.file)
    cs = matroid.circuits(m)
    print(f"circuits {len(cs)}")
    for c in cs:
        print(_subset_labels(m, c))
    return 0


def cmd_coloops(args) -> int:
    m = load_matroid(args.file)
    loops, coloops = matroid.loops_and_coloops(m)
    print(f"loops {_subset_labels(m, loops)}")
    print(f"coloops {_subset_labels(m, coloops)}")
    return 0


def _print_lattice(basis_of, args) -> int:
    """The basis from `basis_of(m, base)` of the matroid in args.file, and
    its Gram matrix, each titled unless --porcelain."""
    m = load_matroid(args.file)
    lat = basis_of(m, _parse_base(args.base, m))
    if not args.porcelain:
        print("basis columns (rows = ground elements):")
    print(lat.basis.text(), end="")
    if not args.porcelain:
        print("gram:")
    print(lat.gram.text(), end="")
    return 0


def cmd_flows(args) -> int:
    return _print_lattice(flows.fundamental_basis, args)


def cmd_cuts(args) -> int:
    return _print_lattice(flows.cut_basis, args)


def cmd_decompose(args) -> int:
    m = load_matroid(args.file)
    lat = flows.fundamental_basis(m)
    beta = load_vector(args.vector)
    parts = flows.consistent_decompose(lat, beta)
    text = cache(flows.FlowVector.text)  # parts repeat: one text per distinct part
    for p in parts:
        print(text(p))
    total = tuple(map(sum, zip([0] * m.size, *(p.coords for p in parts))))
    print("sum OK" if total == beta.coords else "sum MISMATCH")
    return 0 if total == beta.coords else 1


def cmd_simple(args) -> int:
    m = load_matroid(args.file)
    lat = flows.fundamental_basis(m)
    alpha = load_vector(args.vector)
    res = flows.is_simple_metric(lat, alpha)
    if res:
        print("SIMPLE")
        return 0
    b, c = res.witness
    print("NOT-SIMPLE")
    print(f"witness beta  {b.text()}")
    print(f"witness gamma {c.text()}")
    print(f"inner {res.witness_inner}")
    return 1


def cmd_gtest(args) -> int:
    a = gram.parse_gram(_read(args.file))
    # f and g from one walk of the positive complex
    ftab = gram.f_table(a)
    table = gram._superset_sums(dict(ftab), a.order)
    cls = gram._classify_g(table, a.order)
    if not cls.g_nonnegative:
        print(cls.refusal())
        return 1
    print("G-POSITIVE" if cls.g_positive else "G-NONNEGATIVE")
    # the nonempty sets of the positive complex, ascending: f > 0 there, f = g = 0 off it
    for mask, f in list(ftab.items())[1:]:
        body = "{" + ",".join(str(i + 1) for i in range(a.order) if mask >> i & 1) + "}"
        print(f"f{body} = {f}  g{body} = {table[mask]}")
    print(f"k = {-table[0]}")
    return 0


def cmd_xmatrix(args) -> int:
    a = gram.parse_gram(_read(args.file))
    x = gram.build_x(a)
    print(x.text(), end="")
    return 0


def cmd_signing(args) -> int:
    x = intmat.parse_matrix(_read(args.file))
    u = gram.tu_signing(x)
    if u is None:
        print("NO-TU-SIGNING")
        return 1
    print("TU-SIGNING")
    print(u.text(), end="")
    return 0


def cmd_reconstruct(args) -> int:
    a = gram.parse_gram(_read(args.file))
    out = rebuild.reconstruct_matroid(a)
    if not out:
        print(f"VERDICT NOT-G-FEASIBLE {out.reason}")
        return 1
    rep = out.report
    print("VERDICT G-FEASIBLE")
    # the certificate is the skeleton X with signs changed
    for title, part in (("GRAM", rep.gram), ("X", intmat.sharp(rep.certificate)),
                        ("CERTIFICATE", rep.certificate),
                        ("STANDARD-FORM", rep.standard_form), ("MATROID", rep.matroid)):
        print(title)
        print(part.text(), end="")
    return 0


def cmd_isometric(args) -> int:
    m = load_matroid(args.file1)
    n = load_matroid(args.file2)
    decide = {
        "flow": rebuild.flow_lattices_isometric,
        "cut": rebuild.cut_lattices_isometric,
        "mixed": rebuild.mixed_isometric,
    }[args.mode]
    res = decide(m, n)
    if res:
        print("ISOMETRIC")
        for a, b in res.witness.label_map:
            print(f"{a} -> {b}")
        return 0
    print("NOT-ISOMETRIC")
    return 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="flowlat",
        description="Exact flow/cut lattices of regular matroids.",
    )
    p.add_argument("--porcelain", action="store_true",
                   help="stable machine-readable output")
    for kind in intmat.BOUND_DEFAULTS:
        p.add_argument(f"--{kind}-bound", type=int, default=None)
    sub = p.add_subparsers(dest="verb", required=True)

    def add(name, *specs, description=None):
        sp = sub.add_parser(name, description=description)
        for spec in specs:
            sp.add_argument(*spec[0], **spec[1])

    # verb v runs cmd_<v with '-' as '_'>, looked up when it runs
    farg = (("file",), {})
    add("tu-check", farg)
    add("circuits", farg)
    add("coloops", farg)
    add("flows", farg, (("--base",), {"default": None}))
    add("cuts", farg, (("--base",), {"default": None}))
    add("decompose", farg, (("vector",), {}))
    add("simple", farg, (("vector",), {}))
    add("gtest", farg)
    add("xmatrix", farg)
    add("signing", farg)
    add("reconstruct", farg, description=(
        "Rebuild the co-loop-free minor from a Gram matrix. The verdict is about "
        "the given basis: NOT-G-FEASIBLE says that this Gram matrix is not U^T U "
        "for a totally unimodular U, not that its lattice is not a flow lattice; "
        "another basis of the same lattice may reconstruct."))
    add("isometric", (("file1",), {}), (("file2",), {}),
        (("--mode",), {"choices": ["flow", "cut", "mixed"], "default": "flow"}))
    return p


@cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use and never changed."""
    return build_parser()


def run(argv) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        # the flags bind this call only
        scope = intmat.bounds(**{kind: value for kind in intmat.BOUND_DEFAULTS
                                 if (value := getattr(args, f"{kind}_bound")) is not None})
    except ValueError as exc:
        print(f"ERROR BAD-BOUND: {exc}")
        return 2
    try:
        with scope:
            return globals()["cmd_" + args.verb.replace("-", "_")](args)
    except FlowLatticeError as exc:
        print(f"ERROR {exc.tag}: {exc}")
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
