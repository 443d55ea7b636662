"""Byte-for-byte replay of the `flowlat` transcript in tests/golden/.

Each case runs `cli.run` on the files of tests/golden/inputs/, from
tests/golden/, once as listed and once with `--porcelain` in front.
tests/golden/expected/<case>.out holds "exit <status>" on its first
line and the stdout of the run after it, unchanged.  Eight of the cases,
each exit status among them, and an unknown verb also run through the
real entry point, `python -m flowlattice.cli`, in a fresh interpreter.

To record the transcript again (only when an output change is
intended), run from the root of the checkout:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from flowlattice.cli import run

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"

_GRAPHS = {
    "k4": ("inputs/k4.graph", "inputs/k4.vec", "1 -1 0 1 0 0"),
    "pendant": ("inputs/pendant.graph", "1 1 1 0 0", "0 0 0 0 3"),
    "matroid": ("inputs/k4.matroid", "1 1 0 1 0 0", "2 0 2 1 1 -1"),
}

CASES = {}
for _name, (_file, _vec, _other) in _GRAPHS.items():
    CASES |= {
        f"circuits-{_name}": ["circuits", _file],
        f"coloops-{_name}": ["coloops", _file],
        f"flows-{_name}": ["flows", _file],
        f"cuts-{_name}": ["cuts", _file],
        f"decompose-{_name}": ["decompose", _file, _vec],
        f"simple-{_name}": ["simple", _file, _vec],
        f"simple-{_name}-other": ["simple", _file, _other],
    }
CASES |= {
    "flows-k4-base": ["flows", "inputs/k4.graph", "--base", "1,2,5"],
    "cuts-matroid-base": ["cuts", "inputs/k4.matroid", "--base", "2 3 4"],
    "flows-k4-not-a-base": ["flows", "inputs/k4.graph", "--base", "1,2,4"],
    "isometric-flow": ["isometric", "inputs/k4.graph", "inputs/k4.matroid"],
    "isometric-cut": ["isometric", "inputs/k4.graph", "inputs/k4.matroid", "--mode", "cut"],
    "isometric-mixed": ["isometric", "inputs/k4.graph", "inputs/k4.matroid",
                        "--mode", "mixed"],
    "isometric-pendant": ["isometric", "inputs/pendant.graph", "inputs/k4.graph"],
}
for _name in ("k4", "infeasible", "negative", "k4-subdivided"):
    for _verb in ("gtest", "xmatrix", "reconstruct"):
        CASES[f"{_verb}-{_name}"] = [_verb, f"inputs/{_name}.gram"]
for _name in ("tu", "det2", "fano", "nonunit"):
    for _verb in ("tu-check", "signing"):
        CASES[f"{_verb}-{_name}"] = [_verb, f"inputs/{_name}.mat"]
CASES |= {
    "tu-check-tu-bound-2": ["--tu-bound", "2", "tu-check", "inputs/tu.mat"],
    "tu-check-det2-tu-bound-2": ["--tu-bound", "2", "tu-check", "inputs/det2.mat"],
    "tu-check-short": ["tu-check", "inputs/short.mat"],
    "decompose-w5-large": ["decompose", "inputs/w5.graph", "inputs/w5-large.vec"],
    "decompose-k5-large": ["decompose", "inputs/k5.graph", "inputs/k5-large.vec"],
    "simple-k5-large": ["simple", "inputs/k5.graph", "inputs/k5-simple-large.vec"],
    "reconstruct-singular": ["reconstruct", "inputs/singular.gram"],
    "reconstruct-k4-rebased": ["reconstruct", "inputs/k4-rebased.gram"],
    "flows-k4-base-nonint": ["flows", "inputs/k4.graph", "--base", "a,b"],
    "tu-check-nonint": ["tu-check", "inputs/nonint.mat"],
    "circuits-nonint": ["circuits", "inputs/nonint.graph"],
    "tu-check-order2": ["tu-check", "inputs/order2.mat"],
    "tu-check-order2-tu-bound-1": ["--tu-bound", "1", "tu-check", "inputs/order2.mat"],
    "tu-check-tall": ["tu-check", "inputs/tall.mat"],
    "tu-check-tall-tu-bound-2": ["--tu-bound", "2", "tu-check", "inputs/tall.mat"],
    "signing-fano-tu-bound-1": ["--tu-bound", "1", "signing", "inputs/fano.mat"],
    "gtest-k4-subset-bound-2": ["--subset-bound", "2", "gtest", "inputs/k4.gram"],
    "circuits-empty": ["circuits", "inputs/empty.matroid"],
    "isometric-edge-empty": ["isometric", "inputs/edge.graph", "inputs/empty.matroid"],
}
CASES |= {f"{name}-porcelain": ["--porcelain"] + argv for name, argv in list(CASES.items())}


def transcript(argv) -> str:
    """"exit <status>" and the stdout of `cli.run(argv)`, run from tests/golden/."""
    out = io.StringIO()
    here = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(out):
            status = run(argv)
    finally:
        os.chdir(here)
    return f"exit {status}\n{out.getvalue()}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_transcript(name):
    expected = (GOLDEN / "expected" / f"{name}.out").read_bytes()
    assert transcript(CASES[name]).encode() == expected


def entry_point(argv) -> subprocess.CompletedProcess:
    """`python -m flowlattice.cli argv` in a fresh interpreter, from
    tests/golden/: `cli.main` and its `sys.exit` carry the status."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-m", "flowlattice.cli", *argv], cwd=GOLDEN,
                          env=env, capture_output=True, timeout=60)


@pytest.mark.parametrize("name", ["circuits-k4", "tu-check-det2", "flows-k4-not-a-base",
                                  "reconstruct-k4", "reconstruct-infeasible", "tu-check-tu",
                                  "signing-fano", "gtest-k4"])
def test_entry_point(name):
    """The process exits with the recorded status (0, 1 and 2 here) and
    writes the recorded stdout byte for byte."""
    expected = (GOLDEN / "expected" / f"{name}.out").read_bytes()
    proc = entry_point(CASES[name])
    assert b"exit %d\n" % proc.returncode + proc.stdout == expected


def test_entry_point_unknown_verb():
    proc = entry_point(["frobnicate"])
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr.startswith(b"usage: flowlat")


def test_every_verb_covered():
    from flowlattice import cli

    verbs = {name[4:].replace("_", "-") for name in vars(cli) if name.startswith("cmd_")}
    parser = cli.build_parser()
    for porcelain in (False, True):
        assert {parser.parse_args(argv).verb for argv in CASES.values()
                if (argv[0] == "--porcelain") == porcelain} == verbs


if __name__ == "__main__":
    for name, argv in CASES.items():
        (GOLDEN / "expected" / f"{name}.out").write_bytes(transcript(argv).encode())
