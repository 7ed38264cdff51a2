"""Byte-for-byte CLI outputs at fixed seeds.

Each case runs one ``quakewait`` invocation in-process and compares its
stdout and every file it writes with the expected bytes in
``tests/golden/``.  The temporary directory the outputs go to appears in
stdout as ``{tmp}``.  A refactor must leave all of these unchanged.

Regenerate the expected outputs with ``PYTHONPATH=src python
tests/test_cli_golden.py``, and only for a deliberate, explained output
change.  Giving the Monte Carlo replicates block substreams (ROADMAP item
2) is such a change: it legitimately alters the ``verify`` goldens.
"""
import contextlib
import io
import sys
import tempfile
from pathlib import Path

import pytest

from quakewait.cli import main

GOLDEN = Path(__file__).parent / "golden"

# a zero-rate stretch exercises the flat parts of the inverse cumulative rate
MODEL = ('{"segments":[[0,2],[1,0],[3,0.5],[10,1]],'
         '"tail_start":10,"tail_rate":1}')

# Table 1's published percentages (t = 10, 20, 25, 30, 40, 50)
PERCENTAGES = """\
t,p1,p2,p3,p4,p5,p6,p7,p8,p9,p10
10,1.1,1.7,1.2,2.0,1.4,3.4,4.9,7.4,12.0,64.9
20,5.0,6.3,6.8,6.4,6.8,9.2,10.6,10.1,13.4,25.4
25,6.7,6.4,7.0,8.3,7.4,9.2,10.1,11.8,12.5,20.6
30,7.5,9.0,8.4,7.4,7.7,7.5,9.9,10.1,13.0,19.5
40,7.3,8.9,9.4,9.2,9.6,8.7,11.7,8.2,11.1,15.9
50,10.3,9.7,8.2,8.8,9.3,11.5,8.9,9.7,11.1,12.5
"""

# name -> (argv with {tmp} for the output directory, files written there)
CASES = {
    "simulate": (["simulate", "--model", MODEL, "--horizon", "300", "--seed", "42",
                  "--out", "{tmp}/events.csv"], ["events.csv"]),
    "gof_json": (["gof", "--seed", "3"], []),
    "gof_csv": (["gof", "--seed", "3", "--format", "csv"], []),
    "gof_r5": (["gof", "--seed", "3", "--r", "5"], []),
    "gof_n10000": (["gof", "--seed", "3", "--n", "10000"], []),
    "gof_percentages": (["gof", "--from-percentages", "{tmp}/percentages.csv"], []),
    "analyze": (["analyze", "--compare-t", "53,116", "--bands", "--alpha", "0.05",
                 "--h-max", "50", "--out-svg", "{tmp}/bands.svg",
                 "--out-bands", "{tmp}/bands.csv"], ["bands.svg", "bands.csv"]),
    "verify_clt": (["verify", "clt", "--m", "1", "--t", "10000", "--reps", "2000",
                    "--seed", "0"], []),
    "verify_gc": (["verify", "gc", "--m", "1", "--t", "100,1000,10000",
                   "--reps", "500", "--seed", "0"], []),
    "verify_kolmogorov": (["verify", "kolmogorov", "--m", "1", "--t", "10000",
                           "--reps", "2000", "--seed", "0"], []),
}


def outputs(name: str, tmp: Path) -> dict[str, bytes]:
    """Run case ``name`` with outputs under ``tmp``; golden file name ->
    bytes produced."""
    argv, files = CASES[name]
    (tmp / "percentages.csv").write_text(PERCENTAGES)
    stdout = io.StringIO(newline="")
    with contextlib.redirect_stdout(stdout):
        code = main([a.replace("{tmp}", str(tmp)) for a in argv])
    assert code == 0, f"{name} exited {code}"
    out = {f"{name}.stdout": stdout.getvalue().replace(str(tmp), "{tmp}").encode()}
    for f in files:
        out[f"{name}.{f}"] = (tmp / f).read_bytes()
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    for golden, got in outputs(name, tmp_path).items():
        assert got == (GOLDEN / golden).read_bytes(), golden


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in CASES:
        with tempfile.TemporaryDirectory() as d:
            for golden, data in outputs(case, Path(d)).items():
                (GOLDEN / golden).write_bytes(data)
                print(f"wrote {GOLDEN / golden} ({len(data)} bytes)", file=sys.stderr)
