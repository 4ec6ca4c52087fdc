"""Golden `solve --no-timing` output: every valid objective x mode on a few
seeded instances must reproduce the committed bytes exactly, including the
`stats` counters. `triangles` counts the cells the pruned cut search
examined: kept rows * r2 * r3 over the splits it visited, at most C(n, k)
for each k searched, and 0 for the exact DPs.

Regenerate the golden file, only when a change of output is intended, with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import os
import sys
from pathlib import Path

from ordercut import gen_random, serialize_graph
from ordercut.cli import main

GOLDEN = Path(__file__).with_name("golden_solve_no_timing.txt")

# (file name, n, p, weight range, undirected, seed)
INSTANCES = (
    ("dg8.g", 8, 0.4, (1, 1), False, 11),
    ("dgw10.g", 10, 0.35, (1, 50), False, 12),
    ("ug11.g", 11, 0.3, (1, 1), True, 13),
    ("ugw12.g", 12, 0.3, (1, 1000), True, 14),
)

MODES = (
    ("--obj", "fas", "--mode", "exact"),
    ("--obj", "cutwidth", "--mode", "exact"),
    ("--obj", "ola", "--mode", "exact"),
    ("--obj", "dpw", "--mode", "exact"),
    ("--obj", "fas", "--mode", "2approx"),
    ("--obj", "fas", "--mode", "2approx", "--eps", "1/2"),
    ("--obj", "fas", "--mode", "3approx"),
    ("--obj", "fas", "--mode", "scheme", "--eps", "1/2"),
    ("--obj", "fas", "--mode", "scheme", "--eps", "1", "--weighted"),
    ("--obj", "cutwidth", "--mode", "2approx"),
    ("--obj", "cutwidth", "--mode", "2approx", "--eps", "1/2"),
    ("--obj", "cutwidth", "--mode", "3approx"),
    ("--obj", "ola", "--mode", "2approx"),
    ("--obj", "ola", "--mode", "2approx", "--alpha", "1/3"),
    ("--obj", "ola", "--mode", "2approx", "--weighted"),
    ("--obj", "dpw", "--mode", "2approx"),
)


def render(workdir: Path) -> str:
    """Write the instances into workdir and return every solve's output, each
    preceded by its command line. Instance paths are relative to workdir, so
    the bytes do not depend on where it lives."""
    for name, n, p, weights, undirected, seed in INSTANCES:
        g = gen_random(n, p, weight_range=weights, seed=seed,
                       undirected=undirected)
        (workdir / name).write_text(serialize_graph(g))
    chunks = []
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for name, *_ in INSTANCES:
            for flags in MODES:
                argv = ["solve", name, *flags, "--no-timing"]
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = main(argv)
                chunks.append(f"$ {' '.join(argv)} -> {code}\n{out.getvalue()}")
    finally:
        os.chdir(cwd)
    return "".join(chunks)


def test_solve_no_timing_matches_golden(tmp_path):
    assert render(tmp_path) == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(render(Path(tmp)), encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
