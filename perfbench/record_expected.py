"""Pin the default seed's outputs: value, lower bound, ordering digest, opt.

    python3 perfbench/record_expected.py

Runs one pass of every workload at the default seed, refuses to write when
any check fails, and rewrites expected/seed<N>.json. Re-pinning is only
right when a change is meant to alter values, bounds or orderings.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from harness import PINNED, Harness
from workloads import DEFAULT_SEED, WORKLOADS, build

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    pins = {}
    for name in WORKLOADS:
        h = Harness(ROOT, build(name, DEFAULT_SEED))
        try:
            h.setup()
            outcomes = h.run_pass()[1]
            review = h.review(outcomes)
        finally:
            h.close()
        if review["problems"]:
            print("\n".join(review["problems"]), file=sys.stderr)
            return 1
        pins[name] = [[op.name, *out.key()]
                      for op, out in zip(h.workload.ops, outcomes)]
        print(f"{name}: {len(outcomes)} operations pinned")
    PINNED.parent.mkdir(exist_ok=True)
    blocks = [f"{json.dumps(name)}: [\n" + ",\n".join(json.dumps(row) for row in rows)
              + "\n]" for name, rows in pins.items()]
    PINNED.write_text("{\n" + ",\n".join(blocks) + "\n}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
