#!/usr/bin/env python3
"""The repository benchmark: seconds and work to a fixed point.

Run from the repository root::

    python3 perfbench/run.py --workload pagerank-wg --seed 0 --seconds 25 --trace 0

One invocation measures one workload in this one single-threaded
process (``measure.py``).  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parent.parent

#: the seed a claim is developed against, and the one held out to check it
DEFAULT_SEED = 0
HELDOUT_SEED = 7919


def _load_program() -> None:
    """Import ``repro`` from this checkout's ``src/``, or exit non-zero."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import repro from {src}: {exc}")
    if Path(repro.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"perfbench: repro imported from {repro.__file__}, not {src}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    _load_program()
    import measure

    if args.workload not in measure.WORKLOADS:
        parser.error(
            f"--workload must be one of {', '.join(measure.WORKLOADS)}"
        )
    result = measure.run(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
