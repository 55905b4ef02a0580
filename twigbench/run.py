"""twigjoin benchmark: one seeded workload per run.

Run from the root of a checkout:

    python3 twigbench/run.py --workload frag --seed 1 --seconds 10 --trace 0

Workloads: ``frag`` (the ROADMAP baseline corpus: fragmented guide),
``schema`` (an XMark-shaped document: a guide of a few dozen nodes),
``ingest`` (XML bytes to a loaded index, then a few queries on it).
With ``--trace 0`` the run reports end-to-end metrics; with
``--trace 1`` it reports per-layer metrics from spans and writes the
spans to ``twigbench/out/``.  The engine is imported from this
checkout's ``src/`` and nowhere else.  The last line of stdout is one
JSON object; the exit code is 0 only when every answer was correct.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _import_engine():
    sys.path.insert(0, str(SRC))
    try:
        import twigjoin
    except ImportError as exc:
        sys.exit(f"twigbench: cannot import twigjoin from {SRC}: {exc}")
    if not Path(twigjoin.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"twigbench: twigjoin imported from {twigjoin.__file__}, not {SRC}")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("frag", "schema", "ingest"))
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    _import_engine()
    import workloads

    res = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    names = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    for line in res.report:
        print(line)
    width = max(map(len, names))
    for name in names:
        value, unit = res.metrics[name]
        print(f"  {name:<{width}}  {value:>16.6g} {unit}")
    print(f"  {'error_rate':<{width}}  {res.failed / res.attempted:>16.6g} fraction"
          f"  ({res.failed} failed of {res.attempted} ops)")
    for err in res.errors[:20]:
        print(f"error: {err}", file=sys.stderr)
    print(json.dumps({
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {k: {"value": res.metrics[k][0], "unit": res.metrics[k][1]} for k in names},
    }))
    return 0 if res.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
