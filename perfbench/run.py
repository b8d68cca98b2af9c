"""Benchmark of cbrsearch: one workload, one seed, one result line.

    python3 perfbench/run.py --workload warm_query --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory and nowhere else. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace 1``
its per-layer metrics. The line before it names the workload, the seed, a
digest of the outputs (comparable between commits) and the input
properties. Scratch files live in ``.perfbench-work/`` and are removed at
the end.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("warm_query", "cold_query", "retain_cycle")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _import_package() -> None:
    """Import cbrsearch from this checkout's sources, or fail."""
    src = ROOT / "src"
    if not (src / "cbrsearch" / "__init__.py").is_file():
        raise SystemExit(f"error: no package sources at {src / 'cbrsearch'}")
    sys.path.insert(0, str(src))
    import cbrsearch

    if not Path(cbrsearch.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"error: cbrsearch was imported from {cbrsearch.__file__}, not {src}")


def main(argv=None) -> int:
    args = _parse(argv)
    # One CPU for this process and its children, so the speed reference and
    # the op it corrects run on the same core (see clock.py).
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError) as exc:
        print(f"warning: running unpinned ({exc})", file=sys.stderr)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    _import_package()
    import workloads

    scratch = ROOT / ".perfbench-work"
    work = scratch / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        outcome = workloads.RUNNERS[args.workload](
            workloads.Run(args.seed, args.seconds, bool(args.trace), ROOT, work)
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it

    if outcome.metrics.keys() != units.keys():
        raise SystemExit(
            "error: measured metrics differ from BENCHMARK.json: "
            f"{sorted(outcome.metrics.keys() ^ units.keys())}"
        )
    for problem in outcome.problems:
        print(f"gate: {problem}", file=sys.stderr)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "digest": outcome.digest,
        "properties": outcome.properties,
        "raw": outcome.raw,
    }))
    print(json.dumps({
        "correct": outcome.failed == 0 and not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": unit} for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
