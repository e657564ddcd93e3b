"""Sweep benchmark for simplexgraphs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload connectivity_pool --seed 1 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer ones.  ``--workload all`` runs every workload in turn, each in
a fresh process, so that peak memory and set-up stay per workload.  Each
metric is printed with its unit and sample count, then every check, then the
provenance; the last line is the JSON result.  The run's record and its spans
go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _run_all(args, workloads) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        argv = ["--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run([sys.executable, __file__, *argv], cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"perfbench: workload {workload} exited with {done.returncode}", file=sys.stderr)
            return done.returncode
        lines = done.stdout.splitlines()
        print(f"== {workload}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "simplexgraphs" / "__init__.py").is_file():
        print(f"perfbench: no simplexgraphs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import bench
    from workloads import WORKLOADS

    if args.workload == "all":
        return _run_all(args, WORKLOADS)
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from all, {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, m in result.metrics.items():
        print(f"metric {name} = {m.value:.6g} {m.unit} (n={m.samples})")
    print(f"metric failed_frac = {result.failed / result.attempted:.6g} ({result.failed} of {result.attempted})")
    for c in result.checks:
        print(f"check {'PASS' if c.ok else 'FAIL'} {c.name}: {c.detail}")
    for err in result.errors:
        print(err, file=sys.stderr)
    print("provenance " + json.dumps(result.provenance))
    print(f"record {bench.write_outputs(result).relative_to(ROOT)}")
    print(json.dumps(result.line()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
