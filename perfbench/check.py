"""Output checks of every workload, in one command.

Usage, from the repository root::

    python3 perfbench/check.py            # check
    python3 perfbench/check.py --record   # re-record the default seed's outputs

For each workload it runs ``run.py`` in fresh processes, once on the
default seed and once on a held-out seed that was not used while the
benchmark was tuned.  It prints every end-to-end metric by name and unit,
and fails unless every run passes its output checks.  A default-seed run
fails its checks when its simulated outputs differ from the fingerprint
recorded in ``fingerprints.json``, which was written by another process,
so a speed-only change that alters simulated behaviour is caught.

``--record`` runs the default seed twice without that comparison,
requires the two fingerprints to agree (so hash-seed dependence shows),
and stores the fingerprint in ``fingerprints.json``.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1
HELD_OUT_SEED = 1009


def run(workload: str, seed: int, seconds: float, record: bool = False) -> tuple[dict, str]:
    """One ``run.py`` process: its JSON result and its fingerprint."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload]
    argv += ["--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    if record:
        argv.append("--ignore-fingerprint")
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    fp = re.search(r"fingerprint ([0-9a-f]+)", proc.stdout)
    return json.loads(proc.stdout.strip().splitlines()[-1]), fp.group(1) if fp else ""


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    recorded = json.loads((HERE / "fingerprints.json").read_text())
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        first, fp = run(workload, DEFAULT_SEED, args.seconds, args.record)
        runs = {f"seed {DEFAULT_SEED}": first}
        problems = []
        if args.record:
            runs[f"seed {DEFAULT_SEED} again"], fp_again = run(
                workload, DEFAULT_SEED, args.seconds, record=True
            )
            if not fp or fp != fp_again:
                problems.append(f"seed {DEFAULT_SEED} is not deterministic: {fp} != {fp_again}")
            recorded[workload] = {str(DEFAULT_SEED): fp}
        runs[f"held-out seed {HELD_OUT_SEED}"], _ = run(workload, HELD_OUT_SEED, args.seconds)
        problems += [
            f"{label} failed its output checks"
            for label, result in runs.items()
            if not result["correct"]
        ]
        print(f"{workload}: fingerprint {fp} (seed {DEFAULT_SEED})")
        for name, metric in first["metrics"].items():
            print(f"  {name:<16}{metric['value']:>14.6g} {metric['unit']}")
        for problem in problems:
            print(f"  FAILED: {problem}")
        ok = ok and not problems
    if args.record and ok:
        (HERE / "fingerprints.json").write_text(json.dumps(recorded, indent=2) + "\n")
    print("all output checks passed" if ok else "output checks FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
