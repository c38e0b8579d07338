#!/usr/bin/env python3
"""Run every workload untraced and traced; print every metric with its unit.

    python3 perfbench/report.py --seed 1 --seconds 25

Each (workload, trace) pair is one fresh ``run.py`` process, run one after
another.  Output checks run inside run.py; any failed check or job is
printed and makes this command exit with status 1.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    args = parser.parse_args()
    ok = True
    table: dict[str, dict[str, str]] = {}
    units: dict[str, str] = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=HERE.parent, capture_output=True, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            for line in lines[:-1]:
                if line.startswith(("CHECK FAILED", "details")):
                    print(f"[{workload} trace={trace}] {line}")
            if proc.returncode != 0 or not lines:
                print(f"[{workload} trace={trace}] exit {proc.returncode}: {proc.stderr.strip()}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok &= result["correct"] and result["failed"] == 0
            print(f"[{workload} trace={trace}] correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for name, metric in result["metrics"].items():
                units[name] = metric["unit"]
                table.setdefault(name, {})[workload] = f"{metric['value']:.6g}"
    width = max(len(name) for name in table) if table else 10
    print(f"\n{'metric':{width}}  {'unit':12}" + "".join(f"{w:>14}" for w in WORKLOADS))
    for name, row in table.items():
        print(f"{name:{width}}  {units[name]:12}"
              + "".join(f"{row.get(w, '-'):>14}" for w in WORKLOADS))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
