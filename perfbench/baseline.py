"""Run every workload on several seeds and summarise the spread across seeds.

    python3 perfbench/baseline.py --seeds 1-10 --trace-seed 1 --out perfbench/baseline.json

Each seed is one ``run.py`` invocation (a fresh set-up and timed phase), as
a comparison between two commits makes them. Per end-to-end metric the
summary holds every seed's value, their median and quartiles, and the spread
(quartile distance over median) that BENCHMARK.json's bounds must exceed;
the wall times and the probe's time are summarised the same way.
Workloads and run length default to those in BENCHMARK.json.
``--trace-seed`` adds one traced run per workload for the per-layer table.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import BENCH, ROOT, WORK, WORKLOADS, quartiles

# The workloads and run length the benchmark is defined with.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    out = WORK / f"baseline-{workload}-{seed}-{int(trace)}.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace)), "--out", str(out)],
        stdout=subprocess.DEVNULL,
    )
    result = json.loads(out.read_text("utf-8"))[0]
    print(f"{workload} seed={seed} trace={int(trace)} exit={proc.returncode} "
          f"attempted={result['attempted']} failed={result['failed']}", flush=True)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--workloads", nargs="+", choices=list(WORKLOADS),
                        default=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    WORK.mkdir(exist_ok=True)

    summary: dict = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    failed = 0
    for workload in args.workloads:
        runs = [run_once(workload, s, args.seconds, False) for s in args.seeds]
        failed += sum(r["failed"] for r in runs)
        entry: dict = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "digests": {str(r["seed"]): r["digests"] for r in runs},
            "end_to_end": {},
        }
        reported = [{**r["metrics"], **r["extra"]} for r in runs]
        for name in reported[0]:
            values = [m[name]["value"] for m in reported if name in m]
            q1, median, q3 = quartiles(values)
            entry["end_to_end"][name] = {
                "unit": reported[0][name]["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median if median else 0.0, "values": values,
            }
            print(f"{workload:13} {name:18} median {median:12.6g} "
                  f"spread {entry['end_to_end'][name]['spread']:.4f}", flush=True)
        if args.trace_seed is not None:
            traced = run_once(workload, args.trace_seed, args.seconds, True)
            failed += traced["failed"]
            entry["per_layer"] = {"seed": args.trace_seed, **{
                k: m["value"] for k, m in traced["metrics"].items()}}
        summary["workloads"][workload] = entry
    args.out.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
