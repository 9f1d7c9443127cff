"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 speedbench/spread.py --workloads map_verify dessin_export --seeds 1-10 --seconds 8

Runs ``run.py`` once per (workload, seed), one run at a time, and prints for
each metric the median of the runs and the spread (Q3 - Q1) / median by
``statistics.quantiles(values, n=4)``, next to a third of the metric's bound
from ``BENCHMARK.json``.  With ``--out FILE`` it also writes the runs, the
summary and the machine's description as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT))

from speedbench.meter import quartile_spread  # noqa: E402
from speedbench.run import machine_info  # noqa: E402


def parse_seeds(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--out")
    args = parser.parse_args()

    runs: dict[str, list[dict]] = {}
    summary: dict[str, dict] = {}
    ok = True
    for name in args.workloads:
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, timeout=900, check=False,
            )
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout + proc.stderr)
                return proc.returncode
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = ok and res["correct"]
            runs.setdefault(name, []).append({"seed": seed, **res})
            values = " ".join(
                f"{m}={mv['value']:.5g}" for m, mv in res["metrics"].items()
            )
            print(f"{name} seed {seed}: {values}", flush=True)
        summary[name] = {}
        for metric in runs[name][0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs[name]]
            spread = quartile_spread(values)
            summary[name][metric] = {"median": statistics.median(values), "spread": spread}
            note = ""
            if metric in bounds and metric != "setup_s" and spread > bounds[metric] / 3:
                note = "  > bound/3"
            print(
                f"  {name:14s} {metric:16s} median {statistics.median(values):12.6g}"
                f"  spread {spread:7.2%}  bound/3 {bounds.get(metric, 0) / 3:6.2%}{note}"
            )
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"machine": machine_info(), "seconds": args.seconds, "summary": summary, "runs": runs},
            indent=1,
        ) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
