"""Speed benchmark for belyi, timed in reference seconds.

    python3 speedbench/run.py --workload catalog_build --seed 1 --seconds 12 --trace 0
    python3 speedbench/run.py --workload all --seed 1 --seconds 12 --trace 0

Run from the root of a checkout; ``belyi`` is imported from its ``src``.
One process with one thread does everything:

1. Set-up, repeated ``setup_reps`` times: import ``belyi`` afresh and build
   the workload's inputs from ``--seed``.  ``setup_s`` is the median.
   Then the garbage collector is frozen.
2. ``--trace 0``: passes over the workload's fixed operation sequence until
   ``--seconds`` have gone by (at least one).  Every operation is timed and
   scaled by the interleaved reference kernel (see ``refkernel``).
   ``--trace 1``: one untraced and one traced pass; the traced one gives
   the per-layer metrics and writes its spans to ``.speedbench_out/``.
3. Every operation's output is checked; ``failed`` counts those that fail.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it print each
metric by name and unit, scaled beside raw wall figures and the kernel's own
time.  ``--workload all`` runs every workload in turn, each in its own
process, and prints every end-to-end metric as a table.
"""

from __future__ import annotations

import argparse
import ast
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from speedbench import refkernel  # noqa: E402
from speedbench.meter import RefMeter, percentile, quartile_spread, time_calls  # noqa: E402
from speedbench.tracer import PER_LAYER, Tracer, aggregate, layer_metrics  # noqa: E402
from speedbench.workloads import WORKLOADS, load_belyi  # noqa: E402

# end-to-end metrics: (name, unit, better)
END_TO_END = (
    ("records_per_s", "rec/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p90_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}


def kernel_imports() -> set[str]:
    """Top-level modules the reference kernel imports."""
    tree = ast.parse(Path(refkernel.__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add((node.module or "").split(".")[0])
    return names


def machine_info() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu": cpu,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def report_failures(checked) -> None:
    for msg in checked.messages[:5]:
        print(f"  FAIL {msg}")
    if len(checked.messages) > 5:
        print(f"  ... {len(checked.messages) - 5} more failures")


def fmt(x: float) -> str:
    return f"{x:.6g}"


def one_pass(wl, B, inputs):
    """One timed pass: its timing and its outputs."""
    meter = RefMeter()
    outputs = wl.run(B, inputs, meter)
    return meter.finish(), outputs


def measure(wl, B, inputs, seconds: float):
    """Passes until ``seconds`` have gone by; end-to-end metrics, scaled and raw."""
    timings, checks = [], []
    deadline = time.perf_counter() + seconds
    while True:
        timing, outputs = one_pass(wl, B, inputs)
        timings.append(timing)
        checks.append(wl.check(B, inputs, outputs))
        if time.perf_counter() >= deadline:
            break
    figures = {}
    for kind, sample_s in (("scaled", "scaled_s"), ("raw", "raw_s")):
        per_pass = [t.units / getattr(t, sample_s) for t in timings]
        lat = [getattr(s, sample_s) for t in timings for s in t.samples if s.units]
        figures[kind] = {
            "records_per_s": statistics.median(per_pass),
            "latency_p50_ms": percentile(lat, 50) * 1e3,
            "latency_p90_ms": percentile(lat, 90) * 1e3,
        }
    print(
        f"{wl.name}: {len(timings)} pass(es) of {timings[0].units} units,"
        f" {len(timings) * timings[0].units} latency samples"
    )
    if len(timings) > 1:
        print(
            "  self-check: pass spread raw"
            f" {quartile_spread([t.units / t.raw_s for t in timings]):.1%},"
            f" scaled {quartile_spread([t.units / t.scaled_s for t in timings]):.1%}"
        )
    return timings, checks, figures


def trace_layers(wl, B, inputs):
    """One untraced and one traced pass; per-layer metrics from the second."""
    plain, outputs = one_pass(wl, B, inputs)
    checks = [wl.check(B, inputs, outputs)]
    tracer = Tracer()
    with tracer:
        traced, outputs = one_pass(wl, B, inputs)
    checks.append(wl.check(B, inputs, outputs))
    stats = aggregate(tracer.spans)
    metrics = layer_metrics(
        stats,
        tracer.counters,
        units=traced.units,
        catalog_bytes=wl.catalog_bytes(inputs, outputs),
        scale=traced.scale,
        overhead_ratio=(traced.units / traced.scaled_s) / (plain.units / plain.scaled_s),
    )
    out_dir = ROOT / ".speedbench_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{wl.name}.tsv"
    tracer.write_spans(spans_path)
    print(f"{wl.name}: traced pass of {traced.units} units, {len(tracer.spans)} spans -> {spans_path}")
    print(f"  {'span':40s} {'calls':>8s} {'total_ms':>10s} {'self_ms':>10s}  (reference ms)")
    for span, st in sorted(stats.items(), key=lambda kv: -kv[1].self_ns):
        print(
            f"  {span:40s} {st.calls:8d} {st.total_ns * traced.scale / 1e6:10.1f}"
            f" {st.self_ns * traced.scale / 1e6:10.1f}"
        )
    return [plain, traced], checks, metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name]()
    tmp_root = ROOT / ".speedbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        def setup(meter):
            B = load_belyi()
            return B, wl.build(B, seed, workdir, meter)

        setup_scaled, setup_raw, (B, inputs) = time_calls(setup, wl.setup_reps)
        gc.collect()
        gc.freeze()
        if trace:
            timings, checks, metrics = trace_layers(wl, B, inputs)
        else:
            timings, checks, figures = measure(wl, B, inputs, seconds)
            metrics = {
                **figures["scaled"],
                "setup_s": statistics.median(setup_scaled),
                "peak_rss_mb": peak_rss_mb(),
            }
            raw = {**figures["raw"], "setup_s": statistics.median(setup_raw)}
            print(f"  {'metric':16s} {'scaled':>12s} {'raw wall':>12s}  unit")
            for metric, value in metrics.items():
                print(
                    f"  {metric:16s} {fmt(value):>12s}"
                    f" {fmt(raw[metric]) if metric in raw else '-':>12s}  {UNITS[metric]}"
                )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    kernel = [k for t in timings for k in t.kernel_s]
    k_spread = quartile_spread(kernel)
    s_raw, s_scaled = quartile_spread(setup_raw), quartile_spread(setup_scaled)
    print(
        f"  reference kernel: median {statistics.median(kernel) * 1e3:.3f} ms"
        f" (nominal {refkernel.NOMINAL_S * 1e3:.3f} ms), {len(kernel)} runs"
    )
    print(
        f"  self-check: kernel spread {k_spread:.1%}; {wl.setup_reps} set-ups,"
        f" spread raw {s_raw:.1%}, scaled {s_scaled:.1%}:"
        f" scaling {'steadied' if s_scaled <= s_raw else 'did not steady'} set-up"
    )

    attempted = sum(c.attempted for c in checks)
    failed = min(attempted, sum(c.failed for c in checks))
    print(f"  fail_ratio {failed}/{attempted} = {failed / max(attempted, 1):.6g}")
    for c in checks:
        report_failures(c)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": UNITS[m]} for m, v in metrics.items()},
    }


def run_all(args) -> int:
    """Every workload in its own process, one after another; one table."""
    rows = []
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, check=False,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        rows.append((name, json.loads(proc.stdout.strip().splitlines()[-1])))
    print()
    print(f"{'workload':14s} {'metric':40s} {'value':>14s}  unit")
    for name, res in rows:
        for metric, mv in res["metrics"].items():
            print(f"{name:14s} {metric:40s} {fmt(mv['value']):>14s}  {mv['unit']}")
        print(f"{name:14s} {'fail_ratio':40s} {fmt(res['failed'] / res['attempted']):>14s}  ratio")
    return 0 if all(res["correct"] for _, res in rows) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "belyi" / "__init__.py").is_file():
        print(f"speedbench: no belyi sources under {src}", file=sys.stderr)
        return 2
    if "belyi" in kernel_imports():
        print("speedbench: the reference kernel imports belyi", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(src))

    info = machine_info()
    print("machine: " + ", ".join(f"{k} {v}" for k, v in info.items()))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
