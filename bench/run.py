"""obat benchmark: one seeded workload, measured end to end or traced by layer.

    python3 bench/run.py --workload construct-verify --seed 1 --seconds 30 --trace 0

Imports ``obat`` from ``src/`` next to this directory and drives it from
outside: ``obat.cli.main(argv)`` in-process on JSON files the benchmark
writes, and the library's oracles directly.  The loop is closed (one item at
a time, one thread) and runs until the items have kept the process busy for
``--seconds``.  Times are reported at a reference machine speed (see
speed.py).  Every completed item's verdict is checked against an
independent reference after the loop; a wrong verdict makes the run exit 1.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` wraps the public
functions of each module (see spans.py), prints per-layer calls and self
times, then replays the same items untraced to report the tracing overhead.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Spans and the full report go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import speed
from spans import LAYERS, Tracer
from workloads import WORKLOADS, WrongVerdict

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
# Set and dict iteration orders follow string hashing, and they change how
# much work a pipeline does: the same construct-verify item took 39-73 ms
# under six hash seeds.  Left random per process, that made p99 spread by
# 0.15 over runs of one seed, so every run uses this one.
HASH_SEED = "0"


def percentile(sorted_values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks."""
    if not sorted_values:
        return 0.0
    pos = q * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


@dataclass
class Loop:
    results: dict = field(default_factory=dict)  # item index -> checked output
    times: dict = field(default_factory=dict)  # item index -> seconds, failed items too
    failures: dict = field(default_factory=dict)  # item index -> exception text
    busy: float = 0.0  # seconds at reference speed
    raw_busy: float = 0.0  # seconds as measured
    calibrations: list = field(default_factory=list)  # speed.Speed samples
    wrong: str | None = None

    @property
    def attempted(self) -> int:
        return len(self.times)

    @property
    def latencies(self) -> list[float]:
        return [self.times[i] for i in self.results]


def run_loop(workload, seconds: float, max_items: int | None = None, tracer=None) -> Loop:
    """Closed loop until the items' raw busy time reaches ``seconds``.

    Item times are recorded at reference speed (see speed.py).  An item that
    raises counts as failed and the loop goes on; a wrong verdict stops the
    loop, since it fails the whole run.
    """
    loop = Loop()
    pace = speed.Speed()
    clock = time.perf_counter
    raw_busy = 0.0
    i = 0
    while raw_busy < seconds and (max_items is None or i < max_items):
        prepared = workload.prepare(i)
        if tracer is not None:
            tracer.start_item(i)
        start = clock()
        try:
            result = workload.run_item(prepared)
        except WrongVerdict as e:
            loop.wrong = f"item {i}: {e}"
            break
        except Exception as e:  # noqa: BLE001 - every raising item is counted, none hidden
            raw = clock() - start
            loop.failures[i] = f"{type(e).__name__}: {str(e)[:200]}"
        else:
            raw = clock() - start
            loop.results[i] = result
        raw_busy += raw
        loop.times[i] = pace.after_item(raw)
        loop.busy += loop.times[i]
        i += 1
    loop.raw_busy = raw_busy
    loop.calibrations = pace.samples
    return loop


def setup(cls, seed: int, base: Path, repeats: int):
    """Build the workload ``repeats`` times in fresh directories; keep the last."""
    times = []
    for k in range(repeats):
        if k:
            del workload
            shutil.rmtree(base / f"setup{k - 1}")
        pace = speed.Speed()
        start = time.perf_counter()
        workload = cls(seed, base / f"setup{k}")
        raw = time.perf_counter() - start
        pace.sample()
        times.append(raw * pace.scale())
    return workload, times


def machine() -> dict:
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def end_to_end(setup_times, loop: Loop) -> dict:
    ms = sorted(1e3 * x for x in loop.latencies)
    return {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "items_per_s": {"value": len(ms) / loop.busy if loop.busy else 0.0, "unit": "1/s"},
        "item_ms_p50": {"value": percentile(ms, 0.50), "unit": "ms"},
        "item_ms_p90": {"value": percentile(ms, 0.90), "unit": "ms"},
        "item_ms_p99": {"value": percentile(ms, 0.99), "unit": "ms"},
        "ok_share": {"value": len(ms) / loop.attempted if loop.attempted else 0.0, "unit": "ratio"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MB",
        },
    }


def per_layer(tracer, extras: dict, loop: Loop, replay: Loop) -> dict:
    out = {}
    for name, calls, self_s in zip(tracer.names, tracer.calls, tracer.self_s):
        out[f"{name}.calls"] = {"value": calls, "unit": "count"}
        out[f"{name}.self_s"] = {"value": self_s, "unit": "s"}
    layer_self = tracer.layer_self_s()
    for layer in LAYERS:
        out[f"{layer}.self_s"] = {"value": layer_self[layer], "unit": "s"}
        out[f"{layer}.failed"] = {"value": tracer.failed[layer], "unit": "count"}
    # self times are raw seconds, so compare them with the raw busy time
    out["bench.self_s"] = {"value": loop.raw_busy - sum(layer_self.values()), "unit": "s"}
    products = tracer.calls[tracer.names.index("tiles.product")]
    out["tiles.product.useful_ratio"] = {
        "value": tracer.new_monoid_elements / products if products else 0.0,
        "unit": "ratio",
    }
    for key in ("determinize.records_over_bound", "determinize.reached_over_S_R"):
        out[key] = {"value": extras.get(key, 0.0), "unit": "ratio"}
    key = "automata.recursion_errors_at_default_limit"
    out[key] = {"value": extras.get(key, 0), "unit": "count"}
    out["verify.words_checked"] = {"value": tracer.verify_queries, "unit": "count"}
    out["trace.spans"] = {"value": tracer.span_count, "unit": "count"}
    overhead = loop.busy - replay.busy
    out["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    out["trace.overhead_share"] = {"value": overhead / replay.busy if replay.busy else 0.0, "unit": "ratio"}
    return out


def item_summary(loop: Loop) -> dict:
    ms = sorted(1e3 * x for x in loop.latencies)
    p90, p99 = percentile(ms, 0.90), percentile(ms, 0.99)
    return {
        "attempted": loop.attempted,
        "completed": len(ms),
        "failed": len(loop.failures),
        "failed_share": len(loop.failures) / loop.attempted if loop.attempted else 0.0,
        "busy_s": loop.busy,
        "raw_busy_s": loop.raw_busy,
        "speed_scale_median": statistics.median(speed.REFERENCE_S / c for c in loop.calibrations),
        "beyond_p90": sum(1 for x in ms if x > p90),
        "beyond_p99": sum(1 for x in ms if x > p99),
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool, max_items: int | None = None) -> dict:
    """One benchmark run; the report's "result" is what the last line prints."""
    cls = WORKLOADS[workload_name]
    base = ROOT / ".bench_work" / f"{workload_name}-{os.getpid()}"
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    report = {"workload": workload_name, "why": cls.why, "seed": seed, "seconds": seconds}
    report["machine"] = machine()
    try:
        workload, setup_times = setup(cls, seed, base, 1 if trace else SETUP_REPEATS)
        report["setup_s"] = setup_times
        tracer = Tracer() if trace else None
        if tracer is not None:
            tracer.install()
        try:
            loop = run_loop(workload, seconds, max_items, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        wrong = loop.wrong
        if wrong is None:
            try:
                report["shape"] = workload.verify(loop.results)
            except WrongVerdict as e:
                wrong = str(e)
        report["shape_attempted"] = workload.attempted_shape(range(loop.attempted))
        if trace and wrong is None:
            extras = workload.layer_extras(loop.results)
            del workload  # its memo tables would slow the replay's garbage collection
            replay = run_loop(cls(seed, base / "replay"), math.inf, loop.attempted)
            metrics = per_layer(tracer, extras, loop, replay)
            spans_path = out_dir / f"spans-{workload_name}-seed{seed}.tsv.gz"
            tracer.write_spans(spans_path)
            report["spans_file"] = str(spans_path.relative_to(ROOT))
            report["replay"] = item_summary(replay)
        elif wrong is None:
            metrics = end_to_end(setup_times, loop)
        else:
            metrics = {}
            report["wrong_verdict"] = wrong
    finally:
        shutil.rmtree(base, ignore_errors=True)

    report["items"] = item_summary(loop)
    report["failures"] = dict(list(loop.failures.items())[:20])
    report["result"] = {
        "correct": wrong is None,
        "attempted": max(loop.attempted, 1),
        "failed": len(loop.failures),
        "metrics": metrics,
    }
    name = f"report-{workload_name}-seed{seed}-trace{int(trace)}.json"
    (out_dir / name).write_text(json.dumps(report, indent=1, default=str))
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "obat" / "__init__.py").is_file():
        print(f"error: no obat sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    items = report["items"]
    print(f"workload {report['workload']}: {report['why']}")
    print(f"seed {args.seed}; machine {json.dumps(report['machine'])}")
    print(
        f"items attempted {items['attempted']}, completed {items['completed']}, failed {items['failed']} "
        f"(failed_share {items['failed_share']:.4f}); beyond p90 {items['beyond_p90']}, "
        f"beyond p99 {items['beyond_p99']}; setup runs {report.get('setup_s')}"
    )
    print("attempted " + json.dumps(report.get("shape_attempted")))
    shape = {k: v for k, v in report.get("shape", {}).items() if k != "per_element"}
    print("checked " + json.dumps(shape))
    if "replay" in report:
        print(f"untraced replay of the same items: {json.dumps(report['replay'])}")
    if "wrong_verdict" in report:
        print(f"WRONG VERDICT: {report['wrong_verdict']}")
    for key, m in report["result"]["metrics"].items():
        print(f"{key} {m['value']} {m['unit']}")
    print(json.dumps(report["result"]))
    return 0 if report["result"]["correct"] else 1


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    sys.exit(main())
