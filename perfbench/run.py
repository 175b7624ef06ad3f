"""diagcoag benchmark: one workload, timed or traced, with output checks.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload sweep15 --seed 1 --seconds 20 --trace 0

Runs in one process against ``src/`` of the checkout (nothing to build);
only the set-up timing starts fresh interpreters, one after another.
``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs each
pass twice, untraced and traced in alternating order, and reports the
per-layer metrics plus the tracing overhead (traced minus untraced item
time).  Every item's outputs are checked in both modes.  The last line of
standard output is the JSON result; the lines before it are a readable
report.  The result, with the machine and environment, and the spans are
also written under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import numpy

import inputs
import layers
import spans
import speed
import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

# Set-up is timed in at least SETUP_REPS fresh interpreters, and in more
# (up to SETUP_MAX_REPS) while their total is under SETUP_MIN_S: a short
# set-up is dominated by import noise and needs more repetitions.
SETUP_REPS = 5
SETUP_MAX_REPS = 15
SETUP_MIN_S = 2.0
# A timed run goes on past --seconds, in whole passes, until p90 has ten
# samples beyond it, but not past this multiple of --seconds.
MAX_STRETCH = 3.0

# Fresh interpreter: import diagcoag, then the workload's untimed preparation.
SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
root, workload, work_dir = sys.argv[1:4]
sys.path[:0] = [root + "/src", root + "/perfbench"]
import diagcoag, workloads
workloads.prepare(workload, work_dir)
print(time.perf_counter() - t0)
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Run:
    """Items of one measured stretch, in the order they ran.

    ``durations`` are wall times; ``speed`` holds, per item, the factor that
    takes its duration to the reference machine speed (see speed.py).
    """

    def __init__(self):
        self.passes = 0
        self.outcomes = []
        self.durations = []
        self.speed = []

    @property
    def wall(self) -> float:
        return sum(self.durations)

    def scaled_durations(self) -> list[float]:
        """Item times at the reference machine speed."""
        return [d * s for d, s in zip(self.durations, self.speed)]

    def run_pass(self, run_item, p_idx: int, batch, tracer=None) -> None:
        calib = speed.kernel_seconds()
        for k, item in enumerate(batch):
            t0 = time.perf_counter()
            if tracer is None:
                out = run_item(item)
            else:
                root = len(tracer.spans)
                with tracer.item("item", f"{p_idx}.{k}:{item.key}"):
                    out = run_item(item)
            self.durations.append(time.perf_counter() - t0)
            if tracer is not None:
                attach_error(tracer, root, out)
            after = speed.kernel_seconds()
            self.speed.append(speed.scale(calib, after))
            calib = after
            self.outcomes.append(out)
        self.passes += 1


def timed_run(run_item, batches, seconds: float, min_items: int) -> Run:
    run = Run()
    for p_idx, batch in enumerate(batches):
        run.run_pass(run_item, p_idx, batch)
        if run.wall >= seconds and (
            len(run.outcomes) >= min_items or run.wall >= MAX_STRETCH * seconds
        ):
            return run


def traced_run(run_item, batches, seconds: float, tracer, points) -> tuple[Run, Run]:
    """Each pass untraced and traced, alternating which goes first."""
    plain, traced = Run(), Run()
    for p_idx, batch in enumerate(batches):
        for run in (plain, traced) if p_idx % 2 == 0 else (traced, plain):
            if run is plain:
                run.run_pass(run_item, p_idx, batch)
            else:
                with spans.installed(tracer, points):
                    run.run_pass(run_item, p_idx, batch, tracer)
        if plain.wall + traced.wall >= seconds:
            return plain, traced


def attach_error(tracer, root: int, out) -> None:
    """Exception class of a failed item, from the first failed span under it."""
    if out.failed is None or out.error_class is not None:
        return
    for span in tracer.spans[root + 1:]:
        if span.parent == root and span.error is not None:
            out.error_class, out.error_typed = span.error, span.error_typed
            return


def setup_seconds(workload: str) -> float:
    """Median over fresh interpreters of import plus preparation.

    Each child's time is scaled to the reference speed by calibrations run
    just before and after it.
    """
    times = []
    while len(times) < SETUP_REPS or (sum(times) < SETUP_MIN_S and len(times) < SETUP_MAX_REPS):
        work = OUT_DIR / f"setup-{os.getpid()}-{len(times)}"
        calib = speed.kernel_seconds()
        try:
            done = subprocess.run(
                [sys.executable, "-c", SETUP_CHILD, str(ROOT), workload, str(work)],
                capture_output=True, text=True, timeout=120, check=True,
            )
        finally:
            shutil.rmtree(work, ignore_errors=True)
        scale = speed.scale(calib, speed.kernel_seconds())
        times.append(float(done.stdout.split()[-1]) * scale)
    return statistics.median(times)


def environment() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        commit = done.stdout.strip() or None
    # Identifies the measured sources where the checkout has no git metadata.
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "platform": platform.platform(),
    }


def end_to_end_metrics(run: Run, setup_s: float) -> dict:
    n = len(run.outcomes)
    failed = sum(out.failed is not None for out in run.outcomes)
    scaled = run.scaled_durations()
    ms = [d * 1e3 for d in scaled]
    return {
        "setup_s": (setup_s, "s"),
        "items_per_s": (n / sum(scaled), "1/s"),
        "item_p50_ms": (stats.percentile(ms, 50.0), "ms"),
        "item_p90_ms": (stats.percentile(ms, 90.0), "ms"),
        "ok_ratio": ((n - failed) / n, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def failure_summary(outcomes) -> list[dict]:
    """Failed items grouped by item and reason, with the exception class if seen."""
    groups: dict = {}
    for out in outcomes:
        if out.failed is None:
            continue
        g = groups.setdefault(
            (out.item, out.failed),
            {"item": out.item, "reason": out.failed, "error_class": None,
             "known_defect": out.expected, "count": 0},
        )
        g["count"] += 1
        g["error_class"] = g["error_class"] or out.error_class
    return [groups[k] for k in sorted(groups)]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "diagcoag" / "__init__.py").is_file():
        print(f"perfbench: no diagcoag sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import diagcoag

    if Path(diagcoag.__file__).resolve().parent != SRC / "diagcoag":
        print(f"perfbench: imported diagcoag from {diagcoag.__file__}", file=sys.stderr)
        return 2
    from diagcoag.errors import DiagcoagError

    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = OUT_DIR / f"work-{os.getpid()}"
    ranking = spans_file = None
    try:
        run_item = partial(workloads.run_item, workloads.prepare(args.workload, work_dir))
        batches = inputs.passes(args.workload, args.seed)
        if args.trace:
            tracer = spans.Tracer(typed_error=DiagcoagError)
            plain, traced = traced_run(
                run_item, batches, args.seconds, tracer, workloads.TRACE_POINTS
            )
            runs = [plain, traced]
            overhead_s = sum(traced.scaled_durations()) - sum(plain.scaled_durations())
            metrics = layers.per_layer_metrics(
                tracer, traced.outcomes, traced.passes, overhead_s
            )
            ranking = {
                name: ms / len(traced.outcomes)
                for name, ms in layers.self_ms_by_name(tracer).most_common()
            }
            spans_file = OUT_DIR / f"spans-{tag}.jsonl"
            tracer.write_jsonl(spans_file)
        else:
            run = timed_run(run_item, batches, args.seconds, stats.min_samples(90.0))
            runs = [run]
            metrics = end_to_end_metrics(run, setup_seconds(args.workload))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    outcomes = [out for run in runs for out in run.outcomes]
    failures = failure_summary(outcomes)
    n_items = len(runs[0].outcomes)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": n_items,
        "passes": runs[0].passes,
        "wall_s": runs[0].wall,
        "unscaled_items_per_s": n_items / runs[0].wall,
        "speed_median": statistics.median(runs[0].speed),
        "tail_percentile": stats.tail_percentile(n_items),
        "environment": environment(),
        "failures": failures,
        "self_ms_per_item": ranking,
        "spans_file": spans_file and str(spans_file.relative_to(ROOT)),
    }
    result = {
        "correct": all(out.correct for out in outcomes),
        "attempted": len(outcomes),
        "failed": sum(f["count"] for f in failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    (OUT_DIR / f"result-{tag}.json").write_text(
        json.dumps({"summary": summary, "result": result}, indent=2) + "\n"
    )
    print_report(summary, metrics)
    print(json.dumps(result))
    return 0


def print_report(summary: dict, metrics: dict) -> None:
    s = summary
    mode = "untraced half of a traced run" if s["trace"] else "timed run"
    print(
        f"workload {s['workload']} seed {s['seed']}, {mode}: "
        f"{s['samples']} items in {s['passes']} passes, {s['wall_s']:.2f} s; "
        f"highest percentile with >= 10 samples beyond it: p{s['tail_percentile']}"
    )
    print(
        f"unscaled {s['unscaled_items_per_s']:.4g} items/s; median speed scale "
        f"{s['speed_median']:.4f}"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.6g} {unit}")
    if s["self_ms_per_item"]:
        print("self time per item, largest first ('item' is benchmark code plus untraced calls):")
        for name, ms in s["self_ms_per_item"].items():
            print(f"  {name:42s} {ms:14.6g} ms")
    for f in s["failures"]:
        kind = "known defect" if f["known_defect"] else "UNEXPECTED"
        print(f"  failed x{f['count']} [{kind}] {f['item']}: {f['error_class'] or ''} {f['reason']}")
    print("environment " + json.dumps(s["environment"]))


if __name__ == "__main__":
    sys.exit(main())
