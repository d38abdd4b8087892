"""The surrband benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload nested-256 --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36   # every workload

Drives ``surrband.cli.main(["simulate", ...])`` in-process, as a user would,
on the workloads of ``workloads.py``, with the package imported from
``src/``.  Every report is checked for correctness.  Human-readable lines
(run metadata, every metric with its unit and sample count) come first; the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``, all
timed without tracing:

* ``reps_per_s`` / ``reps_per_s_t2``: replications of one simulate call at
  ``--threads 1`` / ``--threads 2`` (caches warm) over the 90th percentile
  of its wall time across calls;
* ``band_us_p90``: 90th percentile of the latency of one library band call
  on fresh data;
* ``setup_s`` / ``import_s``: 90th percentiles over fresh interpreters
  (``probe.py``) of a one-replication simulate call with empty caches, and
  of ``import surrband``;
* ``peak_rss_mb``: median over the same interpreters of their peak resident
  set, which so excludes the benchmark's own data.

Why the 90th percentile and not the median: the shared host this benchmark
was built on runs the same code in two speed states (a band call at n=256
takes ~70 or ~120 us), flipping every few seconds, while the share of time
in the fast state changes over minutes.  Medians follow that share.  In one
set of ten seeds on bonferroni-64 the spread (interquartile range over
median) of the median band latency was 44%, of the median set-up and import
times 26%, while the 90th percentiles of band latency and call time spread
6% and 9-10%.  The slow state holds at least a tenth of every run, so the
slow tenth of the samples is steady.  The band latency's p50 and p99 are
printed beside p90 but not reported (p95/p99 spread 23-31% over six seeds
on scaleup-4096).

``--trace 1`` reports the per-layer metrics from traced simulate calls
(``tracing.py``) and ``trace_overhead_frac``, the traced wall time against
untraced calls made after every wrapper is removed.  Counts must repeat
exactly between traced calls.

Exits with code 2, printing no result, when the package sources are missing.
"""

from __future__ import annotations

import os

# One BLAS thread: with two shared cores, the load of a run then stays within
# the package's own threads (at most --threads 2), and BLAS calls do not
# stall on a core another process holds.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import itertools
import json
import math
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

import tracing
from workloads import WORKLOADS, BandCase, Workload, check_report, make_config

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROBE = Path(__file__).resolve().parent / "probe.py"

MIN_ROUNDS = 5        # rounds of (t1 call, t2 call, set-up probe, latency batch)
LATENCY_SHARE = 0.6   # latency batch time per round, relative to the two calls
BATCH = 100           # band calls per round at least
# gaussian_draw(0, 0, 4) of draw stream v1 (Philox + bisection quantile).
V1_DRAW = (-2.2718841483245935, -0.7013279206286982, -1.218980191079758, 0.16217155791645005)


def load_package():
    """Import ``surrband`` from ``src/`` of this checkout, or exit with 2."""
    if not (SRC / "surrband" / "__init__.py").is_file():
        print(f"error: no package sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import surrband

    if Path(surrband.__file__).resolve().parent != SRC / "surrband":
        print(f"error: imported surrband from {surrband.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return surrband


def metadata(w: Workload, seed: int, reps: int, args) -> dict:
    import scipy
    import surrband
    from surrband.simulate import gaussian_draw

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    draw = "v1" if tuple(float(v) for v in gaussian_draw(0, 0, 4)) == V1_DRAW else "not-v1"
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "surrband": surrband.__version__,
        "draw_stream": draw,
        "workload": w.name,
        "seed": seed,
        "reps": reps,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Bench:
    """State of one benchmark run: the work directory and the failure tally."""

    def __init__(self, w: Workload, seed: int, reps: int, work: Path):
        from surrband import cli

        self.cli = cli
        self.w = w
        self.cfg = make_config(w, seed, reps)
        self.reps = reps
        self.work = work
        self.config = work / "config.json"
        self.config.write_text(json.dumps(self.cfg))
        self.reference: bytes | None = None
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"FAIL {what}: {p}", file=sys.stderr)
        return not problems

    def simulate(self, threads: int, tracer: tracing.Tracer | None = None):
        """One checked simulate call; returns its wall time in seconds or None."""
        out = self.work / f"report-{threads}.json"
        argv = ["simulate", "--config", str(self.config), "--out", str(out), "--threads", str(threads)]
        what = f"simulate --threads {threads}" + (" (traced)" if tracer else "")
        try:
            if tracer is None:
                tracing.assert_clean()
                t0 = time.perf_counter_ns()
                rc = self.cli.main(argv)
            else:
                t0 = time.perf_counter_ns()
                rc, _ = tracer.span("cli.main", self.cli.main, argv)
            wall = (time.perf_counter_ns() - t0) * 1e-9
            text = out.read_bytes()
        except Exception:
            self.record(what, [traceback.format_exc()])
            return None
        if rc != 0:
            self.record(what, [f"exit code {rc}"])
            return None
        problems = check_report(self.w, self.cfg, text)
        if self.reference is None:
            self.reference = text
        elif text != self.reference:
            problems.append("report differs byte-wise from the first report of this run")
        return wall if self.record(what, problems) else None

    def probe(self) -> dict | None:
        """Set-up and import time of one fresh interpreter."""
        cfg = dict(self.cfg, reps=1)
        config, out = self.work / "probe.json", self.work / "probe-report.json"
        config.write_text(json.dumps(cfg))
        try:
            proc = subprocess.run(
                [sys.executable, str(PROBE), str(SRC), str(config), str(out)],
                capture_output=True, text=True, timeout=150, cwd=ROOT,
            )
        except subprocess.TimeoutExpired as exc:
            self.record("set-up probe", [repr(exc)])
            return None
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            report = json.loads(out.read_bytes())
        except (OSError, ValueError, IndexError) as exc:
            self.record("set-up probe", [f"{exc!r}; stderr: {proc.stderr}"])
            return None
        problems = [] if result["rc"] == 0 else [f"exit code {result['rc']}"]
        if report.get("reps") != 1 or report.get("config") != cfg:
            problems.append("probe report does not match its config")
        return result if self.record("set-up probe", problems) else None


def latency_batch(bench: Bench, case: BandCase, data, seconds: float, least: int) -> list[int]:
    """Band-call latencies in ns, for ``seconds`` and at least ``least`` calls."""
    samples: list[int] = []
    calls = 0
    deadline = time.perf_counter() + seconds
    while calls < least or time.perf_counter() < deadline:
        calls += 1
        y = next(data)
        try:
            t0 = time.perf_counter_ns()
            band = case.call(y)
            dt = time.perf_counter_ns() - t0
            problem = case.check(y, band)
        except Exception:
            problem = traceback.format_exc()
        if bench.record("band call", [problem] if problem else []):
            samples.append(dt)
    return samples


def end_to_end(bench: Bench, seed: int, seconds: float, smoke: bool) -> tuple[dict, dict]:
    """Untraced timings; returns (metrics, sample counts).

    Each round makes one simulate call per thread count (alternating which
    goes first), one set-up probe and a batch of band calls, so slow drift of
    the machine's speed reaches every metric alike.
    """
    case = BandCase(bench.w, seed)
    data = itertools.cycle(case.data)
    bench.simulate(1)  # warm caches and imports; its report is the reference
    latency_batch(bench, case, data, 0.0, 8)

    walls = {1: [], 2: []}
    probes: list[dict] = []
    samples: list[int] = []
    rounds = 0
    start = time.perf_counter()
    while rounds < (1 if smoke else MIN_ROUNDS) or time.perf_counter() - start < seconds:
        t_pair = time.perf_counter()
        for threads in ((1, 2) if rounds % 2 == 0 else (2, 1)):
            wall = bench.simulate(threads)
            if wall is not None:
                walls[threads].append(wall)
        t_pair = time.perf_counter() - t_pair
        probe = bench.probe()
        if probe:
            probes.append(probe)
        samples += latency_batch(bench, case, data, LATENCY_SHARE * t_pair, 10 if smoke else BATCH)
        rounds += 1

    def pct(values, q=90):
        return float(np.percentile(values, q)) if values else math.nan

    lat_us = [t * 1e-3 for t in samples]
    metrics = {
        "reps_per_s": bench.reps / pct(walls[1]),
        "reps_per_s_t2": bench.reps / pct(walls[2]),
        "band_us_p90": pct(lat_us),
        "setup_s": pct([p["setup_s"] for p in probes]),
        "import_s": pct([p["import_s"] for p in probes]),
        "peak_rss_mb": pct([p["peak_rss_mb"] for p in probes], 50),
    }
    n = {
        "reps_per_s": len(walls[1]), "reps_per_s_t2": len(walls[2]),
        "band_us_p90": f"{len(samples)}; p50 {pct(lat_us, 50):.6g} us, p99 {pct(lat_us, 99):.6g} us",
        "setup_s": len(probes), "import_s": len(probes), "peak_rss_mb": len(probes),
    }
    return metrics, n


def traced(bench: Bench, seconds: float, smoke: bool) -> tuple[dict, dict]:
    """Per-layer metrics from traced calls, plus the tracing overhead."""
    tracing.clear_caches()
    bench.simulate(1)  # reference report, untraced
    summaries, walls, plain = [], [], []
    first_counts = None
    start = time.perf_counter()
    while len(summaries) < 2 or (not smoke and time.perf_counter() - start < seconds):
        tracing.clear_caches()
        with tracing.Tracer() as tracer:
            wall = bench.simulate(1, tracer)
        if wall is None:
            break
        timings, counts = tracing.summarize(tracer.spans, bench.reps, int(wall * 1e9))
        if first_counts is None:
            first_counts = counts
        bench.record("traced counts repeat", [
            f"{k}: {counts[k]} != {first_counts[k]}" for k in counts if counts[k] != first_counts[k]
        ])
        summaries.append(timings)
        walls.append(wall)
        tracing.clear_caches()
        wall = bench.simulate(1)
        if wall is not None:
            plain.append(wall)
    if not summaries or not plain:
        return {}, {}
    metrics = {k: statistics.median(s[k] for s in summaries) for k in summaries[0]}
    metrics.update(first_counts)
    metrics["trace_overhead_frac"] = statistics.median(walls) / statistics.median(plain) - 1.0
    return metrics, {k: len(summaries) for k in metrics}


def run_workload(w: Workload, args, wanted: list, smoke: bool) -> tuple[Bench, dict]:
    """Measure one workload, print its lines and return ``(bench, metrics)``."""
    reps = w.smoke_reps if smoke else w.reps
    print("# meta " + json.dumps(metadata(w, args.seed, reps, args), sort_keys=True))
    work = Path(tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT))
    try:
        bench = Bench(w, args.seed, reps, work)
        if args.trace:
            values, counts = traced(bench, args.seconds, smoke)
        else:
            values, counts = end_to_end(bench, args.seed, args.seconds, smoke)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {}
    for m in wanted:
        if not math.isfinite(values.get(m["name"], math.nan)):
            bench.record("metric " + m["name"], ["not measured"])
            continue
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:40s} {values[m['name']]:.6g} {m['unit']}  (n={counts[m['name']]})")
    failed_frac = bench.failed / max(bench.attempted, 1)
    print(f"{'failed_frac':40s} {failed_frac:.6g} ratio  (n={bench.attempted})")
    return bench, metrics


def main(argv=None, smoke: bool = False) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
        help="one workload, or all of them in turn (metrics named <workload>.<metric>)",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Turn a SIGTERM into SystemExit, so that the work directory is removed
    # and a running probe is killed and waited for on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    load_package()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        bench, values = run_workload(WORKLOADS[name], args, wanted, smoke)
        attempted += bench.attempted
        failed += bench.failed
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in values.items()})
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
