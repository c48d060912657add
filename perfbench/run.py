"""Benchmark of the radfact command line, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload census --seed 0 --seconds 12 --trace 0

Workloads are lists of CLI jobs (see `workloads.py` and BENCHMARK.json).
One benchmark process acts as a single closed-loop client with no threads: it
calls the public `radfact.cli.main(argv)` in-process with `--input FILE`
and captures the report in memory.  A run measures whole passes over the
seeded job list, at least one and more while they fit in `--seconds`.

`--trace 0` reports the end-to-end metrics:
  setup_s      median spawn-to-exit of fresh `python -c "import radfact.cli"`
  cold_job_s   median spawn-to-exit of fresh `python -m radfact.cli` on the
               workload's probe job (catches first-use work such as the
               quadring prime sieve, which the in-process loop warms away)
  jobs_per_s   jobs completed per second of in-process job time
  job_p50_ms   median in-process job latency
  job_p95_ms   95th-percentile job latency
  peak_rss_mb  peak resident memory of the benchmark process

Times are reported at a fixed nominal machine speed (`speed.py`), because
the shared machine's speed drifts far more than the bounds: each in-process
job against a reference kernel timed between jobs, each fresh-process probe
against a fresh `python -c "import numpy"` timed just before and after it.
The result record in `perfbench/out/` keeps the unscaled values next to them.

`--trace 1` repeats one pass untraced, then one pass with spans recorded
around radfact's public functions (`spans.py`), and reports per-layer calls,
self times, work counters and the tracing overhead.

Every job is checked against the answer the generator knows, and, where a
digest was recorded at the default seed (`digests.json`), against the exact
report bytes.  A failed check counts in `failed`; `failed / attempted` is
the failed ratio printed in the summary table.  The last line of standard
output is the JSON result; a fuller record with provenance is written to
`perfbench/out/`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import glob
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from time import perf_counter

import probes
import spans
import speed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
DIGESTS = os.path.join(HERE, "digests.json")
DEFAULT_SEED = 0
COLD_REPEATS = 10
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
SPEED_INTERVAL_S = 0.2


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Runner:
    """Runs one job in-process through `radfact.cli.main` and checks it."""

    def __init__(self, cli, input_path, digests):
        self.cli = cli
        self.input_path = input_path
        self.digests = digests

    def run(self, job):
        """Returns (seconds, passed, report text)."""
        with open(self.input_path, "w") as fh:
            fh.write(job.payload)
        argv = ["--input", self.input_path, job.command]
        buf = io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = self.cli.main(argv)
        except SystemExit as exc:          # argparse rejected the arguments
            code = exc.code
        except Exception:                  # a traceback is a failed job, not a crash
            traceback.print_exc()
            code = 1
        seconds = perf_counter() - t0
        text = buf.getvalue()
        return seconds, self.verify(job, code, text), text

    def verify(self, job, code, text) -> bool:
        if code != 0:
            return False
        try:
            if not job.check(json.loads(text)):
                return False
        except (ValueError, KeyError, TypeError, IndexError, AttributeError):
            return False
        expected = self.digests.get(_digest(job.key))
        return expected is None or expected == _digest(text)


def run_passes(runner, jobs, seconds, max_passes=None, between=None, calls=0):
    """Whole passes over `jobs`: at least one, more while they fit in `seconds`.

    `between()` runs `calls` times, spread evenly over the first pass, so that
    what it measures sees the same stretch of machine time as the jobs.  The
    speed kernel runs between jobs every SPEED_INTERVAL_S and after each
    `between()`; every job's latency is also reported at the kernel's nominal
    speed, taken from the two kernel samples on either side of the job.
    """
    latencies, failed, report_bytes, passes = [], 0, 0, 0
    speeds = [speed.sample()]
    before = []                            # per job: index of the last sample before it
    t_speed = perf_counter()
    due = Counter(len(jobs) * k // calls for k in range(calls))
    between_s = 0.0                        # not part of the job loop's time budget
    gc.collect()
    t_start = perf_counter()
    while True:
        for i, job in enumerate(jobs):
            if passes == 0 and due[i]:
                t0 = perf_counter()
                for _ in range(due[i]):
                    between()
                speeds.append(speed.sample())
                t_speed = perf_counter()
                between_s += t_speed - t0
            before.append(len(speeds) - 1)
            dt, ok, text = runner.run(job)
            latencies.append(dt)
            failed += not ok
            report_bytes += len(text.encode())
            if perf_counter() - t_speed > SPEED_INTERVAL_S:
                speeds.append(speed.sample())
                t_speed = perf_counter()
        passes += 1
        loop_s = perf_counter() - t_start - between_s
        if passes == max_passes or loop_s + loop_s / passes > seconds:
            break
    speeds.append(speed.sample())
    nominal = [dt * 2 * speed.NOMINAL_S / (speeds[b] + speeds[b + 1])
               for dt, b in zip(latencies, before)]
    return {"latencies": latencies, "nominal": nominal, "speeds": speeds, "failed": failed,
            "report_bytes": report_bytes,
            "passes": passes, "wall_s": perf_counter() - t_start - between_s}


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(args, workload, runner, env):
    probe_path = os.path.join(OUT, f"probe-{os.getpid()}.txt")
    with open(probe_path, "w") as fh:
        fh.write(workload.probe.payload)
    setup, cold, probe_failed = [], [], []    # (seconds, reference seconds around it)

    def fresh_processes():
        ref = probes.reference_time(env, ROOT)
        wall, code, text = probes.cold_job(env, ROOT, workload.probe.command, probe_path)
        ref_after = probes.reference_time(env, ROOT)
        cold.append((wall, (ref + ref_after) / 2))
        probe_failed.append(not runner.verify(workload.probe, code, text))
        if len(cold) % (COLD_REPEATS // SETUP_REPEATS) == 1:
            wall = probes.setup_time(env, ROOT)
            setup.append((wall, (ref_after + probes.reference_time(env, ROOT)) / 2))

    _, warm_ok, _ = runner.run(workload.probe)   # first-use work belongs to cold_job_s
    jobs = workload.build(args.seed)
    try:
        res = run_passes(runner, jobs, args.seconds, between=fresh_processes,
                         calls=COLD_REPEATS)
    finally:
        os.unlink(probe_path)
    lat, nominal = res["latencies"], res["nominal"]
    completed = len(lat) - res["failed"]
    unscaled = {
        "setup_s": statistics.median(t for t, _ in setup),
        "cold_job_s": statistics.median(t for t, _ in cold),
        "jobs_per_s": completed / sum(lat),
        "job_p50_ms": statistics.median(lat) * 1e3,
        "job_p95_ms": percentile(lat, 95) * 1e3,
    }
    metrics = {
        "setup_s": speed.at_reference_speed(setup),
        "cold_job_s": speed.at_reference_speed(cold),
        "jobs_per_s": completed / sum(nominal),
        "job_p50_ms": statistics.median(nominal) * 1e3,
        "job_p95_ms": percentile(nominal, 95) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    counts = {"attempted": len(lat) + COLD_REPEATS + 1,
              "failed": res["failed"] + sum(probe_failed) + (not warm_ok)}
    info = {"jobs_per_pass": len(jobs), "passes": res["passes"], "latency_samples": len(lat),
            "samples_beyond_p95": sum(x * 1e3 > unscaled["job_p95_ms"] for x in lat),
            "cold_repeats": COLD_REPEATS, "setup_repeats": len(setup),
            "measured_wall_s": res["wall_s"],
            "unscaled": unscaled,
            "machine_speed": statistics.median(res["speeds"]) / speed.NOMINAL_S,
            "speed_samples": len(res["speeds"]),
            "setup_samples_s": setup, "cold_samples_s": cold}
    return metrics, counts, info


def per_layer(args, workload, runner, env):
    imports = [probes.import_times(env, ROOT) for _ in range(IMPORTTIME_REPEATS)]
    metrics = {k: statistics.median(m[k] for m in imports) for k in imports[0]}

    first, ok_first, _ = runner.run(workload.probe)
    warm, ok_warm, _ = runner.run(workload.probe)
    metrics["first_use.extra_s"] = first - warm

    jobs = workload.build(args.seed)
    plain = run_passes(runner, jobs, 0, max_passes=1)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = run_passes(runner, jobs, 0, max_passes=1)
    finally:
        tracer.uninstall()
    table, closure_products = tracer.summary()
    tracer.save(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.npz"))

    for span, (calls, self_s) in table.items():
        metrics[f"{span}.calls"] = calls
        metrics[f"{span}.self_s"] = self_s
    n = len(jobs)
    ideals = tracer.ideals_enumerated
    metrics["cli.report_bytes"] = traced["report_bytes"] / n
    metrics["finideal.ideals"] = ideals
    metrics["finideal.radical_per_ideal"] = (
        table["finideal.radical"][0] / ideals if ideals else 0.0)
    metrics["sspengine.closure_products"] = closure_products
    metrics["sspengine.closure_new_ratio"] = (
        tracer.closure_new / closure_products if closure_products else 0.0)
    metrics["quadring.factorization_per_job"] = table["quadring.factorization"][0] / n
    # job wall time: the sum of cli.main latencies, without the harness's checks
    plain_s, traced_s = sum(plain["latencies"]), sum(traced["latencies"])
    # at nominal speed, so that the machine's speed changing between the passes cancels
    metrics["trace.overhead_ratio"] = sum(traced["nominal"]) / sum(plain["nominal"])
    metrics["trace.accounted_ratio"] = sum(self_s for _, self_s in table.values()) / plain_s

    counts = {"attempted": 2 + 2 * n,
              "failed": (not ok_first) + (not ok_warm) + plain["failed"] + traced["failed"]}
    info = {"jobs_per_pass": n, "spans": len(tracer.name),
            "untraced_job_s": plain_s, "traced_job_s": traced_s,
            "importtime_repeats": IMPORTTIME_REPEATS}
    return metrics, counts, info


def provenance(args, cli):
    import numpy
    import sympy
    sources = sorted(glob.glob(os.path.join(SRC, "radfact", "*.py")))
    h = hashlib.sha256()
    for path in sources:
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode() + b"\0" + fh.read())
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=30).stdout.strip() or "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "sympy": sympy.__version__, "nproc": os.cpu_count(), "seed": args.seed,
            "commit": commit, "source_sha256": h.hexdigest(), "platform": platform.platform(),
            "workload": args.workload, "seconds": args.seconds, "trace": args.trace}


def record_digests(args, workload, runner):
    """Store the report digest of every job at this seed (run at a known-good commit)."""
    table = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS) as fh:
            table = json.load(fh)
    runner.digests = {}
    entries = {}
    for job in workload.build(args.seed):
        _, ok, text = runner.run(job)
        if not ok:
            raise SystemExit(f"perfbench: job failed its known-answer check: {job.payload[:200]}")
        entries[_digest(job.key)] = _digest(text)
    table[args.workload] = dict(sorted(entries.items()))
    with open(DIGESTS, "w") as fh:
        json.dump(dict(sorted(table.items())), fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(entries)} digests for {args.workload} at seed {args.seed}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="store report digests for this workload and seed, then exit")
    args = parser.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "radfact", "cli.py")) or not os.path.isfile(spec_path):
        print("perfbench: run from the repository root; src/radfact and BENCHMARK.json "
              "are required", file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, SRC)
    from radfact import cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported radfact from {cli.__file__}, not from src/", file=sys.stderr)
        return 2
    available = workloads.workloads(cli.default_catalog_specs())
    if args.workload not in available:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(available)}", file=sys.stderr)
        return 2
    workload = available[args.workload]

    os.makedirs(OUT, exist_ok=True)
    digests = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS) as fh:
            digests = json.load(fh).get(args.workload, {})
    input_path = os.path.join(OUT, f"input-{os.getpid()}.txt")
    runner = Runner(cli, input_path, digests)
    env = dict(os.environ, PYTHONPATH=SRC)
    try:
        if args.record_digests:
            record_digests(args, workload, runner)
            return 0
        measure = per_layer if args.trace else end_to_end
        metrics, counts, info = measure(args, workload, runner, env)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(input_path)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        print(f"perfbench: measured metrics differ from BENCHMARK.json: "
              f"{sorted(set(units) ^ set(metrics))}", file=sys.stderr)
        return 2
    result = {
        "correct": counts["failed"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    record = {"provenance": provenance(args, cli), "info": info, **result,
              "failed_ratio": counts["failed"] / counts["attempted"]}
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in record["provenance"].items()
                     if k in ("python", "numpy", "sympy", "nproc", "commit")))
    for k in units:
        print(f"#   {k:<40} {metrics[k]:>14.6g} {units[k]}")
    print(f"#   {'failed_ratio':<40} {record['failed_ratio']:>14.6g} 1 "
          f"({counts['failed']} of {counts['attempted']} jobs)")
    print(f"#   {json.dumps({k: v for k, v in info.items() if not k.endswith('samples_s')})}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
