"""tauq benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; tauq is imported from ./src. One
client in one process and one thread issues jobs in a closed loop: each job
starts when the previous one has returned. A job is an in-process
``tauq.cli.main(argv)`` call with stdout captured, or a library call the
CLI does not reach. Every job's output is checked outside the timed region.

--trace 0 runs jobs until S CPU seconds of job time (and at least MIN_JOBS
jobs) and reports the end-to-end metrics. --trace 1 runs one untraced batch
and then the first batch traced, and reports per-layer metrics. The last
stdout line is a JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from itertools import chain, islice
from pathlib import Path
from time import perf_counter, process_time

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_PROBES = 11
# p90 needs at least ten samples above it.
MIN_JOBS = 110


def import_tauq():
    """Import tauq from this checkout's src, never from site-packages."""
    if not (SRC / "tauq" / "__init__.py").is_file():
        raise ImportError(f"no tauq sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import tauq
    if Path(tauq.__file__).resolve().parent != SRC / "tauq":
        raise ImportError(f"tauq imported from {tauq.__file__}, not {SRC}")
    return tauq


def parse_args(argv):
    p = argparse.ArgumentParser(description="tauq benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="import tauq, generate the first batch, print 'ready' "
                        "and the CPU seconds used")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


class Tally:
    """Latencies and outcomes of the jobs one pass ran."""

    def __init__(self):
        self.latencies: list[float] = []
        self.cpu_s = 0.0
        self.problems: list[str] = []
        self.checks_passed = 0
        self.checks_skipped = 0
        self.check_s = 0.0

    @property
    def jobs(self) -> int:
        return len(self.latencies)

    @property
    def job_s(self) -> float:
        return sum(self.latencies)

    def jobs_per_s(self) -> float:
        return (self.jobs - len(self.problems)) / self.job_s

    def slot_rate(self, cycle: int) -> float:
        """Jobs per second over one cycle (one job of every slot) at each
        slot's median job time. Medians keep a burst from a neighbouring
        process on a shared machine out of the figure."""
        return cycle / sum(statistics.median(self.latencies[s::cycle])
                           for s in range(cycle))


def cpu_clock() -> float:
    """CPU seconds of this process and its reaped children. Job time is
    measured on this clock: tauq's jobs are single-threaded and CPU-bound,
    so on an idle machine it equals wall time, and it leaves out time the
    process spends waiting for a CPU. Children count, so work moved into a
    subprocess is still timed."""
    ch = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + ch.ru_utime + ch.ru_stime


def call(job):
    """Run one job; returns (exit code, output, stderr text)."""
    from tauq import cli, factorization, moments
    if job.argv:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(job.argv))
        return rc, out.getvalue(), err.getvalue()
    name, *args = job.call
    seqs = [moments.build_moments(a) if isinstance(a, dict) else a for a in args]
    return 0, getattr(factorization, name)(*seqs), ""


def execute(job, tally: Tally, tracer=None, gauge=None) -> None:
    """Run, time and check one job. With a gauge, its latency is CPU
    seconds scaled to the reference speed (speed.py); without, plain CPU
    seconds."""
    import oracles
    problem = None
    scale = gauge.scale() if gauge is not None else 1.0
    if tracer is not None:
        tracer.begin_job()
        tracer.active = True
    t0 = cpu_clock()
    try:
        rc, output, err = call(job)
    except Exception as exc:  # a crashing job is a failed job, not a crash
        problem = f"raised {type(exc).__name__}: {exc}"
    finally:
        dt = cpu_clock() - t0
        if tracer is not None:
            tracer.active = False
    if problem is None and rc != 0:
        problem = f"exit code {rc}: {err.strip()[:300]}"
    if problem is None:
        t1 = perf_counter()
        try:
            problem, passed, skipped = oracles.check(job, output)
        except Exception as exc:  # malformed output fails its job
            problem = f"output check raised {type(exc).__name__}: {exc}"
        else:
            tally.checks_passed += passed
            tally.checks_skipped += skipped
        tally.check_s += perf_counter() - t1
    tally.latencies.append(dt * scale)
    tally.cpu_s += dt
    if gauge is not None:
        gauge.ran(dt)
    if problem is not None:
        name = " ".join(job.argv)[:160] or job.call[0]
        tally.problems.append(f"{job.kind} {name}: {problem}")


def measure_setup(args) -> list[float]:
    """CPU seconds from process start to the first job: interpreter start,
    import tauq, and generating the first batch, in fresh processes. Each
    probe reports its own CPU clock when it is ready to run jobs; that is
    scaled by the speed reference (speed.py), probed three times before and
    three times after it."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    times = []
    speed.probe()  # warm
    for _ in range(SETUP_PROBES):
        ref = [speed.probe() for _ in range(3)]
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline().split()
            proc.stdout.read()
            rc = proc.wait(timeout=120)
        if rc != 0 or len(line) != 2 or line[0] != "ready":
            raise RuntimeError(f"set-up probe exited {rc}")
        ref += [speed.probe() for _ in range(3)]
        times.append(float(line[1]) * speed.REF_S / statistics.median(ref))
    return times


def commit() -> str:
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        if res.returncode == 0:
            return res.stdout.strip()
    return "not recorded (checkout has no .git)"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "tauq").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def print_header(args, batch, cycle: int) -> None:
    import workloads
    s = workloads.sizes(batch)
    print(f"tauq benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, {args.seconds:g} s")
    print(f"environment: commit {commit()}, tauq sources sha256 "
          f"{source_digest()}, python {platform.python_version()}, "
          f"nproc {os.cpu_count()}")
    lengths = s["window_lengths"]
    print(f"inputs: batch of {s['jobs']} jobs, cycle of {cycle} job slots, "
          f"determinant orders {s['orders'][0]}..{s['orders'][1]}, "
          + (f"window lengths {lengths[0]}..{lengths[1]}, "
             f"numerators <= {s['num_bits']} bits, denominators <= "
             f"{s['den_bits']} bits" if lengths else "symbolic inputs only"))
    print("load: closed loop, one client, one thread; no two jobs share inputs")


def report_problems(tallies) -> None:
    for tally in tallies:
        for problem in tally.problems[:10]:
            print(f"FAILED {problem}")


def result_line(tallies, metrics: dict) -> str:
    attempted = sum(t.jobs for t in tallies)
    failed = sum(len(t.problems) for t in tallies)
    return json.dumps({"correct": failed == 0, "attempted": attempted,
                       "failed": failed,
                       "metrics": {name: {"value": value, "unit": unit}
                                   for name, (value, unit) in metrics.items()}})


def untraced_run(args) -> int:
    import workloads
    setup = measure_setup(args)
    stream = workloads.stream(args.workload, args.seed)
    batch = list(islice(stream, workloads.BATCH[args.workload]))
    cycle = workloads.cycle_length(args.workload)
    print_header(args, batch, cycle)
    tally = Tally()
    gauge = speed.Gauge()
    for job in chain(batch, stream):
        execute(job, tally, gauge=gauge)
        if (tally.cpu_s >= args.seconds and tally.jobs >= MIN_JOBS
                and tally.jobs % cycle == 0):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lat = tally.latencies
    deciles = statistics.quantiles(lat, n=10)
    above = sum(1 for x in lat if x > deciles[8])
    metrics = {"setup_s": (statistics.median(setup), "s"),
               "jobs_per_s": (tally.slot_rate(cycle), "1/s"),
               "job_p50_s": (statistics.median(lat), "s"),
               "job_p90_s": (deciles[8], "s"),
               "peak_rss_mb": (peak_rss_mb, "MB")}
    probes = gauge.probes
    scaled = (f"CPU s scaled to the speed reference, which took "
              f"{1000 * statistics.median(probes):.3f} ms CPU (median of "
              f"{len(probes)} probes) against {1000 * speed.REF_S:g} ms")
    notes = {"setup_s": f"scaled CPU time, median of {len(setup)} fresh "
                        "processes",
             "jobs_per_s": f"at each of {cycle} slots' median job time; "
                           f"{tally.jobs - len(tally.problems)} jobs in "
                           f"{tally.cpu_s:.3f} s of job CPU time overall",
             "job_p50_s": f"scaled CPU time, n={tally.jobs}",
             "job_p90_s": f"scaled CPU time, n={tally.jobs}, {above} above",
             "peak_rss_mb": "ru_maxrss of the benchmark process"}
    report_problems([tally])
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit} ({notes[name]})")
    print(f"job times: {scaled}")
    print(f"failed_ratio = {len(tally.problems)}/{tally.jobs} = "
          f"{len(tally.problems) / tally.jobs:.6g}")
    print(f"time (CPU): {tally.cpu_s:.2f} s jobs, {tally.check_s:.2f} s "
          f"output checks; scaled set-up times "
          + " ".join(f"{x:.4f}" for x in setup))
    print(result_line([tally], metrics))
    return 0


def layer_metrics(tracer, summary: dict, traced: Tally, untraced: Tally) -> dict:
    from tracing import COUNTERS, SPAN_NAMES
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = (summary[name]["calls"], "count")
        metrics[f"{name}.self_s"] = (summary[name]["self_s"], "s")
    for name in COUNTERS:
        unit = "bits" if name.endswith("bits") else "count"
        metrics[name] = (tracer.counters[name], unit)
    tau_calls = summary["tau_gl2.tau_det"]["calls"]
    metrics["tau_gl2.tau_det.repeat_ratio"] = (
        tracer.counters["tau_gl2.tau_det.repeat_calls"] / tau_calls
        if tau_calls else 0.0, "ratio")
    metrics["report.checks_passed"] = (traced.checks_passed, "count")
    metrics["report.checks_skipped"] = (traced.checks_skipped, "count")
    metrics["trace.jobs"] = (traced.jobs, "count")
    metrics["trace.job_s"] = (traced.job_s, "s")
    metrics["trace.spans"] = (len(tracer.span_name), "count")
    metrics["trace.traced_jobs_per_s"] = (traced.jobs_per_s(), "1/s")
    metrics["trace.untraced_jobs_per_s"] = (untraced.jobs_per_s(), "1/s")
    metrics["trace.overhead_ratio"] = (
        traced.jobs_per_s() / untraced.jobs_per_s(), "ratio")
    return metrics


def traced_run(args) -> int:
    import tracing
    import workloads
    stream = workloads.stream(args.workload, args.seed)
    size = workloads.BATCH[args.workload]
    batch = list(islice(stream, size))
    print_header(args, batch, workloads.cycle_length(args.workload))
    untraced = Tally()
    for job in islice(stream, size):
        execute(job, untraced)
    tracer = tracing.Tracer()
    traced = Tally()
    with tracing.installed(tracer):
        for job in batch:
            execute(job, traced, tracer)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.write(spans_path)
    summary = tracer.summary()
    metrics = layer_metrics(tracer, summary, traced, untraced)
    report_problems([untraced, traced])
    print(f"spans: {len(tracer.span_name)} written to "
          f"{spans_path.relative_to(ROOT)}")
    print(f"self time by span, as a share of {traced.job_s:.4f} s traced "
          f"job time over {traced.jobs} jobs:")
    for name, row in sorted(summary.items(),
                            key=lambda kv: -kv[1]["self_s"]):
        if row["calls"]:
            print(f"  {name:40s} {row['self_s']:9.4f} s "
                  f"{100 * row['self_s'] / traced.job_s:5.1f}%  "
                  f"{row['calls']} calls")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(f"  (tau_gl2.tau_det.repeat_ratio = repeat_calls "
          f"{tracer.counters['tau_gl2.tau_det.repeat_calls']} / calls "
          f"{metrics['tau_gl2.tau_det.calls'][0]}; trace.overhead_ratio = "
          f"traced {metrics['trace.traced_jobs_per_s'][0]:.4f} / untraced "
          f"{metrics['trace.untraced_jobs_per_s'][0]:.4f} jobs/s)")
    print(result_line([untraced, traced], metrics))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_tauq()
    except ImportError as exc:
        print(f"tauq benchmark: {exc}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"tauq benchmark: unknown workload {args.workload!r}; choose "
              f"from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        list(islice(workloads.stream(args.workload, args.seed),
                    workloads.BATCH[args.workload]))
        print(f"ready {cpu_clock()!r}", flush=True)
        return 0
    return traced_run(args) if args.trace else untraced_run(args)


if __name__ == "__main__":
    sys.exit(main())
