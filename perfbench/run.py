"""The cofrob benchmark: one workload, closed loop, one client, one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--size full|smoke]
    python3 perfbench/run.py --workload all ...   # every workload, one table

Each pass runs every job of the workload once, in the seeded order. After
one warm-up pass, timed passes repeat until they have taken `--seconds`
(at least two of them). Every
job is checked against the expected answers (expected.py) and the pinned
output digests (digests.json). The last line of standard output is one
JSON object: `correct`, `attempted`, `failed` and `metrics`, which are the
end-to-end metrics with `--trace 0` and the per-layer metrics with
`--trace 1`. The lines before it name every metric with its unit and
sample count, the failed jobs, and where the run happened.

Timings are given in reference units (`ref`): a job's time divided by the
time of a fixed pure-Python kernel (`reference_unit`) run just before and
just after it. On a shared machine whose speed changes by up to 2x over
minutes, this ratio stays steady where seconds do not. The wall-clock
figures are printed too, for reading, but are not bounded metrics.

`correct` is false when a job fails that did not fail when the digests
were pinned, or, in a traced run, when a count differs between two traced
passes. Jobs that already failed then still count in `failed`.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("rab-infinitesimal", "window-suites", "manifold-docs")
SETUP_PROBES = 7
MIN_PASSES = 2          # untraced passes per run, and traced passes per traced run
REF_SHARE = 0.15        # reference kernel time on each side of a job, per job time
PROBE_TIMEOUT_S = 120


def import_library():
    """Import cofrob from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, SRC)
    import cofrob
    if os.path.dirname(os.path.dirname(os.path.abspath(cofrob.__file__))) != SRC:
        raise ImportError(f"cofrob was imported from {cofrob.__file__}, not {SRC}")
    return cofrob


def setup_probe(args):
    """Time `import cofrob` plus input generation in this fresh process."""
    start = perf_counter()
    import_library()
    import workloads
    workloads.generate(args.workload, args.seed, args.size)
    print(repr(perf_counter() - start))


def time_setup(args):
    """One set-up time, measured by `setup_probe` in a fresh process."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    return float(done.stdout.split()[-1])


def reference_unit():
    """A fixed kernel of the kind the library's hot paths run (Fraction
    arithmetic, tuple keys, dict stores), about 0.5 ms at its fastest on a
    2-vCPU Xeon VM. It never changes, so its time measures only the
    machine's speed."""
    total, seen = Fraction(0), {}
    for i in range(1, 100):
        total += Fraction(i, i + 1) * Fraction(1, i + 2)
        seen[i, i % 7] = (total.numerator % 97, i)
    return total


def reference_time(seconds):
    """Median time of the reference kernel, run for about `seconds`."""
    times, start = [], perf_counter()
    while not times or perf_counter() - start < seconds:
        t0 = perf_counter()
        reference_unit()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def measure(args, jobs, run_job, tally):
    """One warm-up pass, then timed passes for `args.seconds`, with the
    set-up probes spread evenly between them, so that a slow phase of the
    machine cannot cover every probe. Probe time does not count against
    `args.seconds`."""
    _, last, _ = run_pass(jobs, run_job, tally)
    passes, setup_samples = [], [time_setup(args)]
    timed = 0.0
    while len(passes) < MIN_PASSES or timed < args.seconds:
        passes.append(run_pass(jobs, run_job, tally, reference=last))
        last = passes[-1][1]
        timed += passes[-1][0]
        if len(setup_samples) < SETUP_PROBES * min(1.0, timed / max(args.seconds, 1e-9)):
            setup_samples.append(time_setup(args))
    while len(setup_samples) < SETUP_PROBES:
        setup_samples.append(time_setup(args))
    return passes, setup_samples


class Tally:
    """Checks each pass's outcomes as it ends, keeping only the verdicts,
    so that memory does not grow with the number of passes."""

    def __init__(self, jobs, expected, pinned):
        self.jobs, self.expected, self.pinned = jobs, expected, pinned
        self.attempted = self.failed = 0
        self.failures = {}
        self.windows, self.dims = set(), set()

    def add(self, outcomes):
        for job, out in zip(self.jobs, outcomes):
            self.attempted += 1
            reasons = self.expected.failure_reasons(job, out, self.pinned)
            if reasons:
                self.failed += 1
                self.failures[job.key] = reasons
            if out.window is not None:
                self.windows.add(out.window)
            if out.dims:
                self.dims.add(out.dims)


def run_pass(jobs, run_job, tally, tracer=None, reference=None):
    """Run every job once, check the outcomes, and return the wall time,
    the job latencies and the jobs' times in reference units.

    `reference` holds each job's latency in the previous pass; the
    reference kernel runs for REF_SHARE of it just before and just after
    the job. Without it, no reference times are taken."""
    latencies, refs, outcomes = [], [], []
    start = perf_counter()
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = job.key
        if reference is not None:
            before = reference_time(REF_SHARE * reference[i])
        t0 = perf_counter()
        outcomes.append(run_job(job))
        latencies.append(perf_counter() - t0)
        if reference is not None:
            unit = (before + reference_time(REF_SHARE * reference[i])) / 2
            refs.append(latencies[-1] / unit)
    wall = perf_counter() - start
    tally.add(outcomes)
    return wall, latencies, refs


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_commit():
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as handle:
                return handle.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
                for line in handle:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def provenance(tally):
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "jobs_per_pass": len(tally.jobs),
        "window_bounds": sorted(tally.windows),
        "module_dims": sorted(tally.dims),
    }


def end_to_end(passes, setup_samples):
    """The bounded metrics, and the same timings in wall-clock units.

    Each job's time in reference units is its median over the passes.
    Its wall time is its fastest pass: interference only ever adds time."""
    refs = sorted(statistics.median(r) for r in zip(*(r for _, _, r in passes)))
    best = sorted(min(lats) * 1000.0 for lats in zip(*(lats for _, lats, _ in passes)))
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    median = f"{len(refs)} jobs, each the median of {len(passes)} passes"
    fastest = f"{len(best)} jobs, each the fastest of {len(passes)} passes"
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s",
                    f"median of {len(setup_samples)} fresh processes"),
        "verdict_ref": (sum(refs), "ref", f"sum over {median}"),
        "job_p50_ref": (percentile(refs, 50), "ref", median),
        "job_p98_ref": (percentile(refs, 98), "ref", median),
        "peak_rss_mb": (peak_kib / 1024.0, "MB", "this process, ru_maxrss"),
    }
    wall = {
        "verdict_s": (sum(best) / 1000.0, "s", f"sum over {fastest}"),
        "job_p50_ms": (percentile(best, 50), "ms", fastest),
        "job_p98_ms": (percentile(best, 98), "ms", fastest),
        "ref_unit_ms": (reference_time(0.5) * 1000.0, "ms",
                        "median reference kernel time over 0.5 s at the end"),
    }
    return metrics, wall


def per_layer(jobs, run_job, tally, seconds, tracer_module, spans_path):
    """One untraced pass, then traced passes; medians of the traced ones."""
    base_wall, _, _ = run_pass(jobs, run_job, tally)
    traced, per_pass = [], []
    start = perf_counter()
    while len(traced) < MIN_PASSES or perf_counter() - start < seconds:
        tracer = tracer_module.Tracer()
        tracer.install()
        try:
            wall, _, _ = run_pass(jobs, run_job, tally, tracer)
        finally:
            tracer.uninstall()
        traced.append(wall)
        per_pass.append(tracer.metrics(wall))
        last = tracer
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    last.write_spans(spans_path, last.spans[0][1] if last.spans else 0.0)
    repeat = [name for name, (value, unit) in per_pass[0].items()
              if unit == "count" and any(p[name][0] != value for p in per_pass[1:])]
    metrics = {}
    for name, (value, unit) in per_pass[-1].items():
        if unit == "s":
            value = statistics.median(p[name][0] for p in per_pass)
        metrics[name] = (value, unit, f"{len(per_pass)} traced passes")
    metrics["trace.overhead"] = (statistics.median(traced) / base_wall, "ratio",
                                 "median traced pass over one untraced pass")
    return metrics, repeat


def run_one(args):
    try:
        import_library()
    except ImportError as exc:
        print(f"error: cannot import cofrob from {SRC}: {exc}", file=sys.stderr)
        return 2
    import expected
    import tracer
    import workloads
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as handle:
        pinned = json.load(handle)
    jobs = workloads.generate(args.workload, args.seed, args.size)
    tally = Tally(jobs, expected, pinned)
    repeat, wall = [], {}
    if args.trace:
        spans_path = os.path.join(
            HERE, "out", f"spans-{args.workload}-{args.size}-seed{args.seed}.jsonl.gz")
        metrics, repeat = per_layer(jobs, workloads.run_job, tally, args.seconds,
                                    tracer, spans_path)
    else:
        passes, setup_samples = measure(args, jobs, workloads.run_job, tally)
        metrics, wall = end_to_end(passes, setup_samples)
    failures, attempted, failed = tally.failures, tally.attempted, tally.failed
    known = {key for key, value in pinned.items() if value is None}
    new_failures = sorted(set(failures) - known)
    correct = not new_failures and not repeat

    for name, (value, unit, samples) in metrics.items():
        print(f"{args.workload}: {name} = {value:.6g} {unit} ({samples})")
    for name, (value, unit, samples) in wall.items():
        print(f"{args.workload}: {name} = {value:.6g} {unit} ({samples}; wall clock, "
              f"not bounded)")
    print(f"{args.workload}: failed_ratio = {failed / attempted:.6g} "
          f"({failed} of {attempted} jobs)")
    for key, reasons in sorted(failures.items()):
        state = "new" if key in new_failures else "failed when pinned"
        print(f"{args.workload}: FAILED [{state}] {key}: {'; '.join(reasons)}")
    for name in repeat:
        print(f"{args.workload}: count {name} differs between traced passes")
    report = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace, "loop": "closed, one client, one thread",
        "wait_s": 0.0, "wait_note": "no queues: every layer's wait time is zero",
        "failed_ratio": failed / attempted, "failed_jobs": sorted(failures),
        "samples": {name: samples for name, (_, _, samples) in metrics.items()},
        "wall_clock": {name: {"value": value, "unit": unit, "samples": samples}
                       for name, (value, unit, samples) in wall.items()},
        "provenance": provenance(tally),
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


def run_all(args):
    """Every workload in its own fresh process, then one table."""
    rows, status = [], 0
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            status = done.returncode
            continue
        result = json.loads(done.stdout.splitlines()[-1])
        status = status or (0 if result["correct"] else 1)
        rows.append((workload, result))
    for workload, result in rows:
        print(f"\n{workload}: correct={result['correct']} "
              f"failed {result['failed']} of {result['attempted']}")
        for name, metric in result["metrics"].items():
            print(f"  {name:40s} {metric['value']:14.6g} {metric['unit']}")
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        setup_probe(args)
        return 0
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
