"""Growth of `biunital-infinitesimal` with the window bound N.

    python3 bench/growth.py [--tree LABEL=SRC ...] [--out BENCH_growth.json]

For each N in BOUNDS, a run builds `rabinowitz_loop_sphere(3, N)` over Q in
a fresh process BUILDS times, keeping the fastest build (`build_s`),
parses the model's rendered document BUILDS times, keeping the fastest
`docio.parse` (`parse_s`), and then times one
`run_suite("biunital-infinitesimal", ...)` on the model.  With
each time it records the relations' summed checked and inconclusive
counts and a SHA-256 digest of the JSON report, so that trees can be
shown to give identical reports.  The same process then runs the suite once more,
untimed, under `tracemalloc`, and records the traced heap peak
(`heap_peak_kb`, the largest over a tree's runs), so that a change that
buys speed with memory shows in the record.

`--tree LABEL=SRC` names a `src/` directory to import `cofrob` from; give
it once per tree (default: `this=` the `src/` next to this directory).
For every bound, the trees' runs alternate, and the order flips from one
round of runs to the next, so that a machine whose speed drifts slows each
tree alike.  Each tree keeps its fastest of REPEAT suite runs, its
fastest build and its fastest parse, and every later tree is compared
with the first one (suite time, build time, parse time and heap ratios,
and whether the report digests agree).  Each tree is recorded with the
commit its directory is checked out at (null outside a git checkout),
whether `src/` differs from that commit (`dirty`), and a SHA-256 of its
`src/cofrob/*.py` files, which tells trees apart in every case.  Stdlib
only.  The full run is made by hand; tests/test_bench_growth.py runs it at
the smallest size.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tracemalloc
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SUITE = "biunital-infinitesimal"
BOUNDS = (6, 10, 14)
REPEAT = 3
BUILDS = 5   # builds per run: a first build in a fresh process is noisy


def worker(src, bound):
    """One timed run, in this process; prints one JSON line."""
    sys.path.insert(0, src)
    import cofrob
    if os.path.dirname(os.path.dirname(os.path.abspath(cofrob.__file__))) != src:
        raise ImportError(f"cofrob was imported from {cofrob.__file__}, not {src}")
    from cofrob import docio
    from cofrob.reports import render_json
    from cofrob.suites import run_suite
    builds = []
    for _ in range(BUILDS):
        start = perf_counter()
        data = cofrob.rabinowitz_loop_sphere(3, bound)
        builds.append(perf_counter() - start)
    text = docio.render(docio.from_bialgebra(data))
    parses = []
    for _ in range(BUILDS):
        start = perf_counter()
        docio.parse(text)
        parses.append(perf_counter() - start)
    start = perf_counter()
    reports = run_suite(SUITE, data)
    elapsed = perf_counter() - start
    tracemalloc.start()
    run_suite(SUITE, data)
    heap_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    print(json.dumps({
        "s": elapsed,
        "build_s": min(builds),
        "parse_s": min(parses),
        "heap_peak_kb": round(heap_peak / 1024, 1),
        "relations": len(reports),
        "checked": sum(r.checked for r in reports),
        "inconclusive": sum(r.inconclusive for r in reports),
        "report_sha256": hashlib.sha256(render_json(SUITE, reports).encode()).hexdigest(),
    }))


def run_once(src, bound):
    done = subprocess.run([sys.executable, os.path.abspath(__file__), "--worker", src,
                           str(bound)], capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def _git(src, *args):
    """The output of a git command run in `src`, or None if it fails."""
    try:
        out = subprocess.run(["git", *args], cwd=src, capture_output=True, text=True,
                             check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def tree_of(src):
    """{commit, dirty, src_sha256} of the tree whose `src/` is `src`.

    `commit` is the short HEAD of the git checkout rooted at the tree, and
    `dirty` whether `src/` holds changes or new files against it; both are
    None when the tree is no checkout's root (a `git archive` copy, say).
    `src_sha256` digests the names and bytes of `src/cofrob/*.py`."""
    top = _git(src, "rev-parse", "--show-toplevel")
    commit = dirty = None
    if top is not None and os.path.samefile(top, os.path.dirname(src)):
        commit = _git(src, "rev-parse", "--short", "HEAD")
        status = _git(src, "status", "--porcelain", "--", ".")
        dirty = None if status is None else bool(status)
    digest = hashlib.sha256()
    package = os.path.join(src, "cofrob")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                data = handle.read()
            digest.update(f"{name}\n{len(data)}\n".encode() + data)
    return {"commit": commit, "dirty": dirty, "src_sha256": digest.hexdigest()}


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def measure(trees, bounds, repeat):
    """{label: {bound: row}} with the runs of the trees interleaved."""
    results = {label: {} for label in trees}
    for bound in bounds:
        runs = {label: [] for label in trees}
        for k in range(repeat):
            order = list(trees) if k % 2 == 0 else list(trees)[::-1]
            for label in order:
                runs[label].append(run_once(trees[label], bound))
        for label, rows in runs.items():
            digests = {r["report_sha256"] for r in rows}
            if len(digests) != 1:
                raise RuntimeError(f"{label} N={bound}: reports differ between runs")
            best = min(rows, key=lambda r: r["s"])
            results[label][str(bound)] = {
                "best_s": round(best["s"], 3),
                "runs_s": [round(r["s"], 3) for r in rows],
                "build_s": round(min(r["build_s"] for r in rows), 4),
                "parse_s": round(min(r["parse_s"] for r in rows), 4),
                "heap_peak_kb": max(r["heap_peak_kb"] for r in rows),
                **{key: best[key] for key in ("relations", "checked", "inconclusive",
                                              "report_sha256")},
            }
            print(f"{label} N={bound}: {best['s']:.3f} s (best of {repeat}), "
                  f"checked={best['checked']}, inconclusive={best['inconclusive']}",
                  flush=True)
    return results


def compare(results):
    labels = list(results)
    base = results[labels[0]]
    return {f"{labels[0]}/{label}": {
                n: {"time_ratio": round(base[n]["best_s"] / row["best_s"], 2),
                    "build_ratio": round(base[n]["build_s"] / row["build_s"], 2),
                    "parse_ratio": round(base[n]["parse_s"] / row["parse_s"], 2),
                    "heap_ratio": round(row["heap_peak_kb"] / base[n]["heap_peak_kb"], 2),
                    "identical_reports": base[n]["report_sha256"] == row["report_sha256"]}
                for n, row in results[label].items()}
            for label in labels[1:]}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--worker"]:
        worker(argv[1], int(argv[2]))
        return
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", action="append", metavar="LABEL=SRC")
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_growth.json"))
    args = parser.parse_args(argv)
    trees = {}
    for spec in args.tree or [f"this={os.path.join(ROOT, 'src')}"]:
        label, sep, src = spec.partition("=")
        if not sep or not label or not src:
            parser.error(f"--tree expects LABEL=SRC, got {spec!r}")
        trees[label] = os.path.abspath(src)
    results = measure(trees, BOUNDS, REPEAT)
    payload = {
        "workload": f"{SUITE} on rabinowitz_loop_sphere(3, N) over Q",
        "python": platform.python_version(),
        "machine": {"arch": platform.machine(), "cpu": cpu_model(),
                    "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0))},
        "repeat": REPEAT,
        "trees": {label: {**tree_of(src), "bounds": results[label]}
                  for label, src in trees.items()},
        "comparison": compare(results),
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(json.dumps(payload["comparison"]))


if __name__ == "__main__":
    main()
