"""Growth of `biunital-infinitesimal` with the window bound N, and the
unwindowed maps route at one size.

    python3 bench/growth.py [--tree LABEL=SRC ...] [--out BENCH_growth.json]

Times come from one long-lived worker process per tree, and the trees'
runs alternate.  For each N in BOUNDS, ROUNDS rounds are made; in each
round every tree's worker, in turn, builds `rabinowitz_loop_sphere(3, N)`
over Q BUILDS times and keeps the fastest build, parses the model's
rendered document BUILDS times and keeps the fastest `docio.parse`, and
runs `run_suite("biunital-infinitesimal", ...)` on the model once.  Each
of these is timed in the worker's CPU time (`time.process_time`), so time
the machine gives to other processes does not count, and the order of
the trees flips from one round to the next, so that a machine whose speed
drifts slows each tree alike.  A tree's `cpu_s`, `build_cpu_s` and
`parse_cpu_s` are the medians over its rounds, and `runs_cpu_s` lists its
suite times round by round.

The maps row is recorded once per tree, not per N: after the bounds,
ROUNDS more rounds are made, in each of which every tree's worker, in
turn, builds `manifold_from_cup` of T^2 and S^2 x S^2 over Q and F3
(MAPS_CASES) and runs the six base suites of perfbench's manifold-docs
workload (MAPS_SUITES) on each of them BUILDS times, keeping the fastest
CPU time of the suites (a check keeps nothing on the structures).  None of these checks has a window, so they time
the maps route of `check_relations`, which composes each relation's sides
into maps.

Reports and heap peaks come from fresh processes: each tree runs REPEAT
of them per N, alternated the same way, each building the model, running
the suite once and recording the relations' summed checked and
inconclusive counts and a SHA-256 digest of the JSON report (which must
agree across runs), then running it once more, untimed, under
`tracemalloc` for the traced heap peak (`heap_peak_kb`, the largest over
a tree's runs), so that a change that buys speed with memory shows in the
record.  The maps row's fresh processes do the same with its suites.

`--tree LABEL=SRC` names a `src/` directory to import `cofrob` from; give
it once per tree (default: `this=` the `src/` next to this directory).
Every later tree is compared with the first one: the ratios of the median
suite, build and parse CPU times (above 1 when the later tree is faster),
`rounds_faster`, the rounds in which its suite ran in less CPU time than
the first tree's in the same round, the heap ratio, and whether the
report digests agree; the maps row has all of these but the build and
parse ratios.  Each tree is recorded with the commit its
directory is checked out at (null outside a git checkout), whether `src/`
differs from that commit (`dirty`), and a SHA-256 of its
`src/cofrob/*.py` files, which tells trees apart in every case.  Stdlib
only.  The full run is made by hand; tests/test_bench_growth.py runs it at
the smallest size.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tracemalloc
from time import process_time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SUITE = "biunital-infinitesimal"
BOUNDS = (6, 10, 14)
REPEAT = 3   # fresh-process runs per tree and bound, for reports and heap peaks
ROUNDS = 10  # alternated timing rounds per bound, in each tree's long-lived worker
BUILDS = 5   # builds and parses per round, the fastest kept
MAPS = "maps"   # the key of the maps row, per tree and per comparison
# perfbench's manifold-docs base suites, run on each of MAPS_CASES
MAPS_SUITES = ("biunital-cofrobenius", "poincare-duality", "derived-identities",
               "cyclic", "biunital-infinitesimal", "involutivity")
MAPS_CASES = (("torus_cup_data", "Q"), ("s2xs2_cup_data", "Q"),
              ("torus_cup_data", "F3"), ("s2xs2_cup_data", "F3"))


def _import(src):
    """cofrob imported from `src`, never from anywhere else."""
    sys.path.insert(0, src)
    import cofrob
    if os.path.dirname(os.path.dirname(os.path.abspath(cofrob.__file__))) != src:
        raise ImportError(f"cofrob was imported from {cofrob.__file__}, not {src}")
    return cofrob


def _cpu_min(call, times):
    """The fastest of `times` calls of `call`, in CPU seconds, and its last result."""
    best = None
    for _ in range(times):
        start = process_time()
        result = call()
        elapsed = process_time() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def _maps_structures(cofrob):
    """The structures of MAPS_CASES, built afresh."""
    out = []
    for cup_data, field in MAPS_CASES:
        cup = getattr(cofrob, cup_data)()
        cup.field = cofrob.field_from_name(field)
        out.append(cofrob.manifold_from_cup(cup))
    return out


def _maps_suites(run_suite, structures):
    """(suite name, reports) of each of MAPS_SUITES on each structure."""
    return [(name, run_suite(name, data)) for data in structures for name in MAPS_SUITES]


def serve(src):
    """A long-lived timing worker: for each window bound, or MAPS, read from
    standard input, one line each, time one round and print it as one JSON
    line."""
    cofrob = _import(src)
    from cofrob import docio
    from cofrob.suites import run_suite
    for line in sys.stdin:
        if line.strip() == MAPS:
            structures = _maps_structures(cofrob)
            suite_s, _ = _cpu_min(lambda: _maps_suites(run_suite, structures), BUILDS)
            print(json.dumps({"s": suite_s}), flush=True)
            continue
        bound = int(line)
        build_s, data = _cpu_min(lambda: cofrob.rabinowitz_loop_sphere(3, bound), BUILDS)
        text = docio.render(docio.from_bialgebra(data))
        parse_s, _ = _cpu_min(lambda: docio.parse(text), BUILDS)
        suite_s, _ = _cpu_min(lambda: run_suite(SUITE, data), 1)
        print(json.dumps({"s": suite_s, "build_s": build_s, "parse_s": parse_s}), flush=True)


def worker(src, key):
    """One fresh-process run of a window bound, or of the maps row when `key`
    is MAPS: the reports and the heap peak; prints one JSON line.  The maps
    row's digest covers the JSON reports of all its suites, in order."""
    cofrob = _import(src)
    from cofrob.reports import render_json
    from cofrob.suites import run_suite
    if key == MAPS:
        structures = _maps_structures(cofrob)

        def run():
            return _maps_suites(run_suite, structures)
    else:
        data = cofrob.rabinowitz_loop_sphere(3, int(key))

        def run():
            return [(SUITE, run_suite(SUITE, data))]
    suites = run()
    tracemalloc.start()
    run()
    heap_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    reports = [r for _, rs in suites for r in rs]
    digest = hashlib.sha256()
    for name, rs in suites:
        digest.update(render_json(name, rs).encode())
    print(json.dumps({
        "heap_peak_kb": round(heap_peak / 1024, 1),
        "relations": len(reports),
        "checked": sum(r.checked for r in reports),
        "inconclusive": sum(r.inconclusive for r in reports),
        "report_sha256": digest.hexdigest(),
    }))


def run_once(src, key):
    done = subprocess.run([sys.executable, os.path.abspath(__file__), "--worker", src,
                           str(key)], capture_output=True, text=True, check=True)
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
    None when the tree is no checkout's root (a `git archive` copy, say) or
    its checkout has no commit yet.  `src_sha256` digests the names and
    bytes of `src/cofrob/*.py`."""
    top = _git(src, "rev-parse", "--show-toplevel")
    commit = dirty = None
    if top is not None and os.path.samefile(top, os.path.dirname(src)):
        commit = _git(src, "rev-parse", "--short", "HEAD")
    if commit is not None:
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


def _alternated(labels, rounds):
    """The order of the trees in each round, flipped from one round to the next."""
    return [labels if k % 2 == 0 else labels[::-1] for k in range(rounds)]


def measure(trees, bounds, repeat, rounds):
    """{label: {bound: row, MAPS: row}}: reports and heap peaks from
    `repeat` fresh processes per tree, times from `rounds` rounds of the
    trees' long-lived workers, the trees alternated in both."""
    labels = list(trees)
    workers = {label: subprocess.Popen(
                   [sys.executable, os.path.abspath(__file__), "--serve", src],
                   stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
               for label, src in trees.items()}
    results = {label: {} for label in trees}
    try:
        for row_key in [*map(str, bounds), MAPS]:
            runs = {label: [] for label in trees}
            for order in _alternated(labels, repeat):
                for label in order:
                    runs[label].append(run_once(trees[label], row_key))
            times = {label: [] for label in trees}
            for order in _alternated(labels, rounds):
                for label in order:
                    proc = workers[label]
                    proc.stdin.write(f"{row_key}\n")
                    proc.stdin.flush()
                    line = proc.stdout.readline()
                    if not line:
                        raise RuntimeError(f"{label}: the timing worker exited")
                    times[label].append(json.loads(line))
            for label in labels:
                rows, timed = runs[label], times[label]
                name = MAPS if row_key == MAPS else f"N={row_key}"
                if len({r["report_sha256"] for r in rows}) != 1:
                    raise RuntimeError(f"{label} {name}: reports differ between runs")
                cpu = [t["s"] for t in timed]
                row = results[label][row_key] = {
                    "cpu_s": round(statistics.median(cpu), 4),
                    "runs_cpu_s": [round(t, 4) for t in cpu]}
                if row_key != MAPS:
                    row["build_cpu_s"] = round(statistics.median(t["build_s"] for t in timed), 5)
                    row["parse_cpu_s"] = round(statistics.median(t["parse_s"] for t in timed), 5)
                row["heap_peak_kb"] = max(r["heap_peak_kb"] for r in rows)
                row.update({key: rows[0][key] for key in ("relations", "checked", "inconclusive",
                                                          "report_sha256")})
                print(f"{label} {name}: {statistics.median(cpu):.3f} CPU s "
                      f"(median of {rounds}), checked={rows[0]['checked']}, "
                      f"inconclusive={rows[0]['inconclusive']}", flush=True)
    finally:
        for proc in workers.values():
            proc.stdin.close()
            proc.wait()
    return results


def compare(results):
    labels = list(results)
    base = results[labels[0]]

    def ratio(n, row, key):
        return round(base[n][key] / row[key], 3)

    def row_ratios(n, row):
        out = {"time_ratio": ratio(n, row, "cpu_s"),
               "rounds_faster": sum(t < b for t, b in zip(row["runs_cpu_s"],
                                                          base[n]["runs_cpu_s"]))}
        if n != MAPS:
            out["build_ratio"] = ratio(n, row, "build_cpu_s")
            out["parse_ratio"] = ratio(n, row, "parse_cpu_s")
        out["heap_ratio"] = round(row["heap_peak_kb"] / base[n]["heap_peak_kb"], 3)
        out["identical_reports"] = base[n]["report_sha256"] == row["report_sha256"]
        return out

    return {f"{labels[0]}/{label}": {n: row_ratios(n, row) for n, row in results[label].items()}
            for label in labels[1:]}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--worker"]:
        worker(argv[1], argv[2])
        return
    if argv[:1] == ["--serve"]:
        serve(argv[1])
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
    results = measure(trees, BOUNDS, REPEAT, ROUNDS)
    payload = {
        "workload": f"{SUITE} on rabinowitz_loop_sphere(3, N) over Q; {MAPS}: "
                    f"{', '.join(MAPS_SUITES)} on manifold_from_cup of "
                    f"{', '.join(f'{cup}() over {field}' for cup, field in MAPS_CASES)}",
        "python": platform.python_version(),
        "machine": {"arch": platform.machine(), "cpu": cpu_model(),
                    "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0))},
        "repeat": REPEAT,
        "rounds": ROUNDS,
        "timer": "time.process_time in one long-lived worker per tree",
        "trees": {label: {**tree_of(src),
                          "bounds": {n: row for n, row in results[label].items() if n != MAPS},
                          MAPS: results[label][MAPS]}
                  for label, src in trees.items()},
        "comparison": compare(results),
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(json.dumps(payload["comparison"]))


if __name__ == "__main__":
    main()
