"""Pin the output digest of every job any seed can draw, at both sizes.

    python3 perfbench/pin.py

Writes digests.json. A job that fails the expected-answer table or the
field check when pinned gets no digest (null): it has no trusted output,
and the benchmark lists it as failing. Run this only when a change is
meant to alter report bytes, and say why in the change.
"""

import json
import os

from run import HERE, import_library


def main():
    import_library()
    import expected
    import workloads
    pinned = {}
    for job in workloads.every_job():
        out = workloads.run_job(job)
        reasons = expected.failure_reasons(job, out, {job.key: None})
        pinned[job.key] = None if reasons else expected.digest(out.output)
        if reasons:
            print(f"failing: {job.key}: {'; '.join(reasons)}")
    with open(os.path.join(HERE, "digests.json"), "w", encoding="utf-8") as handle:
        json.dump(dict(sorted(pinned.items())), handle, indent=0)
        handle.write("\n")
    print(f"pinned {len(pinned)} jobs, {sum(v is None for v in pinned.values())} failing")


if __name__ == "__main__":
    main()
