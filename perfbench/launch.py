"""Run the edsbt command line in this process, as its console script does.

    python3 perfbench/launch.py [--traced] [--import-only] <edsbt arguments>

The benchmark starts every operation through this file so that it can
see when the process was ready to work.  When the process ends it writes
a JSON sidecar to the path in PERFBENCH_SIDECAR (if set) holding:

- `ready`: CLOCK_MONOTONIC time right after `import edsbt.cli`, which the
  parent compares with its own launch time;
- `import_s`: how long `import edsbt.cli` took;
- `peak_rss_kb`: VmHWM of this process.  Not ru_maxrss: Linux carries the
  parent's high-water mark across fork and exec into ru_maxrss, so a large
  parent would show through;
- with `--traced`: the spans and counters of layertrace.Tracer.

Standard output and the exit code are those of `edsbt.cli.main`.
"""

import json
import os
import sys
import time


def _peak_rss_kb():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return None


def main() -> int:
    before = time.clock_gettime(time.CLOCK_MONOTONIC)
    import edsbt.cli

    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    facts = {"ready": ready, "import_s": ready - before}
    argv = sys.argv[1:]
    tracer = None
    if argv[:1] == ["--traced"]:
        import layertrace

        argv = argv[1:]
        tracer = layertrace.Tracer()
        tracer.install()
    try:
        if argv[:1] == ["--import-only"]:
            return 0
        return edsbt.cli.main(argv)
    finally:
        facts["peak_rss_kb"] = _peak_rss_kb()
        if tracer is not None:
            facts.update(tracer.dump())
        sidecar = os.environ.get("PERFBENCH_SIDECAR")
        if sidecar:
            with open(sidecar, "w") as fh:
                json.dump(facts, fh)


if __name__ == "__main__":
    sys.exit(main())
