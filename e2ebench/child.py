"""Set-up and repeated runs of one workload in a fresh interpreter.

Usage: child.py SRC_DIR TRACE SPANS_PATH DEADLINE -- <fsjunta CLI arguments>

Set-up ends once ``fsjunta.cli`` is imported and the command line is
validated; ``setup_done`` is that moment on the system-wide monotonic clock,
so the parent can subtract its spawn time, and ``setup_slowdown`` the
reading of :mod:`speed` taken right after it. The child then calls
``run_experiment`` (CSV and summary writes included) until the monotonic
clock passes DEADLINE, at least twice, and prints one JSON line with the time
of each call and the mean of the readings of :mod:`speed` taken right before
and right after it. ``peak_rss_mb`` is the peak resident set size after the
first call, the footprint of one command-line run. It is read from
``VmHWM``: Linux carries the parent's peak into ``getrusage``'s
``ru_maxrss`` across fork and exec, but ``VmHWM`` covers this process image
alone. With TRACE=1
every call runs under :mod:`tracer` and reports its layer metrics; the spans
of the last call are written to SPANS_PATH.
"""
from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path


def peak_rss_kb() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(argv: list[str]) -> int:
    src, traced, spans_path = Path(argv[1]).resolve(), argv[2] == "1", argv[3]
    deadline = float(argv[4])
    cli_args = argv[argv.index("--") + 1:]

    start = time.perf_counter()
    import fsjunta.cli as cli
    import_s = time.perf_counter() - start
    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"fsjunta imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    cfg = cli._assemble(cli.build_parser().parse_args(cli_args))
    setup_done = time.monotonic()
    import speed
    setup_slowdown = speed.slowdown()

    harness = sys.modules["fsjunta.harness"]
    tracer = None
    if traced:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    calls = []
    peak_rss_mb = None
    while len(calls) < 2 or time.monotonic() < deadline:
        if tracer is not None:
            tracer.reset()
        before = speed.slowdown()
        start = time.perf_counter()
        result = harness.run_experiment(cfg)
        call = {"wall_s": time.perf_counter() - start,
                "slowdown": (before + speed.slowdown()) / 2,
                "truncated": bool(result.truncated)}
        if tracer is not None:
            call["layers"] = tracer.metrics()
        calls.append(call)
        if peak_rss_mb is None:
            peak_rss_mb = peak_rss_kb() / 1024
    if tracer is not None:
        tracer.write_spans(spans_path)

    import numpy
    import scipy
    print(json.dumps({
        "setup_done": setup_done,
        "setup_slowdown": setup_slowdown,
        "import_s": import_s,
        "peak_rss_mb": peak_rss_mb,
        "calls": calls,
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "backend": sys.modules["fsjunta._kernels"].backend(),
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
