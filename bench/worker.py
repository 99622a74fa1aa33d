"""Warm worker: runs `evspin evolve` jobs one at a time for bench/run.py.

Started with PYTHONPATH pointing at the checkout's src/ and BLAS pinned to
one thread.  Requests arrive as JSON lines on stdin and each gets one JSON
line back on the original stdout; anything the program prints to stdout is
sent to stderr instead, so it cannot corrupt the protocol.

    {"cmd": "job", "job": k, "argv": [...]}  ->  {"rc", "seconds", "probe", "stderr", "counts"}
    {"cmd": "finish", "spans": path|null}    ->  {"calibration_ms", "peak_rss_mb"}

Every job is bracketed by host-speed probes (hostspeed.py).  With --trace,
spans are recorded around evspin's functions (see spans.py)
and written to the given path at "finish".
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

from hostspeed import calibration_ms, probe


def main():
    proto = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)
    traced = "--trace" in sys.argv[1:]

    def send(msg):
        proto.write(json.dumps(msg) + "\n")

    import evspin
    import evspin.cli

    run_job = evspin.cli.main
    tracer = None
    if traced:
        from spans import ROOT_SPAN, Tracer

        tracer = Tracer()
        tracer.install()
        run_job = tracer.wrap(ROOT_SPAN, evspin.cli.main)

    send({"evspin": os.path.abspath(evspin.__file__),
          "patched": tracer.installed if tracer else [],
          "calibration_ms": calibration_ms()})
    for line in sys.stdin:
        req = json.loads(line)
        if req["cmd"] == "finish":
            if tracer:
                tracer.save(req["spans"])
            send({"calibration_ms": calibration_ms(),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024})
            return
        err = io.StringIO()
        before = probe()
        if tracer:
            tracer.begin_job(req["job"])
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                rc = run_job(req["argv"])
        except Exception:  # the program raised past its own handlers: a failed job
            rc = -1
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - t0
        counts = tracer.end_job() if tracer else {}
        send({"rc": rc, "seconds": seconds, "probe": [before, probe()],
              "stderr": err.getvalue()[-4000:], "counts": counts})


if __name__ == "__main__":
    main()
