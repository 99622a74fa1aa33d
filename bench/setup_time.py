"""Set-up time: a fresh interpreter imports evspin.cli.

Run by run.py as its own process, with PYTHONPATH pointing at the
checkout's src/.  The import is timed inside the new interpreter, so the
interpreter's own start-up is left out.  It is bracketed by pure-Python
host-speed probes; nothing but `time` is imported before it, so no module
evspin needs is loaded early.  Prints one JSON object:
{"seconds", "probe": [before, after]}.
"""

import time

from hostspeed import interpreter_probe


def main():
    before = interpreter_probe()
    t0 = time.perf_counter()
    import evspin.cli  # noqa: F401
    seconds = time.perf_counter() - t0
    after = interpreter_probe()

    import json

    print(json.dumps({"seconds": seconds, "probe": [before, after]}))


if __name__ == "__main__":
    main()
