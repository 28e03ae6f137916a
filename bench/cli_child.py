"""One CLI command in a fresh interpreter, timed (and optionally traced) inside.

    python3 bench/cli_child.py --stats FILE [--profile] -- <holant argv>

Behaves like `python -m holant.cli <argv>` on stdout, stderr and exit code,
and also writes FILE: the import time of `holant.cli`, the time spent in
`main(argv)`, whether numpy was imported, spans for both phases and, with
--profile, the tracer's summary of `main`.
"""

from __future__ import annotations

import json
import os
import sys
import time

T0 = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main() -> int:
    args = sys.argv[1:]
    split = args.index("--")
    opts, argv = args[:split], args[split + 1:]
    stats_path = opts[opts.index("--stats") + 1]
    profile = "--profile" in opts

    import holant.cli
    t1 = time.perf_counter()
    tracer = None
    if profile:
        sys.path.insert(0, HERE)
        from tracing import Tracer
        tracer = Tracer()
    t2 = time.perf_counter()
    try:
        if tracer is not None:
            with tracer.active():
                code = holant.cli.main(argv)
        else:
            code = holant.cli.main(argv)
    except SystemExit as e:  # argparse rejects its input this way
        code = e.code if isinstance(e.code, int) else 1
    t3 = time.perf_counter()
    sys.stdout.flush()
    stats = {"import_s": t1 - T0, "main_s": t3 - t2,
             "numpy_loaded": "numpy" in sys.modules,
             "spans": {"cli.import": [T0, t1], "cli.main": [t2, t3]}}
    if tracer is not None:
        stats["trace"] = tracer.summary()
    with open(stats_path, "w") as fh:
        json.dump(stats, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
