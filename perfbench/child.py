"""One kacpal CLI command in a fresh interpreter, as a CLI user runs it.

    python3 child.py SRC setup
    python3 child.py SRC run   REPORT - ARGV...
    python3 child.py SRC trace REPORT SPANS ARGV...

``setup`` times ``import kacpal, kacpal.cli`` and stops.  ``run`` and
``trace`` then call the CLI entry with ``--out REPORT`` prepended to ARGV;
``trace`` wraps the library first (see tracer.py) and writes its spans to
SPANS.  The last line of standard output is a JSON object with the
measurements.  Nothing but sys and time is imported before the timed import,
so the import pays for every module kacpal needs.
"""

import sys
import time

src, mode = sys.argv[1], sys.argv[2]
t0 = time.perf_counter()
sys.path.insert(0, src)
import kacpal  # noqa: E402
import kacpal.cli  # noqa: E402

import_s = time.perf_counter() - t0

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402

if os.path.dirname(os.path.abspath(kacpal.__file__)) != os.path.join(os.path.abspath(src), "kacpal"):
    sys.exit(f"imported kacpal from {kacpal.__file__}, not from {src}")

out = {"import_s": import_s}
if mode != "setup":
    report_path, spans_path, argv = sys.argv[3], sys.argv[4], sys.argv[5:]
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    c0 = time.process_time()
    w0 = time.perf_counter()
    try:
        code = kacpal.cli.main(["--out", report_path] + argv)
    except SystemExit as exc:
        code = exc.code
    out["wall_s"] = time.perf_counter() - w0
    out["cpu_s"] = time.process_time() - c0
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["exit"] = code
    if tracer is not None:
        out["layers"] = tracer.summary()
        out["memo_entries"] = tracer.memo_entries()
        out["spans"] = tracer.write_spans(spans_path, w0)
print(json.dumps(out))
