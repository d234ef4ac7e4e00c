"""One benchmark operation in a fresh process: import the CLI, run its calls.

    python3 perfbench/child.py SPEC.json

SPEC holds ``calls`` (a list of argv lists for ``benchlens.cli.main``),
``trace`` (wrap the layers with spans.Tracer), ``result`` (where to write the
times) and ``spans`` (where to write the spans of a traced operation). The
parent sets PYTHONPATH to the checkout's ``src`` and caps BLAS threads.
"""

import json
import sys
import time
import traceback


def peak_rss_kib() -> int:
    """This process's own peak RSS (Linux VmHWM).

    ru_maxrss would also count the parent's RSS at spawn, which Linux carries
    across exec; VmHWM belongs to the address space the exec created.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))


def main() -> None:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    from benchlens import cli

    imported = time.monotonic()  # the parent compares this with its own clock at spawn
    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    calls = []
    for run_id, argv in enumerate(spec["calls"]):
        if tracer is not None:
            tracer.run_id = run_id
        error = None
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a traceback is a failed call, recorded for the report
            code, error = None, traceback.format_exc()
        end = time.perf_counter()
        calls.append({"start": start, "end": end, "code": code, "error": error})
    if tracer is not None:
        tracer.write(spec["spans"])
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump({"imported": imported, "calls": calls, "peak_rss_kib": peak_rss_kib()}, fh)


if __name__ == "__main__":
    main()
