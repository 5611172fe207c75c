"""Traced CLI request: ``python traced_cli.py SPAWN_T SPANS -- ARGS...``.

Runs ``repro`` exactly as ``python -m repro ARGS...`` would — import
``repro.cli``, call ``main`` — with layer spans wrapped around the
program's public functions.  ``SPAWN_T`` is the parent's
``perf_counter`` at spawn, so the ``import`` span covers interpreter
start-up too.  The spans are written to ``SPANS`` after ``main``
returns, and the time that write ended to ``SPANS.end``, so the
benchmark can tell the tracer's dump from the interpreter's exit.
"""

import sys
import time


def _run() -> int:
    from spans import Tracer, install
    from layers import CLI

    spawn_t, spans_path = float(sys.argv[1]), sys.argv[2]
    argv = sys.argv[4:]
    tracer = Tracer(request="cli")
    index = tracer.open("import", start=spawn_t)
    import repro.cli
    tracer.close(index)
    setup = tracer.open("trace.install")
    install(tracer, CLI)
    tracer.close(setup)
    main = tracer.wrap(repro.cli.main, "cli")
    try:
        return main(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path)
        with open(spans_path + ".end", "w") as handle:
            handle.write(repr(time.perf_counter()))


if __name__ == "__main__":
    sys.exit(_run())
