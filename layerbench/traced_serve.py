"""Traced daemon: ``python traced_serve.py SPANS_DIR -- serve ARGS...``.

Runs ``repro serve`` through ``repro.cli.main`` with layer spans around
the program's public functions.  Each request's ``serve.core`` span
(``AnalysisService.handle``) is tagged ``endpoint|file|seq`` so the
benchmark can match it to the client request it served.  Pool workers
are forked from the daemon and inherit the wrappers; each worker writes
its spans for every task as one JSON line to ``worker-<pid>.json``.
The daemon's own spans go to ``daemon.json`` when it shuts down.
"""

import functools
import itertools
import json
import os
import sys
import threading


def _run() -> int:
    from spans import Tracer, install
    from layers import SERVE

    spans_dir = sys.argv[1]
    argv = sys.argv[3:]
    import repro.cli
    import repro.runner
    import repro.serve.core

    tracer = Tracer(request="daemon")
    install(tracer, SERVE)
    owner = {"pid": os.getpid()}
    seq = itertools.count()
    service = repro.serve.core.AnalysisService
    handle = service.handle

    @functools.wraps(handle)
    def traced_handle(self, endpoint, body):
        file = body.get("file") if isinstance(body, dict) else None
        tracer.set_request(f"{endpoint}|{file}|{next(seq)}")
        index = tracer.open("serve.core")
        try:
            return handle(self, endpoint, body)
        finally:
            tracer.close(index)

    service.handle = traced_handle

    pool_run = repro.runner.WorkerPool.run

    @functools.wraps(pool_run)
    def traced_pool_run(self, worker, task):
        index = tracer.open("runner.pool")
        try:
            return pool_run(self, worker, task)
        finally:
            tracer.close(index)

    repro.runner.WorkerPool.run = traced_pool_run

    guarded = repro.runner._guarded

    @functools.wraps(guarded)
    def traced_guarded(worker, task):
        if os.getpid() != owner["pid"]:
            # First task in a forked worker: drop the daemon's spans.
            owner["pid"] = os.getpid()
            tracer.spans = []
            tracer._local = threading.local()
        tracer.set_request(str(task[0]))
        index = tracer.open("runner.worker")
        try:
            return guarded(worker, task)
        finally:
            tracer.close(index)
            rows = [span.as_list() for span in tracer.spans]
            tracer.spans = []
            path = os.path.join(spans_dir, f"worker-{os.getpid()}.json")
            with open(path, "a") as handle_out:
                handle_out.write(json.dumps(rows) + "\n")

    repro.runner._guarded = traced_guarded

    try:
        return repro.cli.main(argv)
    finally:
        tracer.dump(os.path.join(spans_dir, "daemon.json"))


if __name__ == "__main__":
    sys.exit(_run())
