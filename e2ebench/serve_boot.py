"""Run ``repro serve`` with the benchmark's layer spans installed.

Usage: ``python3 serve_boot.py SPOOL_DIR <repro arguments...>`` from the
root of a checkout.  The root span covers start-up (from here until the
server is about to bind), so ``trace.unattributed_frac`` for serve-paper
is measured over the start-up the user waits for.  On exit the server's
spans go to ``SPOOL_DIR``, next to those of its pool workers.
"""

import functools
import os
import pathlib
import sys

sys.path.insert(0, os.path.abspath("src"))
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import layers  # noqa: E402


def main() -> int:
    spool = pathlib.Path(sys.argv[1])
    inst = layers.install(spool)
    rec = layers.RECORDER
    root = rec.begin(layers.ROOT, "startup")

    import repro.serve

    run_server = repro.serve.run_server

    @functools.wraps(run_server)
    def ready_then_serve(*args, **kwargs):
        rec.end(root)
        return run_server(*args, **kwargs)

    inst.set(repro.serve, "run_server", ready_then_serve)
    from repro.cli import main as repro_main

    code = repro_main(sys.argv[2:])
    rec.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
