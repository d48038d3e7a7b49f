"""Every process a benchmark run starts has ended before the run does.

The program's pools leave helpers behind them: ``multiprocessing``'s
resource tracker (started for shared-memory fan-in and spawn pools)
runs until every process holding its pipe has exited, so it outlives
the process that started it by a moment, and a ``repro serve`` child
leaves its own tracker the same way.  :func:`adopt_orphans` makes this
process the reaper of every orphaned descendant; :func:`stop_all` stops
this process's helpers, then waits for every child that is left (and
ends it if it does not end by itself).
"""

from __future__ import annotations

import ctypes
import os
import signal
import sys
import time

#: ``prctl`` option: orphaned descendants are re-parented to us.
PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> bool:
    """Become the reaper of orphaned descendants (Linux only)."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def children() -> list:
    """Pids of this process's live (not yet reaped) children."""
    me, found = os.getpid(), []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return found
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as stat:
                fields = stat.read().rsplit(b")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == me:
            found.append(int(entry))
    return found


def _reap() -> None:
    """Collect every child that has already exited."""
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _signal(pids, signum) -> None:
    for pid in pids:
        try:
            os.kill(pid, signum)
        except ProcessLookupError:
            pass


def stop_all(grace_s: float = 10.0) -> int:
    """Stop this process's helpers and wait for every child to end.

    Children get ``grace_s`` to exit by themselves, then SIGTERM, then
    SIGKILL.  Returns how many had to be signalled.
    """
    from multiprocessing import forkserver, resource_tracker

    # Closing a helper's pipe ends it; ``_stop`` also waits for it.
    for helper in (resource_tracker._resource_tracker, forkserver._forkserver):
        try:
            helper._stop()
        except (AttributeError, OSError):
            pass
    signalled = set()
    started = time.monotonic()
    escalation = ((grace_s, signal.SIGTERM), (grace_s + 5.0, signal.SIGKILL))
    while True:
        _reap()
        left = children()
        if not left:
            break
        waited = time.monotonic() - started
        for after, signum in escalation:
            if waited > after:
                _signal(left, signum)
                signalled.update(left)
        time.sleep(0.01)
    if signalled:
        print(f"e2ebench: ended {len(signalled)} stray process(es)",
              file=sys.stderr)
    return len(signalled)


def exit_on_sigterm() -> None:
    """Turn SIGTERM into ``SystemExit``, so ``finally`` clean-ups run.

    Forked pool workers inherit the handler; in them SIGTERM keeps its
    default meaning.
    """
    owner = os.getpid()

    def handler(signum, _frame):
        if os.getpid() != owner:
            signal.signal(signum, signal.SIG_DFL)
            os.kill(os.getpid(), signum)
            return
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, handler)
