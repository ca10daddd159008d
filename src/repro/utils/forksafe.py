"""Process-wide locks that a forked child never inherits held.

``fork`` copies every lock in the state it had at that instant, but only
the forking thread: a lock another thread held then stays held forever
in the child, and the child's first ``with lock:`` blocks for good.  A
:class:`~repro.matrix.parallel.SecureComputePool` forks its workers from
processes that run other threads (connection threads answering metrics
scrapes, key-fetch threads), and the workers decrypt through the same
process-wide caches those threads lock, so each such cache registers
here and every child starts with fresh locks.
"""

from __future__ import annotations

import os
import threading
import weakref

_OWNERS: weakref.WeakSet = weakref.WeakSet()


def renew_lock_after_fork(owner: object) -> None:
    """Give ``owner`` a fresh, unheld ``_lock`` in every forked child.

    ``owner._lock`` must be a plain :class:`threading.Lock`.  Owners are
    held weakly, so registering a short-lived cache keeps nothing alive.
    """
    _OWNERS.add(owner)


def _renew_locks() -> None:
    # the child runs one thread, so no other thread can hold a new lock
    for owner in list(_OWNERS):
        owner._lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_renew_locks)
