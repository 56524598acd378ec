"""Independent items (CLI chains, CSV blocks) on forked processes, one per usable core."""

from __future__ import annotations

import os
import warnings
from collections import deque
from itertools import islice

_FN = None  # the function being mapped; fork, unlike spawn, hands closures to the children unpickled


def _call(item):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            outcome = _FN(item), None
        except Exception as exc:  # handed back with the warnings issued before it
            outcome = None, exc
    return *outcome, [(w.message, w.category, w.filename, w.lineno) for w in caught]


def fork_imap(fn, items):
    """Yield fn(x) for x in items, in item order, computed on up to one forked process per usable core.

    Runs inline on one core or one item, inside another map (or while a
    forked one is open), or where the platform cannot fork.  At most two
    items per process are in flight ahead of the consumer.  A child's
    exception is raised here at its item, and the children's warnings are
    re-issued here in item order.  Closing the generator early cancels the
    items not yet started.

    >>> list(fork_imap(abs, [-3, 1, -2]))
    [3, 1, 2]
    """
    global _FN
    items = list(items)
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    processes = min(len(items), cores)
    if processes < 2 or _FN is not None or not hasattr(os, "fork"):
        yield from map(fn, items)
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    _FN = fn
    registry = {}  # one warning registry per map, as the warnings of one loop share one
    try:
        pool = ProcessPoolExecutor(processes, mp_context=multiprocessing.get_context("fork"))
        try:
            todo = iter(items)
            pending = deque(pool.submit(_call, x) for x in islice(todo, 2 * processes))
            while pending:
                result, error, caught = pending.popleft().result()
                pending.extend(pool.submit(_call, x) for x in islice(todo, 1))
                for message, category, filename, lineno in caught:
                    warnings.warn_explicit(message, category, filename, lineno, registry=registry)
                if error is not None:
                    raise error
                yield result
        finally:
            pool.shutdown(cancel_futures=True)
    finally:
        _FN = None


def fork_map(fn, items) -> list:
    """[fn(x) for x in items], computed as fork_imap computes them."""
    return list(fork_imap(fn, items))
