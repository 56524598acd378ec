"""Independent items (oracle grid points, CLI chains) on forked processes, one per usable core."""

from __future__ import annotations

import os
import warnings

_FN = None  # the function being mapped; fork, unlike spawn, hands closures to the children unpickled


def _call(item):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            outcome = _FN(item), None
        except Exception as exc:  # handed back with the warnings issued before it
            outcome = None, exc
    return *outcome, [(w.message, w.category, w.filename, w.lineno) for w in caught]


def fork_map(fn, items) -> list:
    """[fn(x) for x in items], in item order, on up to one forked process per usable core.

    Runs inline on one core or one item, inside another fork_map, or where
    the platform cannot fork.  A child's exception is raised here at its
    item, and the children's warnings are re-issued here in item order.

    >>> fork_map(abs, [-3, 1, -2])
    [3, 1, 2]
    """
    global _FN
    items = list(items)
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    processes = min(len(items), cores)
    if processes < 2 or _FN is not None or not hasattr(os, "fork"):
        return [fn(x) for x in items]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    _FN = fn
    results, registry = [], {}  # one warning registry per map, as the warnings of one loop share one
    try:
        with ProcessPoolExecutor(processes, mp_context=multiprocessing.get_context("fork")) as pool:
            for result, error, caught in pool.map(_call, items):
                for message, category, filename, lineno in caught:
                    warnings.warn_explicit(message, category, filename, lineno, registry=registry)
                if error is not None:
                    raise error
                results.append(result)
    finally:
        _FN = None
    return results
