"""One ordered map over worker processes, shared by every parallel stage.

``ordered_map(fn, context, items, workers)`` yields ``fn(context, item)``
for each item, in item order. With one worker, or fewer than
``2 * workers`` items, it runs in this process and ``context`` is only
ever an argument: starting a pool costs more than so few items save.
Otherwise each pool worker receives ``fn`` and ``context`` once, at
start-up (inherited through fork, not pickled, where the platform
forks), and items and results travel one at a time. Results come in
item order either way, so the outputs are the same. No module global in
this process refers to the context, so it is freed as soon as the map
is exhausted or closed.
"""

from __future__ import annotations

import multiprocessing
from itertools import chain, islice
from typing import Callable, Iterable, Iterator, TypeVar

C = TypeVar("C")
T = TypeVar("T")
R = TypeVar("R")

_WORKER: dict = {}  # set only inside pool workers


def _start_worker(fn, context) -> None:
    _WORKER["fn"] = fn
    _WORKER["context"] = context


def _call(item):
    return _WORKER["fn"](_WORKER["context"], item)


def ordered_map(fn: Callable[[C, T], R], context: C, items: Iterable[T],
                workers: int) -> Iterator[R]:
    """``fn(context, item)`` for each item, in order; ``fn`` must be a
    module-level function when ``workers > 1``."""
    if workers > 1:
        rest = iter(items)
        head = list(islice(rest, 2 * workers))
        items = chain(head, rest)
        if len(head) == 2 * workers:
            with multiprocessing.Pool(workers, initializer=_start_worker,
                                      initargs=(fn, context)) as pool:
                yield from pool.imap(_call, items)
            return
    for item in items:
        yield fn(context, item)
