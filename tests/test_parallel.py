import gc
import weakref

import pytest

from tweetcorpus.parallel import ordered_map


class Context:
    def __init__(self, offset):
        self.offset = offset


def _shift(context, item):
    return item + context.offset


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_results_come_back_in_item_order(workers):
    items = list(range(37))
    assert list(ordered_map(_shift, Context(100), iter(items), workers)) == [
        i + 100 for i in items]


@pytest.mark.parametrize("workers", [1, 3])
def test_fewer_items_than_workers(workers):
    assert list(ordered_map(_shift, Context(1), [5], workers)) == [6]
    assert list(ordered_map(_shift, Context(1), [], workers)) == []


def test_context_is_released_after_the_map():
    context = Context(0)
    ref = weakref.ref(context)
    assert list(ordered_map(_shift, context, [1, 2], 1)) == [1, 2]
    del context
    assert ref() is None


def test_context_is_released_when_the_map_is_closed_early():
    context = Context(0)
    ref = weakref.ref(context)
    results = ordered_map(_shift, context, range(10), 2)
    assert next(results) == 0
    results.close()
    del context, results
    gc.collect()
    assert ref() is None
