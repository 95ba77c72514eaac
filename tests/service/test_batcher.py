"""The micro-batcher on its own, with a fake flush function."""

import asyncio
import threading

import pytest

from repro.service.batcher import BatchTask, MicroBatcher

pytestmark = pytest.mark.service


def task(signature: str) -> BatchTask:
    return BatchTask(kind="profile", signature=signature, payload={})


def test_lone_request_on_an_idle_batcher_flushes_at_once():
    async def go():
        batcher = MicroBatcher(lambda tasks: {t.signature: 1 for t in tasks})
        future = batcher.submit(task("a"))
        for _ in range(5):
            if batcher.queue_depth == 0:
                break
            await asyncio.sleep(0)
        depth = batcher.queue_depth
        result = await future
        await batcher.close()
        return depth, result

    assert asyncio.run(go()) == (0, 1)


def test_requests_behind_a_held_flush_go_out_together():
    entered, release = threading.Event(), threading.Event()
    flushed: list[list[str]] = []

    def flush(tasks):
        flushed.append([t.signature for t in tasks])
        entered.set()
        release.wait(timeout=30)
        return {t.signature: t.signature.upper() for t in tasks}

    async def go():
        batcher = MicroBatcher(flush)
        first = batcher.submit(task("a"))
        while not entered.is_set():
            await asyncio.sleep(0.001)
        later = [batcher.submit(task(s)) for s in ("b", "c", "b", "d")]
        release.set()
        results = await asyncio.gather(first, *later)
        await batcher.close()
        return results, batcher.stats

    results, stats = asyncio.run(go())
    assert results == ["A", "B", "C", "B", "D"]
    # One flush held the first request; everything that queued behind
    # it went out in the next, with the duplicate "b" sent once.
    assert flushed == [["a"], ["b", "c", "d"]]
    assert stats.flushes == 2
    assert stats.coalesced == 1
