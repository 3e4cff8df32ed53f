"""Submission/completion queue pairs.

A :class:`QueuePair` couples a bounded submission queue with an unbounded
completion queue.  ``submit`` enqueues (blocking when the SQ is full —
doorbell back-pressure) and ``wait`` blocks until the matching completion
arrives.  ``call`` is the common submit-and-wait helper.
"""

from __future__ import annotations

from typing import Generator

from repro.nvme.commands import NvmeCommand, NvmeCompletion
from repro.sim import Simulator, Store

__all__ = ["QueuePair"]


class QueuePair:
    """One SQ/CQ pair."""

    def __init__(self, sim: Simulator, qid: int = 0, depth: int = 64, name: str = "qp"):
        if depth < 1:
            raise ValueError("queue depth must be >= 1")
        self.sim = sim
        self.qid = qid
        self.depth = depth
        self.name = name
        self.sq: Store = Store(sim, capacity=depth, name=f"{name}{qid}.sq")
        self.cq: Store = Store(sim, name=f"{name}{qid}.cq")
        self.submitted = 0
        self.completed = 0

    def submit(self, command: NvmeCommand) -> Generator:
        """Ring the doorbell; blocks while the SQ is full."""
        yield self.sq.put((self.sim.now, command))
        self.submitted += 1
        return None

    def fetch(self) -> Generator:
        """Controller side: next ``(submit_time, command)``."""
        item = yield self.sq.get()
        return item

    def post(self, completion: NvmeCompletion) -> Generator:
        """Controller side: deliver a completion."""
        yield self.cq.put(completion)
        self.completed += 1
        return None

    def wait(self, cid: int) -> Generator:
        """Host side: block until the completion for ``cid`` arrives."""
        completion = yield self.cq.get(filter=lambda c: c.cid == cid)
        return completion

    def call(self, command: NvmeCommand) -> Generator:
        """Submit and wait; returns the :class:`NvmeCompletion`."""
        yield from self.submit(command)
        completion = yield from self.wait(command.cid)
        return completion
