"""Virtual-time weighted fair queuing over priority classes.

The admission queue is not FIFO: each admitted request is stamped with a
WFQ *finish tag* ``max(V, last_finish[class]) + cost / weight`` and the
dispatcher always pops the smallest tag.  Classes with larger weights
accumulate virtual time more slowly per request, so under contention a
class with weight 4 drains ~4x as many requests as a class with weight 1
— the textbook fluid-fair approximation.

Determinism: ties on the finish tag are broken by a monotonically
increasing push sequence number, so the pop order is a pure function of
the push order — never of hash order or float noise.
"""

from __future__ import annotations

import heapq
from typing import Any, Mapping

__all__ = ["WeightedFairQueue"]


class WeightedFairQueue:
    """A single shared queue with per-class weighted fair ordering."""

    def __init__(self, weights: Mapping[str, float]):
        if not weights:
            raise ValueError("need at least one class weight")
        for name, weight in weights.items():
            if weight <= 0:
                raise ValueError(f"class {name!r} weight must be positive")
        self._weights = dict(weights)
        self._virtual = 0.0  # system virtual time V
        self._last_finish = {name: 0.0 for name in weights}
        self._heap: list[tuple[float, int, str, Any]] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(self, class_name: str, item: Any, cost: float = 1.0) -> float:
        """Enqueue ``item`` under ``class_name``; returns its finish tag."""
        weight = self._weights[class_name]
        if cost <= 0:
            raise ValueError("cost must be positive")
        start = max(self._virtual, self._last_finish[class_name])
        finish = start + cost / weight
        self._last_finish[class_name] = finish
        heapq.heappush(self._heap, (finish, self._seq, class_name, item))
        self._seq += 1
        return finish

    def pop(self) -> tuple[str, Any]:
        """Dequeue the smallest-finish-tag request as ``(class, item)``.

        Popped tags are nondecreasing (each class's tags increase, and the
        heap always yields the global minimum), so advancing V to the
        popped tag keeps virtual time monotonic.
        """
        if not self._heap:
            raise IndexError("pop from empty WeightedFairQueue")
        finish, _seq, class_name, item = heapq.heappop(self._heap)
        if finish > self._virtual:
            self._virtual = finish
        return class_name, item
