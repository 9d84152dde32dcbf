"""Queue disciplines at (shared) microservice containers.

Two disciplines from the paper:

* FCFS — the Kubernetes default: one queue, arrival order.
* δ-probabilistic priority (paper §5.3.2) — one queue per service priority
  rank; when a thread frees, the highest-priority non-empty queue is served
  with probability ``1 − δ``, the next with ``δ(1 − δ)``, and so on, the
  geometric tail going to the lowest-priority non-empty queue.  A small δ
  (the paper uses 0.05) protects low-priority services from starvation at
  a negligible cost to high-priority tail latency (paper Fig. 9).

The queue protocol
------------------

A container's queue is any object with three operations: ``append(call)``
to admit a waiting call (``call.service`` names the service it belongs
to), ``popleft()`` to hand out the next call to process (only called on a
non-empty queue), and ``len`` / truthiness for the number waiting.
``collections.deque`` already is that protocol, so FCFS is a bare deque
and has no class here; :class:`PriorityQueuePolicy` implements it for
δ-priority.  A custom discipline is any object with the three operations
returned from ``ClusterSimulator._make_queue``.

:class:`PriorityQueuePolicy` keeps its rank queues in a list in rank
order; the list is rebuilt only when a call of a rank not seen before is
appended, so ``popleft`` is one scan over it.  ``popleft`` draws one
uniform from the RNG for every non-empty rank it considers *except the
last* — none at all when a single rank has calls waiting — which is what
lets the engine start a call directly on an idle container without
consulting the policy: the draw sequence, and so every sample stream, is
the same either way.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Mapping, Optional

import numpy as np


class PriorityQueuePolicy:
    """Erms' δ-probabilistic priority scheduling (paper §5.3.2).

    Args:
        ranks: Priority rank per service name; rank 0 is served first.
            Services not listed default to the lowest known rank + 1.
        delta: The δ parameter; 0 gives strict priority.
        rng: Random generator for the probabilistic choice.
    """

    def __init__(
        self,
        ranks: Mapping[str, int],
        delta: float = 0.05,
        rng: Optional[np.random.Generator] = None,
    ):
        if not 0.0 <= delta < 1.0:
            raise ValueError(f"delta must be in [0, 1), got {delta}")
        self.ranks = dict(ranks)
        self.delta = delta
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._default_rank = (max(self.ranks.values()) + 1) if self.ranks else 0
        self._queues: Dict[int, Deque[Any]] = {}
        self._by_rank: List[Deque[Any]] = []  # the same queues, rank 0 first
        self._size = 0

    def append(self, call: Any) -> None:
        """Admit ``call`` to the queue of ``call.service``'s rank."""
        rank = self.ranks.get(call.service, self._default_rank)
        queue = self._queues.get(rank)
        if queue is None:
            queue = self._queues[rank] = deque()
            self._by_rank = [self._queues[r] for r in sorted(self._queues)]
        queue.append(call)
        self._size += 1

    def popleft(self) -> Any:
        """Hand out the next call to process (``IndexError`` when empty)."""
        # A non-empty rank is served with probability 1 − δ when a later
        # rank also has calls; the last non-empty rank takes what is left
        # and costs no draw.
        chosen = None
        for queue in self._by_rank:
            if queue:
                if chosen is not None and self._rng.random() < 1.0 - self.delta:
                    break
                chosen = queue
        if chosen is None:
            raise IndexError("popleft from an empty queue")
        self._size -= 1
        return chosen.popleft()

    def __len__(self) -> int:
        return self._size
