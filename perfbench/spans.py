"""In-memory spans around the benchmark's calls into fraglang's layers.

A span records a name, a start, an end, its parent span and a request id.
Spans live in flat arrays until the run ends; nothing is written out while
the workload is being timed.  Self time is a span's duration minus the time
its direct child spans cover (spans nest properly on one thread, so the
children never overlap).
"""

from __future__ import annotations

from array import array
from collections import Counter
from time import perf_counter
from typing import Any, Callable, Iterator


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.useful: Counter[int] = Counter()
        self._open: list[int] = []
        self.request_id = 0

    def new_request(self) -> None:
        self.request_id += 1

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _begin(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.request.append(self.request_id)
        self.end.append(0.0)
        self._open.append(i)
        self.start.append(perf_counter())
        return i

    def _finish(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._open.pop()

    def wrap(self, name: str, fn: Callable, *, outcome: bool = False) -> Callable:
        """``fn`` with a span around every call.

        With ``outcome``, calls that return something other than None are
        counted as useful, for the layer's useful-outcome share.
        """
        nid = self._name_id(name)

        def traced(*args: Any, **kwargs: Any) -> Any:
            i = self._begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._finish(i)
            if outcome and result is not None:
                self.useful[nid] += 1
            return result

        return traced

    def wrap_iter(self, name: str, fn: Callable[..., Iterator]) -> Callable:
        """``fn`` returning an iterator whose every ``next`` is a span."""
        nid = self._name_id(name)

        def traced(*args: Any, **kwargs: Any) -> Iterator:
            return self._iterate(nid, fn(*args, **kwargs))

        return traced

    def _iterate(self, nid: int, it: Iterator) -> Iterator:
        while True:
            i = self._begin(nid)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self._finish(i)
            yield item

    def span_count(self) -> int:
        return len(self.name)

    def by_name(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self seconds, inclusive seconds, useful calls."""
        covered = [0.0] * len(self.name)
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        totals = {
            name: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "useful": self.useful[nid]}
            for nid, name in enumerate(self.names)
        }
        for i, nid in enumerate(self.name):
            entry = totals[self.names[nid]]
            duration = self.end[i] - self.start[i]
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - covered[i]
        return totals
