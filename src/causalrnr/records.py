"""Per-process edge records saved from an execution for replay."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from causalrnr.relations import Pair


@dataclass(frozen=True)
class Record:
    per_process: tuple[tuple[int, frozenset[Pair]], ...]

    @classmethod
    def of(cls, edges: Mapping[int, Iterable[Pair]]) -> "Record":
        return cls(tuple((p, frozenset(edges[p])) for p in sorted(edges)))

    @property
    def processes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.per_process)

    def edges(self, process: int) -> frozenset[Pair]:
        for p, e in self.per_process:
            if p == process:
                return e
        return frozenset()

    def all_edges(self) -> Iterator[tuple[int, Pair]]:
        for p, e in self.per_process:
            for pair in sorted(e):
                yield p, pair

    def drop(self, process: int, edge: Pair) -> "Record":
        # the processes stay in order, and the other edge sets are shared
        return Record(
            tuple((p, e - {edge} if p == process else e) for p, e in self.per_process)
        )

    def size(self) -> int:
        return sum(len(e) for _, e in self.per_process)
