"""Finite relations over operation ids.

A `Relation` is a value: an explicit, lexicographically ordered universe
plus a set of ordered pairs without self-loops.  The module provides the
toolkit the record constructions build on: transitive closure, the unique
transitive reduction, closing and plain unions, cycle detection and
restriction.

The hot paths (the consistency checks, the view-set descent
`consistency.iter_view_sets` that the oracle and `find_explanation`
share, with its placement engine `search.iter_extensions`, the race
analysis of `race_record` and the view completion
`oracle.extend_to_views`) do not build `Relation`s:
they work on bitmask rows over the index each `model.Program` interns
once, where bit k stands for the k-th operation id in sorted order, and
close, cycle-check and reduce them with the pure-Python `kernels`, as
the functions here do over a relation's own rows.  Only
`oracle.enumerate_certifying` builds one `Relation` per process and
query, to validate and close program order with the record's edges
apart from the goodness verdicts.  `pairs_of_rows` turns rows back into
id pairs; id pairs are materialised only at the boundaries: text
I/O, DOT output, `Record`s, `Violation` messages and public return values
such as `consistency.strong_causal_order`.

Two conventions apply throughout the package:

* Closing a cyclic union never materialises reflexive pairs; cyclicity
  is reported by `has_cycle` instead.
* The universe is always explicit, so an empty relation over a nonempty
  carrier set is representable and iteration order is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

from causalrnr import kernels
from causalrnr.errors import CyclicInput

Pair = tuple[str, str]


@dataclass(frozen=True)
class Relation:
    universe: tuple[str, ...]
    pairs: frozenset[Pair] = field(default_factory=frozenset)

    def __post_init__(self):
        universe = tuple(sorted(set(self.universe)))
        object.__setattr__(self, "universe", universe)
        pairs = frozenset(self.pairs)
        object.__setattr__(self, "pairs", pairs)
        carrier = set(universe)
        for a, b in pairs:
            if a == b:
                raise ValueError(f"self-loop ({a}, {b}) is not representable")
            if a not in carrier or b not in carrier:
                raise ValueError(f"pair ({a}, {b}) escapes the universe")

    @classmethod
    def empty(cls, universe: Iterable[str]) -> "Relation":
        return cls(tuple(universe), frozenset())

    @classmethod
    def from_pairs(cls, universe: Iterable[str], pairs: Iterable[Pair]) -> "Relation":
        return cls(tuple(universe), frozenset(pairs))

    @classmethod
    def total(cls, sequence: Iterable[str]) -> "Relation":
        """The (closed) total order that lists `sequence` left to right."""
        seq = list(sequence)
        pairs = {(a, b) for i, a in enumerate(seq) for b in seq[i + 1 :]}
        return cls(tuple(seq), frozenset(pairs))

    @cached_property
    def sorted_pairs(self) -> tuple[Pair, ...]:
        return tuple(sorted(self.pairs))

    @cached_property
    def _index(self) -> dict[str, int]:
        return {o: i for i, o in enumerate(self.universe)}

    def rows(self) -> list[int]:
        idx = self._index
        rows = [0] * len(self.universe)
        for a, b in self.pairs:
            rows[idx[a]] |= 1 << idx[b]
        return rows

    def _from_rows(self, rows: list[int]) -> "Relation":
        return Relation(self.universe, pairs_of_rows(self.universe, rows))

    def __contains__(self, pair: Pair) -> bool:
        return pair in self.pairs

    def __len__(self) -> int:
        return len(self.pairs)

    def is_transitive(self) -> bool:
        return self == transitive_closure(self)

    def is_partial_order(self) -> bool:
        """Irreflexive, antisymmetric and transitive, checkable by scan."""
        if any((b, a) in self.pairs for a, b in self.pairs):
            return False
        return self.is_transitive() and not has_cycle(self)

    def is_total_order(self) -> bool:
        if not self.is_partial_order():
            return False
        u = self.universe
        return all(
            (a, b) in self.pairs or (b, a) in self.pairs
            for i, a in enumerate(u)
            for b in u[i + 1 :]
        )

    def as_sequence(self) -> tuple[str, ...]:
        """The element listing of a total order."""
        if not self.is_total_order():
            raise ValueError("relation is not a total order")
        idx = self._index
        rows = self.rows()
        return tuple(sorted(self.universe, key=lambda o: -bin(rows[idx[o]]).count("1")))


def pairs_of_rows(ids: tuple[str, ...], rows) -> frozenset[Pair]:
    """The id pairs of bitmask rows over `ids`: bit j of row i is the pair
    (ids[i], ids[j]).  Self-loops are dropped; cyclicity is carried by
    `has_cycle`, not by reflexive pairs."""
    pairs = set()
    for i, row in enumerate(rows):
        row &= ~(1 << i)
        while row:
            low = row & -row
            pairs.add((ids[i], ids[low.bit_length() - 1]))
            row ^= low
    return frozenset(pairs)


def transitive_closure(r: Relation) -> Relation:
    return r._from_rows(kernels.closure_rows(r.rows()))


def has_cycle(r: Relation) -> bool:
    return kernels.has_cycle_rows(r.rows())


def transitive_reduction(r: Relation) -> Relation:
    """Unique minimal edge set whose closure equals the closure of `r`."""
    closed = kernels.closure_rows(r.rows())
    if any((closed[i] >> i) & 1 for i in range(len(closed))):
        raise CyclicInput("transitive reduction requires an acyclic relation")
    return r._from_rows(kernels.reduction_rows(closed))


def union_closed(*relations: Relation) -> Relation:
    """Union with the transitive closure.  May relate a pair both ways;
    callers must consult `has_cycle`."""
    universe = sorted(set().union(*(r.universe for r in relations)))
    pairs = frozenset().union(*(r.pairs for r in relations))
    return transitive_closure(Relation(tuple(universe), pairs))


def disjoint_union(*relations: Relation) -> Relation:
    """Plain edge union, no closure."""
    universe = sorted(set().union(*(r.universe for r in relations)))
    pairs = frozenset().union(*(r.pairs for r in relations))
    return Relation(tuple(universe), pairs)


def restrict(r: Relation, subset: Iterable[str]) -> Relation:
    keep = set(subset)
    stray = keep - set(r.universe)
    if stray:
        raise ValueError(f"restriction set escapes the universe: {sorted(stray)}")
    pairs = {(a, b) for a, b in r.pairs if a in keep and b in keep}
    return Relation(tuple(sorted(keep)), frozenset(pairs))
