"""Numerical semigroups: conductor, gaps, factorizations, plane criterion.

A numerical semigroup is a subset of the nonnegative integers containing 0,
closed under addition, with finite complement.  It is stored by its unique
minimal generating set v_0 < v_1 < ... < v_g together with the conductor c
(least element from which everything onward belongs), the gaps, and the
positive elements below c.

Construction builds the Apery set for a = v_0, least[r] = the least element
congruent to r mod a, by the round-robin algorithm (Boecker & Liptak,
Algorithmica 48, 2007) in O(a) steps per generator: b is redundant when
least[b % a] <= b already, c = max(least) - a + 1, and n < least[n % a]
exactly when n is a gap.

Factorizations come from one table per generator subset and bound,
factorization_table, cached on the semigroup: subset membership, both
reduction walks and the three-generator relation ideal read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd, inf, lcm
from typing import Iterable, Optional, Sequence

from .errors import (
    EmptyInput,
    InvalidIndices,
    NonCoprimeGenerators,
    NonPositiveGenerator,
    NotRepresentable,
)


@dataclass(frozen=True)
class PlaneCriterionReport:
    """Outcome of the numeric test for being the semigroup of a plane branch.

    With e_0 = v_0 and e_i = gcd(e_{i-1}, v_i), the semigroup is plane iff
    (i) e_1 > e_2 > ... > e_g = 1 and (ii) v_i > lcm(e_{i-2}, v_{i-1}) for
    every i in 2..g.  ``condition_ii_failures`` lists the indices i where
    (ii) fails.
    """

    e_sequence: tuple[int, ...]
    condition_i: bool
    condition_ii_failures: tuple[int, ...]
    is_plane: bool


@dataclass(frozen=True)
class NumericalSemigroup:
    generators: tuple[int, ...]
    conductor: int
    gaps: tuple[int, ...]
    elements_below_conductor: tuple[int, ...]

    @cached_property
    def _element_set(self) -> frozenset[int]:
        return frozenset(self.elements_below_conductor)

    @cached_property
    def gap_set(self) -> frozenset[int]:
        return frozenset(self.gaps)

    @property
    def multiplicity(self) -> int:
        return self.generators[0]

    @property
    def genus(self) -> int:
        return len(self.gaps)

    def __str__(self) -> str:
        return "<" + ",".join(str(v) for v in self.generators) + ">"

    # -- construction --------------------------------------------------

    @classmethod
    def from_generators(cls, raw: Iterable[int]) -> "NumericalSemigroup":
        """Build from any generating set; redundant generators are dropped."""
        values = sorted(set(raw))
        if not values:
            raise EmptyInput("at least one generator is required")
        if values[0] < 1:
            raise NonPositiveGenerator(f"generators must be positive, got {values[0]}")
        g = gcd(*values)
        if g != 1:
            raise NonCoprimeGenerators(
                f"generators {values} have gcd {g}; the complement would be infinite"
            )

        # round-robin: each generator b walks every residue cycle of + b
        # mod a once, starting from the cycle's least entry
        a = values[0]
        least = [0] + [inf] * (a - 1)
        minimal = [a]
        for b in values[1:]:
            if least[b % a] <= b:
                continue
            minimal.append(b)
            d = gcd(a, b)
            for p in range(d):
                n = min(least[p::d])
                if n == inf:
                    continue
                for _ in range(a // d - 1):
                    n += b
                    r = n % a
                    n = least[r] = min(n, least[r])

        conductor = max(least) - a + 1
        gaps = tuple(n for n in range(1, conductor) if n < least[n % a])
        elements = tuple(n for n in range(1, conductor) if n >= least[n % a])
        return cls(tuple(minimal), conductor, gaps, elements)

    # -- membership and dimensions --------------------------------------

    def contains(self, n: int) -> bool:
        if n < 0:
            return False
        return n == 0 or n >= self.conductor or n in self._element_set

    def gaps_above(self, v: int) -> tuple[int, ...]:
        return tuple(d for d in self.gaps if d > v)

    def ambient_dimension(self) -> int:
        """Total coefficient count of the normal-form template."""
        return sum(len(self.gaps_above(v)) for v in self.generators)

    # -- factorizations -------------------------------------------------

    @cached_property
    def _tables(self) -> dict[tuple[tuple[int, ...], int], list]:
        return {}

    def factorization_table(
        self, indices: Optional[Sequence[int]] = None, bound: Optional[int] = None
    ) -> list[Optional[tuple[int, ...]]]:
        """table[m], for 0 <= m < bound (default: the conductor), is the
        factorization (i_0, ..., i_g), sum i_j * v_j = m, over the selected
        generators that is minimal in reverse-lexicographic order (at the
        largest index where two differ, the smaller entry wins), or None.

        One pass per selected generator v_i, in index order: m keeps the
        factorization it has over the earlier ones (exponent 0 at i is
        least); otherwise it takes m - v_i's with one more v_i."""
        g = len(self.generators)
        subset = tuple(range(g)) if indices is None else tuple(sorted(set(indices)))
        if not subset or subset[0] < 0 or subset[-1] >= g:
            raise InvalidIndices(f"need a non-empty subset of 0..{g - 1}, got {indices}")
        limit = self.conductor if bound is None else bound
        table = self._tables.get((subset, limit))
        if table is None:
            table = [None] * max(limit, 1)
            table[0] = (0,) * g
            for i in subset:
                v = self.generators[i]
                for m in range(v, len(table)):
                    e = table[m - v]
                    if table[m] is None and e is not None:
                        table[m] = e[:i] + (e[i] + 1,) + e[i + 1:]
            self._tables[subset, limit] = table
        return table

    def subset_elements(self, indices: Optional[Sequence[int]] = None) -> tuple[int, ...]:
        """Positive integers below the conductor representable over a subset
        of the generators (the whole semigroup's elements by default)."""
        table = self.factorization_table(indices)
        return tuple(n for n in range(1, len(table)) if table[n] is not None)

    def revlex_min_factorization(
        self, n: int, indices: Optional[Sequence[int]] = None
    ) -> tuple[int, ...]:
        """The revlex-minimal factorization of n over the (selected)
        generators, read from factorization_table.  Only
        0 < n < conductor is allowed."""
        table = self.factorization_table(indices)
        if not 0 < n < self.conductor:
            raise NotRepresentable(
                f"{n} is not strictly between 0 and the conductor {self.conductor}"
            )
        if table[n] is None:
            chosen = range(len(self.generators)) if indices is None else indices
            sel = sorted({self.generators[i] for i in chosen})
            raise NotRepresentable(f"{n} is not a sum of the generators {sel}")
        return table[n]


def from_generators(raw: Iterable[int]) -> NumericalSemigroup:
    return NumericalSemigroup.from_generators(raw)


def is_plane_semigroup(gamma: NumericalSemigroup) -> PlaneCriterionReport:
    """Numeric criterion for Gamma to be the value semigroup of an
    irreducible plane curve germ (characteristic-sequence test)."""
    vs = gamma.generators
    e = [vs[0]]
    for v in vs[1:]:
        e.append(gcd(e[-1], v))

    condition_i = e[-1] == 1 and all(e[i] > e[i + 1] for i in range(1, len(e) - 1))
    failures = tuple(
        i for i in range(2, len(vs)) if vs[i] <= lcm(e[i - 2], vs[i - 1])
    )
    return PlaneCriterionReport(
        e_sequence=tuple(e),
        condition_i=condition_i,
        condition_ii_failures=failures,
        is_plane=condition_i and not failures,
    )
