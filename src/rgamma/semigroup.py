"""Numerical semigroups: conductor, gaps, factorizations, plane criterion.

A numerical semigroup is a subset of the nonnegative integers containing 0,
closed under addition, with finite complement.  It is stored by its unique
minimal generating set v_0 < v_1 < ... < v_g together with the conductor c
(least element from which everything onward belongs), the gaps, and the
positive elements below c.

Membership is decided by a sieve up to v_0 * v_g, which exceeds the
Frobenius number of any coprime generating set (Schur's bound gives
F <= (v_0 - 1)(v_g - 1) - 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from .errors import EmptyInput, NonCoprimeGenerators, NotRepresentable


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
            raise ValueError(f"generators must be positive, got {values[0]}")
        g = 0
        for v in values:
            g = gcd(g, v)
        if g != 1:
            raise NonCoprimeGenerators(
                f"generators {values} have gcd {g}; the complement would be infinite"
            )

        bound = values[0] * values[-1]
        member = bytearray(bound + 1)
        member[0] = 1
        for n in range(1, bound + 1):
            for v in values:
                if v <= n and member[n - v]:
                    member[n] = 1
                    break

        frobenius = -1
        for n in range(bound, 0, -1):
            if not member[n]:
                frobenius = n
                break
        conductor = frobenius + 1

        minimal = tuple(
            v
            for v in values
            if not any(member[a] and member[v - a] for a in range(values[0], v - values[0] + 1))
        )
        gaps = tuple(n for n in range(1, conductor) if not member[n])
        elements = tuple(n for n in range(1, conductor) if member[n])
        return cls(minimal, conductor, gaps, elements)

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

    def _validate_indices(self, indices: Optional[Sequence[int]]) -> tuple[int, ...]:
        if indices is None:
            return tuple(range(len(self.generators)))
        subset = tuple(sorted(set(indices)))
        if not subset:
            raise ValueError("generator index subset must be non-empty")
        if subset[0] < 0 or subset[-1] >= len(self.generators):
            raise ValueError(f"generator indices out of range: {indices}")
        return subset

    @cached_property
    def _reach(self) -> dict[tuple[int, ...], list[bytearray]]:
        return {}

    def _prefix_reach(self, subset: tuple[int, ...]) -> list[bytearray]:
        """reach[j][m]: m is a sum of the first j+1 selected generators, for
        m below the conductor; cached per subset."""
        if subset in self._reach:
            return self._reach[subset]
        limit = max(self.conductor - 1, 0)
        sel = [self.generators[i] for i in subset]
        reach: list[bytearray] = []
        for j, v in enumerate(sel):
            row = bytearray(limit + 1)
            prev = reach[j - 1] if j else None
            row[0] = 1
            for m in range(1, limit + 1):
                if prev is not None and prev[m]:
                    row[m] = 1
                elif v <= m and row[m - v]:
                    row[m] = 1
            reach.append(row)
        self._reach[subset] = reach
        return reach

    def subset_elements(self, indices: Optional[Sequence[int]] = None) -> tuple[int, ...]:
        """Positive integers below the conductor representable over a subset
        of the generators (the whole semigroup's elements by default)."""
        subset = self._validate_indices(indices)
        if len(subset) == len(self.generators):
            return self.elements_below_conductor
        if self.conductor <= 1:
            return ()
        reach = self._prefix_reach(subset)[-1]
        return tuple(n for n in range(1, self.conductor) if reach[n])

    def revlex_min_factorization(
        self, n: int, indices: Optional[Sequence[int]] = None
    ) -> tuple[int, ...]:
        """The factorization of n over the (selected) generators that is
        minimal in reverse-lexicographic order.

        Factorizations are exponent tuples (i_0, ..., i_g) with
        sum i_j * v_j = n; the minimal one is found by greedily taking the
        smallest feasible exponent at the highest index first (at the largest
        index where two factorizations differ, the smaller entry wins).
        Only 0 < n < conductor is allowed.
        """
        subset = self._validate_indices(indices)
        if not 0 < n < self.conductor:
            raise NotRepresentable(
                f"{n} is not strictly between 0 and the conductor {self.conductor}"
            )
        reach = self._prefix_reach(subset)
        if not reach[-1][n]:
            sel = [self.generators[i] for i in subset]
            raise NotRepresentable(f"{n} is not a sum of the generators {sel}")

        sel = [self.generators[i] for i in subset]
        exponents = [0] * len(sel)
        m = n
        for j in range(len(sel) - 1, 0, -1):
            k = 0
            while not reach[j - 1][m - k * sel[j]]:
                k += 1
            exponents[j] = k
            m -= k * sel[j]
        exponents[0] = m // sel[0]

        full = [0] * len(self.generators)
        for j, i in enumerate(subset):
            full[i] = exponents[j]
        return tuple(full)


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
