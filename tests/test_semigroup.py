"""Numerical semigroups: construction, membership, factorizations."""

import math
import random

import pytest

from conftest import (
    all_factorizations,
    naive_conductor_and_gaps,
    random_semigroup,
    sieve_members,
)
from rgamma import (
    DomainError,
    EmptyInput,
    InvalidIndices,
    NonCoprimeGenerators,
    NonPositiveGenerator,
    NotRepresentable,
    NumericalSemigroup,
    from_generators,
    is_plane_semigroup,
)

# generating sets random draws rarely give: 1, duplicates, redundant
# generators, multiples of v_0, and generators sharing a factor with v_0
# (some after a coprime one, so a residue cycle's least entry is not at
# its first residue)
EDGE_GENERATORS = (
    (1,), (1, 7), (13, 4, 6, 4, 13), (4, 6, 13, 17, 8, 12), (5, 10, 15, 7),
    (6, 9, 19), (12, 15, 17), (9, 12, 15, 19, 22, 25, 35), (6, 11, 15),
    (6, 9, 10), (10, 25, 14, 35, 21),
)


def generator_lists(rng, count, max_multiplicity=40):
    """EDGE_GENERATORS, then random coprime generating sets with
    multiplicity up to max_multiplicity, each with a duplicate, a sum of
    two generators or a multiple of v_0 mixed in, in shuffled order."""
    lists = [list(gens) for gens in EDGE_GENERATORS]
    while len(lists) < count:
        a = rng.randint(2, max_multiplicity)
        gens = [a] + [rng.randint(a + 1, 2 * a + 3) for _ in range(rng.randint(1, 4))]
        if math.gcd(*gens) != 1:
            continue
        extra = rng.choice(
            (rng.choice(gens), gens[0] + gens[-1], a * rng.randint(2, 3))
        )
        gens.append(extra)
        rng.shuffle(gens)
        lists.append(gens)
    return lists


class TestFromGenerators:
    def test_known_small(self):
        gamma = from_generators([4, 6, 13])
        assert gamma.generators == (4, 6, 13)
        assert gamma.conductor == 16
        assert gamma.gaps == (1, 2, 3, 5, 7, 9, 11, 15)
        assert gamma.elements_below_conductor == (4, 6, 8, 10, 12, 13, 14)
        assert gamma.genus == 8
        assert gamma.multiplicity == 4
        assert str(gamma) == "<4,6,13>"

    def test_two_generators(self):
        gamma = from_generators([2, 5])
        assert gamma.conductor == 4
        assert gamma.gaps == (1, 3)

    def test_whole_numbers(self):
        gamma = from_generators([1])
        assert gamma.generators == (1,)
        assert gamma.conductor == 0
        assert gamma.gaps == ()
        assert gamma.elements_below_conductor == ()

    def test_redundant_generators_dropped(self):
        assert from_generators([4, 6, 13, 17]).generators == (4, 6, 13)
        assert from_generators([3, 6, 2]).generators == (2, 3)
        assert from_generators([5, 10, 15, 7]).generators == (5, 7)

    def test_duplicates_and_order_ignored(self):
        assert from_generators([13, 4, 6, 4]) == from_generators([4, 6, 13])

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            from_generators([])

    def test_non_coprime_rejected(self):
        with pytest.raises(NonCoprimeGenerators):
            from_generators([4, 6])
        with pytest.raises(NonCoprimeGenerators):
            from_generators([6, 9, 21])

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            from_generators([0, 3])
        with pytest.raises(ValueError):
            from_generators([-2, 3])

    def test_nonpositive_rejection_is_typed(self):
        assert issubclass(NonPositiveGenerator, DomainError)
        assert issubclass(NonPositiveGenerator, ValueError)
        for raw in ([0, 3], [-2, 3], [0]):
            with pytest.raises(NonPositiveGenerator):
                from_generators(raw)

    def test_against_sieve_randomized(self):
        """Conductor, gaps and elements agree with a sieve over the raw
        input, so no generator needed for the semigroup was dropped."""
        rng = random.Random(2024)
        inputs = [
            random_semigroup(rng, max_conductor=80).generators for _ in range(40)
        ] + generator_lists(rng, 40)
        for raw in inputs:
            gamma = from_generators(raw)
            conductor, gaps = naive_conductor_and_gaps(raw)
            assert gamma.conductor == conductor
            assert list(gamma.gaps) == gaps
            assert gamma.elements_below_conductor == tuple(
                n for n in range(1, conductor) if n not in gaps
            )
            assert set(gamma.generators) <= set(raw)

    def test_minimality_randomized(self):
        """No minimal generator is a sum of the others (checked by a sieve),
        so dropping any of them changes the semigroup."""
        rng = random.Random(77)
        inputs = [
            random_semigroup(rng, max_conductor=200).generators for _ in range(40)
        ] + generator_lists(rng, 40)
        seen = 0
        for raw in inputs:
            gamma = from_generators(raw)
            if len(gamma.generators) < 2:
                continue
            seen += 1
            for i, v in enumerate(gamma.generators):
                rest = gamma.generators[:i] + gamma.generators[i + 1:]
                assert not sieve_members(rest, v + 1)[v]
        assert seen > 20


class TestMembership:
    def test_known_points(self):
        gamma = from_generators([4, 6, 13])
        assert gamma.contains(0)
        assert not gamma.contains(15)
        assert gamma.contains(16)
        assert gamma.contains(100)
        assert not gamma.contains(-4)
        assert gamma.contains(12)

    def test_partition_below_conductor(self):
        rng = random.Random(3)
        for _ in range(25):
            gamma = random_semigroup(rng)
            both = sorted(gamma.gaps + gamma.elements_below_conductor)
            assert both == list(range(1, gamma.conductor))
            assert not set(gamma.gaps) & set(gamma.elements_below_conductor)

    def test_contains_matches_sieve(self):
        rng = random.Random(11)
        for _ in range(20):
            gamma = random_semigroup(rng)
            bound = gamma.conductor + 10
            member = sieve_members(gamma.generators, bound)
            for n in range(bound):
                assert gamma.contains(n) == member[n]

    def test_gaps_above(self):
        gamma = from_generators([4, 6, 13])
        assert gamma.gaps_above(4) == (5, 7, 9, 11, 15)
        assert gamma.gaps_above(13) == (15,)
        assert gamma.gaps_above(15) == ()

    def test_ambient_dimension_known(self):
        assert from_generators([4, 6, 13]).ambient_dimension() == 10
        assert from_generators([9, 16, 19]).ambient_dimension() == 53
        assert from_generators([8, 9, 10, 11]).ambient_dimension() == 20
        assert from_generators([3, 5]).ambient_dimension() == 3
        assert from_generators([1]).ambient_dimension() == 0


class TestFactorization:
    def test_known_values(self):
        gamma = from_generators([4, 6, 13])
        assert gamma.revlex_min_factorization(12) == (3, 0, 0)
        assert gamma.revlex_min_factorization(13) == (0, 0, 1)
        assert gamma.revlex_min_factorization(14) == (2, 1, 0)

    def test_unrepresentable(self):
        gamma = from_generators([4, 6, 13])
        with pytest.raises(NotRepresentable):
            gamma.revlex_min_factorization(15)
        with pytest.raises(NotRepresentable):
            gamma.revlex_min_factorization(0)

    def test_sum_property_randomized(self):
        rng = random.Random(41)
        for _ in range(20):
            gamma = random_semigroup(rng)
            for n in gamma.elements_below_conductor:
                vec = gamma.revlex_min_factorization(n)
                assert sum(e * v for e, v in zip(vec, gamma.generators)) == n

    def test_revlex_minimality_brute_force(self):
        """At the largest differing index the chosen vector is smaller, over
        the whole generating set, the full index subset and random subsets;
        integers without a factorization over a subset are rejected."""
        rng = random.Random(43)
        for _ in range(15):
            gamma = random_semigroup(rng, max_conductor=30)
            for n in gamma.elements_below_conductor:
                vecs = all_factorizations(gamma.generators, n)
                expected = min(vecs, key=lambda v: tuple(reversed(v)))
                assert gamma.revlex_min_factorization(n) == expected
            count = len(gamma.generators)
            subsets = [tuple(range(count))] + [
                tuple(sorted(rng.sample(range(count), rng.randint(1, count))))
                for _ in range(3)
            ]
            for subset in subsets:
                selected = [gamma.generators[i] for i in subset]
                reachable = []
                for n in range(1, gamma.conductor):
                    vecs = all_factorizations(selected, n)
                    if not vecs:
                        with pytest.raises(NotRepresentable):
                            gamma.revlex_min_factorization(n, subset)
                        continue
                    reachable.append(n)
                    best = min(vecs, key=lambda v: tuple(reversed(v)))
                    expected = [0] * count
                    for i, e in zip(subset, best):
                        expected[i] = e
                    assert gamma.revlex_min_factorization(n, subset) == tuple(expected)
                assert gamma.subset_elements(subset) == tuple(reachable)

    def test_subset_restriction(self):
        gamma = from_generators([4, 6, 13])
        assert gamma.subset_elements((0, 1)) == (4, 6, 8, 10, 12, 14)
        assert gamma.subset_elements((0,)) == (4, 8, 12)
        assert gamma.subset_elements((2,)) == (13,)
        assert gamma.subset_elements() == gamma.elements_below_conductor

    def test_subset_factorization_avoids_excluded(self):
        gamma = from_generators([4, 6, 13])
        vec = gamma.revlex_min_factorization(12, (0, 1))
        assert vec == (3, 0, 0)
        with pytest.raises(NotRepresentable):
            gamma.revlex_min_factorization(13, (0, 1))

    def test_subset_validation(self):
        gamma = from_generators([4, 6, 13])
        with pytest.raises(ValueError):
            gamma.subset_elements(())
        with pytest.raises(ValueError):
            gamma.subset_elements((0, 3))

    def test_subset_validation_is_typed(self):
        gamma = from_generators([4, 6, 13])
        assert issubclass(InvalidIndices, DomainError)
        assert issubclass(InvalidIndices, ValueError)
        for indices in ((), (0, 3), (-1,)):
            with pytest.raises(InvalidIndices):
                gamma.subset_elements(indices)
        with pytest.raises(InvalidIndices):
            gamma.revlex_min_factorization(12, (3,))

    def test_table_bound_and_cache(self):
        gamma = from_generators([4, 6, 13])
        table = gamma.factorization_table((1, 2), 40)
        assert len(table) == 40
        assert table[0] == (0, 0, 0)
        assert table[4] is None
        assert table[32] == (0, 1, 2)
        assert table[39] == (0, 0, 3)
        assert gamma.factorization_table((2, 1, 2), 40) is table
        assert len(gamma.factorization_table()) == gamma.conductor


class TestPlaneCriterion:
    def test_known_positive(self):
        report = is_plane_semigroup(from_generators([4, 6, 13]))
        assert report.is_plane
        assert report.e_sequence == (4, 2, 1)
        assert report.condition_i
        assert report.condition_ii_failures == ()

    def test_known_negative_spacing(self):
        report = is_plane_semigroup(from_generators([4, 6, 11]))
        assert not report.is_plane
        assert report.e_sequence == (4, 2, 1)
        assert report.condition_ii_failures == (2,)

    def test_known_negative_gcd_chain(self):
        report = is_plane_semigroup(from_generators([9, 16, 19]))
        assert not report.is_plane
        assert not report.condition_i
        assert report.e_sequence == (9, 1, 1)

    def test_two_generators_always_plane(self):
        for pair in ((2, 5), (3, 5), (3, 7), (4, 9)):
            assert is_plane_semigroup(from_generators(pair)).is_plane

    def test_verdict_consistency_randomized(self):
        rng = random.Random(53)
        for _ in range(30):
            gamma = random_semigroup(rng)
            report = is_plane_semigroup(gamma)
            assert report.is_plane == (
                report.condition_i and not report.condition_ii_failures
            )
            assert len(report.e_sequence) == len(gamma.generators)
            assert report.e_sequence[-1] == 1
