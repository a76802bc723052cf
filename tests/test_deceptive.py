"""Deceptive binomials and the three-generator relation ideal."""

import itertools
import random
from collections import deque

import pytest

from conftest import random_semigroup, three_gen_semigroups
from rgamma import (
    DeceptiveBinomial,
    GenMonomial,
    WrongGeneratorCount,
    ZeroPolynomial,
    enumerate_sdec_below_conductor,
    from_generators,
    generator_variable_names,
    idec_generators_3gen,
    is_deceptive,
)
from rgamma.symcore import Poly


def brute_force_pairs(gamma, bound):
    """Every unordered pair of distinct exponent vectors with equal
    weighted degree < bound, by exhaustive enumeration."""
    vs = gamma.generators
    by_degree = {}
    ranges = [range(bound // v + 1) for v in vs]
    for vec in itertools.product(*ranges):
        degree = sum(e * v for e, v in zip(vec, vs))
        if 0 < degree < bound:
            by_degree.setdefault(degree, []).append(vec)
    pairs = set()
    for degree, vecs in by_degree.items():
        for u, w in itertools.combinations(vecs, 2):
            pairs.add((degree, frozenset((u, w))))
    return pairs


def binomial_in_ideal(binomial, ideal):
    """Brute-force ideal membership for a binomial x^A - x^B: connect A
    to B by moves that trade one side of an ideal generator for the other
    (breadth-first search through non-negative exponent vectors)."""
    moves = []
    for f in ideal.binomials:
        u, w = f.lhs.exponents, f.rhs.exponents
        moves.append((u, w))
        moves.append((w, u))
    start = binomial.lhs.exponents
    goal = binomial.rhs.exponents
    seen = {start}
    queue = deque([start])
    while queue:
        current = queue.popleft()
        if current == goal:
            return True
        for u, w in moves:
            if all(c >= x for c, x in zip(current, u)):
                step = tuple(c - x + y for c, x, y in zip(current, u, w))
                if step not in seen:
                    seen.add(step)
                    queue.append(step)
    return False


class TestGenMonomial:
    def test_weighted_degree(self):
        gamma = from_generators([4, 6, 13])
        m = GenMonomial.from_exponents(gamma, (3, 0, 0))
        assert m.weighted_degree == 12
        assert m.exponents == (3, 0, 0)

    def test_render(self):
        gamma = from_generators([4, 6, 13])
        assert GenMonomial.from_exponents(gamma, (0, 2, 0)).render() == "y^2"
        assert GenMonomial.from_exponents(gamma, (1, 1, 1)).render() == "x*y*z"
        assert GenMonomial.from_exponents(gamma, (0, 0, 0)).render() == "1"

    def test_as_poly(self):
        gamma = from_generators([4, 6, 13])
        m = GenMonomial.from_exponents(gamma, (0, 2, 0))
        assert m.as_poly(("x", "y", "z")) == Poly.monomial({"y": 2})

    def test_validation(self):
        gamma = from_generators([4, 6, 13])
        with pytest.raises(WrongGeneratorCount):
            GenMonomial.from_exponents(gamma, (1, 2))
        with pytest.raises(ValueError):
            GenMonomial.from_exponents(gamma, (-1, 0, 0))


class TestDeceptiveBinomial:
    def test_oriented_picks_smaller_first_entry(self):
        gamma = from_generators([9, 16, 19])
        b = DeceptiveBinomial.oriented(gamma, (6, 0, 0), (0, 1, 2))
        assert b.lhs.exponents == (0, 1, 2)
        assert b.rhs.exponents == (6, 0, 0)
        assert b.degree == 54
        assert b.satisfies_orientation()
        assert b.render() == "y*z^2 - x^6"

    def test_as_poly_is_difference(self):
        gamma = from_generators([4, 6, 13])
        b = DeceptiveBinomial.oriented(gamma, (3, 0, 0), (0, 2, 0))
        assert b.as_poly() == Poly.monomial({"y": 2}) - Poly.monomial({"x": 3})

    def test_equal_degree_enforced(self):
        gamma = from_generators([4, 6, 13])
        lhs = GenMonomial.from_exponents(gamma, (1, 0, 0))
        rhs = GenMonomial.from_exponents(gamma, (0, 1, 0))
        with pytest.raises(ValueError):
            DeceptiveBinomial(lhs, rhs, 4)

    def test_distinct_sides_enforced(self):
        gamma = from_generators([4, 6, 13])
        m = GenMonomial.from_exponents(gamma, (3, 0, 0))
        with pytest.raises(ValueError):
            DeceptiveBinomial(m, m, 12)


class TestIsDeceptive:
    def test_known_deceptive(self):
        gamma = from_generators([4, 6, 13])
        f = Poly.monomial({"y": 2}) - Poly.monomial({"x": 3})
        assert is_deceptive(gamma, f)

    def test_single_monomial_not_deceptive(self):
        gamma = from_generators([4, 6, 13])
        assert not is_deceptive(gamma, Poly.monomial({"x": 1}))

    def test_mixed_degrees_not_deceptive(self):
        gamma = from_generators([4, 6, 13])
        f = (
            Poly.monomial({"y": 2}, 2)
            - Poly.monomial({"x": 3})
            + Poly.monomial({"x": 4})
        )
        assert not is_deceptive(gamma, f)

    def test_nonzero_coefficient_sum_not_deceptive(self):
        gamma = from_generators([4, 6, 13])
        f = Poly.monomial({"y": 2}, 2) - Poly.monomial({"x": 3})
        assert not is_deceptive(gamma, f)

    def test_coefficient_sum_must_vanish(self):
        gamma = from_generators([8, 9, 10, 11])
        # y^2 and x*z both weigh 18; 1 + 1 does not cancel, 1 - 1 does
        assert not is_deceptive(
            gamma,
            Poly.monomial({"y": 2}) + Poly.monomial({"x": 1, "z": 1}),
        )
        assert is_deceptive(
            gamma,
            Poly.monomial({"y": 2}) - Poly.monomial({"x": 1, "z": 1}),
        )

    def test_zero_rejected(self):
        gamma = from_generators([4, 6, 13])
        with pytest.raises(ZeroPolynomial):
            is_deceptive(gamma, Poly.zero())

    def test_custom_names(self):
        gamma = from_generators([4, 6, 13])
        f = Poly.monomial({"v": 2}) - Poly.monomial({"u": 3})
        assert is_deceptive(gamma, f, names=("u", "v", "s"))


class TestEnumeration:
    def test_known_4_6_13(self):
        gamma = from_generators([4, 6, 13])
        binomials = enumerate_sdec_below_conductor(gamma)
        assert [(b.render(), b.degree) for b in binomials] == [("y^2 - x^3", 12)]

    def test_known_9_16_19(self):
        gamma = from_generators([9, 16, 19])
        binomials = enumerate_sdec_below_conductor(gamma)
        assert [(b.render(), b.degree) for b in binomials] == [
            ("y*z^2 - x^6", 54),
            ("z^3 - x*y^3", 57),
        ]

    def test_known_8_9_10_11(self):
        gamma = from_generators([8, 9, 10, 11])
        binomials = enumerate_sdec_below_conductor(gamma)
        assert [(b.render(), b.degree) for b in binomials] == [
            ("y^2 - x*z", 18),
            ("y*z - x*w", 19),
            ("z^2 - y*w", 20),
        ]

    def test_two_generator_semigroups_have_none(self):
        for pair in ((2, 5), (3, 5), (3, 7), (5, 12)):
            assert enumerate_sdec_below_conductor(from_generators(pair)) == ()

    def test_all_enumerated_are_deceptive_and_oriented(self):
        rng = random.Random(97)
        for _ in range(25):
            gamma = random_semigroup(rng)
            names = generator_variable_names(len(gamma.generators))
            for b in enumerate_sdec_below_conductor(gamma):
                assert b.degree < gamma.conductor
                assert b.satisfies_orientation()
                assert is_deceptive(gamma, b.as_poly(names), names)

    def test_no_reversed_duplicates(self):
        rng = random.Random(89)
        for _ in range(25):
            gamma = random_semigroup(rng)
            seen = set()
            for b in enumerate_sdec_below_conductor(gamma):
                key = frozenset((b.lhs.exponents, b.rhs.exponents))
                assert key not in seen
                seen.add(key)

    def test_matches_brute_force(self):
        """Random semigroups, then every three-generator semigroup with
        c <= 24 (most have no pair at all) and a few two-generator ones."""
        rng = random.Random(13)
        inputs = [random_semigroup(rng, max_conductor=30) for _ in range(15)]
        inputs += [from_generators(t) for t in three_gen_semigroups(24)]
        inputs += [from_generators(p) for p in ((2, 3), (3, 8), (5, 7), (7, 9))]
        for gamma in inputs:
            expected = brute_force_pairs(gamma, gamma.conductor)
            got = {
                (b.degree, frozenset((b.lhs.exponents, b.rhs.exponents)))
                for b in enumerate_sdec_below_conductor(gamma)
            }
            assert got == expected


def naive_idec(gamma):
    """ks and right-hand exponent vectors of the three relation binomials by
    direct search: for each axis the least k with k * v_a a sum of the other
    two generators, the cofactor scanned by smallest last coordinate, then
    smallest middle one."""
    vs = gamma.generators
    ks, rhs = [], []
    for axis in range(3):
        b, c = (i for i in range(3) if i != axis)
        k = 1
        while True:
            target = k * vs[axis]
            found = None
            for last in range(target // vs[c] + 1):
                rem = target - last * vs[c]
                if rem % vs[b] == 0:
                    found = (rem // vs[b], last)
                    break
            if found is not None:
                break
            k += 1
        vec = [0, 0, 0]
        vec[b], vec[c] = found
        ks.append(k)
        rhs.append(tuple(vec))
    return tuple(ks), rhs


class TestThreeGenIdeal:
    def test_known_4_6_13(self):
        ideal = idec_generators_3gen(from_generators([4, 6, 13]))
        assert ideal.ks == (3, 2, 2)
        rendered = [b.render() for b in ideal.binomials]
        assert rendered == ["x^3 - y^2", "y^2 - x^3", "z^2 - x^5*y"]
        assert ideal.binomials[2].degree == 26

    def test_known_9_16_19(self):
        ideal = idec_generators_3gen(from_generators([9, 16, 19]))
        assert ideal.ks == (6, 4, 3)
        rendered = [b.render() for b in ideal.binomials]
        assert rendered == ["x^6 - y*z^2", "y^4 - x^5*z", "z^3 - x*y^3"]

    def test_degree_relations(self):
        rng = random.Random(61)
        for _ in range(20):
            gamma = random_semigroup(rng)
            if len(gamma.generators) != 3:
                continue
            ideal = idec_generators_3gen(gamma)
            for axis, b in enumerate(ideal.binomials):
                assert b.lhs.exponents[axis] == ideal.ks[axis]
                assert sum(b.lhs.exponents) == ideal.ks[axis]
                assert b.lhs.weighted_degree == b.rhs.weighted_degree
                assert b.rhs.exponents[axis] == 0

    def test_minimality_of_ks(self):
        """No smaller power of a generator lies in the span of the others."""
        rng = random.Random(67)
        for _ in range(15):
            gamma = random_semigroup(rng)
            if len(gamma.generators) != 3:
                continue
            vs = gamma.generators
            ideal = idec_generators_3gen(gamma)
            for axis in range(3):
                others = [v for i, v in enumerate(vs) if i != axis]
                for k in range(1, ideal.ks[axis]):
                    target = k * vs[axis]
                    representable = any(
                        (target - b * others[1]) % others[0] == 0
                        for b in range(target // others[1] + 1)
                    )
                    assert not representable

    def test_matches_naive_scan(self):
        """ks, sides and degrees against the direct search, on every
        three-generator semigroup with conductor at most 40."""
        for triple in three_gen_semigroups(40):
            gamma = from_generators(triple)
            ideal = idec_generators_3gen(gamma)
            ks, rhs = naive_idec(gamma)
            assert ideal.ks == ks, triple
            for axis, b in enumerate(ideal.binomials):
                lhs = tuple(ks[axis] if i == axis else 0 for i in range(3))
                assert (b.lhs.exponents, b.rhs.exponents) == (lhs, rhs[axis]), triple
                assert b.degree == ks[axis] * triple[axis]
            assert idec_generators_3gen(gamma) == ideal

    def test_wrong_generator_count(self):
        with pytest.raises(WrongGeneratorCount):
            idec_generators_3gen(from_generators([3, 5]))
        with pytest.raises(WrongGeneratorCount):
            idec_generators_3gen(from_generators([8, 9, 10, 11]))

    def test_enumerated_binomials_lie_in_ideal(self):
        """Every deceptive binomial below the conductor of a 3-generator
        semigroup belongs to the relation ideal (checked by brute-force
        rewriting)."""
        cases = [(4, 6, 13), (9, 16, 19), (5, 7, 11), (4, 9, 11), (7, 8, 13)]
        rng = random.Random(71)
        triples = three_gen_semigroups(40)
        cases.extend(rng.sample(triples, 10))
        for triple in cases:
            gamma = from_generators(triple)
            if len(gamma.generators) != 3:
                continue
            ideal = idec_generators_3gen(gamma)
            for b in enumerate_sdec_below_conductor(gamma):
                assert binomial_in_ideal(b, ideal), (triple, b.render())
