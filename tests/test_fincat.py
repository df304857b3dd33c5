"""Finite-category toolkit: certified builds, functor reports,
fundamental-group presentations, and exact Smith reduction."""

import itertools
import math

import pytest

from f1kgw.fincat import (
    AbelianGroupSNF,
    AssociativityViolation,
    Functor,
    GroupPresentation,
    UnitViolation,
    UnknownObject,
    abelianize,
    build_category,
    category_from_json,
    category_to_dot,
    category_to_json,
    check_functor,
    comma_category,
    compose_by_data,
    full_subcategory,
    one_object_groupoid,
    pi0,
    pi1_presentation,
    product_category,
    smith_invariants,
    subcategory,
)
from f1kgw.qcat import completion_category, conflation_category, q_category, qh_category


def walking_arrow():
    return build_category(
        [0, 1],
        [(0, 0), (1, 1), (0, 1)],
        lambda g, f: {(0, 0): 0, (1, 1): 1, (2, 0): 2, (1, 2): 2}[(g, f)],
    )


def test_build_category_units_and_lookup():
    two = walking_arrow()
    assert two.identities == {0: 0, 1: 1}
    assert two.hom(0, 1) == (2,)
    assert two.compose(1, 2) == 2
    assert two.hom(0, 7) == ()  # absent hom sets are empty, not errors
    with pytest.raises(UnknownObject):
        pi1_presentation(two, 7)
    with pytest.raises(UnknownObject):
        build_category([0], [(0, 1)], lambda g, f: g)


def test_build_category_rejects_broken_associativity():
    # three parallel endo-arrows with a non-associative "composition"
    table = {}

    def comp(g, f):
        if f == 0:
            return g
        if g == 0:
            return f
        return {(1, 1): 2, (1, 2): 1, (2, 1): 1, (2, 2): 1}[(g, f)]

    with pytest.raises(AssociativityViolation):
        build_category(["*"], [("*", "*")] * 3, comp)


def test_build_category_requires_identities():
    with pytest.raises(UnitViolation):
        # a single non-identity endomorphism (e*e = e has no unit partner)
        build_category(["*"], [("*", "*"), ("*", "*")], lambda g, f: 1)


@pytest.mark.parametrize(
    "build,size",
    [(q_category, 3), (qh_category, 3), (conflation_category, 2), (completion_category, 2)],
)
def test_find_recovers_every_morphism_from_its_data(build, size):
    cat = build(size)
    for m in range(cat.n_morphisms):
        assert cat.find(cat.mor_src[m], cat.mor_dst[m], cat.data(m)) == m
    a = cat.objects[0]
    assert cat.find(a, a, "no such datum") is None


def test_find_needs_morphism_data():
    with pytest.raises(ValueError, match="no morphism data"):
        walking_arrow().find(0, 1, None)


def test_compose_by_data_rejects_a_missing_composite():
    # Z/3 given only 0 and 1: 1 + 1 = 2 has no morphism
    morphisms = [("*", "*", 0), ("*", "*", 1)]
    comp_rule = compose_by_data(morphisms, lambda g, f: (g[2] + f[2]) % 3)
    with pytest.raises(ValueError, match="not a morphism"):
        build_category(["*"], morphisms, comp_rule)
    with pytest.raises(ValueError, match="repeats within a hom set"):
        compose_by_data(morphisms + [("*", "*", 1)], lambda g, f: 0)


def test_groupoid_inverses():
    bz2 = one_object_groupoid([0, 1], lambda a, b: (a + b) % 2, 0)
    s = bz2.hom("*", "*")[1] if bz2.data(bz2.hom("*", "*")[1]) == 1 else bz2.hom("*", "*")[0]
    assert bz2.is_iso(s)
    assert bz2.inverse(s) == s
    assert bz2.objects_isomorphic("*", "*")


def test_pi1_of_two_element_group_is_the_group():
    bz2 = one_object_groupoid([0, 1], lambda a, b: (a + b) % 2, 0)
    ab = abelianize(pi1_presentation(bz2, "*"))
    assert str(ab) == "Z/2"


def test_pi1_of_idempotent_monoid_is_trivial():
    def comp(g, f):
        return 1 if (g == 1 or f == 1) else 0

    idem = build_category(["*"], [("*", "*"), ("*", "*")], comp)
    assert str(abelianize(pi1_presentation(idem, "*"))) == "0"


def test_pi1_of_parallel_pair_is_infinite_cyclic():
    # two parallel arrows 0 -> 1: the nerve is a circle
    def comp(g, f):
        if f in (0, 1):
            return g
        if g in (0, 1):
            return f
        raise AssertionError("no composable non-identity pairs")

    par = build_category([0, 1], [(0, 0), (1, 1), (0, 1), (0, 1)], comp)
    assert str(abelianize(pi1_presentation(par, 0))) == "Z"


def test_presentation_abelianization():
    pres = GroupPresentation(("a", "b"), ((1, 2, -1, -2), (1, 1, -2, -2, -2, -2)))
    ab = abelianize(pres)
    assert ab == AbelianGroupSNF(1, (2,))
    assert str(ab) == "Z x Z/2"
    assert ab.to_json() == {"rank": 1, "torsion": [2]}


def _minor_gcd_invariants(matrix):
    """Independent Smith oracle: d_1...d_k = gcd of all k x k minors."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0

    def det(sub):
        n = len(sub)
        if n == 0:
            return 1
        total = 0
        for perm in itertools.permutations(range(n)):
            sign = 1
            seen = list(perm)
            for i in range(n):
                for j in range(i + 1, n):
                    if seen[i] > seen[j]:
                        sign = -sign
            term = sign
            for i in range(n):
                term *= sub[i][perm[i]]
            total += term
        return total

    products = []
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rsel in itertools.combinations(range(rows), k):
            for csel in itertools.combinations(range(cols), k):
                g = math.gcd(g, det([[matrix[r][c] for c in csel] for r in rsel]))
        if g == 0:
            break
        products.append(g)
    invariants = []
    prev = 1
    for p in products:
        invariants.append(p // prev)
        prev = p
    return invariants


@pytest.mark.parametrize(
    "matrix,ncols",
    [
        ([[2, 4, 4], [-6, 6, 12], [10, 4, 16]], 3),
        ([[1, 0], [0, 1]], 2),
        ([[2, 0], [0, 3]], 2),
        ([[6, 4], [4, 6]], 2),
        ([[0, 0]], 2),
        ([], 3),
        ([[3, 3, 3]], 3),
    ],
)
def test_smith_invariants_match_minor_gcd_oracle(matrix, ncols):
    got = smith_invariants(matrix, ncols)
    want = _minor_gcd_invariants([row[:] for row in matrix]) if matrix else []
    assert got == want
    # divisibility chain
    for a, b in zip(got, got[1:]):
        assert b % a == 0


def test_smith_invariants_pinned_example():
    # d1 = gcd(entries) = 2, d1*d2 = gcd(2x2 minors) = 4, d1*d2*d3 = |det| = 624
    assert smith_invariants([[2, 4, 4], [-6, 6, 12], [10, 4, 16]], 3) == [2, 2, 156]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_cyclic_group_abelianization(n):
    B = one_object_groupoid(list(range(n)), lambda a, b: (a + b) % n, 0)
    ab = abelianize(pi1_presentation(B, "*"))
    assert ab == AbelianGroupSNF(0, (n,))


@pytest.mark.parametrize("n,want", [(3, (2,)), (4, (2,))])
def test_symmetric_group_abelianization(n, want):
    elems = list(itertools.permutations(range(n)))
    comp = lambda a, b: tuple(a[b[i]] for i in range(n))
    B = one_object_groupoid(elems, comp, tuple(range(n)))
    ab = abelianize(pi1_presentation(B, "*"))
    assert ab == AbelianGroupSNF(0, want)


def test_product_category_counts():
    two = walking_arrow()
    P = product_category(two, two)
    assert len(P.objects) == 4
    assert P.n_morphisms == 9
    # componentwise composition carries over through the data
    mids = P.hom((0, 0), (1, 1))
    assert len(mids) == 1 and P.data(mids[0]) == (2, 2)


def test_identity_functor_is_an_equivalence():
    two = walking_arrow()
    F = Functor(two, two, {0: 0, 1: 1}, {0: 0, 1: 1, 2: 2})
    rep = check_functor(F, "equivalence")
    assert rep.ok
    assert "pass" in rep.line()


def test_constant_functor_fails_fullness():
    two = walking_arrow()
    F = Functor(two, two, {0: 0, 1: 0}, {0: 0, 1: 0, 2: 0})
    assert check_functor(F, "functoriality").ok
    rep = check_functor(F, "full")
    assert not rep.ok


def test_comma_category_of_walking_arrow():
    two = walking_arrow()
    F = Functor(two, two, {0: 0, 1: 1}, {0: 0, 1: 1, 2: 2})
    C = comma_category(F, 0)
    assert len(C.objects) == 2
    assert C.n_morphisms == 3


def test_full_subcategory_and_closure_check():
    two = walking_arrow()
    sub = full_subcategory(two, [0])
    assert len(sub.objects) == 1 and sub.n_morphisms == 1
    # identities are filled in automatically, so the bare arrow closes up
    assert subcategory(two, [0, 1], [2]).n_morphisms == 3
    # a generator of Z/4 without its square is not closed
    bz4 = one_object_groupoid(list(range(4)), lambda a, b: (a + b) % 4, 0)
    gen = next(m for m in bz4.hom("*", "*") if bz4.data(m) == 1)
    with pytest.raises(ValueError):
        subcategory(bz4, ["*"], [gen])


def test_pi0_components():
    two = walking_arrow()
    assert pi0(two) == ((0, 1),)
    disc = build_category([0, 1], [(0, 0), (1, 1)], lambda g, f: g)
    assert pi0(disc) == ((0,), (1,))


def test_json_round_trip_and_dot():
    two = walking_arrow()
    back = category_from_json(category_to_json(two))
    assert len(back.objects) == 2 and back.n_morphisms == 3
    assert back.hom("0", "1") == (2,)
    dot = category_to_dot(two)
    assert dot.startswith("digraph")
    assert "n0 -> n1" in dot
