"""Finite-category toolkit: certified builds, functor checks, π₁ᵃᵇ by
``h1`` over the generating set against the all-pairs presentation as
its oracle, and exact Smith reduction."""

import collections
import gc
import inspect
import itertools
import json
import math
import random
import re
import tracemalloc

import pytest

from f1kgw import fincat, qcat
from f1kgw._backend import kernel
from f1kgw.fincat import (
    AbelianGroupSNF,
    AssociativityViolation,
    Functor,
    UnitViolation,
    UnknownObject,
    abelian_group,
    build_category,
    category_to_dot,
    category_to_json,
    check_functor,
    comma_category,
    full_subcategory,
    functor_by_data,
    generating_set,
    h1,
    pi0,
    product_category,
    smith_invariants,
    subcategory,
)
from f1kgw.forms import hyperbolic, identity_form
from f1kgw.pointed import Conflation, F1Morphism, all_conflations
from f1kgw.qcat import (
    QSpan,
    completion_category,
    completion_compose,
    conflation_category,
    graph_of_isometries,
    hyperbolic_groupoid,
    iso_groupoid,
    q_category,
    q_compose,
    qh_category,
    quotient_fibration,
)


def category_from_json(text):
    """Rebuild a category from the exported text; identities are
    re-detected, and each morphism carries its id as data."""
    data = json.loads(text)
    objects = list(data["objects"])
    n = 0
    mor_src, mor_dst = {}, {}
    for key, ms in data["homs"].items():
        a, b = (int(x) for x in key.split(","))
        for m in ms:
            mor_src[m] = objects[a]
            mor_dst[m] = objects[b]
            n = max(n, m + 1)
    comp = data["comp"]
    morphisms = [(mor_src[m], mor_dst[m], m) for m in range(n)]
    return build_category(objects, morphisms, lambda g, f: comp["%d,%d" % (g, f)])


AllPairs = collections.namedtuple("AllPairs", "generators relations")


def all_pairs_presentation(cat, basepoint):
    """π₁ of the nerve's 2-skeleton at the basepoint, one relation per
    composable pair: the oracle for ``h1``.

    The generators are the non-identity morphisms of the basepoint's
    component.  The relations, as {generator: coefficient} rows, kill a
    BFS spanning tree (built in least-id order over the underlying
    undirected graph) and impose f + g − g∘f for each composable pair of
    non-identities.  Identities are left out: their triangles are
    trivial once the degenerate edges are collapsed.
    """
    component = next(set(comp) for comp in pi0(cat) if basepoint in comp)
    idents = set(cat.identities.values())
    mids = [m for m in range(cat.n_morphisms) if cat.mor_src[m] in component and m not in idents]

    neighbors = {}
    for m in mids:
        neighbors.setdefault(cat.mor_src[m], []).append((cat.mor_dst[m], m))
        neighbors.setdefault(cat.mor_dst[m], []).append((cat.mor_src[m], m))
    for o in neighbors:
        neighbors[o].sort(key=lambda t: (cat.obj_index[t[0]], t[1]))
    tree = set()
    visited = {basepoint}
    queue = collections.deque([basepoint])
    while queue:
        for other, m in neighbors.get(queue.popleft(), ()):
            if other not in visited:
                visited.add(other)
                tree.add(m)
                queue.append(other)

    relations = [{m: 1} for m in sorted(tree)]
    for g, rg in enumerate(cat.row):  # (g, f) ascending
        if g in idents or cat.mor_src[g] not in component:
            continue
        for f, gf in zip(cat.into[cat.src_k[g]], rg):
            if f not in idents:
                row = collections.Counter((f, g))
                if gf not in idents:
                    row[gf] -= 1
                relations.append(row)
    return AllPairs(tuple(mids), relations)


def all_pairs_h1(cat, basepoint):
    """π₁ᵃᵇ by the all-pairs presentation, reduced by ``smith_invariants``."""
    pres = all_pairs_presentation(cat, basepoint)
    invariants = smith_invariants(pres.relations)
    return AbelianGroupSNF(
        len(pres.generators) - len(invariants), tuple(d for d in invariants if d > 1)
    )


def one_object_groupoid(elements, compose_fn, identity_element):
    """B(G) for a finite group given by its elements and composition: the
    one-object category of the bar route, on the object "*"."""
    elements = list(elements)
    if identity_element not in elements:
        raise ValueError("identity element missing")
    return build_category(["*"], [("*", "*", e) for e in elements], compose_fn)


def walking_arrow():
    """0 -> 1: the identities "id0" and "id1" (ids 0 and 1) and the
    arrow "a" (id 2)."""
    return build_category(
        [0, 1],
        [(0, 0, "id0"), (1, 1, "id1"), (0, 1, "a")],
        lambda g, f: f if g.startswith("id") else g,
    )


def by_ids(endpoints):
    """(src, dst, id) triples: each morphism carries its own id as data,
    so a composition table on ids is a rule composing data."""
    return [(src, dst, m) for m, (src, dst) in enumerate(endpoints)]


def test_build_category_units_and_lookup():
    two = walking_arrow()
    assert two.identities == {0: 0, 1: 1}
    assert two.hom(0, 1) == (2,)
    assert two.compose(1, 2) == 2
    assert two.hom(0, 7) == ()  # absent hom sets are empty, not errors
    with pytest.raises(UnknownObject):
        build_category([0], [(0, 1, "a")], lambda g, f: g)


def test_build_category_rejects_broken_associativity():
    # three endo-arrows with a non-associative "composition" of their data
    def comp(g, f):
        if f == 0:
            return g
        if g == 0:
            return f
        return {(1, 1): 2, (1, 2): 1, (2, 1): 1, (2, 2): 1}[(g, f)]

    with pytest.raises(AssociativityViolation) as exc:
        build_category(["*"], [("*", "*", k) for k in range(3)], comp)
    # the least (f, g, h) is (1, 1, 2): (2∘1)∘1 = 2 but 2∘(1∘1) = 1
    assert exc.value.witness == (2, 1, 1)


def test_build_category_requires_identities():
    with pytest.raises(UnitViolation):
        # a single non-identity endomorphism (e*e = e has no unit partner)
        build_category(["*"], [("*", "*", 0), ("*", "*", 1)], lambda g, f: 1)


def test_build_category_rejects_a_bad_composite_id():
    # the walking arrow with ids as data: a composite datum that no
    # morphism carries, or that only a morphism of another hom set does
    # (id_0 ∘ id_0 answered by the arrow 0 -> 1), is not a morphism
    morphisms = by_ids([(0, 0), (1, 1), (0, 1)])
    table = {(0, 0): 0, (1, 1): 1, (2, 0): 2, (1, 2): 2}
    for bad in (3, -1, None):
        with pytest.raises(ValueError, match="is not a morphism: %r" % (bad,)):
            build_category([0, 1], morphisms, lambda g, f: bad)
    wrong = {**table, (0, 0): 2}
    with pytest.raises(ValueError, match="composite of 0 after 0 is not a morphism: 2"):
        build_category([0, 1], morphisms, lambda g, f: wrong[(g, f)])


def _triple_loop_verdict(cat, comp):
    """Reference verdict on a possibly corrupted table: unit search by
    dict lookups, then associativity triple by triple over comp in its
    insertion order, the first failing triple being the witness."""
    by_src, by_dst = {}, {}
    for m in range(cat.n_morphisms):
        by_src.setdefault(cat.mor_src[m], []).append(m)
        by_dst.setdefault(cat.mor_dst[m], []).append(m)
    for o in cat.objects:
        units = [
            e
            for e in cat.hom(o, o)
            if all(comp[(e, f)] == f for f in by_dst.get(o, ()))
            and all(comp[(g, e)] == g for g in by_src.get(o, ()))
        ]
        if len(units) != 1:
            return "units"
    for (g, f), gf in comp.items():
        for h in by_src.get(cat.mor_dst[g], ()):
            if comp[(comp[(h, g)], f)] != comp[(h, gf)]:
                return (h, g, f)
    return "ok"


@pytest.mark.parametrize(
    "build,size,trials",
    [(q_category, 3, 160), (completion_category, 2, 100), (conflation_category, 2, 100)],
)
def test_associativity_witness_matches_the_triple_loop(build, size, trials):
    """build_category on ids as data composed through a corrupted table:
    the verdict and witness of the triple loop.  Light's test on the
    tabulated table, over its own generating set, fails exactly when the
    triple loop finds a witness."""
    cat = build(size)
    morphisms = by_ids(zip(cat.mor_src, cat.mor_dst))
    # pairs whose hom set offers another composite with the same endpoints
    pairs = [
        (g, f)
        for (g, f) in cat.comp
        if len(cat.hom(cat.mor_src[f], cat.mor_dst[g])) > 1
    ]
    rng = random.Random(size)
    witnesses = 0
    for _ in range(trials):
        g, f = rng.choice(pairs)
        hom = cat.hom(cat.mor_src[f], cat.mor_dst[g])
        comp = dict(cat.comp)
        comp[(g, f)] = rng.choice([m for m in hom if m != comp[(g, f)]])
        want = _triple_loop_verdict(cat, comp)
        try:
            build_category(cat.objects, morphisms, lambda g, f: comp[(g, f)])
            got = "ok"
        except UnitViolation:
            got = "units"
        except AssociativityViolation as exc:
            got = exc.witness
        assert got == want, (g, f)
        if want != "units":
            table = fincat._tabulate(cat.objects, morphisms, lambda g, f: comp[(g, f)])
            generators, reach = generating_set(table)
            assert fincat._generates(table, generators, reach)
            light = next(fincat._associativity_failures(table, generators), None)
            assert (light is None) == (want == "ok"), (g, f)
        witnesses += isinstance(want, tuple)
    assert witnesses >= trials // 4


def test_build_category_keeps_its_three_positional_parameters():
    # perfbench/layers.py traces every build through a wrapper that takes
    # exactly (objects, morphisms, comp_rule), so a fourth parameter would
    # make a traced pass raise TypeError
    assert [
        (p.name, p.kind, p.default) for p in inspect.signature(build_category).parameters.values()
    ] == [
        (name, inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty)
        for name in ("objects", "morphisms", "compose_data")
    ]


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
    # an unknown object at either end, and a datum read in every hom set:
    # found only where a morphism of that hom set carries it
    m = cat.n_morphisms - 1
    assert cat.find("no such object", cat.mor_dst[m], cat.data(m)) is None
    assert cat.find(cat.mor_src[m], "no such object", cat.data(m)) is None
    misses = 0
    for x in cat.objects:
        for y in cat.objects:
            carriers = [n for n in cat.hom(x, y) if cat.data(n) == cat.data(m)]
            assert cat.find(x, y, cat.data(m)) == (carriers[0] if carriers else None)
            misses += not carriers
    assert misses


def test_compose_by_data_rejects_a_missing_composite():
    cases = [
        # Z/3 given only 0 and 1: 1 + 1 = 2 has no morphism; no datum
        # repeats, so every pair is composed
        (["*"], [("*", "*", 0), ("*", "*", 1)]),
        # the same on two objects: the data repeat, so pairs are memoised
        (["a", "b"], [("a", "a", 0), ("a", "a", 1), ("b", "b", 0), ("b", "b", 1)]),
        # 2 is a datum, but only at b: the hom set of a still misses it
        (
            ["a", "b"],
            [("a", "a", 0), ("a", "a", 1), ("b", "b", 0), ("b", "b", 1), ("b", "b", 2)],
        ),
    ]
    for objects, morphisms in cases:
        with pytest.raises(ValueError, match="composite of 1 after 1 is not a morphism: 2"):
            build_category(objects, morphisms, lambda g, f: (g + f) % 3)
        with pytest.raises(ValueError, match="repeats within a hom set"):
            build_category(objects, morphisms + [morphisms[1]], lambda g, f: 0)


@pytest.mark.parametrize("objects", [["*"], ["a", "b"]], ids=["distinct", "repeated"])
def test_tabulate_names_the_first_bad_pair_in_f_then_g_order(objects):
    # Z/3 on each object, its data composed wrongly at (g=2, f=1) and at
    # (g=1, f=2), two pairs in different rows.  Pairs go f first, then g,
    # so (2, 1) is found first, whether or not data pairs are memoised.
    morphisms = [(o, o, k) for o in objects for k in range(3)]
    bad = {(2, 1), (1, 2)}

    def rule(g, f):
        return ("bad", g, f) if (g, f) in bad else (g + f) % 3

    with pytest.raises(
        ValueError, match=re.escape("composite of 2 after 1 is not a morphism: ('bad', 2, 1)")
    ):
        build_category(objects, morphisms, rule)


@pytest.mark.parametrize("objects", [["*"], ["a", "b"]], ids=["distinct", "repeated"])
def test_tabulate_raises_what_compose_data_raises_at_that_pair(objects):
    morphisms = [(o, o, k) for o in objects for k in range(3)]
    calls = []

    def rule(g, f):
        calls.append((g, f))
        if (g, f) == (1, 2):
            raise ZeroDivisionError("at (1, 2)")
        return (g + f) % 3

    with pytest.raises(ZeroDivisionError, match=re.escape("at (1, 2)")):
        build_category(objects, morphisms, rule)
    assert calls == [(g, f) for f in range(3) for g in range(3)][:8]


def _comma_categories(max_size):
    """The comma categories that comma_tau_suite(max_size) builds, each
    with the composition of its data: morphisms of the hyperbolic
    groupoid, composed there."""
    SH = hyperbolic_groupoid(max_size)
    tau = graph_of_isometries(SH, qh_category(max_size))
    bases = [M for M in (identity_form(0), hyperbolic(1)) if M.size <= max_size]
    return [(comma_category(tau, M), SH.compose) for M in bases]


def _product_categories():
    """C × D for the walking arrow and Z/3, each with componentwise
    composition of its (id in C, id in D) data."""
    two = walking_arrow()
    bz3 = one_object_groupoid(range(3), lambda a, b: (a + b) % 3, 0)
    out = []
    for C, D in ((two, bz3), (bz3, two), (bz3, bz3)):

        def compose_data(g, f, C=C, D=D):
            return C.comp[(g[0], f[0])], D.comp[(g[1], f[1])]

        out.append((product_category(C, D), compose_data))
    return out


def _group_categories():
    """B(Z/5) and B(S_4), each with its group law."""
    def add(a, b):
        return (a + b) % 5

    def after(a, b):
        return tuple(a[b[i]] for i in range(4))

    return [
        (one_object_groupoid(range(5), add, 0), add),
        (one_object_groupoid(itertools.permutations(range(4)), after, (0, 1, 2, 3)), after),
    ]


# every honest category the tests build, each with the rule composing
# its data
_HONEST_BUILDS = {
    "q": lambda: [(q_category(n), q_compose) for n in range(5)],
    "qh": lambda: [(qh_category(n), q_compose) for n in range(5)],
    "completion": lambda: [(completion_category(n), completion_compose) for n in range(4)],
    "conflation": lambda: [(conflation_category(n), kernel.compose) for n in range(4)],
    "groupoids": lambda: [(G, kernel.compose) for G in (iso_groupoid(3), hyperbolic_groupoid(4))],
    "comma": lambda: _comma_categories(3),
    "product": _product_categories,
    "one_object": _group_categories,
}


@pytest.mark.parametrize("build", list(_HONEST_BUILDS.values()), ids=list(_HONEST_BUILDS))
def test_compose_by_data_builds_what_per_pair_composition_builds(build):
    """Independent oracle: every composable pair, and only those, is
    composed, each on its own, and its composite is the morphism that
    find returns for the composed data."""
    for cat, compose_data in build():
        out_of = collections.defaultdict(list)
        for g in range(cat.n_morphisms):
            out_of[cat.mor_src[g]].append(g)
        pairs = [(g, f) for f in range(cat.n_morphisms) for g in out_of[cat.mor_dst[f]]]
        assert sorted(cat.comp) == sorted(pairs)
        for g, f in pairs:
            want = cat.find(
                cat.mor_src[f], cat.mor_dst[g], compose_data(cat.data(g), cat.data(f))
            )
            assert want is not None and cat.comp[(g, f)] == want, (g, f)


@pytest.mark.parametrize("build", list(_HONEST_BUILDS.values()), ids=list(_HONEST_BUILDS))
def test_light_test_certifies_what_the_full_walk_certifies(build, monkeypatch):
    """Every honest category is built with the full walk refused.  On
    each, the generating set's closure reaches every non-identity
    morphism, and Light's test and the full walk both find nothing."""
    full_walk = fincat._certify_associativity

    def refuse(cat):
        raise AssertionError("%r certified by the full walk" % cat)

    monkeypatch.setattr(fincat, "_certify_associativity", refuse)
    for cat, _ in build():
        generators, reach = generating_set(cat)
        identities = set(cat.identities.values())
        assert identities.isdisjoint(generators)
        assert set(reach) == set(range(cat.n_morphisms)) - identities
        assert all(reach[g] == (g, cat.identities[cat.mor_src[g]]) for g in generators)
        assert fincat._generates(cat, generators, reach)
        assert next(fincat._associativity_failures(cat, generators), None) is None
        full_walk(cat)


def test_generating_set_sizes():
    sizes = {
        (q_category, 4): 17,
        (qh_category, 4): 35,
        (completion_category, 3): 34,
        (conflation_category, 3): 67,
        (q_category, 5): 30,
        (qh_category, 5): 93,
    }
    for (build, n), want in sizes.items():
        assert len(generating_set(build(n))[0]) == want, (build.__name__, n)


def test_a_generating_set_cut_short_is_refused(monkeypatch):
    cat = conflation_category(2)
    generators, reach = generating_set(cat)
    entries = list(reach.items())
    (m1, p1), (m2, p2) = entries[-2:]
    cut = {
        "the closure stops one short": (generators, dict(entries[:-1])),
        "the last generator dropped": (generators[:-1], reach),
        "read in reverse": (generators, dict(reversed(entries))),
        "two composites swapped": (generators, {**reach, m1: p2, m2: p1}),
        "an identity reached": (generators, {**reach, cat.identities[cat.objects[0]]: p1}),
    }
    assert fincat._generates(cat, generators, reach)
    calls = []
    full_walk = fincat._certify_associativity
    monkeypatch.setattr(fincat, "_certify_associativity", lambda c: calls.append(c) or full_walk(c))
    morphisms = list(zip(cat.mor_src, cat.mor_dst, cat.mor_data))
    assert build_category(cat.objects, morphisms, kernel.compose).row == cat.row
    assert calls == []
    for case, (gens, r) in cut.items():
        assert not fincat._generates(cat, gens, r), case
        monkeypatch.setattr(fincat, "generating_set", lambda c, gens=gens, r=r: (gens, r))
        # refused, so the build falls back to the full walk
        assert build_category(cat.objects, morphisms, kernel.compose).row == cat.row
        assert len(calls) == 1, case
        calls.clear()


def _pair_loop_functoriality(F):
    """Reference: the first functoriality witness, with composition
    checked pair by pair, f ascending, then g."""
    S, T, image = F.source, F.target, F.mor_map
    for o in S.objects:
        if o not in F.obj_map:
            return "object %r unmapped" % (o,)
        if F.obj_map[o] not in T.obj_index:
            return "object %r maps outside the target" % (o,)
    for m in range(S.n_morphisms):
        if m not in image:
            return "morphism %d unmapped" % m
        if (T.mor_src[image[m]], T.mor_dst[image[m]]) != (
            F.obj_map[S.mor_src[m]],
            F.obj_map[S.mor_dst[m]],
        ):
            return "morphism %d endpoints broken" % m
    for o in S.objects:
        if image[S.identities[o]] != T.identities[F.obj_map[o]]:
            return "identity of %r not preserved" % (o,)
    for f in range(S.n_morphisms):
        for g in range(S.n_morphisms):
            if S.mor_src[g] == S.mor_dst[f]:
                if T.compose(image[g], image[f]) != image[S.compose(g, f)]:
                    return "composition broken at (g=%d, f=%d)" % (g, f)
    return ""


def test_row_wise_functoriality_matches_the_pair_loop(monkeypatch):
    """One image corrupted at random, in the quotient fibration and in
    every functor that comma_tau_suite(4) checks: within its hom set
    where that has another morphism, else anywhere in the target."""
    functors = [quotient_fibration(conflation_category(2), q_category(2))]
    check = qcat.check_functor
    monkeypatch.setattr(qcat, "check_functor", lambda F, mode: functors.append(F) or check(F, mode))
    assert qcat.comma_tau_suite(4).ok
    assert len(functors) == 4
    rng = random.Random(21)
    witnesses = collections.Counter()
    for F in functors:
        assert check_functor(F, "functoriality") == _pair_loop_functoriality(F) == ""
        S, T = F.source, F.target
        for _ in range(40):
            m = rng.randrange(S.n_morphisms)
            fm = F.mor_map[m]
            rivals = [x for x in T.hom(T.mor_src[fm], T.mor_dst[fm]) if x != fm]
            rivals = rivals or [x for x in range(T.n_morphisms) if x != fm]
            broken = Functor(S, T, F.obj_map, {**F.mor_map, m: rng.choice(rivals)})
            want = _pair_loop_functoriality(broken)
            assert check_functor(broken, "functoriality") == want, m
            kinds = ("composition", "identity", "endpoints")
            witnesses[next((k for k in kinds if k in want), want)] += 1
    assert witnesses["composition"] >= 60 and witnesses["identity"] and witnesses["endpoints"]


def _counting(compose_data):
    calls = collections.Counter()

    def counted(g, f):
        calls[(g, f)] += 1
        return compose_data(g, f)

    return counted, calls


def test_compose_by_data_composes_each_distinct_data_pair_once():
    cat = conflation_category(2)
    morphisms = list(zip(cat.mor_src, cat.mor_dst, cat.mor_data))
    compose, calls = _counting(kernel.compose)
    again = build_category(cat.objects, morphisms, compose)
    assert again.comp == cat.comp
    pairs = {(cat.data(g), cat.data(f)) for (g, f) in cat.comp}
    assert set(calls) == pairs and set(calls.values()) == {1}
    assert len(pairs) < len(cat.comp)


def test_compose_by_data_composes_every_pair_when_no_datum_repeats():
    cat = q_category(3)
    assert len(set(cat.mor_data)) == cat.n_morphisms
    morphisms = list(zip(cat.mor_src, cat.mor_dst, cat.mor_data))
    compose, calls = _counting(q_compose)
    build_category(cat.objects, morphisms, compose)
    assert sum(calls.values()) == len(cat.comp)


def test_groupoid_inverses():
    bz2 = one_object_groupoid([0, 1], lambda a, b: (a + b) % 2, 0)
    s = bz2.hom("*", "*")[1] if bz2.data(bz2.hom("*", "*")[1]) == 1 else bz2.hom("*", "*")[0]
    assert bz2.is_iso(s)
    assert bz2.inverse(s) == s
    assert bz2.objects_isomorphic("*", "*")


def test_h1_rejects_an_unknown_basepoint():
    with pytest.raises(UnknownObject):
        h1(walking_arrow(), 7)


def test_h1_refuses_a_generating_set_that_does_not_generate(monkeypatch):
    """The words are read off reach, so reach must be certified first."""
    honest = fincat.generating_set

    def dropping_the_last(cat):
        generators, reach = honest(cat)
        return generators[:-1], reach

    cat = q_category(2)
    assert h1(cat, 0) == AbelianGroupSNF(1, ())
    monkeypatch.setattr(fincat, "generating_set", dropping_the_last)
    with pytest.raises(ValueError, match="not certified by its reach"):
        h1(cat, 0)


def test_pi1_of_two_element_group_is_the_group():
    bz2 = one_object_groupoid([0, 1], lambda a, b: (a + b) % 2, 0)
    ab = h1(bz2, "*")
    assert str(ab) == "Z/2"
    assert ab == all_pairs_h1(bz2, "*")


def test_pi1_of_idempotent_monoid_is_trivial():
    def comp(g, f):
        return 1 if (g == 1 or f == 1) else 0

    idem = build_category(["*"], [("*", "*", 0), ("*", "*", 1)], comp)
    assert str(h1(idem, "*")) == "0"
    assert h1(idem, "*") == all_pairs_h1(idem, "*")


def test_pi1_of_parallel_pair_is_infinite_cyclic():
    # two parallel arrows 0 -> 1: the nerve is a circle
    def comp(g, f):
        if f in (0, 1):
            return g
        if g in (0, 1):
            return f
        raise AssertionError("no composable non-identity pairs")

    par = build_category([0, 1], by_ids([(0, 0), (1, 1), (0, 1), (0, 1)]), comp)
    assert str(h1(par, 0)) == "Z"
    assert h1(par, 0) == all_pairs_h1(par, 0)


def test_presentation_abelianization():
    # a·b·a⁻¹·b⁻¹ and a²·b⁻⁴ on the generators a, b
    ab = abelian_group(((1, 2, -1, -2), (1, 1, -2, -2, -2, -2)), 2)
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
    got = smith_invariants([dict(enumerate(r)) for r in matrix])
    want = _minor_gcd_invariants([row[:] for row in matrix]) if matrix else []
    assert got == want
    # divisibility chain
    for a, b in zip(got, got[1:]):
        assert b % a == 0


def test_smith_invariants_pinned_example():
    # d1 = gcd(entries) = 2, d1*d2 = gcd(2x2 minors) = 4, d1*d2*d3 = |det| = 624
    assert smith_invariants(
        [dict(enumerate(r)) for r in [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]]
    ) == [2, 2, 156]


def _dense_smith_invariants(rows, ncols):
    """Invariant factors of the integer matrix (list of rows).

    Classical Smith reduction with exact integer arithmetic; returns the
    nonzero diagonal entries d1 | d2 | ..., all positive.
    """
    A = [list(r) for r in rows]
    nrows = len(A)
    invariants = []
    t = 0
    while t < nrows and t < ncols:
        # find a pivot
        pr = pc = -1
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                v = abs(A[i][j])
                if v and (best is None or v < best):
                    best, pr, pc = v, i, j
        if best is None:
            break
        A[t], A[pr] = A[pr], A[t]
        for row in A:
            row[t], row[pc] = row[pc], row[t]
        while True:
            pivot = A[t][t]
            done = True
            for i in range(t + 1, nrows):
                if A[i][t]:
                    q = A[i][t] // pivot
                    for j in range(t, ncols):
                        A[i][j] -= q * A[t][j]
                    if A[i][t]:
                        A[t], A[i] = A[i], A[t]
                        done = False
                        break
            if not done:
                continue
            for j in range(t + 1, ncols):
                if A[t][j]:
                    q = A[t][j] // pivot
                    for row in A:
                        row[j] -= q * row[t]
                    if A[t][j]:
                        for row in A:
                            row[t], row[j] = row[j], row[t]
                        done = False
                        break
            if done:
                break
        # enforce divisibility of the remaining block
        pivot = abs(A[t][t])
        fixed = True
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if A[i][j] % pivot:
                    for jj in range(t, ncols):
                        A[t][jj] += A[i][jj]
                    fixed = False
                    break
            if not fixed:
                break
        if not fixed:
            continue
        invariants.append(pivot)
        t += 1
    return invariants


def _random_matrices(rng):
    """(kind, matrix, ncols) triples of three kinds: small dense ones with
    non-unit entries, relation-shaped sparse ones with zero and repeated
    rows, and ones with no unit entry at all."""
    for _ in range(2000):
        nrows, ncols = rng.randint(0, 8), rng.randint(1, 8)
        yield "dense", [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(nrows)], ncols
    for _ in range(2000):
        ncols = rng.randint(1, 12)
        rows = []
        for _ in range(rng.randint(0, 40)):
            row = [0] * ncols
            for _ in range(rng.randint(0, 3)):
                row[rng.randrange(ncols)] += rng.choice((1, -1, 1, -1, 2, -2, 3))
            rows.append(row)
            if rng.random() < 0.2:
                rows.append(list(rows[rng.randrange(len(rows))]))
        yield "sparse", rows, ncols
    for _ in range(1200):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        yield "even", [[2 * rng.randint(-6, 6) for _ in range(ncols)] for _ in range(nrows)], ncols


def test_sparse_smith_invariants_match_the_dense_reduction():
    kinds = collections.Counter()
    for kind, matrix, ncols in _random_matrices(random.Random(20201)):
        want = _dense_smith_invariants(matrix, ncols)
        assert smith_invariants([dict(enumerate(r)) for r in matrix]) == want, matrix
        kinds[kind] += 1
    assert sum(kinds.values()) >= 5000 and len(kinds) == 3


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_cyclic_group_abelianization(n):
    B = one_object_groupoid(list(range(n)), lambda a, b: (a + b) % n, 0)
    ab = h1(B, "*")
    assert ab == AbelianGroupSNF(0, (n,))
    assert ab == all_pairs_h1(B, "*")


@pytest.mark.parametrize("n,want", [(3, (2,)), (4, (2,)), (5, (2,))])
def test_symmetric_group_abelianization(n, want):
    elems = list(itertools.permutations(range(n)))
    comp = lambda a, b: tuple(a[b[i]] for i in range(n))
    B = one_object_groupoid(elems, comp, tuple(range(n)))
    ab = h1(B, "*")
    assert ab == AbelianGroupSNF(0, want)
    assert ab == all_pairs_h1(B, "*")


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
    assert check_functor(F, "equivalence") == ""


def test_constant_functor_fails_fullness():
    two = walking_arrow()
    F = Functor(two, two, {0: 0, 1: 0}, {0: 0, 1: 0, 2: 0})
    assert check_functor(F, "functoriality") == ""
    assert check_functor(F, "full") == "hom(1,0): 1 target morphisms unhit"


def test_functor_with_an_unmapped_object_is_reported_not_raised():
    two = walking_arrow()
    F = Functor(two, two, {0: 0}, {0: 0, 1: 1, 2: 2})
    assert check_functor(F, "functoriality") == "object 1 unmapped"
    assert check_functor(F, "equivalence") == "object 1 unmapped"


def test_functor_witness_order_and_unmapped_morphisms():
    two = walking_arrow()
    # the arrow goes to an identity: neither functorial nor full
    F = Functor(two, two, {0: 0, 1: 1}, {0: 0, 1: 1, 2: 0})
    assert check_functor(F, "full") == "hom(0,1): 1 target morphisms unhit"
    assert check_functor(F, "equivalence") == "morphism 2 endpoints broken"
    with pytest.raises(ValueError):
        check_functor(F, "surjective")
    # Z/2 into itself by data: the generator's image carries no data of Z/2
    G = one_object_groupoid((0, 1), lambda g, f: (g + f) % 2, 0)
    assert check_functor(functor_by_data(G, G, {"*": "*"}, G.data), "equivalence") == ""
    F = functor_by_data(G, G, {"*": "*"}, lambda m: 2 * G.data(m))
    assert F.mor_map == {0: 0}
    assert check_functor(F, "equivalence") == "morphism 1 unmapped"


def test_functoriality_witness_is_the_least_broken_pair():
    # S is Z/5 tabulated with its data composed wrongly at (g=3, f=1) and
    # at (g=1, f=2); the functor to the honest Z/5 that keeps the data is
    # broken at exactly those two pairs, and (g=3, f=1) has the least f
    def add(g, f):
        return (g + f) % 5

    def rigged(g, f):
        return (g + f + 1) % 5 if (g, f) in {(3, 1), (1, 2)} else add(g, f)

    morphisms = [("*", "*", k) for k in range(5)]
    S = fincat._tabulate(["*"], morphisms, rigged)
    T = build_category(["*"], morphisms, add)
    F = functor_by_data(S, T, {"*": "*"}, S.data)
    assert F.mor_map == {k: k for k in range(5)}
    broken = [(g, f) for f in range(5) for g in range(5) if S.compose(g, f) != T.compose(g, f)]
    assert broken == [(3, 1), (1, 2)]
    assert check_functor(F, "functoriality") == "composition broken at (g=3, f=1)"


def test_partial_functor_is_reported_by_every_mode():
    two = walking_arrow()
    F = Functor(two, two, {0: 0, 1: 1}, {0: 0, 1: 1})
    assert check_functor(F, "full") == "morphism 2 unmapped"
    assert check_functor(F, "faithful") == "morphism 2 unmapped"
    assert check_functor(F, "equivalence") == "morphism 2 unmapped"
    G = Functor(two, two, {0: 0}, {0: 0, 1: 1, 2: 2})
    assert check_functor(G, "full") == "object 1 unmapped"
    assert check_functor(G, "ess_surjective") == "object 1 unmapped"



def test_functor_by_data_leaves_the_morphisms_at_an_unmapped_object_unmapped():
    """An object that obj_map misses is reported by check_functor, not
    raised as a KeyError; image_data is not asked for its morphisms, and
    what image_data raises still propagates."""
    two = walking_arrow()
    calls = []
    F = functor_by_data(two, two, {0: 0}, lambda m: calls.append(m) or two.data(m))
    assert F.mor_map == {0: 0} and calls == [0]
    assert check_functor(F, "functoriality") == check_functor(F, "equivalence") == "object 1 unmapped"

    def raising(m):
        raise ZeroDivisionError(m)

    for obj_map in ({0: 0, 1: 1}, {0: 0}):
        with pytest.raises(ZeroDivisionError):
            functor_by_data(two, two, obj_map, raising)
    E = conflation_category(2)
    X = E.objects[3]
    F = functor_by_data(E, E, {Y: Y for Y in E.objects if Y != X}, E.data)
    assert F.mor_map == {
        m: m for m in range(E.n_morphisms) if X not in (E.mor_src[m], E.mor_dst[m])
    }
    assert check_functor(F, "functoriality") == "object %r unmapped" % (X,)


def test_functoriality_witnesses_stop_where_a_morphism_is_unmapped_or_misplaced():
    """Read past the first witness, the functoriality check lists the
    objects and morphisms that are unmapped or misplaced, and stops:
    identities and composition are read only when every morphism is
    mapped with its endpoints."""
    two = walking_arrow()
    for obj_map, first in (
        ({0: 0, 1: 7}, "object 1 maps outside the target"),
        ({0: 0}, "object 1 unmapped"),
    ):
        F = functor_by_data(two, two, obj_map, two.data)
        witnesses = list(fincat._functor_witnesses(F, "functoriality"))
        assert witnesses == [first, "morphism 1 unmapped", "morphism 2 unmapped"]
        assert check_functor(F, "functoriality") == first
    F = Functor(two, two, {0: 0, 1: 1}, {0: 0, 1: 1, 2: 0})
    assert list(fincat._functor_witnesses(F, "functoriality")) == ["morphism 2 endpoints broken"]


def _fresh(X):
    """A conflation equal to X that shares neither itself nor its maps
    with X."""
    return Conflation(
        F1Morphism(X.sub, X.total, tuple(list(X.i.map))),
        F1Morphism(X.total, X.quotient, tuple(list(X.p.map))),
    )


def test_functor_by_data_reads_equal_objects_as_the_targets_own():
    E = conflation_category(2)
    fresh = {X: _fresh(X) for X in E.objects}
    assert all(fresh[X] == X and fresh[X] is not X for X in E.objects)
    own = functor_by_data(E, E, {X: X for X in E.objects}, E.data)
    other = functor_by_data(E, E, fresh, E.data)
    assert own.mor_map == other.mor_map == {m: m for m in range(E.n_morphisms)}
    assert check_functor(other, "equivalence") == ""


def test_endpoint_witnesses_on_conflations_are_those_of_the_pair_loop():
    """Objects and endpoints compared by object index give the witnesses
    that comparing the conflations themselves gives."""
    E = conflation_category(2)
    fresh = {X: _fresh(X) for X in E.objects}
    identity = {m: m for m in range(E.n_morphisms)}
    X = E.objects[4]
    outside = next(Y for Y in all_conflations(3) if Y.total == 3)
    F = Functor(E, E, {**fresh, X: outside}, identity)
    want = "object %r maps outside the target" % (X,)
    assert check_functor(F, "functoriality") == _pair_loop_functoriality(F) == want
    m = next(m for m in range(E.n_morphisms) if m not in E.identities.values())
    rival = next(
        x for x in range(E.n_morphisms) if (E.mor_src[x], E.mor_dst[x]) != (E.mor_src[m], E.mor_dst[m])
    )
    F = Functor(E, E, fresh, {**identity, m: rival})
    want = "morphism %d endpoints broken" % m
    assert check_functor(F, "functoriality") == _pair_loop_functoriality(F) == want

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
    with pytest.raises(ValueError, match=r"not closed under composition at \(g=%d, f=%d\)" % (gen, gen)):
        subcategory(bz4, ["*"], [gen])
    # two transpositions of S_3: both (s, t) and (t, s) leave, and the
    # least pair, with g = min(s, t), is the witness
    s3 = one_object_groupoid(
        list(itertools.permutations(range(3))),
        lambda a, b: tuple(a[b[i]] for i in range(3)),
        (0, 1, 2),
    )
    s, t = (s3.find("*", "*", p) for p in ((1, 0, 2), (0, 2, 1)))
    g, f = min(s, t), max(s, t)
    with pytest.raises(ValueError, match=r"at \(g=%d, f=%d\)" % (g, f)):
        subcategory(s3, ["*"], [t, s])


def test_subcategory_rejects_an_object_not_in_the_parent():
    q1 = q_category(1)
    with pytest.raises(UnknownObject, match="nope"):
        subcategory(q1, ["nope"], [])
    with pytest.raises(UnknownObject, match="nope"):
        full_subcategory(q1, [0, "nope"])


def test_subcategory_rejects_an_id_outside_the_parent():
    q1 = q_category(1)
    for stray in (-1, q1.n_morphisms, "x"):
        with pytest.raises(ValueError, match="not morphism ids: %r" % (stray,)):
            subcategory(q1, [0, 1], [0, stray])


def test_subcategory_keeping_every_morphism_is_the_parent():
    q2 = q_category(2)
    everything = list(range(q2.n_morphisms))
    assert full_subcategory(q2, q2.objects) is q2
    assert subcategory(q2, q2.objects, everything) is q2
    # the checks before the early return still run
    with pytest.raises(ValueError, match="leaves the chosen objects"):
        subcategory(q2, q2.objects[:-1], everything)
    with pytest.raises(UnknownObject, match="nope"):
        subcategory(q2, list(q2.objects) + ["nope"], everything)
    with pytest.raises(ValueError, match="not morphism ids: %d" % q2.n_morphisms):
        subcategory(q2, q2.objects, everything + [q2.n_morphisms])


def _assert_restricts_a_certified_build(cat, sub, objects, keep):
    """sub, on the given objects and the parent ids keep, is what
    build_category certifies when fed those parent ids as data."""
    ref = build_category(objects, [(cat.mor_src[m], cat.mor_dst[m], m) for m in keep], cat.compose)
    assert sub.objects == ref.objects
    assert sub.comp == ref.comp
    assert sub.identities == ref.identities
    assert sub.homs == ref.homs
    assert sub.mor_data == tuple(cat.data(m) for m in ref.mor_data)


def test_fibers_restrict_what_build_category_certifies():
    """The three fibers that conflation_suite(3) takes."""
    E, q = conflation_category(3), q_category(3)
    quotient = quotient_fibration(E, q)
    for c in (0, 1, 2):
        over_identity = q.find(c, c, QSpan.identity(c))
        mids = [m for m in range(E.n_morphisms) if quotient(m) == over_identity]
        objects = [X for X in E.objects if X.quotient == c]
        fiber = subcategory(E, objects, mids)
        keep = sorted(set(mids) | {E.identities[X] for X in objects})
        _assert_restricts_a_certified_build(E, fiber, objects, keep)


def test_full_subcategory_restricts_what_build_category_certifies():
    QH = qh_category(3)
    component = max(pi0(QH), key=len)
    keep = [
        m
        for m in range(QH.n_morphisms)
        if QH.mor_src[m] in component and QH.mor_dst[m] in component
    ]
    objects = [M for M in QH.objects if M in component]
    _assert_restricts_a_certified_build(QH, full_subcategory(QH, component), objects, keep)


def _composition_views():
    """(category, rule composing its data): a built category of spans,
    one of conflations, its full subcategory on total size 2, and the
    isomorphisms of that."""
    q3, e2 = q_category(3), conflation_category(2)
    top = full_subcategory(e2, [X for X in e2.objects if X.total == 2])
    core = subcategory(top, top.objects, [m for m in range(top.n_morphisms) if top.is_iso(m)])
    return [(q3, q_compose), (e2, kernel.compose), (top, kernel.compose), (core, kernel.compose)]


def test_comp_is_a_read_only_view_of_the_composition_tables():
    for cat, compose_data in _composition_views():
        n = cat.n_morphisms
        src = [cat.obj_index[o] for o in cat.mor_src]
        dst = [cat.obj_index[o] for o in cat.mor_dst]
        oracle = {
            (g, f): cat.find(cat.mor_src[f], cat.mor_dst[g], compose_data(cat.data(g), cat.data(f)))
            for f in range(n)
            for g in range(n)
            if src[g] == dst[f]
        }
        assert None not in oracle.values()
        assert dict(cat.comp) == oracle and cat.comp == oracle
        assert len(cat.comp) == len(oracle) > 0
        assert [pair for pair, _ in cat.comp.items()] == sorted(oracle, key=lambda p: (p[1], p[0]))
        assert list(cat.comp) == [pair for pair, _ in cat.comp.items()]
        for g in range(n):
            for f in range(n):
                if src[g] == dst[f]:
                    assert cat.compose(g, f) == cat.comp[(g, f)] == oracle[(g, f)]
                    assert (g, f) in cat.comp
                else:
                    for read in (cat.comp.__getitem__, lambda p: cat.compose(*p)):
                        with pytest.raises(KeyError):
                            read((g, f))
                    assert (g, f) not in cat.comp
        for stray in ((-1, 0), (0, -1), (n, 0), (0, n), (0, None), (0,), (0, 0, 0), "x", None):
            with pytest.raises(KeyError):
                cat.comp[stray]
            assert stray not in cat.comp
        with pytest.raises(TypeError):
            cat.comp[(0, 0)] = 0


def test_conflation_category_keeps_its_composition_in_the_tables():
    """The composition costs about one pointer per composable pair;
    a (g, f) -> g∘f dict cost over 100 bytes a pair."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cat = conflation_category(3)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(cat.comp) == 121339
    assert retained / len(cat.comp) < 32


def test_pi0_components():
    two = walking_arrow()
    assert pi0(two) == ((0, 1),)
    disc = build_category([0, 1], [(0, 0, "id0"), (1, 1, "id1")], lambda g, f: g)
    assert pi0(disc) == ((0,), (1,))


def _category_payload(cat):
    """The export as a dict: dumped with sort_keys and indent=2, it is
    the oracle of category_to_json's text."""
    return {
        "objects": [str(o) for o in cat.objects],
        "homs": {
            "%d,%d" % (cat.obj_index[a], cat.obj_index[b]): list(ms)
            for (a, b), ms in cat.homs.items()
        },
        "comp": {"%d,%d" % (g, f): h for (g, f), h in cat.comp.items()},
    }


def _chain(names):
    """The poset category of a chain: one morphism i -> j for i <= j."""
    n = len(names)
    return build_category(
        names,
        [(names[i], names[j], (i, j)) for i in range(n) for j in range(i, n)],
        lambda g, f: (f[0], g[1]),
    )


_JSON_CASES = {
    "q_category(3)": lambda: q_category(3),
    "qh_category(3)": lambda: qh_category(3),
    "completion_category(3)": lambda: completion_category(3),
    "conflation_category(2)": lambda: conflation_category(2),
    # 12 objects and 78 morphisms, so "10,..." sorts between "1,..." and "2,..."
    "chain of 12": lambda: _chain(list(range(12))),
    "escaped names": lambda: _chain(['say "hi"', "back\\slash", "x ⊕ y", "tab\t", ("t", 1)]),
    "discrete 11": lambda: build_category(
        range(11), [(k, k, k) for k in range(11)], lambda g, f: g
    ),
    "empty": lambda: build_category([], [], lambda g, f: g),
}


@pytest.mark.parametrize("case", list(_JSON_CASES))
def test_category_to_json_writes_the_bytes_of_the_sorted_dump(case):
    cat = _JSON_CASES[case]()
    text = category_to_json(cat)
    assert text == json.dumps(_category_payload(cat), sort_keys=True, indent=2) + "\n"


def test_category_to_json_sorts_ids_as_strings():
    text = category_to_json(_chain(list(range(12))))
    keys = list(json.loads(text)["comp"])
    assert keys == sorted(keys, key=lambda k: tuple(k.split(",")))
    assert keys != sorted(keys, key=lambda k: tuple(map(int, k.split(","))))
    assert keys.index("1,0") < keys.index("10,0") < keys.index("2,0")
    homs = list(json.loads(text)["homs"])
    assert homs.index("1,11") < homs.index("10,10") < homs.index("2,2")
    text = category_to_json(_chain(['say "hi"', "x ⊕ y"]))
    assert json.loads(text)["objects"] == ['say "hi"', "x ⊕ y"]
    assert '"say \\"hi\\""' in text and '"x \\u2295 y"' in text


def test_category_to_json_peaks_within_five_times_its_text():
    cat = conflation_category(3)
    gc.collect()
    tracemalloc.start()
    try:
        text = category_to_json(cat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) == 2666989
    assert peak < 5 * len(text)


def test_json_round_trip_and_dot():
    two = walking_arrow()
    back = category_from_json(category_to_json(two))
    assert len(back.objects) == 2 and back.n_morphisms == 3
    assert back.hom("0", "1") == (2,)
    # composition and identities survive, and each id is its own data
    for cat in (two, q_category(2)):
        back = category_from_json(category_to_json(cat))
        assert back.comp == cat.comp
        assert back.identities == {str(o): m for o, m in cat.identities.items()}
        for m in range(back.n_morphisms):
            assert back.find(back.mor_src[m], back.mor_dst[m], m) == m
    dot = category_to_dot(two)
    assert dot.startswith("digraph")
    assert "n0 -> n1" in dot
