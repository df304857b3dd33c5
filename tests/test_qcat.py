"""Span categories, hermitian reduction spans, the conflation
category with its quotient fibration, stabilization, and the
group-completion category."""

import collections
import itertools
import random
import re
from math import comb, factorial

import pytest

from f1kgw import qcat
from f1kgw._backend import kernel
from f1kgw.fincat import (
    build_category,
    check_functor,
    full_subcategory,
    functor_by_data,
    h1,
    pi0,
)
from f1kgw.forms import (
    enumerate_forms,
    hyperbolic,
    identity_form,
    isometries,
    isotropic_reduction,
    isotropic_subobjects,
)
from f1kgw.pointed import (
    Conflation,
    F1Morphism,
    TypeMismatch,
    all_conflations,
    complete_pullback,
    compose,
    is_inflation,
)
from f1kgw.qcat import (
    QSpan,
    _by_image,
    _quotient_parts,
    _stab_canonical,
    comma_tau_suite,
    completion_category,
    completion_morphisms,
    conflation_category,
    conflation_suite,
    graph_of_isometries,
    hyperbolic_groupoid,
    is_reductive_span,
    iso_groupoid,
    q_category,
    q_compose,
    q_span_morphisms,
    qh_category,
    qh_component_fixed_points,
    qh_forgetful,
    quotient_fibration,
    stabilization_equivalence_suite,
    standard_stabilization,
)
from test_fincat import all_pairs_h1, all_pairs_presentation


# ---------------------------------------------------------------- spans


def span_from_morphisms(p, j):
    """The canonical QSpan of the span given by the F1Morphisms
    p: E ->> src and j: E >-> dst.  QSpan refuses a p that is not a
    deflation."""
    if p.src != j.src:
        raise TypeMismatch("span legs must share the middle object")
    if not is_inflation(j):
        raise ValueError("the incoming leg must be an inflation")
    return QSpan(p.dst, j.dst, *_by_image(p.map, j.map))


def span_to_morphisms(s):
    """The canonical legs (p: E ->> src, j: E >-> dst) of the QSpan s,
    as F1Morphisms."""
    e = len(s.sub)
    return F1Morphism(e, s.src, s.pmap), F1Morphism(e, s.dst, (0,) + s.sub)


def test_span_validation_and_round_trip():
    s = QSpan(1, 2, (1, 2), (0, 1, 0))
    assert s.kernel_points() == (2,)
    p, j = span_to_morphisms(s)
    assert span_from_morphisms(p, j) == s
    with pytest.raises(ValueError):
        QSpan(1, 2, (2, 1), (0, 1, 0))  # sub not ascending
    with pytest.raises(ValueError, match=r"^invalid map \(0, 1, 3\) for 2 -> 1$"):
        QSpan(1, 2, (1, 2), (0, 1, 3))  # pmap leaves the target
    with pytest.raises(ValueError, match="^the outgoing leg must be a deflation$"):
        QSpan(2, 2, (1, 2), (0, 0, 0))  # pmap not a deflation


def test_from_morphisms_refuses_a_leg_that_is_not_a_deflation():
    """QSpan's own check decides it on the relabelled deflation map."""
    p = F1Morphism(2, 2, (0, 0, 1))  # misses the point 2
    j = F1Morphism(2, 3, (0, 3, 1))
    with pytest.raises(ValueError, match="^the outgoing leg must be a deflation$"):
        span_from_morphisms(p, j)


def test_span_canonical_form_is_middle_relabelling_invariant():
    # same span presented with the middle enumerated in a different
    # order lands on one canonical representative
    j = F1Morphism(2, 3, (0, 3, 1))
    p = F1Morphism(2, 2, (0, 2, 1))
    a = span_from_morphisms(p, j)
    swap = F1Morphism(2, 2, (0, 2, 1))
    from f1kgw.pointed import compose

    b = span_from_morphisms(compose(p, swap), compose(j, swap))
    assert a == b


def test_span_identity_composition():
    i2 = QSpan.identity(2)
    assert q_compose(i2, i2) == i2
    f = QSpan(0, 1, (1,), (0, 0))
    g = QSpan(1, 2, (1, 2), (0, 1, 0))
    gf = q_compose(g, f)
    assert (gf.src, gf.dst, gf.sub) == (0, 2, (1, 2))
    assert q_compose(QSpan.identity(2), g) == g
    assert q_compose(g, QSpan.identity(1)) == g


def test_q_compose_builds_what_the_validating_constructor_builds():
    """Composites skip QSpan's checks: each one over the span category
    at window 3 is the span that the checks accept and the category
    holds."""
    cat = q_category(3)
    for (g, f), gf in cat.comp.items():
        span = q_compose(cat.data(g), cat.data(f))
        checked = QSpan(span.src, span.dst, span.sub, span.pmap)
        assert span == checked == cat.data(gf)
        assert hash(span) == hash(checked) == hash(cat.data(gf))
        assert type(span.sub) is type(span.pmap) is tuple


def test_q_compose_matches_the_pullback_of_legs():
    # Newly covers: q_compose against an independent route, on every
    # composable pair of q_category(4) and on the span data of every
    # composable pair of qh_category(4).  The oracle turns both spans
    # into F1Morphism legs, completes the cospan by complete_pullback
    # and canonicalizes the composite legs with span_from_morphisms.
    def by_legs(g, f):
        p_f, j_f = span_to_morphisms(f)
        p_g, j_g = span_to_morphisms(g)
        square = complete_pullback(j_f, p_g)
        return span_from_morphisms(
            compose(p_f, square.left), compose(j_g, square.top)
        )

    spans = q_category(4).mor_data
    pairs = [(g, f) for f in spans for g in spans if f.dst == g.src]
    assert len(pairs) == 6882
    qh = qh_category(4)
    hermitian = {(qh.data(g), qh.data(f)) for g, f in qh.comp}
    assert len(qh.comp) == 7558
    for g, f in pairs + list(hermitian):
        assert q_compose(g, f) == by_legs(g, f)


def test_span_category_hom_counts():
    Q3 = q_category(3)
    for v in range(4):
        assert len(Q3.hom(0, v)) == 2**v
    for u in range(4):
        for v in range(4):
            # |hom(u,v)| = sum_e C(v,e) C(e,u) u!
            want = sum(comb(v, e) * comb(e, u) * factorial(u) for e in range(v + 1))
            assert len(Q3.hom(u, v)) == want
    assert Q3.n_morphisms == 52
    assert q_category(4).n_morphisms == 220


def test_span_category_fundamental_group_regression():
    # recorded regression values, not identities: the loop structure of
    # the span category stays infinite cyclic at windows 2, 3 and 4; the
    # sizes are those of the all-pairs oracle
    Q2, Q3, Q4 = q_category(2), q_category(3), q_category(4)
    p2 = all_pairs_presentation(Q2, 0)
    assert (len(p2.generators), len(p2.relations)) == (11, 19)
    assert str(h1(Q2, 0)) == "Z" and h1(Q2, 0) == all_pairs_h1(Q2, 0)
    p3 = all_pairs_presentation(Q3, 0)
    assert (len(p3.generators), len(p3.relations)) == (48, 337)
    assert str(h1(Q3, 0)) == "Z" and h1(Q3, 0) == all_pairs_h1(Q3, 0)
    p4 = all_pairs_presentation(Q4, 0)
    assert (len(p4.generators), len(p4.relations)) == (215, 6451)
    assert str(h1(Q4, 0)) == "Z" and h1(Q4, 0) == all_pairs_h1(Q4, 0)


def test_span_category_h1_at_window_5():
    # the Baseline value, past the all-pairs route's reach in Tier-1
    assert str(h1(q_category(5), 0)) == "Z"


# ------------------------------------------------------------ hermitian


def test_hermitian_span_recognition():
    h1 = hyperbolic(1)
    z = identity_form(0)
    good = QSpan(0, 2, (1,), (0, 0))  # reduce along T={2}: coisotropy {1}
    assert is_reductive_span(z, h1, good)
    bad = QSpan(0, 2, (1, 2), (0, 0, 0))  # kernel {1,2} is not isotropic
    assert not is_reductive_span(z, h1, bad)
    # identity span on a form is always reductive
    assert is_reductive_span(h1, h1, QSpan.identity(2))


def reductive_spans(M, N):
    """All hermitian morphisms M -> N, as qh_category reads them."""
    return qcat._spans_through_reductions(M, N, qcat._reductions(N))


def qh_census_counts(max_size):
    """Brute-force recount, the oracle for reductive_spans: for each pair
    of forms, the number of valid spans found by filtering every span
    between the sizes, as a dict (M, N) -> count."""
    objects = [M for n in range(max_size + 1) for M in enumerate_forms(n)]
    return {
        (M, N): sum(
            1 for s in q_span_morphisms(M.size, N.size) if is_reductive_span(M, N, s)
        )
        for M in objects
        for N in objects
    }


def test_reductive_span_census_against_brute_filter():
    counts = qh_census_counts(3)
    forms = [f for n in range(4) for f in enumerate_forms(n)]
    for M in forms:
        for N in forms:
            built = reductive_spans(M, N)
            assert len(built) == counts[(M, N)]
            assert len(set(built)) == len(built)


def _per_pair_reductive_spans(M, N):
    """The reference for qh_category's morphisms: reductive_spans as it
    was, enumerating the isotropic subobjects of N once per (M, N)."""
    out = []
    for iso in isotropic_subobjects(N):
        red = isotropic_reduction(iso)
        if red.size != M.size:
            continue
        T = iso.morphism.image
        perp = iso.perp()
        carrier = [k for k in perp if k not in set(T)]
        relabel = {k: j + 1 for j, k in enumerate(carrier)}
        for h in isometries(red, M):
            pmap = [0]
            for k in perp:
                pmap.append(0 if k in set(T) else h.map[relabel[k]])
            span = QSpan(M.size, N.size, perp, tuple(pmap))
            assert is_reductive_span(M, N, span)
            out.append(span)
    return out


@pytest.mark.parametrize("max_size", range(5))
def test_qh_category_lists_the_per_pair_morphisms_in_order(max_size):
    """Same (src, dst, data) list in the same order, so the same ids and
    export bytes, as the per-pair loop."""
    objects = [M for n in range(max_size + 1) for M in enumerate_forms(n)]
    want = [
        (M, N, s) for M in objects for N in objects for s in _per_pair_reductive_spans(M, N)
    ]
    cat = qh_category(max_size)
    assert cat.objects == tuple(objects)
    assert list(zip(cat.mor_src, cat.mor_dst, cat.mor_data)) == want
    if max_size <= 3:
        for M in objects:
            for N in objects:
                assert reductive_spans(M, N) == _per_pair_reductive_spans(M, N)


def test_qh_category_refuses_a_search_map_that_is_not_an_isometry(monkeypatch):
    """The maps of the isometry search are not verified apart, so the
    census check of each span is what refuses the identity from the
    reduction (1 2) of N = (1 2) onto M = (1)(2)."""
    monkeypatch.setattr(qcat, "isometry_maps", lambda M, N: iter([kernel.identity(M.size)]))
    with pytest.raises(AssertionError, match="^constructed span fails the reduction census: "):
        qh_category(2)


def test_qh_category_enumerates_isotropic_subobjects_once_per_form(monkeypatch):
    calls = collections.Counter()

    def counted(N):
        calls[N] += 1
        return isotropic_subobjects(N)

    monkeypatch.setattr(qcat, "isotropic_subobjects", counted)
    cat = qh_category(4)
    assert len(cat.objects) == 18
    assert calls == collections.Counter(cat.objects)


def test_hermitian_category_hom_counts_and_components():
    QH2 = qh_category(2)
    z, h1, i1 = identity_form(0), hyperbolic(1), identity_form(1)
    assert len(QH2.hom(z, h1)) == 2
    assert len(QH2.hom(z, i1)) == 0
    assert sorted(qh_component_fixed_points(QH2)) == [0, 1, 2]
    QH4 = qh_category(4)
    assert QH4.n_morphisms == 338
    assert sorted(qh_component_fixed_points(QH4)) == [0, 1, 2, 3, 4]


def test_forgetful_functor_to_spans():
    QH3 = qh_category(3)
    assert check_functor(qh_forgetful(QH3, q_category(3)), "functoriality") == ""


def test_hermitian_fundamental_group_regression():
    # the fixed-point-free component at window 3 carries a 2-torsion loop
    QH3 = qh_category(3)
    comp = [M for M in QH3.objects if not M.fixed_points()]
    sub = full_subcategory(QH3, comp)
    ab = h1(sub, identity_form(0))
    assert str(ab) == "Z/2"
    assert ab == all_pairs_h1(sub, identity_form(0))
    # at window 4 the component of forms with two fixed points has two
    QH4 = qh_category(4)
    comp = [M for M in QH4.objects if len(M.fixed_points()) == 2]
    sub = full_subcategory(QH4, comp)
    ab = h1(sub, comp[0])
    assert str(ab) == "Z/2 x Z/2"
    assert ab == all_pairs_h1(sub, comp[0])


# ----------------------------------------------------------- conflations


def test_conflation_category_size():
    E3 = conflation_category(3)
    assert len(E3.objects) == 33
    assert E3.n_morphisms == 2221


def test_conflation_morphism_derivation_rejects():
    src = next(c for c in all_conflations(2) if int(c.sub) == 1 and int(c.total) == 2)
    dst = next(c for c in all_conflations(2) if int(c.sub) == 0 and int(c.total) == 1)
    # b must make the kernel row work; killing everything cannot
    assert _quotient_parts(src, dst, kernel.zero_map(2, 1)) is None
    # identity b on matching conflations gives the identity quotient span
    parts = _quotient_parts(src, src, kernel.identity(2))
    assert QSpan(1, 1, *parts) == QSpan.identity(1)


def test_quotient_fibration_sends_each_morphism_to_its_quotient_parts():
    E, q = conflation_category(3), q_category(3)
    quotient = quotient_fibration(E, q)
    for m in range(E.n_morphisms):
        X, Y = E.mor_src[m], E.mor_dst[m]
        parts = _quotient_parts(X, Y, E.data(m))
        assert quotient(m) == q.find(X.quotient, Y.quotient, QSpan(X.quotient, Y.quotient, *parts))



def _quotient_parts_single_pass(src, dst, bmap):
    """Oracle: ``_quotient_parts`` as one pass over src, dst and bmap."""
    if not kernel.is_injective(bmap):
        return None
    pi_b = kernel.compose(dst.p.map, bmap)
    c1 = tuple(sorted(set(pi_b[1:]) - {0}))
    pos = {c: k + 1 for k, c in enumerate(c1)}
    pi1 = tuple(0 if m == 0 else pos[m] for m in pi_b)
    if not kernel.is_surjective(pi1, len(c1)):
        return None
    k = kernel.compose(kernel.adjoint(bmap, dst.total), dst.i.map)
    if not kernel.is_injective(k):
        return None
    if {x for x in range(1, src.total + 1) if pi1[x] == 0} != set(k[1:]):
        return None
    a = kernel.compose(kernel.adjoint(src.i.map, src.total), k)
    if not kernel.is_injective(a):
        return None
    if kernel.compose(src.i.map, a) != k:
        return None
    qmap = [0] * (len(c1) + 1)
    for x in range(1, src.total + 1):
        c = pi1[x]
        want = src.p.map[x]
        if c == 0:
            if want != 0:
                return None
        elif qmap[c] == 0:
            qmap[c] = want
        elif qmap[c] != want:
            return None
    qmap = tuple(qmap)
    if not kernel.is_valid_map(qmap, src.quotient):
        return None
    if not kernel.is_surjective(qmap, src.quotient):
        return None
    return c1, qmap


def _candidates(n):
    """Every (src, dst, bmap) that conflation_category(n) reads, in its
    order."""
    objects = all_conflations(n)
    return [
        (src, dst, bmap)
        for src in objects
        for dst in objects
        for bmap in kernel.inflation_maps(src.total, dst.total)
    ]


def test_split_quotient_parts_agree_with_the_single_pass():
    candidates = _candidates(3)
    assert len(candidates) == 4597
    accepted = 0
    for src, dst, bmap in candidates:
        want = _quotient_parts_single_pass(src, dst, bmap)
        assert _quotient_parts(src, dst, bmap) == want, (src, dst, bmap)
        accepted += want is not None
    assert accepted == 2221


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_conflation_category_is_the_per_candidate_loop(n):
    """One inclusion test per candidate keeps the morphisms, and their
    order, of one ``_quotient_parts`` call per candidate."""
    E = conflation_category(n)
    want = [c for c in _candidates(n) if _quotient_parts(*c) is not None]
    assert list(zip(E.mor_src, E.mor_dst, E.mor_data)) == want


def test_conflation_category_finds_the_window_4_morphisms(monkeypatch):
    """The filter alone at window 4, without the composition tables."""
    monkeypatch.setattr(qcat, "build_category", lambda objects, morphisms, compose: morphisms)
    assert len(conflation_category(4)) == 184717


def test_quotient_parts_agree_with_the_single_pass_on_a_window_4_sample():
    candidates = _candidates(4)
    assert len(candidates) == 429037
    accepted = 0
    for src, dst, bmap in random.Random(2304).sample(candidates, 20000):
        want = _quotient_parts_single_pass(src, dst, bmap)
        assert _quotient_parts(src, dst, bmap) == want, (src, dst, bmap)
        accepted += want is not None
    assert 0 < accepted < 20000


def test_quotient_fibration_leaves_a_refused_datum_unmapped():
    """X = 0 >-> 1 ->> 1 and Y = 1 >-> 1 ->> 0 with a morphism X -> Y
    whose middle map does not reach Y's sub from X's empty one: the
    quotient functor leaves it unmapped, and check_functor says so."""
    X = Conflation(F1Morphism(0, 1, (0,)), F1Morphism(1, 1, (0, 1)))
    Y = Conflation(F1Morphism(1, 1, (0, 1)), F1Morphism(1, 0, (0, 0)))
    one = (0, 1)
    E = build_category([X, Y], [(X, X, one), (Y, Y, one), (X, Y, one)], kernel.compose)
    assert _quotient_parts(X, Y, one) is None
    F = quotient_fibration(E, q_category(1))
    assert F.mor_map.keys() == {0, 1}
    assert check_functor(F, "functoriality") == "morphism 2 unmapped"


def pointed_set_category(n):
    """Oracle: the category of the pointed sets 0..n and all maps
    between them, partial injections as kernel map tuples, composed by
    ``kernel.compose``."""
    objects = range(n + 1)
    morphisms = [(a, b, f) for a in objects for b in objects for f in kernel.hom_maps(a, b)]
    return build_category(objects, morphisms, kernel.compose)


@pytest.mark.parametrize("n", [2, 3])
def test_conflation_category_composes_as_pointed_sets(n):
    """X ↦ X.total, b ↦ b is a faithful functor into the pointed sets:
    conflations compose by their middle maps."""
    E = conflation_category(n)
    F = functor_by_data(E, pointed_set_category(n), {X: X.total for X in E.objects}, E.data)
    assert len(F.mor_map) == E.n_morphisms
    assert check_functor(F, "functoriality") == check_functor(F, "faithful") == ""


def test_pointed_set_category_counts_partial_injections():
    sizes = []
    for n in range(5):
        P = pointed_set_category(n)
        assert P.objects == tuple(range(n + 1))
        for a in P.objects:
            for b in P.objects:
                want = sum(comb(a, k) * comb(b, k) * factorial(k) for k in range(min(a, b) + 1))
                assert len(P.hom(a, b)) == want, (a, b)
        sizes.append(P.n_morphisms)
    assert sizes == [1, 5, 20, 90, 499]


def test_iso_groupoid_counts():
    G = iso_groupoid(3)
    assert len(G.objects) == 4
    # morphisms = sum of n! per object
    assert G.n_morphisms == 1 + 1 + 2 + 6
    assert len(pi0(G)) == 4


def test_conflation_suite_small():
    report = conflation_suite(2)
    assert report.ok
    assert "result: ALL PASS" in report.render()


def test_conflation_suite_default_fiber_sizes_fit_the_window():
    report = conflation_suite(1)
    assert report.ok
    assert report.notes == [
        "fiber sizes exercised: (0, 1)",
        "action = extension after restriction on the fiber (size 1) has no case:"
        " an object with quotient 1 has total >= 1, so 1 + total > 1",
    ]
    assert not [c.name for c in report.checks if "size 2" in c.name]


def test_conflation_suite_names_every_check_without_a_case_in_a_note():
    for max_size, size in ((1, 1), (2, 2), (3, 2)):
        report = conflation_suite(max_size)
        empty = [c.name for c in report.checks if c.checked == 0]
        assert empty == ["action = extension after restriction on the fiber (size %d)" % size]
        for name in empty:
            assert sum(note.startswith(name + " has no case") for note in report.notes) == 1


@pytest.fixture
def corrupt(monkeypatch):
    """Replace a helper of the conflation suite for one test.  The
    helpers cache nothing, so no value built with the honest helper
    answers for the corrupted one, and none outlives the test."""
    yield lambda name, helper: monkeypatch.setattr(qcat, name, helper)


def _failures(report):
    """{check name: (cases counted, witness)} of the failing checks; the
    report renders and says so."""
    assert not report.ok and report.render().endswith("result: FAILURES")
    return {c.name: (c.checked, c.witness) for c in report.checks if not c.passed}


def test_natural_iso_reports_a_round_trip_that_does_not_compose(corrupt):
    """An isomorphic stand-in for 2 >-> 2 ->> 0 moves the round trip's
    objects off the comparisons' targets: reported, not a KeyError."""
    honest = qcat._zero_quotient
    swapped = Conflation(F1Morphism(2, 2, (0, 2, 1)), F1Morphism.zero(2, 0))
    corrupt("_zero_quotient", lambda n: swapped if n == 2 else honest(n))
    failures = _failures(conflation_suite(3))
    assert failures == {
        "action = extension after restriction on the fiber (size 0)":
            (13, "naturality square at morphism 2 does not compose"),
        "action = extension after restriction on the fiber (size 1)":
            (5, "naturality square at morphism 1 does not compose"),
    }


def test_natural_iso_refuses_a_comparison_that_is_not_invertible():
    """A comparison that names a morphism with no inverse is refused at
    its object, before any naturality square is read."""
    E = conflation_category(1)
    identity = functor_by_data(E, E, {X: X for X in E.objects}, E.data)
    # (0,) is the one morphism from 0 >-> 0 ->> 0, the first object, to
    # 0 >-> 1 ->> 1, the second
    witnesses = qcat._natural_iso(identity, identity, lambda X: (E.objects[1], (0,)))
    assert next(witnesses) == "comparison at [0]:0->0 ; [0]:0->0 is not invertible"


def test_a_broken_id_sum_fails_the_extension_and_the_action(corrupt):
    """id_C ⊕ id_B sent to id_C ⊕ swap for C = 1, B = 2."""
    honest = qcat._id_sum
    corrupt("_id_sum", lambda c, f: honest(c, (0, 2, 1) if (c, f) == (1, (0, 1, 2)) else f))
    failures = _failures(conflation_suite(3))
    # a failing functor check counts its whole domain, as a passing one does
    checked, witness = failures["extension from the zero fiber (quotient size 1)"]
    assert checked == 44
    assert re.fullmatch(r"identity of Conflation\(.*\) not preserved", witness)
    checked, witness = failures["scalar action by size 1 is functorial"]
    assert checked == 404
    assert re.fullmatch(r"morphism \d+ unmapped", witness)
    assert "restriction to the zero fiber (quotient size 1)" not in failures


def test_a_broken_extension_fails_the_natural_iso(corrupt):
    """The extension of a total-1 object replaced by 2 >-> 2 ->> 0."""
    honest = qcat._extension

    def broken(c, X):
        return qcat._zero_quotient(2) if (c, X.total) == (1, 1) else honest(c, X)

    corrupt("_extension", broken)
    failures = _failures(conflation_suite(2))
    assert failures == {
        "action = extension after restriction on the fiber (size 1)":
            (2, "naturality square at morphism 0 does not compose"),
    }


def test_a_broken_scalar_action_fails_the_action_and_the_natural_iso(corrupt):
    """C·X replaced by the extension of X for C = 1 and X = 1 >-> 1 ->> 0."""
    honest = qcat.scalar_action_object

    def broken(c, X):
        if (c, X.total, X.quotient) == (1, 1, 0):
            return qcat._extension(c, X)
        return honest(c, X)

    corrupt("scalar_action_object", broken)
    failures = _failures(conflation_suite(2))
    assert set(failures) == {
        "scalar action by size 1 is functorial",
        "action = restriction after extension over the zero fiber (size 1)",
    }
    assert failures["scalar action by size 1 is functorial"] == (12, "morphism 3 unmapped")
    _, witness = failures["action = restriction after extension over the zero fiber (size 1)"]
    assert re.fullmatch(r"comparison at .* is not a morphism", witness)


_honest_extension = qcat._extension
_honest_identity = F1Morphism.identity


def _extension_to_2(c, X):
    """The extension of a total-1 object replaced by 2 >-> 2 ->> 0."""
    return qcat._zero_quotient(2) if (c, X.total) == (1, 1) else _honest_extension(c, X)


def _swapped_identity(cls, n):
    """The identity of 2 replaced by the swap, so that 2 >-> 2 ->> 0 is
    built on it."""
    return cls(2, 2, (0, 2, 1)) if n == 2 else _honest_identity(n)


@pytest.mark.parametrize(
    "owner, name, broken",
    [(qcat, "_extension", _extension_to_2), (F1Morphism, "identity", classmethod(_swapped_identity))],
    ids=["extension", "identity"],
)
def test_a_corrupted_run_leaves_nothing_for_the_next(monkeypatch, owner, name, broken):
    """A run with a corrupted helper fails, and the honest run after it
    passes: no conflation built in the first run answers in the second."""
    with monkeypatch.context() as m:
        m.setattr(owner, name, broken)
        assert not conflation_suite(2).ok
    report = conflation_suite(2)
    assert report.ok and report.render().endswith("result: ALL PASS")


def test_a_partial_quotient_functor_ends_the_suite_with_a_note(monkeypatch):
    """The fibers are read off the quotient functor: when it leaves a
    morphism unmapped, the suite reports that and takes no fiber."""
    honest = qcat.quotient_fibration

    def dropping_the_last(E, q):
        F = honest(E, q)
        del F.mor_map[E.n_morphisms - 1]
        return F

    monkeypatch.setattr(qcat, "quotient_fibration", dropping_the_last)
    report = conflation_suite(2)
    assert _failures(report) == {"quotient functor to the span category": (61, "morphism 60 unmapped")}
    assert [c.name for c in report.checks] == [
        "object census matches (x+1)*x! per total size",
        "quotient functor to the span category",
    ]
    assert report.notes == [
        "fiber checks skipped: the fibers are taken over the quotient functor, which failed"
    ]


# -------------------------------------------------- comma / stabilization


def test_hyperbolic_groupoid_size():
    SH4 = hyperbolic_groupoid(4)
    # forms: size 0 (1), size 2 (1), size 4 (3); isometries within class
    assert len(SH4.objects) == 5
    assert SH4.n_morphisms == 75


def test_graph_of_isometries_lands_in_spans():
    SH4 = hyperbolic_groupoid(4)
    QH4 = qh_category(4)
    tau = graph_of_isometries(SH4, QH4)
    assert check_functor(tau, "functoriality") == ""


def test_standard_stabilization_span_shape():
    base = identity_form(0)
    s = standard_stabilization(base, 1)
    # a span from M into M + H(V) that reduces away the added block
    assert s.src == 0 and s.dst == 2


def test_comma_tau_suite():
    report = comma_tau_suite(3)
    assert report.ok


def test_comma_tau_suite_default_bases_fit_the_window():
    report = comma_tau_suite(1)
    assert report.ok
    assert report.notes == ["bases: inv:()"]


def test_stabilization_equivalence_suite_needs_room_for_the_point():
    with pytest.raises(ValueError, match="max_size 0 leaves no room"):
        stabilization_equivalence_suite(0)


def test_stabilization_equivalence_suite():
    report = stabilization_equivalence_suite(3)
    assert report.ok
    assert "result: ALL PASS" in report.render()


def test_small_forms_of_the_hermitian_span_category_are_the_smaller_build():
    """The full subcategory on the forms of size <= d, which
    stabilization_equivalence_suite takes as its domain, is
    qh_category(d): the same objects, hom sets, span data and
    composition.  The other window towers are nested the same way: the
    suites read the isomorphism groupoids of smaller windows out of one
    iso_groupoid build, and the span, conflation and completion
    categories restrict alike."""
    towers = (
        (qh_category, 4, lambda M: M.size),
        (iso_groupoid, 5, lambda n: n),
        (hyperbolic_groupoid, 4, lambda M: M.size),
        (q_category, 4, lambda n: n),
        (conflation_category, 3, lambda X: X.total),
        (completion_category, 3, max),
    )
    for build, top, size in towers:
        whole = build(top)
        for d in range(top):
            sub = full_subcategory(whole, [o for o in whole.objects if size(o) <= d])
            ref = build(d)
            where = (build.__name__, d)
            assert sub.objects == ref.objects, where
            assert sub.homs == ref.homs, where
            assert sub.mor_data == ref.mor_data, where
            assert sub.row == ref.row, where
            assert sub.comp == ref.comp, where
            assert sub.identities == ref.identities, where


# ------------------------------------------------------------ completion


def completion_summary(window):
    """The closed forms for the completion category, kept as an oracle:
    its components are indexed by the difference b - a, and the
    automorphism classes at (a, b) number a!·b!."""
    objects = [(a, b) for a in range(window + 1) for b in range(window + 1)]
    components = {}
    for a, b in objects:
        components.setdefault(b - a, []).append((a, b))
    return {
        "window": window,
        "components": {d: tuple(v) for d, v in sorted(components.items())},
        "automorphisms": {(a, b): factorial(a) * factorial(b) for a, b in objects},
    }


def test_completion_components_count_differences():
    C2 = completion_category(2)
    assert len(pi0(C2)) == 5
    C3 = completion_category(3)
    assert len(pi0(C3)) == 7
    summary = completion_summary(3)
    assert sorted(summary["components"]) == list(range(-3, 4))
    got = {frozenset(c) for c in pi0(C3)}
    want = {frozenset(v) for v in summary["components"].values()}
    assert got == want


def test_completion_summary_window_four():
    summary = completion_summary(4)
    assert summary["components"].keys() == set(range(-4, 5))
    assert summary["automorphisms"][(2, 1)] == 2  # 2! * 1!


def test_completion_morphism_counts():
    # endomorphisms of (2,2) need no padding: all 2!*2! pairs survive
    assert len(completion_morphisms(2, 2, 2, 2)) == 4
    # (0,0) -> (2,2) pads by v=2 and quotients by its 2! relabellings
    assert len(completion_morphisms(0, 0, 2, 2)) == 2
    assert len(completion_morphisms(0, 0, 0, 0)) == 1


def _searched_canonical(v, a, b, amap, bmap):
    """Lex-least (alpha, beta) over all v! relabellings gamma ⊕ id, by
    search: the reference for _stab_canonical."""
    best = None
    for gmap in kernel.inflation_maps(v, v):
        ga = gmap + tuple(v + k for k in range(1, a + 1))
        gb = gmap + tuple(v + k for k in range(1, b + 1))
        cand = (kernel.compose(amap, ga), kernel.compose(bmap, gb))
        if best is None or cand < best:
            best = cand
    return best


def _searched_completion_morphisms(a, b, a2, b2):
    v = a2 - a
    if v != b2 - b or v < 0:
        return []
    seen = set()
    out = []
    for amap in kernel.inflation_maps(a2, a2):
        for bmap in kernel.inflation_maps(b2, b2):
            canon = _searched_canonical(v, a, b, amap, bmap)
            if canon not in seen:
                seen.add(canon)
                out.append((v, canon[0], canon[1]))
    return out


def test_stab_canonical_matches_the_search_over_relabellings():
    for v in range(4):
        for a in range(3):
            for b in range(3):
                for amap in kernel.inflation_maps(v + a, v + a):
                    for bmap in kernel.inflation_maps(v + b, v + b):
                        assert _stab_canonical(v, amap, bmap) == _searched_canonical(
                            v, a, b, amap, bmap
                        )


def test_completion_morphisms_match_the_search_over_relabellings():
    for a, b, a2, b2 in itertools.product(range(4), repeat=4):
        assert completion_morphisms(a, b, a2, b2) == _searched_completion_morphisms(
            a, b, a2, b2
        )


def test_completion_fundamental_group_regression():
    # the loop group at the zero object, windows 2 and 3
    C2 = completion_category(2)
    base = next(o for o in C2.objects if o == (0, 0))
    ab = h1(C2, base)
    assert str(ab) == "Z/2"
    assert ab == all_pairs_h1(C2, base)
    C3 = completion_category(3)
    assert str(h1(C3, (0, 0))) == "Z/2"
    assert h1(C3, (0, 0)) == all_pairs_h1(C3, (0, 0))
