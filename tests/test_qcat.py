"""Span categories, hermitian reduction spans, the conflation
category with its quotient fibration, stabilization, and the
group-completion category."""

from math import comb, factorial

import pytest

from f1kgw.fincat import abelianize, check_functor, full_subcategory, pi0, pi1_presentation
from f1kgw.forms import enumerate_forms, hyperbolic, identity_form
from f1kgw.pointed import F1Morphism, all_conflations
from f1kgw.qcat import (
    QSpan,
    comma_tau_suite,
    completion_category,
    completion_morphisms,
    completion_summary,
    conflation_category,
    conflation_morphism,
    conflation_suite,
    graph_of_isometries,
    hyperbolic_groupoid,
    is_reductive_span,
    iso_groupoid,
    q_category,
    q_compose,
    qh_category,
    qh_census_counts,
    qh_component_fixed_points,
    qh_forgetful,
    reductive_spans,
    stabilization_equivalence_suite,
    standard_stabilization,
)


# ---------------------------------------------------------------- spans


def test_span_validation_and_round_trip():
    s = QSpan(1, 2, (1, 2), (0, 1, 0))
    assert s.kernel_points() == (2,)
    p, j = s.to_morphisms()
    assert QSpan.from_morphisms(p, j) == s
    with pytest.raises(ValueError):
        QSpan(1, 2, (2, 1), (0, 1, 0))  # sub not ascending
    with pytest.raises(ValueError):
        QSpan(1, 2, (1, 2), (0, 1, 3))  # pmap leaves the target
    with pytest.raises(ValueError):
        QSpan(2, 2, (1, 2), (0, 0, 0))  # pmap not a deflation


def test_span_canonical_form_is_middle_relabelling_invariant():
    # same span presented with the middle enumerated in a different
    # order lands on one canonical representative
    j = F1Morphism(2, 3, (0, 3, 1))
    p = F1Morphism(2, 2, (0, 2, 1))
    a = QSpan.from_morphisms(p, j)
    swap = F1Morphism(2, 2, (0, 2, 1))
    from f1kgw.pointed import compose

    b = QSpan.from_morphisms(compose(p, swap), compose(j, swap))
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
    # the span category stays infinite cyclic at both window sizes
    p2 = pi1_presentation(q_category(2), 0)
    assert (len(p2.generators), len(p2.relations)) == (11, 19)
    assert str(abelianize(p2)) == "Z"
    p3 = pi1_presentation(q_category(3), 0)
    assert (len(p3.generators), len(p3.relations)) == (48, 337)
    assert str(abelianize(p3)) == "Z"


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


def test_reductive_span_census_against_brute_filter():
    counts = qh_census_counts(3)
    forms = [f for n in range(4) for f in enumerate_forms(n)]
    for M in forms:
        for N in forms:
            built = reductive_spans(M, N)
            assert len(built) == counts[(M, N)]
            assert len(set(built)) == len(built)


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
    rep = check_functor(qh_forgetful(QH3, q_category(3)), "functoriality")
    assert rep.ok


def test_hermitian_fundamental_group_regression():
    # the fixed-point-free component at window 3 carries a 2-torsion loop
    QH3 = qh_category(3)
    comp = [M for M in QH3.objects if not M.fixed_points()]
    sub = full_subcategory(QH3, comp)
    ab = abelianize(pi1_presentation(sub, identity_form(0)))
    assert str(ab) == "Z/2"


# ----------------------------------------------------------- conflations


def test_conflation_category_size():
    E3 = conflation_category(3)
    assert len(E3.objects) == 33
    assert E3.n_morphisms == 2221


def test_conflation_morphism_derivation_rejects():
    src = next(c for c in all_conflations(2) if int(c.sub) == 1 and int(c.total) == 2)
    dst = next(c for c in all_conflations(2) if int(c.sub) == 0 and int(c.total) == 1)
    # b must make the kernel row work; killing everything cannot
    assert conflation_morphism(src, dst, F1Morphism.zero(2, 1)) is None
    # identity b on matching conflations gives the identity morphism
    m = conflation_morphism(src, src, F1Morphism.identity(2))
    assert m is not None and m.b == F1Morphism.identity(2)


def test_iso_groupoid_counts():
    G = iso_groupoid(3)
    assert len(G.objects) == 4
    # morphisms = sum of n! per object
    assert G.n_morphisms == 1 + 1 + 2 + 6
    assert len(pi0(G)) == 4


def test_conflation_suite_small():
    report = conflation_suite(2, fiber_sizes=(0, 1))
    assert report.ok
    assert "result: ALL PASS" in report.render()


def test_conflation_suite_default_fiber_sizes_fit_the_window():
    report = conflation_suite(1)
    assert report.ok
    assert report.notes == ["fiber sizes exercised: (0, 1)"]
    assert not [c.name for c in report.checks if "size 2" in c.name]


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
    assert check_functor(tau, "functoriality").ok


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
    with pytest.raises(ValueError, match="target_size 2 is below domain_size"):
        stabilization_equivalence_suite(2, 2)


def test_stabilization_equivalence_suite():
    report = stabilization_equivalence_suite(3, 2)
    assert report.ok
    assert "result: ALL PASS" in report.render()


# ------------------------------------------------------------ completion


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


def test_completion_fundamental_group_regression():
    # the loop group at the zero object, window 2
    C2 = completion_category(2)
    base = next(o for o in C2.objects if o == (0, 0))
    ab = abelianize(pi1_presentation(C2, base))
    assert str(ab) == "Z/2"
