"""Symmetric forms on pointed sets: enumeration, isometry, isotropic
reduction, and the hyperbolic/fixed decomposition."""

import itertools
import math

import pytest

from f1kgw import forms
from f1kgw.forms import (
    CommMonoidPresentation,
    NotAnInvolution,
    NotIsotropic,
    RestrictionDegenerate,
    SymmetricForm,
    are_isometric,
    direct_sum_form,
    enumerate_forms,
    hyperbolic,
    hyperbolic_on_morphism,
    identity_form,
    involution_count,
    is_isometry,
    is_metabolic,
    iso_simple_decomposition,
    isometries,
    isometry_group,
    isotropic_reduction,
    isotropic_splitting,
    isotropic_subobjects,
    metabolic_to_hyperbolic,
    split_off_form,
    witt_monoid,
)
from f1kgw._backend import kernel
from f1kgw.pointed import (
    F1Morphism,
    compose,
    dualize,
    inflations,
    is_inflation,
)


def brute_involution_count(n):
    """Independent oracle: filter all permutations of {1..n}."""
    count = 0
    for perm in itertools.permutations(range(1, n + 1)):
        psi = (0,) + perm
        if all(psi[psi[k]] == k for k in range(1, n + 1)):
            count += 1
    return count


@pytest.mark.parametrize("n", range(7))
def test_form_enumeration_matches_permutation_filter(n):
    forms = enumerate_forms(n)
    assert len(forms) == len(set(forms))
    assert len(forms) == brute_involution_count(n)
    assert len(forms) == involution_count(n)


def test_involution_count_sequence():
    assert [involution_count(n) for n in range(7)] == [1, 1, 2, 4, 10, 26, 76]


def test_form_validation():
    with pytest.raises(NotAnInvolution):
        SymmetricForm(3, (0, 2, 3, 1))  # a 3-cycle squares to a 3-cycle


def test_literal_round_trip():
    f = SymmetricForm.from_literal("inv:(1 2)(3)")
    assert f.size == 3 and f.psi == (0, 2, 1, 3)
    assert str(f) == "inv:(1 2)(3)"
    assert SymmetricForm.from_literal(str(hyperbolic(2))) == hyperbolic(2)
    assert str(identity_form(0)) == "inv:()"
    assert SymmetricForm.from_literal("inv:()") == identity_form(0)
    with pytest.raises(ValueError):
        SymmetricForm.from_literal("inv:(1 3)")  # gap: 2 uncovered
    with pytest.raises(ValueError):
        SymmetricForm.from_literal("inv:(1 2)(2 3)")  # 2 covered twice
    with pytest.raises(ValueError):
        SymmetricForm.from_literal("nonsense")


def test_pairs_and_fixed_points():
    f = SymmetricForm.from_literal("inv:(1 4)(2)(3)")
    assert f.pairs() == ((1, 4),)
    assert f.fixed_points() == (2, 3)
    assert hyperbolic(2).pairs() == ((1, 3), (2, 4))
    assert identity_form(3).fixed_points() == (1, 2, 3)


def test_isotropic_subobject_counts():
    assert len(isotropic_subobjects(hyperbolic(1))) == 3
    assert len(isotropic_subobjects(hyperbolic(2))) == 9
    assert len(isotropic_subobjects(identity_form(3))) == 1


@pytest.mark.parametrize("form", enumerate_forms(4), ids=str)
def test_isotropic_subobjects_match_subset_filter(form):
    brute = 0
    for r in range(form.size + 1):
        for T in itertools.combinations(range(1, form.size + 1), r):
            if not (set(T) & {form.psi[t] for t in T}):
                brute += 1
    assert len(isotropic_subobjects(form)) == brute


def test_isotropic_subobjects_are_the_isotropic_subsets_in_order():
    """Every isotropic subset T, by size then lex, each as the inflation
    with ascending map (0,) + T, for every form of size <= 6."""
    for n in range(7):
        for N in enumerate_forms(n):
            want = [
                T
                for r in range(n + 1)
                for T in itertools.combinations(range(1, n + 1), r)
                if not set(T) & {N.psi[t] for t in T}
            ]
            got = isotropic_subobjects(N)
            assert [iso.morphism.map for iso in got] == [(0,) + T for T in want]
            assert all(iso.morphism.src == len(T) and iso.form is N for iso, T in zip(got, want))


def test_psi_maps_each_reduced_carrier_into_itself():
    """The proof in isotropic_reduction's docstring, over the census of
    forms of size <= 6: the reduced carrier U^⊥ ∖ T is closed under ψ."""
    for n in range(7):
        for N in enumerate_forms(n):
            for iso in isotropic_subobjects(N):
                carrier = set(iso.perp()) - set(iso.image)
                assert {N.psi[k] for k in carrier} == carrier
                assert isotropic_reduction(iso).size == len(carrier)


def test_perp_and_reduction():
    N = hyperbolic(2)
    iso = next(i for i in isotropic_subobjects(N) if i.image == (1,))
    assert iso.perp() == (1, 2, 4)
    assert isotropic_reduction(iso) == hyperbolic(1)
    # a fixed point is never isotropic
    from f1kgw.forms import IsotropicInflation

    with pytest.raises(NotIsotropic):
        IsotropicInflation(F1Morphism(1, 1, (0, 1)), identity_form(1))


def test_metabolic_iff_fixed_point_free():
    verified = 0
    for n in range(7):
        for form in enumerate_forms(n):
            witness = is_metabolic(form)
            assert (witness is not None) == (not form.fixed_points())
            if witness is None:
                continue
            verified += 1
            phi = metabolic_to_hyperbolic(witness)
            H = hyperbolic(len(witness.image))
            assert compose(dualize(phi), compose(form.morphism, phi)).map == H.psi
    assert verified == 20  # metabolic forms of size <= 6


@pytest.mark.parametrize("n", range(7))
def test_decomposition_and_automorphism_order(n):
    for form in enumerate_forms(n):
        t, f, phi = iso_simple_decomposition(form)
        assert 2 * t + f == n
        target = direct_sum_form(hyperbolic(t), identity_form(f))
        assert is_isometry(phi, form, target)
        G = isometry_group(form)
        assert len(G) == math.factorial(t) * 2**t * math.factorial(f)


def test_isometric_iff_same_signature():
    for n in range(5):
        fs = enumerate_forms(n)
        for A in fs:
            for B in fs:
                same_signature = (len(A.pairs()), len(A.fixed_points())) == (
                    len(B.pairs()),
                    len(B.fixed_points()),
                )
                assert are_isometric(A, B) == same_signature


def brute_isometries(A, B):
    """Independent oracle: filter every isomorphism A -> B by definition."""
    if A.size != B.size:
        return []
    return [phi for phi in inflations(A.size, B.size) if is_isometry(phi, A, B)]


def test_isometry_search_matches_brute_force_filter():
    fs = [form for n in range(6) for form in enumerate_forms(n)]
    for A in fs:
        for B in fs:
            expected = brute_isometries(A, B)
            assert isometries(A, B) == expected
            assert are_isometric(A, B) == bool(expected)


def _composed_is_isometry(phi, M, N):
    """The oracle: φ^ad ∘ ψ_N ∘ φ = ψ_M by F1Morphism composition."""
    if phi.src != M.size or phi.dst != N.size:
        return False
    if not is_inflation(phi) or phi.src != phi.dst:
        return False
    return compose(dualize(phi), compose(N.morphism, phi)).map == M.psi


def test_is_isometry_agrees_with_the_composed_formula():
    """Every map of size <= 4, bijection or not, against every pair of
    forms of size <= 4, sizes that do not match included."""
    fs = [form for n in range(5) for form in enumerate_forms(n)]
    maps = [
        F1Morphism(a, b, m) for a in range(5) for b in range(5) for m in kernel.hom_maps(a, b)
    ]
    hits = 0
    for M in fs:
        for N in fs:
            for phi in maps:
                verdict = is_isometry(phi, M, N)
                assert verdict == _composed_is_isometry(phi, M, N), (phi, M, N)
                hits += verdict
    assert hits == sum(len(isometries(M, N)) for M in fs for N in fs) > 0


def test_isometry_search_verifies_only_isometries(monkeypatch):
    calls = []
    real = forms.is_isometry

    def counting(phi, M, N):
        calls.append(phi)
        return real(phi, M, N)

    monkeypatch.setattr(forms, "is_isometry", counting)
    assert not are_isometric(identity_form(6), hyperbolic(3))
    assert calls == []
    for t in range(4):
        f = 6 - 2 * t
        form = direct_sum_form(hyperbolic(t), identity_form(f))
        calls.clear()
        G = isometry_group(form)
        assert len(calls) == len(G) == math.factorial(f) * 2**t * math.factorial(t)


def test_isometries_are_closed_under_composition():
    A = SymmetricForm.from_literal("inv:(1 2)(3)")
    G = isometries(A, A)
    assert G == isometry_group(A)
    members = set(g.map for g in G)
    for g in G:
        for h in G:
            assert compose(g, h).map in members


@pytest.mark.parametrize("n", range(6))
def test_isotropic_splitting_sends_span_to_standard_block(n):
    for form in enumerate_forms(n):
        for iso in isotropic_subobjects(form):
            phi, target = isotropic_splitting(form, iso)
            t = len(iso.image)
            assert is_isometry(phi, form, target)
            span = set(iso.image) | {form.psi[x] for x in iso.image}
            assert {phi.map[x] for x in span} == set(range(1, 2 * t + 1))


def test_split_off_form():
    M = hyperbolic(1)
    N = direct_sum_form(hyperbolic(1), identity_form(1))
    i = F1Morphism(2, 3, (0, 1, 2))
    perp, phi = split_off_form(i, M, N)
    assert perp == identity_form(1)
    assert is_isometry(phi, N, direct_sum_form(M, perp))
    with pytest.raises(RestrictionDegenerate):
        # psi does not preserve the image {1} inside H(1) + id_1
        split_off_form(F1Morphism(1, 3, (0, 1)), identity_form(1), N)


def test_hyperbolic_functor_on_morphisms():
    g = F1Morphism(2, 2, (0, 2, 1))
    Hg = hyperbolic_on_morphism(g)
    assert Hg.map == (0, 2, 1, 4, 3)
    assert is_isometry(Hg, hyperbolic(2), hyperbolic(2))
    # functorial on a composable pair
    f = F1Morphism(1, 2, (0, 2))
    assert hyperbolic_on_morphism(compose(g, f)) == compose(
        hyperbolic_on_morphism(g), hyperbolic_on_morphism(f)
    )


def test_witt_monoid_is_free_on_the_point():
    pres, classes = witt_monoid(6)
    assert sorted(classes) == [0, 1, 2, 3, 4, 5, 6]
    assert pres.generators == ("w",)
    assert pres.relations == ()
    G = pres.grothendieck_group()
    assert G.rank == 1 and G.torsion == ()


def test_witt_monoid_at_window_0_has_no_generator():
    """Window 0 realizes only the class of id_0, so the class of the
    point form is no generator and W0 is 0."""
    pres, classes = witt_monoid(0)
    assert classes == {0: [(0, 0)]}
    assert pres.generators == () and pres.relations == ()
    assert str(pres) == "< - | - >"
    G = pres.grothendieck_group()
    assert G.rank == 0 and G.torsion == ()


def test_monoid_presentation_group_completion():
    # two generators with a = b: completion collapses to a single Z
    pres = CommMonoidPresentation(("a", "b"), (((0,), (1,)),))
    assert str(pres) == "< a, b | a = b >"
    G = pres.grothendieck_group()
    assert G.rank == 1 and G.torsion == ()
    # a + a = a forces a torsion-free collapse to 0 on that generator
    idem = CommMonoidPresentation(("a",), (((0, 0), (0,)),))
    assert idem.grothendieck_group() == type(G)(rank=0, torsion=())
