"""The base category: morphism algebra, conflations, bicartesian
squares, and the exact-structure axiom suite."""

import itertools
from collections import Counter
from operator import mul

import pytest

from f1kgw.pointed import (
    BicartesianSquare,
    CheckResult,
    Conflation,
    F1Morphism,
    NotAConflation,
    TypeMismatch,
    all_conflations,
    axiom_suite,
    classify,
    complete_pullback,
    complete_pushout,
    compose,
    conflation_retractions,
    conflation_sections,
    conflation_splittings,
    decompose_inflation,
    direct_sum,
    dualize,
    fill_conflation_morphism,
    inc_left,
    inc_right,
    inflations,
    deflations,
    is_deflation,
    is_inflation,
    proj_left,
    proj_right,
    retraction_of_splitting,
    section_of_splitting,
    split_conflation,
    UNIVERSAL_BOUND,
    _commuting_squares,
    _exact_bifunctor,
    _refusal,
    _square_text,
)
from f1kgw._backend import kernel
from f1kgw.qcat import q_category


def hom_morphisms(src, dst):
    """All morphisms src -> dst (lexicographic in the map tuple)."""
    return tuple(F1Morphism(src, dst, m) for m in kernel.hom_maps(src, dst))


def test_morphism_literal_round_trip():
    f = F1Morphism.from_literal("[0,2,0,1]:3->2")
    assert f.src == 3 and f.dst == 2 and f.map == (0, 2, 0, 1)
    assert str(f) == "[0,2,0,1]:3->2"
    assert F1Morphism.from_literal(str(f)) == f
    with pytest.raises(ValueError):
        F1Morphism.from_literal("[0,2,0]:3->2")  # wrong arity
    with pytest.raises(ValueError):
        F1Morphism.from_literal("junk")


def test_morphism_validation():
    with pytest.raises(ValueError):
        F1Morphism(2, 2, (0, 1, 1))  # collision
    with pytest.raises(ValueError):
        F1Morphism(2, 2, (0, 3, 1))  # out of range
    with pytest.raises(ValueError):
        F1Morphism(2, 2, (1, 1, 2))  # moves the base point


def test_compose_pointwise():
    f = F1Morphism(3, 3, (0, 2, 0, 1))
    g = F1Morphism(3, 3, (0, 1, 0, 3))
    assert compose(g, f).map == (0, 0, 0, 1)
    # evaluation order: (g o f)(x) = g(f(x))
    f2 = F1Morphism(2, 2, (0, 2, 1))
    g2 = F1Morphism(2, 2, (0, 1, 0))
    assert compose(g2, f2).map == (0, 0, 1)


def test_dualize_is_adjoint_involution():
    for u in range(4):
        for v in range(4):
            for f in hom_morphisms(u, v):
                back = dualize(f)
                assert back.src == v and back.dst == u
                assert dualize(back) == f if is_inflation(f) and is_deflation(f) else True
                # adjoint relation: back(n) = m iff f(m) = n
                for m in range(1, u + 1):
                    n = f.map[m]
                    if n:
                        assert back.map[n] == m


def test_classification():
    assert classify(F1Morphism.identity(2)) == "iso"
    assert classify(inc_left(1, 1)) == "inflation"
    assert classify(proj_left(1, 1)) == "deflation"
    assert classify(F1Morphism(2, 2, (0, 0, 1))) == "generic"


def test_hom_count_formula():
    # |hom(n, m)| = sum_k C(n,k) * m!/(m-k)!
    from math import comb, perm

    for n in range(5):
        for m in range(5):
            want = sum(comb(n, k) * perm(m, k) for k in range(min(n, m) + 1))
            assert len(hom_morphisms(n, m)) == want
    assert len(hom_morphisms(4, 4)) == 209


def test_direct_sum_block_structure():
    a = F1Morphism(1, 2, (0, 2))
    b = F1Morphism(2, 1, (0, 1, 0))
    s = direct_sum(a, b)
    assert s.src == 3 and s.dst == 3
    assert s.map == (0, 2, 3, 0)
    # inclusions and projections compose to identities
    for u in range(3):
        for v in range(3):
            assert compose(proj_left(u, v), inc_left(u, v)) == F1Morphism.identity(u)
            assert compose(proj_right(u, v), inc_right(u, v)) == F1Morphism.identity(v)


def test_conflation_census_counts():
    # (x+1) * x! conflations with total of size x
    from math import factorial

    by_total = {}
    for c in all_conflations(5):
        by_total[int(c.total)] = by_total.get(int(c.total), 0) + 1
    for x in range(6):
        assert by_total[x] == (x + 1) * factorial(x)
    assert len(all_conflations(3)) == 33
    assert len(all_conflations(4)) == 153
    assert len(all_conflations(5)) == 873


def _filtered_conflations(max_total):
    """The oracle: each inflation i paired with every deflation of its
    hom set whose kernel is image(i), read in map order."""
    out = []
    for x in range(max_total + 1):
        for u in range(x + 1):
            for imap in kernel.inflation_maps(u, x):
                image = set(imap[1:])
                for pmap in kernel.deflation_maps(x, x - u):
                    if all((pmap[e] == 0) == (e in image) for e in range(1, x + 1)):
                        out.append(
                            Conflation(F1Morphism(u, x, imap), F1Morphism(x, x - u, pmap))
                        )
    return tuple(out)


def test_all_conflations_is_the_filtered_deflation_loop_in_order():
    want = _filtered_conflations(6)
    assert len(want) == 5913
    for n in range(7):
        assert all_conflations(n) == tuple(X for X in want if X.total <= n)


def test_conflation_rejects_mismatched_kernel():
    i = inc_left(1, 1)
    p = proj_left(1, 1)  # kills the second point, but i hits the first
    with pytest.raises(NotAConflation):
        Conflation(i, p)


def test_splitting_census_is_unique():
    for c in all_conflations(4):
        phis = conflation_splittings(c)
        assert len(phis) == 1
        assert phis[0] == split_conflation(c)
        sections = conflation_sections(c)
        retractions = conflation_retractions(c)
        assert len(sections) == 1 and len(retractions) == 1
        assert section_of_splitting(c, phis[0]) == sections[0]
        assert retraction_of_splitting(c, phis[0]) == retractions[0]


def test_complete_pullback_of_block_square():
    j = F1Morphism(1, 2, (0, 1))
    sq = complete_pullback(j, proj_left(2, 1))
    assert (int(sq.top.src), int(sq.bottom.src)) == (2, 1)
    assert sq.top.map == (0, 1, 3)
    assert sq.left.map == (0, 1, 0)
    assert sq.is_bicartesian()


def test_complete_pushout_glues():
    l = proj_left(1, 1)
    t = inc_left(2, 0)
    sq = complete_pushout(l, t)
    assert sq.is_bicartesian()
    # pushout of a deflation along an identity-like inflation stays a deflation
    assert is_deflation(sq.right)


def test_wedge_is_not_a_pushout_of_points():
    # the square 0 -> 1, 0 -> 1 completed to the wedge 1+1 is NOT the
    # pushout taken among partial injections with a genuine deflation
    # left leg absent: the fold map is not a partial injection, and the
    # intrinsic criterion only applies over deflation left legs.
    sq = BicartesianSquare(
        left=F1Morphism.zero(0, 1),
        top=F1Morphism.zero(0, 1),
        bottom=inc_left(1, 1),
        right=inc_right(1, 1),
        check_classes=False,
    )
    assert not sq.verify()


def test_fill_conflation_morphism_unique():
    top = Conflation.canonical(1, 1)
    bottom = Conflation.canonical(1, 1)
    f = F1Morphism.identity(1)
    g = F1Morphism.identity(1)
    mid = fill_conflation_morphism(top, bottom, f, g)
    assert mid == F1Morphism.identity(2)
    # the fill exists for every (f, g) pair and is pinned pointwise:
    # killing the quotient forces the non-kernel points to die
    killed = fill_conflation_morphism(top, bottom, f, F1Morphism.zero(1, 1))
    assert killed.map == (0, 1, 0)
    with pytest.raises(TypeMismatch):
        fill_conflation_morphism(top, bottom, F1Morphism.identity(2), g)


def test_decompose_inflation_blocks():
    i = F1Morphism(2, 3, (0, 3, 1))
    f, i1, i2 = decompose_inflation(i, (2, 1))
    assert classify(f) == "iso"
    assert compose(direct_sum(i1, i2), f) == i
    assert i1.map == (0, 1) and i2.map == (0, 1)
    with pytest.raises(TypeMismatch):
        decompose_inflation(i, (1, 1))


def test_axiom_suite_small():
    report = axiom_suite(3)
    assert report.ok
    names = [c.name for c in report.checks]
    assert any("cartesian" in n for n in names)
    assert "result: ALL PASS" in report.render()


def test_axiom_suite_rejects_corrupted_classes():
    # widening the deflation class to every morphism must break the
    # axioms, proving the suite can fail honestly
    report = axiom_suite(
        2, deflation_maps_of=lambda u, v: kernel.hom_maps(u, v)
    )
    assert not report.ok
    failed = [c for c in report.checks if not c.passed]
    assert failed and any(c.witness for c in failed)
    # widening the inflation class hands the completions legs they
    # refuse; the refusal is a failed check with a witness, not a crash
    report = axiom_suite(2, inflation_maps_of=kernel.hom_maps)
    assert not report.ok
    (iv,) = [c for c in report.checks if c.name.startswith("axiom iv")]
    assert not iv.passed and iv.witness.startswith("cospan b=")


def test_axiom_suite_reports_first_witness():
    # without isomorphisms the inflation class fails check ii at the
    # first iso, id_0, and the check stops there
    report = axiom_suite(
        2, inflation_maps_of=lambda u, v: () if u == v else kernel.inflation_maps(u, v)
    )
    (ii,) = [c for c in report.checks if c.name.startswith("axiom ii:")]
    assert not ii.passed
    assert ii.witness == "iso (0,) missing from a class"
    assert ii.checked == 22


def test_enumeration_class_filters():
    for u in range(4):
        for v in range(4):
            assert all(is_inflation(f) for f in inflations(u, v))
            assert all(is_deflation(f) for f in deflations(u, v))
    assert [len(inflations(n, n)) for n in range(5)] == [1, 1, 2, 6, 24]


def test_type_mismatch_raises():
    with pytest.raises(TypeMismatch):
        compose(F1Morphism.identity(2), F1Morphism.identity(3))


# Full reports of the three corrupted-class runs above at size 2, taken
# from the suite before it computed on map tuples: every check's name,
# verdict, checked count and witness.
CORRUPTED_REPORTS = {
    "every map a deflation": [
        ("axiom i: zero maps", True, 6, ""),
        ("axiom ii: class closure", True, 189, ""),
        (
            "axiom iii: cartesian iff cocartesian",
            False,
            2,
            'cartesian=True cocartesian=False for (F1Morphism("[0]:0->0")'
            ', F1Morphism("[0]:0->0")'
            ', F1Morphism("[0]:0->1")'
            ', F1Morphism("[0]:0->1"))',
        ),
        ("axiom iv: pullback completion", False, 18, "cospan b=[0]:0->1 r=[0]:0->1"),
        ("axiom v: pushout completion", False, 20, "span l=[0]:0->1 t=[0]:0->0"),
        ("calibration: intrinsic vs universal", True, 34, ""),
        ("DS1: monoidal unit", True, 23, ""),
        ("DS2: exact bifunctor", True, 28250, ""),
        ("DS3: restriction injective", True, 222, ""),
        ("DS4: unique splitting extension", True, 18, ""),
        ("direct sums: inclusion squares, isos", True, 400, ""),
        ("block pullback squares", True, 24, ""),
    ],
    "every map an inflation": [
        ("axiom i: zero maps", True, 6, ""),
        ("axiom ii: class closure", True, 189, ""),
        (
            "axiom iii: cartesian iff cocartesian",
            False,
            10,
            'cartesian=False cocartesian=True for (F1Morphism("[0,0]:1->0")'
            ', F1Morphism("[0,0]:1->1")'
            ', F1Morphism("[0]:0->1")'
            ', F1Morphism("[0,1]:1->1"))',
        ),
        (
            "axiom iv: pullback completion",
            False,
            20,
            "cospan b=[0,0]:1->0 r=[0]:0->0: cospan inflation leg is deflation",
        ),
        (
            "axiom v: pushout completion",
            False,
            18,
            "span l=[0,0]:1->0 t=[0,0]:1->0: span inflation leg is deflation",
        ),
        ("calibration: intrinsic vs universal", True, 34, ""),
        ("DS1: monoidal unit", True, 23, ""),
        ("DS2: exact bifunctor", True, 28250, ""),
        ("DS3: restriction injective", True, 222, ""),
        ("DS4: unique splitting extension", True, 18, ""),
        ("direct sums: inclusion squares, isos", True, 400, ""),
        ("block pullback squares", True, 24, ""),
    ],
    "no isos among inflations": [
        ("axiom i: zero maps", False, 1, "0 -> 0 not an inflation"),
        ("axiom ii: class closure", False, 22, "iso (0,) missing from a class"),
        ("axiom iii: cartesian iff cocartesian", True, 17, ""),
        ("axiom iv: pullback completion", True, 9, ""),
        ("axiom v: pushout completion", True, 6, ""),
        ("calibration: intrinsic vs universal", True, 34, ""),
        ("DS1: monoidal unit", True, 23, ""),
        ("DS2: exact bifunctor", True, 28250, ""),
        ("DS3: restriction injective", True, 222, ""),
        ("DS4: unique splitting extension", True, 18, ""),
        ("direct sums: inclusion squares, isos", True, 400, ""),
        ("block pullback squares", True, 24, ""),
    ],
}
CORRUPTIONS = {
    "every map a deflation": dict(deflation_maps_of=lambda u, v: kernel.hom_maps(u, v)),
    "every map an inflation": dict(inflation_maps_of=kernel.hom_maps),
    "no isos among inflations": dict(
        inflation_maps_of=lambda u, v: () if u == v else kernel.inflation_maps(u, v)
    ),
}


SQUARE_CLASSES = {
    "honest": {},
    "hom_maps as inflations": dict(inflation_maps_of=kernel.hom_maps),
    "hom_maps as deflations": dict(deflation_maps_of=kernel.hom_maps),
    "hom_maps in both slots": dict(
        inflation_maps_of=kernel.hom_maps, deflation_maps_of=kernel.hom_maps
    ),
    **CORRUPTIONS,
}


def brute_force_squares(max_size, infl, defl):
    """Every (t, r, l) from the classes, t: u -> v with v >= u as in the
    suite, and every everywhere-injective b: w -> x with b∘l = r∘t, from
    an enumeration of injections that does not use the kernel; in the
    order of (u, v, t, x, r, w, l).

    Only the squares whose l hits every point of W are kept: those are
    the squares in which b∘l = r∘t determines b, which is what the suite
    enumerates.  They are all of them when every l is a deflation; a
    corrupted class with an l that misses a point has more."""
    sizes = range(max_size + 1)
    out = []
    for u in sizes:
        for v in range(u, max_size + 1):
            for t in infl(u, v):
                for x in sizes:
                    for r in defl(v, x):
                        d = tuple(r[k] for k in t)
                        for w in sizes:
                            injections = [
                                (0,) + p for p in itertools.permutations(range(1, x + 1), w)
                            ]
                            for l in defl(u, w):
                                if not set(range(1, w + 1)) <= set(l):
                                    continue
                                for b in injections:
                                    if tuple(b[k] for k in l) == d:
                                        out.append((l, t, b, r, u, v, w, x))
    return out


@pytest.mark.parametrize("max_size", range(4))
@pytest.mark.parametrize("classes", sorted(SQUARE_CLASSES))
def test_commuting_squares_match_the_brute_force(classes, max_size):
    # Newly covers: the squares built from the support of r∘t are those
    # of the brute force, in the enumeration order the suite's counts
    # and witnesses depend on, for corrupted classes too.
    given = SQUARE_CLASSES[classes]
    infl = given.get("inflation_maps_of", kernel.inflation_maps)
    defl = given.get("deflation_maps_of", kernel.deflation_maps)
    want = brute_force_squares(max_size, infl, defl)
    assert list(_commuting_squares(max_size, infl, defl)) == want


@pytest.mark.parametrize("corruption", sorted(CORRUPTED_REPORTS))
def test_corrupted_class_reports_are_pinned(corruption):
    # Newly covers: the whole report of each corrupted run, not only the
    # fragments asserted above, so moving a check onto map tuples cannot
    # change a count or a witness unseen.
    report = axiom_suite(2, **CORRUPTIONS[corruption])
    rows = [(c.name, c.passed, c.checked, c.witness) for c in report.checks]
    assert rows == CORRUPTED_REPORTS[corruption]
    assert report.notes == [
        "universal property checked against all test objects of size <= 2"
    ]


def test_suite_and_span_category_build_morphisms_only_at_the_boundary(monkeypatch):
    # Newly covers: the checks compute on map tuples.  axiom_suite(3)
    # built 177,506 F1Morphisms and q_category(3) 3,958 before; what is
    # left certifies the public constructions (axioms iv/v, the block
    # squares and the direct-sum checks) and prints witnesses.
    calls = [0]
    init = F1Morphism.__init__

    def counting(self, *args):
        calls[0] += 1
        init(self, *args)

    monkeypatch.setattr(F1Morphism, "__init__", counting)
    assert axiom_suite(3).ok
    assert 0 < calls[0] <= 17750
    calls[0] = 0
    q_category(3)
    assert calls[0] == 0


def test_check_result_passes_exactly_when_it_has_no_witness():
    passing, failing = CheckResult("c", 3), CheckResult("c", 4, "bad")
    assert (passing.passed, passing.line()) == (True, "%-38s pass  (3 checked)" % "c")
    assert (failing.passed, failing.line()) == (
        False,
        "%-38s FAIL  (4 checked)\n    witness: bad" % "c",
    )
    assert CheckResult.first_failure("c", iter(["", "bad", ""])).checked == 2


def test_ds2_reports_a_summed_square_outside_the_classes(monkeypatch):
    # Newly covers: DS2 checks the classes of each summed square itself,
    # so a block sum that drops its second block fails with a witness
    # instead of raising.  Such a sum is still functorial, so the first
    # failure is a summed square.
    monkeypatch.setattr(kernel, "block_sum", lambda f, g, f_dst: f + (0,) * (len(g) - 1))
    result = CheckResult.first_failure("DS2", _exact_bifunctor(2))
    assert not result.passed
    assert result.witness == "⊕ of bicartesian squares not bicartesian"


def test_ds2_sums_each_triple_once_and_hides_no_wrong_sum(monkeypatch):
    # Newly covers: DS2 computes each block sum once per (f, g, f_dst).
    # A sum that is wrong on one triple only is still found at case
    # 2,702, as when every pair of pairs was summed afresh; the same
    # (f, g) also occurs with f_dst = 1, so a memo that dropped f_dst
    # would hide it.  The 166² = 27,556 functoriality cases need 220
    # distinct sums, and each is asked for once, also at window 4, where
    # the cases are the same.
    honest = kernel.block_sum
    bad = ((0, 1, 0), (0, 0, 1), 2)
    calls = []

    def block_sum(f, g, f_dst):
        calls.append((f, g, f_dst))
        s = honest(f, g, f_dst)
        # the nonzero blocks reversed, on the one bad triple
        return s[:1] + s[:0:-1] if (f, g, f_dst) == bad else s

    monkeypatch.setattr(kernel, "block_sum", block_sum)
    result = CheckResult.first_failure("DS2", _exact_bifunctor(2))
    assert (result.passed, result.checked, result.witness) == (
        False,
        2702,
        "⊕ not functorial",
    )
    assert (bad[0], bad[1], 1) in calls
    bad = None  # from here on every sum is honest
    for window in (2, 4):
        calls.clear()
        cases = list(itertools.islice(_exact_bifunctor(window), 166 * 166))
        assert cases == [""] * 27556
        assert len(calls) == len(set(calls)) == 220


def test_completion_scans_take_the_legs_of_the_public_completions(monkeypatch):
    # Newly covers: axioms iv and v complete each square on map tuples.
    # Every cospan and span with corners <= 3 gets the legs that
    # complete_pullback and complete_pushout build, and the scans build
    # no square object and wrap each map of the hom sets a task carries
    # once.
    from f1kgw import pointed

    legs = {"pullback": {}, "pushout": {}}

    def recording(kind, fn):
        def wrapper(a, b, *sizes):
            got = fn(a, b, *sizes)
            legs[kind][(a, b) + sizes] = got
            return got

        return wrapper

    monkeypatch.setattr(kernel, "pullback_legs", recording("pullback", kernel.pullback_legs))
    monkeypatch.setattr(kernel, "pushout_legs", recording("pushout", kernel.pushout_legs))
    wrapped, squares = [0], [0]
    init, square_init = F1Morphism.__init__, BicartesianSquare.__init__

    def counting(self, *args):
        wrapped[0] += 1
        init(self, *args)

    def square(self, *args, **kwargs):
        squares[0] += 1
        square_init(self, *args, **kwargs)

    monkeypatch.setattr(F1Morphism, "__init__", counting)
    monkeypatch.setattr(BicartesianSquare, "__init__", square)
    sizes = range(4)
    class_maps = 0
    for a, b, c in itertools.product(sizes, repeat=3):
        for scan, outer, inner in (
            (pointed._scan_iv_task, kernel.inflation_maps(a, b), kernel.deflation_maps(c, b)),
            (pointed._scan_v_task, kernel.deflation_maps(b, a), kernel.inflation_maps(b, c)),
        ):
            count, witness = scan((a, b, c, outer, inner))
            assert (count, witness) == (len(outer) * len(inner), None)
            class_maps += len(outer) + len(inner)
    assert wrapped[0] == class_maps and squares[0] == 0
    monkeypatch.undo()
    cospans = [
        (F1Morphism(w, x, bm), F1Morphism(v, x, rm))
        for w, x, v in itertools.product(sizes, repeat=3)
        for bm in kernel.inflation_maps(w, x)
        for rm in kernel.deflation_maps(v, x)
    ]
    spans = [
        (F1Morphism(u, w, lm), F1Morphism(u, v, tm))
        for w, u, v in itertools.product(sizes, repeat=3)
        for lm in kernel.deflation_maps(u, w)
        for tm in kernel.inflation_maps(u, v)
    ]
    assert len(legs["pullback"]) == len(cospans) and len(legs["pushout"]) == len(spans)
    for b, r in cospans:
        sq = complete_pullback(b, r)
        assert legs["pullback"][b.map, r.map, b.src, r.src] == (sq.left.map, sq.top.map)
    for l, t in spans:
        sq = complete_pushout(l, t)
        got = legs["pushout"][l.map, t.map, l.dst, t.dst]
        assert got == (sq.bottom.map, sq.right.map, sq.right.dst)


def test_complete_pushout_reads_the_kernel_legs(monkeypatch):
    # Newly covers: the pushout leg rule exists once, in the kernel.
    calls = []

    def pushout_legs(l, t, w_size, v_size):
        calls.append((l, t, w_size, v_size))
        return (0, 1), (0, 1, 0), 1

    monkeypatch.setattr(kernel, "pushout_legs", pushout_legs)
    sq = complete_pushout(F1Morphism.identity(1), F1Morphism(1, 2, (0, 1)))
    assert calls == [((0, 1), (0, 1), 1, 2)]
    assert (sq.bottom.map, sq.right.map, sq.right.dst) == ((0, 1), (0, 1, 0), 1)


def test_axiom_iii_notes_the_deflations_it_cannot_visit():
    # Newly covers: with every map a deflation, the maps that miss a point
    # of their codomain are counted and the first named when axiom iii
    # passes.  Without inflations it passes having visited no square; with
    # the honest inflations it fails at its second square, and a failing
    # report gets no note (the pinned rows above).
    note = (
        "axiom iii did not check the squares of %d deflation%s that miss a "
        "point of their codomain, the first [0,0]:1->1"
    )
    for max_size, missed in ((1, 1), (2, 7), (3, 43)):
        report = axiom_suite(
            max_size,
            inflation_maps_of=lambda u, v: (),
            deflation_maps_of=kernel.hom_maps,
        )
        (iii,) = [c for c in report.checks if c.name.startswith("axiom iii")]
        assert (iii.passed, iii.checked) == (True, 0)
        assert report.notes[0] == note % (missed, "" if missed == 1 else "s")
        assert len(report.notes) == 2
    report = axiom_suite(2, deflation_maps_of=kernel.hom_maps)
    (iii,) = [c for c in report.checks if c.name.startswith("axiom iii")]
    assert (iii.passed, iii.checked) == (False, 2)
    assert len(report.notes) == 1
    for max_size in range(5):
        assert len(axiom_suite(max_size).notes) == 1


# ------------------------------------------- the squares decided afresh


def fresh_bicartesian(l, t, b, r, u, v, w, x):
    """The square commutes and is bicartesian, each test asked of the
    kernel for this square alone."""
    return (
        kernel.compose(b, l) == kernel.compose(r, t)
        and kernel.is_pullback(l, t, b, r, u, v, w, x)
        and kernel.is_pushout(l, t, b, r, u, v, w, x)
        and kernel.universal_square_ok(l, t, b, r, u, v, w, x, UNIVERSAL_BOUND)
    )


def fresh_iv(w, x, v, bmaps, rmaps):
    """Axiom iv on one size triple, as (checked, first witness or None)."""
    rs = [F1Morphism(v, x, m) for m in rmaps]
    count = 0
    for b in [F1Morphism(w, x, m) for m in bmaps]:
        if rs and not is_inflation(b):
            return count + 1, "cospan b=%s r=%s: %s" % (b, rs[0], _refusal("cospan", b))
        for r in rs:
            count += 1
            lm, tm = kernel.pullback_legs(b.map, r.map, w, v)
            u = len(lm) - 1
            if not (
                len(tm) == u + 1
                and kernel.is_valid_map(lm, w)
                and kernel.is_valid_map(tm, v)
                and fresh_bicartesian(lm, tm, b.map, r.map, u, v, w, x)
                and kernel.is_surjective(lm, w)
                and kernel.is_injective(tm)
            ):
                return count, "cospan b=%s r=%s" % (b, r)
    return count, None


def fresh_v(w, u, v, lmaps, tmaps):
    """Axiom v on one size triple, as (checked, first witness or None)."""
    ts = [F1Morphism(u, v, m) for m in tmaps]
    count = 0
    for l in [F1Morphism(u, w, m) for m in lmaps]:
        for t in ts:
            count += 1
            if not is_inflation(t):
                return count, "span l=%s t=%s: %s" % (l, t, _refusal("span", t))
            bm, rm, x = kernel.pushout_legs(l.map, t.map, w, v)
            if not (
                len(rm) == v + 1
                and kernel.is_valid_map(bm, x)
                and kernel.is_valid_map(rm, x)
                and fresh_bicartesian(l.map, t.map, bm, rm, u, v, w, x)
                and kernel.is_surjective(rm, x)
                and kernel.is_injective(bm)
            ):
                return count, "span l=%s t=%s" % (l, t)
    return count, None


def fresh_rows(max_size, infl, defl):
    """(name, checked, witness) of axioms iii, iv and v, deciding every
    square afresh: the per-square loop that the suite's kept span and
    cospan parts replace."""

    def iii_cases():
        for sq in _commuting_squares(max_size, infl, defl):
            pb, po = kernel.is_pullback(*sq), kernel.is_pushout(*sq)
            if pb != po:
                yield "cartesian=%s cocartesian=%s for %s" % (pb, po, _square_text(*sq))
            else:
                yield ""

    iii = CheckResult.first_failure("axiom iii: cartesian iff cocartesian", iii_cases())
    rows = [(iii.name, iii.checked, iii.witness)]
    triples = list(itertools.product(range(max_size + 1), repeat=3))
    iv_scans = [fresh_iv(w, x, v, infl(w, x), defl(v, x)) for w, x, v in triples]
    v_scans = [fresh_v(w, u, v, defl(u, w), infl(u, v)) for w, u, v in triples]
    for name, scans in (
        ("axiom iv: pullback completion", iv_scans),
        ("axiom v: pushout completion", v_scans),
    ):
        witness = next((wit for _, wit in scans if wit), "")
        rows.append((name, sum(c for c, _ in scans), witness))
    return rows


@pytest.mark.parametrize("classes", sorted(SQUARE_CLASSES))
def test_kept_square_parts_decide_as_the_fresh_loop(classes):
    # Newly covers: axioms iii, iv and v keep the span and cospan parts
    # of their square tests for one call; every count and witness is
    # the one that deciding each square afresh gives, for every class,
    # at both job counts.
    given = SQUARE_CLASSES[classes]
    infl = given.get("inflation_maps_of", kernel.inflation_maps)
    defl = given.get("deflation_maps_of", kernel.deflation_maps)
    failed = 0
    for max_size in range(4):
        want = fresh_rows(max_size, infl, defl)
        failed += any(wit for _, _, wit in want)
        for jobs in (1, 2):
            report = axiom_suite(max_size, jobs=jobs, **given)
            got = [(c.name, c.checked, c.witness) for c in report.checks[2:5]]
            assert got == want, (max_size, jobs)
    assert failed == (0 if classes in ("honest", "no isos among inflations") else 3)


def bijective(first, second, left, right):
    """The pre-split test of universal_square_ok at one test object: is
    m ↦ (first[m], second[m]) a bijection onto the index pairs (i, j)
    with left[i] == right[j], given the tallies left and right?"""
    if len(set(zip(first, second))) != len(first):
        return False
    return sum(map(mul, left.values(), map(right.__getitem__, left))) == len(first)


def test_halves_join_as_the_bijection_test():
    # Newly covers: at every test object n <= 3, the span half joined
    # with the cospan half gives the verdict of the two bijection tests
    # that read all four legs' tables at once, on every commuting square
    # with corners <= 2, of the honest classes and of hom_maps in both
    # slots.  128 of the 180 squares fail (each at n = 1, 2 and 3), and
    # each of the join's four comparisons is false somewhere.
    verdicts, false_parts = Counter(), set()
    for classes in (
        (kernel.inflation_maps, kernel.deflation_maps),
        (kernel.hom_maps, kernel.hom_maps),
    ):
        for l, t, b, r, u, v, w, x in _commuting_squares(2, *classes):
            span = kernel.span_half(l, t, u, v, w, 3)
            cospan = kernel.cospan_half(b, r, w, v, x, 3)
            ls, ts = kernel._leg_upto(l, u, w, 3), kernel._leg_upto(t, u, v, 3)
            bs, rs = kernel._leg_upto(b, w, x, 3), kernel._leg_upto(r, v, x, 3)
            passed = 0
            for n in range(4):
                want = bijective(ls[n][0], ts[n][0], bs[n][1], rs[n][1]) and bijective(
                    bs[n][2], rs[n][2], ls[n][3], ts[n][3]
                )
                assert kernel.universal_join(span[n : n + 1], cospan[n : n + 1]) == want
                passed += want
                (homs_into_u, span_injective, pairs_out_of) = span[n]
                (homs_out_of_x, cospan_injective, pairs_into) = cospan[n]
                parts = (
                    span_injective,
                    cospan_injective,
                    homs_into_u == pairs_into,
                    homs_out_of_x == pairs_out_of,
                )
                false_parts.update(k for k, part in enumerate(parts) if not part)
            ok = kernel.universal_square_ok(l, t, b, r, u, v, w, x, 3)
            assert ok == (passed == 4)
            verdicts[ok, passed] += 1
    assert verdicts == {(True, 4): 52, (False, 1): 128}
    assert false_parts == {0, 1, 2, 3}
