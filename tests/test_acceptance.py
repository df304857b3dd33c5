"""Acceptance gate: twelve pinned criteria, one per test, in order.

Every check is exact (integer/combinatorial equality — no numeric
tolerances anywhere).  Each test prints a single
``criterion NN PASS/FAIL`` line (shown under ``pytest -s`` and in any
failure report) and enforces its pinned wall-clock budget.
"""

import itertools
import json
import subprocess
import sys
import time
from math import factorial

from f1kgw.fincat import AbelianGroupSNF
from f1kgw.forms import (
    are_isometric,
    direct_sum_form,
    enumerate_forms,
    hyperbolic,
    identity_form,
    is_isometry,
    is_metabolic,
    iso_simple_decomposition,
    isometry_group,
    metabolic_to_hyperbolic,
    witt_monoid,
)
from f1kgw.invariants import gw0, hermitian_component_count, k0, k0_from_sums
from f1kgw.pointed import (
    all_conflations,
    axiom_suite,
    compose,
    conflation_retractions,
    conflation_sections,
    conflation_splittings,
    dualize,
    retraction_of_splitting,
    section_of_splitting,
)
from f1kgw.qcat import (
    comma_tau_suite,
    conflation_suite,
    stabilization_equivalence_suite,
)


def _verdict(num, budget, started, ok, detail):
    elapsed = time.time() - started
    line = "criterion %02d %s (%.1fs) %s" % (
        num,
        "PASS" if ok else "FAIL",
        elapsed,
        detail,
    )
    print(line)
    assert ok, line
    assert elapsed < budget, "runtime %.1fs exceeds the %ds budget" % (elapsed, budget)


def test_criterion_01_axiom_suite():
    started = time.time()
    report = axiom_suite(4)
    counts = {c.name: c.checked for c in report.checks}
    pinned = {
        "axiom iii: cartesian iff cocartesian": 25827,
        "axiom iv: pullback completion": 2165,
        "axiom v: pushout completion": 2165,
        "DS2: exact bifunctor": 28282,
        "DS3: restriction injective": 35330,
        "DS4: unique splitting extension": 306,
    }
    coverage_ok = all(counts.get(name) == want for name, want in pinned.items())
    _verdict(
        1,
        60,
        started,
        report.ok and coverage_ok,
        "exactness axioms + direct-sum laws exhaustively at size 4",
    )


def test_criterion_02_unique_splitting_census():
    started = time.time()
    conflations = all_conflations(5)
    ok = len(conflations) == 873
    for c in conflations:
        phis = conflation_splittings(c)
        secs = conflation_sections(c)
        rets = conflation_retractions(c)
        ok = ok and len(phis) == 1 and len(secs) == 1 and len(rets) == 1
        ok = ok and section_of_splitting(c, phis[0]) == secs[0]
        ok = ok and retraction_of_splitting(c, phis[0]) == rets[0]
        if not ok:
            break
    _verdict(
        2,
        60,
        started,
        ok,
        "every conflation with total size <= 5 splits in exactly one way",
    )


def test_criterion_03_form_census():
    started = time.time()
    want = [1, 1, 2, 4, 10, 26, 76]
    ok = True
    for n in range(7):
        forms = enumerate_forms(n)
        brute = sum(
            1
            for perm in itertools.permutations(range(1, n + 1))
            if all(perm[perm[k - 1] - 1] == k for k in range(1, n + 1))
        )
        ok = ok and len(forms) == len(set(forms)) == brute == want[n]
    _verdict(3, 60, started, ok, "form counts 0..6 match the involution numbers")


def test_criterion_04_metabolic_to_hyperbolic():
    started = time.time()
    ok = True
    verified = 0
    for n in range(7):
        for form in enumerate_forms(n):
            witness = is_metabolic(form)
            if witness is None:
                continue
            verified += 1
            phi = metabolic_to_hyperbolic(witness)
            H = hyperbolic(len(witness.image))
            ok = ok and compose(dualize(phi), compose(form.morphism, phi)).map == H.psi
    ok = ok and verified == 20
    _verdict(
        4,
        60,
        started,
        ok,
        "all %d metabolic forms of size <= 6 made exactly hyperbolic" % verified,
    )


def _brute_isometric(A, B):
    """Exhaustive search over all bijections (independent of the
    library's isometry tester)."""
    if A.size != B.size:
        return False
    n = A.size
    psiA, psiB = A.psi, B.psi
    for perm in itertools.permutations(range(1, n + 1)):
        phi = (0,) + perm
        if all(phi[psiA[x]] == psiB[phi[x]] for x in range(1, n + 1)):
            return True
    return False


def test_criterion_05_decomposition_uniqueness():
    started = time.time()
    ok = True
    for n in range(7):
        forms = enumerate_forms(n)
        for form in forms:
            t, f, phi = iso_simple_decomposition(form)
            ok = ok and 2 * t + f == n
            ok = ok and is_isometry(
                phi, form, direct_sum_form(hyperbolic(t), identity_form(f))
            )
            # exhaustive alternative-decomposition search: no other
            # block shape admits any isometry at all
            for t2 in range(n // 2 + 1):
                target = direct_sum_form(hyperbolic(t2), identity_form(n - 2 * t2))
                ok = ok and _brute_isometric(form, target) == (t2 == t)
        # pairwise: isometric iff equal signature, brute force agreeing
        # with the library route
        for A in forms:
            for B in forms:
                brute = _brute_isometric(A, B)
                ok = ok and brute == (len(A.fixed_points()) == len(B.fixed_points()))
                ok = ok and brute == are_isometric(A, B)
        if not ok:
            break
    _verdict(
        5,
        300,
        started,
        ok,
        "hyperbolic/fixed decomposition unique up to isometry through size 6",
    )


def test_criterion_06_witt_monoid():
    started = time.time()
    pres, classes = witt_monoid(6)
    ok = pres.generators == ("w",) and pres.relations == ()
    ok = ok and sorted(classes) == list(range(7))
    for n in range(7):
        ok = ok and len(isometry_group(identity_form(n))) == factorial(n)
    _verdict(
        6,
        60,
        started,
        ok,
        "Witt monoid free on the point over window {0..6}; |Aut(id_n)| = n!",
    )


def test_criterion_07_k0_dual_routes():
    started = time.time()
    ok = True
    for n in range(1, 6):
        via_shapes = k0(n)
        via_sums = k0_from_sums(n)
        ok = ok and via_shapes.group == via_sums.group == AbelianGroupSNF(1, ())
    _verdict(
        7,
        60,
        started,
        ok,
        "conflation-shape and sum-relation routes both give Z for sizes 1..5",
    )


def test_criterion_08_gw0_product():
    started = time.time()
    r = gw0(6)
    ok = r.group == AbelianGroupSNF(1, ())
    ok = ok and hermitian_component_count(4) == 5
    _verdict(
        8,
        300,
        started,
        ok,
        "hyperbolic classes complete to Z; 5 hermitian components at size 4",
    )


def test_criterion_09_fiber_equivalences():
    started = time.time()
    report = conflation_suite(3)
    _verdict(
        9,
        300,
        started,
        report.ok,
        "fiber embeddings are equivalences; base changes behave, window 3",
    )


def test_criterion_10_comma_equivalence():
    started = time.time()
    report = comma_tau_suite(4)
    _verdict(
        10,
        300,
        started,
        report.ok,
        "stabilization comma categories equivalent to isomorphism groupoids, window 4",
    )


def test_criterion_11_stabilization_splitting():
    started = time.time()
    report = stabilization_equivalence_suite(3)
    _verdict(
        11,
        300,
        started,
        report.ok,
        "component of the point factors as automorphisms x hyperbolic part",
    )


def test_criterion_12_cli_determinism():
    started = time.time()

    def run(args):
        return subprocess.run(
            [sys.executable, "-m", "f1kgw.cli"] + args,
            capture_output=True,
            check=True,
        ).stdout

    ok = True
    for args in (
        ["axioms", "--max-size", "3", "--output", "json"],
        ["k0", "--max-size", "3", "--output", "json"],
        ["witt", "--max-size", "4", "--output", "json"],
        ["qcat", "--max-size", "2", "--output", "dot"],
        ["export", "--what", "completion", "--max-size", "2"],
        ["decompose", "inv:(1 2)(3)"],
    ):
        ok = ok and run(args) == run(args)
    jobs1 = run(["axioms", "--max-size", "3", "--jobs", "1", "--output", "json"])
    jobs4 = run(["axioms", "--max-size", "3", "--jobs", "4", "--output", "json"])
    ok = ok and jobs1 == jobs4 and jobs1
    _verdict(
        12,
        60,
        started,
        ok,
        "byte-identical CLI output across reruns and differing --jobs",
    )
