"""Tests of the benchmark's span arithmetic, check attribution and tracer.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import json
from pathlib import Path

import pytest

import layers
import workloads

HERE = Path(__file__).resolve().parent.parent


def tree():
    """q_category [0, 10) > build_category [2, 9) > comp_rule x2, with a
    nested comp_rule inside the second (covered once, by the outer)."""
    return [
        ("qcat.q_category", 0.0, 10.0, -1),
        ("fincat.build_category", 2.0, 9.0, 0),
        ("fincat.comp_rule", 3.0, 4.0, 1),
        ("fincat.comp_rule", 5.0, 8.0, 1),
        ("fincat.comp_rule", 6.0, 7.0, 3),
        ("other", 8.5, 8.75, 1),
    ]


def test_self_time_subtracts_outermost_children_only():
    spans = tree()
    by_name = layers.group_by_name(spans)
    rule = layers.covered(spans, "fincat.build_category", by_name["fincat.comp_rule"])
    assert dict(rule) == {1: 4.0}
    assert layers.self_time(spans, 1, rule) == 3.0
    builds = layers.covered(spans, "qcat.q_category", by_name["fincat.build_category"])
    assert layers.self_time(spans, 0, builds) == 3.0


def test_child_counts_toward_nearest_parent_only():
    spans = [
        ("qcat.conflation_suite", 0.0, 20.0, -1),
        ("qcat.conflation_category", 1.0, 11.0, 0),
        ("fincat.build_category", 2.0, 10.0, 1),
        ("fincat.build_category", 12.0, 15.0, 0),  # a build outside the builder
    ]
    builds = layers.group_by_name(spans)["fincat.build_category"]
    inner = layers.covered(spans, "qcat.conflation_category", builds)
    assert dict(inner) == {1: 8.0}
    assert layers.self_time(spans, 1, inner) == 2.0


def test_outermost_skips_recursive_calls():
    spans = [("f", 0.0, 5.0, -1), ("g", 1.0, 4.0, 0), ("f", 2.0, 3.0, 1), ("f", 6.0, 7.0, -1)]
    indices = layers.group_by_name(spans)["f"]
    assert layers.outermost(spans, indices) == [0, 3]
    assert layers.duration(spans, layers.outermost(spans, indices)) == 6.0


def test_checks_split_suite_time_between_stamps():
    stamps = [(1.5, "axiom i: zero maps", 10), (4.0, "axiom ii: class closure", 7), (4.5, "DS2: exact bifunctor", 3)]
    got = layers.attribute_checks(1.0, list(reversed(stamps)))
    assert got == [("axiom i: zero maps", 0.5, 10), ("axiom ii: class closure", 2.5, 7), ("DS2: exact bifunctor", 0.5, 3)]
    assert sum(seconds for _, seconds, _ in got) == 4.5 - 1.0
    assert [layers.check_slug(name) for name, _, _ in got] == ["i", "ii", "ds2"]


def test_every_axiom_check_has_a_slug():
    assert {layers.check_slug(name) for name in workloads.AXIOM_CHECKED} == set(layers.AXIOM_CHECKS.values())


def test_merge_sums_counts_and_keeps_the_largest_pool():
    merged = layers.merge([{"a.calls": 2, "parallel.workers": 2}, {"a.calls": 3, "parallel.workers": 1}])
    assert merged == {"a.calls": 5, "parallel.workers": 2}
    derived = layers.derive({"forms.is_isometry.calls": 8, "forms.is_isometry.hits": 2,
                             "cli.import_s": 0.5, "cli.invocations": 5})
    assert derived["forms.is_isometry.hit_ratio"] == 0.25
    assert derived["cli.import_s"] == pytest.approx(0.1)


def fake_clock():
    ticks = iter(range(10**6))
    return lambda: float(next(ticks))


def test_tracer_wraps_every_binding_and_restores_them():
    from f1kgw import cli, forms, invariants, pointed, qcat

    originals = (forms.are_isometric, invariants.are_isometric, qcat.compose, forms.compose)
    tracer = layers.Tracer(clock=fake_clock())
    tracer.install()
    try:
        assert invariants.are_isometric is forms.are_isometric is not originals[0]
        assert cli.axiom_suite is pointed.axiom_suite
        M = forms.identity_form(2)
        assert invariants.are_isometric(M, M) and forms.are_isometric(M, M)
        cat = qcat.q_category(1)
    finally:
        tracer.uninstall()
    assert (forms.are_isometric, invariants.are_isometric, qcat.compose, forms.compose) == originals
    figures = tracer.metrics()
    assert figures["forms.are_isometric.calls"] == 2
    assert figures["fincat.morphisms"] == cat.n_morphisms
    assert figures["fincat.pairs"] == len(cat.comp)
    assert figures["qcat.q_compose.calls"] == len(cat.comp)
    build = figures["fincat.build_category.q_category_s"]
    assert build == figures["fincat.build_category.q_category.comp_rule_s"] + figures[
        "fincat.build_category.q_category.certify_s"]
    assert figures["qcat.q_category_s"] == build + figures["qcat.q_category.enumerate_s"]


def test_metrics_cover_every_per_layer_name():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    tracer = layers.Tracer()
    names = set(layers.derive(tracer.metrics()))
    names |= {"cli.%s_s" % name for name, _ in workloads.FIXED_COMMANDS}
    names |= {"cli.axioms_s", "cli.decompose_s", "cli.stdout_bytes", "trace.overhead_s"}
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in names]
    assert missing == []


def test_oracles_match_the_involution_numbers():
    assert [len(workloads.involutions(n)) for n in range(7)] == [1, 1, 2, 4, 10, 26, 76]
    assert workloads.automorphism_count((0, 2, 1, 3)) == 2
    assert workloads.literal((0, 2, 1, 3)) == "inv:(1 2)(3)"
    pins = json.loads((HERE / "pins.json").read_text())
    assert all("decompose " + lit in pins for lit in workloads.decompose_pool())


def test_isometry_pairs_fix_the_isometric_share():
    psis = workloads.involutions(6)
    classes = [sum(1 for psi in psis if workloads.fixed_count(psi) == f) for f in (0, 2, 4, 6)]
    expected = workloads.ISOMETRY_PAIRS * sum(c * c for c in classes) / len(psis) ** 2
    assert workloads.ISOMETRIC_PAIRS == round(expected)
    for seed in (1, 2):
        pairs = workloads.isometry_pairs(workloads.random.Random(seed), psis)
        assert len(pairs) == workloads.ISOMETRY_PAIRS
        assert sum(want for _, _, want in pairs) == workloads.ISOMETRIC_PAIRS
        assert all(want == (workloads.fixed_count(a) == workloads.fixed_count(b)) for a, b, want in pairs)
    assert pairs != workloads.isometry_pairs(workloads.random.Random(1), psis)
