"""One pass of a benchmark workload, in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/workloads.py --workload axioms --seed 1 [--trace]

A fresh interpreter per pass keeps the kernel's ``lru_cache`` tables
cold, as they are for a user.  Every step is checked against a pin taken
at the seed commit or an oracle that does not come from the code under
test; a step that raises or disagrees counts as failed, and the pass
goes on.  The pass prints one JSON object: the kernel backend, per step
name [attempted, failed, seconds], the first failure messages and,
without --trace, the host-speed figures from ``pace`` or, with --trace,
the per-layer figures from ``layers``.
"""

import argparse
import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import time
from math import factorial
from pathlib import Path

import layers
import pace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("axioms", "categories", "isometry", "cli")

# Pins from the seed commit: criterion 01 and ROADMAP's Baseline census.
AXIOM_CHECKED = {
    "axiom i: zero maps": 10,
    "axiom ii: class closure": 4364,
    "axiom iii: cartesian iff cocartesian": 25827,
    "axiom iv: pullback completion": 2165,
    "axiom v: pushout completion": 2165,
    "calibration: intrinsic vs universal": 34,
    "DS1: monoidal unit": 95,
    "DS2: exact bifunctor": 28282,
    "DS3: restriction injective": 35330,
    "DS4: unique splitting extension": 306,
    "direct sums: inclusion squares, isos": 400,
    "block pullback squares": 96,
}
# (morphisms, composable pairs)
CATEGORY_SIZES = {
    "q_category": (220, 6882),
    "qh_category": (338, 7558),
    "completion_category": (219, 5010),
    "conflation_category": (2221, 121339),
}
CONFLATION_SUITE_CHECKED = {
    "object census matches (x+1)*x! per total size": 33,
    "quotient functor to the span category": 2221,
    "fiber embedding at quotient size 0 is an equivalence": 236,
    "fiber embedding at quotient size 1 is an equivalence": 81,
    "fiber embedding at quotient size 2 is an equivalence": 42,
    "restriction to the zero fiber (quotient size 0)": 8036,
    "total-object functor to the zero fiber (quotient size 0)": 8036,
    "extension from the zero fiber (quotient size 0)": 8036,
    "scalar action by size 0 is functorial": 123560,
    "action = extension after restriction on the fiber (size 0)": 236,
    "action = restriction after extension over the zero fiber (size 0)": 236,
    "restriction to the zero fiber (quotient size 1)": 950,
    "total-object functor to the zero fiber (quotient size 1)": 950,
    "extension from the zero fiber (quotient size 1)": 44,
    "scalar action by size 1 is functorial": 404,
    "action = extension after restriction on the fiber (size 1)": 8,
    "action = restriction after extension over the zero fiber (size 1)": 14,
    "restriction to the zero fiber (quotient size 2)": 264,
    "total-object functor to the zero fiber (quotient size 2)": 264,
    "extension from the zero fiber (quotient size 2)": 4,
    "scalar action by size 2 is functorial": 12,
    "action = extension after restriction on the fiber (size 2)": 0,
    "action = restriction after extension over the zero fiber (size 2)": 4,
}
COMMA_TAU_CHECKED = {
    "isometries embed into hermitian spans": 75,
    "stabilization under inv:() is an equivalence": 308,
    "stabilization under inv:(1 2) is an equivalence": 606,
}
ISOMETRY_PAIRS = 300
# Pairs with equal fixed-point counts, the share a uniform draw of size-6
# pairs gives: 300 * (1 + 15^2 + 45^2 + 15^2) / 76^2 = 128.6.
ISOMETRIC_PAIRS = 129
DECOMPOSE_LITERALS = 3


# ---------------------------------------------------------------------------
# oracles that do not come from f1kgw


def involutions(n):
    """Every involution of 1..n as a psi tuple (psi[0] = 0), by brute force."""
    out = []
    for perm in itertools.permutations(range(1, n + 1)):
        if all(perm[perm[k] - 1] == k + 1 for k in range(n)):
            out.append((0,) + perm)
    return out


def fixed_count(psi):
    return sum(1 for k in range(1, len(psi)) if psi[k] == k)


def automorphism_count(psi):
    """|Aut| of a form with t pairs and f fixed points: f! * 2^t * t!."""
    f = fixed_count(psi)
    t = (len(psi) - 1 - f) // 2
    return factorial(f) * 2**t * factorial(t)


def literal(psi):
    cycles = []
    for k in range(1, len(psi)):
        if psi[k] == k:
            cycles.append("(%d)" % k)
        elif k < psi[k]:
            cycles.append("(%d %d)" % (k, psi[k]))
    return "inv:" + "".join(cycles)


def isometry_pairs(rng, psis):
    """Uniform draws of ordered pairs, each kept while its kind has room:
    ISOMETRIC_PAIRS isometric ones and the rest of ISOMETRY_PAIRS not.
    The two kinds cost very differently (today a
    non-isometric verdict needs a full search of S_6, an isometric one
    stops at the first isometry), so fixing the split keeps the work of
    a pass from depending on the seed."""
    want = {True: ISOMETRIC_PAIRS, False: ISOMETRY_PAIRS - ISOMETRIC_PAIRS}
    pairs = []
    while len(pairs) < ISOMETRY_PAIRS:
        a, b = rng.choice(psis), rng.choice(psis)
        isometric = fixed_count(a) == fixed_count(b)
        if want[isometric]:
            want[isometric] -= 1
            pairs.append((a, b, isometric))
    return pairs


def decompose_pool():
    """Literals the cli workload draws from: every form of size 1..6."""
    return [literal(psi) for n in range(1, 7) for psi in involutions(n)]


def is_z(group):
    return (group.rank, tuple(group.torsion)) == (1, ())


def suite_check(pinned):
    def check(report):
        got = {c.name: c.checked for c in report.checks}
        if not report.ok:
            return "suite reports a failure"
        if got != pinned:
            return "checked counts differ from the pins: %s" % {
                k: got.get(k) for k in set(got) | set(pinned) if got.get(k) != pinned.get(k)
            }
        return None

    return check


def size_check(builder):
    def check(cat):
        got = (cat.n_morphisms, len(cat.comp))
        want = CATEGORY_SIZES[builder]
        return None if got == want else "%s has (morphisms, pairs) %s, pinned %s" % (builder, got, want)

    return check


# ---------------------------------------------------------------------------
# workloads: each yields (step name, thunk, check); check returns an error or None


def axioms_steps(rng):
    from f1kgw import pointed

    yield "axiom_suite", lambda: pointed.axiom_suite(4, jobs=1), suite_check(AXIOM_CHECKED)


def categories_steps(rng):
    from f1kgw import qcat

    yield "q_category", lambda: qcat.q_category(4), size_check("q_category")
    yield "qh_category", lambda: qcat.qh_category(4), size_check("qh_category")
    yield "completion_category", lambda: qcat.completion_category(3), size_check("completion_category")

    def conflation_suite():
        # The suite builds conflation_category(3) itself; keep only its size.
        build = qcat.conflation_category
        sizes = []

        def capture(max_size):
            cat = build(max_size)
            sizes.append(size_check("conflation_category")(cat))
            return cat

        qcat.conflation_category = capture
        try:
            return qcat.conflation_suite(3), sizes
        finally:
            qcat.conflation_category = build

    def conflation_check(result):
        report, sizes = result
        if len(sizes) != 1:
            return "conflation_suite built %d conflation categories" % len(sizes)
        return sizes[0] or suite_check(CONFLATION_SUITE_CHECKED)(report)

    yield "conflation_suite", conflation_suite, conflation_check
    yield "comma_tau_suite", lambda: qcat.comma_tau_suite(4), suite_check(COMMA_TAU_CHECKED)


def isometry_steps(rng):
    from f1kgw import forms, invariants

    psis = involutions(6)
    by_psi = {psi: forms.SymmetricForm(6, psi) for psi in psis}
    for a, b, want in isometry_pairs(rng, psis):
        yield (
            "are_isometric",
            lambda a=a, b=b: forms.are_isometric(by_psi[a], by_psi[b]),
            lambda got, want=want: None if got is want else "verdict %s, oracle %s" % (got, want),
        )
    for psi in rng.sample(psis, len(psis)):

        def group_check(group, psi=psi):
            want = automorphism_count(psi)
            maps = {phi.map for phi in group}
            if len(group) == len(maps) == want:
                return None
            return "%s has %d automorphisms (%d distinct), oracle %d" % (
                literal(psi), len(group), len(maps), want)

        yield "isometry_group", lambda psi=psi: forms.isometry_group(by_psi[psi]), group_check
    for name, window in (("k0", 4), ("k0_from_sums", 4), ("gw0", 6)):
        fn = getattr(invariants, name)
        yield name, lambda fn=fn, window=window: fn(window), lambda r: None if is_z(r.group) else "group %s" % r.group

    def w0_check(result):
        pres, classes, group = result
        if pres.generators == ("w",) and pres.relations == () and sorted(classes) == list(range(7)) and is_z(group):
            return None
        return "W0 presentation %s, classes %s, group %s" % (pres, sorted(classes), group)

    yield "w0", lambda: invariants.w0(6), w0_check


FIXED_COMMANDS = (
    ("forms", ["forms"]),
    ("k0", ["k0"]),
    ("gw0", ["gw0"]),
    ("witt", ["witt"]),
    ("qcat", ["qcat", "--output", "dot"]),
    ("qhcat", ["qhcat", "--output", "json"]),
    ("export_conflations", ["export", "--what", "conflations"]),
    ("export_completion", ["export", "--what", "completion"]),
)


def cli_commands(literals):
    """(metric name, pin key, argv) of every kgw invocation, at the default
    windows.  The axioms bytes do not depend on --jobs, so one pin serves."""
    jobs = min(2, os.cpu_count() or 1)
    commands = [("axioms", "axioms", ["axioms", "--jobs", str(jobs)])]
    commands += [(name, name, argv) for name, argv in FIXED_COMMANDS]
    commands += [("decompose", "decompose " + lit, ["decompose", lit]) for lit in literals]
    return commands


def kgw(argv, traced):
    """Run one kgw command under the tracer or the speed probe; returns
    (exit code, stdout, the per-layer or probe figures)."""
    script, mark = ("layers.py", layers.MARK) if traced else ("pace.py", pace.MARK)
    proc = subprocess.run(
        [sys.executable, str(HERE / script)] + argv, capture_output=True, cwd=ROOT, timeout=100
    )
    figures = {}
    lines = proc.stderr.decode("utf-8", "replace").splitlines()
    if lines and lines[-1].startswith(mark):
        figures = json.loads(lines[-1][len(mark):])
    return proc.returncode, proc.stdout, figures


def pin(code, out):
    return [code, hashlib.sha256(out).hexdigest()]


def cli_steps(rng, traced, collected):
    pins = json.loads((HERE / "pins.json").read_text())
    literals = rng.sample(decompose_pool(), DECOMPOSE_LITERALS)
    for name, key, argv in cli_commands(literals):

        def call(argv=argv):
            code, out, figures = kgw(argv, traced)
            if traced:
                figures["cli.stdout_bytes"] = len(out)
            collected.append(figures)
            return pin(code, out)

        def check(got, want=pins[key]):
            return None if got == want else "exit/sha256 %s, pinned %s" % (got, want)

        yield "cli." + name, call, check


STEPS = {"axioms": axioms_steps, "categories": categories_steps, "isometry": isometry_steps}


# ---------------------------------------------------------------------------


def run_pass(workload, seed, traced):
    rng = random.Random(seed)
    collected = []  # per-layer figures from kgw, or probe figures of every process
    tracer = probe = None
    if workload == "cli":
        steps = cli_steps(rng, traced, collected)
    elif traced:
        tracer = layers.Tracer()
        tracer.install()
        steps = STEPS[workload](rng)
    else:
        probe = pace.Probe()
        probe.start()
        steps = STEPS[workload](rng)
    try:
        results, failures = run_steps(steps)
    finally:
        if probe:
            collected.append(probe.stop())
    out = {"steps": results, "failures": failures[:20]}
    if not traced:
        out["pace"] = pace.merge(collected)
    else:
        parts = collected + ([tracer.metrics()] if tracer else [])
        figures = layers.merge(parts)
        if workload == "cli":
            for name, (_, _, seconds) in results.items():
                figures[name + "_s"] = seconds
        out["layers"] = layers.derive(figures)
    return out


def run_steps(steps):
    results = {}
    failures = []
    for name, thunk, check in steps:
        start = time.perf_counter()
        try:
            error = check(thunk())
        except Exception as exc:  # a failed step is counted, and the pass goes on
            error = "%s: %s" % (type(exc).__name__, exc)
        seconds = time.perf_counter() - start
        entry = results.setdefault(name, [0, 0, 0.0])
        entry[0] += 1
        entry[2] += seconds
        if error:
            entry[1] += 1
            failures.append("%s: %s" % (name, error))
    return results, failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    import f1kgw

    if Path(f1kgw.__file__).resolve().parent != ROOT / "src" / "f1kgw":
        sys.exit("error: f1kgw imported from %s, not from %s" % (f1kgw.__file__, ROOT / "src"))
    out = run_pass(args.workload, args.seed, args.trace)
    out["backend"] = f1kgw.BACKEND
    print(json.dumps(out, sort_keys=True))


if __name__ == "__main__":
    main()
