"""Outside-in tracing of f1kgw, one layer per module.

The tracer replaces public functions with wrappers at every module
binding (``from … import`` copies names, so ``forms.are_isometric`` is
also ``invariants.are_isometric``), records a span for each timed call
and bumps counters for the hot ones.  Nothing under ``src/`` is
edited.  ``Tracer.metrics`` turns the spans into the additive per-layer
figures the benchmark reports.

Run as a script, it is ``kgw`` under the tracer: the command's stdout is
untouched and the figures go to stderr as the last line, after MARK.

    PYTHONPATH=src python3 perfbench/layers.py axioms --max-size 3
"""

import json
import multiprocessing.pool
import resource
import sys
import time
from collections import defaultdict
from functools import wraps

MARK = "perfbench-layers "

# Spans whose outermost inclusive time is reported as "<name>_s".
TIMED = {
    "pointed": ("complete_pullback", "complete_pushout", "axiom_suite"),
    "fincat": (
        "check_functor",
        "comma_category",
        "pi0",
        "smith_invariants",
        "category_to_json",
    ),
    "qcat": (
        "q_category",
        "qh_category",
        "conflation_category",
        "completion_category",
        "conflation_suite",
        "comma_tau_suite",
        "stabilization_equivalence_suite",
    ),
    "forms": (
        "are_isometric",
        "isometry_group",
        "iso_simple_decomposition",
        "enumerate_forms",
    ),
    "invariants": ("k0", "k0_from_sums", "gw0", "w0", "hermitian_component_count"),
}
BUILDERS = ("q_category", "qh_category", "conflation_category", "completion_category")
BUILD_TAGS = BUILDERS + ("other",)
KERNEL_FILLS = ("hom_maps", "inflation_maps", "deflation_maps")
COUNTERS = (
    "corepy.compose.calls",
    "corepy.is_valid_map.calls",
    "corepy.hom_maps.fill_s",
    "corepy.hom_maps.maps",
    "pointed.F1Morphism.calls",
    "qcat.q_compose.calls",
    "forms.is_isometry.calls",
    "forms.is_isometry.hits",
    "fincat.morphisms",
    "fincat.pairs",
    "fincat.triples",
    "parallel.tasks",
)

# The twelve axiom_suite checks, keyed by the check name up to its colon.
AXIOM_CHECKS = {
    "axiom i": "i",
    "axiom ii": "ii",
    "axiom iii": "iii",
    "axiom iv": "iv",
    "axiom v": "v",
    "calibration": "calibration",
    "DS1": "ds1",
    "DS2": "ds2",
    "DS3": "ds3",
    "DS4": "ds4",
    "direct sums": "direct_sums",
    "block pullback squares": "block_squares",
}


# ---------------------------------------------------------------------------
# span arithmetic (spans are (name, start, end, parent index or -1))


def group_by_name(spans):
    out = defaultdict(list)
    for i, span in enumerate(spans):
        out[span[0]].append(i)
    return out


def outermost(spans, indices):
    """The spans among ``indices`` not nested in a span of the same name."""
    out = []
    for i in indices:
        name, p = spans[i][0], spans[i][3]
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            out.append(i)
    return out


def duration(spans, indices):
    return sum(spans[i][2] - spans[i][1] for i in indices)


def covered(spans, parent_name, child_indices):
    """Seconds of each ``parent_name`` span covered by child spans.

    A child counts towards its nearest ``parent_name`` ancestor, and only
    if no span of its own name lies in between (that one covers it).
    """
    out = defaultdict(float)
    for i in child_indices:
        name, start, end, p = spans[i]
        while p >= 0 and spans[p][0] not in (parent_name, name):
            p = spans[p][3]
        if p >= 0 and spans[p][0] == parent_name:
            out[p] += end - start
    return out


def self_time(spans, parent_index, covered_by_parent):
    """A span's duration minus the time its children of interest cover."""
    start, end = spans[parent_index][1:3]
    return (end - start) - covered_by_parent.get(parent_index, 0.0)


def attribute_checks(start, stamps):
    """Split a suite's time between its checks.

    ``stamps`` are (time, check name, checked count) in the order the
    suite constructed its CheckResults; each check ran from the previous
    stamp (or the suite's start) to its own.
    """
    out = []
    prev = start
    for t, name, checked in sorted(stamps, key=lambda s: s[0]):
        out.append((name, t - prev, checked))
        prev = t
    return out


def check_slug(name):
    return AXIOM_CHECKS.get(name.split(":")[0])


# ---------------------------------------------------------------------------
# the tracer


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.stack = []
        self.counts = defaultdict(int)
        self.stamps = []
        self.workers = 0
        self.child_cpu = 0.0
        self.filling = 0
        self._undo = []

    # spans -----------------------------------------------------------

    def open(self, name):
        index = len(self.spans)
        self.spans.append([name, self.clock(), None, self.stack[-1] if self.stack else -1])
        self.stack.append(index)
        return index

    def close(self, index):
        self.spans[index][2] = self.clock()
        self.stack.pop()

    def timed(self, name, fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        @wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # installation ----------------------------------------------------

    def _rebind(self, original, replacement):
        """Point every f1kgw module binding of ``original`` at ``replacement``."""
        for modname, module in list(sys.modules.items()):
            if modname != "f1kgw" and not modname.startswith("f1kgw."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    def _patch(self, owner, attr, replacement):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self):
        from f1kgw import _backend, _parallel, fincat, forms, invariants, pointed, qcat

        modules = {
            "pointed": pointed,
            "fincat": fincat,
            "qcat": qcat,
            "forms": forms,
            "invariants": invariants,
        }
        kernel = _backend.kernel
        for layer, names in TIMED.items():
            for name in names:
                fn = getattr(modules[layer], name)
                self._rebind(fn, self.timed("%s.%s" % (layer, name), fn))

        for name in ("compose", "is_valid_map"):
            fn = getattr(kernel, name)
            self._rebind(fn, self.counted("corepy.%s.calls" % name, fn))
        fn = kernel.universal_square_ok
        self._rebind(fn, self.timed("corepy.universal_square_ok", fn))
        for name in KERNEL_FILLS:
            fn = getattr(kernel, name)
            self._rebind(fn, self._fills(name, fn))

        self._patch(
            pointed.F1Morphism,
            "__init__",
            self.counted("pointed.F1Morphism.calls", pointed.F1Morphism.__init__),
        )
        self._patch(
            pointed.BicartesianSquare,
            "verify",
            self.timed("pointed.BicartesianSquare.verify", pointed.BicartesianSquare.verify),
        )
        self._patch(pointed.CheckResult, "__init__", self._stamped(pointed.CheckResult.__init__))
        self._rebind(qcat.q_compose, self.counted("qcat.q_compose.calls", qcat.q_compose))
        self._rebind(forms.is_isometry, self._isometry_test(forms.is_isometry))
        self._rebind(fincat.build_category, self._build(fincat.build_category))
        self._rebind(_parallel.parallel_map, self._parallel(_parallel.parallel_map))
        self._patch(multiprocessing.pool.Pool, "__init__", self._pool(multiprocessing.pool.Pool.__init__))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # special wrappers ------------------------------------------------

    def _fills(self, name, fn):
        """Time the cold fills of a cached hom-set table.

        The tables start empty in a fresh interpreter, so the first call
        with given arguments is the fill.  Nested fills (inflation_maps
        filling hom_maps) are timed once, by the outer call.
        """
        seen = set()

        @wraps(fn)
        def wrapper(*args):
            if args in seen:
                return fn(*args)
            seen.add(args)
            outer = not self.filling
            self.filling += 1
            start = self.clock()
            try:
                result = fn(*args)
            finally:
                self.filling -= 1
            if outer:
                self.counts["corepy.hom_maps.fill_s"] += self.clock() - start
            if name == "hom_maps":
                self.counts["corepy.hom_maps.maps"] += len(result)
            return result

        return wrapper

    def _stamped(self, init):
        @wraps(init)
        def wrapper(result, *args, **kwargs):
            init(result, *args, **kwargs)
            self.stamps.append((self.clock(), result.name, result.checked))

        return wrapper

    def _isometry_test(self, fn):
        counts = self.counts

        @wraps(fn)
        def wrapper(*args, **kwargs):
            verdict = fn(*args, **kwargs)
            counts["forms.is_isometry.calls"] += 1
            if verdict:
                counts["forms.is_isometry.hits"] += 1
            return verdict

        return wrapper

    def _build(self, fn):
        timed_build = self.timed("fincat.build_category", fn)

        @wraps(fn)
        def wrapper(objects, morphisms, comp_rule):
            cat = timed_build(objects, morphisms, self.timed("fincat.comp_rule", comp_rule))
            self._count_category(cat)
            return cat

        return wrapper

    def _count_category(self, cat):
        into = defaultdict(int)
        out_of = defaultdict(int)
        for src, dst in zip(cat.mor_src, cat.mor_dst):
            out_of[src] += 1
            into[dst] += 1
        self.counts["fincat.morphisms"] += cat.n_morphisms
        self.counts["fincat.pairs"] += sum(into[o] * out_of[o] for o in cat.objects)
        # triples (f, g, h) with g∘f and h∘g defined, one per middle arrow g
        self.counts["fincat.triples"] += sum(
            into[src] * out_of[dst] for src, dst in zip(cat.mor_src, cat.mor_dst)
        )

    def _parallel(self, fn):
        timed_map = self.timed("parallel.parallel_map", fn)

        @wraps(fn)
        def wrapper(func, tasks, jobs):
            tasks = list(tasks)
            self.counts["parallel.tasks"] += len(tasks)
            before = resource.getrusage(resource.RUSAGE_CHILDREN)
            try:
                return timed_map(func, tasks, jobs)
            finally:
                after = resource.getrusage(resource.RUSAGE_CHILDREN)
                self.child_cpu += (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)

        return wrapper

    def _pool(self, init):
        @wraps(init)
        def wrapper(pool, *args, **kwargs):
            init(pool, *args, **kwargs)
            self.workers = max(self.workers, pool._processes)

        return wrapper

    # figures ---------------------------------------------------------

    def metrics(self):
        """Additive per-layer figures; see ``derive`` for the ratios."""
        spans = self.spans
        by_name = group_by_name(spans)
        out = dict.fromkeys(COUNTERS, 0)
        out.update(self.counts)

        def total(name):
            return duration(spans, outermost(spans, by_name.get(name, ())))

        for layer, names in TIMED.items():
            for name in names:
                out["%s.%s_s" % (layer, name)] = total("%s.%s" % (layer, name))
        for name in ("corepy.universal_square_ok", "forms.are_isometric"):
            out["%s_s" % name] = total(name)
            out["%s.calls" % name] = len(by_name.get(name, ()))
        out["pointed.BicartesianSquare.verify_s"] = total("pointed.BicartesianSquare.verify")
        out["parallel.parallel_map_s"] = total("parallel.parallel_map")
        out["parallel.workers"] = self.workers
        out["parallel.child_cpu_s"] = self.child_cpu

        builds = outermost(spans, by_name.get("fincat.build_category", ()))
        rule = covered(spans, "fincat.build_category", by_name.get("fincat.comp_rule", ()))
        out["fincat.build_category_s"] = duration(spans, builds)
        out["fincat.build_category.comp_rule_s"] = sum(rule.get(i, 0.0) for i in builds)
        out["fincat.build_category.certify_s"] = sum(self_time(spans, i, rule) for i in builds)
        for tag in BUILD_TAGS:
            for part in ("_s", ".comp_rule_s", ".certify_s"):
                out["fincat.build_category.%s%s" % (tag, part)] = 0.0
        for i in builds:
            parent = spans[i][3]
            tag = spans[parent][0][len("qcat."):] if parent >= 0 else "other"
            if tag not in BUILDERS:
                tag = "other"
            key = "fincat.build_category.%s" % tag
            out[key + "_s"] += duration(spans, [i])
            out[key + ".comp_rule_s"] += rule.get(i, 0.0)
            out[key + ".certify_s"] += self_time(spans, i, rule)
        for builder in BUILDERS:
            name = "qcat." + builder
            mine = outermost(spans, by_name.get(name, ()))
            inner = covered(spans, name, by_name.get("fincat.build_category", ()))
            out[name + ".enumerate_s"] = sum(self_time(spans, i, inner) for i in mine)

        for slug in AXIOM_CHECKS.values():
            out["pointed.axiom_suite.%s_s" % slug] = 0.0
            out["pointed.axiom_suite.%s.checked" % slug] = 0
        for i in outermost(spans, by_name.get("pointed.axiom_suite", ())):
            _, start, end, _ = spans[i]
            inside = [s for s in self.stamps if start <= s[0] <= end]
            for name, seconds, checked in attribute_checks(start, inside):
                slug = check_slug(name)
                if slug is None:
                    continue
                out["pointed.axiom_suite.%s_s" % slug] += seconds
                out["pointed.axiom_suite.%s.checked" % slug] += checked
        return out


def merge(parts):
    """Combine additive figures from several processes."""
    out = {}
    for part in parts:
        for key, value in part.items():
            if key == "parallel.workers":
                out[key] = max(out.get(key, 0), value)
            else:
                out[key] = out.get(key, 0) + value
    return out


def derive(figures):
    """Finish merged figures: ratios and per-invocation means."""
    out = dict(figures)
    calls = out.get("forms.is_isometry.calls", 0)
    out["forms.is_isometry.hit_ratio"] = out.pop("forms.is_isometry.hits", 0) / calls if calls else 0.0
    invocations = out.pop("cli.invocations", 0)
    out["cli.import_s"] = out.get("cli.import_s", 0.0) / invocations if invocations else 0.0
    return out


def main(argv):
    start = time.perf_counter()
    from f1kgw import cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    code = 1
    try:
        code = cli.main(argv)
    finally:
        sys.stdout.flush()
        figures = tracer.metrics()
        figures["cli.import_s"] = import_s
        figures["cli.invocations"] = 1
        sys.stderr.write(MARK + json.dumps(figures) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
