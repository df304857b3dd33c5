"""Command-line interface.

Every command writes deterministic output: identical invocations give
identical bytes, regardless of --jobs.  Exit codes: 0 on success, 1
when a check fails (the witness is printed), 2 on usage errors.
"""

import argparse
import json
import sys

from . import __version__
from .fincat import category_to_dot, category_to_json
from .forms import (
    SymmetricForm,
    involution_count,
    iso_simple_decomposition,
    isometry_group,
)
from .invariants import gw0, hermitian_component_count, k0, k0_from_sums, w0
from .pointed import axiom_suite
from .qcat import (
    comma_tau_suite,
    completion_category,
    conflation_category,
    conflation_suite,
    q_category,
    qh_category,
    stabilization_equivalence_suite,
)


def _emit(args, text):
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, payload):
    _emit(args, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def cmd_axioms(args):
    report = axiom_suite(args.max_size, jobs=args.jobs)
    if args.output == "json":
        _emit_json(
            args,
            {
                "suite": report.title,
                "max_size": report.max_size,
                "checks": [
                    {
                        "name": c.name,
                        "passed": c.passed,
                        "checked": c.checked,
                        "witness": c.witness,
                    }
                    for c in report.checks
                ],
                "ok": report.ok,
            },
        )
    else:
        _emit(args, report.render() + "\n")
    return 0 if report.ok else 1


def cmd_forms(args):
    counts = [involution_count(n) for n in range(args.max_size + 1)]
    if args.output == "json":
        _emit_json(args, {"max_size": args.max_size, "counts": counts})
        return 0
    lines = []
    for n, c in enumerate(counts):
        lines.append("size %d: %d form%s" % (n, c, "" if c == 1 else "s"))
    lines.append("total: %d" % sum(counts))
    _emit(args, "\n".join(lines) + "\n")
    return 0


def _decomposition_name(t, f):
    if t == 0 and f == 0:
        return "0"
    if t == 0:
        return "id_%d" % f
    if f == 0:
        return "H(%d)" % t
    return "H(%d) ⊕ id_%d" % (t, f)


def cmd_decompose(args):
    try:
        form = SymmetricForm.from_literal(args.form)
    except ValueError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    t, f, phi = iso_simple_decomposition(form)
    if args.output == "json":
        _emit_json(
            args,
            {
                "form": str(form),
                "hyperbolic_rank": t,
                "fixed_rank": f,
                "decomposition": _decomposition_name(t, f),
                "isometry": str(phi),
                "automorphisms": len(isometry_group(form)),
            },
        )
        return 0
    _emit(
        args,
        "form: %s\ndecomposition: %s\nisometry: %s\nautomorphisms: %d\n"
        % (form, _decomposition_name(t, f), phi, len(isometry_group(form))),
    )
    return 0


def cmd_k0(args):
    census = k0(args.max_size)
    sums = k0_from_sums(args.max_size)
    agree = census.group == sums.group
    if args.output == "json":
        payload = census.to_json()
        payload["routes_agree"] = agree
        _emit_json(args, payload)
    else:
        lines = [census.render(), sums.render()]
        lines.append("routes agree: %s" % ("yes" if agree else "NO"))
        _emit(args, "\n".join(lines) + "\n")
    return 0 if agree else 1


# The text output of gw0 also counts the components of the hermitian
# span category.  The build behind that count grows steeply with the
# size, so the count stops at this size.
GW0_COMPONENT_CAP = 4


def cmd_gw0(args):
    result = gw0(args.max_size)
    if args.output == "json":
        _emit_json(args, result.to_json())
    else:
        size = min(args.max_size, GW0_COMPONENT_CAP)
        if size < args.max_size:
            sys.stderr.write(
                "note: hermitian span components are counted at size %d, "
                "not at --max-size %d\n" % (size, args.max_size)
            )
        lines = [result.render()]
        lines.append(
            "hermitian span components at size %d: %d"
            % (size, hermitian_component_count(size))
        )
        _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_witt(args):
    pres, classes, group = w0(args.max_size)
    if args.output == "json":
        _emit_json(
            args,
            {
                "invariant": "W0",
                "max_size": args.max_size,
                "monoid": {
                    "generators": [str(g) for g in pres.generators],
                    "relations": [
                        [list(a), list(b)] for a, b in pres.relations
                    ],
                },
                "classes": {
                    str(k): [list(p) for p in v] for k, v in sorted(classes.items())
                },
                "completion": group.to_json(),
            },
        )
        return 0
    lines = ["witt monoid at max size %d: %s" % (args.max_size, pres)]
    for f in sorted(classes):
        members = ", ".join("H(%d)+id_%d" % (t, ff) for t, ff in classes[f])
        lines.append("  anisotropic id_%d <- %s" % (f, members))
    lines.append("group completion: %s" % group)
    _emit(args, "\n".join(lines) + "\n")
    return 0


def _emit_category(args, cat, name):
    if args.output == "json":
        _emit(args, category_to_json(cat))
        return 0
    if args.output == "dot":
        _emit(args, category_to_dot(cat, name))
        return 0
    lines = ["%s: %d objects, %d morphisms" % (name, len(cat.objects), cat.n_morphisms)]
    for a in cat.objects:
        for b in cat.objects:
            n = len(cat.hom(a, b))
            if n:
                lines.append("  hom(%s, %s): %d" % (a, b, n))
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_qcat(args):
    return _emit_category(args, q_category(args.max_size), "span category")


def cmd_qhcat(args):
    return _emit_category(
        args, qh_category(args.max_size), "hermitian span category"
    )


def cmd_suites(args):
    if args.max_size < 1:
        sys.stderr.write(
            "error: suites needs --max-size >= 1, got %d: the split-summand "
            "suite adds a point to forms of size max_size - 1\n" % args.max_size
        )
        return 2
    reports = [axiom_suite(args.max_size, jobs=args.jobs), conflation_suite(args.max_size)]
    # one hermitian span category serves both suites that need it; built
    # here, it is not held while the conflation category is
    spans = qh_category(args.max_size)
    reports += [
        comma_tau_suite(args.max_size, spans),
        stabilization_equivalence_suite(args.max_size, spans),
    ]
    text = "\n\n".join(r.render() for r in reports)
    ok = all(r.ok for r in reports)
    if args.output == "json":
        _emit_json(
            args,
            {
                "max_size": args.max_size,
                "suites": [
                    {
                        "title": r.title,
                        "ok": r.ok,
                        "checks": [
                            {"name": c.name, "passed": c.passed, "checked": c.checked}
                            for c in r.checks
                        ],
                    }
                    for r in reports
                ],
                "ok": ok,
            },
        )
    else:
        _emit(args, text + "\n")
    return 0 if ok else 1


def cmd_export(args):
    builders = {
        "qcat": lambda: q_category(args.max_size),
        "qhcat": lambda: qh_category(args.max_size),
        "conflations": lambda: conflation_category(args.max_size),
        "completion": lambda: completion_category(args.max_size),
    }
    cat = builders[args.what]()
    return _emit_category(args, cat, args.what)


def _int_at_least(low):
    """argparse type of --max-size and --jobs: an integer >= low."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(
                "expected an integer >= %d, got %r" % (low, text)
            )
        return value

    return parse


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kgw",
        description="Exact and hermitian structure on finite pointed sets: "
        "axiom certification, form decomposition, span categories, and "
        "Grothendieck-group invariants.",
    )
    parser.add_argument("--version", action="version", version="kgw %s" % __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, max_size_default, with_jobs=False, outputs=("text", "json")):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        if max_size_default is not None:
            p.add_argument(
                "--max-size",
                type=_int_at_least(0),
                default=max_size_default,
                help="size bound (default %d)" % max_size_default,
            )
        if with_jobs:
            p.add_argument(
                "--jobs",
                type=_int_at_least(1),
                default=1,
                help="worker processes (default 1)",
            )
        p.add_argument(
            "--output",
            choices=outputs,
            default=outputs[0],
            help="output format (default %s)" % outputs[0],
        )
        p.add_argument("--out", help="write to this file instead of stdout")
        return p

    add("axioms", cmd_axioms, "certify the exact-structure axioms", 3, with_jobs=True)
    add("forms", cmd_forms, "count symmetric forms per size", 6)
    p = add("decompose", cmd_decompose, "decompose a symmetric form", None)
    p.add_argument("form", help='form literal, e.g. "inv:(1 2)(3)"')
    add("k0", cmd_k0, "Grothendieck group of the exact structure", 3)
    add(
        "gw0",
        cmd_gw0,
        "hermitian Grothendieck group; the text output also counts the "
        "hermitian span components, at size min(--max-size, %d)" % GW0_COMPONENT_CAP,
        6,
    )
    add("witt", cmd_witt, "Witt monoid of anisotropic classes", 6)
    add("qcat", cmd_qcat, "span category", 3, outputs=("text", "json", "dot"))
    add("qhcat", cmd_qhcat, "hermitian span category", 3, outputs=("text", "json", "dot"))
    add("suites", cmd_suites, "run every certification suite", 3, with_jobs=True)
    p = add(
        "export",
        cmd_export,
        "export a category",
        3,
        outputs=("json", "dot"),
    )
    p.add_argument(
        "--what",
        choices=("qcat", "qhcat", "conflations", "completion"),
        default="qcat",
        help="which category to export (default qcat)",
    )
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
    except BrokenPipeError:
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
