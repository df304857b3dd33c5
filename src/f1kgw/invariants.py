"""Grothendieck-group and Witt-theoretic invariants at desk scale.

Each invariant is computed from an explicit census — conflations for
the exact structure, isomorphism components for the additive monoid,
isotropic reductions for the hermitian theory — and reported as an
abelian group in Smith normal form.  Where two independent routes to
the same group exist, both are exposed so they can be compared.
"""

from .fincat import abelian_group, pi0
from .forms import (
    CommMonoidPresentation,
    are_isometric,
    direct_sum_form,
    hyperbolic,
    witt_monoid,
)
from .pointed import all_conflations
from .qcat import iso_groupoid, qh_category, qh_component_fixed_points


class InvariantResult:
    """An invariant's group at a window, with lines that say how it was
    computed."""

    __slots__ = ("invariant", "max_size", "group", "details")

    def __init__(self, invariant, max_size, group, details=()):
        self.invariant = invariant
        self.max_size = max_size
        self.group = group
        self.details = details

    def to_json(self):
        return {
            "invariant": self.invariant,
            "max_size": self.max_size,
            "group": self.group.to_json(),
        }

    def render(self):
        lines = ["%s at max size %d: %s" % (self.invariant, self.max_size, self.group)]
        lines += ["  %s" % d for d in self.details]
        return "\n".join(lines)


def k0(max_size):
    """The exact-structure Grothendieck group from the conflation
    census: one generator per size, one relation [total] = [sub] +
    [quotient] per conflation shape."""
    conflations = all_conflations(max_size)
    shapes = sorted({(c.sub, c.total, c.quotient) for c in conflations})
    words = [(x + 1, -(a + 1), -(v + 1)) for a, x, v in shapes]
    return InvariantResult(
        "K0",
        max_size,
        abelian_group(words, max_size + 1),
        details=(
            "%d conflation shapes among %d conflations" % (len(shapes), len(conflations)),
        ),
    )


def k0_from_sums(max_size):
    """The same group by the additive route: components of the
    isomorphism groupoid form a monoid under direct sum; its group
    completion is returned."""
    S = iso_groupoid(max_size)
    components = pi0(S)
    # each component is a tuple of sizes; label it by its representative
    reps = [comp[0] for comp in components]
    index = {r: k for k, r in enumerate(reps)}
    relations = []
    for a in reps:
        for b in reps:
            if a + b <= max_size:
                relations.append(((index[a + b],), (index[a], index[b])))
    pres = CommMonoidPresentation(tuple("[%d]" % r for r in reps), relations)
    group = pres.grothendieck_group()
    return InvariantResult(
        "K0",
        max_size,
        group,
        details=(
            "%d isomorphism classes, %d sum relations" % (len(reps), len(relations)),
        ),
    )


def gw0(max_size):
    """The hermitian Grothendieck group of hyperbolic classes: one
    generator per hyperbolic rank in the window, one relation per
    additivity instance, each verified by an actual isometry."""
    tmax = max_size // 2
    words = []
    for a in range(tmax + 1):
        for b in range(tmax + 1):
            if a + b > tmax:
                continue
            if not are_isometric(
                direct_sum_form(hyperbolic(a), hyperbolic(b)), hyperbolic(a + b)
            ):
                raise AssertionError(
                    "hyperbolic additivity fails at (%d, %d)" % (a, b)
                )
            words.append((a + b + 1, -(a + 1), -(b + 1)))
    return InvariantResult(
        "GW0",
        max_size,
        abelian_group(words, tmax + 1),
        details=(
            "hyperbolic ranks 0..%d, %d additivity instances verified"
            % (tmax, len(words)),
        ),
    )


def w0(max_size):
    """The Witt monoid over the window, with its realizable classes."""
    pres, classes = witt_monoid(max_size)
    group = pres.grothendieck_group()
    return pres, classes, group


def hermitian_component_count(max_size):
    """Components of the hermitian span category, certified to be
    labelled by the fixed-point count; returns the count."""
    comps = qh_component_fixed_points(qh_category(max_size))
    if sorted(comps) != list(range(max_size + 1)):
        raise AssertionError(
            "component labels are %s, expected 0..%d" % (sorted(comps), max_size)
        )
    return len(comps)
