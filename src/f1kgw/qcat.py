"""Span categories over the pointed-set base.

Four constructions share this module:

* the span category: objects are sizes, a morphism u -> v is an
  isomorphism class of spans u <<-p- E >-j-> v (deflation out,
  inflation in), composed by pullback;
* its hermitian refinement: objects are symmetric forms, morphisms are
  spans that present the source as an isotropic reduction of the
  target;
* the category of conflations, fibered over the span category by the
  quotient, with its fiber embeddings, base changes, and scalar
  action;
* the group-completion category built from pairs of objects and
  stabilizing isomorphisms.

Every category is assembled through ``fincat.build_category``, so
associativity and unit laws are certified exhaustively at build time.
"""

import math

from .fincat import (
    Functor,
    build_category,
    check_functor,
    comma_category,
    full_subcategory,
    pi0,
    product_category,
    subcategory,
)
from ._backend import kernel
from .forms import (
    direct_sum_form,
    enumerate_forms,
    hyperbolic,
    hyperbolic_on_morphism,
    identity_form,
    isometries,
    isotropic_reduction,
    isotropic_subobjects,
)
from .pointed import (
    CheckResult,
    Conflation,
    F1Morphism,
    SuiteReport,
    TypeMismatch,
    all_conflations,
    complete_pullback,
    compose,
    direct_sum,
    dualize,
    inc_right,
    is_deflation,
    is_inflation,
    isos,
    proj_left,
    proj_right,
)


class QSpan:
    """Canonical representative of a span u <<- E >-> v.

    The inflation leg is recorded as its image ``sub`` (an ascending
    subset of {1..dst}); the middle object is relabelled {1..len(sub)}
    in image order, and ``pmap`` is the deflation to the source on that
    relabelling.  Two spans are isomorphic iff their canonical forms
    are equal.
    """

    __slots__ = ("src", "dst", "sub", "pmap")

    def __init__(self, src, dst, sub, pmap):
        sub = tuple(sub)
        pmap = tuple(pmap)
        if any(not 1 <= s <= dst for s in sub) or list(sub) != sorted(set(sub)):
            raise ValueError("sub must be an ascending subset of 1..dst")
        if len(pmap) != len(sub) + 1:
            raise ValueError("pmap must be defined on the relabelled middle")
        mid = F1Morphism(len(sub), src, pmap)
        if not is_deflation(mid):
            raise ValueError("the outgoing leg must be a deflation")
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        object.__setattr__(self, "sub", sub)
        object.__setattr__(self, "pmap", pmap)

    def __setattr__(self, *a):
        raise AttributeError("QSpan is immutable")

    def __eq__(self, other):
        return isinstance(other, QSpan) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def key(self):
        return (self.src, self.dst, self.sub, self.pmap)

    @classmethod
    def from_morphisms(cls, p, j):
        """Canonicalize the span given by p: E ->> src and j: E >-> dst."""
        if p.src != j.src:
            raise TypeMismatch("span legs must share the middle object")
        if not is_inflation(j):
            raise ValueError("the incoming leg must be an inflation")
        if not is_deflation(p):
            raise ValueError("the outgoing leg must be a deflation")
        order = sorted(range(1, j.src + 1), key=lambda e: j.map[e])
        sub = tuple(j.map[e] for e in order)
        pmap = (0,) + tuple(p.map[e] for e in order)
        return cls(p.dst, j.dst, sub, pmap)

    @classmethod
    def identity(cls, n):
        return cls(n, n, tuple(range(1, n + 1)), tuple(range(n + 1)))

    def to_morphisms(self):
        """The canonical pair (p: E ->> src, j: E >-> dst)."""
        e = len(self.sub)
        return (
            F1Morphism(e, self.src, self.pmap),
            F1Morphism(e, self.dst, (0,) + self.sub),
        )

    def kernel_points(self):
        """Points of dst lying in the image whose deflation value is 0."""
        return tuple(
            self.sub[k] for k in range(len(self.sub)) if self.pmap[k + 1] == 0
        )

    def __str__(self):
        return "span{%s <<- %s >-> %d}" % (
            self.src,
            "{%s}" % ",".join(str(s) for s in self.sub),
            self.dst,
        )

    def __repr__(self):
        return "QSpan(%d, %d, %r, %r)" % (self.src, self.dst, self.sub, self.pmap)

    def to_json(self):
        return {
            "src": self.src,
            "dst": self.dst,
            "sub": list(self.sub),
            "pmap": list(self.pmap),
        }

    @classmethod
    def from_json(cls, data):
        return cls(data["src"], data["dst"], tuple(data["sub"]), tuple(data["pmap"]))


def q_compose(g, f):
    """Composite of spans by pullback: f: u -> v, then g: v -> w."""
    if f.dst != g.src:
        raise TypeMismatch("spans are not composable")
    p_f, j_f = f.to_morphisms()
    p_g, j_g = g.to_morphisms()
    square = complete_pullback(j_f, p_g)
    return QSpan.from_morphisms(
        compose(p_f, square.left), compose(j_g, square.top)
    )


def q_span_morphisms(u, v):
    """All spans u -> v in canonical form, by image then deflation."""
    out = []
    for sub in _subsets(v):
        for pmap in kernel.deflation_maps(len(sub), u):
            out.append(QSpan(u, v, sub, pmap))
    return out


def _subsets(v):
    points = range(1, v + 1)
    subs = [()]
    for p in points:
        subs += [s + (p,) for s in subs]
    return sorted(subs, key=lambda s: (len(s), s))


def q_category(max_size):
    """The span category on sizes 0..max_size; morphism data is the
    QSpan."""
    objects = list(range(max_size + 1))
    morphisms = []
    index = {}
    for u in objects:
        for v in objects:
            for s in q_span_morphisms(u, v):
                index[s.key()] = len(morphisms)
                morphisms.append((u, v, s))

    def comp_rule(g, f):
        return index[q_compose(morphisms[g][2], morphisms[f][2]).key()]

    return build_category(objects, morphisms, comp_rule)


# ---------------------------------------------------------------------------
# hermitian refinement


def is_reductive_span(M, N, span):
    """Does the span present M as an isotropic reduction of N?

    Requires: the kernel points T of the deflation leg form an
    isotropic subset of N; the span image is exactly the complement of
    ψ(T) (coisotropy); and the surviving points carry an isometry onto
    M, i.e. the deflation intertwines ψ_N with ψ_M.
    """
    if span.src != M.size or span.dst != N.size:
        return False
    T = set(span.kernel_points())
    psi_T = {N.psi[t] for t in T}
    if T & psi_T:
        return False
    if set(span.sub) != set(range(1, N.size + 1)) - psi_T:
        return False
    value = {span.sub[k]: span.pmap[k + 1] for k in range(len(span.sub))}
    for e, m in value.items():
        if m == 0:
            continue
        pe = N.psi[e]
        if pe not in value or value[pe] != M.psi[m]:
            return False
    survivors = [m for m in value.values() if m != 0]
    return sorted(survivors) == list(range(1, M.size + 1))


def reductive_spans(M, N):
    """All hermitian morphisms M -> N, built from the census of
    (isotropic subobject U of N, isometry of N//U onto M) pairs."""
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
            if not is_reductive_span(M, N, span):
                raise AssertionError(
                    "constructed span fails the reduction census: %s" % span
                )
            out.append(span)
    return out


def qh_category(max_size):
    """The hermitian span category on forms of size <= max_size.

    Objects are SymmetricForms; morphism data is the underlying QSpan.
    Composition is span composition, and every composite is checked
    against the reduction census before being admitted.
    """
    objects = []
    for n in range(max_size + 1):
        objects.extend(enumerate_forms(n))
    obj_index = {o: k for k, o in enumerate(objects)}
    morphisms = []
    index = {}
    for M in objects:
        for N in objects:
            for s in reductive_spans(M, N):
                index[(obj_index[M], obj_index[N], s.key())] = len(morphisms)
                morphisms.append((M, N, s))

    def comp_rule(g, f):
        Mf, Nf, sf = morphisms[f]
        Mg, Ng, sg = morphisms[g]
        s = q_compose(sg, sf)
        if not is_reductive_span(Mf, Ng, s):
            raise AssertionError(
                "span composition left the hermitian category: %s" % s
            )
        return index[(obj_index[Mf], obj_index[Ng], s.key())]

    return build_category(objects, morphisms, comp_rule)


def qh_forgetful(qh, q):
    """The functor to the span category: a form goes to its size."""
    obj_map = {M: M.size for M in qh.objects}
    q_index = {q.data(m).key(): m for m in range(q.n_morphisms)}
    mor_map = {m: q_index[qh.data(m).key()] for m in range(qh.n_morphisms)}
    return Functor(qh, q, obj_map, mor_map)


def qh_component_fixed_points(qh):
    """Component census: fixed-point count -> tuple of member forms.

    Raises if two forms in one component disagree on the count, so a
    successful call certifies that the count is a component invariant.
    """
    out = {}
    for component in pi0(qh):
        counts = {len(M.fixed_points()) for M in component}
        if len(counts) != 1:
            raise AssertionError(
                "component mixes fixed-point counts: %r" % (component,)
            )
        f = counts.pop()
        if f in out:
            raise AssertionError("two components share fixed-point count %d" % f)
        out[f] = component
    return out


def qh_census_counts(max_size):
    """Brute-force recount: for each pair of forms, the number of valid
    spans found by filtering every span between the sizes.  Returns a
    dict (M, N) -> count for cross-checking reductive_spans."""
    objects = []
    for n in range(max_size + 1):
        objects.extend(enumerate_forms(n))
    counts = {}
    for M in objects:
        for N in objects:
            c = 0
            for s in q_span_morphisms(M.size, N.size):
                if is_reductive_span(M, N, s):
                    c += 1
            counts[(M, N)] = c
    return counts


# ---------------------------------------------------------------------------
# the category of conflations


class ConflationMorphism:
    """A morphism of conflations X' -> X, determined by the middle
    inflation b: B' >-> B.

    Derived parts, all forced by b: the hit quotient subset C1 of C
    with the corestriction pi1: B' ->> C1; the comparison k: A >-> B'
    (target sub pulled back through b, forming a conflation row with
    pi1); its factorization a: A >-> A' through the source sub; and
    the quotient comparison q: C1 ->> C' with q∘pi1 = pi'.
    """

    __slots__ = ("src", "dst", "b", "c1", "pi1", "k", "a", "q")

    def __init__(self, src, dst, b, c1, pi1, k, a, q):
        for name, value in (
            ("src", src), ("dst", dst), ("b", b), ("c1", c1),
            ("pi1", pi1), ("k", k), ("a", a), ("q", q),
        ):
            object.__setattr__(self, name, value)

    def __setattr__(self, *a):
        raise AttributeError("ConflationMorphism is immutable")

    def quotient_span(self):
        """The induced span quotient(src) -> quotient(dst)."""
        return QSpan(self.src.quotient, self.dst.quotient, self.c1, self.q.map)

    def __str__(self):
        return "conf-mor b=%s" % (self.b,)


def conflation_morphism(src, dst, b):
    """Build the morphism src -> dst with middle leg b, or None.

    Every condition is checked: b an inflation, the quotient
    corestriction a deflation, the pulled-back sub k an inflation
    forming a conflation row with it, the sub comparison a an
    inflation, and the forced quotient comparison q a deflation
    compatible with both projections.
    """
    if b.src != src.total or b.dst != dst.total:
        return None
    if not is_inflation(b):
        return None
    pi_b = compose(dst.p, b)
    c1 = tuple(sorted(set(pi_b.map[1:]) - {0}))
    pos = {c: k + 1 for k, c in enumerate(c1)}
    pi1 = F1Morphism(
        int(src.total), len(c1), tuple(0 if m == 0 else pos[m] for m in pi_b.map)
    )
    if not is_deflation(pi1):
        return None
    k = compose(dualize(b), dst.i)
    if not is_inflation(k):
        return None
    if set(pi1.kernel_elements) != set(k.image):
        return None
    a = compose(dualize(src.i), k)
    if not is_inflation(a):
        return None
    if compose(src.i, a).map != k.map:
        return None
    qmap = [0] * (len(c1) + 1)
    for x in range(1, int(src.total) + 1):
        c = pi1.map[x]
        want = src.p.map[x]
        if c == 0:
            if want != 0:
                return None
        elif qmap[c] == 0:
            qmap[c] = want
        elif qmap[c] != want:
            return None
    try:
        q = F1Morphism(len(c1), int(src.quotient), tuple(qmap))
    except ValueError:
        return None
    if not is_deflation(q):
        return None
    return ConflationMorphism(src, dst, b, c1, pi1, k, a, q)


def conflation_category(max_size):
    """The category of conflations with total object of size <=
    max_size; morphism data is the ConflationMorphism."""
    objects = list(all_conflations(max_size))
    obj_index = {o: k for k, o in enumerate(objects)}
    morphisms = []
    index = {}
    for src in objects:
        for dst in objects:
            for bmap in kernel.inflation_maps(int(src.total), int(dst.total)):
                b = F1Morphism(int(src.total), int(dst.total), bmap)
                mor = conflation_morphism(src, dst, b)
                if mor is None:
                    continue
                key = (obj_index[src], obj_index[dst], bmap)
                index[key] = len(morphisms)
                morphisms.append((src, dst, mor))

    def comp_rule(g, f):
        sf, df, mf = morphisms[f]
        sg, dg, mg = morphisms[g]
        bmap = kernel.compose(mg.b.map, mf.b.map)
        return index[(obj_index[sf], obj_index[dg], bmap)]

    return build_category(objects, morphisms, comp_rule)


def quotient_fibration(E, q):
    """The functor from conflations to spans taking quotients."""
    obj_map = {X: int(X.quotient) for X in E.objects}
    q_index = {q.data(m).key(): m for m in range(q.n_morphisms)}
    mor_map = {}
    for m in range(E.n_morphisms):
        mor_map[m] = q_index[E.data(m).quotient_span().key()]
    return Functor(E, q, obj_map, mor_map)


def conflation_fiber(E, c):
    """The fiber over the size-c quotient: objects with that quotient,
    morphisms whose induced span is the identity."""
    objs = [X for X in E.objects if int(X.quotient) == c]
    ident = QSpan.identity(c)
    mids = [
        m
        for m in range(E.n_morphisms)
        if int(E.data(m).src.quotient) == c
        and int(E.data(m).dst.quotient) == c
        and E.data(m).quotient_span() == ident
    ]
    return subcategory(E, objs, mids)


def iso_groupoid(max_size):
    """The groupoid of sizes 0..max_size and isomorphisms."""
    objects = list(range(max_size + 1))
    morphisms = []
    index = {}
    for n in objects:
        for phi in isos(n):
            index[phi.map] = len(morphisms)
            morphisms.append((n, n, phi))

    def comp_rule(g, f):
        return index[kernel.compose(morphisms[g][2].map, morphisms[f][2].map)]

    return build_category(objects, morphisms, comp_rule)


def _fiber_morphism_index(fiber):
    """(src, dst, bmap) -> morphism id for a conflation (sub)category."""
    out = {}
    for m in range(fiber.n_morphisms):
        d = fiber.data(m)
        out[(d.src, d.dst, d.b.map)] = m
    return out


def canonical_extension(c, a):
    """The standard conflation A >-> C⊕A ->> C with A in the second
    block."""
    return Conflation(inc_right(c, a), proj_left(c, a))


def fiber_embedding(S, fiber, c):
    """The functor from the isomorphism groupoid into the fiber over
    size c: A goes to the standard extension, phi to id_C ⊕ phi."""
    obj_map = {}
    for a in S.objects:
        obj_map[a] = canonical_extension(c, a)
    findex = _fiber_morphism_index(fiber)
    mor_map = {}
    for m in range(S.n_morphisms):
        phi = S.data(m)
        a = phi.src
        b = direct_sum(F1Morphism.identity(c), phi)
        mor_map[m] = findex[(obj_map[a], obj_map[a], b.map)]
    return Functor(S, fiber, obj_map, mor_map)


def scalar_action_object(c, X):
    """C·X: the conflation C⊕A >-> C⊕B ->> C' (quotient unchanged)."""
    return Conflation(
        direct_sum(F1Morphism.identity(c), X.i),
        compose(X.p, proj_right(c, int(X.total))),
    )


def scalar_action(E_index, c, mor):
    """C·f: the scalar action on a morphism, id_C ⊕ b on the totals."""
    return E_index[
        (
            scalar_action_object(c, mor.src),
            scalar_action_object(c, mor.dst),
            direct_sum(F1Morphism.identity(c), mor.b).map,
        )
    ]


def restriction_to_zero(E_index, mor):
    """z*: the fiber morphism restricted to the subs: (A,B,C) becomes
    (A,A,0) and b becomes the induced map on subs."""
    src0 = Conflation(
        F1Morphism.identity(int(mor.src.sub)), F1Morphism.zero(int(mor.src.sub), 0)
    )
    dst0 = Conflation(
        F1Morphism.identity(int(mor.dst.sub)), F1Morphism.zero(int(mor.dst.sub), 0)
    )
    b0 = compose(dualize(mor.dst.i), compose(mor.b, mor.src.i))
    return E_index[(src0, dst0, b0.map)]


def total_to_zero(E_index, mor):
    """p*: the fiber morphism pushed to the totals: (A,B,C) becomes
    (B,B,0) and b is reused."""
    src0 = Conflation(
        F1Morphism.identity(int(mor.src.total)), F1Morphism.zero(int(mor.src.total), 0)
    )
    dst0 = Conflation(
        F1Morphism.identity(int(mor.dst.total)), F1Morphism.zero(int(mor.dst.total), 0)
    )
    return E_index[(src0, dst0, mor.b.map)]


def zero_to_fiber(E_index, c, mor):
    """The extension functor from the fiber over 0: (A,B,0) becomes
    A >-> C⊕B ->> C and b becomes id_C ⊕ b."""
    src = Conflation(
        compose(inc_right(c, int(mor.src.total)), mor.src.i), proj_left(c, int(mor.src.total))
    )
    dst = Conflation(
        compose(inc_right(c, int(mor.dst.total)), mor.dst.i), proj_left(c, int(mor.dst.total))
    )
    b = direct_sum(F1Morphism.identity(c), mor.b)
    return E_index[(src, dst, b.map)]


def conflation_suite(max_size, fiber_sizes=(0, 1, 2)):
    """Certify the conflation category's fibration structure.

    Within the truncation: the object census, the quotient functor,
    the fiber embeddings (as equivalences), both base changes to and
    from the zero fiber, the scalar action, and the two natural
    isomorphisms comparing the action with extension/restriction
    round trips.  Every check stops at its first failing case and
    reports it as the witness.
    """
    checks = []
    E = conflation_category(max_size)
    expected = sum(
        (x + 1) * math.factorial(x) for x in range(max_size + 1)
    )
    checks.append(
        CheckResult(
            "object census matches (x+1)*x! per total size",
            len(E.objects) == expected,
            len(E.objects),
            "" if len(E.objects) == expected else "got %d want %d" % (len(E.objects), expected),
        )
    )
    q = q_category(max_size)
    rep = check_functor(quotient_fibration(E, q), "functoriality")
    checks.append(
        CheckResult(
            "quotient functor to the span category",
            rep.ok,
            E.n_morphisms,
            rep.failures[0] if rep.failures else "",
        )
    )
    E_index = {}
    for m in range(E.n_morphisms):
        d = E.data(m)
        E_index[(d.src, d.dst, d.b.map)] = m

    for c in fiber_sizes:
        fiber = conflation_fiber(E, c)
        S = iso_groupoid(max_size - c)
        emb = fiber_embedding(S, fiber, c)
        rep = check_functor(emb, "equivalence")
        checks.append(
            CheckResult(
                "fiber embedding at quotient size %d is an equivalence" % c,
                rep.ok,
                S.n_morphisms + fiber.n_morphisms,
                rep.failures[0] if rep.failures else "",
            )
        )

    run = CheckResult.first_failure

    def within(mids, c):
        """The ids among mids whose source and target fit c + total <= max_size."""
        return [
            m
            for m in mids
            if c + int(E.data(m).src.total) <= max_size
            and c + int(E.data(m).dst.total) <= max_size
        ]

    zero_fiber_mids = [
        m
        for m in range(E.n_morphisms)
        if int(E.data(m).src.quotient) == 0 and int(E.data(m).dst.quotient) == 0
    ]

    for c in fiber_sizes:
        fiber_mids = [
            m
            for m in range(E.n_morphisms)
            if int(E.data(m).src.quotient) == c
            and int(E.data(m).dst.quotient) == c
            and E.data(m).quotient_span() == QSpan.identity(c)
        ]
        for name, mapper in (
            ("restriction to the zero fiber (quotient size %d)" % c,
             lambda m: restriction_to_zero(E_index, E.data(m))),
            ("total-object functor to the zero fiber (quotient size %d)" % c,
             lambda m: total_to_zero(E_index, E.data(m))),
        ):
            checks.append(run(name, _functorial(E, fiber_mids, mapper)))

        budget_mids = within(zero_fiber_mids, c)
        checks.append(
            run(
                "extension from the zero fiber (quotient size %d)" % c,
                _functorial(
                    E, budget_mids, lambda m: zero_to_fiber(E_index, c, E.data(m))
                ),
            )
        )
        checks.append(
            run(
                "scalar action by size %d is functorial" % c,
                _functorial(
                    E,
                    within(range(E.n_morphisms), c),
                    lambda m: scalar_action(E_index, c, E.data(m)),
                ),
            )
        )
        fitting = [X for X in E.objects if c + int(X.total) <= max_size]
        checks.append(
            run(
                "action = extension after restriction on the fiber (size %d)" % c,
                _natural_iso(
                    E,
                    E_index,
                    c,
                    [X for X in fitting if int(X.quotient) == c],
                    _sorted_comparison,
                    within(fiber_mids, c),
                    lambda d: zero_to_fiber(E_index, c, E.data(total_to_zero(E_index, d))),
                ),
            )
        )
        checks.append(
            run(
                "action = restriction after extension over the zero fiber (size %d)" % c,
                _natural_iso(
                    E,
                    E_index,
                    c,
                    [X for X in fitting if int(X.quotient) == 0],
                    _identity_comparison,
                    budget_mids,
                    lambda d: total_to_zero(E_index, E.data(zero_to_fiber(E_index, c, d))),
                ),
            )
        )

    title = "conflation category fibration suite"
    return SuiteReport(title, max_size, checks, notes=[
        "fiber sizes exercised: %s" % (tuple(fiber_sizes),),
    ])


def _functorial(E, mids, mapper):
    """Witnesses that a morphism assignment fails to preserve identities
    or composition on the given ids: one case per morphism, then one
    per composable pair."""
    idents = set(E.identities.values())
    images = {}
    for m in mids:
        try:
            images[m] = mapper(m)
        except KeyError:
            yield "image of morphism %d is not a valid morphism" % m
            continue
        if m in idents and images[m] not in idents:
            yield "identity %d not sent to an identity" % m
        else:
            yield ""
    by_src = {}
    for m in mids:
        by_src.setdefault(E.data(m).src, []).append(m)
    for f in mids:
        for g in by_src.get(E.data(f).dst, ()):
            gf = E.comp[(g, f)]
            if gf not in images:
                yield "composite of %d, %d left the domain" % (g, f)
            elif E.comp[(images[g], images[f])] != images[gf]:
                yield "composition broken at (g=%d, f=%d)" % (g, f)
            else:
                yield ""


def _sorted_comparison(c, X):
    """Target and totals map of the comparison from C·X to the extension
    of X's total: C⊕B sorted by quotient value, then sub membership."""
    bsize = int(X.total)
    bmap = [0] * (c + bsize + 1)
    pi_fiber = {}
    for y in range(1, bsize + 1):
        cc = X.p.map[y]
        if cc != 0:
            bmap[c + y] = cc
            pi_fiber[cc] = y
        else:
            bmap[c + y] = c + y
    for cc in range(1, c + 1):
        bmap[cc] = c + pi_fiber[cc]
    return canonical_extension(c, bsize), tuple(bmap)


def _identity_comparison(c, X):
    """Target and totals map of the identity comparison from C·X to the
    zero-quotient conflation on C⊕B."""
    total = c + int(X.total)
    target = Conflation(F1Morphism.identity(total), F1Morphism.zero(total, 0))
    return target, tuple(range(total + 1))


def _natural_iso(E, E_index, c, objects, comparison, mids, round_trip):
    """Witnesses that the scalar action by size c is not naturally
    isomorphic to round_trip on the given objects and the morphisms
    mids between them.  comparison(c, X) gives the target and the
    totals map of the component at X.  One case per object, then one
    per morphism."""
    eta = {}
    for X in objects:
        mid = E_index.get((scalar_action_object(c, X),) + comparison(c, X))
        if mid is None:
            yield "comparison at %s is not a morphism" % (X,)
        elif not E.is_iso(mid):
            yield "comparison at %s is not invertible" % (X,)
        else:
            eta[X] = mid
            yield ""
    for m in mids:
        d = E.data(m)
        lhs = E.comp[(eta[d.dst], scalar_action(E_index, c, d))]
        rhs = E.comp[(round_trip(d), eta[d.src])]
        yield "" if lhs == rhs else "naturality fails at morphism %d" % m


# ---------------------------------------------------------------------------
# comma construction under the hyperbolic groupoid


def hyperbolic_groupoid(max_size):
    """The groupoid of fixed-point-free forms of size <= max_size with
    isometries as morphisms; data is the underlying map."""
    objects = [
        M
        for n in range(max_size + 1)
        for M in enumerate_forms(n)
        if not M.fixed_points()
    ]
    obj_index = {o: k for k, o in enumerate(objects)}
    morphisms = []
    index = {}
    for M in objects:
        for N in objects:
            for phi in isometries(M, N):
                index[(obj_index[M], obj_index[N], phi.map)] = len(morphisms)
                morphisms.append((M, N, phi))

    def comp_rule(g, f):
        Mf, Nf, pf = morphisms[f]
        Mg, Ng, pg = morphisms[g]
        return index[(obj_index[Mf], obj_index[Ng], kernel.compose(pg.map, pf.map))]

    return build_category(objects, morphisms, comp_rule)


def graph_of_isometries(SH, QH):
    """The functor sending an isometry phi: M -> N to the span whose
    middle is all of N and whose deflation is phi inverted."""
    qh_index = {
        (QH.mor_src[m], QH.mor_dst[m], QH.data(m).key()): m
        for m in range(QH.n_morphisms)
    }
    obj_map = {M: M for M in SH.objects}
    mor_map = {}
    for m in range(SH.n_morphisms):
        phi = SH.data(m)
        M, N = SH.mor_src[m], SH.mor_dst[m]
        span = QSpan.from_morphisms(dualize(phi), F1Morphism.identity(N.size))
        mor_map[m] = qh_index[(M, N, span.key())]
    return Functor(SH, QH, obj_map, mor_map)


def standard_stabilization(base, V):
    """The span base -> base ⊕ H(V) projecting away the V block."""
    m, v = base.size, V
    sub = tuple(range(1, m + v + 1))
    pmap = (0,) + tuple(range(1, m + 1)) + (0,) * v
    return QSpan(m, m + 2 * v, sub, pmap)


def comma_tau_suite(max_size, bases=None):
    """Certify the stabilization equivalences under a base form.

    For each base M (default: the zero form and the rank-one
    hyperbolic form, as far as they fit in max_size), the comma
    category of hermitian spans out of M into fixed-point-free forms is
    equivalent to the isomorphism groupoid, via
    V -> (M ⊕ H(V), projection span).
    """
    SH = hyperbolic_groupoid(max_size)
    QH = qh_category(max_size)
    tau = graph_of_isometries(SH, QH)
    checks = []
    rep = check_functor(tau, "functoriality")
    checks.append(
        CheckResult(
            "isometries embed into hermitian spans",
            rep.ok,
            SH.n_morphisms,
            rep.failures[0] if rep.failures else "",
        )
    )
    if bases is None:
        bases = [M for M in (identity_form(0), hyperbolic(1)) if M.size <= max_size]
    qh_index = {
        (QH.mor_src[m], QH.mor_dst[m], QH.data(m).key()): m
        for m in range(QH.n_morphisms)
    }
    sh_index = {
        (SH.mor_src[m], SH.mor_dst[m], SH.data(m).map): m
        for m in range(SH.n_morphisms)
    }
    for M in bases:
        comma = comma_category(tau, M)
        comma_index = {
            (comma.mor_src[m], comma.data(m)): m for m in range(comma.n_morphisms)
        }
        vmax = (max_size - M.size) // 2
        S = iso_groupoid(vmax)
        obj_map = {}
        for v in S.objects:
            N = direct_sum_form(M, hyperbolic(v))
            span = standard_stabilization(M, v)
            obj_map[v] = (N, qh_index[(M, N, span.key())])
        mor_map = {}
        ok = True
        witness = ""
        for m in range(S.n_morphisms):
            phi = S.data(m)
            v = phi.src
            N = obj_map[v][0]
            g = direct_sum(M.morphism.identity(M.size), hyperbolic_on_morphism(phi))
            g_mid = sh_index.get((N, N, g.map))
            if g_mid is None:
                ok, witness = False, "image of %s is not an isometry" % (phi,)
                break
            cm = comma_index.get((obj_map[v], g_mid))
            if cm is None:
                ok, witness = False, "image of %s leaves the comma category" % (phi,)
                break
            if comma.mor_dst[cm] != obj_map[v]:
                ok, witness = False, "stabilized span not preserved by %s" % (phi,)
                break
            mor_map[m] = cm
        if ok:
            F = Functor(S, comma, obj_map, mor_map)
            rep = check_functor(F, "equivalence")
            ok = rep.ok
            witness = rep.failures[0] if rep.failures else ""
        checks.append(
            CheckResult(
                "stabilization under %s is an equivalence" % M,
                ok,
                len(comma.objects) + comma.n_morphisms,
                witness,
            )
        )
    return SuiteReport(
        "stabilized comma category suite",
        max_size,
        checks,
        notes=["bases: %s" % ", ".join(str(M) for M in bases)],
    )


def stabilization_equivalence_suite(target_size=3, domain_size=2):
    """Certify that adding a rank-one split summand identifies the
    fixed-point-free block of the hermitian span category with the
    component of the rank-one split form.

    The domain is the product of the split form's automorphism
    groupoid with the fixed-point-free full subcategory at
    domain_size; the functor adds the split summand to objects and
    spans alike.  The image has size domain_size + 1, so target_size
    must be at least that.
    """
    if target_size < domain_size + 1:
        raise ValueError(
            "target_size %d is below domain_size + 1 = %d"
            % (target_size, domain_size + 1)
        )
    S_form = identity_form(1)
    auts = isometries(S_form, S_form)
    checks = []
    BG = build_category(
        [S_form],
        [(S_form, S_form, phi) for phi in auts],
        lambda g, f: _aut_index(auts, kernel.compose(auts[g].map, auts[f].map)),
    )
    QHd = qh_category(domain_size)
    dom_f0 = full_subcategory(
        QHd, [Mo for Mo in QHd.objects if not Mo.fixed_points()]
    )
    dom = product_category(BG, dom_f0)
    QHt = qh_category(target_size)
    component = None
    for comp in pi0(QHt):
        if S_form in comp:
            component = comp
    target = full_subcategory(QHt, component)
    t_index = {
        (target.mor_src[m], target.mor_dst[m], target.data(m).key()): m
        for m in range(target.n_morphisms)
    }
    obj_map = {}
    for (star, N) in dom.objects:
        obj_map[(star, N)] = direct_sum_form(S_form, N)
    mor_map = {}
    ok = True
    witness = ""
    for m in range(dom.n_morphisms):
        mc, md = dom.data(m)
        phi = BG.data(mc)
        span = dom_f0.data(md)
        p, j = span.to_morphisms()
        new_span = QSpan.from_morphisms(
            direct_sum(F1Morphism.identity(1), p), direct_sum(phi, j)
        )
        src = obj_map[dom.mor_src[m]]
        dst = obj_map[dom.mor_dst[m]]
        tm = t_index.get((src, dst, new_span.key()))
        if tm is None:
            ok, witness = False, "image span invalid at morphism %d" % m
            break
        mor_map[m] = tm
    if ok:
        F = Functor(dom, target, obj_map, mor_map)
        rep = check_functor(F, "equivalence")
        ok = rep.ok
        witness = rep.failures[0] if rep.failures else ""
    checks.append(
        CheckResult(
            "adding a split point is an equivalence onto its component",
            ok,
            dom.n_morphisms + target.n_morphisms,
            witness,
        )
    )
    counts_ok = True
    counts_checked = 0
    witness2 = ""
    for (s1, M) in dom.objects:
        for (s2, N) in dom.objects:
            want = len(auts) * len(QHd.hom(M, N))
            got = len(target.hom(obj_map[(s1, M)], obj_map[(s2, N)]))
            counts_checked += 1
            if want != got:
                counts_ok = False
                witness2 = "hom count %s -> %s: %d vs %d" % (M, N, want, got)
    checks.append(
        CheckResult(
            "hom sets multiply: |aut| x |spans| matches the component",
            counts_ok,
            counts_checked,
            witness2,
        )
    )
    return SuiteReport(
        "split-summand stabilization suite",
        target_size,
        checks,
        notes=["domain truncated at size %d" % domain_size],
    )


def _aut_index(auts, m):
    for k, phi in enumerate(auts):
        if phi.map == m:
            return k
    raise KeyError(m)


# ---------------------------------------------------------------------------
# group completion


def _stab_canonical(v, a, b, amap, bmap):
    """Lex-least representative of (alpha, beta) under the stabilizer
    relabelling gamma ⊕ id."""
    best = None
    for gmap in kernel.inflation_maps(v, v):
        ga = gmap + tuple(v + k for k in range(1, a + 1))
        gb = gmap + tuple(v + k for k in range(1, b + 1))
        cand = (kernel.compose(amap, ga), kernel.compose(bmap, gb))
        if best is None or cand < best:
            best = cand
    return best


def completion_morphisms(a, b, a2, b2):
    """Canonical classes of stabilizations (V, alpha, beta) from (a,b)
    to (a2,b2)."""
    v = a2 - a
    if v != b2 - b or v < 0:
        return []
    seen = set()
    out = []
    for amap in kernel.inflation_maps(a2, a2):
        for bmap in kernel.inflation_maps(b2, b2):
            canon = _stab_canonical(v, a, b, amap, bmap)
            if canon not in seen:
                seen.add(canon)
                out.append((v, canon[0], canon[1]))
    return out


def completion_category(window):
    """The group-completion category on pairs (a, b) of sizes <=
    window; morphism data is (v, alpha, beta) in canonical form.

    Build cost grows steeply with the window; the certified build is
    meant for windows <= 3, with the component census available
    separately for larger windows.
    """
    objects = [(a, b) for a in range(window + 1) for b in range(window + 1)]
    morphisms = []
    index = {}
    for (a, b) in objects:
        for (a2, b2) in objects:
            for data in completion_morphisms(a, b, a2, b2):
                index[((a, b), (a2, b2), data)] = len(morphisms)
                morphisms.append(((a, b), (a2, b2), data))

    def comp_rule(g, f):
        (a, b), (a2, b2), (v, amap, bmap) = morphisms[f]
        _, (a3, b3), (v2, amap2, bmap2) = morphisms[g]
        ja = tuple(range(v2 + 1)) + tuple(v2 + k for k in amap[1:])
        jb = tuple(range(v2 + 1)) + tuple(v2 + k for k in bmap[1:])
        na = kernel.compose(amap2, ja)
        nb = kernel.compose(bmap2, jb)
        canon = _stab_canonical(v2 + v, a, b, na, nb)
        return index[((a, b), (a3, b3), (v2 + v, canon[0], canon[1]))]

    return build_category(objects, morphisms, comp_rule)


def completion_summary(window):
    """Component and automorphism census without the certified build.

    Components of the completion category are indexed by the
    difference b - a; automorphism classes at (a, b) number a!·b!.
    """
    objects = [(a, b) for a in range(window + 1) for b in range(window + 1)]
    components = {}
    for (a, b) in objects:
        components.setdefault(b - a, []).append((a, b))
    auts = {
        (a, b): math.factorial(a) * math.factorial(b) for (a, b) in objects
    }
    return {
        "window": window,
        "components": {d: tuple(v) for d, v in sorted(components.items())},
        "automorphisms": auts,
    }
