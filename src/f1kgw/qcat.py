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
Morphism data tells the morphisms of a hom set apart, and
``FiniteCategory.find`` maps it back to the id:

* span category: the canonical QSpan;
* hermitian span category: the underlying QSpan;
* conflation category: the map tuple of the middle inflation;
* isomorphism and hyperbolic groupoids: the map, as an F1Morphism;
* group-completion category: (v, alpha, beta) in canonical form.
"""

import math

from .fincat import (
    Functor,
    build_category,
    check_functor,
    comma_category,
    compose_by_data,
    full_subcategory,
    one_object_groupoid,
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
    morphisms = [(u, v, s) for u in objects for v in objects for s in q_span_morphisms(u, v)]
    comp_rule = compose_by_data(morphisms, lambda g, f: q_compose(g[2], f[2]))
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
    morphisms = [
        (M, N, s) for M in objects for N in objects for s in reductive_spans(M, N)
    ]

    def compose_data(g, f):
        s = q_compose(g[2], f[2])
        if not is_reductive_span(f[0], g[1], s):
            raise AssertionError(
                "span composition left the hermitian category: %s" % s
            )
        return s

    return build_category(objects, morphisms, compose_by_data(morphisms, compose_data))


def qh_forgetful(qh, q):
    """The functor to the span category: a form goes to its size."""
    obj_map = {M: M.size for M in qh.objects}
    mor_map = {}
    for m in range(qh.n_morphisms):
        span = qh.data(m)
        mor_map[m] = q.find(span.src, span.dst, span)
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
    inflation b: B' >-> B, with the parts forced by b that give its
    quotient span: the hit quotient subset c1 of C and the quotient
    comparison q: C1 ->> C'.
    """

    __slots__ = ("src", "dst", "b", "c1", "q")

    def __init__(self, src, dst, b, c1, q):
        for name, value in (("src", src), ("dst", dst), ("b", b), ("c1", c1), ("q", q)):
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
    corestriction pi1: B' ->> C1 a deflation, the pulled-back sub
    k: A >-> B' an inflation forming a conflation row with it, the sub
    comparison a: A >-> A' an inflation through which k factors, and
    the forced quotient comparison q a deflation with q∘pi1 = pi'.
    """
    if b.src != src.total or b.dst != dst.total:
        return None
    if not is_inflation(b):
        return None
    pi_b = compose(dst.p, b)
    c1 = tuple(sorted(set(pi_b.map[1:]) - {0}))
    pos = {c: k + 1 for k, c in enumerate(c1)}
    pi1 = F1Morphism(
        src.total, len(c1), tuple(0 if m == 0 else pos[m] for m in pi_b.map)
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
    for x in range(1, src.total + 1):
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
        q = F1Morphism(len(c1), src.quotient, tuple(qmap))
    except ValueError:
        return None
    if not is_deflation(q):
        return None
    return ConflationMorphism(src, dst, b, c1, q)


def conflation_category(max_size):
    """The category of conflations with total object of size <=
    max_size; morphism data is the map tuple of the middle inflation."""
    objects = list(all_conflations(max_size))
    morphisms = []
    for src in objects:
        for dst in objects:
            for bmap in kernel.inflation_maps(src.total, dst.total):
                b = F1Morphism(src.total, dst.total, bmap)
                if conflation_morphism(src, dst, b) is not None:
                    morphisms.append((src, dst, bmap))
    comp_rule = compose_by_data(morphisms, lambda g, f: kernel.compose(g[2], f[2]))
    return build_category(objects, morphisms, comp_rule)


def middle_inflation(E, m):
    """The middle inflation of morphism m of the conflation category."""
    return F1Morphism(E.mor_src[m].total, E.mor_dst[m].total, E.data(m))


def quotient_fibration(E, q):
    """The functor from conflations to spans taking quotients."""
    obj_map = {X: X.quotient for X in E.objects}
    mor_map = {}
    for m in range(E.n_morphisms):
        src, dst = E.mor_src[m], E.mor_dst[m]
        span = conflation_morphism(src, dst, middle_inflation(E, m)).quotient_span()
        mor_map[m] = q.find(src.quotient, dst.quotient, span)
    return Functor(E, q, obj_map, mor_map)


def iso_groupoid(max_size):
    """The groupoid of sizes 0..max_size and isomorphisms; data is the
    isomorphism."""
    objects = list(range(max_size + 1))
    morphisms = [(n, n, phi) for n in objects for phi in isos(n)]
    comp_rule = compose_by_data(morphisms, lambda g, f: compose(g[2], f[2]))
    return build_category(objects, morphisms, comp_rule)


def canonical_extension(c, a):
    """The standard conflation A >-> C⊕A ->> C with A in the second
    block."""
    return Conflation(inc_right(c, a), proj_left(c, a))


def fiber_embedding(S, fiber, c):
    """The functor from the isomorphism groupoid into the fiber over
    size c: A goes to the standard extension, phi to id_C ⊕ phi."""
    obj_map = {a: canonical_extension(c, a) for a in S.objects}
    mor_map = {}
    for m in range(S.n_morphisms):
        phi = S.data(m)
        X = obj_map[phi.src]
        mor_map[m] = fiber.find(X, X, direct_sum(F1Morphism.identity(c), phi).map)
    return Functor(S, fiber, obj_map, mor_map)


def scalar_action_object(c, X):
    """C·X: the conflation C⊕A >-> C⊕B ->> C' (quotient unchanged)."""
    return Conflation(
        direct_sum(F1Morphism.identity(c), X.i),
        compose(X.p, proj_right(c, X.total)),
    )


def scalar_action(E, c, m):
    """C·f: the scalar action on a morphism, id_C ⊕ b on the totals."""
    return E.find(
        scalar_action_object(c, E.mor_src[m]),
        scalar_action_object(c, E.mor_dst[m]),
        direct_sum(F1Morphism.identity(c), middle_inflation(E, m)).map,
    )


def _zero_quotient(n):
    """The conflation N >-> N ->> 0."""
    return Conflation(F1Morphism.identity(n), F1Morphism.zero(n, 0))


def restriction_to_zero(E, m):
    """z*: the fiber morphism restricted to the subs: (A,B,C) becomes
    (A,A,0) and b becomes the induced map on subs."""
    src, dst = E.mor_src[m], E.mor_dst[m]
    b0 = compose(dualize(dst.i), compose(middle_inflation(E, m), src.i))
    return E.find(_zero_quotient(src.sub), _zero_quotient(dst.sub), b0.map)


def total_to_zero(E, m):
    """p*: the fiber morphism pushed to the totals: (A,B,C) becomes
    (B,B,0) and b is reused."""
    return E.find(
        _zero_quotient(E.mor_src[m].total), _zero_quotient(E.mor_dst[m].total), E.data(m)
    )


def zero_to_fiber(E, c, m):
    """The extension functor from the fiber over 0: (A,B,0) becomes
    A >-> C⊕B ->> C and b becomes id_C ⊕ b."""

    def extend(X):
        return Conflation(compose(inc_right(c, X.total), X.i), proj_left(c, X.total))

    b = direct_sum(F1Morphism.identity(c), middle_inflation(E, m))
    return E.find(extend(E.mor_src[m]), extend(E.mor_dst[m]), b.map)


def conflation_suite(max_size, fiber_sizes=None):
    """Certify the conflation category's fibration structure.

    Within the truncation: the object census, the quotient functor,
    the fiber embeddings (as equivalences), both base changes to and
    from the zero fiber, the scalar action, and the two natural
    isomorphisms comparing the action with extension/restriction
    round trips.  The fiber sizes default to those of 0, 1, 2 within
    max_size.  Every check stops at its first failing case and reports
    it as the witness.
    """
    if fiber_sizes is None:
        fiber_sizes = tuple(c for c in (0, 1, 2) if c <= max_size)
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
    quotient = quotient_fibration(E, q)
    rep = check_functor(quotient, "functoriality")
    checks.append(
        CheckResult(
            "quotient functor to the span category",
            rep.ok,
            E.n_morphisms,
            rep.failures[0] if rep.failures else "",
        )
    )
    fiber_mids = {}
    for c in fiber_sizes:
        over_identity = q.find(c, c, QSpan.identity(c))
        fiber_mids[c] = [m for m in range(E.n_morphisms) if quotient(m) == over_identity]
        fiber = subcategory(E, [X for X in E.objects if X.quotient == c], fiber_mids[c])
        S = iso_groupoid(max_size - c)
        rep = check_functor(fiber_embedding(S, fiber, c), "equivalence")
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
            if c + E.mor_src[m].total <= max_size
            and c + E.mor_dst[m].total <= max_size
        ]

    zero_fiber_mids = [
        m
        for m in range(E.n_morphisms)
        if E.mor_src[m].quotient == 0 and E.mor_dst[m].quotient == 0
    ]

    for c in fiber_sizes:
        for name, mapper in (
            ("restriction to the zero fiber (quotient size %d)" % c,
             lambda m: restriction_to_zero(E, m)),
            ("total-object functor to the zero fiber (quotient size %d)" % c,
             lambda m: total_to_zero(E, m)),
        ):
            checks.append(run(name, _functorial(E, fiber_mids[c], mapper)))

        budget_mids = within(zero_fiber_mids, c)
        checks.append(
            run(
                "extension from the zero fiber (quotient size %d)" % c,
                _functorial(E, budget_mids, lambda m: zero_to_fiber(E, c, m)),
            )
        )
        checks.append(
            run(
                "scalar action by size %d is functorial" % c,
                _functorial(
                    E, within(range(E.n_morphisms), c), lambda m: scalar_action(E, c, m)
                ),
            )
        )
        fitting = [X for X in E.objects if c + X.total <= max_size]
        checks.append(
            run(
                "action = extension after restriction on the fiber (size %d)" % c,
                _natural_iso(
                    E,
                    c,
                    [X for X in fitting if X.quotient == c],
                    _sorted_comparison,
                    within(fiber_mids[c], c),
                    lambda m: zero_to_fiber(E, c, total_to_zero(E, m)),
                ),
            )
        )
        checks.append(
            run(
                "action = restriction after extension over the zero fiber (size %d)" % c,
                _natural_iso(
                    E,
                    c,
                    [X for X in fitting if X.quotient == 0],
                    _identity_comparison,
                    budget_mids,
                    lambda m: total_to_zero(E, zero_to_fiber(E, c, m)),
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
        image = mapper(m)
        if image is None:
            yield "image of morphism %d is not a valid morphism" % m
            continue
        images[m] = image
        if m in idents and image not in idents:
            yield "identity %d not sent to an identity" % m
        else:
            yield ""
    by_src = {}
    for m in mids:
        by_src.setdefault(E.mor_src[m], []).append(m)
    for f in mids:
        for g in by_src.get(E.mor_dst[f], ()):
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
    bsize = X.total
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
    total = c + X.total
    return _zero_quotient(total), tuple(range(total + 1))


def _natural_iso(E, c, objects, comparison, mids, round_trip):
    """Witnesses that the scalar action by size c is not naturally
    isomorphic to round_trip on the given objects and the morphisms
    mids between them.  comparison(c, X) gives the target and the
    totals map of the component at X.  One case per object, then one
    per morphism."""
    eta = {}
    for X in objects:
        mid = E.find(scalar_action_object(c, X), *comparison(c, X))
        if mid is None:
            yield "comparison at %s is not a morphism" % (X,)
        elif not E.is_iso(mid):
            yield "comparison at %s is not invertible" % (X,)
        else:
            eta[X] = mid
            yield ""
    for m in mids:
        lhs = E.comp[(eta[E.mor_dst[m]], scalar_action(E, c, m))]
        rhs = E.comp[(round_trip(m), eta[E.mor_src[m]])]
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
    morphisms = [(M, N, phi) for M in objects for N in objects for phi in isometries(M, N)]
    comp_rule = compose_by_data(morphisms, lambda g, f: compose(g[2], f[2]))
    return build_category(objects, morphisms, comp_rule)


def graph_of_isometries(SH, QH):
    """The functor sending an isometry phi: M -> N to the span whose
    middle is all of N and whose deflation is phi inverted."""
    obj_map = {M: M for M in SH.objects}
    mor_map = {}
    for m in range(SH.n_morphisms):
        phi = SH.data(m)
        M, N = SH.mor_src[m], SH.mor_dst[m]
        span = QSpan.from_morphisms(dualize(phi), F1Morphism.identity(N.size))
        mor_map[m] = QH.find(M, N, span)
    return Functor(SH, QH, obj_map, mor_map)


def standard_stabilization(base, V):
    """The span base -> base ⊕ H(V) projecting away the V block."""
    m, v = base.size, V
    sub = tuple(range(1, m + v + 1))
    pmap = (0,) + tuple(range(1, m + 1)) + (0,) * v
    return QSpan(m, m + 2 * v, sub, pmap)


def comma_tau_suite(max_size):
    """Certify the stabilization equivalences under a base form.

    For each base M (the zero form and the rank-one hyperbolic form, as
    far as they fit in max_size), the comma category of hermitian spans
    out of M into fixed-point-free forms is equivalent to the
    isomorphism groupoid, via V -> (M ⊕ H(V), projection span).
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
    bases = [M for M in (identity_form(0), hyperbolic(1)) if M.size <= max_size]
    for M in bases:
        comma = comma_category(tau, M)
        vmax = (max_size - M.size) // 2
        S = iso_groupoid(vmax)
        obj_map = {}
        for v in S.objects:
            N = direct_sum_form(M, hyperbolic(v))
            span = standard_stabilization(M, v)
            obj_map[v] = (N, QH.find(M, N, span))
        mor_map = {}
        ok = True
        witness = ""
        for m in range(S.n_morphisms):
            phi = S.data(m)
            v = phi.src
            N = obj_map[v][0]
            g = direct_sum(M.morphism.identity(M.size), hyperbolic_on_morphism(phi))
            g_mid = SH.find(N, N, g)
            if g_mid is None:
                ok, witness = False, "image of %s is not an isometry" % (phi,)
                break
            cm = comma.find(obj_map[v], obj_map[v], g_mid)
            if cm is None:
                ok, witness = False, (
                    "image of %s is not a comma morphism fixing the stabilized span" % (phi,)
                )
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
    BG = one_object_groupoid(auts, compose, F1Morphism.identity(1), label=S_form)
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
        tm = target.find(src, dst, new_span)
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

    def hom_counts():
        for (s1, M) in dom.objects:
            for (s2, N) in dom.objects:
                want = len(auts) * len(QHd.hom(M, N))
                got = len(target.hom(obj_map[(s1, M)], obj_map[(s2, N)]))
                yield "" if want == got else "hom count %s -> %s: %d vs %d" % (M, N, want, got)

    checks.append(
        CheckResult.first_failure(
            "hom sets multiply: |aut| x |spans| matches the component", hom_counts()
        )
    )
    return SuiteReport(
        "split-summand stabilization suite",
        target_size,
        checks,
        notes=["domain truncated at size %d" % domain_size],
    )


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
    morphisms = [
        (src, dst, data)
        for src in objects
        for dst in objects
        for data in completion_morphisms(*src, *dst)
    ]

    def compose_data(g, f):
        (a, b), _, (v, amap, bmap) = f
        v2, amap2, bmap2 = g[2]
        ja = tuple(range(v2 + 1)) + tuple(v2 + k for k in amap[1:])
        jb = tuple(range(v2 + 1)) + tuple(v2 + k for k in bmap[1:])
        na = kernel.compose(amap2, ja)
        nb = kernel.compose(bmap2, jb)
        return (v2 + v,) + _stab_canonical(v2 + v, a, b, na, nb)

    return build_category(objects, morphisms, compose_by_data(morphisms, compose_data))


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
