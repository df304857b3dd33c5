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

Every category is built from its (src, dst, data) morphisms and the
rule composing their data, and certified at build time by
``fincat.build_category``: the unit laws on every morphism, and
associativity by Light's test over a generating set.  The fibers and
components taken by ``subcategory`` restrict a category so certified.
Morphism data tells the morphisms of a hom set apart, and
``FiniteCategory.find`` maps it back to the id:

* span category: the canonical QSpan;
* hermitian span category: the underlying QSpan;
* conflation category: the map tuple of the middle inflation;
* isomorphism and isometry groupoids: the map tuple, composed by
  ``kernel.compose``;
* group-completion category: (v, alpha, beta) in canonical form.

The functors between them (the forgetful functor, the quotient
fibration, the fiber embeddings, the base changes to and from the zero
fiber, the scalar action, the graph of isometries and the
stabilizations) are built by ``fincat.functor_by_data`` from an object
map and the data of each morphism's image, and certified by
``fincat.check_functor``, which returns its first witness.

Spans compose on their canonical map tuples (``sub`` and ``pmap``):
``q_compose`` walks the second span's middle once and keeps what
pulls back along the first, which is already the canonical composite.
``QSpan`` validates its data through the kernel, except for the
composites ``q_compose`` builds from spans already validated; it
takes and gives map tuples, not F1Morphisms.  The hermitian span
category enumerates the isotropic reductions of each target form once
per build, takes each isometry onto the source straight from
``forms.isometry_maps``, and checks each span once, by
``is_reductive_span``.  Nothing is cached
between calls.
"""

import math
from functools import partial

from .fincat import (
    build_category,
    check_functor,
    comma_category,
    full_subcategory,
    functor_by_data,
    pi0,
    product_category,
    subcategory,
)
from ._backend import kernel
from .forms import (
    direct_sum_form,
    enumerate_forms,
    hyperbolic,
    identity_form,
    isometries,
    isometry_maps,
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
    compose,
    inc_right,
    proj_left,
)


class QSpan:
    """Canonical representative of a span u <<- E >-> v.

    The inflation leg is recorded as its image ``sub`` (an ascending
    subset of {1..dst}); the middle object is relabelled {1..len(sub)}
    in image order, and ``pmap`` is the deflation to the source on that
    relabelling.  Two spans are isomorphic iff their canonical forms
    are equal.  The hash is computed once, at construction.
    """

    __slots__ = ("src", "dst", "sub", "pmap", "_hash")

    def __init__(self, src, dst, sub, pmap):
        sub = tuple(sub)
        pmap = tuple(pmap)
        if any(not 1 <= s <= dst for s in sub) or list(sub) != sorted(set(sub)):
            raise ValueError("sub must be an ascending subset of 1..dst")
        if len(pmap) != len(sub) + 1:
            raise ValueError("pmap must be defined on the relabelled middle")
        if not kernel.is_valid_map(pmap, src):
            raise ValueError("invalid map %r for %d -> %d" % (pmap, len(sub), src))
        if not kernel.is_surjective(pmap, src):
            raise ValueError("the outgoing leg must be a deflation")
        self._store(src, dst, sub, pmap)

    @classmethod
    def _trusted(cls, src, dst, sub, pmap):
        """A span of canonical tuples stored without ``__init__``'s
        checks.  Two callers build such tuples: ``q_compose``, whose
        pullback of valid spans is again a span, and
        ``_spans_through_reductions``, whose ``perp()`` is ascending by
        construction and whose deflation ``is_reductive_span`` decides
        to be a valid map onto M before the span is kept."""
        span = object.__new__(cls)
        span._store(src, dst, sub, pmap)
        return span

    def _store(self, src, dst, sub, pmap):
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        object.__setattr__(self, "sub", sub)
        object.__setattr__(self, "pmap", pmap)
        object.__setattr__(self, "_hash", hash((src, dst, sub, pmap)))

    def __setattr__(self, *a):
        raise AttributeError("QSpan is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, QSpan)
            and self._hash == other._hash
            and self.sub == other.sub
            and self.pmap == other.pmap
            and self.src == other.src
            and self.dst == other.dst
        )

    def __hash__(self):
        return self._hash

    @classmethod
    def identity(cls, n):
        return cls(n, n, tuple(range(1, n + 1)), tuple(range(n + 1)))

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


def _by_image(pmap, jmap):
    """The canonical (sub, pmap) of the span of the map tuples
    pmap: E ->> src and jmap: E >-> dst, its middle relabelled in the
    order of the image of jmap."""
    order = sorted(range(1, len(jmap)), key=jmap.__getitem__)
    return tuple(jmap[e] for e in order), (0,) + tuple(pmap[e] for e in order)


def q_compose(g, f):
    """Composite of spans by pullback: f: u -> v, then g: v -> w.

    The pullback of f's inflation leg against g's deflation leg keeps
    the points of g's middle whose deflation value is 0 or lies in
    f.sub, and the composite deflates each through f.pmap.  Walking g's
    sub in ascending order keeps the image ordered, so the composite is
    already canonical.  The legs of a pullback of spans are again an
    inflation and a deflation, so it is stored without re-validation."""
    if f.dst != g.src:
        raise TypeMismatch("spans are not composable")
    f_sub, f_pmap, g_pmap = f.sub, f.pmap, g.pmap
    sub, pmap = [], [0]
    for k, s in enumerate(g.sub, 1):
        x = g_pmap[k]
        if x == 0:
            sub.append(s)
            pmap.append(0)
        elif x in f_sub:
            sub.append(s)
            pmap.append(f_pmap[f_sub.index(x) + 1])
    return QSpan._trusted(f.src, g.dst, tuple(sub), tuple(pmap))


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
    return build_category(objects, morphisms, q_compose)


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


def _reductions(N):
    """(U, N//U) for every isotropic subobject U of N: the part of the
    hermitian morphisms into N that does not depend on their source."""
    return [(iso, isotropic_reduction(iso)) for iso in isotropic_subobjects(N)]


def _spans_through_reductions(M, N, reductions):
    """All hermitian morphisms M -> N, built from the census of
    (isotropic subobject U of N, isometry of N//U onto M) pairs: one span
    per reduction of N in ``_reductions(N)`` order and map h of the
    isometry search from it onto M.

    ``is_reductive_span`` is the one check of each span: it decides that
    the deflation, h after the relabelling, intertwines ψ_N with ψ_M and
    is onto M, so h is taken straight from ``isometry_maps`` and the span
    is stored through ``QSpan._trusted``."""
    out = []
    for iso, red in reductions:
        if red.size != M.size:
            continue
        T = set(iso.morphism.image)
        perp = iso.perp()
        carrier = [k for k in perp if k not in T]
        relabel = {k: j + 1 for j, k in enumerate(carrier)}
        for h in isometry_maps(red, M):
            pmap = [0]
            for k in perp:
                pmap.append(0 if k in T else h[relabel[k]])
            span = QSpan._trusted(M.size, N.size, perp, tuple(pmap))
            if not is_reductive_span(M, N, span):
                raise AssertionError(
                    "constructed span fails the reduction census: %s" % span
                )
            out.append(span)
    return out


def qh_category(max_size):
    """The hermitian span category on forms of size <= max_size.

    Objects are SymmetricForms; morphism data is the underlying QSpan.
    The reductions of each target form are enumerated once per build,
    and each hom set M -> N is ``_spans_through_reductions`` read through
    them.  Composition is span composition; a composite that is not
    among the reductive spans of its hom set, which
    ``is_reductive_span`` has checked, is refused by ``build_category``.
    """
    objects = []
    for n in range(max_size + 1):
        objects.extend(enumerate_forms(n))
    reductions = {N: _reductions(N) for N in objects}
    morphisms = [
        (M, N, s)
        for M in objects
        for N in objects
        for s in _spans_through_reductions(M, N, reductions[N])
    ]
    return build_category(objects, morphisms, q_compose)


def qh_forgetful(qh, q):
    """The functor to the span category: a form goes to its size."""
    return functor_by_data(qh, q, {M: M.size for M in qh.objects}, qh.data)


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


# ---------------------------------------------------------------------------
# the category of conflations


def _quotient_parts(src, dst, bmap):
    """The quotient span of the conflation morphism src -> dst with
    middle map bmap, as the hit subset c1 of the target quotient and
    the map tuple of the quotient comparison q: C1 ->> C onto the
    source quotient, or None when bmap gives no morphism.

    Write src = (A >-i-> B -p->> C), dst = (A' >-i'-> B' -p'->> C').
    An injective b: B -> B' gives a morphism exactly when
    i'(A') ⊆ b(i(A)), so that inclusion is the one condition checked:

    * k = adj(b)∘i': A' -> B is injective iff i'(A') ⊆ b(B);
    * a = adj(i)∘k: A' -> A is injective with i∘a = k iff
      image(k) = b⁻¹(i'(A')) ⊆ i(A);
    * the rest holds by construction.  p'∘b corestricted to its hit
      set C1 is a deflation pi1, as p' is one and b is injective, and
      ker pi1 = b⁻¹(i'(A')) = image(k).  Each c in C1 is hit by one x,
      so q(c) = p(x) is a well-defined deflation, and q∘pi1 = p since
      p vanishes on image(k) ⊆ i(A).  q is onto C, because x ∉ i(A)
      iff p(x) ≠ 0, and such an x lies outside image(k), so
      p'(b(x)) ≠ 0.

    So (c1, qmap) are read off p'∘b in one pass.
    """
    if not kernel.is_injective(bmap):
        return None
    if not set(dst.i.map[1:]) <= {bmap[a] for a in src.i.map[1:]}:
        return None
    hit = sorted((c, x) for c, x in zip(kernel.compose(dst.p.map, bmap), src.p.map) if c)
    return tuple(c for c, _ in hit), (0,) + tuple(x for _, x in hit)


def conflation_category(max_size):
    """The category of conflations with total object of size <=
    max_size; morphism data is the map tuple of the middle inflation.

    A candidate src -> dst is each inflation b: src.total >-> dst.total,
    kept when b maps the sub of src onto a superset of the sub of dst,
    i'(A') ⊆ b(i(A)): the criterion ``_quotient_parts`` proves.
    Candidates are read src, then dst, then b, which fixes the morphism
    ids.

    Composition is that of the middle maps, by ``kernel.compose``, and
    ``build_category`` certifies it like any other: the units, then
    Light's test over a generating set.
    """
    objects = list(all_conflations(max_size))
    subs = [set(X.i.map[1:]) for X in objects]
    morphisms = [
        (src, dst, bmap)
        for src in objects
        for dst, sub in zip(objects, subs)
        for bmap in kernel.inflation_maps(src.total, dst.total)
        if sub <= {bmap[a] for a in src.i.map[1:]}
    ]
    return build_category(objects, morphisms, kernel.compose)


def quotient_fibration(E, q):
    """The functor from conflations to spans taking quotients: b: X -> Y
    goes to the span C <<- C1 >-> C' that ``_quotient_parts`` reads off
    it.  A datum it refuses leaves its morphism unmapped, and
    ``QSpan`` and ``check_functor`` still validate each span.
    """

    def quotient_span(m):
        src, dst = E.mor_src[m], E.mor_dst[m]
        parts = _quotient_parts(src, dst, E.data(m))
        return None if parts is None else QSpan(src.quotient, dst.quotient, *parts)

    return functor_by_data(E, q, {X: X.quotient for X in E.objects}, quotient_span)


def iso_groupoid(max_size):
    """The groupoid of sizes 0..max_size and isomorphisms; data is the
    map tuple of the isomorphism."""
    objects = list(range(max_size + 1))
    morphisms = [(n, n, phi) for n in objects for phi in kernel.inflation_maps(n, n)]
    return build_category(objects, morphisms, kernel.compose)


def canonical_extension(c, a):
    """The standard conflation A >-> C⊕A ->> C with A in the second
    block."""
    return Conflation(inc_right(c, a), proj_left(c, a))


def fiber_embedding(S, fiber, c):
    """The functor from the isomorphism groupoid into the fiber over
    size c: A goes to the standard extension, phi to id_C ⊕ phi."""
    obj_map = {a: canonical_extension(c, a) for a in S.objects}
    return functor_by_data(S, fiber, obj_map, lambda m: _id_sum(c, S.data(m)))


def _id_sum(c, fmap):
    """The map tuple of id_C ⊕ f."""
    return kernel.block_sum(kernel.identity(c), fmap, c)


def scalar_action_object(c, X):
    """C·X: the conflation C⊕A >-> C⊕B ->> C' (quotient unchanged),
    with inflation id_C ⊕ i and deflation 0 ⊕ p = p∘proj_right.  A
    functor over X's category reads it once, into its object map."""
    return Conflation(
        F1Morphism(c + X.sub, c + X.total, _id_sum(c, X.i.map)),
        F1Morphism(
            c + X.total, X.quotient, kernel.block_sum(kernel.zero_map(c, 0), X.p.map, 0)
        ),
    )


def _zero_quotient(n):
    """The conflation N >-> N ->> 0."""
    return Conflation(F1Morphism.identity(n), F1Morphism.zero(n, 0))


def _extension(c, X):
    """A >-> C⊕B ->> C for the conflation X = (A >-> B ->> 0)."""
    return Conflation(compose(inc_right(c, X.total), X.i), proj_left(c, X.total))


def conflation_suite(max_size):
    """Certify the conflation category's fibration structure.

    Within the truncation: the object census, the quotient functor,
    the fiber embeddings (as equivalences), both base changes to and
    from the zero fiber, the scalar action, and the two natural
    isomorphisms comparing the action with extension/restriction
    round trips, at the fiber sizes 0, 1, 2 within max_size.  The
    groupoids of the fiber embeddings are full subcategories of one
    iso_groupoid(max_size), equal to the smaller builds.  Each base
    change and the scalar action is a ``functor_by_data`` over its
    domain, certified by ``check_functor``: restriction and total object
    on the fiber over c; extension on the zero fiber and the action on
    the whole category, both where c + total <= max_size.  Every check
    reports its first failing case as the witness.  The fibers are taken
    over the quotient functor, so when its check fails the report ends
    there, with a note that says so.
    """
    quotient_sizes = tuple(c for c in (0, 1, 2) if c <= max_size)
    title = "conflation category fibration suite"
    checks = []
    E = conflation_category(max_size)
    expected = sum(
        (x + 1) * math.factorial(x) for x in range(max_size + 1)
    )
    checks.append(
        CheckResult(
            "object census matches (x+1)*x! per total size",
            len(E.objects),
            "" if len(E.objects) == expected else "got %d want %d" % (len(E.objects), expected),
        )
    )
    q = q_category(max_size)
    quotient = quotient_fibration(E, q)
    w = check_functor(quotient, "functoriality")
    checks.append(CheckResult("quotient functor to the span category", E.n_morphisms, w))
    if w:
        note = "fiber checks skipped: the fibers are taken over the quotient functor, which failed"
        return SuiteReport(title, max_size, checks, notes=[note])
    zero_quotient = {n: _zero_quotient(n) for n in range(max_size + 1)}
    fibers = {}
    isos_upto = iso_groupoid(max_size)
    for c in quotient_sizes:
        over_identity = q.find(c, c, QSpan.identity(c))
        fibers[c] = fiber = subcategory(
            E,
            [X for X in E.objects if X.quotient == c],
            [m for m in range(E.n_morphisms) if quotient(m) == over_identity],
        )
        S = full_subcategory(isos_upto, range(max_size - c + 1))
        w = check_functor(fiber_embedding(S, fiber, c), "equivalence")
        checks.append(
            CheckResult(
                "fiber embedding at quotient size %d is an equivalence" % c,
                S.n_morphisms + fiber.n_morphisms,
                w,
            )
        )

    def id_sum_functor(S, c, obj):
        """The functor S -> E sending X to obj(X) and b to id_C ⊕ b."""
        return functor_by_data(
            S, E, {X: obj(X) for X in S.objects}, lambda m: _id_sum(c, S.data(m))
        )

    for c in quotient_sizes:
        fiber = fibers[c]

        def on_subs(m):
            """adj(i')∘b∘i: the fiber morphism m restricted to the subs."""
            X, Y = fiber.mor_src[m], fiber.mor_dst[m]
            return kernel.compose(
                kernel.adjoint(Y.i.map, Y.total), kernel.compose(fiber.data(m), X.i.map)
            )

        fitting = [X for X in E.objects if c + X.total <= max_size]
        zero = full_subcategory(E, [X for X in fitting if X.quotient == 0])
        on_fiber = full_subcategory(fiber, [X for X in fitting if X.quotient == c])
        # C·X once per object, for the action and both natural isos
        action = {X: scalar_action_object(c, X) for X in fitting}.__getitem__
        for name, F in (
            ("restriction to the zero fiber (quotient size %d)",
             functor_by_data(fiber, E, {X: zero_quotient[X.sub] for X in fiber.objects}, on_subs)),
            ("total-object functor to the zero fiber (quotient size %d)",
             functor_by_data(
                 fiber, E, {X: zero_quotient[X.total] for X in fiber.objects}, fiber.data
             )),
            ("extension from the zero fiber (quotient size %d)",
             id_sum_functor(zero, c, partial(_extension, c))),
            ("scalar action by size %d is functorial",
             id_sum_functor(full_subcategory(E, fitting), c, action)),
        ):
            w = check_functor(F, "functoriality")
            S = F.source
            checks.append(CheckResult(name % c, S.n_morphisms + len(S.comp), w))
        checks.append(
            CheckResult.first_failure(
                "action = extension after restriction on the fiber (size %d)" % c,
                _natural_iso(
                    id_sum_functor(on_fiber, c, action),
                    id_sum_functor(on_fiber, c, lambda X: _extension(c, zero_quotient[X.total])),
                    partial(_sorted_comparison, c),
                ),
            )
        )
        checks.append(
            CheckResult.first_failure(
                "action = restriction after extension over the zero fiber (size %d)" % c,
                _natural_iso(
                    id_sum_functor(zero, c, action),
                    id_sum_functor(zero, c, lambda X: zero_quotient[c + X.total]),
                    # the identity of C⊕B, from C·X onto C⊕B >-> C⊕B ->> 0
                    lambda X: (zero_quotient[c + X.total], tuple(range(c + X.total + 1))),
                ),
            )
        )

    notes = ["fiber sizes exercised: %s" % (quotient_sizes,)]
    notes += [
        "action = extension after restriction on the fiber (size %d) has no case:"
        " an object with quotient %d has total >= %d, so %d + total > %d"
        % (c, c, c, c, max_size)
        for c in quotient_sizes
        if 2 * c > max_size
    ]
    return SuiteReport(title, max_size, checks, notes=notes)


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


def _natural_iso(action, round_trip, comparison):
    """Witnesses that the functors action and round_trip, from one
    domain S into one category E, are not naturally isomorphic through
    the components comparison(X): the target and totals map of the
    morphism out of action(X).  One case per object of S, then one per
    morphism."""
    S, E = action.source, action.target
    eta = {}
    for X in S.objects:
        mid = E.find(action.obj_map[X], *comparison(X))
        if mid is None:
            yield "comparison at %s is not a morphism" % (X,)
        elif not E.is_iso(mid):
            yield "comparison at %s is not invertible" % (X,)
        else:
            eta[X] = mid
            yield ""
    comp = E.comp
    for m in range(S.n_morphisms):
        a, r = action.mor_map.get(m), round_trip.mor_map.get(m)
        if a is None or r is None:
            yield "morphism %d unmapped by the %s" % (m, "action" if a is None else "round trip")
            continue
        lhs = comp.get((eta[S.mor_dst[m]], a))
        rhs = comp.get((r, eta[S.mor_src[m]]))
        if lhs is None or rhs is None:
            yield "naturality square at morphism %d does not compose" % m
        else:
            yield "" if lhs == rhs else "naturality fails at morphism %d" % m


# ---------------------------------------------------------------------------
# comma construction under the hyperbolic groupoid


def isometry_groupoid(forms):
    """The groupoid of the given forms with isometries as morphisms;
    data is the map tuple of each isometry that ``isometries`` verifies."""
    morphisms = [(M, N, phi.map) for M in forms for N in forms for phi in isometries(M, N)]
    return build_category(forms, morphisms, kernel.compose)


def hyperbolic_groupoid(max_size):
    """The isometry groupoid of the fixed-point-free forms of size <=
    max_size."""
    return isometry_groupoid(
        [M for n in range(max_size + 1) for M in enumerate_forms(n) if not M.fixed_points()]
    )


def graph_of_isometries(SH, QH):
    """The functor sending an isometry phi: M -> N to the span whose
    middle is all of N and whose deflation is phi inverted."""

    def graph(m):
        n = SH.mor_dst[m].size
        return QSpan(n, n, range(1, n + 1), kernel.adjoint(SH.data(m), n))

    return functor_by_data(SH, QH, {M: M for M in SH.objects}, graph)


def standard_stabilization(base, V):
    """The span base -> base ⊕ H(V) projecting away the V block."""
    m, v = base.size, V
    sub = tuple(range(1, m + v + 1))
    pmap = (0,) + tuple(range(1, m + 1)) + (0,) * v
    return QSpan(m, m + 2 * v, sub, pmap)


def comma_tau_suite(max_size, hermitian_spans=None):
    """Certify the stabilization equivalences under a base form.

    For each base M (the zero form and the rank-one hyperbolic form, as
    far as they fit in max_size), the comma category of hermitian spans
    out of M into fixed-point-free forms is equivalent to the
    isomorphism groupoid, via V -> (M ⊕ H(V), projection span), a full
    subcategory of one iso_groupoid(max_size // 2).  hermitian_spans
    is qh_category(max_size) when the caller has built it already;
    otherwise the suite builds it.
    """
    SH = hyperbolic_groupoid(max_size)
    QH = qh_category(max_size) if hermitian_spans is None else hermitian_spans
    tau = graph_of_isometries(SH, QH)
    checks = []
    w = check_functor(tau, "functoriality")
    checks.append(CheckResult("isometries embed into hermitian spans", SH.n_morphisms, w))
    bases = [M for M in (identity_form(0), hyperbolic(1)) if M.size <= max_size]
    isos_upto = iso_groupoid(max_size // 2)
    for M in bases:
        comma = comma_category(tau, M)
        S = full_subcategory(isos_upto, range((max_size - M.size) // 2 + 1))
        obj_map = {}
        for v in S.objects:
            N = direct_sum_form(M, hyperbolic(v))
            span = standard_stabilization(M, v)
            obj_map[v] = (N, QH.find(M, N, span))

        def stabilized(m):
            """The id in SH of id_M ⊕ H(phi): the data of phi's image."""
            phi, v = S.data(m), S.mor_src[m]
            N = obj_map[v][0]
            return SH.find(N, N, _id_sum(M.size, kernel.block_sum(phi, phi, v)))

        w = check_functor(functor_by_data(S, comma, obj_map, stabilized), "equivalence")
        checks.append(
            CheckResult(
                "stabilization under %s is an equivalence" % M,
                len(comma.objects) + comma.n_morphisms,
                w,
            )
        )
    return SuiteReport(
        "stabilized comma category suite",
        max_size,
        checks,
        notes=["bases: %s" % ", ".join(str(M) for M in bases)],
    )


def stabilization_equivalence_suite(max_size, hermitian_spans=None):
    """Certify that adding a rank-one split summand identifies the
    fixed-point-free block of the hermitian span category with the
    component of the rank-one split form.

    The domain is the product of the split form's automorphism
    groupoid with the fixed-point-free full subcategory at size
    max_size - 1, taken from the target: the forms of size <=
    max_size - 1 are a prefix of its objects, so that full subcategory
    is qh_category(max_size - 1), ids included.  The functor adds the
    split summand to objects and spans alike, so max_size < 1 leaves no
    room for the point and raises ValueError.  hermitian_spans is
    qh_category(max_size) when the caller has built it already;
    otherwise the suite builds it.
    """
    if max_size < 1:
        raise ValueError("max_size %d leaves no room for the split point" % max_size)
    S_form = identity_form(1)
    checks = []
    BG = isometry_groupoid([S_form])
    QHt = qh_category(max_size) if hermitian_spans is None else hermitian_spans
    dom_f0 = full_subcategory(
        QHt, [Mo for Mo in QHt.objects if Mo.size < max_size and not Mo.fixed_points()]
    )
    dom = product_category(BG, dom_f0)
    component = None
    for comp in pi0(QHt):
        if S_form in comp:
            component = comp
    target = full_subcategory(QHt, component)
    obj_map = {}
    for (star, N) in dom.objects:
        obj_map[(star, N)] = direct_sum_form(S_form, N)

    def split_sum(m):
        """The image of the morphism (phi, span) of dom: the span with
        deflation id ⊕ p and inflation phi ⊕ j."""
        mc, md = dom.data(m)
        s = dom_f0.data(md)
        jmap = kernel.block_sum(BG.data(mc), (0,) + s.sub, 1)
        return QSpan(s.src + 1, s.dst + 1, *_by_image(_id_sum(1, s.pmap), jmap))

    w = check_functor(functor_by_data(dom, target, obj_map, split_sum), "equivalence")
    checks.append(
        CheckResult(
            "adding a split point is an equivalence onto its component",
            dom.n_morphisms + target.n_morphisms,
            w,
        )
    )

    def hom_counts():
        for (s1, M) in dom.objects:
            for (s2, N) in dom.objects:
                want = BG.n_morphisms * len(dom_f0.hom(M, N))
                got = len(target.hom(obj_map[(s1, M)], obj_map[(s2, N)]))
                yield "" if want == got else "hom count %s -> %s: %d vs %d" % (M, N, want, got)

    checks.append(
        CheckResult.first_failure(
            "hom sets multiply: |aut| x |spans| matches the component", hom_counts()
        )
    )
    return SuiteReport(
        "split-summand stabilization suite",
        max_size,
        checks,
        notes=["domain truncated at size %d" % (max_size - 1)],
    )


# ---------------------------------------------------------------------------
# group completion


def _stab_canonical(v, amap, bmap):
    """Lex-least representative of the bijections (alpha, beta) under
    the stabilizer relabelling gamma ⊕ id.

    gamma permutes the first v entries of both maps alike.  Those of
    alpha are distinct, so the least alpha has them ascending, and
    sorting them fixes gamma."""
    order = sorted(range(1, v + 1), key=amap.__getitem__)
    return (
        (0,) + tuple(amap[k] for k in order) + amap[v + 1:],
        (0,) + tuple(bmap[k] for k in order) + bmap[v + 1:],
    )


def completion_morphisms(a, b, a2, b2):
    """Canonical classes of stabilizations (V, alpha, beta) from (a,b)
    to (a2,b2), in lex order: each alpha whose first v entries ascend,
    paired with every beta."""
    v = a2 - a
    if v != b2 - b or v < 0:
        return []
    return [
        (v, amap, bmap)
        for amap in kernel.inflation_maps(a2, a2)
        if all(amap[k] < amap[k + 1] for k in range(1, v))
        for bmap in kernel.inflation_maps(b2, b2)
    ]


def completion_category(window):
    """The group-completion category on pairs (a, b) of sizes <=
    window; morphism data is (v, alpha, beta) in canonical form.

    Build cost grows steeply with the window: window 4 has 1,098,330
    composable pairs, and window 5 has 638 M, too many to tabulate.  The
    component census is available separately for larger windows.
    """
    objects = [(a, b) for a in range(window + 1) for b in range(window + 1)]
    morphisms = [
        (src, dst, data)
        for src in objects
        for dst in objects
        for data in completion_morphisms(*src, *dst)
    ]
    return build_category(objects, morphisms, completion_compose)


def completion_compose(g, f):
    """Composite of the stabilizations f = (v, alpha, beta), then
    g = (v2, alpha2, beta2): (v2 + v, alpha2 ∘ (id ⊕ alpha),
    beta2 ∘ (id ⊕ beta)) in canonical form."""
    (v, amap, bmap), (v2, amap2, bmap2) = f, g
    ja = tuple(range(v2 + 1)) + tuple(v2 + k for k in amap[1:])
    jb = tuple(range(v2 + 1)) + tuple(v2 + k for k in bmap[1:])
    na = kernel.compose(amap2, ja)
    nb = kernel.compose(bmap2, jb)
    return (v2 + v,) + _stab_canonical(v2 + v, na, nb)
