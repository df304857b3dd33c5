"""Finite pointed sets with partial injections, and their exact structure.

Objects are skeletal: the object of size n is {0, 1, .., n} with base
point 0.  A morphism n -> m is a base-point-preserving map that is
injective outside the fibre over 0; it is stored as a tuple of length
n+1 with slot 0 equal to 0.

Inflations are the everywhere-injective morphisms, deflations the ones
surjective onto the nonzero part of the codomain.  The distinguished
squares have the shape

        U >--t--> V
        l|        |r
        v         v
        W >--b--> X

with t, b inflations and l, r deflations; such a commuting square is
bicartesian when it is simultaneously a pullback and a pushout.  A
bicartesian square with W = 0 is a conflation, written U >--> X -->> V
(i into the total object X, p onto the quotient V).  Direct sum is the
wedge: blocks are concatenated, first summand first.

F1Morphism is the boundary type: it validates its map, and the public
functions here wrap the kernel's map-level operations.  The axiom suite
computes on map tuples.  It builds F1Morphisms to print a witness, to
validate the class maps that axioms iv and v complete (once each per
size triple), and in the direct-sum and block-square checks of the
public constructions.  The completions of axioms iv and v take their
new legs from the kernel functions that complete_pullback and
complete_pushout use.
"""

from itertools import permutations, product

from ._backend import kernel


class TypeMismatch(ValueError):
    """Composition or sum of morphisms with incompatible endpoints."""


class NotAConflation(ValueError):
    pass


class NotAnInflation(ValueError):
    pass


class NoFill(ValueError):
    pass


class F1Morphism:
    """A partial injection src -> dst; ``map[i]`` is the image of i."""

    __slots__ = ("src", "dst", "map")

    def __init__(self, src, dst, map):
        map = tuple(map)
        src = int(src)
        dst = int(dst)
        if len(map) != src + 1 or not kernel.is_valid_map(map, dst):
            raise ValueError("invalid map %r for %d -> %d" % (map, src, dst))
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        object.__setattr__(self, "map", map)

    def __setattr__(self, name, value):
        raise AttributeError("F1Morphism is immutable")

    def __call__(self, i):
        return self.map[i]

    def __eq__(self, other):
        return (
            isinstance(other, F1Morphism)
            and self.src == other.src
            and self.dst == other.dst
            and self.map == other.map
        )

    def __hash__(self):
        return hash((self.src, self.dst, self.map))

    def __str__(self):
        return "[%s]:%d->%d" % (
            ",".join(str(v) for v in self.map),
            self.src,
            self.dst,
        )

    def __repr__(self):
        return 'F1Morphism("%s")' % self

    @classmethod
    def identity(cls, n):
        return cls(n, n, kernel.identity(n))

    @classmethod
    def zero(cls, src, dst):
        return cls(src, dst, kernel.zero_map(src, dst))

    @classmethod
    def from_literal(cls, text):
        """Parse "[0,2,0]:2->2"."""
        try:
            body, arrow = text.split(":")
            srctxt, dsttxt = arrow.split("->")
            body = body.strip()
            if not (body.startswith("[") and body.endswith("]")):
                raise ValueError
            entries = body[1:-1].strip()
            values = [int(v) for v in entries.split(",")] if entries else []
            return cls(int(srctxt), int(dsttxt), values)
        except ValueError as exc:
            raise ValueError("bad morphism literal %r" % text) from exc

    @property
    def image(self):
        """Nonzero image as a sorted tuple."""
        return tuple(sorted(v for v in self.map[1:] if v != 0))

    @property
    def kernel_elements(self):
        """Nonzero elements mapped to 0, sorted."""
        return tuple(i for i in range(1, self.src + 1) if self.map[i] == 0)


def compose(g, f):
    """g∘f, pointwise evaluation."""
    if f.dst != g.src:
        raise TypeMismatch("cannot compose %s after %s" % (g, f))
    return F1Morphism(f.src, g.dst, kernel.compose(g.map, f.map))


def dualize(f):
    """The adjoint partial injection: f^ad(n) = m iff f(m) = n."""
    return F1Morphism(f.dst, f.src, kernel.adjoint(f.map, f.dst))


def is_inflation(f):
    return kernel.is_injective(f.map)


def is_deflation(f):
    return kernel.is_surjective(f.map, f.dst)


def is_iso(f):
    return f.src == f.dst and kernel.is_injective(f.map)


def classify(f):
    """One of "iso", "inflation", "deflation", "generic" (most specific)."""
    inj = kernel.is_injective(f.map)
    sur = kernel.is_surjective(f.map, f.dst)
    if inj and sur:
        return "iso"
    if inj:
        return "inflation"
    if sur:
        return "deflation"
    return "generic"


def direct_sum(a, b):
    """Wedge sum of objects or morphisms (first-summand block first)."""
    if isinstance(a, F1Morphism) and isinstance(b, F1Morphism):
        return F1Morphism(
            a.src + b.src, a.dst + b.dst, kernel.block_sum(a.map, b.map, a.dst)
        )
    if isinstance(a, F1Morphism) or isinstance(b, F1Morphism):
        raise TypeMismatch("cannot sum a morphism with an object")
    return a + b


def inc_left(u, v):
    """U >--> U⊕V onto the first block."""
    return F1Morphism(u, u + v, list(range(u + 1)))


def inc_right(u, v):
    """V >--> U⊕V onto the second block."""
    return F1Morphism(v, u + v, [0] + [u + j for j in range(1, v + 1)])


def proj_left(u, v):
    """U⊕V -->> U, killing the second block."""
    return F1Morphism(u + v, u, list(range(u + 1)) + [0] * v)


def proj_right(u, v):
    """U⊕V -->> V, killing the first block."""
    return F1Morphism(u + v, v, [0] * (u + 1) + list(range(1, v + 1)))


def inflations(src, dst):
    return tuple(F1Morphism(src, dst, m) for m in kernel.inflation_maps(src, dst))


def deflations(src, dst):
    return tuple(F1Morphism(src, dst, m) for m in kernel.deflation_maps(src, dst))


class Conflation:
    """U >--i--> X --p->> V with ker(p) = im(i) away from the base point."""

    __slots__ = ("i", "p", "_hash")

    def __init__(self, i, p):
        if i.dst != p.src:
            raise NotAConflation("i and p do not share the middle object")
        if not is_inflation(i):
            raise NotAConflation("i is not an inflation: %s" % i)
        if not is_deflation(p):
            raise NotAConflation("p is not a deflation: %s" % p)
        killed = set(p.kernel_elements)
        image = set(i.image)
        if killed != image:
            raise NotAConflation(
                "p kills %s but i hits %s" % (sorted(killed), sorted(image))
            )
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "p", p)
        # every category lookup keyed by a conflation hashes it
        object.__setattr__(self, "_hash", hash((i, p)))

    def __setattr__(self, name, value):
        raise AttributeError("Conflation is immutable")

    @property
    def sub(self):
        return self.i.src

    @property
    def total(self):
        return self.i.dst

    @property
    def quotient(self):
        return self.p.dst

    def __eq__(self, other):
        return (
            isinstance(other, Conflation) and self.i == other.i and self.p == other.p
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "Conflation(%r, %r)" % (self.i, self.p)

    def __str__(self):
        return "%s ; %s" % (self.i, self.p)

    @classmethod
    def canonical(cls, u, v):
        """U >--> U⊕V -->> V with the block inclusion and projection."""
        return cls(inc_left(u, v), proj_right(u, v))


class BicartesianSquare:
    """A commuting distinguished square; see the module docstring shape."""

    __slots__ = ("left", "top", "bottom", "right")

    def __init__(self, left, top, bottom, right, check_classes=True):
        if top.src != left.src or top.dst != right.src:
            raise TypeMismatch("square corners do not line up")
        if left.dst != bottom.src or bottom.dst != right.dst:
            raise TypeMismatch("square corners do not line up")
        if kernel.compose(bottom.map, left.map) != kernel.compose(right.map, top.map):
            raise ValueError("square does not commute")
        if check_classes:
            if not (is_inflation(top) and is_inflation(bottom)):
                raise ValueError("top/bottom must be inflations")
            if not (is_deflation(left) and is_deflation(right)):
                raise ValueError("left/right must be deflations")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "top", top)
        object.__setattr__(self, "bottom", bottom)
        object.__setattr__(self, "right", right)

    def __setattr__(self, name, value):
        raise AttributeError("BicartesianSquare is immutable")

    def __repr__(self):
        return "BicartesianSquare(left=%r, top=%r, bottom=%r, right=%r)" % (
            self.left,
            self.top,
            self.bottom,
            self.right,
        )

    @property
    def corners(self):
        """(U, V, W, X) sizes."""
        return (self.top.src, self.top.dst, self.left.dst, self.right.dst)

    def _maps(self):
        """(l, t, b, r, U, V, W, X): the leg maps, then the corner sizes."""
        return (self.left.map, self.top.map, self.bottom.map, self.right.map) + self.corners

    def is_pullback(self):
        """Comparison with the canonical elementwise pullback is bijective.

        Requires the top leg to be a genuine inflation (checked by the
        constructor unless check_classes is False, as complete_pullback
        and complete_pushout pass); the left leg may be arbitrary.
        """
        return kernel.is_pullback(*self._maps())

    def is_pushout(self):
        """Comparison from the canonical elementwise pushout is bijective.

        Sound when the left leg is a genuine deflation (checked likewise);
        the calibration check in the axiom suite compares this criterion
        against the universal property directly.
        """
        return kernel.is_pushout(*self._maps())

    def is_bicartesian(self):
        return self.is_pullback() and self.is_pushout()

    def verify(self):
        """The intrinsic bicartesian check, then the universal property
        against every test object of size <= UNIVERSAL_BOUND."""
        return self.is_bicartesian() and kernel.universal_square_ok(
            *self._maps(), UNIVERSAL_BOUND
        )


def complete_pullback(b, r):
    """Complete the cospan W >-b-> X <<-r- V to a bicartesian square.

    The new corner U is the elementwise pullback: one element per w in W
    (paired with the unique r-preimage of b(w)), then the kernel of r,
    both ascending.
    """
    if b.dst != r.dst:
        raise TypeMismatch("cospan legs must share the codomain")
    if not is_inflation(b):
        raise NotAnInflation(_refusal("cospan", b))
    lmap, tmap = kernel.pullback_legs(b.map, r.map, b.src, r.src)
    u_size = len(lmap) - 1
    return BicartesianSquare(
        left=F1Morphism(u_size, b.src, lmap),
        top=F1Morphism(u_size, r.src, tmap),
        bottom=b,
        right=r,
        check_classes=False,
    )


def complete_pushout(l, t):
    """Complete the span W <<-l- U >-t-> V to a bicartesian square.

    The new corner X is the elementwise pushout: W∖0 first, then the
    elements of V not hit by t, ascending; t(u) is glued to l(u).
    """
    if l.src != t.src:
        raise TypeMismatch("span legs must share the domain")
    if not is_inflation(t):
        raise NotAnInflation(_refusal("span", t))
    bmap, rmap, x_size = kernel.pushout_legs(l.map, t.map, l.dst, t.dst)
    return BicartesianSquare(
        left=l,
        top=t,
        bottom=F1Morphism(l.dst, x_size, bmap),
        right=F1Morphism(t.dst, x_size, rmap),
        check_classes=False,
    )


def _refusal(shape, leg):
    """Why a completion refuses a cospan or span whose inflation leg is
    not an inflation."""
    return "%s inflation leg is %s" % (shape, classify(leg))


def split_conflation(c):
    """The canonical splitting U⊕V ≅ X of U >--> X -->> V.

    φ sends the U block through i and the V block through the inverse
    image of p (each nonzero fibre of p is a single element).
    """
    u, v, x = c.sub, c.quotient, c.total
    pinv = kernel.adjoint(c.p.map, v)
    phi = list(c.i.map) + [pinv[j] for j in range(1, v + 1)]
    return F1Morphism(u + v, x, phi)


def conflation_splittings(c):
    """All isomorphisms φ: U⊕V -> X with φ∘inc = i and p∘φ = proj."""
    u, v = c.sub, c.quotient
    inc = inc_left(u, v).map
    proj = proj_right(u, v).map
    out = []
    for m in kernel.inflation_maps(u + v, c.total):
        if kernel.compose(m, inc) != c.i.map:
            continue
        if kernel.compose(c.p.map, m) != proj:
            continue
        out.append(F1Morphism(u + v, c.total, m))
    return tuple(out)


def conflation_sections(c):
    """All s: V -> X with p∘s = id."""
    v, x = c.quotient, c.total
    ident = kernel.identity(v)
    return tuple(
        F1Morphism(v, x, m)
        for m in kernel.hom_maps(v, x)
        if kernel.compose(c.p.map, m) == ident
    )


def conflation_retractions(c):
    """All q: X -> U with q∘i = id."""
    u, x = c.sub, c.total
    ident = kernel.identity(u)
    return tuple(
        F1Morphism(x, u, m)
        for m in kernel.hom_maps(x, u)
        if kernel.compose(m, c.i.map) == ident
    )


def section_of_splitting(c, phi):
    """φ restricted to the V block, a section of p."""
    return compose(phi, inc_right(c.sub, c.quotient))


def retraction_of_splitting(c, phi):
    """proj_U ∘ φ⁻¹, a retraction of i."""
    return compose(proj_left(c.sub, c.quotient), dualize(phi))


def fill_conflation_morphism(top, bottom, f, g):
    """The unique h with h∘i₁ = i₂∘f and p₂∘h = g∘p₁.

    Built through the canonical splittings as φ₂∘(f⊕g)∘φ₁⁻¹; the full
    hom set is filtered to certify uniqueness.
    """
    if f.src != top.sub or f.dst != bottom.sub:
        raise TypeMismatch("f does not connect the sub objects")
    if g.src != top.quotient or g.dst != bottom.quotient:
        raise TypeMismatch("g does not connect the quotient objects")
    phi1 = split_conflation(top)
    phi2 = split_conflation(bottom)
    h = compose(phi2, compose(direct_sum(f, g), dualize(phi1)))
    i1, p1 = top.i.map, top.p.map
    i2, p2 = bottom.i.map, bottom.p.map
    want_left = kernel.compose(i2, f.map)
    want_right = kernel.compose(g.map, p1)
    hits = [
        m
        for m in kernel.hom_maps(top.total, bottom.total)
        if kernel.compose(m, i1) == want_left
        and kernel.compose(p2, m) == want_right
    ]
    if not hits:
        raise NoFill("no morphism fills the conflation morphism")
    if hits != [h.map]:
        raise NoFill("fill is not unique: %d candidates" % len(hits))
    return h


def decompose_inflation(i, blocks):
    """Split U >--> X₁⊕X₂ as (i₁⊕i₂)∘f along the target blocks.

    Returns (f, i1, i2) where f: U ≅ U₁⊕U₂ reorders the domain by
    target block (ascending within each block) and i = (i1⊕i2)∘f.
    """
    n1, n2 = blocks
    if i.dst != n1 + n2:
        raise TypeMismatch("blocks do not sum to the codomain")
    if not is_inflation(i):
        raise NotAnInflation(str(i))
    first = [u for u in range(1, i.src + 1) if i.map[u] <= n1]
    second = [u for u in range(1, i.src + 1) if i.map[u] > n1]
    fmap = [0] * (i.src + 1)
    for k, u in enumerate(first):
        fmap[u] = k + 1
    for k, u in enumerate(second):
        fmap[u] = len(first) + k + 1
    f = F1Morphism(i.src, i.src, fmap)
    i1 = F1Morphism(len(first), n1, [0] + [i.map[u] for u in first])
    i2 = F1Morphism(len(second), n2, [0] + [i.map[u] - n1 for u in second])
    return f, i1, i2


def all_conflations(max_total):
    """Every conflation whose total object has size <= max_total.

    The deflations p with ker p = image(i) are the bijections from the
    points outside image(i) onto 1..v, 0 on image(i); ``permutations``
    yields them in map-tuple order, and ``Conflation`` checks each pair."""
    out = []
    for x in range(max_total + 1):
        for u in range(x + 1):
            v = x - u
            for imap in kernel.inflation_maps(u, x):
                image = set(imap[1:])
                i = F1Morphism(u, x, imap)
                for values in permutations(range(1, v + 1)):
                    fill = iter(values)
                    pmap = [0] + [0 if e in image else next(fill) for e in range(1, x + 1)]
                    out.append(Conflation(i, F1Morphism(x, v, pmap)))
    return tuple(out)


# ---------------------------------------------------------------------------
# axiom suite


class CheckResult:
    """One check of a suite: its name, the number of cases it read and
    the first witness against it ("" on a pass)."""

    __slots__ = ("name", "checked", "witness")

    def __init__(self, name, checked, witness=""):
        self.name = name
        self.checked = checked
        self.witness = witness

    @property
    def passed(self):
        return not self.witness

    def line(self):
        status = "pass" if self.passed else "FAIL"
        text = "%-38s %s  (%d checked)" % (self.name, status, self.checked)
        if self.witness:
            text += "\n    witness: %s" % self.witness
        return text

    @classmethod
    def first_failure(cls, name, cases):
        """Run a check whose cases yield "" on a pass and a witness
        string on a failure; stop at the first witness, counting the
        cases consumed up to and including it."""
        checked = 0
        for witness in cases:
            checked += 1
            if witness:
                return cls(name, checked, witness)
        return cls(name, checked)


class SuiteReport:
    """A suite's checks in the order they ran, and notes on its scope."""

    __slots__ = ("title", "max_size", "checks", "notes")

    def __init__(self, title, max_size, checks=None, notes=None):
        self.title = title
        self.max_size = max_size
        self.checks = [] if checks is None else checks
        self.notes = [] if notes is None else notes

    @property
    def ok(self):
        return all(c.passed for c in self.checks)

    def render(self):
        lines = ["%s (max size %d)" % (self.title, self.max_size)]
        lines += [c.line() for c in self.checks]
        for note in self.notes:
            lines.append("note: %s" % note)
        lines.append("result: %s" % ("ALL PASS" if self.ok else "FAILURES"))
        return "\n".join(lines)


# the largest test object of the universal property, in the suite and
# in the calibration of the intrinsic criterion against it
UNIVERSAL_BOUND = 2
CALIBRATION_BOUND = 3


def _support(m):
    """The elements a map sends to a nonzero point, as a key."""
    return tuple(map(bool, m))


def _commuting_squares(max_size, infl, defl):
    """Yield every commuting distinguished square with corners <= max_size,
    as (l, t, b, r, u, v, w, x): the leg maps, then the corner sizes, in
    the order of (u, v, t, x, r, w, l).

    Enumerates (t, r) and builds each square from d = r∘t.  When l hits
    every point of W, as a deflation does, b∘l = d forces b, and b is an
    inflation exactly when l's support is supp(d) and w = |supp(d)|:
    l(e) = 0 forces d(e) = 0, and a point of W hit only from outside
    supp(d) would have b = 0.  So the l of the class passed in (a
    corrupted class still counts) are indexed by support once per call,
    and only those with support supp(d) are visited.  Each is a map of
    its hom set, so a bijection from supp(d) onto W, and b = d∘l^ad.
    The nonzero values of b are those of the partial injection d, so b
    is a valid everywhere-injective map by construction and is not
    re-checked.

    Each composition reads through a kernel reader that fixes its right
    leg: d = r∘t through one reader of t, shared by every r, and
    b = d∘l^ad through one reader of l^ad per l.

    The squares come in rows of one (t, r), l innermost (4,511 rows of
    25,827 squares at window 4), and spans and cospans recur across
    rows, so axiom iii keeps what it reads of each (see
    _cartesian_iff_cocartesian).

    A corrupted deflation class can hold an l that misses a point of W.
    Its commuting squares, whose b is free on the missed points, are
    never visited, so axiom iii does not check them.  Checking them
    needs a pushout verdict for an l that is not onto W, and
    is_pushout's criterion is sound only when l is onto W.
    """
    for u in range(max_size + 1):
        by_support = {}
        for w in range(u + 1):
            for l in defl(u, w):
                key = _support(l)
                if sum(key) == w:
                    through_back = kernel.reader(kernel.adjoint(l, w))
                    by_support.setdefault(key, []).append((l, through_back))
        for v in range(u, max_size + 1):
            for t in infl(u, v):
                through_t = kernel.reader(t)
                for x in range(max_size + 1):
                    for r in defl(v, x):
                        d = through_t(r)
                        key = _support(d)
                        w = sum(key)
                        for l, through_back in by_support.get(key, ()):
                            yield l, t, through_back(d), r, u, v, w, x


def _deflations_missing_a_point(max_size, defl):
    """The l: U -> W of the deflation class, w <= u <= max_size, that
    miss a point of W, as (u, w, l) in the order _commuting_squares
    reads them.  It visits none of their squares."""
    return [
        (u, w, l)
        for u in range(max_size + 1)
        for w in range(u + 1)
        for l in defl(u, w)
        if sum(_support(l)) != w
    ]


def _square_text(l, t, b, r, u, v, w, x):
    """A square's legs as F1Morphisms, the way witnesses print them."""
    legs = ((u, w, l), (u, v, t), (w, x, b), (v, x, r))
    return repr(tuple(F1Morphism(*leg) for leg in legs))


def _bicartesian(l, t, b, r, u, v, w, x, universal):
    """Does the square commute and is it a pullback and a pushout, by
    the intrinsic criteria and, through universal (universal_square_ok
    or a scan's join of kept halves), against every test object of
    size <= UNIVERSAL_BOUND?  universal reads the legs last, once the
    square is known to commute."""
    return (
        kernel.compose(b, l) == kernel.compose(r, t)
        and kernel.is_pullback(l, t, b, r, u, v, w, x)
        and kernel.is_pushout(l, t, b, r, u, v, w, x)
        and universal(l, t, b, r, u, v, w, x, UNIVERSAL_BOUND)
    )


class _Kept(dict):
    """The values of part, a pure function of its arguments, by argument
    tuple: kept[args] is part(*args), computed at the first lookup and
    kept while this dict lives.  A check that makes one per call keeps
    what it revisits for that call only; nothing outlives it.  Calling
    it looks up its arguments, so it can stand in for part."""

    __slots__ = ("part",)

    def __init__(self, part):
        self.part = part

    def __missing__(self, args):
        value = self[args] = self.part(*args)
        return value

    def __call__(self, *args):
        return self[args]


def _universal_by_halves(span_half, cospan_half):
    """universal_square_ok as the join of the halves that span_half and
    cospan_half give, so that a scan can pass a kept one."""

    def universal(l, t, b, r, u, v, w, x, bound):
        return kernel.universal_join(
            span_half(l, t, u, v, w, bound), cospan_half(b, r, w, v, x, bound)
        )

    return universal


def _scan_iv_task(args):
    """Verify completions of all cospans W >-b-> X <<-r- V for one size
    triple, given as (w, x, v, the b, the r); returns (checked, first
    failure or None).  A refused leg counts as a failure, not an error.

    Each square is completed and checked on map tuples, as
    complete_pullback would complete it and BicartesianSquare.verify
    check it: its new legs l, t are valid maps, it commutes and is
    bicartesian, and l is a deflation and t an inflation.  The given
    maps are wrapped once per task, for their validation and to print
    a witness.

    Each cospan occurs once, but the 2,165 cospans of axiom_suite(4)
    pull back to only 220 spans, so the span half of the universal
    check is kept per task (see _Kept); the cospan half is computed
    for each square.
    """
    w, x, v, bmaps, rmaps = args
    rs = [F1Morphism(v, x, m) for m in rmaps]
    universal = _universal_by_halves(_Kept(kernel.span_half), kernel.cospan_half)
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
                and _bicartesian(lm, tm, b.map, r.map, u, v, w, x, universal)
                and kernel.is_surjective(lm, w)
                and kernel.is_injective(tm)
            ):
                return count, "cospan b=%s r=%s" % (b, r)
    return count, None


def _scan_v_task(args):
    """Verify completions of all spans W <<-l- U >-t-> V for one size
    triple, given as (w, u, v, the l, the t); returns (checked, first
    failure or None).  A refused leg counts as a failure, not an error.

    As in _scan_iv_task, on map tuples: the new legs b, r of each square,
    as complete_pushout builds them, are valid maps, the square commutes
    and is bicartesian, and r is a deflation and b an inflation.  Dually
    to axiom iv, the 2,165 spans of axiom_suite(4) push out to only 220
    cospans, so the cospan half is kept per task.
    """
    w, u, v, lmaps, tmaps = args
    ts = [F1Morphism(u, v, m) for m in tmaps]
    universal = _universal_by_halves(kernel.span_half, _Kept(kernel.cospan_half))
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
                and _bicartesian(l.map, t.map, bm, rm, u, v, w, x, universal)
                and kernel.is_surjective(rm, x)
                and kernel.is_injective(bm)
            ):
                return count, "span l=%s t=%s" % (l, t)
    return count, None


def _scan_task(task):
    """Run one task of axiom iv or v, given as (scan, its arguments), so
    that both scans go to one pool."""
    scan, args = task
    return scan(args)


def _zero_maps(max_size, infl, defl):
    """(i) 0 -> U is an inflation and U -> 0 a deflation."""
    for u in range(max_size + 1):
        into, onto = kernel.zero_map(0, u), kernel.zero_map(u, 0)
        yield "" if into in infl(0, u) else "0 -> %d not an inflation" % u
        yield "" if onto in defl(u, 0) else "%d -> 0 not a deflation" % u


def _class_closure(max_size, infl, defl):
    """(ii) Both classes are closed under composition and contain the
    isomorphisms."""
    sizes = range(max_size + 1)
    for a, b, c in product(sizes, repeat=3):
        for label, maps in (("inflations", infl), ("deflations", defl)):
            for f in maps(a, b):
                for g in maps(b, c):
                    ok = kernel.compose(g, f) in maps(a, c)
                    yield "" if ok else "%s not closed: %r ∘ %r" % (label, g, f)
    for a in sizes:
        for m in kernel.inflation_maps(a, a):
            ok = m in infl(a, a) and m in defl(a, a)
            yield "" if ok else "iso %r missing from a class" % (m,)


def _cartesian_iff_cocartesian(max_size, infl, defl):
    """(iii) Every commuting square is a pullback iff it is a pushout.

    The squares repeat their spans and cospans (25,827 squares of
    axiom_suite(4) have 2,013 distinct spans and 2,165 distinct
    cospans), so each span key and cospan key of is_pullback is kept
    for this call (see _Kept).  The squares of one (t, r) come in a
    row (see _commuting_squares), so the images that is_pushout reads of
    t and r are computed once per row, and its verdict, which reads
    only b, those images and x (261 distinct triples at window 4), is
    kept for this call too."""
    span_key, cospan_key = _Kept(kernel.span_key), _Kept(kernel.cospan_key)
    covers_once = _Kept(kernel.covers_once)
    row = None
    for sq in _commuting_squares(max_size, infl, defl):
        l, t, b, r, u, v, w, x = sq
        if row != (t, r):
            row, missed = (t, r), kernel.missed_images(t, r, v)
        pb = span_key[l, t] == cospan_key[b, r, w]
        po = covers_once[b, missed, x]
        if pb != po:
            yield "cartesian=%s cocartesian=%s for %s" % (pb, po, _square_text(*sq))
        else:
            yield ""


def _calibration(max_size):
    """The intrinsic bicartesian criterion agrees with the universal
    property on every commuting square with corners <= 2."""
    for sq in _commuting_squares(min(2, max_size), kernel.inflation_maps, kernel.deflation_maps):
        intrinsic = kernel.is_pullback(*sq) and kernel.is_pushout(*sq)
        universal = kernel.universal_square_ok(*sq, CALIBRATION_BOUND)
        if intrinsic != universal:
            yield "intrinsic=%s universal=%s for %s" % (
                intrinsic,
                universal,
                _square_text(*sq),
            )
        else:
            yield ""


def _monoidal_unit(max_size):
    """DS1: 0 is the unit of ⊕, on objects and on morphisms."""
    for u in range(max_size + 1):
        yield "" if direct_sum(u, 0) == u else "size %d ⊕ 0 changed" % u
    small = range(min(3, max_size) + 1)
    for u, v in product(small, repeat=2):
        for m in kernel.hom_maps(u, v):
            f = F1Morphism(u, v, m)
            ok = direct_sum(f, F1Morphism.identity(0)) == f
            yield "" if ok else "f ⊕ id_0 != f for %s" % f


def _exact_bifunctor(max_size):
    """DS2: ⊕ is a bifunctor preserving the exact structure.

    Every composable pair of pairs is compared.  A block sum is a pure
    function of (f, g, f_dst), and the 27,556 comparisons, the same at
    every window >= 2, need only 220 distinct ones: each map (f, f_dst)
    with sizes <= 2 as the left summand, each such map tuple g as the
    right one.  Each is computed once, up front, into one dict per left
    factor, (f, f_dst) -> {g: f ⊕ g}, that lives for this call; the
    outer pair fixes the left factors gf1, g1 and f1, and the inner loop
    reads its sums from their dicts.  The composite
    (g1 ⊕ g2)∘(f1 ⊕ f2) reads through a reader that fixes its right leg
    f1 ⊕ f2, one reader per sum.
    """
    small = min(2, max_size)
    lefts = [
        (f, b)
        for a, b in product(range(small + 1), repeat=2)
        for f in kernel.hom_maps(a, b)
    ]
    rights = {f for f, _ in lefts}
    sums = {(f, b): {g: kernel.block_sum(f, g, b) for g in rights} for f, b in lefts}
    readers = {key: {g: kernel.reader(s) for g, s in row.items()} for key, row in sums.items()}
    composable = [
        (b, c, f, g, kernel.compose(g, f))
        for a, b, c in product(range(small + 1), repeat=3)
        for f in kernel.hom_maps(a, b)
        for g in kernel.hom_maps(b, c)
    ]
    for b1, c1, f1, g1, gf1 in composable:
        with_gf, with_g, through_f = sums[gf1, c1], sums[g1, c1], readers[f1, b1]
        for _, _, f2, g2, gf2 in composable:
            ok = with_gf[gf2] == through_f[f2](with_g[g2])
            yield "" if ok else "⊕ not functorial"
    for u, v in product(range(max_size + 1), repeat=2):
        ok = is_inflation(inc_left(u, v)) and is_inflation(inc_right(u, v))
        yield "" if ok else "block inclusion not an inflation at (%d,%d)" % (u, v)
        ok = is_deflation(proj_left(u, v)) and is_deflation(proj_right(u, v))
        yield "" if ok else "block projection not a deflation at (%d,%d)" % (u, v)
    bicart_small = [
        sq
        for sq in _commuting_squares(small, kernel.inflation_maps, kernel.deflation_maps)
        if kernel.is_pullback(*sq) and kernel.is_pushout(*sq)
    ]
    for s1, s2 in product(bicart_small, repeat=2):
        ok = _summed_square_ok(s1, s2)
        yield "" if ok else "⊕ of bicartesian squares not bicartesian"


def _summed_square_ok(s1, s2):
    """Is the blockwise sum of two squares a commuting distinguished
    square that is bicartesian, also against the universal property?"""
    l1, t1, b1, r1, u1, v1, w1, x1 = s1
    l2, t2, b2, r2, u2, v2, w2, x2 = s2
    l = kernel.block_sum(l1, l2, w1)
    t = kernel.block_sum(t1, t2, v1)
    b = kernel.block_sum(b1, b2, x1)
    r = kernel.block_sum(r1, r2, x1)
    return (
        kernel.is_injective(t)
        and kernel.is_injective(b)
        and kernel.is_surjective(l, w1 + w2)
        and kernel.is_surjective(r, x1 + x2)
        and _bicartesian(
            l, t, b, r, u1 + u2, v1 + v2, w1 + w2, x1 + x2, kernel.universal_square_ok
        )
    )


def _restriction_injective(max_size):
    """DS3: restriction along the block inclusions (dually, corestriction
    along the block projections) is injective.  The restrictions m∘il
    and m∘ir read m through one reader of il and one of ir per (u, v),
    and the corestrictions pl∘m and pr∘m read through one reader of m."""
    sizes = range(max_size + 1)
    for u, v in product(sizes, repeat=2):
        at_il = kernel.reader(inc_left(u, v).map)
        at_ir = kernel.reader(inc_right(u, v).map)
        pl, pr = proj_left(u, v).map, proj_right(u, v).map
        for w in sizes:
            seen = set()
            for m in kernel.hom_maps(u + v, w):
                key = (at_il(m), at_ir(m))
                clash = key in seen
                yield "restriction collision out of %d⊕%d" % (u, v) if clash else ""
                seen.add(key)
            seen = set()
            for m in kernel.hom_maps(w, u + v):
                at_m = kernel.reader(m)
                key = (at_m(pl), at_m(pr))
                clash = key in seen
                yield "corestriction collision into %d⊕%d" % (u, v) if clash else ""
                seen.add(key)


def _unique_splitting_extension(max_size):
    """DS4: each section (dually, retraction) of a conflation extends to
    a unique iso U⊕V ≅ X."""
    for c in all_conflations(max_size):
        u, v, x = c.sub, c.quotient, c.total
        il, ir = inc_left(u, v).map, inc_right(u, v).map
        pl, pr = proj_left(u, v).map, proj_right(u, v).map
        candidates = kernel.inflation_maps(u + v, x)
        for s in conflation_sections(c):
            hits = [
                m
                for m in candidates
                if kernel.compose(m, il) == c.i.map
                and kernel.compose(m, ir) == s.map
            ]
            ok = len(hits) == 1
            yield "" if ok else "section %s of %r extends to %d isos" % (s, c, len(hits))
        for q in conflation_retractions(c):
            hits = [
                m
                for m in candidates
                if kernel.compose(c.p.map, m) == pr
                and kernel.compose(q.map, m) == pl
            ]
            ok = len(hits) == 1
            yield "" if ok else "retraction %s of %r extends to %d isos" % (q, c, len(hits))


def _sum_squares(max_size):
    """Direct sums of morphisms commute with the block inclusions and
    are isos exactly when both summands are."""
    small = range(min(2, max_size) + 1)
    for a, b, c, d in product(small, repeat=4):
        for m1 in kernel.hom_maps(a, b):
            for m2 in kernel.hom_maps(c, d):
                f1 = F1Morphism(a, b, m1)
                f2 = F1Morphism(c, d, m2)
                s = direct_sum(f1, f2)
                if compose(s, inc_left(a, c)) != compose(inc_left(b, d), f1):
                    yield "left inclusion square broken"
                elif compose(s, inc_right(a, c)) != compose(inc_right(b, d), f2):
                    yield "right inclusion square broken"
                elif is_iso(s) != (is_iso(f1) and is_iso(f2)):
                    yield "iso detection broken for %s ⊕ %s" % (f1, f2)
                else:
                    yield ""


def _block_squares(max_size):
    """The pullback of a block projection along an inflation is the
    block square."""
    small = range(min(3, max_size) + 1)
    for u, v, w in product(small, repeat=3):
        for jm in kernel.inflation_maps(u, v):
            j = F1Morphism(u, v, jm)
            sq = BicartesianSquare(
                left=proj_left(u, w),
                top=direct_sum(j, F1Morphism.identity(w)),
                bottom=j,
                right=proj_left(v, w),
            )
            ok = sq.verify()
            yield "" if ok else "block square for j=%s, W=%d not bicartesian" % (j, w)


def axiom_suite(max_size, jobs=1, inflation_maps_of=None, deflation_maps_of=None):
    """Exhaustively certify the exact-structure axioms up to max_size.

    Every check stops at its first failing case and reports it as the
    witness.  Axioms iv and v scan each size triple as a separate task,
    and the tasks of both go to one parallel_map call (so that workers
    can share them): each task stops at its first failing case, the
    witness of an axiom is that of its first failing triple, and the
    cases of every triple are counted.

    Completions and small squares additionally get the pullback/pushout
    universal property checked against every test object of size <=
    UNIVERSAL_BOUND (the intrinsic elementwise criterion is always
    checked, at every size).

    inflation_maps_of/deflation_maps_of replace kernel.inflation_maps and
    kernel.deflation_maps, for corruption experiments.  The tasks of
    axioms iv and v carry hom sets, not these functions, so every class
    runs on jobs workers.  When axiom iii passes although the deflation
    class holds maps that miss a point of their codomain, whose squares
    it cannot visit (see _commuting_squares), a note names the first
    and counts them.
    """
    from . import _parallel

    infl = inflation_maps_of or kernel.inflation_maps
    defl = deflation_maps_of or kernel.deflation_maps
    report = SuiteReport(title="exact structure axiom suite", max_size=max_size)
    add = report.checks.append
    run = CheckResult.first_failure

    add(run("axiom i: zero maps", _zero_maps(max_size, infl, defl)))
    add(run("axiom ii: class closure", _class_closure(max_size, infl, defl)))
    iii = run(
        "axiom iii: cartesian iff cocartesian",
        _cartesian_iff_cocartesian(max_size, infl, defl),
    )
    add(iii)
    # a pass says nothing of the squares axiom iii cannot visit; a
    # failure already fails the report
    missed = _deflations_missing_a_point(max_size, defl)
    if iii.passed and missed:
        report.notes.append(
            "axiom iii did not check the squares of %d deflation%s that miss "
            "a point of their codomain, the first %s"
            % (len(missed), "" if len(missed) == 1 else "s", F1Morphism(*missed[0]))
        )

    # (iv) cospan and (v) span completion to a bicartesian square, one
    # task per size triple with the hom sets its scan reads; both scans
    # share one pool, and their results are split back
    triples = list(product(range(max_size + 1), repeat=3))
    tasks = [(_scan_iv_task, (w, x, v, infl(w, x), defl(v, x))) for w, x, v in triples]
    tasks += [(_scan_v_task, (w, u, v, defl(u, w), infl(u, v))) for w, u, v in triples]
    results = _parallel.parallel_map(_scan_task, tasks, jobs)
    for k, name in enumerate(("axiom iv: pullback completion", "axiom v: pushout completion")):
        part = results[k * len(triples) : (k + 1) * len(triples)]
        bad = next((wit for _, wit in part if wit), "")
        add(CheckResult(name, sum(c for c, _ in part), bad))

    add(
        run(
            "calibration: intrinsic vs universal",
            _calibration(max_size),
        )
    )
    report.notes.append(
        "universal property checked against all test objects of size <= %d"
        % UNIVERSAL_BOUND
    )
    add(run("DS1: monoidal unit", _monoidal_unit(max_size)))
    add(run("DS2: exact bifunctor", _exact_bifunctor(max_size)))
    add(run("DS3: restriction injective", _restriction_injective(max_size)))
    add(run("DS4: unique splitting extension", _unique_splitting_extension(max_size)))
    add(run("direct sums: inclusion squares, isos", _sum_squares(max_size)))
    add(run("block pullback squares", _block_squares(max_size)))
    return report
