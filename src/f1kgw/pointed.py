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
"""

from dataclasses import dataclass, field
from itertools import product

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
        return cls(n, n, kernel.identity(int(n)))

    @classmethod
    def zero(cls, src, dst):
        return cls(src, dst, kernel.zero_map(int(src), int(dst)))

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

    def to_json(self):
        return {"src": self.src, "dst": self.dst, "map": list(self.map)}

    @classmethod
    def from_json(cls, data):
        return cls(data["src"], data["dst"], data["map"])

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
        combined = list(a.map)
        for v in b.map[1:]:
            combined.append(v + a.dst if v != 0 else 0)
        return F1Morphism(a.src + b.src, a.dst + b.dst, combined)
    if isinstance(a, F1Morphism) or isinstance(b, F1Morphism):
        raise TypeMismatch("cannot sum a morphism with an object")
    return int(a) + int(b)


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


def hom_morphisms(src, dst):
    """All morphisms src -> dst (lexicographic in the map tuple)."""
    return tuple(F1Morphism(src, dst, m) for m in kernel.hom_maps(int(src), int(dst)))


def inflations(src, dst):
    return tuple(F1Morphism(src, dst, m) for m in kernel.inflation_maps(int(src), int(dst)))


def deflations(src, dst):
    return tuple(F1Morphism(src, dst, m) for m in kernel.deflation_maps(int(src), int(dst)))


def isos(n):
    return inflations(n, n)


class Conflation:
    """U >--i--> X --p->> V with ker(p) = im(i) away from the base point."""

    __slots__ = ("i", "p")

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
        return hash((self.i, self.p))

    def __repr__(self):
        return "Conflation(%r, %r)" % (self.i, self.p)

    def __str__(self):
        return "%s ; %s" % (self.i, self.p)

    @classmethod
    def canonical(cls, u, v):
        """U >--> U⊕V -->> V with the block inclusion and projection."""
        return cls(inc_left(u, v), proj_right(u, v))


def _pullback_elements(bmap, rmap, w_size, v_size):
    """Elements of the canonical pullback of W >-b-> X <<-r- V.

    Returns (paired, kernels): paired[k] is the unique v with
    r(v) = b(w) for w = k+1 (ascending in w, or absent when b(w) misses
    the image of r); kernels lists v with r(v) = 0, ascending.
    """
    rinv = {}
    for v in range(1, v_size + 1):
        if rmap[v] != 0:
            rinv[rmap[v]] = v
    paired = []
    for w in range(1, w_size + 1):
        v = rinv.get(bmap[w])
        if v is not None:
            paired.append((w, v))
    kernels = [v for v in range(1, v_size + 1) if rmap[v] == 0]
    return paired, kernels


def _pushout_elements(tmap, v_size):
    """Elements of the canonical pushout of W <-l- U >-t-> V.

    Returns survivors: the v in V not hit by t, ascending.  The pushout
    is W∖0 followed by the survivors; t(u) is glued to l(u).
    """
    hit = set(v for v in tmap[1:] if v != 0)
    return [v for v in range(1, v_size + 1) if v not in hit]


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

    def is_pullback(self):
        """Comparison with the canonical elementwise pullback is bijective.

        Requires the top leg to be a genuine inflation (guaranteed by the
        constructor unless class checks were disabled by a corrupted
        classifier); the left leg may be arbitrary.
        """
        u, v, w, x = self.corners
        paired, kernels = _pullback_elements(self.bottom.map, self.right.map, w, v)
        if u != len(paired) + len(kernels):
            return False
        index = {}
        for k, (pw, _) in enumerate(paired):
            index[("w", pw)] = k
        for k, kv in enumerate(kernels):
            index[("k", kv)] = len(paired) + k
        seen = set()
        for e in range(1, u + 1):
            lw = self.left.map[e]
            if lw != 0:
                pos = index.get(("w", lw))
            else:
                pos = index.get(("k", self.top.map[e]))
            if pos is None or pos in seen:
                return False
            seen.add(pos)
        return True

    def is_pushout(self):
        """Comparison from the canonical elementwise pushout is bijective.

        Sound when the left leg is a genuine deflation (enforced by the
        constructor unless class checks were disabled); the calibration
        check in the axiom suite compares this criterion against the
        universal property directly.
        """
        u, v, w, x = self.corners
        survivors = _pushout_elements(self.top.map, v)
        if x != w + len(survivors):
            return False
        seen = set()
        for pw in range(1, w + 1):
            img = self.bottom.map[pw]
            if img == 0 or img in seen:
                return False
            seen.add(img)
        for sv in survivors:
            img = self.right.map[sv]
            if img == 0 or img in seen:
                return False
            seen.add(img)
        return True

    def is_bicartesian(self):
        return self.is_pullback() and self.is_pushout()

    def verify(self, universal_bound=None):
        """Intrinsic bicartesian check; optionally also the universal
        property against every test object of size <= universal_bound."""
        if not self.is_bicartesian():
            return False
        if universal_bound is None:
            return True
        u, v, w, x = self.corners
        return kernel.universal_square_ok(
            self.left.map,
            self.top.map,
            self.bottom.map,
            self.right.map,
            u,
            v,
            w,
            x,
            universal_bound,
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
        raise NotAnInflation("cospan inflation leg is %s" % classify(b))
    w_size, v_size = b.src, r.src
    paired, kernels = _pullback_elements(b.map, r.map, w_size, v_size)
    u_size = len(paired) + len(kernels)
    lmap = [0] * (u_size + 1)
    tmap = [0] * (u_size + 1)
    for k, (pw, pv) in enumerate(paired):
        lmap[k + 1] = pw
        tmap[k + 1] = pv
    for k, kv in enumerate(kernels):
        tmap[len(paired) + k + 1] = kv
    return BicartesianSquare(
        left=F1Morphism(u_size, w_size, lmap),
        top=F1Morphism(u_size, v_size, tmap),
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
        raise NotAnInflation("span inflation leg is %s" % classify(t))
    u_size, w_size, v_size = l.src, l.dst, t.dst
    survivors = _pushout_elements(t.map, v_size)
    x_size = w_size + len(survivors)
    bmap = [0] + list(range(1, w_size + 1))
    rmap = [0] * (v_size + 1)
    glue = {}
    for e in range(1, u_size + 1):
        if t.map[e] != 0:
            glue[t.map[e]] = l.map[e]
    for k, sv in enumerate(survivors):
        rmap[sv] = w_size + k + 1
    for v in range(1, v_size + 1):
        if v in glue:
            rmap[v] = glue[v]
    return BicartesianSquare(
        left=l,
        top=t,
        bottom=F1Morphism(w_size, x_size, bmap),
        right=F1Morphism(v_size, x_size, rmap),
        check_classes=False,
    )


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
    """Every conflation whose total object has size <= max_total."""
    out = []
    for x in range(max_total + 1):
        for u in range(x + 1):
            v = x - u
            for imap in kernel.inflation_maps(u, x):
                image = set(imap[1:])
                for pmap in kernel.deflation_maps(x, v):
                    ok = True
                    for e in range(1, x + 1):
                        if (pmap[e] == 0) != (e in image):
                            ok = False
                            break
                    if ok:
                        out.append(
                            Conflation(F1Morphism(u, x, imap), F1Morphism(x, v, pmap))
                        )
    return tuple(out)


# ---------------------------------------------------------------------------
# axiom suite


@dataclass
class CheckResult:
    name: str
    passed: bool
    checked: int
    witness: str = ""

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
                return cls(name, False, checked, witness)
        return cls(name, True, checked)


@dataclass
class SuiteReport:
    title: str
    max_size: int
    checks: list = field(default_factory=list)
    notes: list = field(default_factory=list)

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


def _commuting_squares(max_size, infl, defl):
    """Yield every commuting distinguished square with corners <= max_size.

    Enumerates (t, r, l) and derives b pointwise from b∘l = r∘t: the
    nonzero fibres of a deflation l are single elements, so b is forced;
    candidates whose forced b is not an inflation are skipped.
    """
    for u in range(max_size + 1):
        for v in range(u, max_size + 1):
            for t in infl(u, v):
                for x in range(max_size + 1):
                    for r in defl(v, x):
                        d = kernel.compose(r, t)
                        for w in range(max_size + 1):
                            for l in defl(u, w):
                                bmap = [0] * (w + 1)
                                ok = True
                                for e in range(1, u + 1):
                                    le = l[e]
                                    if le == 0:
                                        if d[e] != 0:
                                            ok = False
                                            break
                                    else:
                                        bmap[le] = d[e]
                                if not ok:
                                    continue
                                if not kernel.is_valid_map(tuple(bmap), x):
                                    continue
                                if not kernel.is_injective(bmap):
                                    continue
                                yield (
                                    F1Morphism(u, w, l),
                                    F1Morphism(u, v, t),
                                    F1Morphism(w, x, bmap),
                                    F1Morphism(v, x, r),
                                )


def _default_infl(u, v):
    return kernel.inflation_maps(u, v)


def _default_defl(u, v):
    return kernel.deflation_maps(u, v)


def _scan_iv_task(args):
    """Verify completions of all cospans W >--> X <<-- V for one size
    triple; returns (checked, first failure or None).  A leg that the
    completion refuses counts as a failure, not an error."""
    w, x, v, ub, infl, defl = args
    count = 0
    for bm in infl(w, x):
        b = F1Morphism(w, x, bm)
        for rm in defl(v, x):
            count += 1
            r = F1Morphism(v, x, rm)
            try:
                sq = complete_pullback(b, r)
            except NotAnInflation as exc:
                return count, "cospan b=%s r=%s: %s" % (b, r, exc)
            if not sq.verify(ub) or not (
                is_deflation(sq.left) and is_inflation(sq.top)
            ):
                return count, "cospan b=%s r=%s" % (b, r)
    return count, None


def _scan_v_task(args):
    """Verify completions of all spans W <<-- U >--> V for one size
    triple; returns (checked, first failure or None).  A leg that the
    completion refuses counts as a failure, not an error."""
    w, u, v, ub, infl, defl = args
    count = 0
    for lm in defl(u, w):
        l = F1Morphism(u, w, lm)
        for tm in infl(u, v):
            count += 1
            t = F1Morphism(u, v, tm)
            try:
                sq = complete_pushout(l, t)
            except NotAnInflation as exc:
                return count, "span l=%s t=%s: %s" % (l, t, exc)
            if not sq.verify(ub) or not (
                is_deflation(sq.right) and is_inflation(sq.bottom)
            ):
                return count, "span l=%s t=%s" % (l, t)
    return count, None


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
    """(iii) Every commuting square is a pullback iff it is a pushout."""
    for square in _commuting_squares(max_size, infl, defl):
        sq = BicartesianSquare(*square, check_classes=False)
        pb, po = sq.is_pullback(), sq.is_pushout()
        if pb != po:
            yield "cartesian=%s cocartesian=%s for %r" % (pb, po, square)
        else:
            yield ""


def _calibration(max_size, universal_bound):
    """The intrinsic bicartesian criterion agrees with the universal
    property on every commuting square with corners <= 2."""
    for square in _commuting_squares(min(2, max_size), _default_infl, _default_defl):
        sq = BicartesianSquare(*square)
        intrinsic = sq.is_bicartesian()
        universal = kernel.universal_square_ok(
            sq.left.map,
            sq.top.map,
            sq.bottom.map,
            sq.right.map,
            *sq.corners,
            max(3, universal_bound),
        )
        if intrinsic != universal:
            yield "intrinsic=%s universal=%s for %r" % (intrinsic, universal, square)
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


def _exact_bifunctor(max_size, universal_bound):
    """DS2: ⊕ is a bifunctor preserving the exact structure."""
    small = min(2, max_size)
    composable = [
        (F1Morphism(a, b, f), F1Morphism(b, c, g))
        for a, b, c in product(range(small + 1), repeat=3)
        for f in kernel.hom_maps(a, b)
        for g in kernel.hom_maps(b, c)
    ]
    for (f1, g1), (f2, g2) in product(composable, repeat=2):
        lhs = direct_sum(compose(g1, f1), compose(g2, f2))
        rhs = compose(direct_sum(g1, g2), direct_sum(f1, f2))
        yield "" if lhs == rhs else "⊕ not functorial"
    for u, v in product(range(max_size + 1), repeat=2):
        ok = is_inflation(inc_left(u, v)) and is_inflation(inc_right(u, v))
        yield "" if ok else "block inclusion not an inflation at (%d,%d)" % (u, v)
        ok = is_deflation(proj_left(u, v)) and is_deflation(proj_right(u, v))
        yield "" if ok else "block projection not a deflation at (%d,%d)" % (u, v)
    squares_small = [
        BicartesianSquare(*sq, check_classes=False)
        for sq in _commuting_squares(small, _default_infl, _default_defl)
    ]
    bicart_small = [sq for sq in squares_small if sq.is_bicartesian()]
    for s1, s2 in product(bicart_small, repeat=2):
        summed = BicartesianSquare(
            left=direct_sum(s1.left, s2.left),
            top=direct_sum(s1.top, s2.top),
            bottom=direct_sum(s1.bottom, s2.bottom),
            right=direct_sum(s1.right, s2.right),
        )
        ok = summed.verify(universal_bound)
        yield "" if ok else "⊕ of bicartesian squares not bicartesian"


def _restriction_injective(max_size):
    """DS3: restriction along the block inclusions (dually, corestriction
    along the block projections) is injective."""
    sizes = range(max_size + 1)
    for u, v in product(sizes, repeat=2):
        il, ir = inc_left(u, v).map, inc_right(u, v).map
        pl, pr = proj_left(u, v).map, proj_right(u, v).map
        for w in sizes:
            seen = set()
            for m in kernel.hom_maps(u + v, w):
                key = (kernel.compose(m, il), kernel.compose(m, ir))
                clash = key in seen
                yield "restriction collision out of %d⊕%d" % (u, v) if clash else ""
                seen.add(key)
            seen = set()
            for m in kernel.hom_maps(w, u + v):
                key = (kernel.compose(pl, m), kernel.compose(pr, m))
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


def _block_squares(max_size, universal_bound):
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
            ok = sq.verify(universal_bound)
            yield "" if ok else "block square for j=%s, W=%d not bicartesian" % (j, w)


def axiom_suite(
    max_size,
    universal_bound=2,
    jobs=1,
    inflation_maps_of=None,
    deflation_maps_of=None,
):
    """Exhaustively certify the exact-structure axioms up to max_size.

    Every check stops at its first failing case and reports it as the
    witness.  Axioms iv and v scan each size triple as a separate task
    (so that workers can share them): each task stops at its first
    failing case, the witness is that of the first failing triple, and
    the cases of every triple are counted.

    universal_bound: completions and small squares additionally get the
    pullback/pushout universal property checked against every test
    object of size <= this bound (the intrinsic elementwise criterion is
    always checked, at every size).

    inflation_maps_of/deflation_maps_of can replace the morphism-class
    enumerations, for corruption experiments; the default classes are
    the honest ones.
    """
    from . import _parallel

    infl = inflation_maps_of or _default_infl
    defl = deflation_maps_of or _default_defl
    # corrupted classes may be lambdas, which cannot cross to a worker
    honest = infl is _default_infl and defl is _default_defl
    workers = jobs if honest else 1
    report = SuiteReport(title="exact structure axiom suite", max_size=max_size)
    add = report.checks.append
    run = CheckResult.first_failure

    add(run("axiom i: zero maps", _zero_maps(max_size, infl, defl)))
    add(run("axiom ii: class closure", _class_closure(max_size, infl, defl)))
    add(
        run(
            "axiom iii: cartesian iff cocartesian",
            _cartesian_iff_cocartesian(max_size, infl, defl),
        )
    )

    # (iv) cospan and (v) span completion to a bicartesian square, one
    # task per size triple, read as (w, x, v) for iv and (w, u, v) for v
    tasks = [
        (a, b, c, universal_bound, infl, defl)
        for a, b, c in product(range(max_size + 1), repeat=3)
    ]
    for name, scan in (
        ("axiom iv: pullback completion", _scan_iv_task),
        ("axiom v: pushout completion", _scan_v_task),
    ):
        results = _parallel.parallel_map(scan, tasks, workers)
        bad = next((wit for _, wit in results if wit), "")
        add(CheckResult(name, not bad, sum(c for c, _ in results), bad))

    add(
        run(
            "calibration: intrinsic vs universal",
            _calibration(max_size, universal_bound),
        )
    )
    report.notes.append(
        "universal property checked against all test objects of size <= %d"
        % universal_bound
    )
    add(run("DS1: monoidal unit", _monoidal_unit(max_size)))
    add(run("DS2: exact bifunctor", _exact_bifunctor(max_size, universal_bound)))
    add(run("DS3: restriction injective", _restriction_injective(max_size)))
    add(run("DS4: unique splitting extension", _unique_splitting_extension(max_size)))
    add(run("direct sums: inclusion squares, isos", _sum_squares(max_size)))
    add(run("block pullback squares", _block_squares(max_size, universal_bound)))
    return report
