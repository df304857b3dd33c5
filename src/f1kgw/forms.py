"""Symmetric forms on pointed sets: involutions, hyperbolic and
metabolic forms, isotropic reduction, and the Witt monoid.

A symmetric form on the object {0..n} is a self-inverse isomorphism ψ
(an involution fixing 0); an isometry φ: (M,ψ_M) -> (N,ψ_N) is an
isomorphism with ψ_M = φ⁻¹ ∘ ψ_N ∘ φ, i.e. the adjoint identity
φ^ad ∘ ψ_N ∘ φ = ψ_M, since the adjoint of an isomorphism is its
inverse.  Everything here is exhaustively checkable at desk scale.
"""

from functools import lru_cache

from .pointed import (
    F1Morphism,
    TypeMismatch,
    compose,
    direct_sum,
    dualize,
    is_inflation,
)


class NotAnInvolution(ValueError):
    pass


class NotIsotropic(ValueError):
    pass


class NotLagrangian(ValueError):
    pass


class NotHyperbolic(ValueError):
    pass


class RestrictionDegenerate(ValueError):
    """The restriction of a form along an inflation is not a form."""


class SymmetricForm:
    """An involution ψ on {0..size} presented as the map tuple."""

    __slots__ = ("size", "psi")

    def __init__(self, size, psi):
        psi = tuple(psi)
        if len(psi) != size + 1 or psi[0] != 0:
            raise NotAnInvolution("map tuple has the wrong shape")
        if any(not 0 < psi[k] <= size for k in range(1, size + 1)):
            raise NotAnInvolution("an involution may not kill a point")
        if any(psi[psi[k]] != k for k in range(1, size + 1)):
            raise NotAnInvolution("psi^2 != id")
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "psi", psi)

    def __setattr__(self, *a):
        raise AttributeError("SymmetricForm is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, SymmetricForm)
            and self.size == other.size
            and self.psi == other.psi
        )

    def __hash__(self):
        return hash((self.size, self.psi))

    @property
    def morphism(self):
        return F1Morphism(self.size, self.size, self.psi)

    def pairs(self):
        """2-cycles of ψ, each as (k, ψk) with k < ψk, ascending."""
        return tuple(
            (k, self.psi[k]) for k in range(1, self.size + 1) if k < self.psi[k]
        )

    def fixed_points(self):
        return tuple(k for k in range(1, self.size + 1) if self.psi[k] == k)

    @classmethod
    def from_literal(cls, text):
        """Parse "inv:(1 2)(3)" — cycle notation covering all of 1..n.

        Singleton cycles are fixed points; every point of the carrier
        must appear exactly once, which also determines the size.
        """
        body = text.strip()
        if body.startswith("inv:"):
            body = body[4:]
        body = body.strip()
        if body in ("", "()"):
            return cls(0, (0,))
        if not (body.startswith("(") and body.endswith(")")):
            raise ValueError("expected cycle notation like inv:(1 2)(3)")
        cycles = []
        for chunk in body[1:-1].split(")("):
            points = [int(tok) for tok in chunk.replace(",", " ").split()]
            if len(points) not in (1, 2):
                raise NotAnInvolution("cycles of an involution have length 1 or 2")
            cycles.append(points)
        seen = [p for cyc in cycles for p in cyc]
        size = max(seen)
        if sorted(seen) != list(range(1, size + 1)):
            raise ValueError("cycles must cover 1..%d exactly once" % size)
        psi = list(range(size + 1))
        for cyc in cycles:
            if len(cyc) == 2:
                a, b = cyc
                psi[a], psi[b] = b, a
        return cls(size, tuple(psi))

    def __str__(self):
        if self.size == 0:
            return "inv:()"
        parts = []
        done = set()
        for k in range(1, self.size + 1):
            if k in done:
                continue
            j = self.psi[k]
            if j == k:
                parts.append("(%d)" % k)
            else:
                parts.append("(%d %d)" % (k, j))
                done.add(j)
        return "inv:" + "".join(parts)

    def __repr__(self):
        return "SymmetricForm(%d, %r)" % (self.size, self.psi)

    def to_json(self):
        return {"size": self.size, "psi": list(self.psi)}

    @classmethod
    def from_json(cls, data):
        return cls(data["size"], tuple(data["psi"]))


def identity_form(n):
    """The split form: ψ = id, n fixed points."""
    return SymmetricForm(n, tuple(range(n + 1)))


def hyperbolic(n):
    """H applied to {0..n}: carrier {0..2n}, ψ swaps k <-> n+k."""
    psi = [0] + [n + k for k in range(1, n + 1)] + list(range(1, n + 1))
    return SymmetricForm(2 * n, tuple(psi))


def hyperbolic_on_morphism(f):
    """H on morphisms: the block sum f ⊕ f.

    H(f): H(src) -> H(dst) acts as f on the first block and again as f
    on the second (dual) block; for isomorphisms this is an isometry of
    the hyperbolic forms.
    """
    return direct_sum(f, f)


def enumerate_forms(n):
    """All symmetric forms on {0..n}, constructed recursively.

    The least point 1 is either fixed (recurse on the rest) or paired
    with some j > 1; this builds each involution exactly once, in a
    deterministic order, independently of any permutation enumeration.
    """

    def rec(points):
        if not points:
            yield []
            return
        first, rest = points[0], points[1:]
        for tail in rec(rest):
            yield [(first, first)] + tail
        for i, j in enumerate(rest):
            remaining = rest[:i] + rest[i + 1 :]
            for tail in rec(remaining):
                yield [(first, j)] + tail
    out = []
    for pairing in rec(tuple(range(1, n + 1))):
        psi = list(range(n + 1))
        for a, b in pairing:
            psi[a], psi[b] = b, a
        out.append(SymmetricForm(n, tuple(psi)))
    return out


def is_isometry(phi, M, N):
    """Is φ: M -> N an isomorphism with φ^ad ∘ ψ_N ∘ φ = ψ_M?"""
    if phi.src != M.size or phi.dst != N.size:
        return False
    if not is_inflation(phi) or phi.src != phi.dst:
        return False
    back = dualize(phi)
    return compose(back, compose(N.morphism, phi)).map == M.psi


def _isometry_maps(M, N):
    """Yield the map tuples of the bijections φ with φ∘ψ_M = ψ_N∘φ, in
    lexicographic order, by a depth-first search.

    The least unassigned point k tries each unused v in ascending order;
    a fixed point of ψ_M may only go to a fixed point of ψ_N, a 2-cycle
    point only to a 2-cycle point, and φ(k) = v forces φ(ψ_M k) = ψ_N v.
    A forced position is fixed by an earlier choice, so two outputs first
    differ at a chosen position and the order is that of the value tuples.
    """
    if M.size != N.size:
        return
    n, psi_m, psi_n = M.size, M.psi, N.psi
    phi = [0] * (n + 1)
    used = [False] * (n + 1)

    def rec(k):
        while k <= n and phi[k]:
            k += 1
        if k > n:
            yield tuple(phi)
            return
        j = psi_m[k]
        for v in range(1, n + 1):
            w = psi_n[v]
            if used[v] or (j == k) != (w == v):
                continue
            phi[k], phi[j], used[v], used[w] = v, w, True, True
            yield from rec(k + 1)
            phi[k], phi[j], used[v], used[w] = 0, 0, False, False

    yield from rec(1)


def _verified_isometries(M, N):
    """Each map of the search as an F1Morphism, checked by is_isometry."""
    for m in _isometry_maps(M, N):
        phi = F1Morphism(M.size, N.size, m)
        if not is_isometry(phi, M, N):
            raise AssertionError("isometry search produced %s" % (phi,))
        yield phi


def isometries(M, N):
    """All isometries M -> N, in lexicographic map order.

    A depth-first search that respects ψ (see _isometry_maps) lists every
    candidate, and each one is verified by is_isometry before it is kept.
    """
    return list(_verified_isometries(M, N))


def are_isometric(M, N):
    """Is there an isometry M -> N?

    True on the first verified isometry of the complete search behind
    isometries, False when that search runs out.
    """
    return next(_verified_isometries(M, N), None) is not None


def isometry_group(M):
    """The automorphism group of the form: all self-isometries."""
    return isometries(M, M)


class IsotropicInflation:
    """An inflation i: U >-> (N,ψ) whose image T satisfies ψT ∩ T = ∅."""

    __slots__ = ("morphism", "form")

    def __init__(self, morphism, form):
        if morphism.dst != form.size:
            raise TypeMismatch("inflation lands in the wrong carrier")
        if not is_inflation(morphism):
            raise NotIsotropic("underlying morphism is not an inflation")
        image = set(morphism.image)
        if image & {form.psi[t] for t in image}:
            raise NotIsotropic("psi(T) meets T")
        object.__setattr__(self, "morphism", morphism)
        object.__setattr__(self, "form", form)

    def __setattr__(self, *a):
        raise AttributeError("IsotropicInflation is immutable")

    @property
    def image(self):
        return self.morphism.image

    def perp(self):
        """U^⊥: the complement of ψ(T), ascending.  Contains T."""
        psi_t = {self.form.psi[t] for t in self.morphism.image}
        return tuple(
            k for k in range(1, self.form.size + 1) if k not in psi_t
        )

    def is_lagrangian(self):
        """T = U^⊥, equivalently ψ(T) is exactly the complement of T."""
        return tuple(self.morphism.image) == self.perp()


def isotropic_subobjects(N):
    """All isotropic inflations into N with ascending canonical maps,
    one per isotropic subset T (including T = ∅), by size then lex."""
    subsets = [()]
    points = list(range(1, N.size + 1))

    def extend(prefix, start):
        for k in range(start, len(points)):
            t = points[k]
            pt = N.psi[t]
            cand = prefix + (t,)
            if pt in cand or any(N.psi[u] in cand for u in cand):
                continue
            subsets.append(cand)
            extend(cand, k + 1)

    extend((), 0)
    subsets.sort(key=lambda T: (len(T), T))
    out = []
    for T in subsets:
        m = F1Morphism(len(T), N.size, (0,) + T)
        out.append(IsotropicInflation(m, N))
    return out


def isotropic_reduction(iso):
    """The reduced form N//U on the carrier U^⊥ ∖ T, relabelled
    ascending.  ψ restricts because ψ maps U^⊥∖T into itself."""
    T = set(iso.morphism.image)
    carrier = [k for k in iso.perp() if k not in T]
    relabel = {k: j + 1 for j, k in enumerate(carrier)}
    psi = [0] * (len(carrier) + 1)
    for k in carrier:
        pk = iso.form.psi[k]
        if pk not in relabel:
            raise NotIsotropic("psi does not restrict to the reduced carrier")
        psi[relabel[k]] = relabel[pk]
    return SymmetricForm(len(carrier), tuple(psi))


def metabolic_to_hyperbolic(iso):
    """For a Lagrangian T ⊆ (S,ψ), the isometry φ: H(U) -> S with
    φ(k) = T[k] on the first block and φ(t+k) = ψ(T[k]) on the second.

    Raises NotLagrangian unless T = U^⊥.
    """
    if not iso.is_lagrangian():
        raise NotLagrangian("the isotropic subobject is not its own perp")
    T = iso.morphism.image
    t = len(T)
    S = iso.form
    mapping = [0] + [T[k] for k in range(t)] + [S.psi[T[k]] for k in range(t)]
    phi = F1Morphism(2 * t, S.size, tuple(mapping))
    H = hyperbolic(t)
    if not is_isometry(phi, H, S):
        raise NotHyperbolic("constructed comparison is not an isometry")
    return phi


def is_metabolic(N):
    """Does N admit a Lagrangian?  Returns a witness or None."""
    for iso in isotropic_subobjects(N):
        if iso.is_lagrangian():
            return iso
    return None


def split_off_form(infl, M, N):
    """Split N along a form-compatible inflation i: M >-> N.

    Requires ψ_N(im i) = im i and that i is an isometry onto its image
    (RestrictionDegenerate otherwise).  Returns (M_perp, phi) where
    M_perp is the form induced on the complement of im i and
    φ: M ⊕ M_perp -> N is the blockwise isometry.
    """
    if infl.src != M.size or infl.dst != N.size:
        raise TypeMismatch("inflation endpoints do not match the forms")
    if not is_inflation(infl):
        raise RestrictionDegenerate("not an inflation")
    image = infl.image
    if {N.psi[t] for t in image} != set(image):
        raise RestrictionDegenerate("psi does not preserve the image")
    # restricted form must equal psi_M through i
    for k in range(1, M.size + 1):
        if N.psi[infl.map[k]] != infl.map[M.psi[k]]:
            raise RestrictionDegenerate("i is not an isometry onto its image")
    rest = [k for k in range(1, N.size + 1) if k not in set(image)]
    relabel = {k: j + 1 for j, k in enumerate(rest)}
    psi = [0] * (len(rest) + 1)
    for k in rest:
        psi[relabel[k]] = relabel[N.psi[k]]
    M_perp = SymmetricForm(len(rest), tuple(psi))
    mapping = [0] + list(infl.map[1:]) + rest
    phi = F1Morphism(M.size + M_perp.size, N.size, tuple(mapping))
    if not is_isometry(phi, direct_sum_form(M, M_perp), N):
        raise RestrictionDegenerate("blockwise comparison fails")
    return M_perp, phi


def direct_sum_form(M, N):
    """(M ⊕ N, ψ_M ⊕ ψ_N)."""
    psi = list(M.psi) + [M.size + k for k in N.psi[1:]]
    return SymmetricForm(M.size + N.size, tuple(psi))


def isotropic_splitting(N, iso):
    """The isometry φ: N -> H(U) ⊕ (N//U) induced by an isotropic U.

    φ sends T[k] to k, ψ(T[k]) to t+k, and the j-th remaining carrier
    point to 2t+j; under φ the standard inclusions of H(U) and N//U
    correspond to T ∪ ψT and to U^⊥∖T.  Returns (phi, reduced).
    """
    T = iso.morphism.image
    t = len(T)
    S = iso.form
    reduced = isotropic_reduction(iso)
    rest = [k for k in iso.perp() if k not in set(T)]
    target = direct_sum_form(hyperbolic(t), reduced)
    mapping = [0] * (S.size + 1)
    for k in range(t):
        mapping[T[k]] = k + 1
        mapping[S.psi[T[k]]] = t + k + 1
    for j, k in enumerate(rest):
        mapping[k] = 2 * t + j + 1
    phi = F1Morphism(S.size, target.size, tuple(mapping))
    if not is_isometry(phi, S, target):
        raise NotHyperbolic("splitting comparison is not an isometry")
    return phi, target


def iso_simple_decomposition(N):
    """Decompose N ≅ H(t) ⊕ identity_form(f) with an explicit isometry.

    Repeatedly splits off the least 2-cycle of ψ as a singleton
    isotropic subobject; t is the number of 2-cycles and f the number
    of fixed points.  Returns (t, f, phi) with φ: N -> H(t) ⊕ id_f an
    isometry, verified on construction.
    """
    t = len(N.pairs())
    f = len(N.fixed_points())
    target = direct_sum_form(hyperbolic(t), identity_form(f))
    mapping = [0] * (N.size + 1)
    for k, (a, b) in enumerate(N.pairs()):
        mapping[a] = k + 1
        mapping[b] = t + k + 1
    for j, c in enumerate(N.fixed_points()):
        mapping[c] = 2 * t + j + 1
    phi = F1Morphism(N.size, target.size, tuple(mapping))
    if not is_isometry(phi, N, target):
        raise NotHyperbolic("decomposition comparison is not an isometry")
    return t, f, phi


@lru_cache(maxsize=None)
def involution_count(n):
    """Number of symmetric forms on {0..n} (telephone numbers):
    I(n) = I(n-1) + (n-1)·I(n-2)."""
    if n < 2:
        return 1
    return involution_count(n - 1) + (n - 1) * involution_count(n - 2)


class CommMonoidPresentation:
    """A commutative monoid by generators and relations; relations are
    pairs of multisets of generator indices (stored as sorted tuples)."""

    __slots__ = ("generators", "relations")

    def __init__(self, generators, relations):
        self.generators = tuple(generators)
        canon = []
        for lhs, rhs in relations:
            a, b = tuple(sorted(lhs)), tuple(sorted(rhs))
            if a == b:
                continue
            canon.append((a, b) if a <= b else (b, a))
        self.relations = tuple(sorted(set(canon)))

    def __str__(self):
        def word(w):
            return "+".join(str(self.generators[k]) for k in w) if w else "0"

        rels = ", ".join("%s = %s" % (word(a), word(b)) for a, b in self.relations)
        return "< %s | %s >" % (
            ", ".join(str(g) for g in self.generators),
            rels or "-",
        )

    def grothendieck_group(self):
        """Group completion as an AbelianGroupSNF."""
        from .fincat import abelian_group

        rows = []
        for lhs, rhs in self.relations:
            row = [0] * len(self.generators)
            for k in lhs:
                row[k] += 1
            for k in rhs:
                row[k] -= 1
            rows.append(row)
        return abelian_group(rows, len(self.generators))


def witt_monoid(max_size):
    """The Witt monoid of anisotropic classes within the window.

    Classes of forms of size <= max_size under splitting off hyperbolic
    summands: the anisotropic kernels are the identity forms, so the
    classes realizable in the window are id_0 .. id_{max_size}, and the
    monoid they generate is free on the class of the point form.

    Returns (presentation, classes) where classes maps each reduced
    representative to the list of (t, f) signatures of forms in the
    window reducing to it.
    """
    classes = {}
    for n in range(max_size + 1):
        for form in enumerate_forms(n):
            t, f, _ = iso_simple_decomposition(form)
            classes.setdefault(f, []).append((t, f))
    generators = ["w"]  # class of the point form id_1
    relations = []  # free: no relations among realizable classes
    pres = CommMonoidPresentation(generators, relations)
    return pres, {f: sorted(set(v)) for f, v in classes.items()}
