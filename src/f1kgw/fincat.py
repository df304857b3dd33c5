"""Explicit finite categories: exhaustive validation, functor checks,
comma constructions, and low-dimensional invariants of the nerve.

Morphisms are dense integer ids; every table is index-based.  All
certification is by full enumeration over the composition table: a
FiniteCategory built through ``build_category`` has had associativity
and the unit laws checked on every composable triple and every
morphism.  Ties everywhere are broken by least id, so construction is
deterministic.
"""

from collections import deque
from dataclasses import dataclass, field


class AssociativityViolation(Exception):
    def __init__(self, h, g, f):
        self.witness = (h, g, f)
        super().__init__("(h∘g)∘f != h∘(g∘f) for morphism ids h=%d g=%d f=%d" % (h, g, f))


class UnitViolation(Exception):
    pass


class UnknownObject(KeyError):
    pass


class FiniteCategory:
    """An explicit finite category.

    objects: tuple of hashable ids (their order fixes the object index).
    homs: (src_id, dst_id) -> tuple of morphism ids.
    comp: (g, f) -> id of g∘f, defined exactly on composable pairs.
    identities: object id -> id of its identity morphism.
    mor_data: optional payload per morphism id (spans, maps, ...).  Data
    is hashable and tells the morphisms of one hom set apart, so
    ``find(src, dst, data)`` recovers the id; ``find`` on a category
    without data is an error.
    """

    __slots__ = (
        "objects",
        "homs",
        "comp",
        "identities",
        "mor_src",
        "mor_dst",
        "mor_data",
        "obj_index",
        "_inverses",
        "_by_data",
    )

    def __init__(self, objects, homs, comp, identities, mor_src, mor_dst, mor_data=None):
        self.objects = tuple(objects)
        self.homs = dict(homs)
        self.comp = dict(comp)
        self.identities = dict(identities)
        self.mor_src = tuple(mor_src)
        self.mor_dst = tuple(mor_dst)
        self.mor_data = tuple(mor_data) if mor_data is not None else None
        self.obj_index = {o: k for k, o in enumerate(self.objects)}
        self._inverses = None
        self._by_data = None

    @property
    def n_morphisms(self):
        return len(self.mor_src)

    def hom(self, a, b):
        return self.homs.get((a, b), ())

    def compose(self, g, f):
        return self.comp[(g, f)]

    def data(self, mid):
        return self.mor_data[mid] if self.mor_data is not None else None

    def find(self, src, dst, data):
        """Id of the morphism src -> dst carrying data, or None."""
        if self._by_data is None:
            if self.mor_data is None:
                raise ValueError("the category carries no morphism data")
            self._by_data = _data_index(
                list(zip(self.mor_src, self.mor_dst, self.mor_data))
            )
        return self._by_data.get((src, dst, data))

    def inverse(self, mid):
        """Id of the two-sided inverse, or None."""
        if self._inverses is None:
            inv = {}
            for m in range(self.n_morphisms):
                a, b = self.mor_src[m], self.mor_dst[m]
                for n in self.hom(b, a):
                    if (
                        self.comp[(n, m)] == self.identities[a]
                        and self.comp[(m, n)] == self.identities[b]
                    ):
                        inv[m] = n
                        break
            self._inverses = inv
        return self._inverses.get(mid)

    def is_iso(self, mid):
        return self.inverse(mid) is not None

    def objects_isomorphic(self, a, b):
        if a == b:
            return True
        return any(self.is_iso(m) for m in self.hom(a, b))

    def __repr__(self):
        return "FiniteCategory(%d objects, %d morphisms)" % (
            len(self.objects),
            self.n_morphisms,
        )


def build_category(objects, morphisms, comp_rule):
    """Assemble and exhaustively certify a finite category.

    objects: iterable of hashable ids.
    morphisms: iterable of (src_id, dst_id) or (src_id, dst_id, data).
    comp_rule(g, f): morphism id of g∘f for every composable pair.

    Every composable pair is composed once; unit laws are checked for
    every object (UnitViolation if no unique unit exists) and
    associativity on every composable triple (AssociativityViolation
    with the witnessing ids).
    """
    objects = tuple(objects)
    index = {}
    for o in objects:
        if o in index:
            raise ValueError("duplicate object id %r" % (o,))
        index[o] = len(index)
    mor_src, mor_dst, mor_data = [], [], []
    has_data = False
    for m in morphisms:
        if len(m) == 3:
            src, dst, data = m
            has_data = True
        else:
            src, dst = m
            data = None
        if src not in index or dst not in index:
            raise UnknownObject("morphism endpoint not among the objects: %r" % ((src, dst),))
        mor_src.append(src)
        mor_dst.append(dst)
        mor_data.append(data)
    homs = {}
    for mid in range(len(mor_src)):
        homs.setdefault((mor_src[mid], mor_dst[mid]), []).append(mid)
    homs = {k: tuple(v) for k, v in homs.items()}
    by_src = {}
    by_dst = {}
    for mid in range(len(mor_src)):
        by_src.setdefault(mor_src[mid], []).append(mid)
        by_dst.setdefault(mor_dst[mid], []).append(mid)

    comp = {}
    for f in range(len(mor_src)):
        for g in by_src.get(mor_dst[f], ()):
            h = comp_rule(g, f)
            if not isinstance(h, int) or not 0 <= h < len(mor_src):
                raise ValueError("comp_rule returned a bad id %r" % (h,))
            if mor_src[h] != mor_src[f] or mor_dst[h] != mor_dst[g]:
                raise ValueError(
                    "composite of %d after %d has wrong endpoints" % (g, f)
                )
            comp[(g, f)] = h

    identities = {}
    for o in objects:
        units = []
        for e in homs.get((o, o), ()):
            if all(comp[(e, f)] == f for f in by_dst.get(o, ())) and all(
                comp[(g, e)] == g for g in by_src.get(o, ())
            ):
                units.append(e)
        if len(units) != 1:
            raise UnitViolation(
                "object %r has %d units" % (o, len(units))
            )
        identities[o] = units[0]

    for (g, f), gf in comp.items():
        for h in by_src.get(mor_dst[g], ()):
            if comp[(comp[(h, g)], f)] != comp[(h, gf)]:
                raise AssociativityViolation(h, g, f)

    return FiniteCategory(
        objects,
        homs,
        comp,
        identities,
        mor_src,
        mor_dst,
        mor_data if has_data else None,
    )


def _data_index(morphisms):
    """(src, dst, data) -> position in the list of such entries; raises
    ValueError when data repeats within a hom set."""
    index = {entry: m for m, entry in enumerate(morphisms)}
    if len(index) != len(morphisms):
        raise ValueError("morphism data repeats within a hom set")
    return index


def compose_by_data(morphisms, compose_data):
    """A comp_rule for build_category over (src, dst, data) morphisms.

    compose_data(g, f) receives the entries of g and f and returns the
    data of g∘f; the composite is the morphism f.src -> g.dst carrying
    it.  A composite outside its hom set raises ValueError.
    """
    index = _data_index(morphisms)

    def comp_rule(g, f):
        eg, ef = morphisms[g], morphisms[f]
        data = compose_data(eg, ef)
        mid = index.get((ef[0], eg[1], data))
        if mid is None:
            raise ValueError(
                "composite of %d after %d is not a morphism: %r" % (g, f, data)
            )
        return mid

    return comp_rule


@dataclass(frozen=True)
class Functor:
    """Object and morphism maps between explicit finite categories."""

    source: FiniteCategory
    target: FiniteCategory
    obj_map: dict
    mor_map: dict

    def __call__(self, mid):
        return self.mor_map[mid]


@dataclass
class FunctorReport:
    mode: str
    ok: bool
    failures: list = field(default_factory=list)

    def line(self):
        status = "pass" if self.ok else "FAIL"
        text = "functor %-16s %s" % (self.mode, status)
        if self.failures:
            text += "  e.g. %s" % self.failures[0]
        return text


def check_functor(F, mode="functoriality"):
    """Certify a functor property; reports rather than raises.

    mode: functoriality | full | faithful | ess_surjective | equivalence.
    """
    if mode == "equivalence":
        reports = [
            check_functor(F, m)
            for m in ("functoriality", "full", "faithful", "ess_surjective")
        ]
        merged = FunctorReport(
            mode="equivalence",
            ok=all(r.ok for r in reports),
            failures=[f for r in reports for f in r.failures],
        )
        return merged
    S, T = F.source, F.target
    failures = []
    if mode == "functoriality":
        for o in S.objects:
            if o not in F.obj_map:
                failures.append("object %r unmapped" % (o,))
                continue
            if F.obj_map[o] not in T.obj_index:
                failures.append("object %r maps outside the target" % (o,))
        for m in range(S.n_morphisms):
            fm = F.mor_map.get(m)
            if fm is None:
                failures.append("morphism %d unmapped" % m)
                continue
            if T.mor_src[fm] != F.obj_map[S.mor_src[m]] or T.mor_dst[fm] != F.obj_map[
                S.mor_dst[m]
            ]:
                failures.append("morphism %d endpoints broken" % m)
        if not failures:
            for o in S.objects:
                if F.mor_map[S.identities[o]] != T.identities[F.obj_map[o]]:
                    failures.append("identity of %r not preserved" % (o,))
            for (g, f), gf in S.comp.items():
                if T.comp[(F.mor_map[g], F.mor_map[f])] != F.mor_map[gf]:
                    failures.append("composition broken at (g=%d, f=%d)" % (g, f))
                    break
    elif mode in ("full", "faithful"):
        for a in S.objects:
            for b in S.objects:
                images = {}
                for m in S.hom(a, b):
                    images.setdefault(F.mor_map[m], []).append(m)
                if mode == "faithful":
                    for fm, pre in images.items():
                        if len(pre) > 1:
                            failures.append(
                                "hom(%r,%r): ids %s collapse" % (a, b, pre)
                            )
                else:
                    want = set(T.hom(F.obj_map[a], F.obj_map[b]))
                    missing = want - set(images)
                    if missing:
                        failures.append(
                            "hom(%r,%r): %d target morphisms unhit"
                            % (a, b, len(missing))
                        )
    elif mode == "ess_surjective":
        hit = set(F.obj_map[o] for o in S.objects)
        for t in T.objects:
            if not any(T.objects_isomorphic(h, t) for h in hit):
                failures.append("target object %r not reached up to iso" % (t,))
    else:
        raise ValueError("unknown mode %r" % mode)
    return FunctorReport(mode=mode, ok=not failures, failures=failures)


def comma_category(F, d):
    """The right comma category d\\F.

    Objects are pairs (c, m) with c a source object and m: d -> F(c) in
    the target; a morphism (c, m) -> (c', m') is a source morphism
    g: c -> c' with F(g)∘m = m'.  Morphism data records g.
    """
    S, T = F.source, F.target
    if d not in T.obj_index:
        raise UnknownObject(repr(d))
    objs = []
    for c in S.objects:
        for m in T.hom(d, F.obj_map[c]):
            objs.append((c, m))
    morphisms = []
    for (c, m) in objs:
        for g in range(S.n_morphisms):
            if S.mor_src[g] == c:
                dst = (S.mor_dst[g], T.comp[(F.mor_map[g], m)])
                morphisms.append(((c, m), dst, g))
    comp_rule = compose_by_data(morphisms, lambda gg, ff: S.comp[(gg[2], ff[2])])
    return build_category(objs, morphisms, comp_rule)


def product_category(C, D):
    """C × D with componentwise composition; data records (mid, mid)."""
    objs = [(c, d) for c in C.objects for d in D.objects]
    morphisms = [
        ((C.mor_src[mc], D.mor_src[md]), (C.mor_dst[mc], D.mor_dst[md]), (mc, md))
        for mc in range(C.n_morphisms)
        for md in range(D.n_morphisms)
    ]

    def compose_data(g, f):
        (gc, gd), (fc, fd) = g[2], f[2]
        return C.comp[(gc, fc)], D.comp[(gd, fd)]

    return build_category(objs, morphisms, compose_by_data(morphisms, compose_data))


def one_object_groupoid(elements, compose_fn, identity_element, label="*"):
    """B(G) for a finite group given by elements and composition."""
    elements = list(elements)
    if identity_element not in elements:
        raise ValueError("identity element missing")
    morphisms = [(label, label, e) for e in elements]
    comp_rule = compose_by_data(morphisms, lambda g, f: compose_fn(g[2], f[2]))
    return build_category([label], morphisms, comp_rule)


def subcategory(cat, objects, mids):
    """The subcategory on the given objects and morphism ids.

    Identities of the chosen objects are always included; the morphism
    set must be closed under composition (ValueError otherwise).
    Morphism data and the object order of the parent are preserved.
    """
    objects = [o for o in cat.objects if o in set(objects)]
    keep = set(mids)
    for o in objects:
        keep.add(cat.identities[o])
    keep = sorted(keep)
    obj_set = set(objects)
    for m in keep:
        if cat.mor_src[m] not in obj_set or cat.mor_dst[m] not in obj_set:
            raise ValueError("morphism %d leaves the chosen objects" % m)
    reindex = {m: k for k, m in enumerate(keep)}
    for g in keep:
        for f in keep:
            if (g, f) in cat.comp:
                if cat.comp[(g, f)] not in reindex:
                    raise ValueError(
                        "not closed under composition at (g=%d, f=%d)" % (g, f)
                    )
    morphisms = [
        (
            cat.mor_src[m],
            cat.mor_dst[m],
            cat.data(m),
        )
        for m in keep
    ]

    def comp_rule(g, f):
        return reindex[cat.comp[(keep[g], keep[f])]]

    return build_category(objects, morphisms, comp_rule)


def full_subcategory(cat, objects):
    obj_set = set(objects)
    mids = [
        m
        for m in range(cat.n_morphisms)
        if cat.mor_src[m] in obj_set and cat.mor_dst[m] in obj_set
    ]
    return subcategory(cat, objects, mids)


def pi0(cat):
    """Connected components of the underlying graph.

    Components are sorted by their least object index, objects within a
    component likewise; the first entry of each component is its
    representative.
    """
    parent = list(range(len(cat.objects)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for m in range(cat.n_morphisms):
        a = find(cat.obj_index[cat.mor_src[m]])
        b = find(cat.obj_index[cat.mor_dst[m]])
        if a != b:
            if a < b:
                parent[b] = a
            else:
                parent[a] = b
    groups = {}
    for k in range(len(cat.objects)):
        groups.setdefault(find(k), []).append(k)
    out = []
    for root in sorted(groups):
        out.append(tuple(cat.objects[k] for k in sorted(groups[root])))
    return tuple(out)


@dataclass(frozen=True)
class GroupPresentation:
    """Generators with relator words; words are tuples of nonzero ints,
    ±(i+1) meaning generator i or its inverse."""

    generators: tuple
    relations: tuple

    def __str__(self):
        def word(w):
            if not w:
                return "1"
            parts = []
            for s in w:
                name = str(self.generators[abs(s) - 1])
                parts.append(name if s > 0 else name + "^-1")
            return "·".join(parts)

        return "< %s | %s >" % (
            ", ".join(str(g) for g in self.generators),
            ", ".join(word(w) for w in self.relations),
        )


def pi1_presentation(cat, basepoint):
    """Fundamental group of the nerve's 2-skeleton at the basepoint.

    Generators are the non-identity morphisms of the basepoint's
    component; relations kill a BFS spanning tree (built in least-id
    order over the underlying undirected graph) and impose one triangle
    word f·g·(g∘f)⁻¹ per composable pair.  Identity morphisms are left
    out: their triangles are trivial once the degenerate edges are
    collapsed.
    """
    if basepoint not in cat.obj_index:
        raise UnknownObject(repr(basepoint))
    component = None
    for comp in pi0(cat):
        if basepoint in comp:
            component = set(comp)
            break
    idents = set(cat.identities.values())
    mids = [
        m
        for m in range(cat.n_morphisms)
        if cat.mor_src[m] in component and m not in idents
    ]
    gen_index = {m: k for k, m in enumerate(mids)}

    neighbors = {}
    for m in mids:
        neighbors.setdefault(cat.mor_src[m], []).append((cat.mor_dst[m], m))
        neighbors.setdefault(cat.mor_dst[m], []).append((cat.mor_src[m], m))
    for o in neighbors:
        neighbors[o].sort(key=lambda t: (cat.obj_index[t[0]], t[1]))

    tree = set()
    visited = {basepoint}
    queue = deque([basepoint])
    while queue:
        o = queue.popleft()
        for other, m in neighbors.get(o, ()):
            if other not in visited:
                visited.add(other)
                tree.add(m)
                queue.append(other)

    def word(m):
        if m in idents:
            return ()
        return (gen_index[m] + 1,)

    relations = [word(m) for m in sorted(tree)]
    for (g, f), gf in sorted(cat.comp.items()):
        if f in idents or g in idents:
            continue
        if cat.mor_src[f] not in component:
            continue
        w = word(f) + word(g) + tuple(-s for s in reversed(word(gf)))
        relations.append(w)
    return GroupPresentation(
        generators=tuple(mids),
        relations=tuple(relations),
    )


@dataclass(frozen=True)
class AbelianGroupSNF:
    """A finitely generated abelian group in Smith normal form: free
    rank plus the torsion chain d1 | d2 | ... (each >= 2)."""

    rank: int
    torsion: tuple

    def __str__(self):
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append("Z^%d" % self.rank)
        parts += ["Z/%d" % d for d in self.torsion]
        return " x ".join(parts) if parts else "0"

    def to_json(self):
        return {"rank": self.rank, "torsion": list(self.torsion)}


def smith_invariants(rows, ncols):
    """Invariant factors of the integer matrix (list of rows).

    Classical Smith reduction with exact integer arithmetic; returns the
    nonzero diagonal entries d1 | d2 | ..., all positive.
    """
    A = [list(r) for r in rows]
    nrows = len(A)
    invariants = []
    t = 0
    while t < nrows and t < ncols:
        # find a pivot
        pr = pc = -1
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                v = abs(A[i][j])
                if v and (best is None or v < best):
                    best, pr, pc = v, i, j
        if best is None:
            break
        A[t], A[pr] = A[pr], A[t]
        for row in A:
            row[t], row[pc] = row[pc], row[t]
        while True:
            pivot = A[t][t]
            done = True
            for i in range(t + 1, nrows):
                if A[i][t]:
                    q = A[i][t] // pivot
                    for j in range(t, ncols):
                        A[i][j] -= q * A[t][j]
                    if A[i][t]:
                        A[t], A[i] = A[i], A[t]
                        done = False
                        break
            if not done:
                continue
            for j in range(t + 1, ncols):
                if A[t][j]:
                    q = A[t][j] // pivot
                    for row in A:
                        row[j] -= q * row[t]
                    if A[t][j]:
                        for row in A:
                            row[t], row[j] = row[j], row[t]
                        done = False
                        break
            if done:
                break
        # enforce divisibility of the remaining block
        pivot = abs(A[t][t])
        fixed = True
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if A[i][j] % pivot:
                    for jj in range(t, ncols):
                        A[t][jj] += A[i][jj]
                    fixed = False
                    break
            if not fixed:
                break
        if not fixed:
            continue
        invariants.append(pivot)
        t += 1
    return invariants


def abelian_group(rows, ngens):
    """The abelian group on ngens generators subject to the integer
    relation rows, as an AbelianGroupSNF."""
    invariants = smith_invariants(rows, ngens)
    return AbelianGroupSNF(
        rank=ngens - len(invariants),
        torsion=tuple(d for d in invariants if d > 1),
    )


def abelianize(pres):
    """Abelianization of a presentation as an AbelianGroupSNF."""
    ngen = len(pres.generators)
    rows = []
    for w in pres.relations:
        row = [0] * ngen
        for s in w:
            row[abs(s) - 1] += 1 if s > 0 else -1
        rows.append(row)
    return abelian_group(rows, ngen)


# ---------------------------------------------------------------------------
# serialization


def category_to_json(cat):
    """{objects, homs, comp} with object indices in the hom keys."""
    return {
        "objects": [str(o) for o in cat.objects],
        "homs": {
            "%d,%d" % (cat.obj_index[a], cat.obj_index[b]): list(ms)
            for (a, b), ms in sorted(
                cat.homs.items(),
                key=lambda kv: (cat.obj_index[kv[0][0]], cat.obj_index[kv[0][1]]),
            )
        },
        "comp": {"%d,%d" % (g, f): h for (g, f), h in sorted(cat.comp.items())},
    }


def category_from_json(data):
    """Rebuild a category from the export; identities are re-detected."""
    objects = list(data["objects"])
    n = 0
    mor_src, mor_dst = {}, {}
    for key, ms in data["homs"].items():
        a, b = (int(x) for x in key.split(","))
        for m in ms:
            mor_src[m] = objects[a]
            mor_dst[m] = objects[b]
            n = max(n, m + 1)
    comp = {}
    for key, h in data["comp"].items():
        g, f = (int(x) for x in key.split(","))
        comp[(g, f)] = h
    morphisms = [(mor_src[m], mor_dst[m]) for m in range(n)]
    return build_category(objects, morphisms, lambda g, f: comp[(g, f)])


def category_to_dot(cat, name="category"):
    """Graphviz digraph: one node per object, one edge per non-identity
    morphism, in id order."""
    idents = set(cat.identities.values())
    lines = ["digraph \"%s\" {" % name]
    for k, o in enumerate(cat.objects):
        lines.append('  n%d [label="%s"];' % (k, o))
    for m in range(cat.n_morphisms):
        if m in idents:
            continue
        lines.append(
            "  n%d -> n%d [label=\"%d\"];"
            % (cat.obj_index[cat.mor_src[m]], cat.obj_index[cat.mor_dst[m]], m)
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
