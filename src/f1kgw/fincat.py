"""Explicit finite categories: exhaustive validation, functor checks,
comma constructions, and low-dimensional invariants of the nerve.

Morphisms are dense integer ids; every table is index-based.  Each
morphism carries hashable data that tells it apart within its hom set,
and a category is built from its (src, dst, data) triples and a rule
that composes data.  All certification is by full enumeration over the
composition table: every category is certified by ``build_category``,
which checks associativity and the unit laws on every composable
triple and every morphism, or restricted by ``subcategory`` from one
that was.  The check runs over one composition table per object (a row
per morphism out of it, a column per morphism into it), so each
triple costs a list read, not a dict lookup, and no triple is skipped.
Ties everywhere are broken by least id, so construction is
deterministic.
"""

from collections import deque
from dataclasses import dataclass
from operator import itemgetter


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
    mor_src, mor_dst, mor_data: endpoints and payload (spans, maps, ...)
    per morphism id.  Data is hashable and tells the morphisms of one
    hom set apart, so ``find(src, dst, data)`` recovers the id.

    The constructor indexes the objects and the (src, dst, data)
    morphisms and leaves ``comp`` and ``identities`` empty:
    ``build_category`` fills and certifies them, and ``subcategory``
    restricts them from its parent.  The data index (object index of
    src, object index of dst, dense data id) -> morphism id serves both
    composition and ``find``.
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
        "_data_id",
        "_by_data",
    )

    def __init__(self, objects, morphisms):
        self.objects = tuple(objects)
        self.obj_index = index = {}
        for o in self.objects:
            if o in index:
                raise ValueError("duplicate object id %r" % (o,))
            index[o] = len(index)
        mor_src, mor_dst, mor_data, keys = [], [], [], []
        self._data_id = data_id = {}  # datum -> dense id, by first appearance
        for src, dst, data in morphisms:
            if src not in index or dst not in index:
                raise UnknownObject("morphism endpoint not among the objects: %r" % ((src, dst),))
            mor_src.append(src)
            mor_dst.append(dst)
            mor_data.append(data)
            keys.append((index[src], index[dst], data_id.setdefault(data, len(data_id))))
        self._by_data = {key: m for m, key in enumerate(keys)}
        if len(self._by_data) != len(keys):
            raise ValueError("morphism data repeats within a hom set")
        self.mor_src, self.mor_dst, self.mor_data = tuple(mor_src), tuple(mor_dst), tuple(mor_data)
        homs = {}
        for m, key in enumerate(zip(mor_src, mor_dst)):
            homs.setdefault(key, []).append(m)
        self.homs = {k: tuple(v) for k, v in homs.items()}
        self.comp = {}
        self.identities = {}
        self._inverses = None

    @property
    def n_morphisms(self):
        return len(self.mor_src)

    def hom(self, a, b):
        return self.homs.get((a, b), ())

    def compose(self, g, f):
        return self.comp[(g, f)]

    def data(self, mid):
        return self.mor_data[mid]

    def find(self, src, dst, data):
        """Id of the morphism src -> dst carrying data, or None."""
        return self._by_data.get(
            (self.obj_index.get(src), self.obj_index.get(dst), self._data_id.get(data))
        )

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


def build_category(objects, morphisms, compose_data):
    """Assemble and exhaustively certify a finite category.

    objects: iterable of hashable ids.
    morphisms: iterable of (src_id, dst_id, data) triples; data repeated
    within a hom set raises ValueError.
    compose_data(g_data, f_data): the data of g∘f.  It must depend on
    the two data values alone, never on the endpoints, so that equal
    pairs of data compose alike wherever they occur.

    The composite of g and f is the morphism f.src -> g.dst carrying the
    composed data, looked up in the category's data index; a composite
    outside that hom set raises ValueError.  When some datum is carried
    by more than one morphism, each distinct pair of data is composed
    once and its result reused; when every datum is distinct, so is
    every pair, and nothing is memoised.

    Every composable pair is composed into the composition table of the
    middle object: row g, column f holds g∘f.  Unit laws are checked for
    every object (UnitViolation if no unique unit exists).
    Associativity is checked on every composable triple, a whole row of
    f at a time (AssociativityViolation with the least witnessing
    (f, g, h)).  The tables are dropped afterwards; the category keeps
    only the (g, f) -> g∘f dict ``comp``.
    """
    cat = FiniteCategory(objects, morphisms)
    n, data, data_id, by_data = cat.n_morphisms, cat.mor_data, cat._data_id, cat._by_data
    # dense object indices and data ids, in id order
    src_k, dst_k, did = zip(*by_data) if n else ((), (), ())
    # out_of[k] / into[k] list ids in ascending order
    out_of = [[] for _ in cat.objects]
    into = [[] for _ in cat.objects]
    col = [0] * n  # col[f]: position of f in into[dst_k[f]]
    for mid in range(n):
        out_of[src_k[mid]].append(mid)
        col[mid] = len(into[dst_k[mid]])
        into[dst_k[mid]].append(mid)

    if len(data_id) == n:

        def composite(g, f):
            return data_id.get(compose_data(data[g], data[f]))

    else:
        memo = {}  # (data id of g, data id of f) -> data id of g∘f

        def composite(g, f):
            pair = (did[g], did[f])
            d = memo.get(pair, -1)
            if d == -1:
                d = memo[pair] = data_id.get(compose_data(data[g], data[f]))
            return d

    # row[g][col[f]] = g∘f: the table of object o has one row per
    # morphism out of o and one column per morphism into o
    row = [[None] * len(into[k]) for k in src_k]
    comp = cat.comp
    for f in range(n):
        cf, sf = col[f], src_k[f]
        for g in out_of[dst_k[f]]:
            h = by_data.get((sf, dst_k[g], composite(g, f)))
            if h is None:
                raise ValueError(
                    "composite of %d after %d is not a morphism: %r"
                    % (g, f, compose_data(data[g], data[f]))
                )
            row[g][cf] = h
            comp[(g, f)] = h
    for g, r in enumerate(row):  # in place, so no second copy of the tables
        row[g] = tuple(r)

    for k, o in enumerate(cat.objects):
        want = tuple(into[k])
        units = [
            e
            for e in cat.hom(o, o)
            if row[e] == want and all(row[g][col[e]] == g for g in out_of[k])
        ]
        if len(units) != 1:
            raise UnitViolation(
                "object %r has %d units" % (o, len(units))
            )
        cat.identities[o] = units[0]

    _certify_associativity(row, col, out_of, dst_k, into, src_k)
    return cat


def _certify_associativity(row, col, out_of, dst_k, into, src_k):
    """Check (h∘g)∘f == h∘(g∘f) on every composable triple.

    For g: c -> b and h out of b, both sides come as whole rows over the
    f into c: (h∘g)∘f is the row of h∘g as is, and h∘(g∘f) is the row of
    h read at the columns of g's composites.  On failure the witness is
    the least (f, g, h), raised as AssociativityViolation(h, g, f).
    """
    least = None
    for g, rg in enumerate(row):
        cols = [col[gf] for gf in rg]
        if len(cols) > 1:
            through_g = itemgetter(*cols)
        else:
            through_g = lambda r, c=cols[0]: (r[c],)
        cg = col[g]
        for h in out_of[dst_k[g]]:
            rh = row[h]
            left, right = row[rh[cg]], through_g(rh)
            if left != right:
                k = next(k for k, (x, y) in enumerate(zip(left, right)) if x != y)
                witness = (into[src_k[g]][k], g, h)
                if least is None or witness < least:
                    least = witness
    if least is not None:
        f, g, h = least
        raise AssociativityViolation(h, g, f)


@dataclass(frozen=True)
class Functor:
    """Object and morphism maps between explicit finite categories."""

    source: FiniteCategory
    target: FiniteCategory
    obj_map: dict
    mor_map: dict

    def __call__(self, mid):
        return self.mor_map[mid]


def functor_by_data(S, T, obj_map, image_data):
    """The functor S -> T with the given object map that sends each
    morphism m to the morphism obj_map[src m] -> obj_map[dst m] of T
    carrying image_data(m).  A morphism with no such image is left
    unmapped, and ``check_functor`` reports it."""
    mor_map = {}
    for m in range(S.n_morphisms):
        image = T.find(obj_map[S.mor_src[m]], obj_map[S.mor_dst[m]], image_data(m))
        if image is not None:
            mor_map[m] = image
    return Functor(S, T, obj_map, mor_map)


def check_functor(F, mode="functoriality"):
    """Certify a functor property: "" when F has it, otherwise the first
    witness against it.

    mode: functoriality | full | faithful | ess_surjective | equivalence;
    equivalence checks the other four in that order, so its witness is
    the first failure of the first property that fails.  Every mode
    reports an unmapped object or morphism that it reads as a witness.
    """
    if mode == "equivalence":
        modes = ("functoriality", "full", "faithful", "ess_surjective")
    else:
        modes = (mode,)
    return next((w for m in modes for w in _functor_witnesses(F, m)), "")


def _functor_witnesses(F, mode):
    """Witnesses that F lacks the property mode, in a fixed order."""
    S, T = F.source, F.target
    if mode == "functoriality":
        for o in S.objects:
            if o not in F.obj_map:
                yield "object %r unmapped" % (o,)
            elif F.obj_map[o] not in T.obj_index:
                yield "object %r maps outside the target" % (o,)
        for m in range(S.n_morphisms):
            fm = F.mor_map.get(m)
            if fm is None:
                yield "morphism %d unmapped" % m
            elif T.mor_src[fm] != F.obj_map[S.mor_src[m]] or T.mor_dst[fm] != F.obj_map[
                S.mor_dst[m]
            ]:
                yield "morphism %d endpoints broken" % m
        for o in S.objects:
            if F.mor_map[S.identities[o]] != T.identities[F.obj_map[o]]:
                yield "identity of %r not preserved" % (o,)
        for (g, f), gf in S.comp.items():
            if T.comp[(F.mor_map[g], F.mor_map[f])] != F.mor_map[gf]:
                yield "composition broken at (g=%d, f=%d)" % (g, f)
    elif mode in ("full", "faithful"):
        for a in S.objects:
            for b in S.objects:
                images = {}
                for m in S.hom(a, b):
                    if m in F.mor_map:
                        images.setdefault(F.mor_map[m], []).append(m)
                    else:
                        yield "morphism %d unmapped" % m
                if mode == "faithful":
                    for pre in images.values():
                        if len(pre) > 1:
                            yield "hom(%r,%r): ids %s collapse" % (a, b, pre)
                elif a not in F.obj_map or b not in F.obj_map:
                    yield "object %r unmapped" % (b if a in F.obj_map else a,)
                else:
                    want = set(T.hom(F.obj_map[a], F.obj_map[b]))
                    missing = want - set(images)
                    if missing:
                        yield "hom(%r,%r): %d target morphisms unhit" % (
                            a, b, len(missing)
                        )
    elif mode == "ess_surjective":
        hit = set()
        for o in S.objects:
            if o in F.obj_map:
                hit.add(F.obj_map[o])
            else:
                yield "object %r unmapped" % (o,)
        for t in T.objects:
            if not any(T.objects_isomorphic(h, t) for h in hit):
                yield "target object %r not reached up to iso" % (t,)
    else:
        raise ValueError("unknown mode %r" % mode)


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
    return build_category(objs, morphisms, S.compose)


def product_category(C, D):
    """C × D with componentwise composition; data records (mid, mid)."""
    objs = [(c, d) for c in C.objects for d in D.objects]
    morphisms = [
        ((C.mor_src[mc], D.mor_src[md]), (C.mor_dst[mc], D.mor_dst[md]), (mc, md))
        for mc in range(C.n_morphisms)
        for md in range(D.n_morphisms)
    ]

    def compose_data(g, f):
        (gc, gd), (fc, fd) = g, f
        return C.comp[(gc, fc)], D.comp[(gd, fd)]

    return build_category(objs, morphisms, compose_data)


def one_object_groupoid(elements, compose_fn, identity_element, label="*"):
    """B(G) for a finite group given by elements and composition."""
    elements = list(elements)
    if identity_element not in elements:
        raise ValueError("identity element missing")
    morphisms = [(label, label, e) for e in elements]
    return build_category([label], morphisms, compose_fn)


def subcategory(cat, objects, mids):
    """The subcategory on the given objects and morphism ids.

    Identities of the chosen objects are always included; the morphism
    set must be closed under composition (ValueError otherwise).  An
    object not in cat raises UnknownObject and an id outside
    range(cat.n_morphisms) ValueError.  Morphism data and the object
    order of the parent are preserved.

    Composition is the parent's, restricted, so associativity and the
    units hold as certified in the parent and are not checked again.
    """
    obj_set = set(objects)
    unknown = obj_set.difference(cat.obj_index)
    if unknown:
        raise UnknownObject(", ".join(sorted(map(repr, unknown))))
    keep = set(mids)
    stray = {m for m in keep if m not in range(cat.n_morphisms)}
    if stray:
        raise ValueError("not morphism ids: %s" % ", ".join(sorted(map(repr, stray))))
    objects = [o for o in cat.objects if o in obj_set]
    for o in objects:
        keep.add(cat.identities[o])
    keep = sorted(keep)
    into = {o: [] for o in objects}  # kept morphisms by target, ascending
    for m in keep:
        if cat.mor_src[m] not in obj_set or cat.mor_dst[m] not in obj_set:
            raise ValueError("morphism %d leaves the chosen objects" % m)
        into[cat.mor_dst[m]].append(m)
    reindex = {m: k for k, m in enumerate(keep)}
    sub = FiniteCategory(objects, [(cat.mor_src[m], cat.mor_dst[m], cat.mor_data[m]) for m in keep])
    # only composable pairs, in (g, f) order, so the witness is the least
    for g in keep:
        for f in into[cat.mor_src[g]]:
            gf = reindex.get(cat.comp[(g, f)])
            if gf is None:
                raise ValueError(
                    "not closed under composition at (g=%d, f=%d)" % (g, f)
                )
            sub.comp[(reindex[g], reindex[f])] = gf
    sub.identities.update((o, reindex[cat.identities[o]]) for o in objects)
    return sub


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
    ±(i+1) meaning generator i or its inverse, which is what
    ``abelian_group`` takes."""

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


def smith_invariants(rows):
    """Invariant factors of the integer matrix with the given sparse rows.

    rows: iterable of {column: coefficient} mappings; a column is any
    hashable label and a missing entry is zero.  Returns the nonzero
    diagonal entries d1 | d2 | ... of the Smith normal form, all
    positive, in exact integer arithmetic.

    Each pivot p is an entry ±1 if one is left, otherwise one of least
    absolute value.  Row operations clear p's column and column
    operations its row; a nonzero remainder is smaller than p and becomes
    the pivot.  A row that p does not divide is added to p's row, and the
    clearing goes on; otherwise |p| is the next invariant, and p's row
    and column are dropped.
    """
    rows = [r for r in ({c: v for c, v in r.items() if v} for r in rows) if r]
    invariants = []
    while rows:
        units = ((i, c) for i, r in enumerate(rows) for c in r if r[c] in (1, -1))
        i, c = next(units, None) or min(
            ((i, c) for i, r in enumerate(rows) for c in r),
            key=lambda ic: abs(rows[ic[0]][ic[1]]),
        )
        prow = rows.pop(i)
        while True:
            p = prow[c]
            for k in [k for k, r in enumerate(rows) if c in r]:
                r, q = rows[k], rows[k][c] // p
                for j, x in prow.items():
                    r[j] = r.get(j, 0) - q * x
                    if not r[j]:
                        del r[j]
                if c in r:  # a remainder smaller than p: the new pivot
                    rows[k], prow = prow, r
                    break
            else:  # column c is clear, so column operations touch prow only
                bad = abs(p) > 1 and next(
                    (r for r in [prow, *rows] if any(v % p for v in r.values())), None
                )
                if not bad:
                    invariants.append(abs(p))
                    break
                rest = {j: v % p for j, v in bad.items() if v % p}
                prow = {c: p, **rest}
                c = min(rest, key=lambda j: abs(rest[j]))
        rows = [r for r in rows if r]
    return invariants


def abelian_group(relations, ngens):
    """The abelian group on ngens generators subject to the relator
    words, as an AbelianGroupSNF.

    A word is a tuple of nonzero ints, ±(i+1) meaning generator i or its
    inverse (GroupPresentation's convention), and says that its letters
    sum to zero.  This is the one place where relations become rows.
    """
    rows = []
    for w in relations:
        row = {}
        for s in w:
            row[abs(s)] = row.get(abs(s), 0) + (1 if s > 0 else -1)
        rows.append(row)
    invariants = smith_invariants(rows)
    return AbelianGroupSNF(
        rank=ngens - len(invariants),
        torsion=tuple(d for d in invariants if d > 1),
    )


def abelianize(pres):
    """Abelianization of a presentation as an AbelianGroupSNF."""
    return abelian_group(pres.relations, len(pres.generators))


# ---------------------------------------------------------------------------
# serialization


def category_to_json(cat):
    """{objects, homs, comp} with object indices in the hom keys; the
    keys come in table order, so dump with sort_keys for stable bytes."""
    return {
        "objects": [str(o) for o in cat.objects],
        "homs": {
            "%d,%d" % (cat.obj_index[a], cat.obj_index[b]): list(ms)
            for (a, b), ms in cat.homs.items()
        },
        "comp": {"%d,%d" % (g, f): h for (g, f), h in cat.comp.items()},
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
    morphisms = [(mor_src[m], mor_dst[m], m) for m in range(n)]
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
