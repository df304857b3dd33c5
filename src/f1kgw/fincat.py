"""Explicit finite categories: exhaustive validation, functor checks,
comma constructions, and low-dimensional invariants of the nerve: π₀
(``pi0``) and π₁ᵃᵇ (``h1``, presented over the generating set).

Morphisms are dense integer ids; every table is index-based.  Each
morphism carries hashable data that tells it apart within its hom set,
and a category is built from its (src, dst, data) triples and a rule
that composes data.  Composition is kept as one table per object (a
row per morphism out of it, a column per morphism into it), about one
pointer per composable pair; ``comp`` is a read-only mapping view of
the tables.  All certification is by full enumeration over them.
The unit laws are checked on every morphism, and associativity is
certified in one of two ways: by ``build_category``, which runs Light's
test over a generating set (``generating_set``), reading every triple
whose middle is a generator, and checks every composable triple only
when that test fails; or by ``subcategory``, which restricts a category
so certified.  Ties everywhere are broken by least id, so construction
is deterministic.
The JSON export is text written from the tables one row at a time, in
the bytes of a sorted, indented ``json.dumps``, with no dict of the
whole composition in between.
"""

import json
from collections.abc import ItemsView, Mapping

from ._backend import kernel


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
    identities: object id -> id of its identity morphism.
    mor_src, mor_dst, mor_data: endpoints and payload (spans, maps, ...)
    per morphism id.  Data is hashable and tells the morphisms of one
    hom set apart, so ``find(src, dst, data)`` recovers the id.
    src_k, dst_k: the object indices of each morphism's endpoints.
    out_of, into: per object index, the ids of the morphisms out of and
    into that object, ascending.
    col: col[f] is the position of f in into[dst_k[f]].
    row: the composition tables, one per object: row[g][col[f]] is the
    id of g∘f for every f into the source of g.
    comp: a read-only mapping (g, f) -> g∘f over the tables, defined
    exactly on composable pairs.

    The constructor indexes the objects and the (src, dst, data)
    morphisms and leaves ``row`` and ``identities`` empty:
    ``build_category`` fills and certifies them, and ``subcategory``
    restricts them from its parent.  Each datum gets a dense data id,
    and each hom set one index {data id: morphism id}, keyed by the
    object indices of its src and dst; that one index serves both
    composition and ``find``.
    """

    __slots__ = (
        "objects",
        "homs",
        "identities",
        "mor_src",
        "mor_dst",
        "mor_data",
        "obj_index",
        "src_k",
        "dst_k",
        "out_of",
        "into",
        "col",
        "row",
        "_inverses",
        "_data_id",
        "_hom_index",
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
        self._hom_index = hom_index = {}  # (src k, dst k) -> {data id: morphism id}
        for m, (src, dst, data) in enumerate(morphisms):
            if src not in index or dst not in index:
                raise UnknownObject("morphism endpoint not among the objects: %r" % ((src, dst),))
            mor_src.append(src)
            mor_dst.append(dst)
            mor_data.append(data)
            key = (index[src], index[dst])
            ids = hom_index.get(key)
            if ids is None:
                ids = hom_index[key] = {}
            ids[data_id.setdefault(data, len(data_id))] = m
            keys.append(key)
        if sum(map(len, hom_index.values())) != len(keys):
            raise ValueError("morphism data repeats within a hom set")
        self.mor_src, self.mor_dst, self.mor_data = tuple(mor_src), tuple(mor_dst), tuple(mor_data)
        objects = self.objects
        self.homs = {
            (objects[a], objects[b]): tuple(ids.values()) for (a, b), ids in hom_index.items()
        }
        self.src_k = tuple(k[0] for k in keys)
        self.dst_k = tuple(k[1] for k in keys)
        out_of = [[] for _ in self.objects]
        into = [[] for _ in self.objects]
        col = [0] * len(keys)
        for m, (a, b) in enumerate(keys):
            out_of[a].append(m)
            col[m] = len(into[b])
            into[b].append(m)
        self.out_of, self.into = tuple(map(tuple, out_of)), tuple(map(tuple, into))
        self.col = tuple(col)
        self.row = ()
        self.identities = {}
        self._inverses = None

    @property
    def n_morphisms(self):
        return len(self.mor_src)

    @property
    def comp(self):
        return Composition(self)

    def hom(self, a, b):
        return self.homs.get((a, b), ())

    def compose(self, g, f):
        """Id of g∘f; KeyError unless f's target is g's source."""
        try:
            if g >= 0 and f >= 0 and self.src_k[g] == self.dst_k[f]:
                return self.row[g][self.col[f]]
        except (IndexError, TypeError):
            pass
        raise KeyError((g, f))

    def data(self, mid):
        return self.mor_data[mid]

    def find(self, src, dst, data):
        """Id of the morphism src -> dst carrying data, or None."""
        ids = self._hom_index.get((self.obj_index.get(src), self.obj_index.get(dst)))
        return None if ids is None else ids.get(self._data_id.get(data))

    def inverse(self, mid):
        """Id of the two-sided inverse, or None."""
        if self._inverses is None:
            row, col, hom_index = self.row, self.col, self._hom_index
            unit = [self.identities[o] for o in self.objects]
            inv = {}
            for m, (a, b) in enumerate(zip(self.src_k, self.dst_k)):
                rm, cm = row[m], col[m]
                for n in hom_index.get((b, a), {}).values():
                    if row[n][cm] == unit[a] and rm[col[n]] == unit[b]:
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


class Composition(Mapping):
    """The read-only mapping (g, f) -> g∘f of a category, read from its
    composition tables.  Its keys are exactly the composable pairs, by
    ascending f, then g."""

    __slots__ = ("_cat",)

    def __init__(self, cat):
        self._cat = cat

    def __getitem__(self, pair):
        try:
            g, f = pair
        except (TypeError, ValueError):
            raise KeyError(pair) from None
        return self._cat.compose(g, f)

    def __len__(self):
        return sum(map(len, self._cat.row))

    def __iter__(self):
        return (pair for pair, _ in self.items())

    def items(self):
        return _CompositionItems(self)


class _CompositionItems(ItemsView):
    __slots__ = ()

    def __iter__(self):
        cat = self._mapping._cat
        row, out_of, dst_k = cat.row, cat.out_of, cat.dst_k
        for f, cf in enumerate(cat.col):
            for g in out_of[dst_k[f]]:
                yield (g, f), row[g][cf]


def build_category(objects, morphisms, compose_data):
    """Assemble and exhaustively certify a finite category.

    objects: iterable of hashable ids.
    morphisms: iterable of (src_id, dst_id, data) triples; data repeated
    within a hom set raises ValueError.
    compose_data(g_data, f_data): the data of g∘f.  It must depend on
    the two data values alone, never on the endpoints, so that equal
    pairs of data compose alike wherever they occur.

    The composition tables and the units come from ``_tabulate``.
    Associativity is then certified by Light's test: once the unit laws
    hold and G generates, the category is associative exactly when
    (h∘g)∘f == h∘(g∘f) for every g in G and every composable f and h
    (Clifford and Preston, The Algebraic Theory of Semigroups I, §1.2).
    The middles g that pass include the identities and are closed under
    composition, so every product of generators passes.  G is
    ``generating_set(cat)``, and its closure is checked to reach every
    morphism before the test is trusted.  When either check fails,
    every triple is checked instead, a whole row of f at a time
    (AssociativityViolation with the least witnessing (f, g, h)).  The
    tables are the category's composition: ``row`` keeps them, and
    ``comp`` and ``compose`` read them.
    """
    cat = _tabulate(objects, morphisms, compose_data)
    generators, reach = generating_set(cat)
    if not _generates(cat, generators, reach) or next(
        _associativity_failures(cat, generators), None
    ):
        _certify_associativity(cat)
    return cat


def _tabulate(objects, morphisms, compose_data):
    """The category of the (src, dst, data) triples with its composition
    tables filled and its units found, associativity not yet certified.

    The composite of g and f is the morphism f.src -> g.dst carrying the
    composed data, read from the index of that hom set; a composite
    outside it raises ValueError.  Pairs are composed f first, then g,
    so the error names the first such pair in that order.  For each f,
    the hom sets out of f.src are looked up once, by target object.
    When some datum is carried by more than one morphism, each distinct
    pair of data is composed once and its result reused, from a memo
    kept per datum of f; when every datum is distinct, so is every
    pair, and nothing is memoised: a memo there costs its stores and
    saves no call.

    Every composable pair is composed into the composition table of the
    middle object: row g, column f holds g∘f.  Unit laws are checked for
    every object (UnitViolation if no unique unit exists).
    """
    cat = FiniteCategory(objects, morphisms)
    data, data_id = cat.mor_data, cat._data_id
    src_k, dst_k, out_of, into, col = cat.src_k, cat.dst_k, cat.out_of, cat.into, cat.col
    homs_out = [{} for _ in cat.objects]  # object index a -> {b: index of hom(a, b)}
    for (a, b), ids in cat._hom_index.items():
        homs_out[a][b] = ids
    memo = None
    if len(data_id) < cat.n_morphisms:
        did = [data_id[d] for d in data]  # data id of each morphism
        memo = {}  # data id of f -> {data id of g: data id of g∘f}

    # row[g][col[f]] = g∘f: the table of object o has one row per
    # morphism out of o and one column per morphism into o
    row = [[None] * len(into[k]) for k in src_k]
    empty = {}
    for f, cf in enumerate(col):
        homs, df = homs_out[src_k[f]], data[f]
        if memo is None:
            for g in out_of[dst_k[f]]:
                h = homs.get(dst_k[g], empty).get(data_id.get(compose_data(data[g], df)))
                if h is None:
                    _not_a_morphism(g, f, compose_data(data[g], df))
                row[g][cf] = h
        else:
            seen = memo.setdefault(did[f], {})
            for g in out_of[dst_k[f]]:
                dg = did[g]
                d = seen.get(dg, -1)
                if d == -1:
                    d = seen[dg] = data_id.get(compose_data(data[g], df))
                h = homs.get(dst_k[g], empty).get(d)
                if h is None:
                    _not_a_morphism(g, f, compose_data(data[g], df))
                row[g][cf] = h
    for g, r in enumerate(row):  # in place, so no second copy of the tables
        row[g] = tuple(r)
    cat.row = tuple(row)

    for k, o in enumerate(cat.objects):
        units = [
            e
            for e in cat.hom(o, o)
            if row[e] == into[k] and all(row[g][col[e]] == g for g in out_of[k])
        ]
        if len(units) != 1:
            raise UnitViolation(
                "object %r has %d units" % (o, len(units))
            )
        cat.identities[o] = units[0]
    return cat


def _not_a_morphism(g, f, composite):
    raise ValueError("composite of %d after %d is not a morphism: %r" % (g, f, composite))


def generating_set(cat):
    """A set of morphisms that generates cat under composition, and
    how each morphism is first reached from it.

    Returns (generators, reach).  The morphisms are taken largest weight
    first, the weight of m: a -> b being |into(a)|·|out(b)|, ties by
    least id; a morphism becomes a generator when the closure of the
    generators before it misses it.  The closure starts at the
    identities and grows by composing a generator on the left, reading
    only the tables.  reach maps each non-identity morphism m to the
    pair (g, c) by which the closure first reached it, m = g∘c with g a
    generator, in the order reached, so c is an identity or reached
    before m; a generator g is reached as g∘id.
    """
    row, col, src_k, dst_k, into = cat.row, cat.col, cat.src_k, cat.dst_k, cat.into
    reached = bytearray(cat.n_morphisms)
    for e in cat.identities.values():
        reached[e] = 1
    weight = [len(into[a]) * len(cat.out_of[b]) for a, b in zip(src_k, dst_k)]
    generators, reach = [], {}
    gens_out = [[] for _ in cat.objects]  # object index -> generators out of it
    for m in sorted(range(cat.n_morphisms), key=weight.__getitem__, reverse=True):
        if reached[m]:
            continue
        generators.append(m)
        gens_out[src_k[m]].append(m)
        new = []
        for c, mc in zip(into[src_k[m]], row[m]):
            if reached[c] and not reached[mc]:
                reached[mc] = 1
                reach[mc] = (m, c)
                new.append(mc)
        for c in new:  # grows while read, so each new morphism is composed on
            cc = col[c]
            for g in gens_out[dst_k[c]]:
                gc = row[g][cc]
                if not reached[gc]:
                    reached[gc] = 1
                    reach[gc] = (g, c)
                    new.append(gc)
    return tuple(generators), reach


def _generates(cat, generators, reach):
    """Does reach certify that generators generate cat?  Read in its
    order, each entry m: (g, c) must compose, in the tables, a generator
    g with an identity or a morphism reached before, and every
    non-identity morphism must be reached."""
    row, col, src_k, dst_k = cat.row, cat.col, cat.src_k, cat.dst_k
    reached = bytearray(cat.n_morphisms)
    for e in cat.identities.values():
        reached[e] = 1
    is_generator = set(generators)
    for m, (g, c) in reach.items():
        if (
            reached[m]
            or g not in is_generator
            or not reached[c]
            or src_k[g] != dst_k[c]
            or row[g][col[c]] != m
        ):
            return False
        reached[m] = 1
    return all(reached)


def _associativity_failures(cat, middles):
    """(f, g, h) with (h∘g)∘f != h∘(g∘f), for each g in middles and each
    h after it that fail: the least such f, by g, then h ascending.

    For g: c -> b and h out of b, both sides come as whole rows over the
    f into c: (h∘g)∘f is the row of h∘g as is, and h∘(g∘f) is the row of
    h read at the columns of g's composites.
    """
    row, col, out_of, into = cat.row, cat.col, cat.out_of, cat.into
    src_k, dst_k = cat.src_k, cat.dst_k
    for g in middles:
        through_g = kernel.reader([col[gf] for gf in row[g]])
        cg = col[g]
        for h in out_of[dst_k[g]]:
            rh = row[h]
            left, right = row[rh[cg]], through_g(rh)
            if left != right:
                k = next(k for k, (x, y) in enumerate(zip(left, right)) if x != y)
                yield into[src_k[g]][k], g, h


def _certify_associativity(cat):
    """Check (h∘g)∘f == h∘(g∘f) on every composable triple.  On failure
    the witness is the least (f, g, h), raised as
    AssociativityViolation(h, g, f)."""
    least = min(_associativity_failures(cat, range(cat.n_morphisms)), default=None)
    if least is not None:
        f, g, h = least
        raise AssociativityViolation(h, g, f)


class Functor:
    """Object and morphism maps between explicit finite categories."""

    __slots__ = ("source", "target", "obj_map", "mor_map")

    def __init__(self, source, target, obj_map, mor_map):
        self.source = source
        self.target = target
        self.obj_map = obj_map
        self.mor_map = mor_map

    def __call__(self, mid):
        return self.mor_map[mid]


def functor_by_data(S, T, obj_map, image_data):
    """The functor S -> T with the given object map that sends each
    morphism m to the morphism obj_map[src m] -> obj_map[dst m] of T
    carrying image_data(m).  A morphism with no such image is left
    unmapped, and ``check_functor`` reports it; so is every morphism at
    an object that obj_map misses or sends outside T, and image_data is
    not called for it.

    Each source object is looked up in T once, to its object index, and
    each morphism's image is read from the hom index of that pair of
    indices, so obj_map may name T's objects by equal values."""
    index, hom_index, data_id = T.obj_index, T._hom_index, T._data_id
    ks = [index.get(obj_map[o]) if o in obj_map else None for o in S.objects]
    mor_map = {}
    for m, (a, b) in enumerate(zip(S.src_k, S.dst_k)):
        ka, kb = ks[a], ks[b]
        if ka is not None and kb is not None:
            data = image_data(m)
            ids = hom_index.get((ka, kb))
            if ids is not None:
                image = ids.get(data_id.get(data))
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
        ks = []  # per source object, the index of its image in T, or None
        for o in S.objects:
            k = None
            if o not in F.obj_map:
                yield "object %r unmapped" % (o,)
            else:
                k = T.obj_index.get(F.obj_map[o])
                if k is None:
                    yield "object %r maps outside the target" % (o,)
            ks.append(k)
        # an object unmapped or outside T breaks its identity below too
        t_src, t_dst, broken = T.src_k, T.dst_k, False
        for m, (a, b) in enumerate(zip(S.src_k, S.dst_k)):
            fm = F.mor_map.get(m)
            if fm is None:
                broken = True
                yield "morphism %d unmapped" % m
            elif t_src[fm] != ks[a] or t_dst[fm] != ks[b]:
                broken = True
                yield "morphism %d endpoints broken" % m
        if broken:
            return
        # from here every morphism is mapped with its endpoints
        for o in S.objects:
            if F.mor_map[S.identities[o]] != T.identities[F.obj_map[o]]:
                yield "identity of %r not preserved" % (o,)
        # so the images of a composable pair are composable in T.  Row g
        # of S against T's row of F(g), read at the columns of the F(f);
        # the witness is the least (f, g) over the rows that differ.
        image, into, t_row, t_col = F.mor_map, S.into, T.row, T.col
        at_images = [kernel.reader([t_col[image[f]] for f in fs]) for fs in into]
        least = None
        for g, (rg, k) in enumerate(zip(S.row, S.src_k)):
            left, right = at_images[k](t_row[image[g]]), kernel.reader(rg)(image)
            if left != right:
                c = next(c for c, (x, y) in enumerate(zip(left, right)) if x != y)
                if least is None or (into[k][c], g) < least:
                    least = (into[k][c], g)
        if least is not None:
            f, g = least
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
    objs, morphisms = [], []
    for c, out_of_c in zip(S.objects, S.out_of):
        for m in T.hom(d, F.obj_map[c]):
            objs.append((c, m))
            morphisms.extend(
                ((c, m), (S.mor_dst[g], T.compose(F.mor_map[g], m)), g) for g in out_of_c
            )
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
        return C.row[gc][C.col[fc]], D.row[gd][D.col[fd]]

    return build_category(objs, morphisms, compose_data)


def subcategory(cat, objects, mids):
    """The subcategory on the given objects and morphism ids.

    Identities of the chosen objects are always included; the morphism
    set must be closed under composition (ValueError otherwise).  An
    object not in cat raises UnknownObject and an id outside
    range(cat.n_morphisms) ValueError.  Morphism data and the object
    order of the parent are preserved.

    Composition is the parent's tables, restricted, so associativity
    and the units hold as certified in the parent and are not checked
    again.  When every morphism is kept, cat itself is returned.
    """
    obj_set = set(objects)
    unknown = obj_set.difference(cat.obj_index)
    if unknown:
        raise UnknownObject(", ".join(sorted(map(repr, unknown))))
    keep = set(mids)
    stray = {m for m in keep if m not in range(cat.n_morphisms)}
    if stray:
        raise ValueError("not morphism ids: %s" % ", ".join(sorted(map(repr, stray))))
    chosen = _chosen(cat, obj_set)
    objects = [o for o, c in zip(cat.objects, chosen) if c]
    for o in objects:
        keep.add(cat.identities[o])
    keep = sorted(keep)
    for m in keep:
        if not chosen[cat.src_k[m]] or not chosen[cat.dst_k[m]]:
            raise ValueError("morphism %d leaves the chosen objects" % m)
    if len(keep) == cat.n_morphisms:
        return cat
    reindex = [None] * cat.n_morphisms
    for k, m in enumerate(keep):
        reindex[m] = k
    sub = FiniteCategory(objects, [(cat.mor_src[m], cat.mor_dst[m], cat.mor_data[m]) for m in keep])
    # the parent's columns of the kept morphisms into each chosen object
    cols = [[cat.col[keep[f]] for f in fs] for fs in sub.into]
    row = []
    # g ascending, then f, so the witness is the least (g, f)
    for g, k in zip(keep, sub.src_k):
        rg = cat.row[g]
        r = tuple(reindex[rg[c]] for c in cols[k])
        if None in r:
            f = keep[sub.into[k][r.index(None)]]
            raise ValueError("not closed under composition at (g=%d, f=%d)" % (g, f))
        row.append(r)
    sub.row = tuple(row)
    sub.identities.update((o, reindex[cat.identities[o]]) for o in objects)
    return sub


def full_subcategory(cat, objects):
    objects = list(objects)
    chosen = _chosen(cat, objects)
    mids = [m for m, (a, b) in enumerate(zip(cat.src_k, cat.dst_k)) if chosen[a] and chosen[b]]
    return subcategory(cat, objects, mids)


def _chosen(cat, objects):
    """Per object index of cat, 1 when that object is among objects.
    Objects not in cat are passed over: ``subcategory`` reports them."""
    chosen = bytearray(len(cat.objects))
    for o in objects:
        k = cat.obj_index.get(o)
        if k is not None:
            chosen[k] = 1
    return chosen


def _find(parent, a):
    """The root of a in the union-find forest parent, halving its path."""
    while parent[a] != a:
        parent[a] = parent[parent[a]]
        a = parent[a]
    return a


def pi0(cat):
    """Connected components of the underlying graph.

    Components are sorted by their least object index, objects within a
    component likewise; the first entry of each component is its
    representative.
    """
    parent = list(range(len(cat.objects)))
    for a, b in zip(cat.src_k, cat.dst_k):
        a, b = _find(parent, a), _find(parent, b)
        if a != b:
            if a < b:
                parent[b] = a
            else:
                parent[a] = b
    groups = {}
    for k in range(len(cat.objects)):
        groups.setdefault(_find(parent, k), []).append(k)
    out = []
    for root in sorted(groups):
        out.append(tuple(cat.objects[k] for k in sorted(groups[root])))
    return tuple(out)


def h1(cat, basepoint):
    """π₁ᵃᵇ of the nerve at the basepoint, as an AbelianGroupSNF,
    presented over the generating set.

    (generators, reach) come from ``generating_set``, and ``_generates``
    must certify them (ValueError otherwise).  The letters are the
    generators in the basepoint's component.  Each morphism m there has
    the word w(m) = g·w(c) of its first reach m = g∘c, and an identity
    the empty word.  The generators on a spanning forest of generator
    edges, taken in generator order, are killed, and each generator g
    and each c into its source give the relation w(g∘c) = g·w(c).  With
    associativity certified, induction on the length of w(h) gives
    w(h∘f) = w(h)·w(f) for every composable pair, so these relations
    present the fundamental groupoid (Reidemeister–Schreier: Magnus,
    Karrass and Solitar, Combinatorial Group Theory, ch. 2).
    """
    if basepoint not in cat.obj_index:
        raise UnknownObject(repr(basepoint))
    generators, reach = generating_set(cat)
    if not _generates(cat, generators, reach):
        raise ValueError("the generating set is not certified by its reach")
    src_k, dst_k = cat.src_k, cat.dst_k
    parent = list(range(len(cat.objects)))
    tree = []
    for g in generators:
        a, b = _find(parent, src_k[g]), _find(parent, dst_k[g])
        if a != b:
            parent[a] = b
            tree.append(g)
    base = _find(parent, cat.obj_index[basepoint])
    letter = {}  # generator of the component -> its letter, 1, 2, ...
    for g in generators:
        if _find(parent, src_k[g]) == base:
            letter[g] = len(letter) + 1
    words = [()] * cat.n_morphisms
    for m, (g, c) in reach.items():  # c is reached before m
        if g in letter:
            words[m] = (letter[g],) + words[c]
    relations = [(letter[g],) for g in tree if g in letter]
    for g, k in letter.items():
        for c, gc in zip(cat.into[src_k[g]], cat.row[g]):
            relations.append((k,) + words[c] + tuple(-s for s in words[gc]))
    return abelian_group(relations, len(letter))


class AbelianGroupSNF:
    """A finitely generated abelian group in Smith normal form: free
    rank plus the torsion chain d1 | d2 | ... (each >= 2)."""

    __slots__ = ("rank", "torsion")

    def __init__(self, rank, torsion):
        self.rank = rank
        self.torsion = torsion

    def __eq__(self, other):
        return (
            isinstance(other, AbelianGroupSNF)
            and self.rank == other.rank
            and self.torsion == other.torsion
        )

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
    inverse, and says that its letters sum to zero.  This is the one
    place where relations become rows.
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


# ---------------------------------------------------------------------------
# serialization


def _json_block(open_, items, close, indent):
    """A JSON container of pre-encoded items at the given depth, laid
    out as json.dumps lays it out with indent=2."""
    if not items:
        return open_ + close
    pad = " " * indent
    return "%s\n%s%s\n%s%s" % (open_, pad, (",\n" + pad).join(items), pad[:-2], close)


def category_to_json(cat):
    """The export as JSON text: {comp, homs, objects}, with "g,f" -> id
    of g∘f in comp, "a,b" (object indices) -> ascending ids in homs, and
    each object's str.  The bytes are those of json.dumps(..., indent=2,
    sort_keys=True) plus a newline.  comp is written straight from the
    composition tables, one string per row g, so the text itself is the
    largest thing built.
    """
    row, col, into, src_k = cat.row, cat.col, cat.into, cat.src_k
    # Keys "a,b" sort as (str(a), str(b)), because "," sorts before every
    # digit.  Per object: the morphisms f into it in that order, as the
    # key tails 'f": ' and the columns col[f].
    cols = []
    for fs in into:
        fs = sorted(fs, key=str)
        cols.append((['%d": ' % f for f in fs], [col[f] for f in fs]))
    # every row holds at least its source's identity, so none is empty
    parts, sep = ['{\n  "comp": {'], "\n    "
    for g in sorted(range(len(row)), key=str):
        heads, cs = cols[src_k[g]]
        r, lead = row[g], '"%d,' % g
        parts.append(sep + ",\n    ".join([lead + hd + str(r[c]) for hd, c in zip(heads, cs)]))
        sep = ",\n    "
    index = cat.obj_index
    homs = [
        '"%s,%s": %s' % (a, b, _json_block("[", list(map(str, ms)), "]", 6))
        for a, b, ms in sorted(
            (str(index[a]), str(index[b]), ms) for (a, b), ms in cat.homs.items()
        )
    ]
    objects = [json.dumps(str(o)) for o in cat.objects]
    parts.append(
        '%s},\n  "homs": %s,\n  "objects": %s\n}\n'
        % (
            "\n  " if row else "",
            _json_block("{", homs, "}", 4),
            _json_block("[", objects, "]", 4),
        )
    )
    return "".join(parts)


def category_to_dot(cat, name="category"):
    """Graphviz digraph: one node per object, one edge per non-identity
    morphism, in id order."""
    idents = set(cat.identities.values())
    lines = ["digraph \"%s\" {" % name]
    for k, o in enumerate(cat.objects):
        lines.append('  n%d [label="%s"];' % (k, o))
    for m, (a, b) in enumerate(zip(cat.src_k, cat.dst_k)):
        if m not in idents:
            lines.append("  n%d -> n%d [label=\"%d\"];" % (a, b, m))
    lines.append("}")
    return "\n".join(lines) + "\n"
