"""Pure-Python kernel: maps of finite pointed sets as int tuples.

A map n -> m is a tuple t of length n+1 with t[0] = 0, values in 0..m,
and distinct nonzero values (injective outside the fibre over 0).

Composition is a gather: g∘f reads g at the slots of f, so compose and
reader hand the reading to ``operator.itemgetter`` and loop over no slot
in Python.

Each square test reads the four legs of one square and nothing else.
Only what depends on a single map is cached for the process: its image
and kernel, and a leg's index tables, their tallies and whether each
table is injective, shared by every square that has that leg; a
universal check pairs two legs' tables only when neither is injective.
Hom sets are cached by hom_maps; fresh_hom_maps builds one that a scan
reads once and drops.
"""

from collections import Counter
from functools import lru_cache
from itertools import compress, filterfalse
from operator import itemgetter, mul

BACKEND = "py"


def is_valid_map(f, dst):
    if not f or f[0] != 0:
        return False
    seen = set()
    for v in f[1:]:
        if v < 0 or v > dst:
            return False
        if v != 0:
            if v in seen:
                return False
            seen.add(v)
    return True


def identity(n):
    return tuple(range(n + 1))


def zero_map(src, dst):
    return (0,) * (src + 1)


def compose(g, f):
    """(g∘f)[i] = g[f[i]].  Requires len(g) = dst(f)+1."""
    if len(f) > 1:
        return itemgetter(*f)(g)
    return reader(f)(g)


def reader(f):
    """The function g ↦ g∘f, for a loop that composes many g after the
    same f.  It returns a tuple also when f has one slot or none, where
    itemgetter alone would return the value or refuse."""
    if len(f) > 1:
        return itemgetter(*f)
    if f:
        return lambda g, v=f[0]: (g[v],)
    return lambda g: ()


def adjoint(f, dst):
    """Transpose of the partial injection: adj[n] = m iff f[m] = n."""
    adj = [0] * (dst + 1)
    for m, v in enumerate(f):
        if v != 0:
            adj[v] = m
    return tuple(adj)


def block_sum(f, g, f_dst):
    """f ⊕ g: the blocks of g follow those of f, shifted past f_dst."""
    return f + tuple([v + f_dst if v != 0 else 0 for v in g[1:]])


def pullback_legs(b, r, w_size, v_size):
    """The legs (l, t) of the elementwise pullback of W -b-> X <-r- V.

    The pullback U has one element per w in W whose b(w) has an
    r-preimage v (l = w, t = v), then one per v in the kernel of r
    (l = 0, t = v), both ascending.
    """
    rinv = {r[v]: v for v in range(1, v_size + 1) if r[v] != 0}
    l, t = [0], [0]
    for w in range(1, w_size + 1):
        v = rinv.get(b[w])
        if v is not None:
            l.append(w)
            t.append(v)
    for v in range(1, v_size + 1):
        if r[v] == 0:
            l.append(0)
            t.append(v)
    return tuple(l), tuple(t)


def pushout_legs(l, t, w_size, v_size):
    """The legs (b, r) of the elementwise pushout of W <-l- U -t-> V, and
    the size of X.

    X is W∖0 first, then the points of V that t misses, ascending: b is
    the inclusion of W, r sends t(u) to l(u) and each missed point to its
    own new point.  Requires t to be injective.
    """
    back = adjoint(t, v_size)
    r = list(compose(l, back))
    x_size = w_size
    for v in range(1, v_size + 1):
        if back[v] == 0:
            x_size += 1
            r[v] = x_size
    return identity(w_size), tuple(r), x_size


@lru_cache(maxsize=None)
def _points(n):
    """The list [1, .., n]."""
    return list(range(1, n + 1))


@lru_cache(maxsize=None)
def _image(f):
    """The nonzero values of f, as a set."""
    return frozenset(filter(None, f))


@lru_cache(maxsize=None)
def _kernel_points(f):
    """The nonzero elements that f sends to 0, ascending."""
    return [v for v in range(1, len(f)) if f[v] == 0]


@lru_cache(maxsize=None)
def _sorted_values(f):
    """The nonzero values of f, ascending."""
    return sorted(filter(None, f))


@lru_cache(maxsize=None)
def _zero_mask(f):
    """For every slot of f, whether it is a nonzero element sent to 0."""
    return (False,) + tuple(v == 0 for v in f[1:])


def is_pullback(l, t, b, r, u_size, v_size, w_size, x_size):
    """Is the commuting square (shape as in ``universal_square_ok``) a
    pullback, i.e. is its comparison into the elementwise pullback a
    bijection?  Sound when t is injective; l may be arbitrary.

    An element of U is named by its W image, or by its V image when
    that is 0; the elementwise pullback's elements are named (w, 0) for
    each w whose b(w) is hit by r and (0, v) for each v in the kernel of
    r.  The square is a pullback exactly when the two multisets of names
    agree.  What depends on one leg only (r's image and kernel, l's
    sorted values and zero slots) is cached by the map and shared by
    every square with that leg.
    """
    matched = list(compress(range(w_size + 1), map(_image(r).__contains__, b)))
    return matched == _sorted_values(l) and sorted(compress(t, _zero_mask(l))) == _kernel_points(r)


def is_pushout(l, t, b, r, u_size, v_size, w_size, x_size):
    """Is the commuting square a pushout, i.e. is the comparison out of
    the elementwise pushout (W∖0, then the points of V that t misses) a
    bijection?  Sound when l is surjective.

    b's values on W∖0 and r's at the points that t misses must hit each
    point of X exactly once.  t's image and the list 1..x are pure
    functions of t and of x, cached and shared by every square; each
    square still sorts its own images.
    """
    missed = filterfalse(_image(t).__contains__, _points(v_size))
    return sorted(b[1:] + tuple(map(r.__getitem__, missed))) == _points(x_size)


def is_injective(f):
    """Injective everywhere, i.e. no nonzero element maps to 0."""
    return 0 not in f[1:]


def is_surjective(f, dst):
    """Surjective onto the nonzero part of the codomain: a map's nonzero
    values are distinct, so it hits dst points when dst slots after
    slot 0 are nonzero."""
    values = f[1:]
    return len(values) - values.count(0) == dst


def fresh_hom_maps(src, dst):
    """All maps src -> dst in lexicographic order of the value tuple,
    enumerated afresh on each call: a scan that reads a hom set once
    drops it when done, where hom_maps would keep it for the process."""
    out = []
    cur = [0] * (src + 1)

    def rec(i, used):
        if i > src:
            out.append(tuple(cur))
            return
        cur[i] = 0
        rec(i + 1, used)
        for v in range(1, dst + 1):
            if not used & (1 << v):
                cur[i] = v
                rec(i + 1, used | (1 << v))
        cur[i] = 0

    rec(1, 0)
    return tuple(out)


@lru_cache(maxsize=None)
def hom_maps(src, dst):
    """fresh_hom_maps(src, dst), kept for the process."""
    return fresh_hom_maps(src, dst)


@lru_cache(maxsize=None)
def inflation_maps(src, dst):
    return tuple(f for f in hom_maps(src, dst) if is_injective(f))


@lru_cache(maxsize=None)
def deflation_maps(src, dst):
    return tuple(f for f in hom_maps(src, dst) if is_surjective(f, dst))


@lru_cache(maxsize=None)
def _hom_index(src, dst):
    """The position of each map in hom_maps(src, dst)."""
    return {m: k for k, m in enumerate(hom_maps(src, dst))}


def post_table(g, n, src, dst):
    """For every c in hom_maps(n, src), in that order, the index of g∘c
    in hom_maps(n, dst), where g: src -> dst."""
    index = _hom_index(n, dst)
    return tuple(index[compose(g, c)] for c in hom_maps(n, src))


def pre_table(f, n, src, dst):
    """For every c in hom_maps(dst, n), in that order, the index of c∘f
    in hom_maps(src, n), where f: src -> dst."""
    index = _hom_index(src, n)
    return tuple(index[compose(c, f)] for c in hom_maps(dst, n))


@lru_cache(maxsize=None)
def _leg(g, src, dst):
    """What universal_square_ok reads of the leg g: src -> dst.  Entry n
    is (post_table, its tally, pre_table, its tally, is post_table
    injective, is pre_table injective) for the test object of size n;
    the list is filled by _leg_upto up to the largest n asked for, so a
    leg has one entry whatever bound its squares use, and it lives for
    the process.  The tables repeat few distinct composites (159 in
    8,222 entries for axiom_suite(4)), hence the tallies; a table is
    injective when its tally has one key per entry."""
    return []


def _leg_upto(g, src, dst, bound):
    """_leg(g, src, dst), filled for every n <= bound."""
    tables = _leg(g, src, dst)
    for n in range(len(tables), bound + 1):
        post, pre = post_table(g, n, src, dst), pre_table(g, n, src, dst)
        post_tally, pre_tally = Counter(post), Counter(pre)
        injective = len(post_tally) == len(post), len(pre_tally) == len(pre)
        tables.append((post, post_tally, pre, pre_tally, *injective))
    return tables


def _bijective(first, second, left, right, injective):
    """Is m ↦ (first[m], second[m]), over the hom set that first is
    indexed by, a bijection onto the index pairs (i, j) with
    left[i] == right[j], given the tallies left and right of those two
    index tables?  It is when it is injective and the hom set has as
    many maps as there are pairs: the sum of left[k] * right[k] over the
    indices k of left.  injective says that first or second is injective
    on its own, which makes the map injective; only when it is false
    are the two tables paired."""
    if not injective and len(set(zip(first, second))) != len(first):
        return False
    return sum(map(mul, left.values(), map(right.__getitem__, left))) == len(first)


def universal_square_ok(l, t, b, r, u_size, v_size, w_size, x_size, bound):
    """Check the square is a pullback and a pushout against every test
    object of size <= bound.  Square shape: l: U->W, t: U->V, b: W->X,
    r: V->X with b∘l = r∘t (inflations t,b; deflations l,r).

    At each test object T = n <= bound the pullback comparison
    hom(T, U) -> {(c, d): b∘c = r∘d}, m ↦ (l∘m, t∘m), and the pushout
    comparison hom(X, T) -> {(c, d): c∘l = d∘t}, m ↦ (m∘b, m∘r), must be
    bijections; the check stops at the first that is not.  The
    composites come from index tables: post_table holds the index of
    g∘c for every c: T -> src(g), pre_table that of c∘f for every
    c: dst(f) -> T.  A leg's tables and tallies are a pure function of
    that map and its endpoints, so they are computed once per process,
    for every n <= bound, and shared by every square that has that leg.
    """
    legs = zip(
        _leg_upto(l, u_size, w_size, bound)[: bound + 1],
        _leg_upto(t, u_size, v_size, bound),
        _leg_upto(b, w_size, x_size, bound),
        _leg_upto(r, v_size, x_size, bound),
    )
    return all(
        _bijective(l_post, t_post, b_post_tally, r_post_tally, l_post_inj or t_post_inj)
        and _bijective(b_pre, r_pre, l_pre_tally, t_pre_tally, b_pre_inj or r_pre_inj)
        for (
            (l_post, _, _, l_pre_tally, l_post_inj, _),
            (t_post, _, _, t_pre_tally, t_post_inj, _),
            (_, b_post_tally, b_pre, _, _, b_pre_inj),
            (_, r_post_tally, r_pre, _, _, r_pre_inj),
        ) in legs
    )
