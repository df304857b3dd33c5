"""Pure-Python kernel: maps of finite pointed sets as int tuples.

A map n -> m is a tuple t of length n+1 with t[0] = 0, values in 0..m,
and distinct nonzero values (injective outside the fibre over 0).
"""

from collections import Counter
from functools import lru_cache

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
    return tuple(g[v] for v in f)


def adjoint(f, dst):
    """Transpose of the partial injection: adj[n] = m iff f[m] = n."""
    adj = [0] * (dst + 1)
    for m, v in enumerate(f):
        if v != 0:
            adj[v] = m
    return tuple(adj)


def block_sum(f, g, f_dst):
    """f ⊕ g: the blocks of g follow those of f, shifted past f_dst."""
    return f + tuple(v + f_dst if v != 0 else 0 for v in g[1:])


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


def is_pullback(l, t, b, r, u_size, v_size, w_size, x_size):
    """Is the commuting square (shape as in ``universal_square_ok``) a
    pullback, i.e. is its comparison into the elementwise pullback a
    bijection?  Sound when t is injective; l may be arbitrary.

    An element of U is named by its W image, or by its V image when that
    is 0; the elementwise pullback has the names (w, 0) for the w whose
    b(w) is hit by r and (0, v) for v in the kernel of r.  So the names
    agree as multisets exactly when the sorted nonzero l(e) are those w
    and the sorted t(e) with l(e) = 0 are that kernel.
    """
    hit = set(r[1:])
    hit.discard(0)
    matched = [w for w in range(1, w_size + 1) if b[w] in hit]
    if sorted(w for w in l[1:] if w) != matched:
        return False
    ker = [v for v in range(1, v_size + 1) if r[v] == 0]
    return sorted(v for w, v in zip(l[1:], t[1:]) if w == 0) == ker


def is_pushout(l, t, b, r, u_size, v_size, w_size, x_size):
    """Is the commuting square a pushout, i.e. is the comparison out of
    the elementwise pushout (W∖0, then the points of V that t misses) a
    bijection?  Sound when l is surjective."""
    hit = set(t[1:])
    images = list(b[1:]) + [r[v] for v in range(1, v_size + 1) if v not in hit]
    return sorted(images) == list(range(1, x_size + 1))


def is_injective(f):
    """Injective everywhere, i.e. no nonzero element maps to 0."""
    return all(v != 0 for v in f[1:])


def is_surjective(f, dst):
    """Surjective onto the nonzero part of the codomain."""
    hit = 0
    for v in f[1:]:
        if v != 0:
            hit += 1
    return hit == dst


@lru_cache(maxsize=None)
def hom_maps(src, dst):
    """All maps src -> dst in lexicographic order of the value tuple."""
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
def inflation_maps(src, dst):
    return tuple(f for f in hom_maps(src, dst) if is_injective(f))


@lru_cache(maxsize=None)
def deflation_maps(src, dst):
    return tuple(f for f in hom_maps(src, dst) if is_surjective(f, dst))


@lru_cache(maxsize=None)
def _hom_index(src, dst):
    """The position of each map in hom_maps(src, dst)."""
    return {m: k for k, m in enumerate(hom_maps(src, dst))}


@lru_cache(maxsize=None)
def post_table(g, n, src, dst):
    """For every c in hom_maps(n, src), in that order, the index of g∘c
    in hom_maps(n, dst), where g: src -> dst."""
    index = _hom_index(n, dst)
    return tuple(index[compose(g, c)] for c in hom_maps(n, src))


@lru_cache(maxsize=None)
def pre_table(f, n, src, dst):
    """For every c in hom_maps(dst, n), in that order, the index of c∘f
    in hom_maps(src, n), where f: src -> dst."""
    index = _hom_index(src, n)
    return tuple(index[compose(c, f)] for c in hom_maps(dst, n))


@lru_cache(maxsize=None)
def _tally(table, *args):
    """How often each index occurs in table(*args): the tables repeat few
    distinct composites (159 in 8,222 entries for axiom_suite(4))."""
    return Counter(table(*args))


def _bijective(first, second, domain, left, right):
    """Is m ↦ (first[m], second[m]), over a hom set of size domain, a
    bijection onto the index pairs (i, j) with left[i] == right[j]?
    left and right are the tallies of those index tables."""
    if len(set(zip(first, second))) != domain:
        return False
    return sum(count * right[k] for k, count in left.items()) == domain


def universal_square_ok(l, t, b, r, u_size, v_size, w_size, x_size, bound):
    """Check the square is a pullback and a pushout against every test
    object of size <= bound.  Square shape: l: U->W, t: U->V, b: W->X,
    r: V->X with b∘l = r∘t (inflations t,b; deflations l,r).

    Every test object T = n <= bound is still enumerated and every map
    compared.  The composites come from the cached tables: post_table
    holds the index of g∘c for every c: T -> src(g), pre_table that of
    c∘f for every c: dst(f) -> T, so each leg's composites are computed
    and tallied once per process and shared by every square that has
    that leg.  The pullback comparison hom(T,U) -> {(c,d): b∘c = r∘d}
    is a bijection exactly when the (l∘m, t∘m) are pairwise distinct
    and as many as the matched pairs; dually for the pushout.
    """
    for n in range(bound + 1):
        if not _bijective(
            post_table(l, n, u_size, w_size),
            post_table(t, n, u_size, v_size),
            len(hom_maps(n, u_size)),
            _tally(post_table, b, n, w_size, x_size),
            _tally(post_table, r, n, v_size, x_size),
        ):
            return False
        if not _bijective(
            pre_table(b, n, w_size, x_size),
            pre_table(r, n, v_size, x_size),
            len(hom_maps(x_size, n)),
            _tally(pre_table, l, n, u_size, w_size),
            _tally(pre_table, t, n, u_size, v_size),
        ):
            return False
    return True
