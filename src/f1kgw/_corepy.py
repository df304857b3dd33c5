"""Pure-Python kernel: maps of finite pointed sets as int tuples.

A map n -> m is a tuple t of length n+1 with t[0] = 0, values in 0..m,
and distinct nonzero values (injective outside the fibre over 0).
"""

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
    bijection?  Sound when t is injective; l may be arbitrary."""

    # name an element by its W image, or by its V image when that is 0
    def names(left, top):
        return sorted((left[e], 0 if left[e] else top[e]) for e in range(1, len(left)))

    return names(l, t) == names(*pullback_legs(b, r, w_size, v_size))


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


def universal_square_ok(l, t, b, r, u_size, v_size, w_size, x_size, bound):
    """Check the square is a pullback and a pushout against every test
    object of size <= bound.  Square shape: l: U->W, t: U->V, b: W->X,
    r: V->X with b∘l = r∘t (inflations t,b; deflations l,r)."""
    for n in range(bound + 1):
        # pullback: hom(T,U) -> {(c,d): b∘c = r∘d} must be bijective
        tally = {}
        for c in hom_maps(n, w_size):
            k = compose(b, c)
            tally[k] = tally.get(k, 0) + 1
        pairs = 0
        for d in hom_maps(n, v_size):
            m = tally.get(compose(r, d))
            if m:
                pairs += m
        seen = set()
        for m in hom_maps(n, u_size):
            key = (compose(l, m), compose(t, m))
            if key in seen:
                return False
            seen.add(key)
        if len(seen) != pairs:
            return False
        # pushout: hom(X,T) -> {(c,d): c∘l = d∘t} must be bijective
        tally = {}
        for c in hom_maps(w_size, n):
            k = compose(c, l)
            tally[k] = tally.get(k, 0) + 1
        pairs = 0
        for d in hom_maps(v_size, n):
            m = tally.get(compose(d, t))
            if m:
                pairs += m
        seen = set()
        for m in hom_maps(x_size, n):
            key = (compose(m, b), compose(m, r))
            if key in seen:
                return False
            seen.add(key)
        if len(seen) != pairs:
            return False
    return True
