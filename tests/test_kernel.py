"""Oracle tests for the map kernel: its hom-set and class enumerations
against an independent brute-force enumeration, its composition tables
and universal-property check against plain composition, and the kernel
that the package reports using."""

import itertools

import pytest

import f1kgw
from f1kgw import _corepy
from f1kgw.pointed import _commuting_squares, axiom_suite


def all_maps(src, dst):
    """Independent enumeration: every map tuple, validity by filter."""
    out = []
    for tail in itertools.product(range(dst + 1), repeat=src):
        f = (0,) + tail
        nonzero = [v for v in tail if v]
        if len(nonzero) == len(set(nonzero)):
            out.append(f)
    return out


@pytest.mark.parametrize("src", range(4))
@pytest.mark.parametrize("dst", range(4))
def test_hom_enumeration_matches_brute_force(src, dst):
    assert sorted(_corepy.hom_maps(src, dst)) == sorted(all_maps(src, dst))


def test_class_enumerations_match_definitions():
    for u in range(4):
        for v in range(4):
            brute = sorted(all_maps(u, v))
            # inflations: injective everywhere, nothing nonzero sent to 0
            injective = [f for f in brute if 0 not in f[1:]]
            # deflations: every nonzero element of the codomain is hit
            surjective = [f for f in brute if set(range(1, v + 1)) <= set(f)]
            assert sorted(_corepy.inflation_maps(u, v)) == injective
            assert sorted(_corepy.deflation_maps(u, v)) == surjective


def test_package_computes_with_the_pure_kernel():
    assert f1kgw.BACKEND == "py"
    assert f1kgw._backend.kernel is _corepy


def generator_compose(g, f):
    """compose as it was before it built a list, kept as the oracle."""
    return tuple(g[v] for v in f)


def looped_is_injective(f):
    """is_injective as it was before it asked ``0 in``, kept as the
    oracle."""
    return all(v != 0 for v in f[1:])


def looped_is_surjective(f, dst):
    """is_surjective as it was before it counted the zeros, kept as the
    oracle."""
    hit = 0
    for v in f[1:]:
        if v != 0:
            hit += 1
    return hit == dst


def generator_block_sum(f, g, f_dst):
    """block_sum as it was before it built a list, kept as the oracle."""
    return f + tuple(v + f_dst if v != 0 else 0 for v in g[1:])


def test_rewritten_kernel_functions_match_their_former_bodies():
    hom_maps = _corepy.hom_maps
    sized = [(m, b) for a, b in itertools.product(range(5), repeat=2) for m in hom_maps(a, b)]
    maps = [m for m, _ in sized]
    assert len(maps) == 499
    # not maps: a nonzero slot 0, repeated values, negative values, empty
    malformed = [(1, 0, 2), (2, 2), (0, 1, 1, 0), (0, 0, 0), (0, -1, 2), (3,), ()]
    verdicts = set()
    for f in maps + malformed:
        assert _corepy.is_injective(f) == looped_is_injective(f), f
        # every codomain a slot can name, and one below and above them
        for dst in range(-1, 6):
            onto = looped_is_surjective(f, dst)
            assert _corepy.is_surjective(f, dst) == onto, (f, dst)
            verdicts.add((f in malformed, onto))
    assert {looped_is_injective(f) for f in malformed} == {True, False}
    # both verdicts occur among the maps and among the malformed tuples
    assert len(verdicts) == 4
    summands = sorted(set(maps)) + malformed
    for f, f_dst in sized:
        for g in summands:
            assert _corepy.block_sum(f, g, f_dst) == generator_block_sum(f, g, f_dst), (f, g)
    pairs = 0
    for a, b, c in itertools.product(range(4), repeat=3):
        for f in hom_maps(a, b):
            through_f = _corepy.reader(f)
            for g in hom_maps(b, c):
                want = generator_compose(g, f)
                assert _corepy.compose(g, f) == through_f(g) == want
                pairs += 1
    assert pairs == 3396
    odd = ((malformed[0], (0, 2, 2, 1)), ((0, 3, 1), malformed[1]), ((4, 5), (1, 1, 0)))
    # f with one slot or none: still a tuple, where itemgetter alone
    # would return a value or refuse
    short = (((0, 2), (0,)), ((7, 8), (1,)), ((0, 1), ()), ((), ()))
    for g, f in odd + short:
        want = generator_compose(g, f)
        assert _corepy.compose(g, f) == _corepy.reader(f)(g) == want
        assert type(_corepy.compose(g, f)) is type(_corepy.reader(f)(g)) is tuple


def former_pushout_legs(l, t, w_size, v_size):
    """The legs that complete_pushout computed itself before the kernel
    had pushout_legs, kept as the oracle."""
    back = _corepy.adjoint(t, v_size)
    rmap = list(_corepy.compose(l, back))
    x_size = w_size
    for v in range(1, v_size + 1):
        if back[v] == 0:
            x_size += 1
            rmap[v] = x_size
    return _corepy.identity(w_size), tuple(rmap), x_size


def test_pushout_legs_match_the_former_completion():
    spans = 0
    for u, w, v in itertools.product(range(4), repeat=3):
        for l in _corepy.hom_maps(u, w):
            for t in _corepy.inflation_maps(u, v):
                got = _corepy.pushout_legs(l, t, w, v)
                assert got == former_pushout_legs(l, t, w, v), (l, t)
                spans += 1
    assert spans == 580


def test_composition_tables_match_compose():
    hom_maps = _corepy.hom_maps
    for src, dst, n in itertools.product(range(4), repeat=3):
        for g in hom_maps(src, dst):
            post = _corepy.post_table(g, n, src, dst)
            pre = _corepy.pre_table(g, n, src, dst)
            assert len(post) == len(hom_maps(n, src))
            assert len(pre) == len(hom_maps(dst, n))
            for k, c in enumerate(hom_maps(n, src)):
                assert hom_maps(n, dst)[post[k]] == _corepy.compose(g, c)
            for k, c in enumerate(hom_maps(dst, n)):
                assert hom_maps(src, n)[pre[k]] == _corepy.compose(c, g)


def names_is_pullback(l, t, b, r, u_size, v_size, w_size, x_size):
    """The pair-naming definition that is_pullback had before it compared
    integer lists, kept as the oracle: name an element of U by its W
    image, or by its V image when that is 0, and compare the sorted
    names with those of the elementwise pullback's legs."""

    def names(left, top):
        return sorted((left[e], 0 if left[e] else top[e]) for e in range(1, len(left)))

    return names(l, t) == names(*_corepy.pullback_legs(b, r, w_size, v_size))


def listed_is_pushout(l, t, b, r, u_size, v_size, w_size, x_size):
    """The list comparison that is_pushout made before it cached what
    depends on one leg, kept as the oracle: the images of W∖0 and of the
    points of V that t misses, sorted, are 1..x."""
    hit = set(t[1:])
    images = list(b[1:]) + [r[v] for v in range(1, v_size + 1) if v not in hit]
    return sorted(images) == list(range(1, x_size + 1))


def test_is_pullback_matches_the_pair_names():
    # Also covers is_pushout, against the list comparison: on every
    # quadruple of maps with corners <= 2, commuting or not, and on every
    # square that the suite enumerates at window 3 with hom_maps in both
    # classes, so that neither criterion's soundness condition holds.
    hom_maps = _corepy.hom_maps
    quadruples = [
        (l, t, b, r, u, v, w, x)
        for u, v, w, x in itertools.product(range(3), repeat=4)
        for l, t, b, r in itertools.product(
            hom_maps(u, w), hom_maps(u, v), hom_maps(w, x), hom_maps(v, x)
        )
    ]
    assert len(quadruples) == 5568
    verdicts = {"pullback": {}, "pushout": {}}
    for sq in quadruples:
        commutes = _corepy.compose(sq[2], sq[0]) == _corepy.compose(sq[3], sq[1])
        for name, got, want in (
            ("pullback", _corepy.is_pullback(*sq), names_is_pullback(*sq)),
            ("pushout", _corepy.is_pushout(*sq), listed_is_pushout(*sq)),
        ):
            assert got == want, (name, sq)
            tally = verdicts[name]
            tally[commutes, want] = tally.get((commutes, want), 0) + 1
    # both verdicts occur on squares that commute and on squares that do not
    assert len(verdicts["pullback"]) == len(verdicts["pushout"]) == 4
    squares = list(_commuting_squares(3, hom_maps, hom_maps))
    assert len(squares) == 3678
    seen = set()
    for sq in squares:
        pb, po = names_is_pullback(*sq), listed_is_pushout(*sq)
        assert _corepy.is_pullback(*sq) == pb, sq
        assert _corepy.is_pushout(*sq) == po, sq
        seen.add((pb, po))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def enumerated_universal_failure(l, t, b, r, u_size, v_size, w_size, x_size, bound):
    """The compose-per-map check that the tables replaced, kept as the
    oracle: "" when the square passes, else which test failed first
    ("duplicate": the comparison is not injective; "count": it misses
    some matched pair)."""
    compose, hom_maps = _corepy.compose, _corepy.hom_maps
    for n in range(bound + 1):
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
                return "duplicate"
            seen.add(key)
        if len(seen) != pairs:
            return "count"
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
                return "duplicate"
            seen.add(key)
        if len(seen) != pairs:
            return "count"
    return ""


def summed_square(s1, s2):
    l1, t1, b1, r1, u1, v1, w1, x1 = s1
    l2, t2, b2, r2, u2, v2, w2, x2 = s2
    return (
        _corepy.block_sum(l1, l2, w1),
        _corepy.block_sum(t1, t2, v1),
        _corepy.block_sum(b1, b2, x1),
        _corepy.block_sum(r1, r2, x1),
        u1 + u2,
        v1 + v2,
        w1 + w2,
        x1 + x2,
    )


def test_universal_square_ok_matches_the_enumeration():
    honest = list(_commuting_squares(2, _corepy.inflation_maps, _corepy.deflation_maps))
    widened = list(_commuting_squares(2, _corepy.hom_maps, _corepy.hom_maps))
    bicartesian = [
        sq for sq in honest if _corepy.is_pullback(*sq) and _corepy.is_pushout(*sq)
    ]
    summed = [
        summed_square(s1, s2) for s1, s2 in itertools.product(bicartesian, repeat=2)
    ]
    assert len(summed) == 676
    reasons = {}
    for squares, bound in ((honest, 3), (widened, 3), (summed, 2)):
        for sq in squares:
            reason = enumerated_universal_failure(*sq, bound)
            assert _corepy.universal_square_ok(*sq, bound) == (reason == ""), sq
            reasons[reason] = reasons.get(reason, 0) + 1
    # both ways of failing occur, so neither branch goes unchecked
    assert reasons["duplicate"] > 0 and reasons["count"] > 0 and reasons[""] > 0


def test_per_leg_caches_hold_one_entry_per_leg(monkeypatch):
    # The caches behind the square checks are keyed by one map (and its
    # endpoints), so after a whole suite they hold at most one entry per
    # distinct leg: their memory follows the maps, not the squares, nor
    # the two universal-property bounds that the suite uses.  The suite
    # reaches the tables through universal_square_ok and through the
    # halves that axioms iv and v keep, and the per-map caches through
    # is_pullback and is_pushout and through the parts that axiom iii
    # keeps; every one of these entry points records what it reads.
    per_map = (
        _corepy._image,
        _corepy._kernel_points,
        _corepy._sorted_values,
        _corepy._zero_mask,
    )
    for cache in per_map + (_corepy._leg,):
        cache.cache_clear()
    intrinsic_calls, maps, legs, bounds = [0], set(), set(), set()

    def square(l, t, b, r, u, v, w, x, *bound):
        if bound:
            bounds.update(bound)
            legs.update({(l, u, w), (t, u, v), (b, w, x), (r, v, x)})
        else:
            intrinsic_calls[0] += 1
            maps.update({l, t, b, r})

    def span_half(l, t, u, v, w, bound):
        bounds.add(bound)
        legs.update({(l, u, w), (t, u, v)})

    def cospan_half(b, r, w, v, x, bound):
        bounds.add(bound)
        legs.update({(b, w, x), (r, v, x)})

    def intrinsic(*legs_read):
        intrinsic_calls[0] += 1
        maps.update(legs_read)

    records = {
        "is_pullback": square,
        "is_pushout": square,
        "universal_square_ok": square,
        "span_half": span_half,
        "cospan_half": cospan_half,
        "span_key": lambda l, t: intrinsic(l, t),
        "cospan_key": lambda b, r, w: intrinsic(b, r),
        "missed_images": lambda t, r, v: intrinsic(t, r),
        "covers_once": lambda b, missed, x: intrinsic(b),
    }

    # only the calls the suite makes are recorded, not those that one
    # entry point makes of another (is_pullback of span_key, say)
    depth = [0]

    def recording(check, record):
        def wrapper(*args):
            if not depth[0]:
                record(*args)
            depth[0] += 1
            try:
                return check(*args)
            finally:
                depth[0] -= 1

        return wrapper

    for name, record in records.items():
        monkeypatch.setattr(_corepy, name, recording(getattr(_corepy, name), record))
    assert axiom_suite(4).ok
    assert bounds == {2, 3}
    assert _corepy._leg.cache_info().currsize == len(legs) == 179
    for leg in legs:
        assert len(_corepy._leg(*leg)) in (3, 4)
    assert _corepy._leg.cache_info().currsize == len(legs)
    assert intrinsic_calls[0] == 19274 and len(maps) == 155
    for cache in per_map:
        assert 0 < cache.cache_info().currsize <= len(maps)
