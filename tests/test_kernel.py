"""Oracle tests for the map kernel: its hom-set and class enumerations
against an independent brute-force enumeration, and the kernel that the
package reports using."""

import itertools

import pytest

import f1kgw
from f1kgw import _corepy


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
