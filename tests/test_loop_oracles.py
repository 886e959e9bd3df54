"""The closed forms of the finite half against the loops they replaced.

`loop_oracle` keeps the generate-and-test loops as they were.  The strong
corpus is every strong GT on up to 4 points, 2,000 sampled 5-point spaces,
300 sampled 6-point spaces and a few sampled 7-point ones; the separation
profile is also checked on seeded GTs that are not strong.
"""

import operator
import random
import time
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtopo.errors import NoExtension
from gtopo.spaces import (FiniteGT, canonical_family, clopen_separator,
                          close_under, enumerate_strong_gts,
                          generated_topology, sample_strong_gts,
                          separation_profile)
from gtopo.urysohn import (EMPTY_U_FAMILY, decide_gul_pair, decide_ul_pair,
                           extend_u_family)

import loop_oracle as oracle


@pytest.fixture(scope="module")
def strong_corpus():
    # the 7-point spaces cost the most in the pair tests, so they are few
    return ([s for n in range(5) for s in enumerate_strong_gts(n)]
            + sample_strong_gts(5, 2000, seed=1405)
            + sample_strong_gts(6, 300, seed=1406)
            + sample_strong_gts(7, 40, seed=1407))


def non_strong_gts(count: int, seed: int) -> list[FiniteGT]:
    """Distinct seeded GTs on 1..6 points whose opens miss some point, so
    the whole space is not open: the union of the opens is drawn first."""
    rng = random.Random(seed)
    seen, out = set(), []
    while len(out) < count:
        n = rng.randint(1, 6)
        full = (1 << n) - 1
        top = rng.randrange(full)
        gens = [rng.randrange(full + 1) & top
                for _ in range(rng.randint(0, 5))]
        opens = canonical_family(oracle.close_under([0, *gens]))
        if (n, opens) not in seen:
            seen.add((n, opens))
            out.append(FiniteGT(n, opens))
    return out


def test_profile_and_tau_match_loops(strong_corpus):
    for s in strong_corpus:
        assert separation_profile(s) == oracle.separation_profile(s)
        assert generated_topology(s) == oracle.generated_topology(s)


def test_profile_matches_loop_on_non_strong_gts():
    spaces = non_strong_gts(1200, seed=1408)
    assert not any(s.is_strong for s in spaces)
    t0 = set()
    for s in spaces:
        profile = separation_profile(s)
        assert profile == oracle.separation_profile(s)
        t0.add(profile.t0)
    assert t0 == {True, False}


def test_ul_pair_matches_loop(strong_corpus):
    # up to 2 pairs a space where the fiber of b is searched: both sides
    # nonempty and a clopen separator
    rng = random.Random(1409)
    longer = 0
    for s in strong_corpus:
        pairs = [(a, b) for a in s.closeds for b in s.closeds
                 if a and b and not a & b]
        rng.shuffle(pairs)
        for a, b in islice((p for p in pairs
                            if clopen_separator(s, *p) is not None), 2):
            f = decide_ul_pair(s, a, b)
            assert f == oracle.decide_ul_pair(s, a, b)
            assert decide_gul_pair(s, a, b) is not None
            longer += len(f.levels) > 2
    assert longer >= 2000


def extensions(extend, space, a, b, length):
    """The families met extending the empty family up to length pairs, and
    the blocking pair of the NoExtension that stops it, if any."""
    fam, out = EMPTY_U_FAMILY, []
    for _ in range(length):
        try:
            fam = extend(space, fam, a, b)
        except NoExtension as exc:
            return out, exc.blocking
        out.append(fam)
    return out, None


def test_extend_u_family_matches_loop(strong_corpus):
    rng = random.Random(1410)
    blocked = grown = 0
    for s in strong_corpus:
        pairs = [(a, b) for a in s.closeds for b in s.closeds
                 if a and b and not a & b]
        for a, b in rng.sample(pairs, min(1, len(pairs))):
            got = extensions(extend_u_family, s, a, b, 3)
            assert got == extensions(oracle.extend_u_family, s, a, b, 3)
            blocked += got[1] is not None
            grown += len(got[0]) == 3
    assert blocked >= 900 and grown >= 3000


@settings(max_examples=100, deadline=None)
@given(masks=st.lists(st.integers(0, 63), max_size=10),
       op=st.sampled_from([operator.or_, operator.and_]))
def test_close_under_matches_pairwise_loop(masks, op):
    assert close_under(masks, op) == oracle.close_under(masks, op)


POWERSET12 = FiniteGT(12, canonical_family(range(1 << 12)))


def test_tau_of_the_largest_family_is_fast():
    # 4,096 opens, the most the loader accepts; the loops took seconds
    start = time.perf_counter()
    assert generated_topology(POWERSET12) == POWERSET12
    assert time.perf_counter() - start < 1.0

