"""Differential test of HochschildChain.is_zero against the full multilinear
expansion of every string, which is slow but obviously exact."""

import itertools
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from mfchern.hochschild import GeometricCategory, HochschildChain, connes_B, hochschild_b
from mfchern.mf import MorphismCochain

from .formal_retract import RETRACT, FormalMorphism, expanded
from .test_hochschild import line_objects, proj_pool, random_chain, random_morphism


def fraction_slot_decompose(self, a):
    """GeometricCategory.slot_decompose as it was when its sums started from
    Fraction(0), so that every value it returns is a Fraction."""
    pairs = {}
    for lab, q in self.decompose(a):
        pairs[lab] = pairs.get(lab, Fraction(0)) + q
    if a.source is a.target:
        ident = self._identity_labels.get(id(a.source))
        if ident is None:
            ident = [lab for lab, _q in self.decompose(self.identity(a.source))]
            self._identity_labels[id(a.source)] = ident
        lam = pairs.get(min(ident))
        if lam:
            for lab in ident:
                left = pairs.get(lab, Fraction(0)) - lam
                if left:
                    pairs[lab] = left
                else:
                    pairs.pop(lab, None)
    return [(lab, q) for lab, q in pairs.items() if q]


def verdicts(x):
    """(new verdict, oracle verdict)."""
    return x.is_zero(), not expanded(x)


# -- chain generators --------------------------------------------------------


def split_slot(rng, x, draw):
    """A chain equal to zero whose strings do not cancel one by one: for one
    string a0[..|s|..] of x and a value t drawn like s, the chain
    a0[..|t|..] + a0[..|s - t|..] - a0[..|s|..].  Returns None when x has no
    string with slots."""
    cat = x.category
    strings = [string for string in x.items() if string[2]]
    if not strings:
        return None
    m, a0, slots = rng.choice(strings)
    j = rng.randrange(len(slots))
    s = slots[j]
    t = draw(rng, s)

    def with_slot(value):
        return slots[:j] + (value,) + slots[j + 1:]

    items = [
        (1, m, a0, with_slot(t)),
        (1, m, a0, with_slot(s + t.scale(-1))),
        (-1, m, a0, slots),
    ]
    return HochschildChain(cat, x.u_truncation, x.tensor_cap, items)


def draw_geometric(rng, s):
    """A random morphism with the shape and parity of s; sometimes shifted
    by a multiple of the identity, which is zero in a slot."""
    t = random_morphism(rng, s.source, s.target, s.parity(), 2, nterms=3)
    if s.source is s.target and s.parity() == 0 and rng.random() < 0.3:
        t = t + MorphismCochain.identity(s.source, 2).scale(rng.randint(-2, 2))
    return t


def random_formal(rng, source, target):
    names = [n for n in ("1P", "g", "f", "1N", "pi")
             if FormalMorphism.basis(n).source == source
             and FormalMorphism.basis(n).target == target]
    return FormalMorphism(source, target, {
        n: Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for n in names
    })


def draw_formal(rng, s):
    return random_formal(rng, s.source, s.target)


def random_formal_chain(rng, cap=6, nstrings=3, max_n=4):
    items = []
    for _ in range(nstrings):
        n = rng.randint(0, max_n)
        route = [rng.choice("PN") for _ in range(n + 1)]
        slots = tuple(
            random_formal(rng, route[j + 1] if j < n else route[0], route[j])
            for j in range(1, n + 1)
        )
        a0 = random_formal(rng, route[1] if n else route[0], route[0])
        items.append((1, rng.randint(0, 1), a0, slots))
    return HochschildChain(RETRACT, 1, cap, items)


def geometric_cases(rng, cat, objects):
    """Random chains with and without relations: x itself, x against its
    copy one power of u up, b(b(x)), and a split-slot zero chain with and
    without x added."""
    x = random_chain(rng, cat, objects, 2, 6, max_n=2, nterms=3)
    yield x
    yield x - x.shift_u(1)
    yield hochschild_b(hochschild_b(x))
    zero = split_slot(rng, x, draw_geometric)
    if zero is not None:
        yield zero
        yield zero + x
        yield zero + connes_B(x)


def formal_cases(rng):
    x = random_formal_chain(rng)
    yield x
    yield x - x.shift_u(1)
    yield connes_B(connes_B(x))
    zero = split_slot(rng, x, draw_formal)
    if zero is not None:
        yield zero
        yield zero + x
        yield zero - hochschild_b(x)


# -- tests ---------------------------------------------------------------------


def test_dependent_slot_values_cancel():
    """a0[a] + a0[b] - a0[a + b] is zero although no two strings merge."""
    sch, (P, Q) = line_objects()
    cat = GeometricCategory(sch, 2)
    rng = random.Random(11)
    a0 = random_morphism(rng, P, P, 0, 2)
    a = random_morphism(rng, P, P, 1, 2)
    b = random_morphism(rng, P, P, 1, 2)
    x = HochschildChain(cat, 2, 4, [(1, 0, a0, (a,)), (1, 0, a0, (b,)), (-1, 0, a0, (a + b,))])
    assert len(x.strings) == 3
    assert verdicts(x) == (True, True)
    y = HochschildChain(cat, 2, 4, [(1, 0, a0, (a,)), (1, 0, a0, (b,)), (-1, 0, a0, (a + b.scale(2),))])
    assert verdicts(y) == (False, False)

    g, f = FormalMorphism.basis("g"), FormalMorphism.basis("f")
    pi, one = FormalMorphism.basis("pi"), FormalMorphism.basis("1N")
    # 1_N is a scalar identity, so pi + 1_N equals pi in a slot
    z = HochschildChain(RETRACT, 0, 4, [(1, 0, g, (f, pi)), (-1, 0, g, (f, pi + one))])
    assert len(z.strings) == 2
    assert verdicts(z) == (True, True)


def test_random_chains_agree_with_expansion():
    rng = random.Random(20261017)
    seen = {True: 0, False: 0}
    proj, twisted = proj_pool()
    pools = [line_objects(), (proj, [P for P, _tw in twisted])]
    for trial in range(12):
        sch, objects = pools[trial % 2]
        cat = GeometricCategory(sch, 2)
        for x in itertools.chain(geometric_cases(rng, cat, objects), formal_cases(rng)):
            new, old = verdicts(x)
            assert new == old, f"trial {trial}:\n{x.canonical_string()}"
            seen[new] += 1
    assert seen[True] >= 10 and seen[False] >= 10, seen


@settings(max_examples=40, deadline=None, database=None)
@given(rng=st.randoms(use_true_random=False))
def test_formal_chains_agree_with_expansion(rng):
    for x in formal_cases(rng):
        new, old = verdicts(x)
        assert new == old, x.canonical_string()


@settings(max_examples=15, deadline=None, database=None)
@given(rng=st.randoms(use_true_random=False))
def test_geometric_chains_agree_with_expansion(rng):
    sch, objects = line_objects()
    cat = GeometricCategory(sch, 2)
    for x in geometric_cases(rng, cat, objects):
        new, old = verdicts(x)
        assert new == old, x.canonical_string()


def slot_values(rng, cat, objects):
    """Random slot values, some scaled by 3/4 and some shifted by a
    non-integral multiple of the identity, so that the identity's
    coefficient and the values left after projecting it away are integral
    for some and not for others."""
    x = random_chain(rng, cat, objects, 2, 6, max_n=2, nterms=3)
    for (_m, a0, slots) in x.items():
        for s in (a0,) + slots:
            yield s
            yield s.scale(Fraction(3, 4))
            if s.source is s.target and s.parity() == 0:
                one = cat.identity(s.source)
                yield s + one.scale(Fraction(3, 4))
                yield s.scale(Fraction(3, 4)) + one.scale(Fraction(rng.randint(-7, 7), 4))
                yield one.scale(Fraction(3, 4))


def test_slot_decompose_matches_fraction_sums():
    """slot_decompose gives the labels and values of the Fraction-based
    version, with each integral value an int and each other one a
    Fraction."""
    rng = random.Random(20261019)
    proj, twisted = proj_pool()
    pools = [line_objects(), (proj, [P for P, _tw in twisted])]
    kinds = {int: 0, Fraction: 0}
    for trial in range(10):
        sch, objects = pools[trial % 2]
        cat = GeometricCategory(sch, 2)
        for s in slot_values(rng, cat, objects):
            new = cat.slot_decompose(s)
            old = fraction_slot_decompose(cat, s)
            assert [lab for lab, _q in new] == [lab for lab, _q in old]
            for (_lab, q), (_lab_old, q_old) in zip(new, old):
                assert q == q_old
                assert type(q) is (int if q_old.denominator == 1 else Fraction), (q, q_old)
                kinds[type(q)] += 1
    assert kinds[int] >= 50 and kinds[Fraction] >= 50, kinds


def test_non_integral_chains_agree_with_expansion():
    """is_zero, whose sums start from the int 0, agrees with the expansion
    on chains whose strings carry the coefficient 3/4 and slots shifted by
    non-integral multiples of the identity."""
    rng = random.Random(34)
    sch, objects = line_objects()
    cat = GeometricCategory(sch, 2)
    seen = {True: 0, False: 0}
    for _trial in range(6):
        x = random_chain(rng, cat, objects, 2, 6, max_n=2, nterms=3).scale(Fraction(3, 4))
        for y in (x, x - x.shift_u(1), hochschild_b(hochschild_b(x))):
            new, old = verdicts(y)
            assert new == old, y.canonical_string()
            seen[new] += 1
        zero = split_slot(rng, x, lambda rng, s: draw_geometric(rng, s).scale(Fraction(3, 4)))
        if zero is not None:
            for y in (zero, zero + x):
                new, old = verdicts(y)
                assert new == old, y.canonical_string()
                seen[new] += 1
    assert seen[True] >= 4 and seen[False] >= 4, seen


# -- one echelon basis for every position and length ---------------------------
#
# is_zero reduces all slot values against one shared basis, so only the head
# (u power, pivot tuple) keeps strings of different slot orders and lengths
# apart.  Each test below fails if the head forgets the position or the length
# of a pivot.


def endomorphism_pair(seed):
    """a0, a, b: P -> P on A^1 with a and b of one parity and nonzero in
    the slot space (independent for the seeds used), a scaled so that its
    first slot coordinate is 1."""
    sch, (P, _Q) = line_objects()
    cat = GeometricCategory(sch, 2)
    rng = random.Random(seed)
    a0 = random_morphism(rng, P, P, 0, 2)
    a = b = None
    while a is None or not cat.slot_decompose(a) or not cat.slot_decompose(b):
        parity = rng.randint(0, 1)
        a, b = (random_morphism(rng, P, P, parity, 2) for _ in range(2))
    a = a.scale(Fraction(1, cat.slot_decompose(a)[0][1]))
    return cat, a0, a, b


def test_transposed_slots_do_not_cancel():
    """a0[a|b] - a0[b|a] is nonzero when a and b are independent."""
    for seed in (3, 8):
        cat, a0, a, b = endomorphism_pair(seed)
        x = HochschildChain(cat, 2, 4, [(1, 0, a0, (a, b)), (-1, 0, a0, (b, a))])
        assert len(x.strings) == 2
        assert verdicts(x) == (False, False)


def test_one_slot_value_at_every_position_and_length_agrees_with_expansion():
    """Signed pairs and the sum of strings that hold a at different positions
    and lengths, next to b; each verdict matches the expansion."""
    cat, a0, a, b = endomorphism_pair(5)
    tuples = [(a,), (a, a), (a, b), (b, a), (a, a, b), (a, b, a), (b, a, a)]
    seen = {True: 0, False: 0}
    cases = [[(1, 0, a0, s) for s in tuples]]
    for s, t in itertools.combinations(tuples, 2):
        for sign in (1, -1):
            cases.append([(1, 0, a0, s), (sign, 0, a0, t)])
    cases.append([(1, 0, a0, (a, b)), (1, 0, a0, (a, a + b)), (-1, 0, a0, (a, a + b.scale(2)))])
    for items in cases:
        new, old = verdicts(HochschildChain(cat, 2, 4, items))
        assert new == old, items
        seen[new] += 1
    assert seen == {True: 1, False: len(cases) - 1}, seen


def test_lengths_never_cancel():
    """a0[q pi] + lam a0[q pi|q pi] is nonzero for every q and lam, also for
    lam = -1/q, where the two strings carry equal weight on one pivot."""
    pi = FormalMorphism.basis("pi")
    for a0 in (pi, FormalMorphism.basis("1N")):
        for q in (1, 2, Fraction(-1, 3)):
            slot = pi.scale(q)
            for lam in (1, -1, -1 / Fraction(q)):
                x = HochschildChain(RETRACT, 0, 4, [(1, 0, a0, (slot,)), (lam, 0, a0, (slot, slot))])
                assert verdicts(x) == (False, False), (a0, q, lam)
