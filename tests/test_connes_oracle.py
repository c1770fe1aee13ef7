"""Differential test of connes_B, which rotates each string in place, against
the chain-building form it replaced: every rotation is a one-string chain that
chain_built_cyclic_t rotates and the chain constructor re-validates and
re-normalizes."""

import random
from fractions import Fraction

from mfchern.hochschild import (
    GeometricCategory,
    HochschildChain,
    connes_B,
    hochschild_b,
)
from mfchern.mf import MorphismCochain

from .formal_retract import FormalMorphism
from .test_hochschild import line_objects, proj_pool, random_chain, random_morphism
from .test_zero_oracle import random_formal, random_formal_chain


def chain_built_cyclic_t(x):
    """Reference rotation: the sign is the coefficient of the rotated string,
    which the chain constructor applies to its new a0."""
    cat = x.category
    items = []
    for (u_pow, a0, slots) in x.strings.values():
        if not slots:
            items.append((1, u_pow, a0, slots))
            continue
        rest = sum(s.parity() - 1 for s in slots)
        sign = (-1) ** (((a0.parity() - 1) * rest) % 2)
        items.append((sign, u_pow, slots[0], slots[1:] + (a0,)))
    return HochschildChain(cat, x.u_truncation, x.tensor_cap, items)


def chain_built_connes_B(x):
    """Reference oracle: B = s N summed over rotated one-string chains.  A
    rotation that puts a scalar identity into a slot empties the chain, and
    with it every later rotation."""
    cat = x.category
    items = []
    for (u_pow, a0, slots) in x.strings.values():
        rotated = HochschildChain(cat, x.u_truncation, x.tensor_cap, [(1, u_pow, a0, slots)])
        for _i in range(len(slots) + 1):
            for (m, b0, bslots) in rotated.strings.values():
                one = cat.identity(b0.target)
                items.append((1, m, one, (b0,) + bslots))
            rotated = chain_built_cyclic_t(rotated)
    return HochschildChain(cat, x.u_truncation, x.tensor_cap, items)


def assert_same_B(x):
    assert connes_B(x).canonical_string() == chain_built_connes_B(x).canonical_string(), (
        x.canonical_string()
    )


def with_identity_strings(x, rng, identity, slots_of):
    """x plus strings whose a0 is a multiple of an identity, and a string
    with an identity in a slot, which the constructor drops."""
    strings = [s for s in x.items() if s[2]]
    if not strings:
        return x
    m, a0, slots = rng.choice(strings)
    ident = identity(a0)
    items = [(1, mm, b0, bs) for (mm, b0, bs) in x.strings.values()]
    items.append((1, m, ident.scale(Fraction(rng.randint(1, 3))), slots_of(ident)))
    items.append((1, m, a0, slots[:-1] + (identity(slots[-1]).scale(2),) + slots[-1:]))
    return HochschildChain(x.category, x.u_truncation, x.tensor_cap + 1, items)


def test_geometric_B_matches_chain_built_B():
    rng = random.Random(20261018)
    proj, twisted = proj_pool()
    pools = [line_objects(), (proj, [P for P, _tw in twisted])]
    for trial in range(12):
        sch, objects = pools[trial % 2]
        cat = GeometricCategory(sch, 2)
        x = random_chain(rng, cat, objects, 2, 6, max_n=3, nstrings=3, nterms=3)
        x = with_identity_strings(
            x,
            rng,
            lambda a: MorphismCochain.identity(a.target, 2),
            lambda ident: (
                random_morphism(rng, ident.source, ident.target, 1, 2, nterms=3),
            ),
        )
        for y in (x, hochschild_b(x), x + x.shift_u(1)):
            assert_same_B(y)


def test_formal_B_matches_chain_built_B():
    rng = random.Random(7)
    for _trial in range(40):
        x = random_formal_chain(rng, cap=7, nstrings=4, max_n=4)
        x = with_identity_strings(
            x,
            rng,
            lambda a: FormalMorphism.basis("1P" if a.target == "P" else "1N"),
            lambda ident: (random_formal(rng, ident.source, ident.target),),
        )
        for y in (x, hochschild_b(x), connes_B(x)):
            assert_same_B(y)
