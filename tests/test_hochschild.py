import gc
import random
import re
from fractions import Fraction

import pytest

from mfchern import hochschild
from mfchern.cech import CechCochain, MatrixForm, acw_product, exp_neg, supertrace
from mfchern.cohomology import total_differential
from mfchern.connection import Connection, default_connection, total_curvature
from mfchern.geometry import build_scheme
from mfchern.hochschild import (
    GeometricCategory,
    HochschildChain,
    connes_B,
    eta_pi,
    hochschild_b,
    nabla_bracket,
    tr_nabla,
)
from mfchern.mf import (
    MatrixFactorization,
    MorphismCochain,
    RetractData,
    VectorBundle,
    direct_sum,
    hom_differential,
    koszul_mf,
    shift,
)
from mfchern.rings import parse_scalar

from .formal_retract import (
    RETRACT,
    FormalMorphism,
    RetractCategory,
    monomials,
    xi_recursion_check,
    xi_sequence,
)
from .test_cech import random_matrix_form
from .test_connection import random_one_form_matrix
from .test_geometry import affine_line_squared
from .test_mf import affine_plane, section_mf_proj_line


# -- fixtures -----------------------------------------------------------------


def line_objects():
    sch = build_scheme(affine_line_squared())
    P = koszul_mf(sch, [["x"]], [["x"]])
    Q = koszul_mf(sch, [["x^2"]], [["1"]])
    return sch, [P, Q]


def plane_objects():
    sch = build_scheme(affine_plane("x^2 + y^2"))
    P = koszul_mf(sch, [["x"], ["y"]], [["x"], ["y"]])
    return sch, [P]


def proj_pool():
    """Objects on the two-patch projective line together with the twist data
    that random_global_section needs: the section factorization, a rank-four
    zero-differential object with a rich section algebra, and a free Koszul
    object."""
    P = section_mf_proj_line()
    sch = P.scheme
    r01 = sch.intersection((0, 1)).ring
    z = r01.var("z")
    rows = []
    for i, p in enumerate((0, -1, 0, -1)):
        row = [r01.zero()] * 4
        row[i] = z**p if p else r01.one()
        rows.append(row)
    bundle = VectorBundle(sch, [0, 0, 1, 1], {(0, 1): rows})
    zero4 = [[0] * 4 for _ in range(4)]
    Q = MatrixFactorization(bundle, [zero4, zero4])
    K = koszul_mf(sch, [["1", "1"]], [["0", "0"]])
    return sch, [(P, (0, 1)), (Q, (0, 1, 0, 1)), (K, (0, 0))]


def random_morphism(rng, source, target, parity, trunc, keep=0.65, nterms=6):
    sch = source.scheme
    entries = {}
    for size in (1, 2):
        for tup in sch.tuples(size):
            if rng.random() > keep:
                continue
            ring = sch.intersection(tup).ring
            want = (parity - (size - 1)) % 2
            mf = random_matrix_form(
                rng,
                ring,
                target.bundle.parities(),
                source.bundle.parities(),
                parity=want,
                max_u=0,
                nterms=nterms,
            )
            if not mf.is_zero():
                entries[tup] = mf
    return MorphismCochain.from_entries(source, target, entries, trunc)


def diagonal_endo(P, values, trunc):
    ring = P.scheme.patch_ring(0)
    parities = P.bundle.parities()
    terms = {}
    for r, v in enumerate(values):
        v = parse_scalar(ring, v)
        if not v.is_zero():
            terms[(r, r, (), 0)] = v
    mf = MatrixForm(ring, parities, parities, terms)
    return MorphismCochain.from_entries(P, P, {(0,): mf}, trunc)


def random_chain(rng, cat, objects, trunc, cap, max_n=3, nstrings=2, nterms=6):
    items = []
    for _ in range(nstrings):
        n = rng.randint(0, max_n)
        route = [rng.choice(objects) for _ in range(n + 1)]
        slots = []
        for j in range(1, n + 1):
            src = route[j + 1] if j < n else route[0]
            slots.append(
                random_morphism(rng, src, route[j], rng.randint(0, 1), trunc, nterms=nterms)
            )
        src0 = route[1] if n >= 1 else route[0]
        a0 = random_morphism(rng, src0, route[0], rng.randint(0, 1), trunc, nterms=nterms)
        items.append((1, rng.randint(0, 1), a0, tuple(slots)))
    return HochschildChain(cat, trunc, cap, items)


def random_global_section(
    rng, source, target, source_twists, target_twists, parity, u_truncation, bound=3
):
    """Random global Hom-section on a two-patch scheme whose transitions are
    diagonal monomial twists.

    Entry (r, c) glues iff it is a polynomial of degree at most
    source_twists[c] - target_twists[r] in the first chart; the second chart
    holds the reversed coefficients.  Returns None when every admissible
    window came out zero."""
    scheme = source.scheme
    assert scheme.npatches() == 2, "sampler assumes a two-patch cover"
    psrc = source.bundle.parities()
    ptgt = target.bundle.parities()
    assert len(source_twists) == len(psrc) and len(target_twists) == len(ptgt)
    r0 = scheme.patch_ring(0)
    r1 = scheme.patch_ring(1)
    assert len(r0.vars) == 1 and len(r1.vars) == 1
    v0 = r0.var(r0.vars[0])
    v1 = r1.var(r1.vars[0])
    m0 = [[r0.zero()] * len(psrc) for _ in range(len(ptgt))]
    m1 = [[r1.zero()] * len(psrc) for _ in range(len(ptgt))]
    got = False
    for r in range(len(ptgt)):
        for c in range(len(psrc)):
            if (ptgt[r] + psrc[c]) % 2 != parity % 2:
                continue
            win = source_twists[c] - target_twists[r]
            if win < 0:
                continue
            coeffs = [rng.randint(-bound, bound) for _ in range(win + 1)]
            if all(q == 0 for q in coeffs):
                continue
            got = True
            p0 = r0.zero()
            p1 = r1.zero()
            for k, q in enumerate(coeffs):
                if q:
                    p0 = p0 + r0.const(q) * v0**k
                    p1 = p1 + r1.const(q) * v1 ** (win - k)
            m0[r][c] = p0
            m1[r][c] = p1
    if not got:
        return None
    e0 = MatrixForm.from_entries(r0, ptgt, psrc, m0)
    e1 = MatrixForm.from_entries(r1, ptgt, psrc, m1)
    return MorphismCochain.from_entries(
        source, target, {(0,): e0, (1,): e1}, u_truncation
    )


def random_global_chain(rng, cat, pool, trunc, cap, max_n=3, nstrings=2):
    """Like random_chain, but entries are drawn as global Hom-sections; on a
    cover with real overlaps the trace identity holds on these, not on
    arbitrary cochain entries."""

    def draw(src_pair, tgt_pair):
        src, stw = src_pair
        tgt, ttw = tgt_pair
        for _ in range(50):
            a = random_global_section(
                rng, src, tgt, stw, ttw, rng.randint(0, 1), trunc
            )
            if a is not None:
                return a
        raise AssertionError("global section sampler kept returning zero")

    items = []
    for _ in range(nstrings):
        n = rng.randint(0, max_n)
        route = [rng.choice(pool) for _ in range(n + 1)]
        slots = []
        for j in range(1, n + 1):
            src = route[j + 1] if j < n else route[0]
            slots.append(draw(src, route[j]))
        src0 = route[1] if n >= 1 else route[0]
        items.append((1, rng.randint(0, 1), draw(src0, route[0]), tuple(slots)))
    return HochschildChain(cat, trunc, cap, items)


def random_connection(rng, P, trunc):
    if rng.random() < 0.4:
        return default_connection(P)
    sch = P.scheme
    mats = []
    for (i,) in sch.tuples(1):
        ring = sch.intersection((i,)).ring
        mats.append(random_one_form_matrix(rng, ring, P.bundle.parities()))
    return Connection(P, mats)


# -- chain plumbing -----------------------------------------------------------


def test_normalization_drops_identity_slots():
    sch, (P, Q) = line_objects()
    cat = GeometricCategory(sch, 2)
    one = MorphismCochain.identity(P, 2)
    x = HochschildChain.single(cat, 2, 4, one, (one,))
    assert x.is_zero()
    a = diagonal_endo(P, ["x", "2*x"], 2)
    halves = MorphismCochain.identity(P, 2).scale(Fraction(1, 2))
    assert HochschildChain.single(cat, 2, 4, a, (halves,)).is_zero()
    y = HochschildChain.single(cat, 2, 4, a, (a,))
    assert not y.is_zero()
    assert HochschildChain(cat, 2, 4, [(1, m, a, s) for (m, a, s) in y.items()]) == y


def test_slot_decompose_decomposes_each_identity_once(monkeypatch):
    """slot_decompose keeps the identity's labels per object: repeated calls
    decompose each object's identity once and give what a fresh category
    gives."""
    sch, (P, Q) = line_objects()
    cat = GeometricCategory(sch, 2)
    calls = []
    decompose = GeometricCategory.decompose

    def spy(self, a):
        calls.append(a)
        return decompose(self, a)

    monkeypatch.setattr(GeometricCategory, "decompose", spy)
    a, b = diagonal_endo(P, ["x", "2*x"], 2), diagonal_endo(Q, ["1", "x"], 2)
    first = [cat.slot_decompose(v) for v in (a, b, a, b, a.scale(3))]
    assert sum(1 for v in calls if v is cat.identity(P)) == 1
    assert sum(1 for v in calls if v is cat.identity(Q)) == 1
    for v, got in zip((a, b, a, b, a.scale(3)), first):
        fresh = GeometricCategory(sch, 2)
        fresh.object_key(P)
        fresh.object_key(Q)
        assert got == fresh.slot_decompose(v)
    assert first[0] == first[2] and first[0]


def test_strings_merge_and_scale():
    sch, (P, Q) = line_objects()
    cat = GeometricCategory(sch, 2)
    ring = sch.patch_ring(0)
    x_var = ring.var("x")
    parities = P.bundle.parities()
    odd = MatrixForm(ring, parities, parities, {(0, 1, (), 0): x_var})
    a = MorphismCochain.from_entries(P, P, {(0,): odd}, 2)
    b = diagonal_endo(P, ["x", "x^2"], 2)
    x = HochschildChain.single(cat, 2, 4, a, (b,))
    assert (x + x) == x.scale(2)
    assert (x - x).is_zero()
    assert (x + x.scale(-1)).is_zero()


def test_each_distinct_a0_scaled_once_per_string(monkeypatch):
    """The items of one string are summed per distinct a0 object first: each
    object is scaled once by its summed coefficient (not at all when that is
    1), the distinct objects are added once, and a string whose sum cancels
    builds nothing."""
    sch, (P, Q) = line_objects()
    cat = GeometricCategory(sch, 2)
    a, b = diagonal_endo(P, ["x", "2*x"], 2), diagonal_endo(P, ["1", "x"], 2)
    slot = diagonal_endo(P, ["x", "x^2"], 2)
    half, third = Fraction(1, 2), Fraction(1, 3)
    items = [(2, 0, a, (slot,)), (half, 0, b, (slot,)), (3, 0, a, (slot,)), (half, 0, b, (slot,))]
    items += [(third, 1, a, ()), (-third, 1, a, ())]
    scaled, added = [], []
    scale, add = MorphismCochain.scale, MorphismCochain.__add__

    def spy_scale(self, q):
        scaled.append((self, q))
        return scale(self, q)

    def spy_add(self, other):
        added.append((self, other))
        return add(self, other)

    monkeypatch.setattr(MorphismCochain, "scale", spy_scale)
    monkeypatch.setattr(MorphismCochain, "__add__", spy_add)
    x = HochschildChain(cat, 2, 4, items)
    monkeypatch.undo()
    assert [(v is a, q) for v, q in scaled] == [(True, 5)] and len(added) == 1
    (m, a0, slots), = x.items()
    assert (m, slots) == (0, (slot,)) and a0 == a.scale(5) + b


def test_composability_checked():
    sch, (P, Q) = line_objects()
    cat = GeometricCategory(sch, 2)
    rng = random.Random(3)
    a = random_morphism(rng, P, Q, 0, 2)
    with pytest.raises(ValueError, match="cyclic"):
        HochschildChain.single(cat, 2, 4, a, ())


def test_tensor_cap_enforced():
    sch, (P, Q) = line_objects()
    cat = GeometricCategory(sch, 2)
    one = MorphismCochain.identity(P, 2)
    rng = random.Random(4)
    a = random_morphism(rng, P, P, 0, 2)
    with pytest.raises(ValueError, match="cap"):
        HochschildChain.single(cat, 2, 1, a, (a, a))


def test_derived_chains_keep_the_checks_that_can_fail():
    """Chains derived from checked ones skip the entry checks, but the
    caller's scalar and u shift, the other operand of a sum and B's tensor
    cap are still checked, also where the entries would not catch them (a
    formal arrow takes a float scalar)."""
    g, f = FormalMorphism.basis("g"), FormalMorphism.basis("f")
    x = HochschildChain(RETRACT, 1, 2, [(1, 0, g, (f,)), (1, 1, g, (f,))])
    for chain in (x, HochschildChain(RETRACT, 1, 2)):
        with pytest.raises(TypeError, match="not an exact scalar"):
            chain.scale(0.5)
    with pytest.raises(TypeError, match="not an int"):
        x.shift_u(0.5)
    with pytest.raises(ValueError, match="negative power of u -1"):
        x.shift_u(-1)
    with pytest.raises(TypeError, match="cannot combine"):
        x + 1
    with pytest.raises(ValueError, match="different categories"):
        x + HochschildChain(RetractCategory(), 1, 2, [(1, 0, g, (f,))])
    assert len(connes_B(x).strings) == 4 and x.shift_u(1).u_truncation == 1
    with pytest.raises(ValueError, match="tensor degree 3 above the cap 2"):
        connes_B(connes_B(x))


def test_a0s_of_different_parity_stay_apart():
    """The route in a string key holds a0's parity: strings that differ only
    in the parity of a0 do not merge, in the constructor or in derived
    chains, so every a0 stays parity homogeneous."""
    sch, (P, _Q) = line_objects()
    cat = GeometricCategory(sch, 2)
    rng = random.Random(21)
    even, odd, s = (random_morphism(rng, P, P, p, 2) for p in (0, 1, 1))
    while odd.is_zero() or s.is_zero():
        odd, s = (random_morphism(rng, P, P, 1, 2) for _ in range(2))
    x = HochschildChain(cat, 2, 4, [(1, 0, even, (s,)), (1, 0, odd, (s,))])
    for y in (x, x + x.shift_u(1), hochschild_b(x), connes_B(x)):
        assert y.strings
        assert all(a0.parity() is not None for (_m, a0, _slots) in y.strings.values())
    assert len(x.strings) == 2


def test_chain_validation_names_the_slot():
    sch, (P, Q) = line_objects()
    cat = GeometricCategory(sch, 2)
    ring = sch.patch_ring(0)
    one = ring.one()

    def entry(source, target, terms):
        mf = MatrixForm(ring, target.bundle.parities(), source.bundle.parities(), terms)
        return MorphismCochain.from_entries(source, target, {(0,): mf}, 2)

    a = entry(P, P, {(0, 0, (), 0): ring.var("x")})
    c = entry(P, Q, {(0, 0, (), 0): one})
    with pytest.raises(ValueError, match="source of slot 1 is not the target of slot 2"):
        HochschildChain.single(cat, 2, 4, a, (a, c))
    with pytest.raises(ValueError, match="negative power"):
        HochschildChain(cat, 2, 4, [(1, -1, a, ())])
    with_u = entry(P, P, {(0, 0, (), 1): one})
    with pytest.raises(ValueError, match="u-free: slot 2"):
        HochschildChain.single(cat, 2, 4, a, (a, with_u))
    mixed = entry(P, P, {(0, 0, (), 0): one, (0, 1, (), 0): one})
    with pytest.raises(ValueError, match="slot 1 mixes even and odd"):
        HochschildChain.single(cat, 2, 4, a, (mixed,))
    with pytest.raises(TypeError, match="slot 1 is a str"):
        HochschildChain.single(cat, 2, 4, a, ("x",))
    # strings above the u truncation are checked before they are dropped
    with pytest.raises(ValueError, match="tensor degree 9 above the cap 4"):
        HochschildChain(cat, 2, 4, [(1, 3, "not a morphism", ("junk",) * 9)])
    with pytest.raises(TypeError, match="slot 0 is a str"):
        HochschildChain(cat, 2, 4, [(1, 3, "not a morphism", ())])
    with pytest.raises(ValueError, match="source of slot 0 is not the target of slot 1"):
        HochschildChain(cat, 2, 4, [(1, 3, a, (c,))])
    # an entry repeated in a string is checked once, at its first slot
    with pytest.raises(ValueError, match="u-free: slot 1"):
        HochschildChain(cat, 2, 4, [(1, 0, a, (with_u, with_u))])
    x = HochschildChain.single(cat, 2, 4, a, ())
    pi = FormalMorphism.basis("pi")
    for left, right in [
        (x, HochschildChain.single(GeometricCategory(sch, 2), 2, 4, a, ())),
        (
            HochschildChain.single(RetractCategory(), 0, 1, pi),
            HochschildChain.single(RetractCategory(), 0, 1, pi),
        ),
    ]:
        with pytest.raises(ValueError, match="different categories"):
            left + right


def test_u_truncation_must_be_a_non_negative_int():
    """A chain and eta_pi reject a u truncation that is not an int >= 0,
    bools included, and name the value: -1 used to give the zero chain
    silently, 1.5 was accepted, and eta_pi failed inside on "2"."""
    sch, (P, Q) = line_objects()
    cat = GeometricCategory(sch, 3)
    one = MorphismCochain.identity(P, 3)
    r = RetractData(P, P, one, one)
    for bad in (1.5, True, "2", None, Fraction(2)):
        with pytest.raises(TypeError, match=re.escape(f"u truncation {bad!r} is not an int")):
            HochschildChain(cat, bad, 3, [(1, 0, one, ())])
        with pytest.raises(TypeError, match=re.escape(f"u truncation {bad!r} is not an int")):
            eta_pi(r, bad)
    for bad in (-1, -7):
        with pytest.raises(ValueError, match=f"negative u truncation {bad}"):
            HochschildChain(cat, bad, 3, [(1, 0, one, ())])
        with pytest.raises(ValueError, match=f"negative u truncation {bad}"):
            eta_pi(r, bad)
    assert not HochschildChain(cat, 0, 3, [(1, 0, one, ())]).is_zero()
    formal = HochschildChain.single(RetractCategory(), 0, 1, FormalMorphism.basis("pi"))
    assert formal.u_truncation == 0 and not formal.is_zero()


def test_chain_equality_with_other_types_is_false():
    """== and in compare a chain with values of other types as unequal
    instead of raising; + and - still raise."""
    sch, (P, Q) = line_objects()
    cat = GeometricCategory(sch, 2)
    x = HochschildChain.single(cat, 2, 4, MorphismCochain.identity(P, 2).scale(2), ())
    assert not x == 0 and x != 0 and x != None  # noqa: E711
    assert x not in [None, 0, "x"] and x in [None, x]
    assert x == HochschildChain.single(cat, 2, 4, MorphismCochain.identity(P, 2).scale(2), ())
    for other in (0, None):
        with pytest.raises(TypeError, match="cannot combine a HochschildChain"):
            x + other
        with pytest.raises(TypeError, match="cannot combine a HochschildChain"):
            x - other


def test_identities_are_per_object():
    """The category keeps one identity per object, and only a scalar multiple
    of an object's own identity is degenerate: an identity matrix between
    two distinct objects stays in its slot."""
    sch, (P, _Q) = line_objects()
    P2 = koszul_mf(sch, [["x"]], [["x"]])
    cat = GeometricCategory(sch, 2)
    assert cat.identity(P) is cat.identity(P)
    assert cat.identity(P) == MorphismCochain.identity(P, 2)
    assert cat.identity(P2) is not cat.identity(P)
    ones = MatrixForm.identity(sch.patch_ring(0), P.bundle.parities())
    there = MorphismCochain.from_entries(P, P2, {(0,): ones}, 2)
    back = MorphismCochain.from_entries(P2, P, {(0,): ones}, 2)
    assert not cat.is_scalar_identity(there)
    assert cat.is_scalar_identity(cat.identity(P).scale(3))
    x = HochschildChain.single(cat, 2, 4, back, (there,))
    assert len(x.strings) == 1 and not x.is_zero()
    assert HochschildChain.single(cat, 2, 4, back.compose(there), (cat.identity(P),)).is_zero()


def test_parity_asked_once_per_distinct_entry(monkeypatch):
    """The parity of each distinct entry of eta_pi is computed at most once
    over its construction, hochschild_b and connes_B (which rotates each
    string's parities along with its entries), although entries repeat
    across strings and slots."""
    r = geometric_retract(3)
    computed = []  # the cochains whose parity was computed, held
    parity = CechCochain.homogeneous_total_parity

    def spy(self):
        computed.append(self)
        return parity(self)

    monkeypatch.setattr(CechCochain, "homogeneous_total_parity", spy)
    eta = eta_pi(r, 3)
    entries = {id(a.cochain) for (_m, a0, slots) in eta.strings.values() for a in (a0,) + slots}
    for op in (hochschild_b, connes_B):
        op(eta)
    asked = [id(c) for c in computed if id(c) in entries]
    assert asked and len(asked) == len(set(asked))
    assert sum(1 + len(slots) for (_m, _a0, slots) in eta.strings.values()) > len(entries)


def test_eta_pi_checks_each_entry_once_and_derived_chains_key_only_new_entries(monkeypatch):
    """Building eta_pi at u = 3 validates and keys each distinct entry object
    once.  b and B validate nothing: b keys and tests only the composites it
    makes, and B only the a0s that move into a slot, each once; shift_u and
    the sum of (b + uB) eta_pi validate, key and test nothing."""
    r = geometric_retract(3)
    spied = {"validate_entry": [], "key": [], "is_scalar_identity": []}
    for name, calls in spied.items():
        real = getattr(GeometricCategory, name)

        def spy(self, a, *rest, real=real, calls=calls):
            calls.append(id(a))
            return real(self, a, *rest)

        monkeypatch.setattr(GeometricCategory, name, spy)

    def taken():
        out = {name: list(calls) for name, calls in spied.items()}
        for calls in spied.values():
            del calls[:]
        return out

    eta = eta_pi(r, 3)
    at_eta = taken()
    b_eta = hochschild_b(eta)
    at_b = taken()
    B_eta = connes_B(eta)
    at_B = taken()
    image = b_eta + B_eta.shift_u(1)
    at_sum = taken()
    assert image.is_zero()

    a0s = {id(a0) for (_m, a0, _slots) in eta.strings.values()}
    slots = {id(s) for (_m, _a0, ss) in eta.strings.values() for s in ss}
    assert len(a0s) == 4 and slots == {id(r.pi)}
    # the entries given to eta_pi: pi and 2 pi - 1, which the a0s scale
    assert len(at_eta["validate_entry"]) == len(set(at_eta["validate_entry"])) == 2
    assert at_eta["key"] == at_eta["is_scalar_identity"] == [id(r.pi)]
    # every entry of eta_pi is closed, so b's only new slot entry is the
    # composite pi pi, which pi keeps
    assert at_b["validate_entry"] == []
    assert at_b["key"] == at_b["is_scalar_identity"] == [id(r.pi.compose(r.pi))]
    assert at_B["validate_entry"] == []
    assert sorted(at_B["key"]) == sorted(at_B["is_scalar_identity"]) == sorted(a0s)
    assert at_sum == {name: [] for name in spied}


def test_chain_from_fresh_temporaries_matches_list_built():
    """Entries made on the fly and freed after use (merged away, zero, or
    above the truncation) must not lend their ids to later entries."""
    sch, (P, Q) = line_objects()
    cat = GeometricCategory(sch, 2)
    rng = random.Random(13)
    a = random_morphism(rng, P, P, 0, 2)
    b = random_morphism(rng, P, P, 1, 2)
    assert not a.is_zero() and not b.is_zero()

    def spec():
        for k in range(24):
            yield (1, 0, a.scale(k % 5 + 1), (b.scale(k % 4),))
            yield (1, 3, a.scale(k), (b.scale(k),))

    listed = list(spec())
    x = HochschildChain(cat, 2, 4, spec())
    y = HochschildChain(cat, 2, 4, listed)
    assert len(y.strings) == 3
    assert x == y
    assert x.canonical_string() == y.canonical_string()


def test_object_keys_of_short_lived_objects_stay_distinct():
    """object_key holds every object it keys: a collected object must not
    lend its id, and with it its key, to a later object."""
    sch, (P, _Q) = line_objects()
    cat = GeometricCategory(sch, 2)
    keys = []
    for _ in range(50):
        keys.append(cat.object_key(shift(P)))
        gc.collect()
    assert len(set(keys)) == 50


def test_formal_arrows_validated():
    g, f = FormalMorphism.basis("g"), FormalMorphism.basis("f")
    with pytest.raises(ValueError, match="f is not an arrow P -> N"):
        FormalMorphism("P", "N", {"f": 1})
    with pytest.raises(ValueError, match="unknown arrow"):
        FormalMorphism("P", "P", {"h": 1})
    with pytest.raises(ValueError, match="cannot add an arrow N -> P"):
        g + f
    with pytest.raises(TypeError):
        g.compose(1)
    with pytest.raises(TypeError):
        g + 1


def test_u_truncation_drops_high_powers():
    sch, (P, Q) = line_objects()
    cat = GeometricCategory(sch, 1)
    rng = random.Random(5)
    a = random_morphism(rng, P, P, 0, 1)
    x = HochschildChain(cat, 1, 4, [(1, 3, a, ())])
    assert x.is_zero()


# -- b and B ------------------------------------------------------------------


def test_b2_two_slot_values():
    sch, (P, Q) = line_objects()
    cat = GeometricCategory(sch, 2)
    rng = random.Random(6)
    for p0, p1 in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        a0 = random_morphism(rng, P, P, p0, 2)
        a1 = random_morphism(rng, P, P, p1, 2)
        x = HochschildChain.single(cat, 2, 4, a0, (a1,))
        merged = hochschild_b(x)
        front = a0.compose(a1).scale((-1) ** p0)
        wrap = a1.compose(a0).scale((-1) ** (((p1 - 1) * (p0 - 1) + 1) % 2))
        da_terms = HochschildChain(
            cat,
            2,
            4,
            [
                (1, 0, hom_differential(a0), (a1,)),
                ((-1) ** ((p0 - 1) % 2), 0, a0, (hom_differential(a1),)),
            ],
        )
        expected = HochschildChain(
            cat, 2, 4, [(1, 0, front, ()), (1, 0, wrap, ())]
        ) + da_terms
        assert merged == expected, (p0, p1)


def test_b_of_identity_vanishes():
    sch, (P, Q) = line_objects()
    cat = GeometricCategory(sch, 2)
    one = MorphismCochain.identity(P, 2)
    x = HochschildChain.single(cat, 2, 4, one, ())
    assert hochschild_b(x).is_zero()


def test_b_squared_zero_random():
    sch, objects = line_objects()
    cat = GeometricCategory(sch, 2)
    rng = random.Random(20260819)
    for trial in range(50):
        max_n = 3 if trial % 5 == 0 else 2
        x = random_chain(rng, cat, objects, 2, 6, max_n=max_n, nterms=3)
        bb = hochschild_b(hochschild_b(x))
        assert bb.is_zero(), trial


def test_B_squared_zero_random():
    sch, objects = line_objects()
    cat = GeometricCategory(sch, 2)
    rng = random.Random(101)
    for trial in range(50):
        x = random_chain(rng, cat, objects, 2, 8, max_n=3)
        assert connes_B(connes_B(x)).is_zero(), trial


def test_bB_plus_Bb_zero_random():
    sch, objects = line_objects()
    cat = GeometricCategory(sch, 2)
    rng = random.Random(202)
    for trial in range(50):
        max_n = 3 if trial % 5 == 0 else 2
        x = random_chain(rng, cat, objects, 2, 8, max_n=max_n, nterms=3)
        anti = hochschild_b(connes_B(x)) + connes_B(hochschild_b(x))
        assert anti.is_zero(), trial


def test_B_of_point_chain():
    sch, (P, Q) = line_objects()
    cat = GeometricCategory(sch, 2)
    rng = random.Random(8)
    a = random_morphism(rng, P, P, 1, 2)
    x = HochschildChain.single(cat, 2, 4, a, ())
    expected = HochschildChain.single(
        cat, 2, 4, MorphismCochain.identity(P, 2), (a,)
    )
    assert connes_B(x) == expected


def test_cyclic_rotation_sign():
    """B(a0[a1]) = 1[a0|a1] + sign 1[a1|a0], with the cyclic Koszul sign of
    the rotation on shifted degrees."""
    sch, (P, Q) = line_objects()
    cat = GeometricCategory(sch, 2)
    one = MorphismCochain.identity(P, 2)
    rng = random.Random(9)
    for p0, p1 in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        a0 = random_morphism(rng, P, P, p0, 2)
        a1 = random_morphism(rng, P, P, p1, 2)
        x = HochschildChain.single(cat, 2, 4, a0, (a1,))
        sign = (-1) ** (((p0 - 1) * (p1 - 1)) % 2)
        expected = HochschildChain.single(cat, 2, 4, one, (a0, a1)) + HochschildChain.single(
            cat, 2, 4, one, (a1.scale(sign), a0)
        )
        assert connes_B(x) == expected, (p0, p1)


# -- trace map ----------------------------------------------------------------


def test_trace_of_identity_is_supertrace_of_curvature_exponential():
    for P, conn_seed in [(section_mf_proj_line(), 0), (line_objects()[1][0], 1)]:
        sch = P.scheme
        trunc = sch.dimension + sch.npatches() + 1
        cat = GeometricCategory(sch, trunc)
        one = MorphismCochain.identity(P, trunc)
        x = HochschildChain.single(cat, trunc, 2, one, ())
        conn = default_connection(P)
        got = tr_nabla(x, {P: conn})
        R = total_curvature(P, conn, with_u=True, u_truncation=trunc).cochain()
        expected = supertrace(exp_neg(R))
        assert got == expected


def test_trace_j0_stratum_polynomial_functions():
    from mfchern.mf import MatrixFactorization, VectorBundle

    sch = build_scheme(affine_plane("0"))
    ring = sch.patch_ring(0)
    x, y = ring.var("x"), ring.var("y")
    trunc = 2
    cat = GeometricCategory(sch, trunc)
    triv = MatrixFactorization(VectorBundle(sch, [0], {}), [[["0"]]])

    def fn(value):
        mf = MatrixForm(ring, (0,), (0,), {(0, 0, (), 0): value})
        return MorphismCochain.from_entries(triv, triv, {(0,): mf}, trunc)

    chain = HochschildChain.single(cat, trunc, 4, fn(x), (fn(y), fn(x)))
    got = tr_nabla(chain, {triv: default_connection(triv)})
    # (1/2!) x dy dx = -(1/2) x dx dy
    expected = CechCochain.scalar(
        sch,
        {(0,): MatrixForm(ring, (0,), (0,), {(0, 0, (0, 1), 0): x * Fraction(-1, 2)})},
        trunc,
    )
    assert got == expected
    # on a balanced object the same functions trace to zero
    line = koszul_mf(sch, [["0"]], [["0"]])

    def diag(value):
        terms = {(0, 0, (), 0): value, (1, 1, (), 0): value}
        mf = MatrixForm(ring, line.bundle.parities(), line.bundle.parities(), terms)
        return MorphismCochain.from_entries(line, line, {(0,): mf}, trunc)

    chain = HochschildChain.single(cat, trunc, 4, diag(x), (diag(y), diag(x)))
    assert tr_nabla(chain, {line: default_connection(line)}).is_zero()


def test_trace_identity_u0_component_balanced():
    P = section_mf_proj_line()
    sch = P.scheme
    cat = GeometricCategory(sch, 3)
    one = MorphismCochain.identity(P, 3)
    x = HochschildChain.single(cat, 3, 2, one, ())
    got = tr_nabla(x, {P: default_connection(P)})
    for tup, mf in got.entries.items():
        if len(tup) == 1:
            assert mf.truncate_u(0).terms.get((0, 0, (), 0)) is None


def test_trace_missing_connection_errors():
    sch, (P, Q) = line_objects()
    cat = GeometricCategory(sch, 2)
    one = MorphismCochain.identity(P, 2)
    x = HochschildChain.single(cat, 2, 2, one, ())
    with pytest.raises(ValueError, match="connection"):
        tr_nabla(x, {})


def test_trace_needs_geometric_chains():
    x = HochschildChain.single(RETRACT, 0, 1, FormalMorphism.basis("pi"))
    with pytest.raises(TypeError, match="trace needs geometric chains"):
        tr_nabla(x, {})


# -- the chain-map identity ---------------------------------------------------


def check_trace_chain_map(rng, sch, objects, trials, max_n, trunc=3):
    cat = GeometricCategory(sch, trunc)
    for trial in range(trials):
        conns = {P: random_connection(rng, P, trunc) for P in objects}
        x = random_chain(rng, cat, objects, trunc, max_n + 2, max_n=max_n)
        lhs = total_differential(tr_nabla(x, conns))
        image = hochschild_b(x) + connes_B(x).shift_u(1)
        rhs = tr_nabla(image, conns)
        diff = lhs - rhs
        assert diff.is_zero(), f"trial {trial}:\n{diff.canonical_string()}"


def test_trace_chain_map_affine_line():
    sch, objects = line_objects()
    check_trace_chain_map(random.Random(20260819), sch, objects, trials=6, max_n=2)


def test_trace_chain_map_affine_plane():
    sch, objects = plane_objects()
    check_trace_chain_map(random.Random(31), sch, objects, trials=3, max_n=1)


def test_trace_chain_map_proj_line():
    sch, pool = proj_pool()
    rng = random.Random(42)
    cat = GeometricCategory(sch, 3)
    for trial in range(4):
        conns = {P: random_connection(rng, P, 3) for P, _tw in pool}
        x = random_global_chain(rng, cat, pool, 3, 4, max_n=2)
        lhs = total_differential(tr_nabla(x, conns))
        image = hochschild_b(x) + connes_B(x).shift_u(1)
        rhs = tr_nabla(image, conns)
        diff = lhs - rhs
        assert diff.is_zero(), f"trial {trial}:\n{diff.canonical_string()}"


# -- retract chains -----------------------------------------------------------


def geometric_retract(trunc=4):
    sch, (P, Q) = line_objects()
    N = direct_sum(P, Q)
    ring = sch.patch_ring(0)
    zero, one = ring.zero(), ring.one()
    g_mat = [[one, zero], [zero, one], [zero, zero], [zero, zero]]
    f_mat = [[one, zero, zero, zero], [zero, one, zero, zero]]
    g = MorphismCochain.from_entries(
        P,
        N,
        {(0,): MatrixForm.from_entries(ring, N.bundle.parities(), P.bundle.parities(), g_mat)},
        trunc,
    )
    f = MorphismCochain.from_entries(
        N,
        P,
        {(0,): MatrixForm.from_entries(ring, P.bundle.parities(), N.bundle.parities(), f_mat)},
        trunc,
    )
    return RetractData(P, N, g, f)


def test_eta_pi_coefficients():
    r = geometric_retract()
    eta = eta_pi(r, 2)
    two_pi_minus_one = r.pi.scale(2) - MorphismCochain.identity(r.N, 2)
    by_len = {}
    for (m, a0, slots) in eta.items():
        by_len[(m, len(slots))] = (a0, slots)
    assert (0, 0) in by_len and by_len[(0, 0)][0] == r.pi
    a0, slots = by_len[(1, 2)]
    assert a0 == two_pi_minus_one.scale(-1)
    assert all(s == r.pi for s in slots)
    a0, slots = by_len[(2, 4)]
    assert a0 == two_pi_minus_one.scale(6)
    assert len(slots) == 4


def test_eta_pi_trivial_retract_is_identity():
    sch, (P, Q) = line_objects()
    one = MorphismCochain.identity(P, 3)
    r = RetractData(P, P, one, one)
    eta = eta_pi(r, 3)
    expected = HochschildChain.single(eta.category, 3, 7, one, ())
    assert eta == expected


def test_eta_pi_is_cycle():
    r = geometric_retract()
    eta = eta_pi(r, 4)
    image = hochschild_b(eta) + connes_B(eta).shift_u(1)
    assert image.is_zero(), image.canonical_string()


def test_eta_pi_is_cycle_at_u7():
    """(b + uB) eta_pi vanishes at u = 7, and the top u-term is needed."""
    r = geometric_retract(7)
    eta = eta_pi(r, 7)
    image = hochschild_b(eta) + connes_B(eta).shift_u(1)
    assert image.is_zero()
    cut = HochschildChain(
        eta.category,
        eta.u_truncation,
        eta.tensor_cap,
        [(1, m, a, s) for (m, a, s) in eta.items() if m < 7],
    )
    assert len(cut.strings) == len(eta.strings) - 1
    assert not (hochschild_b(cut) + connes_B(cut).shift_u(1)).is_zero()


def test_composite_computed_once_per_pair(monkeypatch):
    """hochschild_b composes each pair of entry objects of its argument once,
    whichever site asks (a0 after slot 0, neighbouring slots, the
    wrap-around), although eta_pi repeats one pi in every slot; the result
    is what the same chain with a distinct object in every position gives."""
    r = geometric_retract(3)
    eta = eta_pi(r, 3)
    spread = HochschildChain(
        eta.category,
        eta.u_truncation,
        eta.tensor_cap,
        [(1, m, a0.scale(1), tuple(s.scale(1) for s in slots)) for (m, a0, slots) in eta.items()],
    )
    expected = hochschild_b(spread)
    entries = {id(a.cochain) for (_m, a0, slots) in eta.strings.values() for a in (a0,) + slots}
    products = []  # the factors of each product, held

    def spy(a, b):
        products.append((a, b))
        return acw_product(a, b)

    monkeypatch.setattr("mfchern.mf.acw_product", spy)
    image = hochschild_b(eta)
    monkeypatch.undo()
    pairs = [(id(a), id(b)) for a, b in products if id(a) in entries and id(b) in entries]
    sites = sum(len(slots) + 1 for (_m, _a0, slots) in eta.strings.values() if slots)
    assert pairs and len(pairs) == len(set(pairs)) < sites
    assert len(products) == len({(id(a), id(b)) for a, b in products})
    assert image.canonical_string() == expected.canonical_string()
    assert (image + connes_B(eta).shift_u(1)).is_zero()


def test_composite_memo_holds_its_factors():
    """The compose memo of a morphism holds each right factor, so factors
    made on the fly and freed after the call cannot lend their ids to later
    ones."""
    sch, (P, Q) = line_objects()
    a = diagonal_endo(P, ["x", "2*x"], 2)
    b = diagonal_endo(P, ["1", "x + 3"], 2)
    ab = a.compose(b)
    assert not ab.is_zero()
    for k in range(1, 13):
        assert a.compose(b.scale(k + 1)) == ab.scale(k + 1)
    assert len(a._composites) == 13
    assert all(id(other) == key for key, (other, _c) in a._composites.items())


def test_xi_values():
    assert monomials(xi_sequence(1)) == {(0, ("g", "f")): Fraction(1)}
    assert monomials(xi_sequence(2)) == {
        (0, ("1N", "pi", "g", "f")): Fraction(1),
        (0, ("g", "f", "g", "f")): Fraction(-1),
    }
    for i in (1, 2, 3, 4):
        for (_m, a0, slots) in xi_sequence(i).items():
            assert len(slots) == 2 * i - 1


def test_xi_recursion():
    failures = xi_recursion_check(3)
    assert not failures, failures


def formal_eta_image(top, coefficient):
    """(b + uB) eta for eta = pi + sum over i <= top of
    coefficient(i) u^i (2 pi - 1)[pi|...|pi] over the formal retract
    category, with eta_pi's truncation and tensor cap."""
    pi = FormalMorphism.basis("pi")
    two_pi_minus_one = FormalMorphism("N", "N", {"pi": 2, "1N": -1})
    items = [(1, 0, pi, ())]
    items += [(coefficient(i), i, two_pi_minus_one, (pi,) * (2 * i)) for i in range(1, top + 1)]
    eta = HochschildChain(RETRACT, top, 2 * top + 1, items)
    return hochschild_b(eta) + connes_B(eta).shift_u(1)


def test_eta_coefficient_closed_form():
    # (-1)^i (2i)! / (2 i!) for i = 1..6
    assert [hochschild._eta_coefficient(i) for i in range(1, 7)] == [
        -1, 6, -60, 840, -15120, 332640
    ]


def test_eta_coefficients_make_a_formal_cycle():
    """(b + uB) eta vanishes over the formal retract category with the
    coefficients of eta_pi, and doubling any one of them breaks it."""
    for top in range(1, 7):
        image = formal_eta_image(top, hochschild._eta_coefficient)
        assert image.is_zero(), (top, image.canonical_string())
        for k in range(1, top + 1):
            image = formal_eta_image(
                top, lambda i: hochschild._eta_coefficient(i) * (2 if i == k else 1)
            )
            assert not image.is_zero(), (top, k)


def test_formal_composition_table():
    g = FormalMorphism.basis("g")
    f = FormalMorphism.basis("f")
    pi = FormalMorphism.basis("pi")
    assert f.compose(g).coeffs == {"1P": Fraction(1)}
    assert g.compose(f).coeffs == {"pi": Fraction(1)}
    assert pi.compose(pi).coeffs == {"pi": Fraction(1)}
    assert pi.compose(g).coeffs == {"g": Fraction(1)}
    assert f.compose(pi).coeffs == {"f": Fraction(1)}
    with pytest.raises(ValueError, match="shape mismatch"):
        g.compose(pi)
