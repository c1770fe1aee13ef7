"""Entry values keep what they compute: a MorphismCochain its parity, its
differential and its composites, a CechCochain its canonical string.  A kept
result must equal a fresh computation by the uncached route, repeat as the
same object, and start empty on every new value.  Over one job shaped like
the eta_cycle benchmark (eta_pi at u = 4, its cut below the top power of u,
and both images under b + uB), no entry's differential and no pair's
product is computed twice, although the two chains share their entries."""

import itertools
import random

from mfchern.cech import acw_product
from mfchern.hochschild import HochschildChain, connes_B, eta_pi, hochschild_b
from mfchern.mf import _UNSET, MorphismCochain, hom_differential

from .test_hochschild import geometric_retract, proj_pool
from .test_transport_oracle import filled_cochain


def uncached_canonical_string(c):
    """CechCochain.canonical_string as it was before it kept its text."""
    lines = []
    for tup in sorted(c.entries):
        value = c.entries[tup]
        for key in sorted(value.terms, key=lambda k: (k[3], k[2], k[0], k[1])):
            r, col, idxs, m = key
            dx = "^".join(f"d{value.ring.vars[i]}" for i in idxs) or "1"
            lines.append(f"{tup} u^{m} {dx} [{r},{col}] = {value.terms[key]}")
    return "\n".join(lines) if lines else "0"


def retract_entries():
    """g, f and pi of the geometric retract and the entries of eta_pi at
    u = 3 over it, repeats included."""
    r = geometric_retract(3)
    out = [r.g, r.f, r.pi]
    for (_m, a0, slots) in eta_pi(r, 3).items():
        out += [a0, *slots]
    return out


def proj_line_entries():
    """Random morphisms between the section and the rank-four object on
    P^1, with entries in both Cech degrees and terms of both parities."""
    rng = random.Random(20)
    sch, pool = proj_pool()
    out = []
    for (P, _), (Q, _) in itertools.product(pool[:2], repeat=2):
        out.append(MorphismCochain(P, Q, filled_cochain(rng, sch, P.bundle, Q.bundle, (1, 2))))
    return out


def same_cochain(got, fresh):
    return got.u_truncation == fresh.u_truncation and (
        got.canonical_string() == uncached_canonical_string(fresh)
    )


def has_empty_memos(a):
    return (
        a._parity is _UNSET
        and a._differential is None
        and a._composites == {}
        and a.cochain._text is None
    )


def check_kept_results(entries):
    for a in entries:
        assert a.parity() == a.cochain.homogeneous_total_parity()
        assert a.cochain.canonical_string() == uncached_canonical_string(a.cochain)
        assert a.cochain.canonical_string() is a.cochain.canonical_string()
        d = a.differential()
        assert d is a.differential()
        fresh = hom_differential(a)
        assert fresh is not d and same_cochain(d.cochain, fresh.cochain)
    composed = 0
    for a, b in itertools.product(entries, repeat=2):
        if b.target is not a.source:
            continue
        ab = a.compose(b)
        assert ab is a.compose(b)
        assert (ab.source, ab.target) == (b.source, a.target)
        assert same_cochain(ab.cochain, acw_product(a.cochain, b.cochain))
        composed += 1
    return composed


def test_kept_results_match_fresh_oracles_on_retract_entries():
    entries = retract_entries()
    assert len({id(a) for a in entries}) < len(entries)
    assert {a.parity() for a in entries} == {0}
    assert check_kept_results(entries) > len(entries)


def test_kept_results_match_fresh_oracles_on_mixed_parities():
    entries = proj_line_entries()
    assert {a.parity() for a in entries} == {None}
    assert not all(a.differential().is_zero() for a in entries)
    assert check_kept_results(entries) == 8


def test_new_values_start_with_empty_memos():
    """Results of scale, +, - and compose are new values, so nothing kept
    on their operands carries over to them."""
    for a in (geometric_retract(3).pi, proj_line_entries()[0]):
        assert a.source is a.target
        x = a.scale(3)
        assert has_empty_memos(x)
        x.parity()
        x.differential()
        x.cochain.canonical_string()
        y = x.compose(x)
        assert has_empty_memos(y)
        for new in (x.scale(2), x + x, x - y, -x, x.compose(a)):
            assert has_empty_memos(new)


def test_compose_memo_holds_its_right_factor():
    """The memo is keyed by the id of the right factor and holds it, so that
    id stays taken while the left factor lives."""
    pi = geometric_retract(3).pi
    factor = pi.scale(5)
    key = id(factor)
    product = pi.compose(factor)
    del factor
    other, kept = pi._composites[key]
    assert id(other) == key and kept is product
    assert other == pi.scale(5)


def eta_cycle_job(trunc=4):
    """What one eta_cycle benchmark job computes: eta_pi, its images under
    b + uB with and without its top power of u."""
    eta = eta_pi(geometric_retract(trunc), trunc)
    image = hochschild_b(eta) + connes_B(eta).shift_u(1)
    cut = HochschildChain(
        eta.category,
        eta.u_truncation,
        eta.tensor_cap,
        [(1, m, a, s) for (m, a, s) in eta.items() if m < trunc],
    )
    cut_image = hochschild_b(cut) + connes_B(cut).shift_u(1)
    assert image.is_zero() and not cut_image.is_zero()
    return eta


def test_differential_computed_once_per_distinct_entry(monkeypatch):
    computed = []  # the morphisms whose differential was computed, held

    def spy(phi):
        computed.append(phi)
        return hom_differential(phi)

    monkeypatch.setattr("mfchern.mf.hom_differential", spy)
    eta = eta_cycle_job()
    ids = [id(phi) for phi in computed]
    entries = {id(a) for (_m, a0, slots) in eta.items() for a in (a0, *slots)}
    assert entries <= set(ids)
    assert len(ids) == len(set(ids))


def test_product_computed_once_per_distinct_pair(monkeypatch):
    products = []  # the factors of each product, held

    def spy(a, b):
        products.append((a, b))
        return acw_product(a, b)

    monkeypatch.setattr("mfchern.mf.acw_product", spy)
    eta = eta_cycle_job()
    pairs = [(id(a), id(b)) for a, b in products]
    entries = {id(a.cochain) for (_m, a0, slots) in eta.items() for a in (a0, *slots)}
    assert sum(1 for pair in pairs if set(pair) <= entries) >= 3
    assert len(pairs) == len(set(pairs))
