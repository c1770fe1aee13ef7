"""Entry values keep what they compute: a MorphismCochain its parity, its
differential and its composites, a CechCochain its canonical string.  A kept
result must equal a fresh computation by the uncached route, repeat as the
same object, and start empty on every new value, except that closed values
stay closed: the identity, and a result of scale, +, - or compose whose
operands all have a differential known to be zero, start with the zero
differential.  Over one job shaped like the eta_cycle benchmark (eta_pi at
u = 4, its cut below the top power of u, and both images under b + uB), no
pair's product is computed twice, although the two chains share their
entries, and only the retract's g and f have their differential computed.
A zero test decomposes each distinct slot value once, not once per slot
position that holds it."""

import itertools
import random
import sys

from mfchern.cech import acw_product
from mfchern.hochschild import (
    GeometricCategory,
    HochschildChain,
    connes_B,
    eta_pi,
    hochschild_b,
)
from mfchern.mf import _UNSET, MorphismCochain, hom_differential

from .test_connection import BENCHMARKS, rank_two_three_patch
from .test_hochschild import geometric_retract, line_objects, plane_objects, proj_pool
from .test_mf import section_mf_three_patch
from .test_transport_oracle import filled_cochain, frame_objects


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


def is_known_closed(a):
    return a._differential is not None and a._differential.is_zero()


def has_empty_memos(a, closed=False):
    """Nothing kept on a, except the zero differential when closed."""
    return (
        a._parity is _UNSET
        and (is_known_closed(a) if closed else a._differential is None)
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
    on their operands carries over to them, except closedness: pi, composed
    from the closed g and f, is closed before anyone asks, and so is every
    result built from it, while results built from a morphism whose
    differential is not zero, or not known, start with no differential."""
    pi = geometric_retract(3).pi
    assert is_known_closed(pi)
    for a, closed in ((pi, True), (proj_line_entries()[0], False)):
        assert a.source is a.target
        x = a.scale(3)
        assert has_empty_memos(x, closed)
        x.parity()
        assert x.differential().is_zero() == closed
        x.cochain.canonical_string()
        y = x.compose(x)
        assert has_empty_memos(y, closed)
        for new in (x.scale(2), x + x, x - y, -x, x.compose(a)):
            assert has_empty_memos(new, closed)
    unknown = MorphismCochain(pi.source, pi.target, pi.cochain)
    for new in (pi + unknown, unknown + pi, pi.compose(unknown), unknown.compose(pi)):
        assert has_empty_memos(new)
    assert unknown.differential().is_zero()
    known = unknown.scale(1)
    for new in (pi + unknown, unknown + pi, pi.compose(known), known.compose(pi)):
        assert has_empty_memos(new, True)


def test_identity_of_every_test_object_is_closed():
    """The identity starts with the zero differential, which a fresh
    hom_differential confirms on every test object: factorizations on the
    affine line and plane, on the two- and three-chart projective line, on
    the projective plane, and a direct sum."""
    objects = [*line_objects()[1], *plane_objects()[1], *(P for P, _t in proj_pool()[1])]
    objects += [P for _sch, found in frame_objects() for P in found]
    objects += [geometric_retract(3).N, section_mf_three_patch(), rank_two_three_patch()]
    for P in objects:
        one = MorphismCochain.identity(P, 3)
        assert is_known_closed(one)
        fresh = hom_differential(one)
        assert fresh.is_zero() and same_cochain(one.differential().cochain, fresh.cochain)
    assert len(objects) == 15


def test_compose_differential_obeys_the_leibniz_rule():
    """d(a b) = (da) b + (parity_sign a)(db) with fresh differentials, the
    rule by which a composite of closed values starts closed: on the
    mixed-parity morphisms of the projective line both sides are nonzero,
    on the retract entries both are zero.  Each composite's kept
    differential equals the fresh one."""
    pairs = nonzero = 0
    for entries in (proj_line_entries(), retract_entries()):
        for a, b in itertools.product(entries, repeat=2):
            if b.target is not a.source:
                continue
            ab = a.compose(b)
            fresh = hom_differential(ab).cochain
            leibniz = acw_product(hom_differential(a).cochain, b.cochain) + acw_product(
                a.cochain.parity_sign(), hom_differential(b).cochain
            )
            assert same_cochain(fresh, leibniz)
            assert same_cochain(ab.differential().cochain, fresh)
            pairs += 1
            nonzero += not fresh.is_zero()
    assert nonzero == 8 and pairs > 300


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
    """Only g and f have their differential computed, once each, when
    RetractData checks that they are closed; every entry of eta_pi is built
    from them and the identity, so it starts closed."""
    computed = []  # the morphisms whose differential was computed, held

    def spy(phi):
        computed.append(phi)
        return hom_differential(phi)

    monkeypatch.setattr("mfchern.mf.hom_differential", spy)
    eta = eta_cycle_job()
    assert len({id(phi) for phi in computed}) == len(computed) == 2
    assert all(is_known_closed(a) for (_m, a0, slots) in eta.items() for a in (a0, *slots))


def test_eta_cycle_jobs_compute_two_differentials(monkeypatch):
    """Every job of the seed-1 eta_cycle benchmark pool computes exactly two
    hom differentials, those of the retract's g and f."""
    if BENCHMARKS not in sys.path:
        sys.path.insert(0, BENCHMARKS)
    import run

    computed = []

    def spy(phi):
        computed.append(phi)
        return hom_differential(phi)

    monkeypatch.setattr("mfchern.mf.hom_differential", spy)
    workload = run.WORKLOADS["eta_cycle"]
    checker = run.Checker(workload, run.load_frozen(workload, 1))
    api = run.import_api()
    for index, spec in enumerate(workload.make_inputs(1)):
        computed.clear()
        run.run_job(api, index, spec, checker)
        assert len(computed) == 2, (index, len(computed))
    assert checker.failed == 0, "\n".join(checker.messages)


def test_eta_cycle_zero_tests_decompose_each_slot_value_once(monkeypatch):
    """Each zero test of a seed-1 eta_cycle job decomposes each of its 4
    distinct slot values once, however many slot positions hold it."""
    if BENCHMARKS not in sys.path:
        sys.path.insert(0, BENCHMARKS)
    import run

    calls = []  # per zero test: the slot keys decomposed, and the distinct ones
    real_zero, real_decompose = HochschildChain.is_zero, GeometricCategory.slot_decompose

    def zero_spy(chain):
        distinct = {k for key in chain.strings for k in key[2:]}
        calls.append(([], len(distinct)))
        return real_zero(chain)

    def decompose_spy(cat, a):
        calls[-1][0].append(cat.key(a))
        return real_decompose(cat, a)

    monkeypatch.setattr(HochschildChain, "is_zero", zero_spy)
    monkeypatch.setattr(GeometricCategory, "slot_decompose", decompose_spy)
    workload = run.WORKLOADS["eta_cycle"]
    checker = run.Checker(workload, run.load_frozen(workload, 1))
    api = run.import_api()
    for index, spec in enumerate(workload.make_inputs(1)):
        calls.clear()
        run.run_job(api, index, spec, checker)
        assert len(calls) == 2, index
        for keys, distinct in calls:
            assert len(keys) == len(set(keys)) == distinct == 4, (index, len(keys))
    assert checker.failed == 0, "\n".join(checker.messages)


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
