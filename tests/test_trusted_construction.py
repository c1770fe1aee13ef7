"""The private ``_of`` constructors of ScalarPoly, LocalFrac, MatrixForm and
CechCochain skip the public constructors' checks, because they only build
results from values that were already checked.  While the seed-1 inputs of
every benchmark workload run, each value they build must be one the public
constructor accepts and builds the same, term for term; and only rings.py
and cech.py, which define them, may use them.

HochschildChain's private ``_keyed`` builds derived chains from strings whose
keys are known, without checking or keying their entries again.  Each chain
it builds, while the seed-1 ``eta_cycle`` pool runs and on random geometric
chains, must equal the public constructor's chain of the same items; and
only hochschild.py may call it.  GeometricCategory.from_coordinates builds
summed a0 values through ``CechCochain._of_coordinates``; each value it
builds must match the public constructors term for term."""

import ast
import glob
import os
import random
import sys
from fractions import Fraction

from mfchern.cech import CechCochain, MatrixForm
from mfchern.hochschild import GeometricCategory, HochschildChain, connes_B, hochschild_b
from mfchern.mf import MorphismCochain
from mfchern.rings import LocalFrac, ScalarPoly

from .test_hochschild import line_objects, proj_pool, random_chain

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARKS = os.path.join(ROOT, "benchmarks")
if BENCHMARKS not in sys.path:
    sys.path.insert(0, BENCHMARKS)

import run  # noqa: E402

TRUSTED = ("_of", "_like")
DEFINED_IN = {"rings.py", "cech.py"}


def same_poly(a, b):
    return (
        type(a.vars) is tuple
        and a.vars == b.vars
        and list(a.terms.items()) == list(b.terms.items())
        and [type(c) for c in a.terms.values()] == [type(c) for c in b.terms.values()]
    )


def same_frac(a, b):
    return (
        a.ring is b.ring
        and a.den == b.den
        and list(a.num.terms.items()) == list(b.num.terms.items())
        and a.num.vars == b.num.vars
    )


def same_matrix(a, b):
    return (
        a.ring is b.ring
        and type(a.row_parities) is tuple
        and (a.row_parities, a.col_parities) == (b.row_parities, b.col_parities)
        and list(a.terms) == list(b.terms)
        and all(a.terms[k] is b.terms[k] for k in a.terms)
    )


def same_cochain(a, b):
    return (
        type(a) is type(b)
        and (a.scheme, a.source, a.target) == (b.scheme, b.source, b.target)
        and a.u_truncation == b.u_truncation
        and list(a.entries) == list(b.entries)
        and all(a.entries[t] is b.entries[t] for t in a.entries)
    )


def test_trusted_values_match_the_public_constructors(monkeypatch):
    built = {}

    def checked(cls, same):
        trusted = cls.__dict__["_of"].__func__

        def of(klass, *args):
            out = trusted(klass, *args)
            public = klass(*args)
            assert same(out, public), f"{cls.__name__}._of{args!r}"
            built[cls.__name__] = built.get(cls.__name__, 0) + 1
            return out

        monkeypatch.setattr(cls, "_of", classmethod(of))

    checked(ScalarPoly, same_poly)
    checked(LocalFrac, same_frac)
    checked(MatrixForm, same_matrix)
    checked(CechCochain, same_cochain)
    api = run.import_api()
    for name in sorted(run.WORKLOADS):
        workload = run.WORKLOADS[name]
        checker = run.Checker(workload, run.load_frozen(workload, 1))
        pool = workload.make_inputs(1)
        for index, spec in enumerate(pool):
            run.run_job(api, index, spec, checker)
        assert checker.failed == 0, "\n".join(checker.messages)
    assert set(built) == {"ScalarPoly", "LocalFrac", "MatrixForm", "CechCochain"}, built


def test_trusted_constructors_used_only_where_defined():
    sources = glob.glob(os.path.join(ROOT, "src", "mfchern", "*.py"))
    sources += glob.glob(os.path.join(BENCHMARKS, "*.py"))
    stray, inside = [], 0
    for path in sorted(sources):
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in TRUSTED:
                if os.path.dirname(path) == BENCHMARKS or os.path.basename(path) not in DEFINED_IN:
                    stray.append(f"{os.path.relpath(path, ROOT)}:{node.lineno}")
                else:
                    inside += 1
    assert not stray, f"trusted constructors used outside rings.py and cech.py: {stray}"
    assert inside > 20, "the scan no longer finds the uses in rings.py and cech.py"


def same_chain(derived, public):
    """Equal string keys, and per key equal u powers, a0 key text and slot
    keys (the derived chain's a0 may be another object of equal value)."""
    cat = derived.category

    def view(x):
        return {
            key: (m, cat.key(a0), [cat.key(s) for s in slots])
            for key, (m, a0, slots) in x.strings.items()
        }

    return (
        public.category is cat
        and (derived.u_truncation, derived.tensor_cap) == (public.u_truncation, public.tensor_cap)
        and view(derived) == view(public)
    )


def check_keyed(monkeypatch):
    """Make every ``_keyed`` construction also build the public chain of
    its items and compare; returns the list of string counts it built."""
    keyed = HochschildChain.__dict__["_keyed"].__func__
    built = []

    def spy(cls, category, u_truncation, tensor_cap, items):
        items = list(items)
        out = keyed(cls, category, u_truncation, tensor_cap, items)
        public = cls(category, u_truncation, tensor_cap, [(c, k[0], a, s) for c, k, a, s in items])
        assert same_chain(out, public), out.canonical_string() + "\n--\n" + public.canonical_string()
        built.append(len(out.strings))
        return out

    monkeypatch.setattr(HochschildChain, "_keyed", classmethod(spy))
    return built


def test_keyed_chains_match_the_public_constructor(monkeypatch):
    built = check_keyed(monkeypatch)
    api = run.import_api()
    workload = run.WORKLOADS["eta_cycle"]
    checker = run.Checker(workload, run.load_frozen(workload, 1))
    for index, spec in enumerate(workload.make_inputs(1)):
        run.run_job(api, index, spec, checker)
    assert checker.failed == 0, "\n".join(checker.messages)
    assert len(built) >= 6 * 8 and sum(built) > 0, built
    del built[:]
    rng = random.Random(20261020)
    proj, twisted = proj_pool()
    pools = [line_objects(), (proj, [P for P, _tw in twisted])]
    for trial in range(6):
        sch, objects = pools[trial % 2]
        cat = GeometricCategory(sch, 2)
        x = random_chain(rng, cat, objects, 2, 6, max_n=2, nterms=3)
        y = random_chain(rng, cat, objects, 2, 6, max_n=2, nterms=3)
        for z in (hochschild_b(x), connes_B(x), x.shift_u(1), x + y, x - x, -y):
            hochschild_b(z), connes_B(z), z.scale(Fraction(3, 4))
    assert len(built) == 6 * (6 + 3 * 6) and sum(built) > 100, built


def test_keyed_constructor_used_only_in_hochschild():
    sources = glob.glob(os.path.join(ROOT, "src", "mfchern", "*.py"))
    sources += glob.glob(os.path.join(BENCHMARKS, "*.py"))
    stray, inside = [], 0
    for path in sorted(sources):
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "_keyed":
                if os.path.relpath(path, ROOT) != os.path.join("src", "mfchern", "hochschild.py"):
                    stray.append(f"{os.path.relpath(path, ROOT)}:{node.lineno}")
                else:
                    inside += 1
    assert not stray, f"HochschildChain._keyed used outside hochschild.py: {stray}"
    assert inside >= 5, "the scan no longer finds the uses in hochschild.py"


def public_value(cat, coords, like):
    """The morphism with coordinates coords built by the public
    constructors only: each scalar is the sum of its basis values
    x^a / G^k (``rings._coordinates``)."""
    a = like[0]
    terms = {}
    for lab, q in coords:
        terms.setdefault(lab[2], {}).setdefault(lab[3:7], {})[lab[7]] = q
    entries = {}
    for tup, by_key in terms.items():
        ring = cat.scheme.intersection(tup).ring
        values = {}
        for k, scalar in by_key.items():
            if not ring.denominators:
                values[k] = LocalFrac(ring, ScalarPoly(ring.vars, scalar))
                continue
            value = ring.zero()
            for (level, e), q in scalar.items():
                basis = LocalFrac(ring, ScalarPoly(ring.vars, {e: q}), (level,) * len(ring.denominators))
                value = value + basis
            values[k] = value
        entries[tup] = MatrixForm(ring, a.target.bundle.parities(), a.source.bundle.parities(), values)
    trunc = min(b.cochain.u_truncation for b in like)
    return MorphismCochain.from_entries(a.source, a.target, entries, trunc)


def test_values_built_from_coordinates_match_the_public_constructors(monkeypatch):
    """Every value GeometricCategory.from_coordinates builds, while the
    seed-1 pools of every workload and random geometric chains run, has the
    terms, numerators, denominators and u truncation that the public
    constructors give, and is the sum the coordinates describe."""
    build = GeometricCategory.__dict__["from_coordinates"]
    built = []

    def spy(self, coords, like):
        out = build(self, coords, like)
        public = public_value(self, coords, like)
        assert out.cochain.u_truncation == public.cochain.u_truncation
        assert list(out.cochain.entries) == list(public.cochain.entries)
        for tup, mf in out.cochain.entries.items():
            other = public.cochain.entries[tup]
            assert sorted(mf.terms) == sorted(other.terms)
            for k, f in mf.terms.items():
                g = other.terms[k]
                assert f.den == g.den and f.num.terms == g.num.terms
                assert all(type(c) is type(g.num.terms[e]) for e, c in f.num.terms.items())
        assert self.decompose(out) == coords
        built.append(out)
        return out

    monkeypatch.setattr(GeometricCategory, "from_coordinates", spy)
    api = run.import_api()
    for name in sorted(run.WORKLOADS):
        workload = run.WORKLOADS[name]
        checker = run.Checker(workload, run.load_frozen(workload, 1))
        for index, spec in enumerate(workload.make_inputs(1)):
            run.run_job(api, index, spec, checker)
        assert checker.failed == 0, "\n".join(checker.messages)
    assert len(built) >= 6
    rng = random.Random(20261022)
    proj, twisted = proj_pool()
    pools = [line_objects(), (proj, [P for P, _tw in twisted])]
    for trial in range(4):
        sch, objects = pools[trial % 2]
        cat = GeometricCategory(sch, 2)
        x = random_chain(rng, cat, objects, 2, 6, max_n=2, nterms=3)
        hochschild_b(x) + connes_B(x).shift_u(1) + x.scale(Fraction(3, 4))
    assert len(built) >= 12
