"""The private ``_of`` constructors of ScalarPoly, LocalFrac, MatrixForm and
CechCochain skip the public constructors' checks, because they only build
results from values that were already checked.  While the seed-1 inputs of
every benchmark workload run, each value they build must be one the public
constructor accepts and builds the same, term for term; and only rings.py
and cech.py, which define them, may use them."""

import ast
import glob
import os
import sys

from mfchern.cech import CechCochain, MatrixForm
from mfchern.rings import LocalFrac, ScalarPoly

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
