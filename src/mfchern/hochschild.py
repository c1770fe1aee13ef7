"""Cyclic chains over a small category of parity-graded objects, the b and B
operators, normalization, and the connection trace map into scalar cochains.

Chains call their entries directly: an entry ``a`` has ``a.source`` and
``a.target`` (objects compared with ``==``), ``a.parity()``, ``a.compose(b)``
(a after b), ``a + b``, ``a.scale(q)``, ``a.is_zero()`` and
``a.differential()``.  What depends on the category is a backend with seven
methods:

- ``object_key(P)``: a sortable key of an object;
- ``validate_entry(a, where)``: raise unless ``a`` may sit in a chain;
- ``key(a)``: a hashable, sortable key of an entry, equal for equal entries;
- ``decompose(a)``: (label, rational) pairs over a basis of arrows;
- ``slot_decompose(a)``: the same in the slot space, where the scalar
  identities are zero;
- ``identity(P)``: the identity arrow of an object;
- ``is_scalar_identity(a)``: whether ``a`` is a scalar multiple of the
  identity of its object (zero included).

``GeometricCategory`` implements it: its morphisms are Cech cochains between
matrix factorizations.  The second implementation is a test fake, the
five-arrow formal retract category in ``tests/formal_retract.py``, on which
the tests check b, B, the zero test and the coefficients of eta_pi exactly.
Chains combine only over one category object.

Entries are values: a chain holds the entry objects it was given, and
nothing may mutate them afterwards: a ``MorphismCochain`` keeps its parity,
differential, composites and key text while it lives, so b and B reuse them
across calls and chains, and a value built from closed ones (as every entry
of eta_pi is built from pi and the identity) starts with the zero
differential, so b skips its differential term without computing it.  The
constructor validates each distinct entry object once and keys and tests
each distinct slot object once; chains derived from checked ones reuse their
strings' keys, and b and B key and test only the entries they make.
"""

import itertools
from fractions import Fraction
from math import factorial, prod

from .cech import (
    CechCochain,
    _check_count,
    acw_product,
    form_derivative,
    pullback_matrix,
    supertrace,
    supertrace_product,
)
from .mf import MorphismCochain
from .connection import frame_form, total_curvature
from .rings import _exact, echelon_reduce, monomials_up_to

__all__ = [
    "GeometricCategory",
    "HochschildChain",
    "hochschild_b",
    "connes_B",
    "tr_nabla",
    "nabla_bracket",
    "eta_pi",
]


# -- geometric backend -------------------------------------------------------


class GeometricCategory:
    """Morphisms are MorphismCochains between matrix factorizations on one
    scheme; the differential is the hom differential."""

    def __init__(self, scheme, u_truncation):
        self.scheme = scheme
        self.u_truncation = u_truncation
        self._ids = {}  # id of an object -> (the object, its key)
        self._identities = {}  # id of an object -> its identity, which holds it
        self._identity_labels = {}  # id of an object -> its identity's labels

    def object_key(self, P):
        held = self._ids.get(id(P))
        if held is None:
            held = self._ids[id(P)] = (P, len(self._ids))
        return held[1]

    def validate_entry(self, a, where):
        if not isinstance(a, MorphismCochain):
            raise TypeError(f"{where} is a {type(a).__name__}, not a MorphismCochain")
        for tup, mf in a.cochain.entries.items():
            for k in mf.terms:
                if k[3]:
                    raise ValueError(
                        f"chain entries must be u-free: {where} has a u^{k[3]} "
                        f"term on {tup}"
                    )
        if a.parity() is None and not a.is_zero():
            raise ValueError(
                f"chain entries must be parity homogeneous: {where} mixes "
                "even and odd terms"
            )

    def key(self, a):
        return (
            self.object_key(a.source),
            self.object_key(a.target),
            a.cochain.canonical_string(),
        )

    def decompose(self, a):
        """Split into elementary pieces with rational coefficients; the
        labels form a basis, so chains expand multilinearly over them."""
        src = self.object_key(a.source)
        tgt = self.object_key(a.target)
        for tup in sorted(a.cochain.entries):
            mf = a.cochain.entries[tup]
            for (r, c, idxs, m), f in mf.terms.items():
                for exp, q in f.num.terms.items():
                    yield (src, tgt, tup, r, c, idxs, m, exp, f.den), q

    def slot_decompose(self, a):
        """Decomposition in the degenerate quotient: the constant-identity
        direction of an endomorphism slot is projected away.  Values follow
        the rule of ``ScalarPoly``: an integral value is an int, and a
        Fraction appears only where a value is not integral."""
        pairs = {}
        for lab, q in self.decompose(a):
            pairs[lab] = pairs.get(lab, 0) + q
        if a.source is a.target:
            ident = self._identity_labels.get(id(a.source))
            if ident is None:
                ident = [lab for lab, _q in self.decompose(self.identity(a.source))]
                self._identity_labels[id(a.source)] = ident
            lam = pairs.get(min(ident))
            if lam:
                for lab in ident:
                    left = _exact(pairs.get(lab, 0) - lam)
                    if left:
                        pairs[lab] = left
                    else:
                        pairs.pop(lab, None)
        return [(lab, q) for lab, q in pairs.items() if q]

    def identity(self, P):
        one = self._identities.get(id(P))
        if one is None:
            one = self._identities[id(P)] = MorphismCochain.identity(P, self.u_truncation)
        return one

    def is_scalar_identity(self, a):
        c = a.cochain
        if c.is_zero():
            return True
        if a.source is not a.target or len(c.entries) != self.scheme.npatches():
            return False
        q = None
        for tup, mf in c.entries.items():
            if len(tup) != 1:
                return False
            rank = len(mf.row_parities)
            if len(mf.terms) != rank:
                return False
            for (r, col, idxs, m), f in mf.terms.items():
                if r != col or idxs or m:
                    return False
                const = f.as_constant()
                if const is None:
                    return False
                if q is None:
                    q = const
                elif const != q:
                    return False
        return True


# -- chains ------------------------------------------------------------------


class HochschildChain:
    """Exact linear combination of strings a0[a1|...|an]; each a_j maps
    P_{j+1} -> P_j cyclically.  Coefficients are absorbed into a0 and strings
    with identical slots merge: the coefficients of one string are summed
    per distinct a0 object, each object is scaled once by its sum, and the
    scaled objects are added, so a string whose sum is zero is dropped.
    Construction normalizes: any string with a scalar-identity entry in
    slots 1..n is dropped, and so is any string above the u truncation,
    after its checks have passed.

    The constructor checks the u truncation and each string's power of u
    (ints >= 0), every string (exact coefficient, tensor cap, composability)
    and every distinct entry object (``validate_entry``), once per
    construction.  A string's key is its power of u, a0's route (object keys
    and parity) and its slots' keys; ``_keyed`` builds derived chains from
    keyed strings.  An entry must not be mutated once it is in a chain: a
    geometric entry keeps its parity, differential, composites and key text.

    A string is the pure tensor a0 (x) a1 (x) ... (x) an.  The category
    decomposes a0 over a basis of labels (``decompose``) and each slot over
    a basis of the slot space, in which the scalar identities are zero
    (``slot_decompose``).  Strings merge only when their slots are equal as
    values, so the stored strings need not be linearly independent: a
    relation among slot values (a Leibniz expansion sitting in one slot, or
    a0[a] + a0[b] - a0[a + b]) is visible only in these bases, and
    ``is_zero`` works in them."""

    __slots__ = ("category", "u_truncation", "tensor_cap", "strings")

    def __init__(self, category, u_truncation, tensor_cap, items=()):
        _check_count("u truncation", u_truncation)
        _check_count("tensor cap", tensor_cap)
        # Per distinct entry object, keyed by id; each value holds the entry
        # so that its id cannot be reused while this construction runs.
        checked = {}
        slot_keys = {}  # id -> (entry, key, or None when it drops its string)
        keyed = []
        for coeff, u_pow, a0, slots in items:
            coeff = _exact(coeff)
            _check_count("power of u", u_pow)
            slots = tuple(slots)
            if len(slots) > tensor_cap:
                raise ValueError(
                    f"tensor degree {len(slots)} above the cap {tensor_cap}"
                )
            chain_entries = (a0,) + slots
            for j, a in enumerate(chain_entries):
                if id(a) not in checked:
                    category.validate_entry(a, f"slot {j}")
                    checked[id(a)] = a
            for j in range(len(slots)):
                if chain_entries[j].source != chain_entries[j + 1].target:
                    raise ValueError(
                        f"string is not composable: the source of slot {j} is "
                        f"not the target of slot {j + 1}"
                    )
            if chain_entries[-1].source != a0.target:
                raise ValueError(
                    f"string does not close up cyclically: the source of slot "
                    f"{len(slots)} is not the target of slot 0"
                )
            if u_pow > u_truncation:
                continue
            keys = []
            for s in slots:
                key = _slot_key(category, slot_keys, s)
                if key is None:
                    break
                keys.append(key)
            if len(keys) == len(slots):
                keyed.append((coeff, _head(category, u_pow, a0) + tuple(keys), a0, slots))
        self._merge(category, u_truncation, tensor_cap, keyed)

    @classmethod
    def _keyed(cls, category, u_truncation, tensor_cap, items):
        """The chain of keyed (coeff, string key, a0, slots) items of checked entries."""
        chain = cls.__new__(cls)
        chain._merge(category, u_truncation, tensor_cap, items)
        return chain

    def _merge(self, category, u_truncation, tensor_cap, items):
        """Set the fields and the strings of keyed items, merged per string
        key as the class docstring says; strings above the u truncation go."""
        self.category, self.u_truncation, self.tensor_cap = category, u_truncation, tensor_cap
        self.strings = {}
        heads = {}  # string key -> (slots, {id of an a0: [a0, summed coefficient]})
        for coeff, key, a0, slots in items:
            if key[0] > u_truncation:
                continue
            held = heads.get(key)
            if held is None:
                held = heads[key] = (slots, {})
            summed = held[1].setdefault(id(a0), [a0, 0])
            summed[1] += coeff
        for key, (slots, summed) in heads.items():
            total = None
            for a0, coeff in summed.values():
                if coeff:
                    scaled = a0.scale(coeff) if coeff != 1 else a0
                    total = scaled if total is None else total + scaled
            if total is not None and not total.is_zero():
                self.strings[key] = (key[0], total, slots)

    @classmethod
    def single(cls, category, u_truncation, tensor_cap, a0, slots=()):
        return cls(category, u_truncation, tensor_cap, [(1, 0, a0, slots)])

    def items(self):
        return [self.strings[key] for key in sorted(self.strings, key=lambda k: (k[0], k[1:]))]

    def is_zero(self):
        """Exact zero test in the label bases of the class docstring.

        Each distinct slot value is decomposed and reduced once per call,
        against one echelon basis shared by all slot positions and tensor
        lengths; pivot rows never change once added.  A value is then
        sum_p c_p r_p over independent echelon rows r_p, and a string is the
        sum over pivot tuples (p_1..p_n) of prod_j c_{j,p_j} times
        a0 (x) r_{p_1} (x) ... (x) r_{p_n}.  Pure tensors of independent
        vectors are independent and the head (u power, pivot tuple) records
        the length and every position, so the chain is zero iff, for every
        head, the a0 label vectors summed with these weights vanish.  The
        work grows with the number of strings times the product of the slot
        values' coordinate counts.  The sums start from the int 0, so
        integral coefficients stay ints."""
        cat = self.category
        pivots, columns = {}, {}
        coords = {}  # slot key -> [(pivot column, coefficient)]
        total = {}
        for key, (m, a0, slots) in self.strings.items():
            for slot, s in zip(key[2:], slots):
                if slot not in coords:
                    row = {columns.setdefault(lab, len(columns)): q
                           for lab, q in cat.slot_decompose(s)}
                    coords[slot] = list(echelon_reduce(pivots, row)[0].items())
            parts = list(cat.decompose(a0))
            for combo in itertools.product(*(coords[slot] for slot in key[2:])):
                weight = prod(q for _p, q in combo)
                head = (m, tuple(p for p, _q in combo))
                for lab, q in parts:
                    at = (head, lab)
                    total[at] = total.get(at, 0) + weight * q
        return not any(total.values())

    def _combine(self, other, flip):
        if not isinstance(other, HochschildChain):
            raise TypeError(f"cannot combine a HochschildChain with a {type(other).__name__}")
        if other.category is not self.category:
            raise ValueError("chains live over different categories")
        items = [(1, key, a, s) for key, (_m, a, s) in self.strings.items()]
        sign = -1 if flip else 1
        items += [(sign, key, a, s) for key, (_m, a, s) in other.strings.items()]
        return HochschildChain._keyed(
            self.category,
            min(self.u_truncation, other.u_truncation),
            max(self.tensor_cap, other.tensor_cap),
            items,
        )

    def __add__(self, other):
        return self._combine(other, False)

    def __sub__(self, other):
        return self._combine(other, True)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, q):
        q = _exact(q)
        items = [(q, key, a, s) for key, (_m, a, s) in self.strings.items()]
        return HochschildChain._keyed(self.category, self.u_truncation, self.tensor_cap, items)

    def shift_u(self, k):
        items = []
        for key, (m, a, s) in self.strings.items():
            _check_count("power of u", m + k)
            items.append((1, (m + k,) + key[1:], a, s))
        return HochschildChain._keyed(self.category, self.u_truncation, self.tensor_cap, items)

    def __eq__(self, other):
        if not isinstance(other, HochschildChain):
            return NotImplemented
        return (self - other).is_zero()

    def canonical_string(self):
        cat = self.category
        lines = []
        for (m, a0, slots) in self.items():
            head = f"u^{m} {cat.key(a0)}"
            tail = " | ".join(str(cat.key(s)) for s in slots)
            lines.append(f"{head} [{tail}]")
        return "\n".join(lines) if lines else "0"

    def __repr__(self):
        return f"HochschildChain({len(self.strings)} strings)"


def _head(cat, u_pow, a0):
    """The front of a string key: the power of u and a0's route."""
    return (u_pow, (cat.object_key(a0.source), cat.object_key(a0.target), a0.parity()))


def _slot_key(cat, memo, s):
    """The key of a slot entry, or None when it is a scalar identity and
    drops its string; ``memo`` maps id(s) to (s, that) for one call."""
    known = memo.get(id(s))
    if known is None:
        known = memo[id(s)] = (s, None if cat.is_scalar_identity(s) else cat.key(s))
    return known[1]


# -- differentials -----------------------------------------------------------


def hochschild_b(x):
    """b = b2 + b1: composition of neighbours including the wrap-around, and
    entrywise differentials.  Hom differentials square to zero, so the
    category is an ordinary dg category and b has no curvature term.

    Entries keep their composites, so each pair of entry objects is composed
    once, in this call or a later one, whichever of a0 after slot 0, slot
    i-1 after slot i or the wrap-around slot n-1 after a0 asks for it; a
    chain that repeats its entries (as eta_pi does) yields one per pair.
    Retained slots keep their keys; a new slot entry is keyed once per call."""
    cat = x.category
    made = {}  # id of a new slot entry -> (entry, key or None)
    items = []
    for key, (u_pow, a0, slots) in x.strings.items():
        n = len(slots)
        keys = key[2:]
        entries = (a0,) + slots
        parities = [a.parity() for a in entries]

        for i in range(n):
            sign = (-1) ** ((sum(parities[: i + 1]) - i) % 2)
            if i == 0:
                new_a0 = a0.compose(slots[0])
                items.append((sign, _head(cat, u_pow, new_a0) + keys[1:], new_a0, slots[1:]))
                continue
            merged = slots[i - 1].compose(slots[i])
            k = _slot_key(cat, made, merged)
            if k is not None:
                new_slots = slots[: i - 1] + (merged,) + slots[i + 1 :]
                items.append((sign, key[:2] + keys[: i - 1] + (k,) + keys[i + 1 :], a0, new_slots))

        if n >= 1:
            exponent = (parities[n] - 1) * (sum(parities[:n]) - (n - 1)) + 1
            new_a0 = slots[n - 1].compose(a0)
            head = _head(cat, u_pow, new_a0)
            items.append(((-1) ** (exponent % 2), head + keys[: n - 1], new_a0, slots[: n - 1]))

        for j in range(n + 1):
            da = entries[j].differential()
            if da.is_zero():
                continue
            sign = (-1) ** ((sum(parities[:j]) - j) % 2)
            if j == 0:
                items.append((sign, _head(cat, u_pow, da) + keys, da, slots))
                continue
            k = _slot_key(cat, made, da)
            if k is not None:
                new_slots = slots[: j - 1] + (da,) + slots[j:]
                items.append((sign, key[:2] + keys[: j - 1] + (k,) + keys[j:], a0, new_slots))

    return HochschildChain._keyed(cat, x.u_truncation, x.tensor_cap, items)


def _rotated(cat, made, entries, keys, parities):
    """The slots of a B term, their keys and parities, rotated by one: the
    front entry moves to the back, and the cyclic Koszul sign on shifted
    degrees scales the new front entry, which is then keyed anew."""
    negate = ((parities[0] - 1) * (sum(parities[1:]) - len(entries) + 1)) % 2
    entries, keys = entries[1:] + entries[:1], keys[1:] + keys[:1]
    parities = parities[1:] + parities[:1]
    if negate:
        neg = entries[0].scale(-1)
        entries, keys = (neg,) + entries[1:], (_slot_key(cat, made, neg),) + keys[1:]
    return entries, keys, parities


def connes_B(x):
    """B = s N in the normalized complex: sum the cyclic rotations, then
    prepend an identity.  A rotation whose slots hold a scalar identity
    vanishes.  The slots of x keep their keys; its a0 moving into a slot is
    keyed once per call, and a negated front entry of a rotation is keyed."""
    cat = x.category
    made = {}  # see _slot_key
    items = []
    for key, (u_pow, a0, slots) in x.strings.items():
        if len(slots) >= x.tensor_cap:
            raise ValueError(f"tensor degree {len(slots) + 1} above the cap {x.tensor_cap}")
        entries = (a0,) + slots
        keys = (_slot_key(cat, made, a0),) + key[2:]
        parities = [a.parity() for a in entries]
        for i in range(len(entries)):
            if i:
                entries, keys, parities = _rotated(cat, made, entries, keys, parities)
            if None not in keys:
                one = cat.identity(entries[0].target)
                items.append((1, _head(cat, u_pow, one) + keys, one, entries))
    return HochschildChain._keyed(cat, x.u_truncation, x.tensor_cap, items)


# -- trace map ----------------------------------------------------------------


def nabla_bracket(cochain, conn_target, conn_source):
    """Graded commutator of a connection pair with a Hom-valued cochain c:
    form_derivative(c) + C_target c - (parity_sign c) C_source, plus the
    gauge term below.  It is linear in c, so c may mix parities.

    On tuples of length two or more the source connection matrix has to move
    into the leading frame affinely, T C T^{-1} - dT T^{-1}; transport only
    supplies the conjugation, so the dT T^{-1} part is restored here, as
    (parity_sign c) times the frame form of the tuple's outer pair, which
    the bundle builds once per pair (``frame_form``): used as it is on the
    pair itself, and pulled back on a longer tuple."""
    trunc = cochain.u_truncation
    scheme = cochain.scheme
    signed = cochain.parity_sign()
    out = form_derivative(cochain)
    ct = conn_target.cochain(trunc)
    cs = conn_source.cochain(trunc)
    if not ct.is_zero():
        out = out + acw_product(ct, cochain)
    if not cs.is_zero():
        out = out - acw_product(signed, cs)
    gauge = {}
    for t, value in signed.entries.items():
        if len(t) < 2:
            continue
        pair = (t[0], t[-1])
        theta = frame_form(cochain.source, pair)
        if t != pair:
            theta = pullback_matrix(scheme.restriction(pair, t), theta)
        term = value.mul(theta, cech_left=len(t) - 1)
        if not term.is_zero():
            gauge[t] = term
    if gauge:
        out = out + CechCochain(scheme, cochain.source, cochain.target, gauge, trunc)
    return out


def tr_nabla(x, connections):
    """Chain-level trace against a connection assignment per object.

    The string a0[a1|...|an] with curvature insertions j0, ..., jn (total J)
    contributes (-1)^J / (n + J)! times
    str(a0 R^j0 [nabla, a1] R^j1 ... [nabla, an] R^jn), with R the total
    curvature of each object.  Insertions beyond the scheme dimension vanish
    because each curvature factor carries at least one form degree.

    The Alexander-Whitney cup product with the ledger signs is associative,
    so the composite is grouped for speed: a scalar-identity a0 = q 1_P
    becomes the factor q, the last product is taken as a trace
    (``supertrace_product``), and a string without slots whose a0 is a
    scalar identity takes str(R^J) = str(R^(J//2) R^(J - J//2)), so its
    object's curvature powers are built only up to ceil(dim/2).
    """
    cat = x.category
    if not isinstance(cat, GeometricCategory):
        raise TypeError("trace needs geometric chains")
    scheme = cat.scheme
    trunc = x.u_truncation
    jmax = scheme.dimension
    power_cache = {}
    bracket_cache = {}

    def power(P, j):
        """R^j for j >= 1, each new power built as R^(j-1) R."""
        powers = power_cache.get(id(P))
        if powers is None:
            conn = connections.get(P)
            if conn is None:
                raise ValueError("missing connection for an object of the chain")
            R = total_curvature(P, conn, with_u=True, u_truncation=trunc).cochain()
            powers = power_cache[id(P)] = [R]
        while len(powers) < j:
            powers.append(acw_product(powers[-1], powers[0]))
        return powers[j - 1]

    def bracket_of(a):
        c = bracket_cache.get(id(a))
        if c is None:
            src = connections.get(a.source)
            tgt = connections.get(a.target)
            if src is None or tgt is None:
                raise ValueError("missing connection for an object of the chain")
            c = nabla_bracket(a.cochain, tgt, src)
            bracket_cache[id(a)] = c
        return c

    out = CechCochain.scalar(scheme, {}, trunc)
    for (u_pow, a0, slots) in x.items():
        n = len(slots)
        scalar = None
        if cat.is_scalar_identity(a0):
            entry = next(iter(a0.cochain.entries.values()), None)
            if entry is None:
                continue
            scalar = next(iter(entry.terms.values())).as_constant()
        sources = [a0.source] + [s.source for s in slots]
        brackets = [bracket_of(s) for s in slots]
        contribution = CechCochain.scalar(scheme, {}, trunc)
        for jvec in monomials_up_to(n + 1, jmax):
            J = sum(jvec)
            coeff = Fraction((-1) ** (J % 2), factorial(n + J))
            if scalar is not None and n == 0 and J > 1:
                factors = [power(sources[0], J // 2), power(sources[0], J - J // 2)]
            else:
                factors = [] if scalar is not None else [a0.cochain]
                for i, j in enumerate(jvec):
                    if i:
                        factors.append(brackets[i - 1])
                    if j:
                        factors.append(power(sources[i], j))
            if not factors:
                factors = [a0.cochain]
            elif scalar is not None:
                coeff *= scalar
            acc = factors[-1]
            for f in reversed(factors[1:-1]):
                acc = acw_product(f, acc)
            if len(factors) > 1:
                term = supertrace_product(factors[0], acc)
            else:
                term = supertrace(acc)
            if scalar is not None and a0.cochain.u_truncation < term.u_truncation:
                term = term.truncate_u(a0.cochain.u_truncation)
            contribution = contribution + term.scale(coeff)
        out = out + contribution.shift_u(u_pow)
    return out


# -- retract chains -----------------------------------------------------------


def eta_pi(r, u_truncation):
    """The idempotent cycle: pi plus the alternating double-factorial tail
    on (2 pi - 1).  Its tensor cap 2u + 1 leaves one slot of headroom above
    the top string, so B can still be applied there."""
    _check_count("u truncation", u_truncation)
    cat = GeometricCategory(r.N.scheme, u_truncation)
    two_pi_minus_one = r.pi.scale(2) - cat.identity(r.N)
    items = [(1, 0, r.pi, ())]
    for i in range(1, u_truncation + 1):
        items.append((_eta_coefficient(i), i, two_pi_minus_one, (r.pi,) * (2 * i)))
    return HochschildChain(cat, u_truncation, 2 * u_truncation + 1, items)


def _eta_coefficient(i):
    """The coefficient (-1)^i (2i)! / (2 i!) of u^i (2 pi - 1)[pi|...|pi]."""
    return Fraction((-1) ** i * factorial(2 * i), 2 * factorial(i))
