"""Skeletal data for multiplicity-free fusion categories and their modules.

The associator and module-associator tables here are scalar-per-component:
every admissible composite hom space is one-dimensional, which holds for all
pointed (grouplike) inputs this package constructs, with every hom gauge
fixed to 1.  Fusion rings are more general (any multiplicity-free ring, e.g.
the Fibonacci ring) but only feed the ring-level obstruction detector.
"""

from __future__ import annotations

import itertools
from collections import Counter

from .exactmath import Cyclotomic
from .groups import GroupReport


class SkeletonError(ValueError):
    pass


class FusionRing:
    """Multiplicity-free fusion ring: labels, N(a,b;c) in {0,1}, duals."""

    def __init__(self, labels, unit, mult, name="ring"):
        self.labels = list(labels)
        self.unit = unit
        self.mult = dict(mult)  # (a,b,c) -> 1, zeros omitted
        self.name = name
        self._products = {}
        for (a, b, c), v in self.mult.items():
            if v not in (0, 1):
                raise SkeletonError("fusion multiplicities must be 0 or 1")
            if v:
                self._products.setdefault((a, b), []).append(c)
        for key in self._products:
            self._products[key].sort(key=self.labels.index)
        self.dual = self._dual_map()

    def N(self, a, b, c):
        return self.mult.get((a, b, c), 0)

    def products(self, a, b):
        return self._products.get((a, b), [])

    def _dual_map(self):
        duals = {}
        for a in self.labels:
            duals[a] = None
            for b in self.labels:
                if self.N(a, b, self.unit):
                    if duals[a] is not None:
                        raise SkeletonError(f"label {a!r} has two right inverses")
                    duals[a] = b
        return duals

    def validate(self):
        """Unit laws, dual axiom N(a,b;1) = delta_{b,a*}, associativity."""
        L = self.labels
        for a in L:
            for b in L:
                if self.N(self.unit, a, b) != (1 if a == b else 0):
                    return GroupReport(False, f"unit law fails at N(1,{a};{b})")
                if self.N(a, self.unit, b) != (1 if a == b else 0):
                    return GroupReport(False, f"unit law fails at N({a},1;{b})")
        for a in L:
            if self.dual[a] is None:
                return GroupReport(False, f"label {a!r} has no dual")
            for b in L:
                expected = 1 if b == self.dual[a] else 0
                if self.N(a, b, self.unit) != expected:
                    return GroupReport(False, f"dual axiom fails at N({a},{b};1)")
        # (a b) c and a (b c) reach each d equally often
        for a, b, c in itertools.product(L, repeat=3):
            lhs = Counter(d for e in self.products(a, b) for d in self.products(e, c))
            rhs = Counter(d for f in self.products(b, c) for d in self.products(a, f))
            if lhs != rhs:
                d = next(d for d in L if lhs[d] != rhs[d])
                return GroupReport(False, f"associativity fails at ({a},{b},{c};{d})")
        return GroupReport(True)

    def is_grouplike(self):
        return all(len(self.products(a, b)) == 1 for a in self.labels for b in self.labels)


def fib_fusion_ring():
    """Two labels 1, nu with nu (x) nu = 1 (+) nu."""
    labels = ["1", "nu"]
    mult = {
        ("1", "1", "1"): 1,
        ("1", "nu", "nu"): 1,
        ("nu", "1", "nu"): 1,
        ("nu", "nu", "1"): 1,
        ("nu", "nu", "nu"): 1,
    }
    return FusionRing(labels, "1", mult, name="fib")


class SkeletalCategory:
    """Fusion ring with scalar associator components F(a,b,c;d).

    Restricted to data where every associator component is a genuine scalar:
    for every admissible (a,b,c;d) there is exactly one intermediate path on
    each side.  Grouplike rings always qualify.
    """

    def __init__(self, ring, F, conductor, name="C"):
        self.ring = ring
        self.F = dict(F)  # (a,b,c,d) -> Cyclotomic
        self.conductor = conductor
        self.name = name

    @property
    def labels(self):
        return self.ring.labels

    @property
    def unit(self):
        return self.ring.unit

    def fuse(self, a, b):
        """The unique product label; raises unless grouplike at (a,b)."""
        prods = self.ring.products(a, b)
        if len(prods) != 1:
            raise SkeletonError(f"product of ({a!r},{b!r}) is not a single label")
        return prods[0]

    def fuse_all(self, labels):
        acc = self.unit
        for x in labels:
            acc = self.fuse(acc, x)
        return acc

    def assoc(self, a, b, c):
        """Scalar of (ab)c -> a(bc) for grouplike data."""
        d = self.fuse(self.fuse(a, b), c)
        v = self.F.get((a, b, c, d))
        if v is None:
            raise SkeletonError(f"missing F entry at ({a},{b},{c};{d})")
        return v


class SkeletalModule:
    """Module data over a SkeletalCategory with scalar module associator.

    action: dict (a, x) -> y for the unique simple a . x (grouplike action);
    L: dict (a, b, x) -> Cyclotomic, the scalar of (ab) . x -> a . (b . x).
    """

    def __init__(self, over, objects, action, L, name="M"):
        self.over = over
        self.objects = list(objects)
        self.action = dict(action)
        self.L = dict(L)
        self.name = name

    def act(self, a, x):
        y = self.action.get((a, x))
        if y is None:
            raise SkeletonError(f"action undefined at ({a!r}, {x!r})")
        return y

    def massoc(self, a, b, x):
        v = self.L.get((a, b, x))
        if v is None:
            raise SkeletonError(f"missing module associator at ({a},{b},{x})")
        return v


class DualData:
    """Chosen dual labels with ev/coev scalars, per label.

    ev[a]: a^L (x) a -> 1 and coev[a]: 1 -> a (x) a^L in the stored gauge.
    right_dual(a) is the label whose left dual is a.
    """

    def __init__(self, category, dual, ev, coev):
        self.category = category
        self.dual = dict(dual)
        self.ev = dict(ev)
        self.coev = dict(coev)
        self._right = {v: k for k, v in self.dual.items()}

    def right_dual(self, a):
        return self._right[a]


def validate_pentagon(C):
    """All scalar pentagon instances of a grouplike skeletal category."""
    if not C.ring.is_grouplike():
        return GroupReport(False, "pentagon validator needs grouplike fusion")
    for a, b, c, d in itertools.product(C.labels, repeat=4):
        try:
            lhs = C.assoc(a, b, c) * C.assoc(a, C.fuse(b, c), d) * C.assoc(b, c, d)
            rhs = C.assoc(C.fuse(a, b), c, d) * C.assoc(a, b, C.fuse(c, d))
        except SkeletonError as exc:
            return GroupReport(False, str(exc))
        if lhs != rhs:
            return GroupReport(False, f"pentagon fails at ({a},{b},{c},{d})")
    u = C.unit
    for a, b in itertools.product(C.labels, repeat=2):
        for triple in ((u, a, b), (a, u, b), (a, b, u)):
            if not C.assoc(*triple).is_one():
                return GroupReport(False, f"unit triangle fails at {triple}")
    return GroupReport(True)


def validate_module_pentagon(M):
    """Mixed coherence of the module associator against the category's F."""
    C = M.over
    for a, b, c in itertools.product(C.labels, repeat=3):
        for x in M.objects:
            try:
                lhs = C.assoc(a, b, c) * M.massoc(a, C.fuse(b, c), x) * M.massoc(b, c, x)
                rhs = M.massoc(C.fuse(a, b), c, x) * M.massoc(a, b, M.act(c, x))
            except SkeletonError as exc:
                return GroupReport(False, str(exc))
            if lhs != rhs:
                return GroupReport(False, f"module pentagon fails at ({a},{b},{c};{x})")
    u = C.unit
    for a in C.labels:
        for x in M.objects:
            if not (M.massoc(u, a, x).is_one() and M.massoc(a, u, x).is_one()):
                return GroupReport(False, f"module unit law fails at ({a};{x})")
    return GroupReport(True)


# ---------------------------------------------------------------------------
# pointed generators
# ---------------------------------------------------------------------------


def pointed_skeleton(G, omega):
    """Grouplike skeletal category on G with F(g,h,k) = omega(g,h,k)."""
    labels = list(G.elements())
    mult = {(a, b, G.mul(a, b)): 1 for a in labels for b in labels}
    ring = FusionRing(labels, G.identity, mult, name=f"pt({G.name})")
    F = {}
    for a, b, c in itertools.product(labels, repeat=3):
        F[(a, b, c, G.prod((a, b, c)))] = omega(a, b, c)
    return SkeletalCategory(ring, F, omega.conductor, name=f"Vec({G.name})")


def reversed_skeleton(C):
    """Tensor-reversed category: a *rev b = ba, F_rev(a,b,c) = F(c,b,a)^-1."""
    ring = C.ring
    if not ring.is_grouplike():
        raise SkeletonError("reversal implemented for grouplike data only")
    mult = {}
    for a in ring.labels:
        for b in ring.labels:
            mult[(a, b, ring.products(b, a)[0])] = 1
    rring = FusionRing(ring.labels, ring.unit, mult, name=ring.name + "^rev")
    F = {}
    for a, b, c in itertools.product(ring.labels, repeat=3):
        d = rring.products(rring.products(a, b)[0], c)[0]
        F[(a, b, c, d)] = C.assoc(c, b, a).inverse()
    return SkeletalCategory(rring, F, C.conductor, name=C.name + "^rev")


def product_skeleton(C1, C2):
    """Deligne-style product of two grouplike skeleta: labels are pairs.

    Each component fuses in its own factor, and F of a triple of pairs is the
    product of the factors' F entries at the two component triples.
    """
    if C1.conductor != C2.conductor:
        raise SkeletonError("factor conductors must match (embed first)")
    labels = [(a, b) for a in C1.labels for b in C2.labels]
    mult = {}
    for (a1, b1), (a2, b2) in itertools.product(labels, repeat=2):
        mult[((a1, b1), (a2, b2), (C1.fuse(a1, a2), C2.fuse(b1, b2)))] = 1
    ring = FusionRing(labels, (C1.unit, C2.unit), mult)
    F = {}
    entries2 = _assoc_entries(C2)
    for (a1, b1, c1, d1), f1 in _assoc_entries(C1):
        for (a2, b2, c2, d2), f2 in entries2:
            F[((a1, a2), (b1, b2), (c1, c2), (d1, d2))] = f1 * f2
    return SkeletalCategory(ring, F, C1.conductor, name=f"{C1.name}x{C2.name}")


def _assoc_entries(C):
    """((a, b, c, (ab)c), F(a,b,c)) for every label triple of a grouplike C."""
    return [((a, b, c, C.fuse(C.fuse(a, b), c)), C.assoc(a, b, c))
            for a, b, c in itertools.product(C.labels, repeat=3)]


def regular_module(C):
    """C acting on itself on the left; module associator equals F."""
    action = {(a, x): C.fuse(a, x) for a in C.labels for x in C.labels}
    L = {
        (a, b, x): C.assoc(a, b, x)
        for a in C.labels
        for b in C.labels
        for x in C.labels
    }
    return SkeletalModule(C, C.labels, action, L, name="regular")


def right_regular_module(G, omega):
    """(pointed skeleton, module) pair presenting right multiplication.

    The category is the tensor-reverse of the pointed skeleton of (G, omega)
    and acts on G by a . x = xa; the module associator is omega(x,a,b)^-1.
    `build_b_g_omega` builds A(C, M) on this pair.
    """
    C = reversed_skeleton(pointed_skeleton(G, omega))
    labels = list(G.elements())
    action = {(a, x): G.mul(x, a) for a in labels for x in labels}
    L = {}
    for b, a, x in itertools.product(labels, repeat=3):
        L[(b, a, x)] = omega(x, a, b).inverse()
    return C, SkeletalModule(C, labels, action, L, name=f"{G.name}-right")


def boxtimes_rev_skeleton(G, omega):
    """(category, module) for the two-sided action (a,b) . x = a x b.

    The category is pointed(G,omega) x pointed(G,omega)^rev.  The module
    associator is the three-factor scalar
        L((a',b'),(a,b),x) = omega(a',a,x) * omega(a',ax,b) / omega(a'ax,b,b'),
    the unique choice (in this gauge) making A(C, M) the paper's closed-form
    |G|^4 algebra entrywise.  `build_a_g_omega` builds A(C, M) on this pair.
    """
    C0 = pointed_skeleton(G, omega)
    C = product_skeleton(C0, reversed_skeleton(C0))
    labels = list(G.elements())
    action = {((a, b), x): G.prod((a, x, b)) for a in labels for b in labels for x in labels}
    L = {}
    for ap, bp, a, b, x in itertools.product(labels, repeat=5):
        ax = G.mul(a, x)
        num = omega(ap, a, x) * omega(ap, ax, b)
        den = omega(G.mul(ap, ax), b, bp)
        L[((ap, bp), (a, b), x)] = num / den
    return C, SkeletalModule(C, labels, action, L, name=f"{G.name}-two-sided")


def pointed_to_group_cocycle(C):
    """Recover (FiniteGroup, ThreeCocycle) from a grouplike skeleton."""
    from .groups import FiniteGroup, ThreeCocycle

    if not C.ring.is_grouplike():
        raise SkeletonError("not a grouplike skeleton")
    labels = C.labels
    idx = {lab: i for i, lab in enumerate(labels)}
    table = [[idx[C.fuse(a, b)] for b in labels] for a in labels]
    G = FiniteGroup(table, name=C.name)
    vals = {}
    for a, b, c in itertools.product(range(len(labels)), repeat=3):
        vals[(a, b, c)] = C.assoc(labels[a], labels[b], labels[c])
    return G, ThreeCocycle(G, vals, C.conductor, name=f"F[{C.name}]")


def dual_data_pointed(C):
    """Duals for a grouplike category: inverses, coev = 1, ev solved.

    The single gauge freedom per label is spent on coev = 1; ev is then
    forced by the first zigzag, ev[g] = F(g, g^-1, g)^-1, and both zigzag
    identities are re-checked before returning.
    """
    if not C.ring.is_grouplike():
        raise SkeletonError("dual data implemented for grouplike categories")
    dual = dict(C.ring.dual)
    one = Cyclotomic.one(C.conductor)
    ev = {}
    coev = {}
    for g in C.labels:
        gi = dual[g]
        coev[g] = one
        ev[g] = C.assoc(g, gi, g).inverse()
    dd = DualData(C, dual, ev, coev)
    rep = verify_zigzags(dd)
    if not rep.ok:
        raise SkeletonError(f"zigzag solve failed: {rep.first_failure}")
    return dd


def verify_zigzags(dd):
    """Both zigzag scalar equations for every label."""
    C = dd.category
    for g in C.labels:
        gi = dd.dual[g]
        z1 = dd.coev[g] * C.assoc(g, gi, g) * dd.ev[g]
        z2 = dd.ev[g] * C.assoc(gi, g, gi).inverse() * dd.coev[g]
        if not z1.is_one():
            return GroupReport(False, f"zigzag 1 fails at label {g!r}")
        if not z2.is_one():
            return GroupReport(False, f"zigzag 2 fails at label {g!r}")
    return GroupReport(True)
