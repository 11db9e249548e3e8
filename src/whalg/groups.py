"""Finite groups given by multiplication tables, and normalized 3-cocycles.

Group elements are indices 0..n-1; the identity need not be index 0 for user
tables, but every catalog group puts it there.  Cocycles are stored as full
|G|^3 tables of root-of-unity Cyclotomics so arbitrary user cocycles validate
through the same path as the built-in representatives.
"""

from __future__ import annotations

import itertools

from .exactmath import Cyclotomic, root_of_unity


class ValidationError(ValueError):
    pass


class FiniteGroup:
    def __init__(self, table, name="G"):
        self.table = [list(row) for row in table]
        self.order = len(table)
        self.name = name
        report = validate_group(self.table)
        if not report.ok:
            raise ValidationError(report.first_failure)
        self.identity = _find_identity(self.table)
        self.inverse = _inverse_table(self.table, self.identity)

    def mul(self, a, b):
        return self.table[a][b]

    def inv(self, a):
        return self.inverse[a]

    def prod(self, elems):
        acc = self.identity
        for e in elems:
            acc = self.table[acc][e]
        return acc

    def elements(self):
        return range(self.order)

    def is_abelian(self):
        t = self.table
        return all(t[a][b] == t[b][a] for a in range(self.order) for b in range(self.order))

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"


class GroupReport:
    """Outcome of a table-level validation with the first offending tuple."""

    def __init__(self, ok, first_failure=None):
        self.ok = ok
        self.first_failure = first_failure

    def __bool__(self):
        return self.ok


def _find_identity(table):
    n = len(table)
    for e in range(n):
        if all(table[e][a] == a and table[a][e] == a for a in range(n)):
            return e
    return None


def _inverse_table(table, identity):
    n = len(table)
    inv = [None] * n
    for a in range(n):
        for b in range(n):
            if table[a][b] == identity and table[b][a] == identity:
                inv[a] = b
                break
    return inv


def validate_group(table):
    """Check the group axioms on an explicit multiplication table."""
    n = len(table)
    for row in table:
        if len(row) != n:
            return GroupReport(False, f"non-square table: row of length {len(row)}")
        for v in row:
            if not isinstance(v, int) or not 0 <= v < n:
                return GroupReport(False, f"entry {v!r} out of range")
    e = _find_identity(table)
    if e is None:
        return GroupReport(False, "no two-sided identity element")
    inv = _inverse_table(table, e)
    for a in range(n):
        if inv[a] is None:
            return GroupReport(False, f"element {a} has no inverse")
    for a in range(n):
        for b in range(n):
            tab_ab = table[a][b]
            row_a = table[a]
            for c in range(n):
                if table[tab_ab][c] != row_a[table[b][c]]:
                    return GroupReport(
                        False, f"associativity fails at triple ({a}, {b}, {c})"
                    )
    return GroupReport(True)


class ThreeCocycle:
    """Normalized omega: G^3 -> roots of unity, as a full value table."""

    def __init__(self, group, values, conductor, name="omega"):
        self.group = group
        self.values = values  # dict (a,b,c) -> Cyclotomic, fully populated
        self.conductor = conductor
        self.name = name

    def __call__(self, a, b, c):
        return self.values[(a, b, c)]

    def ratio(self, num_args, den_args):
        return self.values[num_args] / self.values[den_args]

    def __repr__(self):
        return f"ThreeCocycle({self.name} on {self.group.name}, conductor={self.conductor})"


def trivial_cocycle(group, conductor=1):
    one = Cyclotomic.one(conductor)
    n = group.order
    vals = {t: one for t in itertools.product(range(n), repeat=3)}
    return ThreeCocycle(group, vals, conductor, name="trivial")


def standard_cocycle(n, p):
    """The conventional degree-p representative on Z_n.

    omega_p(a,b,c) = zeta_n^(p*a*floor((b+c)/n)) on Z_n = {0..n-1} with
    addition mod n.  This is one standard choice of representatives for the
    n classes of normalized 3-cocycles on a cyclic group; everything
    downstream only assumes the output passes validate_cocycle.
    """
    if not 0 <= p < n:
        raise ValueError("need 0 <= p < n")
    group = cyclic_group(n)
    roots = [root_of_unity(n, k) for k in range(n)]  # each value one object
    vals = {}
    for a in range(n):
        for b in range(n):
            for c in range(n):
                vals[(a, b, c)] = roots[p * a * ((b + c) // n) % n]
    return ThreeCocycle(group, vals, n, name=f"standard(p={p})")


def validate_cocycle(G, omega):
    """Check normalization, root-of-unity values, and the cocycle identity."""
    n = G.order
    e = G.identity
    for t, v in omega.values.items():
        if not v.is_root_of_unity():
            return GroupReport(False, f"value at {t} is not a root of unity")
    for t in itertools.product(range(n), repeat=3):
        if t not in omega.values:
            return GroupReport(False, f"missing value at {t}")
    for a in range(n):
        for b in range(n):
            if not omega(a, e, b).is_one():
                return GroupReport(False, f"normalization fails at ({a}, e, {b})")
            if not omega(e, a, b).is_one():
                return GroupReport(False, f"normalization fails at (e, {a}, {b})")
            if not omega(a, b, e).is_one():
                return GroupReport(False, f"normalization fails at ({a}, {b}, e)")
    mul = G.mul
    for a, b, c, d in itertools.product(range(n), repeat=4):
        lhs = omega(b, c, d) * omega(a, mul(b, c), d) * omega(a, b, c)
        rhs = omega(mul(a, b), c, d) * omega(a, b, mul(c, d))
        if lhs != rhs:
            return GroupReport(False, f"cocycle identity fails at ({a}, {b}, {c}, {d})")
    return GroupReport(True)


def pointwise_product(omega1, omega2):
    """Product cocycle; conductors must agree (embed explicitly first)."""
    vals = {t: v * omega2.values[t] for t, v in omega1.values.items()}
    return ThreeCocycle(omega1.group, vals, omega1.conductor, name="product")


def embed_cocycle(omega, m):
    vals = {t: v.embed(m) for t, v in omega.values.items()}
    return ThreeCocycle(omega.group, vals, m, name=omega.name)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


def cyclic_group(n):
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return FiniteGroup(table, name=f"Z{n}")


def product_group(g1, g2):
    n1, n2 = g1.order, g2.order
    idx = lambda a, b: a * n2 + b
    table = [
        [
            idx(g1.mul(a1, b1), g2.mul(a2, b2))
            for b1 in range(n1)
            for b2 in range(n2)
        ]
        for a1 in range(n1)
        for a2 in range(n2)
    ]
    return FiniteGroup(table, name=f"{g1.name}x{g2.name}")


def symmetric_group_3():
    perms = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = []
    for s in perms:
        row = []
        for t in perms:
            comp = tuple(s[t[i]] for i in range(3))  # (s . t)(i) = s(t(i))
            row.append(index[comp])
        table.append(row)
    return FiniteGroup(table, name="S3")


GROUP_CATALOG = {
    "z2": lambda: cyclic_group(2),
    "z3": lambda: cyclic_group(3),
    "z4": lambda: cyclic_group(4),
    "z2xz2": lambda: product_group(cyclic_group(2), cyclic_group(2)),
    "s3": symmetric_group_3,
    "z6": lambda: cyclic_group(6),
}


def catalog_group(name):
    key = name.lower()
    if key not in GROUP_CATALOG:
        raise KeyError(f"unknown group {name!r}; catalog: {sorted(GROUP_CATALOG)}")
    return GROUP_CATALOG[key]()
