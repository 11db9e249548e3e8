"""Deterministic JSON import/export for every shared artifact.

Exports are byte-stable: sparse entries are emitted in sorted order and the
encoder uses sorted keys with fixed separators, so identical inputs yield
identical files.
"""

from __future__ import annotations

import json

from .exactmath import Cyclotomic, SparseMatrix, SparseTensor3
from .groups import FiniteGroup, ThreeCocycle
from .skeleton import FusionRing, SkeletalCategory, SkeletalModule
from .wha import RMatrixCandidate, WeakHopfAlgebra


def dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _sorted_entries(entries):
    # mixed-structure entries (labels may encode as objects) sort by their
    # canonical JSON text, which is deterministic
    return sorted(entries, key=lambda e: json.dumps(e, sort_keys=True))


def write_json(path, obj):
    with open(path, "w") as fh:
        fh.write(dumps(obj))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


# -- labels -----------------------------------------------------------------


def encode_label(lab):
    if isinstance(lab, tuple):
        return {"t": [encode_label(x) for x in lab]}
    return lab


def decode_label(obj):
    if isinstance(obj, dict) and "t" in obj:
        return tuple(decode_label(x) for x in obj["t"])
    return obj


# -- groups and cocycles ------------------------------------------------------


def group_to_json(G):
    return {"order": G.order, "table": G.table, "identity": G.identity}


def group_from_json(obj):
    G = FiniteGroup(obj["table"])
    if G.identity != obj["identity"]:
        raise ValueError("declared identity disagrees with the table")
    return G


def cocycle_to_json(omega):
    n = omega.group.order
    values = []
    for a in range(n):
        for b in range(n):
            for c in range(n):
                values.append(omega(a, b, c).to_json())
    return {"conductor": omega.conductor, "order": n, "values": values}


def cocycle_from_json(obj, G):
    n = G.order
    cond = obj["conductor"]
    vals = {}
    flat = obj["values"]
    if len(flat) != n ** 3:
        raise ValueError("cocycle table must carry |G|^3 scalar encodings")
    idx = 0
    for a in range(n):
        for b in range(n):
            for c in range(n):
                vals[(a, b, c)] = Cyclotomic.from_json(flat[idx])
                idx += 1
    return ThreeCocycle(G, vals, cond)


# -- skeleta ------------------------------------------------------------------


def skeleton_to_json(C):
    ring = C.ring
    return {
        "conductor": C.conductor,
        "labels": [encode_label(l) for l in ring.labels],
        "unit": encode_label(ring.unit),
        "mult": _sorted_entries(
            [encode_label(a), encode_label(b), encode_label(c)]
            for (a, b, c), v in ring.mult.items()
            if v
        ),
        "F": _sorted_entries(
            [encode_label(a), encode_label(b), encode_label(c), encode_label(d),
             v.to_json()]
            for (a, b, c, d), v in C.F.items()
        ),
    }


def skeleton_from_json(obj):
    labels = [decode_label(l) for l in obj["labels"]]
    unit = decode_label(obj["unit"])
    mult = {}
    for a, b, c in obj["mult"]:
        mult[(decode_label(a), decode_label(b), decode_label(c))] = 1
    ring = FusionRing(labels, unit, mult)
    cond = obj["conductor"]
    F = {}
    for a, b, c, d, enc in obj["F"]:
        F[(decode_label(a), decode_label(b), decode_label(c), decode_label(d))] = (
            Cyclotomic.from_json(enc)
        )
    return SkeletalCategory(ring, F, cond)


def module_to_json(M):
    return {
        "conductor": M.over.conductor,
        "objects": [encode_label(x) for x in M.objects],
        "action": _sorted_entries(
            [encode_label(a), encode_label(x), encode_label(y)]
            for (a, x), y in M.action.items()
        ),
        "L": _sorted_entries(
            [encode_label(a), encode_label(b), encode_label(x), v.to_json()]
            for (a, b, x), v in M.L.items()
        ),
    }


def module_from_json(obj, C):
    objects = [decode_label(x) for x in obj["objects"]]
    action = {}
    for a, x, y in obj["action"]:
        action[(decode_label(a), decode_label(x))] = decode_label(y)
    L = {}
    for a, b, x, enc in obj["L"]:
        L[(decode_label(a), decode_label(b), decode_label(x))] = Cyclotomic.from_json(enc)
    return SkeletalModule(C, objects, action, L)


def fusion_ring_to_json(ring):
    return {
        "labels": [encode_label(l) for l in ring.labels],
        "unit": encode_label(ring.unit),
        "mult": _sorted_entries(
            [encode_label(a), encode_label(b), encode_label(c)]
            for (a, b, c), v in ring.mult.items()
            if v
        ),
    }


def fusion_ring_from_json(obj):
    labels = [decode_label(l) for l in obj["labels"]]
    mult = {}
    for a, b, c in obj["mult"]:
        mult[(decode_label(a), decode_label(b), decode_label(c))] = 1
    return FusionRing(labels, decode_label(obj["unit"]), mult)


# -- algebras ------------------------------------------------------------------


def _scalar_out(v):
    return v.to_json()


class InputError(ValueError):
    """A file that does not hold what it claims to; the CLI exits 2 on it."""


def _header(obj, what):
    """(dim, conductor) of an algebra, R-matrix or module object."""
    if not isinstance(obj, dict):
        raise InputError(f"{what}: expected a JSON object")
    d = obj.get("dim")
    n = obj.get("conductor")
    if type(d) is not int or d < 0:
        raise InputError(f"{what}: dim must be a nonnegative integer, not {d!r}")
    if type(n) is not int or n < 1:
        raise InputError(f"{what}: conductor must be a positive integer, not {n!r}")
    return d, n


def _table(obj, table, n, bounds):
    """{indices: scalar} of the [*indices, encoding] entries of obj[table].

    Each entry carries one integer index per bound, inside it, and a scalar
    of the file's conductor n with integer [num, den] coefficient pairs and
    nonzero denominators; no indices repeat.  Anything else raises
    InputError naming the table and the entry.  Zero scalars are dropped.
    """
    entries = obj.get(table)
    if not isinstance(entries, list):
        raise InputError(f"{table}: expected a list of entries")
    arity = len(bounds)
    out = {}
    zeros = set()
    for entry in entries:
        if not isinstance(entry, list) or len(entry) != arity + 1:
            raise InputError(f"{table}: entry {entry!r:.80} is not [{arity} indices, scalar]")
        *idx, enc = entry
        key = tuple(idx)
        for i, bound in zip(key, bounds):
            if type(i) is not int or not 0 <= i < bound:
                raise InputError(f"{_where(table, key)}: index {i!r} is outside 0..{bound - 1}")
        if key in out or key in zeros:
            raise InputError(f"{_where(table, key)}: duplicate entry")
        if not isinstance(enc, dict) or enc.get("conductor") != n:
            cond = enc.get("conductor") if isinstance(enc, dict) else None
            raise InputError(
                f"{_where(table, key)}: scalar conductor {cond} differs from the "
                f"file's conductor {n}"
            )
        try:
            v = Cyclotomic.from_json(enc)
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise InputError(f"{_where(table, key)}: bad scalar encoding: {exc}") from None
        if v:
            out[key] = v
        else:
            zeros.add(key)
    return out


def _where(table, key):
    return f"{table}[{', '.join(map(str, key))}]"


def algebra_to_json(A):
    return {
        "name": A.name,
        "dim": A.dim,
        "conductor": A.conductor,
        "labels": [encode_label(l) for l in A.labels],
        "mu": sorted([i, j, k, _scalar_out(v)] for (i, j, k), v in A.mu.data.items()),
        "unit": sorted([i, _scalar_out(v)] for i, v in A.unit.items()),
        "delta": sorted([i, j, k, _scalar_out(v)] for (i, j, k), v in A.delta.data.items()),
        "counit": sorted([i, _scalar_out(v)] for i, v in A.counit.items()),
        "antipode": sorted([k, i, _scalar_out(v)] for (k, i), v in A.antipode.data.items()),
        "meta": A.meta,
    }


def algebra_from_json(obj):
    d, n = _header(obj, "algebra")
    labels = obj.get("labels")
    if not isinstance(labels, list) or len(labels) != d:
        count = len(labels) if isinstance(labels, list) else "no"
        raise InputError(f"labels: {count} entries for dim {d}")
    decoded = []
    for pos, enc in enumerate(labels):
        try:
            lab = decode_label(enc)
            hash(lab)
        except TypeError:
            raise InputError(f"labels[{pos}]: {enc!r:.80} is not a valid label") from None
        decoded.append(lab)
    cube = (d, d, d)
    return WeakHopfAlgebra(
        decoded, n,
        mu=SparseTensor3(cube, n, _table(obj, "mu", n, cube)),
        unit={i: v for (i,), v in _table(obj, "unit", n, (d,)).items()},
        delta=SparseTensor3(cube, n, _table(obj, "delta", n, cube)),
        counit={i: v for (i,), v in _table(obj, "counit", n, (d,)).items()},
        antipode=SparseMatrix(d, d, n, _table(obj, "antipode", n, (d, d))),
        name=obj.get("name", "A"),
        meta=obj.get("meta", {}),
    )


def rmatrix_to_json(A, cand):
    out = {
        "dim": A.dim,
        "conductor": A.conductor,
        "terms": sorted([i, j, _scalar_out(v)] for (i, j), v in cand.terms.items()),
    }
    if cand.rbar is not None:
        out["rbar"] = sorted([i, j, _scalar_out(v)] for (i, j), v in cand.rbar.items())
    return out


def rmatrix_from_json(obj):
    d, n = _header(obj, "rmatrix")
    terms = _table(obj, "terms", n, (d, d))
    rbar = _table(obj, "rbar", n, (d, d)) if "rbar" in obj else None
    return RMatrixCandidate(terms, rbar)


def wha_module_to_json(V, algebra_ref=""):
    return {
        "algebra": algebra_ref,
        "dim": V.dim,
        "conductor": V.algebra.conductor,
        "action": sorted([a, r, c, _scalar_out(v)] for (a, r, c), v in V.action.data.items()),
    }


def wha_module_from_json(obj, A):
    from .repcat import WHAModule

    d, n = _header(obj, "module")
    if n != A.conductor:
        raise InputError("module and algebra conductors differ")
    act = SparseTensor3((A.dim, d, d), n, _table(obj, "action", n, (A.dim, d, d)))
    return WHAModule(A, d, act)
