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


def _scalars(entries, n, table):
    """(indices, scalar) of each [*indices, encoding] entry of a table.

    Every scalar must carry the file's conductor n; a mismatch raises
    ValueError naming the table and the entry's indices.
    """
    for *idx, enc in entries:
        if enc["conductor"] != n:
            raise ValueError(
                f"{table}[{', '.join(map(str, idx))}]: scalar conductor "
                f"{enc['conductor']} differs from the file's conductor {n}"
            )
        yield idx, Cyclotomic.from_json(enc)


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
    d = obj["dim"]
    n = obj["conductor"]
    mu = SparseTensor3((d, d, d), n)
    for (i, j, k), v in _scalars(obj["mu"], n, "mu"):
        mu.set(i, j, k, v)
    delta = SparseTensor3((d, d, d), n)
    for (i, j, k), v in _scalars(obj["delta"], n, "delta"):
        delta.set(i, j, k, v)
    unit = {i: v for (i,), v in _scalars(obj["unit"], n, "unit")}
    counit = {i: v for (i,), v in _scalars(obj["counit"], n, "counit")}
    antipode = SparseMatrix(d, d, n)
    for (k, i), v in _scalars(obj["antipode"], n, "antipode"):
        antipode.set(k, i, v)
    labels = [decode_label(l) for l in obj["labels"]]
    return WeakHopfAlgebra(
        labels, n, mu, unit, delta, counit, antipode,
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
    n = obj["conductor"]
    terms = {(i, j): v for (i, j), v in _scalars(obj["terms"], n, "terms")}
    rbar = None
    if "rbar" in obj:
        rbar = {(i, j): v for (i, j), v in _scalars(obj["rbar"], n, "rbar")}
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

    d = obj["dim"]
    n = obj["conductor"]
    if n != A.conductor:
        raise ValueError("module and algebra conductors differ")
    act = SparseTensor3((A.dim, d, d), n)
    for (a, r, c), v in _scalars(obj["action"], n, "action"):
        act.set(a, r, c, v)
    return WHAModule(A, d, act)
