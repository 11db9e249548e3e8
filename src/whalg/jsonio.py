"""Deterministic JSON import/export for every shared artifact.

Exports are byte-stable: sparse entries are emitted in sorted order and the
encoder uses sorted keys with fixed separators, so identical inputs yield
identical files.
"""

from __future__ import annotations

import json

from .exactmath import Cyclotomic, SparseMatrix, SparseTensor3
from .groups import FiniteGroup, ThreeCocycle, ValidationError
from .skeleton import FusionRing, SkeletalCategory, SkeletalModule, SkeletonError
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
    """The JSON value in the file at `path`; InputError names the path when
    the file cannot be opened (missing, a directory, no read permission) or
    is not UTF-8 JSON."""
    try:
        fh = open(path)
    except OSError as exc:
        raise InputError(f"{path}: cannot read: {exc.strerror}") from None
    with fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # json.JSONDecodeError or UnicodeDecodeError
            raise InputError(f"{path}: not a JSON file: {exc}") from None


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
    table, identity = _fields(obj, "group", "table", "identity")
    for pos, row in enumerate(_entries(table, "group", "table")):
        if not isinstance(row, list) or not all(type(v) is int for v in row):
            raise InputError(f"group file: table[{pos}] is not a list of integers: {row!r:.80}")
    try:
        G = FiniteGroup(table)
    except ValidationError as exc:
        raise InputError(f"group file: table is not a group: {exc}") from None
    if G.identity != identity:
        raise InputError("group file: declared identity disagrees with the table")
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
    cond, flat = _fields(obj, "cocycle", "conductor", "values")
    vals = {}
    if not isinstance(flat, list) or len(flat) != n ** 3:
        raise InputError("cocycle file: values must carry |G|^3 scalar encodings")
    idx = 0
    for a in range(n):
        for b in range(n):
            for c in range(n):
                vals[(a, b, c)] = _invertible(flat[idx], cond, lambda: f"values[{idx}]")
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
    ring = _ring_from_json(obj, "skeleton")
    cond, f_entries = _fields(obj, "skeleton", "conductor", "F")
    _conductor(cond, "skeleton")
    F = {}
    for pos, (*key, enc) in enumerate(_entries(f_entries, "skeleton", "F", 5)):
        F[_labels(key, "skeleton", f"F[{pos}]")] = _invertible(enc, cond, lambda: f"F[{pos}]")
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
    what = "skeletal module"
    objects, action_entries, l_entries = _fields(obj, what, "objects", "action", "L")
    objects = _labels(_entries(objects, what, "objects"), what, "objects")
    action = {}
    for pos, entry in enumerate(_entries(action_entries, what, "action", 3)):
        a, x, y = _labels(entry, what, f"action[{pos}]")
        action[(a, x)] = y
    L = {}
    for pos, (*key, enc) in enumerate(_entries(l_entries, what, "L", 4)):
        L[_labels(key, what, f"L[{pos}]")] = _invertible(enc, C.conductor, lambda: f"L[{pos}]")
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
    return _ring_from_json(obj, "fusion ring")


def _ring_from_json(obj, what):
    """The fusion ring of the labels, unit and mult of a `what` file."""
    labels, unit, mult_entries = _fields(obj, what, "labels", "unit", "mult")
    labels = _labels(_entries(labels, what, "labels"), what, "labels")
    unit = _known(_label(unit, what, "unit"), labels, what, "unit")
    mult = {}
    for pos, entry in enumerate(_entries(mult_entries, what, "mult", 3)):
        where = f"mult[{pos}]"
        mult[tuple(_known(lab, labels, what, where) for lab in _labels(entry, what, where))] = 1
    try:
        return FusionRing(labels, unit, mult)
    except SkeletonError as exc:
        raise InputError(f"{what} file: {exc}") from None


def _known(lab, labels, what, where):
    """`lab`, which must be one of `labels`; InputError names `where` otherwise."""
    if lab not in labels:
        raise InputError(f"{what} file: {where}: {lab!r} is not one of the labels")
    return lab


def candidates_from_json(obj):
    """The candidates of an obstruction candidates file: a list of objects,
    each with a list of labels under "object" and an integer "jdim"."""
    if not isinstance(obj, list):
        raise InputError(f"candidates file: expected a JSON list, not a {type(obj).__name__}")
    out = []
    for pos, z in enumerate(obj):
        if not (isinstance(z, dict) and isinstance(z.get("object"), list)
                and type(z.get("jdim")) is int):
            raise InputError(f"candidates file: [{pos}] is not an object with an \"object\" list "
                             f"and an integer \"jdim\": {z!r:.80}")
        out.append(dict(z, object=list(_labels(z["object"], "candidates", f"[{pos}].object"))))
    return out


# -- algebras ------------------------------------------------------------------


class InputError(ValueError):
    """A file that does not hold what it claims to; the CLI exits 2 on it."""


def _fields(obj, what, *keys):
    """The values of `keys` in the top-level object of a `what` file.

    Raises InputError naming the file kind when obj is not a JSON object or
    a key is missing.
    """
    if not isinstance(obj, dict):
        raise InputError(f"{what} file: expected a JSON object, not a {type(obj).__name__}")
    for key in keys:
        if key not in obj:
            raise InputError(f"{what} file: missing key {key!r}")
    return [obj[key] for key in keys]


def _entries(value, what, key, arity=None):
    """The list under `key` of a `what` file; with `arity`, each of its
    entries must be a list of that many items.  Raises InputError naming the
    file kind and the entry otherwise."""
    if not isinstance(value, list):
        raise InputError(f"{what} file: {key} must be a list, not {type(value).__name__}")
    if arity is not None:
        for pos, entry in enumerate(value):
            if not isinstance(entry, list) or len(entry) != arity:
                raise InputError(f"{what} file: {key}[{pos}] is not a list of {arity} items: "
                                 f"{entry!r:.80}")
    return value


def _label(enc, what, where):
    """The label the encoding `enc` holds; it must be hashable, else
    InputError names the file kind and `where`, the entry it came from."""
    try:
        lab = decode_label(enc)
        hash(lab)
    except TypeError:
        raise InputError(f"{what} file: {where}: {enc!r:.80} is not a valid label") from None
    return lab


def _labels(encs, what, where):
    """The tuple of labels of the list `encs`, found under `where`."""
    return tuple(_label(enc, what, f"{where}[{pos}]") for pos, enc in enumerate(encs))


def _conductor(n, what):
    if type(n) is not int or n < 1:
        raise InputError(f"{what} file: conductor must be a positive integer, not {n!r}")


def _scalar(enc, n, where):
    """The scalar of conductor n that the encoding `enc` holds.

    Its coefficients must be integer [num, den] pairs with nonzero
    denominators.  Anything else raises InputError naming `where()`, the
    entry the encoding came from; `where` is called only then.
    """
    if not isinstance(enc, dict) or enc.get("conductor") != n:
        cond = enc.get("conductor") if isinstance(enc, dict) else None
        raise InputError(f"{where()}: scalar conductor {cond} differs from the file's conductor {n}")
    try:
        return Cyclotomic.from_json(enc)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"{where()}: bad scalar encoding: {exc}") from None


def _invertible(enc, n, where):
    """A nonzero scalar (see `_scalar`): cocycle and associator values scale
    isomorphisms, so zero raises InputError naming `where()`."""
    v = _scalar(enc, n, where)
    if not v:
        raise InputError(f"{where()}: zero scalar; associator values must be invertible")
    return v


def _header(obj, what):
    """(dim, conductor) of an algebra, R-matrix or module object."""
    d, n = _fields(obj, what, "dim", "conductor")
    if type(d) is not int or d < 0:
        raise InputError(f"{what} file: dim must be a nonnegative integer, not {d!r}")
    _conductor(n, what)
    return d, n


def _table(obj, table, n, bounds):
    """{indices: scalar} of the [*indices, encoding] entries of obj[table].

    Each entry carries one integer index per bound, inside it, and a scalar
    of the file's conductor n (see `_scalar`); no indices repeat.  Anything
    else raises InputError naming the table and the entry.  Zero scalars are
    dropped.
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
        v = _scalar(enc, n, lambda: _where(table, key))
        if v:
            out[key] = v
        else:
            zeros.add(key)
    return out


def _where(table, key):
    return f"{table}[{', '.join(map(str, key))}]"


def algebra_to_json(A):
    enc = {c: c.to_json() for c in A.scalar_ids}  # one shared encoding per scalar
    return {
        "name": A.name,
        "dim": A.dim,
        "conductor": A.conductor,
        "labels": [encode_label(l) for l in A.labels],
        "mu": sorted([i, j, k, enc[v]] for (i, j, k), v in A.mu.data.items()),
        "unit": sorted([i, enc[v]] for i, v in A.unit.items()),
        "delta": sorted([i, j, k, enc[v]] for (i, j, k), v in A.delta.data.items()),
        "counit": sorted([i, enc[v]] for i, v in A.counit.items()),
        "antipode": sorted([k, i, enc[v]] for (k, i), v in A.antipode.data.items()),
        "meta": A.meta,
    }


def algebra_from_json(obj):
    d, n = _header(obj, "algebra")
    labels = obj.get("labels")
    if not isinstance(labels, list) or len(labels) != d:
        count = len(labels) if isinstance(labels, list) else "no"
        raise InputError(f"labels: {count} entries for dim {d}")
    labels = _labels(labels, "algebra", "labels")
    first = {}
    for pos, lab in enumerate(labels):
        if first.setdefault(lab, pos) != pos:
            raise InputError(f"labels[{pos}]: {lab!r:.80} repeats labels[{first[lab]}]")
    cube = (d, d, d)
    return WeakHopfAlgebra(
        labels, n,
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
        "terms": sorted([i, j, v.to_json()] for (i, j), v in cand.terms.items()),
    }
    if cand.rbar is not None:
        out["rbar"] = sorted([i, j, v.to_json()] for (i, j), v in cand.rbar.items())
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
        "action": sorted([a, r, c, v.to_json()] for (a, r, c), v in V.action.data.items()),
    }


def wha_module_from_json(obj, A):
    from .repcat import WHAModule

    d, n = _header(obj, "module")
    if n != A.conductor:
        raise InputError("module and algebra conductors differ")
    _fields(obj, "module", "action")
    act = SparseTensor3((A.dim, d, d), n, _table(obj, "action", n, (A.dim, d, d)))
    return WHAModule(A, d, act)
