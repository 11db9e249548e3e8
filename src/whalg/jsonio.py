"""Deterministic JSON import/export for every shared artifact.

Exports are byte-stable: sparse entries are emitted in sorted order and the
encoder uses sorted keys with fixed separators, so identical inputs yield
identical files.
"""

from __future__ import annotations

import itertools
import json
import marshal

from .exactmath import Cyclotomic, SparseTensor3
from .groups import FiniteGroup, ThreeCocycle, ValidationError
from .skeleton import FusionRing, SkeletalCategory, SkeletalModule, SkeletonError, action_detail
from .wha import RMatrixCandidate, WeakHopfAlgebra


_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def dumps(obj):
    return _encode(obj) + "\n"


def _sorted_entries(items):
    """`[label, ..., scalar]` entries for (labels, scalar) items, the scalar
    column left out where it is None, in the order of their canonical JSON.

    Labels may encode as objects, so the entries sort by the deterministic
    text `json.dumps(entry, sort_keys=True)`.  That text is joined from the
    text of each distinct label and scalar, each encoded once.
    """
    encoded = {}

    def part(x, encode):
        got = encoded.get((encode, x))
        if got is None:
            obj = encode(x)
            got = encoded[(encode, x)] = (obj, json.dumps(obj, sort_keys=True))
        return got

    keyed = []
    for labels, v in items:
        parts = [part(lab, encode_label) for lab in labels]
        if v is not None:
            parts.append(part(v, Cyclotomic.to_json))
        keyed.append(("[" + ", ".join(text for _, text in parts) + "]", [obj for obj, _ in parts]))
    keyed.sort(key=lambda e: e[0])
    return [entry for _, entry in keyed]


def write_json(path, obj):
    with open(path, "w") as fh:
        fh.write(dumps(obj))


def read_json(path):
    """The JSON value in the file at `path`; InputError names the path when
    the file cannot be opened (missing, a directory, no read permission) or
    is not UTF-8 JSON.

    Every {"conductor", "coeffs"} object that is spelt alike in the file is
    one shared `_Encoding`, so the loaders decode each distinct scalar once
    (see `_scalar`).  Callers must not mutate the value.
    """
    try:
        fh = open(path)
    except OSError as exc:
        raise InputError(f"{path}: cannot read: {exc.strerror}") from None
    with fh:
        try:
            return json.load(fh, object_hook=_sharing_hook())
        except ValueError as exc:  # json.JSONDecodeError or UnicodeDecodeError
            raise InputError(f"{path}: not a JSON file: {exc}") from None


class _Encoding(dict):
    """A scalar encoding shared by every entry of a file that spells it
    alike; `value` caches its scalar once `_scalar` has decoded it."""

    value = None


def _sharing_hook():
    """A `json.load` object_hook that returns one `_Encoding` per distinct
    spelling of an object whose keys are exactly "conductor" and "coeffs",
    and every other object as it is.

    The spelling is the object's marshal serialization, which tells 1 from
    1.0 and true although they compare and hash alike, so an invalid
    encoding never shares the object of a valid one; it is several times
    cheaper than the repr.  An object marshal cannot serialize (a nested
    `_Encoding`) is left unshared, for `_scalar` to reject.
    """
    shared = {}

    def hook(obj):
        if len(obj) != 2 or "coeffs" not in obj or "conductor" not in obj:
            return obj
        try:
            key = marshal.dumps(obj, 2)
        except ValueError:
            return obj
        enc = shared.get(key)
        if enc is None:
            enc = shared[key] = _Encoding(obj)
        return enc

    return hook


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
    _conductor(cond, "cocycle")
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
        "mult": _sorted_entries((key, None) for key, v in ring.mult.items() if v),
        "F": _sorted_entries(C.F.items()),
    }


def skeleton_from_json(obj):
    """The category of a skeleton file: its ring must pass `validate`, and each
    F entry (a, b, c, d) be given once, on the labels, with d in (a b) c."""
    what = "skeleton"
    ring = _ring_from_json(obj, what)
    cond, f_entries = _fields(obj, what, "conductor", "F")
    _conductor(cond, what)
    labels = set(ring.labels)
    F = {}
    for pos, (*key, enc) in enumerate(_entries(f_entries, what, "F", 5)):
        where = f"F[{pos}]"
        a, b, c, d = key = tuple(_known(lab, labels, what, where) for lab in _labels(key, what, where))
        if not any(d in ring.products(e, c) for e in ring.products(a, b)):
            raise InputError(f"{what} file: {where}: {d!r} is not a product of ({a!r} {b!r}) {c!r}")
        _once(key, F, what, where)
        F[key] = _invertible(enc, cond, lambda: where)
    return SkeletalCategory(ring, F, cond)


def module_to_json(M):
    return {
        "conductor": M.over.conductor,
        "objects": [encode_label(x) for x in M.objects],
        "action": _sorted_entries(((a, x, y), None) for (a, x), y in M.action.items()),
        "L": _sorted_entries(M.L.items()),
    }


def module_from_json(obj, C):
    """The module over the grouplike C of a skeletal module file: its action
    must be one, and each L entry (a, b, x) given once, on C's labels and M's objects."""
    what = "skeletal module"
    objects, action_entries, l_entries = _fields(obj, what, "objects", "action", "L")
    objects = _labels(_entries(objects, what, "objects"), what, "objects")
    action = {}
    for pos, entry in enumerate(_entries(action_entries, what, "action", 3)):
        a, x, y = _labels(entry, what, f"action[{pos}]")
        _once((a, x), action, what, f"action[{pos}]")
        action[(a, x)] = y
    M = SkeletalModule(C, objects, action, {})
    detail = action_detail(M)
    if detail is not None:
        raise InputError(f"{what} file: {detail}")
    labels, object_set = set(C.labels), set(objects)
    for pos, (*key, enc) in enumerate(_entries(l_entries, what, "L", 4)):
        where = f"L[{pos}]"
        a, b, x = key = _labels(key, what, where)
        _known(a, labels, what, where)
        _known(b, labels, what, where)
        _known(x, object_set, what, where, "objects")
        _once(key, M.L, what, where)
        M.L[key] = _invertible(enc, C.conductor, lambda: where)
    return M


def fusion_ring_to_json(ring):
    return {
        "labels": [encode_label(l) for l in ring.labels],
        "unit": encode_label(ring.unit),
        "mult": _sorted_entries((key, None) for key, v in ring.mult.items() if v),
    }


def fusion_ring_from_json(obj):
    return _ring_from_json(obj, "fusion ring")


def _ring_from_json(obj, what):
    """The fusion ring of the labels, unit and mult of a `what` file; it must
    pass `FusionRing.validate`."""
    labels, unit, mult_entries = _fields(obj, what, "labels", "unit", "mult")
    labels = _labels(_entries(labels, what, "labels"), what, "labels")
    unit = _known(_label(unit, what, "unit"), labels, what, "unit")
    mult = {}
    for pos, entry in enumerate(_entries(mult_entries, what, "mult", 3)):
        where = f"mult[{pos}]"
        mult[tuple(_known(lab, labels, what, where) for lab in _labels(entry, what, where))] = 1
    try:
        ring = FusionRing(labels, unit, mult)
    except SkeletonError as exc:
        raise InputError(f"{what} file: {exc}") from None
    rep = ring.validate()
    if not rep.ok:
        raise InputError(f"{what} file: {rep.first_failure}")
    return ring


def _known(lab, labels, what, where, kind="labels"):
    """`lab`, which must be one of `labels`; InputError names `where` otherwise."""
    if lab not in labels:
        raise InputError(f"{what} file: {where}: {lab!r} is not one of the {kind}")
    return lab


def _once(key, table, what, where):
    """Raise InputError naming `where` if `key` is already in `table`."""
    if key in table:
        raise InputError(f"{what} file: {where}: duplicate entry")


def candidates_from_json(obj, ring):
    """The candidates of an obstruction candidates file: a list of objects,
    each with a list of the ring's labels under "object" and an integer "jdim"."""
    if not isinstance(obj, list):
        raise InputError(f"candidates file: expected a JSON list, not a {type(obj).__name__}")
    labels = set(ring.labels)
    out = []
    for pos, z in enumerate(obj):
        if not (isinstance(z, dict) and isinstance(z.get("object"), list)
                and type(z.get("jdim")) is int):
            raise InputError(f"candidates file: [{pos}] is not an object with an \"object\" list "
                             f"and an integer \"jdim\": {z!r:.80}")
        where = f"[{pos}].object"
        out.append(dict(z, object=[_known(lab, labels, "candidates", f"{where}[{i}]")
                                   for i, lab in enumerate(_labels(z["object"], "candidates", where))]))
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

    Its conductor must be the integer n, its keys no others than
    "conductor" and "coeffs", and its coefficients integer [num, den] pairs
    with nonzero denominators.  Anything else raises InputError naming
    `where()`, the entry the encoding came from; `where` is called only
    then.  A shared `_Encoding` is decoded once: its scalar is cached when
    the decode succeeds, so a bad one fails at each entry.
    """
    cond = enc.get("conductor") if isinstance(enc, dict) else None
    if type(cond) is not int or cond != n:
        raise InputError(f"{where()}: scalar conductor {cond} differs from the file's conductor {n}")
    v = getattr(enc, "value", None)
    if v is None:
        extra = enc.keys() - {"conductor", "coeffs"}
        if extra:
            raise InputError(f"{where()}: bad scalar encoding: unexpected key "
                             f"{', '.join(map(repr, sorted(extra)))}")
        try:
            v = Cyclotomic.from_json(enc)
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise InputError(f"{where()}: bad scalar encoding: {exc}") from None
        if type(enc) is _Encoding:
            enc.value = v
    return v


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


def _entries_of(obj, table, n, bounds, decoded):
    """(indices, scalar) of the nonzero [*indices, encoding] entries of obj[table];
    a table with one index gives it bare, (i, scalar).

    Each entry carries one integer index per bound, inside it, and a scalar
    of the file's conductor n (see `_scalar`); no indices repeat.  Anything
    else raises InputError naming the table and the entry.  `decoded` maps
    id(encoding) -> scalar for the encodings met so far in one load call:
    it is the fast path, one dict probe per entry, and makes the entries of
    each encoding object share one scalar object.  A shared `_Encoding`
    also caches its scalar (`_scalar`), which the cocycle, F and L loaders
    read, so another load of the same parsed file decodes it no more.
    """
    entries = obj.get(table)
    if not isinstance(entries, list):
        raise InputError(f"{table}: expected a list of entries")
    arity = len(bounds)
    seen = set()
    for entry in entries:
        if not isinstance(entry, list) or len(entry) != arity + 1:
            raise InputError(f"{table}: entry {entry!r:.80} is not [{arity} indices, scalar]")
        key = tuple(entry[:arity])
        for i, bound in zip(key, bounds):
            if type(i) is not int or not 0 <= i < bound:
                raise InputError(f"{_where(table, key)}: index {i!r} is outside 0..{bound - 1}")
        if key in seen:
            raise InputError(f"{_where(table, key)}: duplicate entry")
        seen.add(key)
        enc = entry[arity]
        v = decoded.get(id(enc))
        if v is None:  # zero is kept as False
            v = decoded[id(enc)] = _scalar(enc, n, lambda: _where(table, key)) or False
        if v is not False:
            yield (key if arity > 1 else key[0]), v


def _table(obj, table, n, bounds):
    """{indices: scalar} of the nonzero entries of obj[table] (see `_entries_of`)."""
    return dict(_entries_of(obj, table, n, bounds, {}))


def _where(table, key):
    return f"{table}[{', '.join(map(str, key))}]"


def _algebra_fields(A):
    """The fields of an algebra file other than its tables."""
    return {"name": A.name, "dim": A.dim, "conductor": A.conductor,
            "labels": [encode_label(l) for l in A.labels], "meta": A.meta}


def algebra_to_json(A):
    vals, tables = A.sorted_entries()
    enc = [c.to_json() for c in vals]  # one shared encoding per scalar
    out = _algebra_fields(A)
    for key, entries in tables.items():
        out[key] = [[*e[:-1], enc[e[-1]]] for e in entries]
    return out


_CHUNK = 4096  # entries per write of `write_algebra`


def write_algebra(path, A):
    """Write `algebra_to_json(A)` to `path` in the bytes `write_json` writes.

    The structure tables repeat a few distinct scalars over many entries (six
    over 54k on A(Z6, p)), so each scalar is encoded once, its text looked up
    by id, and each entry is formatted around it, read in sorted order from
    A's store (`sorted_entries`).  The file is written a bounded number of
    entries at a time; `dumps(algebra_to_json(A))` stays the reference.
    """
    vals, tables = A.sorted_entries()
    text = [_encode(c.to_json()) for c in vals]
    fields = {key: _encode(value) for key, value in _algebra_fields(A).items()}
    lines = {  # each table's entries as text
        "mu": ("[%d,%d,%d,%s]" % (i, j, k, text[c]) for i, j, k, c in tables["mu"]),
        "unit": ("[%d,%s]" % (i, text[c]) for i, c in tables["unit"]),
        "delta": ("[%d,%d,%d,%s]" % (i, j, k, text[c]) for i, j, k, c in tables["delta"]),
        "counit": ("[%d,%s]" % (i, text[c]) for i, c in tables["counit"]),
        "antipode": ("[%d,%d,%s]" % (k, i, text[c]) for k, i, c in tables["antipode"]),
    }
    with open(path, "w") as fh:
        sep = "{"
        for key in sorted(fields.keys() | lines.keys()):
            fh.write(f'{sep}"{key}":')
            sep = ","
            if key in fields:
                fh.write(fields[key])
                continue
            entries = lines[key]
            fh.write("[")
            between = ""
            while chunk := list(itertools.islice(entries, _CHUNK)):
                fh.write(between)
                fh.write(",".join(chunk))
                between = ","
            fh.write("]")
        fh.write("}\n")


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
    # each table's one validating pass, read in the file's table order
    decoded = {}
    cube = (d, d, d)
    return WeakHopfAlgebra.from_entries(
        labels, n,
        _entries_of(obj, "mu", n, cube, decoded),
        _entries_of(obj, "unit", n, (d,), decoded),
        _entries_of(obj, "delta", n, cube, decoded),
        _entries_of(obj, "counit", n, (d,), decoded),
        _entries_of(obj, "antipode", n, (d, d), decoded),
        name=obj.get("name", "A"), meta=obj.get("meta", {}),
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
        raise InputError(f"module file: conductor {n} differs from the algebra's conductor {A.conductor}")
    _fields(obj, "module", "action")
    act = SparseTensor3((A.dim, d, d), n, _table(obj, "action", n, (A.dim, d, d)))
    return WHAModule(A, d, act)
