"""Finite racks on {0, ..., n-1}.

A rack is stored as one read-only C-contiguous int32 (n, n) array whose
row y is the right translation f_y, so array[y, x] = x > y.  The
operation table (table[x][y] = x > y) is its transpose.  A table defines
a rack iff every column is a bijection and the translations satisfy the
conjugation rule

    f[(y)f_z] = f_z^-1 f_y f_z   for all y, z,

which is equivalent to right self-distributivity
(x > y) > z = (x > z) > (y > z).  axiom_report checks the conjugation
rule; constructors validate eagerly so invalid racks are unrepresentable
downstream.  A table of exact Python ints is read in one C-level pass.
The check costs two d x n gathers per orbit of the verified colours, for
the d distinct maps, and n^2 only for a failing column; it reports the
same witnesses as a check of every column.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field

import numpy as np

from .graph import _min_labels
from .perms import distinct_rows, is_permutation, permutation_rows


class RackError(Exception):
    pass


class MalformedTableError(RackError):
    """Wrong shape or out-of-range entry; distinct from an axiom violation."""


class NotARackError(RackError):
    def __init__(self, report):
        self.report = report
        first = report.violations[0] if report.violations else None
        super().__init__(f"not a rack: first violation {first}")


class NotAGroupError(RackError):
    def __init__(self, kind, witness):
        self.kind = kind
        self.witness = witness
        super().__init__(f"not a group: {kind} at {witness}")


class NotAbelianError(RackError):
    pass


class NotAutomorphismError(RackError):
    pass


class RackParseError(RackError):
    def __init__(self, message, line, col):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, col {col}: {message}")


@dataclass(frozen=True)
class Violation:
    kind: str      # "NotBijective" | "ConjugationFail"
    witness: tuple  # (y,) for NotBijective, else (x, y, z)


@dataclass(frozen=True)
class AxiomReport:
    n: int
    is_rack: bool
    is_quandle: bool
    violations: tuple
    # the table's maps, row y is f_y, as a read-only int32 array the report owns
    array: np.ndarray | None = field(default=None, compare=False, repr=False)


def table_order(table) -> int:
    """Validate shape and entry range of an operation table; return its order."""
    if isinstance(table, np.ndarray):
        if table.ndim != 2 or not table.size or table.shape[0] != table.shape[1] \
                or not np.issubdtype(table.dtype, np.integer):
            raise MalformedTableError(f"table is a {table.shape} {table.dtype} array")
        bad = np.argwhere((table < 0) | (table >= len(table)))
        if len(bad):
            x, y = bad[0]
            raise MalformedTableError(f"entry ({x},{y}) = {table[x, y]} out of range "
                                      f"0..{len(table) - 1}")
        return len(table)
    try:
        n = len(table)
    except TypeError:
        raise MalformedTableError("table is not a sequence") from None
    if n == 0:
        raise MalformedTableError("empty table")
    for x, row in enumerate(table):
        if len(row) != n:
            raise MalformedTableError(f"row {x} has length {len(row)}, expected {n}")
        for v in row:
            if not isinstance(v, int) or not 0 <= v < n:
                # the column is counted only here, which keeps the scan cheap
                y, v = next((y, v) for y, v in enumerate(row)
                            if not isinstance(v, int) or not 0 <= v < n)
                raise MalformedTableError(f"entry ({x},{y}) = {v!r} out of range 0..{n - 1}")
    return n


def _int_rows(rows):
    """rows as an (n, n) int32 array, read in one C-level pass, if it is a list
    or tuple of n lists or tuples of n exact ints within int32; else rows."""
    n = len(rows) if isinstance(rows, (list, tuple)) else 0
    if n and all(isinstance(row, (list, tuple)) and len(row) == n for row in rows) \
            and operator.countOf(map(type, itertools.chain.from_iterable(rows)), int) == n * n:
        try:
            return np.fromiter(itertools.chain.from_iterable(rows), np.int32, n * n).reshape(n, n)
        except (OverflowError, ValueError):
            pass
    return rows


def _table_array(table) -> np.ndarray:
    """The table as an int32 array, checked once by table_order: rows of exact
    ints as one array, any other input by its entry-by-entry scan."""
    table = _int_rows(table)
    table_order(table)
    return np.asarray(table, dtype=np.int32)


def _column_witnesses(cols, p, p_inv, z) -> list:
    """Column z's violations, the first x per failing y: three n^2 gathers."""
    neq = cols[p] != p[cols[:, p_inv]]      # row y: f_{(y)f_z} against f_z^-1 f_y f_z
    return [Violation("ConjugationFail", (int(np.argmax(neq[y])), int(y), z))
            for y in np.flatnonzero(neq.any(axis=1))]


def _conjugation_violations(cols, n) -> list:
    """First witness (x, y, z) per failing (y, z) pair, sorted by (y, z).

    Requires bijective columns.  Column z passes iff f_z is an automorphism.
    Let A be the set of such z.  If a and y are in A, so are (y)f_a and
    (y)f_a^-1, because f_{(y)f_a} = f_a^-1 f_y f_a.  So A is closed under the
    edges of every colour in A, and a z in the component of a known member,
    over the edges of the checked colours, is in A without a check; so is a
    z whose map equals a checked map.  Every other z is checked, so the
    violations are exactly those of a check of every column.  The components
    are joined over a passing colour's edges only when a later z whose map
    has not passed finds no mark under the labels it has.

    A check costs two d x n gathers over the d distinct maps, whose classes c
    have least member first[c].  With p = f_z and ip[y] the class of (y)p,
    column z passes iff (a) ip is constant on each class and (b) f_{(y)p} =
    p^-1 f_y p for y = first[c], every c: then f_{(y)p} = p^-1 f_y p for every
    y, as both sides depend only on y's class; a passing column meets both.
    Only a failing column pays three n^2 gathers, for its witnesses.
    """
    first, inverse = distinct_rows(cols)
    reps = cols if len(first) == n else cols[first]     # row c: the map of class c
    label = np.arange(n)                # vertex -> least vertex of its component
    known = np.zeros(n, dtype=bool)     # labels of the components holding a known member of A
    passed = np.zeros(len(first), dtype=bool)   # classes of the checked columns in A
    pending = []                        # maps in A whose edges label does not join yet
    out = []
    for z in range(n):
        p, c = cols[z], inverse[z]
        if pending and not passed[c] and not known[label[z]]:
            # label is finer than the components, so a hit needs no relabel;
            # on a miss, join the pending edges, and a label that stops
            # being one keeps its mark, which no vertex can then read
            merged = _min_labels(n, np.concatenate([label] * len(pending)),
                                 label[np.concatenate(pending)])
            known[merged[known]] = True
            label = merged[label]
            pending = []
        if passed[c] or known[label[z]]:
            known[label[z]] = True
            continue
        p_inv = np.empty(n, dtype=np.int32)
        p_inv[p] = np.arange(n, dtype=np.int32)
        ip = inverse[p]
        if (ip == ip[first][inverse]).all() and (reps[ip[first]] == p[reps[:, p_inv]]).all():
            passed[c] = True
            known[label[z]] = True
            pending.append(p)
        else:
            out += _column_witnesses(cols, p, p_inv, z)
    out.sort(key=lambda v: (v.witness[1], v.witness[2]))
    return out


def axiom_report(table) -> AxiomReport:
    """Check the rack axioms of a well-formed table.

    A table of exact Python ints is read in one C-level pass.  The conjugation
    rule is checked only when every column is bijective, with two d x n
    gathers per orbit of the verified colours for the d distinct maps, n^2
    only for a failing column, and the witnesses of a check of every column.
    """
    return _maps_report(_table_array(table).T.copy())  # row y is the map f_y


def _maps_report(cols) -> AxiomReport:     # axiom_report of the maps in an int32 array it keeps
    n = len(cols)
    cols.flags.writeable = False
    if cols.base is not None:   # rows that _int_rows read are a view of a new flat array
        cols.base.flags.writeable = False
    bad = np.flatnonzero(~permutation_rows(cols))
    violations = [Violation("NotBijective", (int(y),)) for y in bad]
    if not violations:
        violations = _conjugation_violations(cols, n)
    is_rack = not violations
    is_quandle = is_rack and bool((np.diagonal(cols) == np.arange(n)).all())
    return AxiomReport(n=n, is_rack=is_rack, is_quandle=is_quandle,
                       violations=tuple(violations), array=cols)


def _rack_rows(maps) -> np.ndarray:
    """Whether each rack of a (k, n, n) stack of maps in 0..n-1 is a rack, without
    witnesses: every row a permutation, and f_{(y)f_z} = f_z^-1 f_y f_z read as
    (x)f_z f_{(y)f_z} = (x)f_y f_z over every (x, y, z) of a block of racks at once."""
    k, n = maps.shape[:2]
    ok = permutation_rows(maps.reshape(-1, n)).reshape(k, n).all(axis=1)
    step, z = max(1, BLOCK_ENTRIES // n ** 3), np.arange(n)[:, None, None]
    for b in range(0, k, step):
        block = maps[b:b + step]
        i = np.arange(len(block))[:, None, None, None]
        # [i, z, y, x]: (x)f_z f_{(y)f_z} on the left, (x)f_y f_z on the right
        same = block[i, block[:, :, :, None], block[:, :, None, :]] == block[i, z, block[:, None]]
        ok[b:b + step] &= same.reshape(len(block), -1).all(axis=1)
    return ok


class Rack:
    """Immutable rack; construction checks the axioms as axiom_report does: two
    d x n gathers per orbit of the verified colours, a full scan's witnesses.
    It stores only array; maps and table are built from it on each access."""

    __slots__ = ("array",)

    def __init__(self, maps):
        if not isinstance(maps, np.ndarray):
            maps = tuple(maps)
            if not maps:
                raise MalformedTableError("empty map family")
            for y, m in enumerate(maps):
                if len(m) != len(maps):
                    raise MalformedTableError(f"map {y} has length {len(m)}, expected {len(maps)}")
        # rows of exact ints become one new array, which the report keeps; array
        # rows are checked as one array, not as a table of numpy scalars
        rows = _int_rows(maps)
        arrays = isinstance(rows, np.ndarray) or all(isinstance(m, np.ndarray) for m in rows)
        cols = _table_array(np.asarray(rows).T if arrays else tuple(zip(*rows))).T
        report = _maps_report(rows if rows is not maps else cols.copy())
        if not report.is_rack:
            raise NotARackError(report)
        self.array = report.array

    @classmethod
    def _unchecked(cls, array) -> "Rack":
        """A rack of the maps in a read-only (n, n) int32 array, axioms checked."""
        rack = cls.__new__(cls)
        rack.array = array
        return rack

    @classmethod
    def from_table(cls, table) -> "Rack":
        result = rack_from_table(table)
        if isinstance(result, AxiomReport):
            raise NotARackError(result)
        return result

    @property
    def n(self) -> int:
        return len(self.array)

    @property
    def maps(self) -> tuple:
        """maps[y][x] = x > y: the translations f_y."""
        return tuple(map(tuple, self.array.tolist()))

    @property
    def table(self) -> tuple:
        """table[x][y] = x > y: the operation table."""
        return tuple(map(tuple, self.array.T.tolist()))

    @property
    def is_quandle(self):
        return bool((np.diagonal(self.array) == np.arange(self.n)).all())

    def relabel(self, phi) -> "Rack":
        """The isomorphic rack with x renamed to phi[x]."""
        if not is_permutation(phi, self.n):
            raise ValueError("relabeling must be a permutation of the ground set")
        phi = np.asarray(phi)
        psi = np.argsort(phi)
        # (x)f'_y = phi[(psi[x])f_psi[y]]: row y of the relabeled maps
        return Rack.from_table(phi[self.array[np.ix_(psi, psi)]].T)

    def __eq__(self, other):
        return isinstance(other, Rack) and np.array_equal(self.array, other.array)

    def __hash__(self):
        return hash(self.array.tobytes())

    def __repr__(self):
        return f"Rack(n={self.n}, maps={self.maps})"


def rack_from_table(table):
    """Rack if the table satisfies the axioms, else the full AxiomReport.

    The table is rows or a square integer numpy array, checked in numpy; the
    rack keeps the report's int32 copy of the maps.  Malformed input (wrong
    shape, out-of-range entry) raises MalformedTableError, not an AxiomReport.
    """
    report = axiom_report(table)
    return Rack._unchecked(report.array) if report.is_rack else report


# ---------------------------------------------------------------------------
# standard families

def trivial_rack(n: int) -> Rack:
    """x > y = x: every translation is the identity."""
    if n < 1:
        raise ValueError("order must be positive")
    return permutation_rack(range(n))


def permutation_rack(perm) -> Rack:
    """All translations equal to a single permutation; valid for any choice."""
    perm = tuple(perm)
    if not is_permutation(perm):
        raise ValueError("not a permutation")
    if not perm:
        raise MalformedTableError("empty map family")
    # x > y = perm[x]: one column, repeated without copying it
    column = np.array(perm, dtype=np.int32)[:, None]
    return Rack.from_table(np.broadcast_to(column, (len(perm), len(perm))))


def dihedral_quandle(n: int) -> Rack:
    """x > y = 2y - x mod n (the cyclic Alexander quandle with negation)."""
    if n < 1:
        raise ValueError("order must be positive")
    x = np.arange(n)
    return Rack.from_table((2 * x - x[:, None]) % n)


GROUP_BLOCK_ENTRIES = 1 << 18  # (a, b, c) triples compared at once by _group_check
BLOCK_ENTRIES = 1 << 14  # entries gathered at once by _rack_rows and _canonical_tables


def _group_check(g):
    """Return (identity, inverses) of a _table_array; raise NotAGroupError.

    Associativity compares (ab)c with a(bc) in blocks of rows a, so its
    witness is the lexicographically first failing (a, b, c).
    """
    n, x = len(g), np.arange(len(g))
    units = np.flatnonzero((g == x).all(axis=1) & (g == x[:, None]).all(axis=0))
    if not len(units):
        raise NotAGroupError("NoIdentity", ())
    e = int(units[0])
    pairs = (g == e) & (g.T == e)
    found = pairs.any(axis=1)
    if not found.all():
        raise NotAGroupError("NoInverse", (int(found.argmin()),))
    step = max(1, GROUP_BLOCK_ENTRIES // (n * n))
    for a in range(0, n, step):
        rows = g[a:a + step]
        bad = g[rows] != rows[:, g]
        if bad.any():
            i, b, c = np.unravel_index(bad.argmax(), bad.shape)
            raise NotAGroupError("NotAssociative", (a + int(i), int(b), int(c)))
    return e, pairs.argmax(axis=1)


def conjugation_quandle(group_table) -> Rack:
    """x > y = y^-1 x y over a (checked) group multiplication table."""
    g = _table_array(group_table)
    _, inv = _group_check(g)
    x = np.arange(len(g))
    # x > y = g[g[inv[y]][x]][y], row x and column y
    return Rack.from_table(g[g[inv, x[:, None]], x])


def alexander_quandle(add_table, tau) -> Rack:
    """x > y = (x - y)tau + y over a (checked) abelian group and automorphism tau;
    a failed check names its first (a, b) in row-major order."""
    add = _table_array(add_table)
    _, neg = _group_check(add)
    n = len(add)
    bad = np.argwhere(add != add.T)
    if len(bad):
        a, b = bad[0]
        raise NotAbelianError(f"{a}+{b} != {b}+{a}")
    tau = tuple(tau)
    if not is_permutation(tau, n):
        raise NotAutomorphismError("tau is not a permutation of the group")
    tau, x = np.array(tau, dtype=np.intp), np.arange(n)
    bad = np.argwhere(tau[add] != add[tau[:, None], tau])
    if len(bad):
        a, b = bad[0]
        raise NotAutomorphismError(f"tau({a}+{b}) != tau({a})+tau({b})")
    # x > y = add[tau[add[x][neg[y]]]][y], row x and column y
    return Rack.from_table(add[tau[add[x[:, None], neg]], x])


def cyclic_group_table(n: int):
    """Addition table of Z_n."""
    if n < 1:
        raise ValueError("order must be positive")
    return tuple(tuple((a + b) % n for b in range(n)) for a in range(n))


def symmetric_group_table(k: int):
    """Multiplication table of Sym(k) with elements in lexicographic order.

    Product a*b composes left to right, matching the package convention:
    the image of x under a*b is b[a[x]].
    """
    elems = list(itertools.permutations(range(k)))
    index = {p: i for i, p in enumerate(elems)}
    return tuple(tuple(index[tuple(b[v] for v in a)] for b in elems) for a in elems)


def dihedral_group_table(m: int):
    """Multiplication table of the dihedral group of order 2m (m >= 1)."""
    if m < 1:
        raise ValueError("m must be positive")
    # element 2i is the rotation r^i, 2i+1 the reflection r^i s
    def mul(a, b):
        i, s = divmod(a, 2)
        j, t = divmod(b, 2)
        if s == 0:
            return 2 * ((i + j) % m) + t
        return 2 * ((i - j) % m) + (1 - t)
    n = 2 * m
    return tuple(tuple(mul(a, b) for b in range(n)) for a in range(n))


# ---------------------------------------------------------------------------
# canonical form

@functools.lru_cache(maxsize=None)
def _relabelings(n):
    """Gather indices from a rack's flat array to all n! relabeled tables.

    For psi over the permutations of [n] and phi = psi^-1, row x of the
    relabeled table is phi[table[psi[x], psi[y]]] over y, and table[x, y]
    is array[y, x].  Returns (cells, offsets, phi): row k of cells reads the
    flat array in table order under psi_k, and phi holds the inverses flat,
    so phi_k[v] is phi[offsets[k] + v].
    """
    psi = np.array(list(itertools.permutations(range(n))), dtype=np.intp).reshape(-1, n)
    cells = (psi[:, None, :] * n + psi[:, :, None]).reshape(len(psi), n * n)
    return cells, n * np.arange(len(psi))[:, None], np.argsort(psi, axis=1).ravel()


def _canonical_tables(arrays) -> np.ndarray:
    """canonical_form of each rack of a (k, n, n) stack of maps: one gather per
    block of racks builds their n! relabeled tables, one lexsort picks the least."""
    k, n = arrays.shape[:2]
    cells, offsets, phi = _relabelings(n)
    # a row read as one base-n numeral keeps the lexicographic row order
    weights = n ** np.arange(n - 1, -1, -1)
    out = np.empty((k, n, n), dtype=np.intp)
    step = max(1, BLOCK_ENTRIES // cells.size)
    for b in range(0, k, step):
        tables = phi[arrays[b:b + step].reshape(-1, n * n)[:, cells] + offsets]
        codes = tables.reshape(*tables.shape[:2], n, n) @ weights
        least = np.lexsort(np.moveaxis(codes, -1, 0)[::-1], axis=-1)[:, 0]
        out[b:b + step] = tables[np.arange(len(least)), least].reshape(-1, n, n)
    return out


def canonical_form(rack: Rack):
    """Lexicographically minimal operation table over all relabelings, equal
    exactly for isomorphic racks; it builds all n! tables, so n <= 8."""
    return tuple(map(tuple, _canonical_tables(rack.array[None])[0].tolist()))


# ---------------------------------------------------------------------------
# ".rack" text format: line 1 is n, lines 2..n+1 the table rows

def parse_rack_table(text):
    """Parse the text format into a table; RackParseError carries line/col."""
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise RackParseError("empty input", 1, 1)
    head = lines[0].split()
    if len(head) != 1:
        raise RackParseError(f"expected a single order, got {len(head)} tokens", 1, 1)
    try:
        n = int(head[0])
    except ValueError:
        raise RackParseError(f"order {head[0]!r} is not an integer", 1, 1) from None
    if n < 1:
        raise RackParseError(f"order must be positive, got {n}", 1, 1)
    if len(lines) - 1 != n:
        raise RackParseError(f"expected {n} rows, found {len(lines) - 1}", len(lines), 1)
    table = []
    for x in range(n):
        tokens = lines[1 + x].split()
        if len(tokens) != n:
            raise RackParseError(f"row has {len(tokens)} entries, expected {n}", 2 + x, 1)
        row = []
        for col, tok in enumerate(tokens):
            try:
                v = int(tok)
            except ValueError:
                raise RackParseError(f"entry {tok!r} is not an integer", 2 + x, col + 1) from None
            if not 0 <= v < n:
                raise RackParseError(f"entry {v} out of range 0..{n - 1}", 2 + x, col + 1)
            row.append(v)
        table.append(tuple(row))
    return tuple(table)


def format_rack(rack: Rack) -> str:
    lines = [str(rack.n)]
    lines += [" ".join(str(v) for v in row) for row in rack.table]
    return "\n".join(lines) + "\n"


def read_rack_table(path):
    """Read and parse a .rack file; text that is not UTF-8 is a RackParseError."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise RackParseError(f"not UTF-8 text ({exc.reason} at byte {exc.start})", 1, 1) from None
    return parse_rack_table(text)


def load_rack(path) -> Rack:
    """Parse and validate a .rack file; raises RackParseError or NotARackError."""
    return Rack.from_table(read_rack_table(path))
