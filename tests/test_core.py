import functools
import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from racklab import (AxiomReport, MalformedTableError, NotAbelianError,
                     NotAGroupError, NotARackError, NotAutomorphismError, Rack,
                     RackParseError, Violation, alexander_quandle, axiom_report,
                     canonical_form, conjugation_quandle, cyclic_group_table, decode,
                     dihedral_group_table, dihedral_quandle, encode, format_rack,
                     parse_rack_table, permutation_rack, rack_from_table,
                     symmetric_group_table, trivial_rack)
from racklab import core, enumerate_classes, enumerate_labeled, enumeration
from racklab.core import table_order

from _corpus import (commuting_rack, family_racks, pair_swap_rack, random_relabeling,
                     random_table)
from _reference import canonical_form as reference_canonical_form
from _reference import (compose, find_isomorphism, group_check, inverse, is_permutation,
                        numpy_canonical_form, satisfies_rack_axioms, unpruned_class_outputs)


def test_trivial_rack():
    r = trivial_rack(1)
    assert r.maps == ((0,),)
    r4 = trivial_rack(4)
    assert all(m == (0, 1, 2, 3) for m in r4.maps)
    assert r4.is_quandle


def test_rack_from_table_trivial():
    table = [[x] * 3 for x in range(3)]
    r = rack_from_table(table)
    assert isinstance(r, Rack)
    assert r == trivial_rack(3)


def test_rack_from_table_id_swap_rejected():
    # maps f_0 = id, f_1 = swap; hand oracle: the pair (y=0, z=1) forces
    # f_{(0)f_1} = f_1 to equal f_1^-1 f_0 f_1 = id, and they differ at x=0
    table = ((0, 1), (1, 0))
    report = rack_from_table(table)
    assert isinstance(report, AxiomReport)
    assert not report.is_rack
    assert report.violations[0] == Violation("ConjugationFail", (0, 0, 1))


def test_dihedral_is_quandle():
    r = dihedral_quandle(3)
    assert r.table == ((0, 2, 1), (2, 1, 0), (1, 0, 2))
    assert r.is_quandle


def test_malformed_tables_raise():
    with pytest.raises(MalformedTableError):
        rack_from_table([[0, 1], [0]])
    with pytest.raises(MalformedTableError):
        rack_from_table([[0, 2], [1, 0]])
    with pytest.raises(MalformedTableError):
        rack_from_table([])


def test_array_tables_give_the_tuple_rack():
    rng = random.Random(3)
    for _, rack in family_racks(8):
        n = rack.n
        phi = rng.sample(range(n), n)
        maps = np.array(rack.maps, dtype=np.int32)
        paths = [
            Rack(rack.maps),                                  # tuple maps
            Rack.from_table(rack.table),                      # tuple table
            rack_from_table(np.array(rack.table)),            # int64 table
            rack_from_table(maps.T),                          # decode's transposed int32 view
            decode(encode(rack)),
            rack.relabel(phi).relabel(inverse(phi)),
        ]
        for result in paths:
            assert result == rack
            assert hash(result) == hash(rack) and repr(result) == repr(rack)
            assert result.table == rack.table and result.maps == rack.maps
            assert {type(v) for row in result.table + result.maps for v in row} == {int}
            array = result.array
            assert array.dtype == np.int32 and array.shape == (n, n)
            assert array.flags.c_contiguous and not array.flags.writeable
            assert array.base is None or not array.base.flags.writeable
        # the rack owns its array: changing the input afterwards changes nothing
        view = rack_from_table(maps.T)
        maps[:] = 0
        assert view == rack


def test_malformed_map_families_keep_their_messages():
    for maps, message in (([], "empty map family"),
                          ([(0, 1), (0,)], "map 1 has length 1, expected 2"),
                          ([(0, 1.0), (1, 0)], "entry (1,0) = 1.0 out of range 0..1"),
                          ([(0, 1), (1, "x")], "entry (1,1) = 'x' out of range 0..1"),
                          ([(0, 1), (0, 2)], "entry (1,1) = 2 out of range 0..1")):
        with pytest.raises(MalformedTableError) as err:
            Rack(maps)
        assert str(err.value) == message


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 12), st.integers(0, 10**6), st.booleans())
def test_pair_swap_racks_are_racks(n, seed, quandle):
    rack = pair_swap_rack(n, seed, quandle)
    assert satisfies_rack_axioms(rack.table)
    assert rack.is_quandle or not quandle
    # the maps come in equal pairs, and each preserves every pair {2i, 2i+1}
    maps = rack.array
    assert (maps[0:n - 1:2] == maps[1::2]).all()
    assert (maps[:, :n - n % 2] // 2 == np.arange(n - n % 2) // 2).all()


def test_array_tables_give_the_tuple_report():
    rng = random.Random(8)
    tables = [random_table(rng, rng.randrange(1, 7)) for _ in range(200)]
    tables += [swapped(dihedral_quandle(65).table, 5, [(0, 1)])]
    tables += [rack.table for _, rack in family_racks(8)]
    tables += [permutation_rack((1, 2, 0, 4, 3)).table]
    for table in tables:
        assert axiom_report(np.array(table)) == axiom_report(table)
        result = rack_from_table(np.array(table, dtype=np.uint8))
        assert result == rack_from_table(table)


@pytest.mark.parametrize("table", [
    np.zeros((2, 2, 2), dtype=np.int64), np.zeros((2, 3), dtype=np.int64),
    np.zeros((0, 0), dtype=np.int64), np.zeros((2, 2)), np.zeros((2, 2), dtype=bool),
    np.zeros(2, dtype=np.int64), np.array(0), np.array([[0, -1], [1, 0]]),
    np.array([[0, 1], [1, 2]], dtype=np.int32)])
def test_malformed_arrays_raise(table):
    with pytest.raises(MalformedTableError):
        rack_from_table(table)
    if table.ndim == 2 and table.shape[0] == table.shape[1] > 0 and table.dtype.kind == "i":
        # an entry out of range has the tuple scan's message
        assert _outcome(table_order, table) == _outcome(table_order, table.tolist())


def reference_table_order(table) -> int:
    """The entry-by-entry scan that table_order replaced, kept as a test oracle."""
    try:
        n = len(table)
    except TypeError:
        raise MalformedTableError("table is not a sequence") from None
    if n == 0:
        raise MalformedTableError("empty table")
    for x, row in enumerate(table):
        if len(row) != n:
            raise MalformedTableError(f"row {x} has length {len(row)}, expected {n}")
        for y, v in enumerate(row):
            if not isinstance(v, int) or not 0 <= v < n:
                raise MalformedTableError(f"entry ({x},{y}) = {v!r} out of range 0..{n - 1}")
    return n


def _outcome(check, table):
    try:
        return check(table)
    except Exception as e:
        return type(e), str(e)


@st.composite
def damaged_tables(draw):
    """Well-formed tables with a few entries replaced and rows resized."""
    n = draw(st.integers(1, 6))
    rows = [[draw(st.integers(0, n - 1)) for _ in range(n)] for _ in range(n)]
    bad = st.one_of(st.integers(-2, n + 1), st.booleans(), st.integers(0, n).map(float),
                    st.integers(-1, n).map(np.int64), st.integers(0, 1).map(np.bool_),
                    st.sampled_from([2 ** 70, -2 ** 70, None, "0", (0,)]))
    for _ in range(draw(st.integers(0, 3))):
        x, y = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[x][y] = draw(bad)
    for _ in range(draw(st.integers(0, 1))):
        row = rows[draw(st.integers(0, n - 1))]
        if draw(st.booleans()):
            row.append(draw(st.integers(0, n - 1)))
        else:
            row.pop()
    wrap = draw(st.sampled_from([tuple, list]))
    return wrap(wrap(row) for row in rows)


@settings(max_examples=300, deadline=None)
@given(damaged_tables())
@example(((True,),))
@example(((False,),))
@example(((0, True), (1.0, 0)))
@example(((0, 1), (1, np.int64(0))))
@example(((0, 1), (2 ** 70, "x")))
@example(((0, 1), (1,)))
def test_table_order_matches_the_reference_scan(table):
    assert _outcome(table_order, table) == _outcome(reference_table_order, table)


def test_table_order_rejects_non_tables():
    for table in ([], 7, [[0, 1], 5], [[0, 1], [1, 0, 1]], [["a", 0], [0, 1]]):
        assert _outcome(table_order, table) == _outcome(reference_table_order, table)
    assert table_order(dihedral_quandle(64).table) == 64


class _Int(int):
    pass


def _scanned(check, table):
    """check on the table as it was read before the one-pass path: the
    entry-by-entry scan, then np.asarray."""
    reference_table_order(table)
    return check(np.asarray(table, dtype=np.int32))


def _group_check(table):
    return core._group_check(core._table_array(table))


def _group_result(table):
    return _group_outcome(_group_check, table)


def _rack_of_table(table):
    return Rack(table.T)


@settings(max_examples=300, deadline=None)
@given(damaged_tables())
@example(((0, 1), (1, _Int(0))))
@example(((0, 1), (1, 2 ** 40)))
@example(((0, 1), (1, 2 ** 70)))
@example(((0, -2 ** 40), (1, 0)))
@example(("01", "10"))
@example(((np.int64(0), np.int64(1)), (np.int64(1), np.int64(0))))   # numpy ints: out of range
def test_one_pass_tables_give_the_scans_outcome(table):
    for check in (rack_from_table, _group_result):
        assert _outcome(check, table) == _outcome(functools.partial(_scanned, check), table)
    # as maps: Rack's own length checks come first, then the table of the maps
    if all(len(row) == len(table) for row in table):
        assert _outcome(Rack, table) == _outcome(functools.partial(
            _scanned, _rack_of_table), tuple(zip(*table)))


def test_rack_of_int_rows_holds_one_copy_of_the_maps():
    # the report keeps the array the rows are read into; a caller's array is copied
    rack = dihedral_quandle(512)
    peaks = []
    for build, rows in ((Rack, rack.maps), (rack_from_table, rack.table)):
        tracemalloc.start()
        try:
            assert build(rows) == rack
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # equal but for a few Python objects (under 1 KiB); a second copy of the maps is 1 MiB
    assert peaks[0] <= peaks[1] + 2**12
    array = np.array(rack.maps, dtype=np.int32)
    assert not np.shares_memory(Rack(array).array, array) and array.flags.writeable


def test_conjugation_quandles():
    assert conjugation_quandle(cyclic_group_table(3)) == trivial_rack(3)
    assert conjugation_quandle(cyclic_group_table(1)) == trivial_rack(1)
    s3 = conjugation_quandle(symmetric_group_table(3))
    assert s3.n == 6
    assert s3.is_quandle


def test_not_a_group():
    bad = [[0, 1], [1, 1]]  # no inverse for 1
    with pytest.raises(NotAGroupError):
        conjugation_quandle(bad)
    no_id = [[1, 0], [0, 0]]
    with pytest.raises(NotAGroupError):
        conjugation_quandle(no_id)


def _group_outcome(check, table):
    try:
        e, inv = check(table)
    except NotAGroupError as exc:
        return exc.kind, exc.witness
    return e, [int(v) for v in inv]


def test_group_check_matches_the_triple_loop():
    rng = random.Random(19)
    groups = ([symmetric_group_table(k) for k in range(1, 5)]
              + [dihedral_group_table(m) for m in range(1, 7)])
    kinds = set()
    for group in groups:
        n = len(group)
        tables = [group]
        for _ in range(40):
            # two entries swapped: most swaps break the identity, an inverse
            # or associativity, and some leave a group
            rows = [list(row) for row in group]
            a, b, c, d = (rng.randrange(n) for _ in range(4))
            rows[a][b], rows[c][d] = rows[c][d], rows[a][b]
            tables.append(rows)
        for table in tables:
            got = _group_outcome(_group_check, table)
            assert got == _group_outcome(group_check, table)
            assert all(type(v) is int for v in got[1])
            kinds.add(got[0])
    assert {"NoIdentity", "NoInverse", "NotAssociative"} <= kinds


def test_alexander_quandles():
    z3 = cyclic_group_table(3)
    assert alexander_quandle(z3, (0, 2, 1)) == dihedral_quandle(3)
    assert alexander_quandle(z3, (0, 1, 2)) == trivial_rack(3)
    z4 = cyclic_group_table(4)
    q = alexander_quandle(z4, (0, 3, 2, 1))
    assert q.is_quandle
    with pytest.raises(NotAbelianError):
        alexander_quandle(symmetric_group_table(3), tuple(range(6)))
    with pytest.raises(NotAutomorphismError):
        alexander_quandle(z4, (0, 2, 1, 3))


def test_find_isomorphism_identity_and_relabel():
    rng = random.Random(5)
    for _, rack in family_racks(5):
        phi = find_isomorphism(rack, rack)
        assert phi is not None
        other = random_relabeling(rng, rack)
        psi = find_isomorphism(rack, other)
        assert psi is not None
        for x in range(rack.n):
            for y in range(rack.n):
                assert psi[rack.table[x][y]] == other.table[psi[x]][psi[y]]


def test_find_isomorphism_rejects():
    t3 = trivial_rack(3)
    d3 = dihedral_quandle(3)
    assert find_isomorphism(t3, d3) is None
    # oracle: none of the 6 bijections is a homomorphism
    found = False
    for phi in itertools.permutations(range(3)):
        if all(phi[t3.table[x][y]] == d3.table[phi[x]][phi[y]]
               for x in range(3) for y in range(3)):
            found = True
    assert not found
    assert find_isomorphism(trivial_rack(2), trivial_rack(3)) is None


def test_canonical_form_invariance():
    rng = random.Random(11)
    for _, rack in family_racks(6):
        canon = canonical_form(rack)
        assert canonical_form(Rack.from_table(canon)) == canon  # idempotent
        for _ in range(3):
            assert canonical_form(random_relabeling(rng, rack)) == canon


def test_canonical_form_matches_the_full_scan_on_every_class():
    rng = random.Random(29)
    for n in range(1, 6):
        for table in enumerate_classes(n).witnesses:
            rack = Rack.from_table(table)
            for _ in range(2):
                relabeled = random_relabeling(rng, rack)
                assert canonical_form(relabeled) == reference_canonical_form(relabeled) == table


def test_canonical_form_separates():
    assert canonical_form(trivial_rack(3)) != canonical_form(dihedral_quandle(3))
    assert canonical_form(trivial_rack(3)) == trivial_rack(3).table


def test_canonical_iff_isomorphic_small():
    from racklab import enumerate_labeled
    # all pairs at orders <= 3
    for n in (1, 2, 3):
        racks = list(enumerate_labeled(n))
        canon = [canonical_form(r) for r in racks]
        for i, r1 in enumerate(racks):
            for j, r2 in enumerate(racks):
                same = canon[i] == canon[j]
                assert same == (find_isomorphism(r1, r2) is not None)
    # order 4: within-class pairs are isomorphic, cross-class pairs are not
    rng = random.Random(41)
    racks4 = list(enumerate_labeled(4))
    by_class = {}
    for r in racks4:
        by_class.setdefault(canonical_form(r), []).append(r)
    classes = sorted(by_class)
    for members in by_class.values():
        r1, r2 = rng.choice(members), rng.choice(members)
        assert find_isomorphism(r1, r2) is not None
    for a, b in zip(classes, classes[1:]):
        assert find_isomorphism(by_class[a][0], by_class[b][0]) is None


def test_axiom_methods_agree_exhaustive_n2():
    perms = list(itertools.permutations(range(2)))
    for f0 in perms:
        for f1 in perms:
            table = tuple(tuple((f0, f1)[y][x] for y in range(2)) for x in range(2))
            assert axiom_report(table).is_rack == satisfies_rack_axioms(table)
    # exactly two racks on two elements: both translations equal
    count = sum(axiom_report(tuple(tuple((f0, f1)[y][x] for y in range(2))
                                   for x in range(2))).is_rack
                for f0 in perms for f1 in perms)
    assert count == 2


def test_axiom_methods_agree_random():
    rng = random.Random(7)
    for _ in range(1500):
        n = rng.randrange(1, 6)
        table = random_table(rng, n)
        assert axiom_report(table).is_rack == satisfies_rack_axioms(table)
    for _, rack in family_racks(5):
        assert satisfies_rack_axioms(rack.table)


def reference_violations(table):
    """Every column checked, in tuples: the violations axiom_report must give."""
    n = len(table)
    maps = [tuple(table[x][y] for x in range(n)) for y in range(n)]
    out = [Violation("NotBijective", (y,)) for y, m in enumerate(maps)
           if not is_permutation(m, n)]
    if out:
        return out
    invs = [inverse(m) for m in maps]
    for y in range(n):
        for z in range(n):
            lhs = maps[table[y][z]]
            rhs = compose(compose(invs[z], maps[y]), maps[z])
            if lhs != rhs:
                x = next(i for i in range(n) if lhs[i] != rhs[i])
                out.append(Violation("ConjugationFail", (x, y, z)))
    return out


def swapped(table, y, pairs):
    """The table with entries x1 and x2 of column y swapped, for each pair."""
    out = [list(row) for row in table]
    for x1, x2 in pairs:
        out[x1][y], out[x2][y] = out[x2][y], out[x1][y]
    return tuple(tuple(row) for row in out)


def test_fast_and_slow_conjugation_checks_match():
    # swaps inside one column keep every column bijective
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randrange(2, 9)
        perm = tuple(rng.sample(range(n), n))
        table = permutation_rack(perm).table
        if rng.random() < 0.8:
            table = swapped(table, rng.randrange(n), [(rng.randrange(n), rng.randrange(n))])
        assert list(axiom_report(table).violations) == reference_violations(table)


CONJ_S4 = conjugation_quandle(symmetric_group_table(4))


@st.composite
def perturbed_family_tables(draw):
    """A relabelled dihedral, Sym(4) conjugation, permutation, pair-swap or
    commuting rack, 0-5 swaps in one column."""
    family = draw(st.sampled_from(["dihedral", "conj_s4", "permutation", "pair_swap",
                                   "commuting"]))
    if family == "dihedral":
        rack = dihedral_quandle(draw(st.integers(1, 97)))
    elif family == "conj_s4":
        rack = CONJ_S4
    elif family in ("pair_swap", "commuting"):
        # repeated maps: fewer distinct maps d than colours n
        build = pair_swap_rack if family == "pair_swap" else commuting_rack
        rack = build(draw(st.integers(1, 48)), draw(st.integers(0, 10**6)))
    else:
        rack = permutation_rack(draw(st.permutations(range(draw(st.integers(1, 40))))))
    n = rack.n
    rack = rack.relabel(draw(st.permutations(range(n))))
    index = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(index, index), max_size=5))
    return swapped(rack.table, draw(index), pairs)


@settings(max_examples=40, deadline=None)
@given(perturbed_family_tables())
# f_0 = f_2 = (0 1 2 3) and f_1 = f_3 = its square: column 1 passes, and its
# map joins 0 and 2, which both fail; passing colours keep failing columns
# together, so their component must not count as checked
@example(((1, 2, 1, 2), (2, 3, 2, 3), (3, 0, 3, 0), (0, 1, 0, 1)))
def test_orbit_closure_check_matches_the_full_scan(table):
    report = axiom_report(table)
    assert list(report.violations) == reference_violations(table)
    assert report.is_rack == satisfies_rack_axioms(table)


def test_bad_column_in_a_large_orbit_is_found():
    # D_65 is one orbit; one swap in column 5 makes every f_z fail to be an
    # automorphism, so no column may be skipped
    table = swapped(dihedral_quandle(65).table, 5, [(0, 1)])
    report = axiom_report(table)
    assert {v.witness[2] for v in report.violations} == set(range(65))
    assert list(report.violations) == reference_violations(table)


def _witness_columns(monkeypatch):
    """The columns handed to the full three-gather comparison, in order."""
    columns = []
    original = core._column_witnesses

    def counting(cols, p, p_inv, z):
        columns.append(z)
        return original(cols, p, p_inv, z)

    monkeypatch.setattr(core, "_column_witnesses", counting)
    return columns


def test_only_failing_columns_pay_the_full_gathers(monkeypatch):
    columns = _witness_columns(monkeypatch)
    racks = [rack for _, rack in family_racks(8)]
    racks += [pair_swap_rack(64, 3), commuting_rack(256, 1)]
    for rack in racks:
        assert axiom_report(rack.table).is_rack
    assert columns == []
    # every column of the damaged D_65 fails, and each is compared once
    table = swapped(dihedral_quandle(65).table, 5, [(0, 1)])
    report = axiom_report(table)
    assert columns == sorted({v.witness[2] for v in report.violations}) == list(range(65))


def test_each_short_path_condition_alone_sends_a_column_to_the_full_gathers(monkeypatch):
    columns = _witness_columns(monkeypatch)
    # classes {0, 3} and {1, 2} of equal maps; f_0 = (2 3) sends 1 and 2 to
    # different classes, so (a) fails, but the rule holds at 0 and 1, the
    # least member of each class, so (b) holds
    b_only = ((0, 1, 3, 2), (0, 1, 2, 3), (0, 1, 2, 3), (0, 1, 3, 2))
    # classes {0} and {1, 2}; f_0 = (1 2) keeps them, so (a) holds, but
    # f_0^-1 f_1 f_0 = (0 2) is not f_{(1)f_0} = f_2 = (0 1), so (b) fails
    a_only = ((0, 2, 1), (1, 0, 2), (1, 0, 2))
    for maps in (b_only, a_only):
        columns.clear()
        table = tuple(zip(*maps))
        report = axiom_report(table)
        assert not report.is_rack
        assert list(report.violations) == reference_violations(table)
        assert columns[0] == 0 and 0 in {v.witness[2] for v in report.violations}


def test_non_bijective_column_skips_the_conjugation_check():
    # column 7 maps rows 3 and 4 alike; the conjugation rule, which would
    # fail too, is not checked
    table = [list(row) for row in dihedral_quandle(65).table]
    table[3][7] = table[4][7]
    report = axiom_report(table)
    assert report.violations == (Violation("NotBijective", (7,)),)
    assert not satisfies_rack_axioms(table)


def test_operator_word_conjugation():
    # for any word g in the translations and their inverses, the translation
    # of (y)g equals g^-1 f_y g
    rng = random.Random(13)
    for _, rack in family_racks(6):
        n = rack.n
        for _ in range(20):
            length = rng.randrange(0, 7)
            word = [(rng.randrange(n), rng.choice((1, -1))) for _ in range(length)]
            g = tuple(range(n))
            maps = rack.maps
            for c, e in word:
                step = maps[c] if e == 1 else inverse(maps[c])
                g = compose(g, step)
            for y in range(n):
                assert maps[g[y]] == compose(compose(inverse(g), maps[y]), g)


def test_relabel_produces_isomorphic_rack():
    rng = random.Random(2)
    d4 = dihedral_quandle(4)
    other = random_relabeling(rng, d4)
    assert isinstance(other, Rack)
    assert find_isomorphism(d4, other) is not None
    with pytest.raises(ValueError):
        d4.relabel((0, 1, 2))


def test_parse_and_format_round_trip():
    for _, rack in family_racks(5):
        assert rack_from_table(parse_rack_table(format_rack(rack))) == rack


def test_parse_errors_carry_location():
    with pytest.raises(RackParseError) as err:
        parse_rack_table("2\n0 1\n")
    assert err.value.line == 2
    with pytest.raises(RackParseError) as err:
        parse_rack_table("2\n0 1\n1 2\n")
    assert (err.value.line, err.value.col) == (3, 2)
    with pytest.raises(RackParseError) as err:
        parse_rack_table("2\n0 1 0\n1 0\n")
    assert err.value.line == 2
    with pytest.raises(RackParseError):
        parse_rack_table("x\n")
    with pytest.raises(RackParseError):
        parse_rack_table("")
    with pytest.raises(RackParseError):
        parse_rack_table("2\n0 1\n1 0\nextra\n")


def test_not_a_rack_error_from_constructor():
    with pytest.raises(NotARackError) as err:
        Rack(((0, 1), (1, 0)))  # the id/swap pair again, via the maps view
    assert not err.value.report.is_rack


def test_axiom_check_skips_columns_in_known_orbits(monkeypatch):
    # a column with the map of a passing one, or in the component of one, is
    # not checked, and only a column with a new map looks up a stale label
    relabels = []
    original = core._min_labels

    def counting(*args):
        relabels.append(args[0])
        return original(*args)

    monkeypatch.setattr(core, "_min_labels", counting)
    cycle = tuple(range(1, 7)) + (0,)
    for rack, checks in ((trivial_rack(6), 0), (permutation_rack(cycle), 0),
                         (dihedral_quandle(8), 2), (dihedral_quandle(9), 2)):
        relabels.clear()
        assert axiom_report(rack.table).is_rack
        assert relabels == [rack.n] * checks
    # the axiom checks of the 19 + 74 class representatives at n = 4 and 5,
    # the first output of each orbit in the class search before it was pruned
    # down the stabiliser chain, which enumerate_classes checked one at a time
    # before it checked them in one batch
    tables = []
    for n in (4, 5):
        outputs = unpruned_class_outputs(n)
        first = {}
        for ranks, key in zip(outputs, enumeration._orbits(n, outputs)[0]):
            first.setdefault(key.tobytes(), ranks)
        perms = enumeration._tables(n)[0]
        tables += [tuple(zip(*(perms[r] for r in ranks))) for ranks in first.values()]
    assert len(tables) == 19 + 74
    relabels.clear()
    assert all(axiom_report(table).is_rack for table in tables)
    assert len(relabels) == 105


def test_axiom_check_relabels_only_on_a_stale_miss(monkeypatch):
    # f_0 = f_1 = id, f_2 = (0 1).  Columns 0 and 2 pass.  The identity joins
    # nothing, and no column after 2 looks its edges up, so the one relabel
    # is column 1's miss, where relabelling after each passing column made two
    relabels = []
    original = core._min_labels

    def counting(*args):
        relabels.append(args[0])
        return original(*args)

    monkeypatch.setattr(core, "_min_labels", counting)
    assert axiom_report(((0, 0, 1), (1, 1, 0), (2, 2, 2))).is_rack
    assert relabels == [3]


def test_families_build_the_racks_of_their_formulas():
    # numpy-built tables give the racks, reprs and errors of the Python formulas
    def python_rack(table):
        return Rack.from_table([list(row) for row in table])

    for n in (1, 2, 5, 9):
        assert trivial_rack(n) == python_rack([[x] * n for x in range(n)])
        sigma = random.Random(n).sample(range(n), n)
        rack = permutation_rack(sigma)
        assert rack == python_rack([[sigma[x]] * n for x in range(n)])
        assert repr(rack) == repr(Rack([sigma] * n))
        g = cyclic_group_table(n)
        inv = [(-a) % n for a in range(n)]
        assert conjugation_quandle(g) == python_rack(
            [[g[g[inv[y]][x]][y] for y in range(n)] for x in range(n)])
        tau = tuple(a * (n - 1) % n for a in range(n))
        assert alexander_quandle(g, tau) == python_rack(
            [[g[tau[g[x][inv[y]]]][y] for y in range(n)] for x in range(n)])
    s3 = symmetric_group_table(3)
    assert conjugation_quandle(s3).array.flags.writeable is False
    with pytest.raises(ValueError, match="^not a permutation$"):
        permutation_rack((0, 0))
    with pytest.raises(MalformedTableError, match="^empty map family$"):
        permutation_rack(())
    with pytest.raises(ValueError, match="^order must be positive$"):
        trivial_rack(0)
    with pytest.raises(NotAGroupError, match="NoIdentity"):
        conjugation_quandle(((1, 0), (1, 1)))
    with pytest.raises(NotAbelianError):
        alexander_quandle(s3, tuple(range(6)))
    with pytest.raises(NotAutomorphismError):
        alexander_quandle(cyclic_group_table(3), (1, 2, 0))


def test_families_and_relabel_take_numpy_permutations():
    d3 = dihedral_quandle(3)
    assert d3.relabel(np.array([1, 2, 0])) == d3.relabel((1, 2, 0))
    assert permutation_rack(np.array([1, 2, 0])) == permutation_rack((1, 2, 0))
    assert permutation_rack(np.arange(4, dtype=np.uint8)) == trivial_rack(4)
    assert alexander_quandle(cyclic_group_table(3), np.array([0, 2, 1])) == d3
    # a bool is not an element, though Python counts it as an int
    with pytest.raises(ValueError, match="^not a permutation$"):
        permutation_rack((True, False))
    with pytest.raises(ValueError, match="must be a permutation"):
        d3.relabel(np.array([True, False, True]))


def _first_pair(n, fails):
    return next((a, b) for a in range(n) for b in range(n) if fails(a, b))


def test_alexander_quandle_names_the_first_failing_pair():
    s3 = symmetric_group_table(3)
    a, b = _first_pair(6, lambda a, b: s3[a][b] != s3[b][a])
    with pytest.raises(NotAbelianError, match=rf"^{a}\+{b} != {b}\+{a}$"):
        alexander_quandle(s3, tuple(range(6)))
    rng = random.Random(3)
    for n in (4, 6, 8):
        z = cyclic_group_table(n)
        for _ in range(5):
            tau = tuple(rng.sample(range(n), n))
            fails = lambda a, b: tau[z[a][b]] != z[tau[a]][tau[b]]   # noqa: E731
            if not any(fails(a, b) for a in range(n) for b in range(n)):
                continue
            a, b = _first_pair(n, fails)
            with pytest.raises(NotAutomorphismError,
                               match=rf"^tau\({a}\+{b}\) != tau\({a}\)\+tau\({b}\)$"):
                alexander_quandle(z, tau)


def test_group_families_check_the_group_table_once(monkeypatch):
    calls = []
    original = core.table_order

    def counting(table):
        calls.append(len(table))
        return original(table)

    monkeypatch.setattr(core, "table_order", counting)
    conjugation_quandle(symmetric_group_table(3))
    alexander_quandle(cyclic_group_table(5), (0, 2, 4, 1, 3))
    # the group table once, then the quandle's table once
    assert calls == [6, 6, 5, 5]


def test_from_table_checks_the_table_once(monkeypatch):
    calls = []
    original = core.table_order

    def counting(table):
        calls.append(len(table))
        return original(table)

    monkeypatch.setattr(core, "table_order", counting)
    for _, rack in family_racks(6):
        calls.clear()
        assert Rack.from_table([list(row) for row in rack.table]) == rack
        assert calls == [rack.n]
    calls.clear()
    with pytest.raises(NotARackError, match=r"violation Violation\(kind='ConjugationFail'"):
        Rack.from_table(((0, 1), (1, 0)))
    assert calls == [2]
    calls.clear()
    with pytest.raises(MalformedTableError, match="row 1 has length 1, expected 2"):
        Rack.from_table([[0, 1], [0]])
    assert calls == [2]


def test_load_rack(tmp_path):
    from racklab import load_rack
    path = tmp_path / "d4.rack"
    path.write_text(format_rack(dihedral_quandle(4)))
    assert load_rack(path) == dihedral_quandle(4)
    bad = tmp_path / "bad.rack"
    bad.write_text("2\n0 1\n1 0\n")
    with pytest.raises(NotARackError):
        load_rack(bad)
    bad.write_bytes(b"2\n0 1\n1 \xff\n")
    with pytest.raises(RackParseError, match="^line 1, col 1: not UTF-8 text"):
        load_rack(bad)


def test_rack_takes_integer_arrays_as_maps():
    d5 = dihedral_quandle(5)
    assert Rack(d5.array) == d5
    assert Rack(d5.array.astype(np.uint8)) == d5
    assert Rack(list(d5.array.astype(np.int64))) == d5     # 1-D array rows
    for bad in (d5.array.astype(bool), d5.array.astype(float), d5.array[0],
                np.zeros((0, 0), dtype=np.int32), list(d5.array.astype(float))):
        with pytest.raises(MalformedTableError):
            Rack(bad)
    # a tuple table of numpy scalars is still rejected as the tuple scan rejects it
    with pytest.raises(MalformedTableError, match="out of range"):
        Rack(tuple(tuple(row) for row in d5.array))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.integers(-1, n), min_size=n, max_size=n), min_size=n, max_size=n)))
def test_rack_of_an_array_is_rack_from_table_of_its_transpose(rows):
    maps = np.array(rows)
    expected = _outcome(rack_from_table, maps.T)
    if isinstance(expected, AxiomReport):
        with pytest.raises(NotARackError) as exc:
            Rack(maps)
        assert exc.value.report == expected
    else:
        assert _outcome(Rack, maps) == expected


@functools.lru_cache(maxsize=None)
def _class_witnesses(n):
    return enumerate_classes(n).witnesses


@st.composite
def map_stacks(draw):
    """(k, n, n) int32 stacks of relabeled class witnesses, witnesses with one
    entry changed, families of permutations, and families of any maps."""
    n = draw(st.integers(1, 6))
    stack = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["rack", "damaged", "permutations", "any"]))
        if kind in ("rack", "damaged"):
            rack = Rack.from_table(draw(st.sampled_from(_class_witnesses(n))))
            rows = rack.relabel(draw(st.permutations(range(n)))).array.copy()
            if kind == "damaged":
                rows[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] = \
                    draw(st.integers(0, n - 1))
        elif kind == "permutations":
            rows = [draw(st.permutations(range(n))) for _ in range(n)]
        else:
            rows = [[draw(st.integers(0, n - 1)) for _ in range(n)] for _ in range(n)]
        stack.append(rows)
    return np.array(stack, dtype=np.int32).reshape(-1, n, n)


@settings(max_examples=300, deadline=None)
@given(map_stacks(), st.integers(1, 5))
def test_rack_rows_agree_with_the_axiom_report(maps, racks_per_block):
    n = maps.shape[1]
    expected = [axiom_report(rows.T).is_rack for rows in maps]
    assert core._rack_rows(maps).tolist() == expected
    # blocks that leave a partial block at the end when k is not a multiple
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "BLOCK_ENTRIES", racks_per_block * n ** 3)
        assert core._rack_rows(maps).tolist() == expected


def test_rack_rows_accept_exactly_the_enumerated_families_of_permutations():
    # every family of permutations of order <= 4, against the search's racks;
    # at n = 4 five of the 331,776 families fail only at y = 3
    for n in range(1, 5):
        perms = np.array(list(itertools.permutations(range(n))), dtype=np.int32)
        families = perms[np.array(list(itertools.product(range(len(perms)), repeat=n)))]
        accepted = {rows.tobytes() for rows in families[core._rack_rows(families)]}
        assert accepted == {rack.array.tobytes() for rack in enumerate_labeled(n)}


def test_canonical_tables_match_the_per_rack_canonical_form():
    rng = random.Random(11)
    stacks = [[r for r in enumerate_labeled(n)] for n in range(1, 5)]
    stacks += [[random_relabeling(rng, Rack.from_table(t)) for t in _class_witnesses(n)]
               for n in (5, 6)]
    for racks in stacks:
        maps = np.stack([r.array for r in racks])
        assert core._rack_rows(maps).all()
        tables = [tuple(map(tuple, t)) for t in core._canonical_tables(maps).tolist()]
        assert tables == [numpy_canonical_form(r) for r in racks]
