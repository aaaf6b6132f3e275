"""Chord diagrams and their lifts to cyclic covers."""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qskein.chords
from qskein.chords import (
    CROSSING, PARALLEL, LIFT_CAP, LIFT_TABLE_ROWS, ChordDiagram, _lift_order_count, _lift_orders,
    _lift_table, _order_weights, _partners, _word_class, all_diagrams, psi_chords, weight_system,
)


def _psi_chords_brute(diagram, m):
    """Every one of the m^(2n) sheet assignments, each lift canonicalised in
    full by ChordDiagram: the oracle for psi_chords."""
    if m < 1:
        raise ValueError("cover index must be positive")
    points = 2 * diagram.chords
    out: dict[ChordDiagram, int] = {}
    canonical: dict[tuple, ChordDiagram] = {}
    for sheets in product(range(m), repeat=points):
        # stable placement by (sheet, original position) without a sort
        counts = [0] * m
        for sh in sheets:
            counts[sh] += 1
        start, acc = [0] * m, 0
        for sh in range(m):
            start[sh] = acc
            acc += counts[sh]
        newpos = [0] * points
        for p in range(points):
            sh = sheets[p]
            newpos[p] = start[sh]
            start[sh] += 1
        key = tuple((newpos[a], newpos[b]) for a, b in diagram.pairs)
        lifted = canonical.get(key)
        if lifted is None:
            lifted = canonical[key] = ChordDiagram(key)
        out[lifted] = out.get(lifted, 0) + 1
    return out


def _psi_linear(tally, m, lifts):
    """psi_chords extended linearly to a tally of diagrams; lifts memoises
    psi_chords by (diagram, m)."""
    out: dict[ChordDiagram, int] = {}
    for dg, n in tally.items():
        if (dg, m) not in lifts:
            lifts[dg, m] = psi_chords(dg, m)
        for lifted, k in lifts[dg, m].items():
            out[lifted] = out.get(lifted, 0) + n * k
    return out


def _mirrored(dg):
    points = 2 * dg.chords
    return ChordDiagram(((-a) % points, (-b) % points) for a, b in dg.pairs)


@st.composite
def matchings(draw, max_chords):
    n = draw(st.integers(1, max_chords))
    points = draw(st.permutations(range(2 * n)))
    return ChordDiagram(zip(points[::2], points[1::2]))


def _canonical_by_all_rotations(pairs, points):
    """The sorted pairs at every one of the 2n rotations, least first: the
    definition of the canonical form, kept as the oracle for ChordDiagram."""
    return min(
        (tuple(sorted(tuple(sorted(((a + r) % points, (b + r) % points))) for a, b in pairs))
         for r in range(points)),
        default=(),
    )


@st.composite
def tiled_matchings(draw):
    """(pairs, points): j copies of a random matching on 2c points, each
    chord from its copy t to copy t + s mod j for a shift s drawn per chord,
    so the diagram is unchanged by rotating 2c points (j = 1: any matching)."""
    c, j = draw(st.integers(0, 4)), draw(st.integers(1, 4))
    ends = draw(st.permutations(range(2 * c)))
    pairs = []
    for a, b in zip(ends[::2], ends[1::2]):
        s = draw(st.integers(0, j - 1))
        pairs += [(a + 2 * c * t, b + 2 * c * ((t + s) % j)) for t in range(j)]
    return pairs, 2 * c * j


@settings(max_examples=300, deadline=None)
@given(tiled_matchings())
def test_canonical_form_matches_all_rotations(drawn):
    pairs, points = drawn
    assert ChordDiagram(pairs).pairs == _canonical_by_all_rotations(pairs, points)


def test_every_small_matching_takes_the_least_rotation_by_every_route():
    # every matching on up to 12 points, built from its pairs and as a lifted
    # word: 12 points are the fewest where two least-offset rotations agree
    # on the first half of their offset words and differ after it
    for points in range(0, 13, 2):
        for pairs in _matchings(list(range(points))):
            want = _canonical_by_all_rotations(pairs, points)
            dg = ChordDiagram(pairs)
            assert dg.pairs == want, pairs
            assert _word_class(tuple(_partners(pairs, points))).pairs == want, pairs
            # and from every rotation, for the 1,070 matchings on up to 10 points
            if points <= 10:
                for r in range(points):
                    assert dg.rotated(r).pairs == want, (pairs, r)


def test_canonical_form():
    # rotations are identified
    assert ChordDiagram([(0, 1), (2, 3)]) == ChordDiagram([(0, 3), (1, 2)])
    assert CROSSING != PARALLEL
    assert CROSSING.rotated(1) == CROSSING
    assert PARALLEL.rotated(1) == PARALLEL
    assert PARALLEL.rotated(2) == PARALLEL
    single = ChordDiagram([(0, 1)])
    assert single.rotated(1) == single
    assert single.chords == 1


def test_printing_and_order():
    assert str(CROSSING) == "1-3,2-4"
    assert str(PARALLEL) == "1-2,3-4"
    assert str(ChordDiagram([(0, 1)])) == "1-2"
    assert PARALLEL < CROSSING
    assert sorted([CROSSING, PARALLEL]) == [PARALLEL, CROSSING]


def test_validation():
    with pytest.raises(ValueError):
        ChordDiagram([(0, 0), (1, 2)])
    with pytest.raises(ValueError):
        ChordDiagram([(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        ChordDiagram([(0, 5)])


def test_all_diagrams_counts():
    # (2n-1)!! matchings collapse to these rotation classes
    assert len(all_diagrams(1)) == 1
    assert len(all_diagrams(2)) == 2
    assert len(all_diagrams(3)) == 5
    for n in range(1, 4):
        for dg in all_diagrams(n):
            assert dg.rotated(1).chords == n


def test_single_chord_lift():
    single = ChordDiagram([(0, 1)])
    for m in range(1, 5):
        tally = psi_chords(single, m)
        assert sum(tally.values()) == m * m
        # every lift of one chord is still one chord
        assert set(tally) == {single}


def test_crossing_lift_double_cover():
    tally = psi_chords(CROSSING, 2)
    assert tally == {CROSSING: 8, PARALLEL: 8}


def test_identity_cover():
    for n in range(1, 4):
        for dg in all_diagrams(n):
            assert psi_chords(dg, 1) == {dg: 1}


def test_lift_counts_and_rotation():
    for n in range(1, 4):
        for m in range(1, 4):
            for dg in all_diagrams(n):
                tally = psi_chords(dg, m)
                assert sum(tally.values()) == m ** (2 * n), (dg, m)
                # lifting commutes with rotating the base diagram
                assert psi_chords(dg.rotated(1), m) == tally


def test_empty_matching():
    empty = ChordDiagram([])
    assert empty.pairs == ()
    assert empty.chords == 0
    assert str(empty) == ""
    assert empty.rotated(3) == empty
    assert all_diagrams(0) == [empty]
    for m in range(1, 4):
        # m^0 lifts of nothing
        assert psi_chords(empty, m) == {empty: 1}


def test_matches_brute_force():
    cases = [(n, m, all_diagrams(n)) for n in range(1, 4) for m in range(1, 5)]
    cases += [(4, 1, all_diagrams(4)), (4, 2, all_diagrams(4)), (5, 2, all_diagrams(5)[::7])]
    for n, m, diagrams in cases:
        for dg in diagrams:
            tally = psi_chords(dg, m)
            # same classes and counts as the full enumeration, sorted by diagram
            assert list(tally.items()) == sorted(_psi_chords_brute(dg, m).items()), (dg, m)


def _eulerian(j, d):
    """Orders of j values with d descents, by the alternating-sum formula."""
    return sum((-1) ** i * comb(j + 1, i) * (d + 1 - i) ** j for i in range(d + 2))


def _descents(order):
    return sum(a > b for a, b in zip(order, order[1:]))


@pytest.mark.parametrize("points", [2, 4, 6, 8, 10])
def test_lift_orders_follow_eulerian_and_worpitzky(points):
    for m in range(1, 7):
        per_d = Counter(d for _, _, d in _lift_orders(points, m))
        assert per_d == Counter({d: _eulerian(points - 1, d) for d in range(min(m, points))}), (points, m)
        assert _lift_order_count(points, m) == sum(per_d.values())
        # Worpitzky: the weights count every sheet assignment with point 0 on sheet 0 once
        weights = _order_weights(points, m)
        assert sum(weights[d] * k for d, k in per_d.items()) == m ** (points - 1), (points, m)


@pytest.mark.parametrize("points", [2, 3, 4, 5, 6, 7])
def test_lift_orders_are_the_orders_with_few_descents(points):
    for m in range(1, points + 1):
        span = range(points)
        rows = [(order(span), lifted, d) for order, lifted, d in _lift_orders(points, m)]
        # each row's lifted positions invert its order
        assert all(tuple(order[p] for p in lifted) == tuple(span) for order, lifted, _ in rows)
        got = [(order, d) for order, _, d in rows]
        assert all(d == _descents(order) for order, d in got)
        want = {(0,) + rest for rest in permutations(range(1, points)) if _descents(rest) < m}
        assert len(got) == len(want) and {order for order, _ in got} == want, (points, m)


def test_order_count_never_exceeds_the_assignments():
    for n in range(1, 7):
        for m in range(1, 10):
            orders = sum(_eulerian(2 * n - 1, d) for d in range(min(m, 2 * n - 1)))
            # so no size the sheet-assignment count admitted under LIFT_CAP is refused
            assert orders <= min(m ** (2 * n - 1), factorial(2 * n - 1)), (n, m)
            count = _lift_order_count(2 * n, m)
            assert count == orders if orders <= LIFT_CAP else LIFT_CAP < count <= orders, (n, m)


def test_a_huge_count_stops_soon_after_the_cap():
    # 1000 chords at m = 1000 have over 10^5000 lift orders
    assert LIFT_CAP < _lift_order_count(2000, 1000) < 100 * LIFT_CAP
    hundred = ChordDiagram([(2 * i, 2 * i + 1) for i in range(100)])
    with pytest.raises(ValueError, match=r"100 chords to the 2-fold cover enumerates more lift orders"):
        psi_chords(hundred, 2)


@settings(max_examples=50, deadline=None)
@given(matchings(4), st.integers(1, 3))
def test_random_matchings(dg, m):
    tally = psi_chords(dg, m)
    assert tally == _psi_chords_brute(dg, m)
    # lifting commutes with reflecting the circle
    mirrored = {_mirrored(lifted): k for lifted, k in tally.items()}
    assert psi_chords(_mirrored(dg), m) == mirrored


@pytest.mark.parametrize("m, k, max_chords", [(2, 2, 2), (2, 3, 2), (3, 2, 2), (2, 2, 3), (2, 5, 4)])
def test_composition(m, k, max_chords):
    # psi_k(psi_m(D)) = psi_mk(D): the mk-fold cover factors through the m-fold one
    lifts: dict = {}
    for n in range(1, max_chords + 1):
        for dg in all_diagrams(n):
            assert _psi_linear(psi_chords(dg, m), k, lifts) == psi_chords(dg, m * k), (dg, m, k)


def test_lift_cap(monkeypatch):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("the enumeration started")

    monkeypatch.setattr(qskein.chords, "_lift_orders", no_enumeration)
    six = ChordDiagram([(2 * i, 2 * i + 1) for i in range(6)])
    with pytest.raises(ValueError, match=r"6 chords to the 9-fold cover enumerates more lift orders "
                                         r"than the cap of %d" % LIFT_CAP):
        psi_chords(six, 9)
    # the largest size verify reaches at --max 5 stays admitted
    assert _lift_order_count(10, 5) == 259535 <= LIFT_CAP


def test_walked_orders_give_the_tallies_of_the_shared_table(monkeypatch):
    tables = {(dg, m): psi_chords(dg, m) for n in range(1, 5) for dg in all_diagrams(n) for m in range(1, 5)}
    assert _lift_order_count(8, 4) <= LIFT_TABLE_ROWS
    # with no table admitted every call walks its own orders
    monkeypatch.setattr(qskein.chords, "LIFT_TABLE_ROWS", 0)
    _lift_table.cache_clear()
    for (dg, m), tally in tables.items():
        walked = psi_chords(dg, m)
        assert list(walked.items()) == list(tally.items()), (dg, m)
        if dg.chords <= 3:
            assert walked == _psi_chords_brute(dg, m), (dg, m)
    assert _lift_table.cache_info().currsize == 0


def test_interleaved_sizes_share_tables_without_mixing_them():
    cases = [(dg, m) for n in (2, 3, 4) for dg in all_diagrams(n)[:3] for m in (2, 3, 5, 9)]
    separate = {}
    for dg, m in cases:
        _lift_table.cache_clear()
        separate[dg, m] = psi_chords(dg, m)
    _lift_table.cache_clear()
    for dg, m in cases[::2] + cases[1::2] + cases[::-1]:
        assert psi_chords(dg, m) == separate[dg, m], (dg, m)
    # every m >= 2n - 1 admits every order of 2n points, so such m share a
    # table: m = 3, 5, 9 at 4 points and m = 5, 9 at 6 points
    assert _lift_table.cache_info().currsize == 2 + 3 + 4


def test_a_count_over_the_row_bound_keeps_no_table(monkeypatch):
    four = ChordDiagram([(0, 2), (1, 4), (3, 6), (5, 7)])
    want = psi_chords(four, 3)
    rows = _lift_order_count(8, 3)
    monkeypatch.setattr(qskein.chords, "LIFT_TABLE_ROWS", rows - 1)
    _lift_table.cache_clear()
    assert psi_chords(four, 3) == want
    assert _lift_table.cache_info().currsize == 0
    monkeypatch.setattr(qskein.chords, "LIFT_TABLE_ROWS", rows)
    assert psi_chords(four, 3) == want
    assert _lift_table.cache_info().currsize == 1 and len(_lift_table(8, 3)) == rows


def test_the_identity_cover_walks_no_orders(monkeypatch):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("the enumeration started")

    monkeypatch.setattr(qskein.chords, "_lift_orders", no_enumeration)
    _lift_table.cache_clear()
    parallel = ChordDiagram([(2 * i, 2 * i + 1) for i in range(qskein.chords.CHORD_CAP)])
    assert psi_chords(parallel, 1) == {parallel: 1}
    assert _lift_table.cache_info().currsize == 0


_MEMO_CASES = [(dg, m) for n in (1, 2, 3, 4) for dg in all_diagrams(n) for m in (2, 3)]


def test_tallies_do_not_depend_on_the_word_memo():
    _word_class.cache_clear()
    cold = {(dg, m): psi_chords(dg, m) for dg, m in _MEMO_CASES}
    assert _word_class.cache_info().currsize > 0
    for dg, m in _MEMO_CASES:
        assert list(psi_chords(dg, m).items()) == list(cold[dg, m].items()), (dg, m)
    # the memo filled in the reverse order serves the same tallies
    _word_class.cache_clear()
    for dg, m in reversed(_MEMO_CASES):
        assert list(psi_chords(dg, m).items()) == list(cold[dg, m].items()), (dg, m)
        if dg.chords <= 2:
            assert psi_chords(dg, m) == _psi_chords_brute(dg, m), (dg, m)


def test_the_word_memo_keys_each_word_once_across_calls():
    _word_class.cache_clear()
    met = set()
    for dg in all_diagrams(4):
        met.update(psi_chords(dg, 3))
    info = _word_class.cache_info()
    # every word met is one of the 7!! = 105 matchings on 8 points, and each
    # class one of the 18 diagrams of 4 chords
    assert info.misses == info.currsize <= 105
    assert met <= set(all_diagrams(4)) and len(all_diagrams(4)) == 18
    for dg in all_diagrams(4):
        psi_chords(dg, 3)
    again = _word_class.cache_info()
    assert (again.misses, again.currsize) == (info.misses, info.currsize)
    assert again.hits > info.hits


def test_the_word_memo_stays_within_its_bound(monkeypatch):
    want = {(dg, m): psi_chords(dg, m) for dg, m in _MEMO_CASES}
    for size in (7, 0):
        memo = lru_cache(maxsize=size)(_word_class.__wrapped__)
        monkeypatch.setattr(qskein.chords, "_word_class", memo)
        for dg, m in _MEMO_CASES:
            assert psi_chords(dg, m) == want[dg, m], (dg, m)
            assert memo.cache_info().currsize <= size
        info = memo.cache_info()
        # past the bound the least recently used words were evicted
        assert info.currsize == size < info.misses


def test_weight_system_values():
    for n in (1, 2, 3, 4, 7):
        assert weight_system(ChordDiagram([]), n) == n
        assert weight_system(ChordDiagram([(0, 1)]), n) == n * n - 1
        # an isolated chord splits off the factor (N^2 - 1) / N
        assert weight_system(PARALLEL, n) == Fraction((n * n - 1) ** 2, n)
    assert weight_system(CROSSING, 3) == Fraction(-8, 3)
    assert weight_system(PARALLEL, 3) == Fraction(64, 3)
    with pytest.raises(ValueError):
        weight_system(PARALLEL, 0)


def _matchings(points):
    """Every perfect matching of the list points, as lists of pairs."""
    if not points:
        yield []
        return
    first, rest = points[0], points[1:]
    for i, other in enumerate(rest):
        for tail in _matchings(rest[:i] + rest[i + 1:]):
            yield [(first, other)] + tail


def _four_term_configurations(max_chords):
    """(u-, u+, w-, w+) for every four-term configuration of at most
    max_chords chords: a moving chord from a fixed point 0 whose other end
    sits just before or just after an end u or w of one chord (u, w) of a
    matching of the points 1..2k after it, for k < max_chords."""
    for k in range(1, max_chords):
        for matching in _matchings(list(range(1, 2 * k + 1))):
            for u, w in matching:
                def moved(end):
                    # half-integer ends place the free end between two points
                    ends = sorted(p for chord in matching for p in chord) + [0, end]
                    rank = {p: r for r, p in enumerate(sorted(ends))}
                    return ChordDiagram([(rank[a], rank[b]) for a, b in matching + [(0, end)]])
                yield tuple(moved(end) for end in (u - 0.5, u + 0.5, w - 0.5, w + 0.5))


def test_weight_system_satisfies_the_four_term_relation():
    configurations = list(_four_term_configurations(4))
    # (2k - 1)!! matchings of k chords times their k chords, for k = 1, 2, 3
    assert len(configurations) == 1 + 3 * 2 + 15 * 3
    for n in (2, 3, 4):
        for u_before, u_after, w_before, w_after in configurations:
            w = {dg: weight_system(dg, n) for dg in (u_before, u_after, w_before, w_after)}
            assert w[u_before] - w[u_after] + w[w_before] - w[w_after] == 0
            # the relation with its last two signs flipped fails, so each row discriminates
            assert w[u_before] - w[u_after] - w[w_before] + w[w_after] != 0


def test_weight_system_refuses_past_its_cap_before_the_sum(monkeypatch):
    monkeypatch.setattr(qskein.chords, "WEIGHT_SYSTEM_CHORD_CAP", 2)
    assert weight_system(CROSSING, 2) == Fraction(-3, 2)
    three = ChordDiagram([(0, 1), (2, 3), (4, 5)])
    with pytest.raises(ValueError, match="weight system of 3 chords sums 2\\^3 states, over the cap of 2"):
        weight_system(three, 2)
