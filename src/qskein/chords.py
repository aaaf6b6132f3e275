"""Chord diagrams on the circle and their lifts to cyclic covers.

A diagram is a perfect matching on 2n cyclically ordered points, kept in a
rotation-canonical form so that diagrams agreeing up to rotation compare
equal.  The Adams operation psi_m (Bar-Natan, "On the Vassiliev knot
invariants", Topology 34, 1995) lifts a diagram to the m-fold cover of the
circle in every possible way and tallies the results.  A lift depends only
on the order in which the lifted points meet the base points, so the lifts
are enumerated by order, grouped by their number of descents, and each
order is weighted by the number of sheet assignments that produce it.
The orders, their inverses and their descents do not depend on the diagram,
so up to LIFT_TABLE_ROWS of them are built once per number of points and
shared by every diagram of that size (_lift_table).  Nor does the class of
a lifted word, a matching on the lifted points, so the LIFT_TABLE_ROWS
words met last keep their canonical ChordDiagram across calls
(_word_class).  One routine, _canonical, gives the canonical form both of a
diagram built from its pairs and of a lifted word.
"""

from fractions import Fraction
from functools import cache, lru_cache
from math import comb
from operator import itemgetter

from .perms import cycles

# Most lift orders psi_chords enumerates for one diagram: the orders of the
# 2n - 1 endpoints after the first with fewer than m descents, for n chords
# on the m-fold cover (_lift_order_count).  n = 5 at m = 5, the largest size
# `verify --suite cd --max 5` reaches, has 259,535 and takes about 1 s;
# n = 7 at m = 3 has 1,487,905 and takes about 8 s; 6 chords at m = 9 have
# 39,914,763 and are refused.  The count is made before any enumeration.
LIFT_CAP = 2_000_000

# Most rows _lift_table keeps for one size, and most entries _word_class
# keeps over all sizes, least recently used evicted first.  A row costs
# 340-410 bytes at 8-12 points: 4 chords at m = 3 keep 1,312 rows in 0.45 MB,
# 5 chords at m = 3 keep 15,111 in 5.7 MB, and all 16 tables the bound admits
# (up to 7 chords, at m = 2) hold 46,359 rows in 17 MB.  A larger count is
# walked afresh by each call in O(2n) memory, as any count up to LIFT_CAP may
# be.  A word is one of the (2n - 1)!! matchings on 2n points, so up to 6
# chords all 11,464 words fit, and only from 7 chords on (135,135 matchings)
# are words evicted and keyed again when next met.  Each word keeps its own
# ChordDiagram: measured with tracemalloc, the memo full of 20,000 random
# words of 7 chords holds 15.5 MB.
LIFT_TABLE_ROWS = 20_000

# Most chords parse_matching admits; it refuses an endpoint past 2 * CHORD_CAP
# as it reads it.  Canonicalising a diagram costs O(n) per rotation it
# compares, and a diagram with many least-offset chords and no rotational
# symmetry compares about n of them: 998 short chords and two others take
# about 0.03 s.
CHORD_CAP = 1000


def _partners(pairs, points: int) -> list[int]:
    """partner[k], the other end of the chord at point k."""
    partner = [0] * points
    for a, b in pairs:
        partner[a], partner[b] = b, a
    return partner


def _canonical(partner: list[int]) -> tuple:
    """The least, over the rotations of the circle, of the sorted pairs of
    the matching with partner[k] the other end of the chord at point k.

    Sorted pairs start with (0, partner of 0), so only a rotation that takes
    a point of least offset (the distance mod 2n to its partner) to 0 can
    win, and only those within one period of the offset word differ.  They
    are compared by rotated offset word: where two words first differ, both
    start a chord, as a chord ending there starts where they agree, so the
    lesser offset gives the lesser pairs.  The least word becomes the pairs
    (i, i + o) for each offset o at point i that does not wrap."""
    points = len(partner)
    if not points:
        return ()
    offsets = [(q - k) % points for k, q in enumerate(partner)]
    # a rotation that fixes the word is a multiple of its period, which
    # divides 2n; testing divisors only keeps this O(n) per divisor
    period = next(p for p in range(1, points + 1)
                  if not points % p and offsets[p:] + offsets[:p] == offsets)
    least = min(offsets)
    word = min(offsets[k:] + offsets[:k] for k in range(period) if offsets[k] == least)
    return tuple((i, i + o) for i, o in enumerate(word) if i + o < points)


class ChordDiagram:
    """Perfect matching on 2n cyclically ordered points, 0-based internally,
    printed 1-based as in "1-3,2-4".

    >>> str(ChordDiagram([(0, 2), (1, 3)]))
    '1-3,2-4'
    >>> ChordDiagram([(0, 1), (2, 3)]) == ChordDiagram([(0, 3), (1, 2)])
    True
    """

    __slots__ = ("pairs",)

    def __init__(self, pairs):
        pairs = [tuple(sorted(p)) for p in pairs]
        points = 2 * len(pairs)
        if sorted(q for p in pairs for q in p) != list(range(points)):
            raise ValueError("matching must use each of the 2n points exactly once")
        self.pairs = _canonical(_partners(pairs, points))

    @property
    def chords(self) -> int:
        return len(self.pairs)

    def rotated(self, r: int) -> "ChordDiagram":
        points = 2 * len(self.pairs)
        return ChordDiagram(((a + r) % points, (b + r) % points) for a, b in self.pairs)

    def __eq__(self, other):
        if not isinstance(other, ChordDiagram):
            return NotImplemented
        return self.pairs == other.pairs

    def __hash__(self):
        return hash(self.pairs)

    def __lt__(self, other):
        return self.pairs < other.pairs

    def __str__(self):
        return ",".join("%d-%d" % (a + 1, b + 1) for a, b in self.pairs)

    def __repr__(self):
        return "ChordDiagram(%r)" % (list(self.pairs),)


CROSSING = ChordDiagram([(0, 2), (1, 3)])
PARALLEL = ChordDiagram([(0, 1), (2, 3)])


def all_diagrams(n: int) -> list[ChordDiagram]:
    """The distinct n-chord diagrams up to rotation, sorted.

    >>> [len(all_diagrams(n)) for n in (1, 2, 3)]
    [1, 2, 5]
    """
    found = set()

    def match(points):
        if not points:
            found.add(ChordDiagram(acc))
            return
        first, rest = points[0], points[1:]
        for i, other in enumerate(rest):
            acc.append((first, other))
            match(rest[:i] + rest[i + 1:])
            acc.pop()

    acc: list = []
    match(tuple(range(2 * n)))
    return sorted(found)


def _lift_order_count(points: int, m: int) -> int:
    """Orders of the points 1..points-1 with fewer than m descents: the sum
    of the Eulerian numbers A(points - 1, d) over d < m, from the recurrence
    A(j, d) = (d + 1) A(j - 1, d) + (j - d) A(j - 1, d - 1).  The sum grows
    with j, so the rows stop once it passes LIFT_CAP: a count over the cap
    is only a lower bound.

    >>> _lift_order_count(10, 5)
    259535
    """
    row = [1]  # A(0, 0): the empty order
    for j in range(1, points):
        row = [(d + 1) * (row[d] if d < len(row) else 0) + (j - d) * (row[d - 1] if d else 0)
               for d in range(min(j, m))]
        if sum(row) > LIFT_CAP:
            break
    return sum(row)


def _order_weights(points: int, m: int) -> list[int]:
    """Entry d counts the sheet assignments with point 0 on sheet 0 whose
    stable order is one given order with d descents: the sheet sequences
    along the order that start at 0, never fall, rise at each descent and
    stay below m, C(m - 1 - d + points - 1, points - 1) of them."""
    return [comb(m - 1 - d + points - 1, points - 1) for d in range(min(m, points))]


def _lift_orders(points: int, m: int):
    """Yield (order, lifted, d) for each order of the points 0..points-1
    that starts at 0 and has d < m descents: the order as an itemgetter, so
    order(t)[k] = t[order[k]] with order[k] the point at lifted position k,
    and its inverse, the lifted position lifted[p] of each point p.  Neither
    depends on the diagram being lifted.

    The orders are built by inserting 1, 2, ..., points - 1 in turn.  The
    new largest value adds a descent unless it goes at the end or inside a
    descent, and it never removes one, so every order kept can be completed.
    """
    top = points - 1
    span = range(points)
    order = [0]
    placed = []  # (slot, descents before it) of each value placed below the current one
    value, slot, d = 1, 1, 0
    while True:
        if value == top:
            for slot in range(1, top + 1):
                grown = d if slot == top or order[slot - 1] > order[slot] else d + 1
                if grown < m:
                    order.insert(slot, top)
                    yield itemgetter(*order), tuple(sorted(span, key=order.__getitem__)), grown
                    del order[slot]
        elif slot <= value:
            grown = d if slot == value or order[slot - 1] > order[slot] else d + 1
            if grown < m:
                order.insert(slot, value)
                placed.append((slot, d))
                value, slot, d = value + 1, 1, grown
            else:
                slot += 1
            continue
        if not placed:
            return
        value -= 1
        slot, d = placed.pop()
        del order[slot]
        slot += 1


@cache
def _lift_table(points: int, m: int) -> tuple:
    """Every row of _lift_orders(points, m), kept for the next diagram of the
    same size: called only for m <= points - 1 (larger m admits no more
    orders) and for at most LIFT_TABLE_ROWS rows."""
    return tuple(_lift_orders(points, m))


@lru_cache(maxsize=LIFT_TABLE_ROWS)
def _word_class(word: tuple) -> ChordDiagram:
    """The ChordDiagram of a lifted word, a matching on the lifted points
    with word[k] the partner of point k.  A lift is a matching, so the word
    skips ChordDiagram's check; it does not depend on the diagram lifted,
    so it is kept for every later call."""
    diagram = ChordDiagram.__new__(ChordDiagram)
    diagram.pairs = _canonical(word)
    return diagram


def psi_chords(diagram: ChordDiagram, m: int) -> dict[ChordDiagram, int]:
    """Sum of all lifts of the diagram to the m-fold cover of the circle,
    sorted by diagram.

    Every endpoint independently picks a sheet; the lifted points are
    reordered by (sheet, original position) and the induced matching is
    canonicalized.  The multiplicities total m^(2n).

    Raising every sheet by one (mod m) is a deck transformation of the
    cover: it rotates the lifted circle, so it keeps the class of the lift,
    and each of its orbits puts point 0 on sheet 0 exactly once.  So only
    those assignments are counted, m times each.  Such an assignment lifts
    through its order, the base points by lifted position, which starts at
    0.  An order with d descents comes from C(m - 1 - d + 2n - 1, 2n - 1)
    of them (_order_weights), none once d >= m, so only the orders with
    fewer than m descents are enumerated (_lift_orders).  Summed over all
    orders the weights give Worpitzky's identity
    m^(2n-1) = sum_d A(2n-1, d) C(m + 2n - 2 - d, 2n - 1).

    Each order adds its weight under its raw word, the lifted position of
    each lifted point's partner.  The orders and their inverses are the
    same for every diagram with 2n points, so for up to LIFT_TABLE_ROWS
    orders they are read from a table built once per size (_lift_table).
    Each distinct word then takes its class from a bounded memo shared by
    every call (_word_class), which canonicalises it by the routine every
    ChordDiagram uses (_canonical), and the words' weights are summed by
    class.

    >>> psi_chords(ChordDiagram([(0, 1)]), 3)
    {ChordDiagram([(0, 1)]): 9}
    >>> psi_chords(ChordDiagram([]), 5)
    {ChordDiagram([]): 1}
    """
    if m < 1:
        raise ValueError("cover index must be positive")
    points = 2 * diagram.chords
    if m == 1 or not points:
        # the 1-fold cover is the circle itself: psi_1 is the identity
        return {diagram: 1}
    orders = _lift_order_count(points, m)
    if orders > LIFT_CAP:
        raise ValueError("lifting %d chords to the %d-fold cover enumerates more lift orders "
                         "than the cap of %d" % (diagram.chords, m, LIFT_CAP))
    partner = _partners(diagram.pairs, points)
    # across(lifted)[p] = lifted[partner[p]], so order(across(lifted))[k] is
    # the lifted position of the partner of the point at lifted position k
    across = itemgetter(*partner)
    weights = [m * w for w in _order_weights(points, m)]
    rows = _lift_table(points, min(m, points - 1)) if orders <= LIFT_TABLE_ROWS else _lift_orders(points, m)
    words: dict[tuple, int] = {}
    for order, lifted, d in rows:
        word = order(across(lifted))
        words[word] = words.get(word, 0) + weights[d]
    classes: dict[ChordDiagram, int] = {}
    for word, count in words.items():
        diagram = _word_class(word)
        classes[diagram] = classes.get(diagram, 0) + count
    return dict(sorted(classes.items()))


# Most chords weight_system sums over: its state sum has 2^n states of O(n)
# steps each, and n = 16 takes about 0.5 s.  A larger diagram is refused
# before the sum.
WEIGHT_SYSTEM_CHORD_CAP = 16


def weight_system(diagram: ChordDiagram, n: int) -> Fraction:
    """The weight system of the sl(N) invariant coloured by the fundamental
    representation, at N = n, on a chord diagram.

    Each chord is resolved either into the exchange of its two strands,
    with weight 1, or into the identity, with weight -1/N, and each circle
    the 2^chords resolutions leave counts N.  With the exchanged chords'
    points joined to their partners, the circles are the cycles of
    k -> (partner of k if its chord is exchanged, else k) + 1 mod 2n, and
    the bare circle counts N.

    >>> weight_system(ChordDiagram([(0, 1)]), 3)
    Fraction(8, 1)
    >>> weight_system(ChordDiagram([(0, 2), (1, 3)]), 3)
    Fraction(-8, 3)
    """
    if n < 1:
        raise ValueError("N must be positive")
    if diagram.chords > WEIGHT_SYSTEM_CHORD_CAP:
        raise ValueError("the weight system of %d chords sums 2^%d states, over the cap of %d chords"
                         % (diagram.chords, diagram.chords, WEIGHT_SYSTEM_CHORD_CAP))
    points = 2 * diagram.chords
    if not points:
        return Fraction(n)
    partner = _partners(diagram.pairs, points)
    chord = {k: i for i, pair in enumerate(diagram.pairs) for k in pair}
    # signed count of the states by circles minus identity chords
    states: dict[int, int] = {}
    for state in range(1 << diagram.chords):
        step = [(partner[k] if state >> chord[k] & 1 else k) + 1 for k in range(points)]
        step[step.index(points)] = 0
        identities = diagram.chords - state.bit_count()
        exponent = len(cycles(step)) - identities
        states[exponent] = states.get(exponent, 0) + (-1) ** identities
    return sum((Fraction(n) ** e * c for e, c in states.items()), Fraction(0))
