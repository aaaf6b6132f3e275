"""Chord diagrams on the circle and the sheet-summing Adams operation.

A diagram is a perfect matching on 2n cyclically ordered points, kept in a
rotation-canonical form so that diagrams agreeing up to rotation compare
equal.  The Adams operation lifts a diagram to the m-fold cover of the
circle in every possible way and tallies the results.
"""

from itertools import product

# Most sheet assignments psi_chords enumerates for one diagram: m^(2n-1) for
# n chords on the m-fold cover.  It admits n = 5 at m = 5 (5^9), the largest
# size `verify --suite cd --max 5` reaches.
LIFT_CAP = 2_000_000


def _canonical(pairs, points):
    return min(
        (tuple(sorted(tuple(sorted(((a + r) % points, (b + r) % points))) for a, b in pairs))
         for r in range(points)),
        default=(),
    )


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
        self.pairs = _canonical(pairs, points)

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


def psi_chords(diagram: ChordDiagram, m: int) -> dict[ChordDiagram, int]:
    """Sum of all lifts of the diagram to the m-fold cover of the circle.

    Every endpoint independently picks a sheet; the lifted points are
    reordered by (sheet, original position) and the induced matching is
    canonicalized.  The multiplicities total m^(2n).

    Only the assignments with point 0 on sheet 0 are enumerated, each
    counting m times.  Raising every sheet by one (mod m) is a deck
    transformation of the cover: it rotates the lifted circle, so it keeps
    the class of the lift.  It moves point 0 to another sheet, so each of its
    orbits holds exactly m assignments, and exactly one of them puts point 0
    on sheet 0.  A lift is keyed by the least rotation of its offset word,
    the distance mod 2n from each lifted point to its partner: two matchings
    agree up to rotation exactly when their words do.

    >>> psi_chords(ChordDiagram([(0, 1)]), 3)
    {ChordDiagram([(0, 1)]): 9}
    >>> psi_chords(ChordDiagram([]), 5)
    {ChordDiagram([]): 1}
    """
    if m < 1:
        raise ValueError("cover index must be positive")
    points = 2 * diagram.chords
    if not points:
        return {diagram: 1}
    if m ** (points - 1) > LIFT_CAP:
        raise ValueError(
            "lifting %d chords to the %d-fold cover enumerates %d^%d sheet assignments, "
            "over the cap of %d" % (diagram.chords, m, m, points - 1, LIFT_CAP))
    partner = [0] * points
    for a, b in diagram.pairs:
        partner[a], partner[b] = b, a
    classes: dict[tuple, int] = {}
    for sheets in product(range(1), *[range(m)] * (points - 1)):
        # lifted position -> base point, stable by (sheet, position), and back
        order = sorted(range(points), key=sheets.__getitem__)
        lifted = sorted(range(points), key=order.__getitem__)
        # (partner's lifted position - own lifted position) mod 2n, in lifted order
        word = tuple((lifted[partner[p]] - k) % points for k, p in enumerate(order))
        doubled = word + word
        key = min(doubled[r:r + points] for r in range(points))
        classes[key] = classes.get(key, 0) + 1
    return {
        ChordDiagram((i, i + step) for i, step in enumerate(word) if i + step < points): m * count
        for word, count in classes.items()
    }
