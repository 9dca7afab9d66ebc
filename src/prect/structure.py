"""Point-line incidence structures: the data every model is made of.

An IncidenceStructure holds points, lines as point-index sets and a special
point D.  Its one incidence index is IncidenceStructure.through, the lines
through each point, and its line_masks are the lines as point masks; both
are built on first use, so building and writing a model forms neither.
The concurrence masks read off `through` (_util.meeting) are A6's table
of the lines meeting each line and the graph of lines' rows.

The axioms A1-A6 and the elementary counts that judge a structure live in
prect.incidence; coordinates live in prect.construct.
"""

from __future__ import annotations

from functools import cached_property

from ._util import Translations, holders, iter_bits, meeting, translations_of


class StructureError(ValueError):
    """Malformed incidence structure or inconsistent parameters."""


class IncidenceStructure:
    """Points, lines as point-index sets, and a designated special point.

    Lines are stored as sorted duplicate-free tuples.  A line of fewer than
    three points is kept, so that mutated structures can be built; A3
    reports it with its index.
    """

    def __init__(self, points, lines, special_point: int):
        self.points = list(points)
        if len(set(self.points)) != len(self.points):
            raise StructureError("duplicate point labels")
        self.lines = []
        for ln in lines:
            t = tuple(sorted(set(ln)))
            if len(t) != len(tuple(ln)):
                raise StructureError(f"line {ln!r} has duplicate points")
            self.lines.append(t)
        if not 0 <= special_point < len(self.points):
            raise StructureError("special point index out of range")
        self.special_point = special_point

        np_ = len(self.points)
        for t in self.lines:
            if t and not (0 <= t[0] and t[-1] < np_):
                raise StructureError(f"line {t!r} has point index out of range")

        self.special_lines = tuple(i for i, t in enumerate(self.lines)
                                   if special_point in t)
        self.ordinary_lines = tuple(i for i, t in enumerate(self.lines)
                                    if special_point not in t)

    @cached_property
    def line_masks(self) -> list[int]:
        """[i]: the mask of the points of line i, built on first use."""
        return [sum(1 << p for p in t) for t in self.lines]

    @cached_property
    def through(self) -> list[int]:
        """[p]: the mask of the lines through point p, built on first use."""
        return holders(self.lines, self.n_points)

    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def n_lines(self) -> int:
        return len(self.lines)

    @cached_property
    def translations(self) -> Translations | None:
        """The translations of GF(p)^d on the ordinary lines, if each extends
        to an automorphism of the structure; else None.

        The ordinary lines must be lines 0..nu-1, nu = p^d, line x the vector
        of its base-p digits.  For the translation by p^i, the image of a
        point other than D is the point whose pencil of ordinary lines is
        the translate of its own; pencils must be distinct, so the map is a
        bijection, and D is fixed.  Then P is on line x iff x is in P's
        pencil iff x + p^i is in the image's pencil, so ordinary line x maps
        onto x + p^i; each special line must map onto a special line, and
        the special lines must be distinct.  Computed once per structure;
        costs O(d * incidences).
        """
        nu = len(self.ordinary_lines)
        group = translations_of(nu)
        if group is None or self.ordinary_lines[-1] != nu - 1:
            return None
        D = self.special_point
        pencils = [b & (1 << nu) - 1 for b in self.through]
        point_of = {b: p for p, b in enumerate(pencils) if p != D}
        specials = {self.line_masks[j] for j in self.special_lines}
        if len(point_of) != self.n_points - 1 or len(specials) != len(self.special_lines):
            return None
        for i in range(group.d):
            image = [D] * self.n_points
            for p, b in enumerate(pencils):
                if p != D:
                    q = point_of.get(group.step(b, i))
                    if q is None:
                        return None
                    image[p] = q
            if any(sum(1 << image[p] for p in self.lines[j]) not in specials
                   for j in self.special_lines):
                return None
        return group

    @cached_property
    def at_line_0(self) -> tuple[list[int], IncidenceStructure]:
        """(lines, structure): line 0 and the lines meeting it, in line order,
        and the structure they form over the same points, its line i being
        line lines[i] here, so its masks are only as wide as that list."""
        lines = [0, *iter_bits(meeting(self.lines, self.through, [0])[0])]
        return lines, IncidenceStructure(self.points, [self.lines[i] for i in lines],
                                         self.special_point)

    # -- JSON interchange: labels only, geometry lives elsewhere --

    def to_json_dict(self) -> dict:
        return {
            "points": list(self.points),
            "special_point": self.points[self.special_point],
            "lines": [[self.points[p] for p in t] for t in self.lines],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "IncidenceStructure":
        points = list(d["points"])
        index = {lab: i for i, lab in enumerate(points)}
        lines = [[index[lab] for lab in ln] for ln in d["lines"]]
        return cls(points, lines, index[d["special_point"]])


def order_of(s: IncidenceStructure) -> tuple[int, int]:
    """(m, n): m+1 special lines with n+1 points each, all of equal size."""
    if not s.special_lines:
        raise StructureError("no special lines")
    sizes = {len(s.lines[i]) for i in s.special_lines}
    if len(sizes) != 1:
        raise StructureError(f"special lines have unequal sizes {sorted(sizes)}")
    return len(s.special_lines) - 1, sizes.pop() - 1
