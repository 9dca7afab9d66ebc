"""Point-line incidence structures and the models made of them.

An IncidenceStructure holds points, lines as point-index sets and a special
point D.  Its one incidence index is IncidenceStructure.through, the lines
through each point, and its line_masks are the lines as point masks; both
are built on first use, so building and writing a model forms neither.
The concurrence masks read off `through` (_util.meeting) are A6's table
of the lines meeting each line and the graph of lines' rows.  A
RectangleModel is a structure with its parameters and coordinates; its
field is made on first use, so reading a model file loads no gf.

Every `prect` subcommand compiles this module.  It also holds A1's one walk
over the incidences (_a1_witness), which every subcommand that reads a
model reports; the rest of A1-A6 and the elementary counts live in
prect.incidence, which only verify loads, and the builders in
prect.construct, which only build loads.
"""

from __future__ import annotations

from functools import cached_property

from ._util import Translations, comb2, holders, iter_bits, meeting, translations_of


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


def _a1_witness(s: IncidenceStructure):
    """The first pair on two lines, else the first pair on none, else None.

    One walk ORs each line's mask into its points' covers.  The lines hold
    sum C(|line|, 2) pairs counted with multiplicity, the covers sum
    (|cover| - 1) / 2 distinct ones, so only a surplus puts a pair on two
    lines; both its points then have more partners counted than covered.
    The witness is on the first line i with two such points that meets
    another line twice (its points' pencils ORed into once and twice masks):
    i's least point a on such a line, and a's least partner b on one.  Else
    the least point whose cover misses a point, and the least it misses.
    """
    cover = [1 << p for p in range(s.n_points)]
    for t, mask in zip(s.lines, s.line_masks):
        for p in t:
            cover[p] |= mask
    if sum(comb2(len(t)) for t in s.lines) > sum(c.bit_count() - 1 for c in cover) // 2:
        counted = [0] * len(cover)  # [p]: p's partners counted with multiplicity
        for t in s.lines:
            for p in t:
                counted[p] += len(t) - 1
        doubled = sum(1 << p for p, c in enumerate(cover) if counted[p] >= c.bit_count())
        through = s.through
        for i, (t, mask) in enumerate(zip(s.lines, s.line_masks)):
            if (mask & doubled).bit_count() > 1:
                once = twice = 0
                for a in t:
                    twice |= once & through[a]
                    once |= through[a]
                twice &= ~(1 << i)  # the lines other than i meeting line i twice
                for a in t:
                    if through[a] & twice:
                        b = next(b for b in t if b != a and through[a] & through[b] & twice)
                        return {"pair": (a, b), "lines": list(iter_bits(through[a] & through[b])),
                                "defect": "covered more than once"}
    for p, c in enumerate(cover):
        if c.bit_count() < len(cover):  # ~c & c + 1 is c's lowest zero bit
            return {"pair": (p, (~c & c + 1).bit_length() - 1), "lines": [],
                    "defect": "not covered"}
    return None


class RectangleModel:
    """An incidence structure plus construction metadata and coordinates.

    structure.lines lists the ordinary lines first, in construction order,
    followed by the m+1 special lines; graph vertices reuse those indices.
    Coordinates are (x, y, z) triples of field codes: points [x:y:z] and
    line coefficients <a,b,c>, codes of ctx, GF(p^(ek)).  Combinatorial
    models carry no coordinates, and their ctx is None.
    """

    def __init__(self, structure: IncidenceStructure, p: int, e: int, k: int, *,
                 special_labels, point_coords=None, line_coeffs=None, special_coeffs=None):
        self.structure = structure
        self.p, self.e, self.k = p, e, k
        self.q = p ** e
        self.m = self.q
        self.n = self.q ** k
        self.point_coords = point_coords
        self.line_coeffs = line_coeffs
        self.special_coeffs = special_coeffs
        self.special_labels = special_labels

    @cached_property
    def ctx(self):
        """GF(p^(ek)), the field of the coordinates, made on first use; None
        for a model without coordinates."""
        if self.point_coords is None:
            return None
        from .gf import field_make

        return field_make(self.p, self.e * self.k)

    @property
    def family(self) -> str | None:
        """The family its data gives: a coordinatized model is "plane" when
        k = 1 and "subplane" otherwise, one without coordinates over (Z_2)^k
        is "l2k", and any other has None."""
        if self.point_coords is not None:
            return "plane" if self.k == 1 else "subplane"
        return "l2k" if (self.p, self.e) == (2, 1) else None

    @property
    def trivial(self) -> bool:
        return self.m == self.n

    @property
    def num_ordinary_lines(self) -> int:
        return len(self.structure.ordinary_lines)

    def alt_special_labels(self):
        """The alternate q=2 labeling that swaps the roles of s_1 and s_inf."""
        if self.q != 2 or self.family == "l2k":
            return None
        swap = {"s_1": "s_inf", "s_inf": "s_1"}
        return [swap.get(lab, lab) for lab in self.special_labels]
