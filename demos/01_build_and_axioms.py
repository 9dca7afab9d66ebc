"""Build the two families and machine-check the rectangle axioms.

A projective rectangle looks like a projective plane stretched in one
direction: a special point D, m+1 long lines through it, and n^2 short
lines everywhere else.  This script builds the narrow rectangle of order
(2, 4), the subplane construction of order (3, 9), and the Fano plane as
the trivial case, then runs the full axiom checker and the elementary
count checks on each.
"""

from prect import (IncidenceStructure, build_l2k, build_plane, build_subplane_rect,
                   check_axioms, elementary_counts, order_of)

for label, model in [
    ("L_2^2 (narrow, order (2,4))", build_l2k(2)),
    ("R(3,9) (subplane construction)", build_subplane_rect(3, 1, 2)),
    ("PP(2)  (trivial: the Fano plane)", build_plane(2, 1)),
]:
    s = model.structure
    m, n = order_of(s)
    print(f"== {label}")
    print(f"   points: {s.n_points}, lines: {s.n_lines} "
          f"({len(s.ordinary_lines)} ordinary + {len(s.special_lines)} special)")

    report = check_axioms(s, "full")
    print(f"   axioms A1..A6: {report.verdicts}")
    assert report.ok

    counts = elementary_counts(s)
    print(f"   order (m, n) = ({m}, {n}); counts consistent: {counts.ok}")
    assert counts.ok
    for name, (expected, actual) in sorted(counts.checks.items()):
        print(f"     {name}: expected {expected}, measured {actual}")

# Mutation sanity: removing any ordinary line must break axiom A1.
print("== mutation check on L_2^2")
s = build_l2k(2).structure
broken = IncidenceStructure(s.points, s.lines[1:], s.special_point)
report = check_axioms(broken, "full")
print(f"   after deleting line l_0: A1 = {report.verdicts['A1']}, "
      f"witness = {report.witnesses['A1']}")
assert not report.verdicts["A1"]
print("done.")
