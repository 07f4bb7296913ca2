"""Differential presheaves over a finite matrix category.

The base is Mat(Z/m) on a chosen list of dimensions. Representables,
the unit, tensors, and a truncated Q all carry a differential that is
checked against five axioms, and the Yoneda embedding is fully faithful
onto the maps that respect the differential.
Run with: python3 demos/presheaves.py
"""

from cdcat import dpsh

base = dpsh.FiniteCdcBase(2, [1, 2])
be = base.backend

# The representable presheaf at 2: sections over A are maps A -> 2,
# and the differential of a section is its total derivative.
y2 = dpsh.ReprPresheaf(base, 2)
ident = be.identity(2)
print("D(id_2) =", y2.diff(2, ident))

# Every constructed presheaf passes the axioms.  Axioms (ii), (iv) and (v)
# range over triples of maps Z -> A; where there are more than 64 triples
# they are checked on 64 sampled ones per element, the rest exhaustively.
# The test suite's criterion 7 checks these presheaves all exhaustively.
y1 = dpsh.ReprPresheaf(base, 1)
for name, X in [("y1", y1),
                ("unit", dpsh.UnitPresheaf(base)),
                ("y1 (x) y2", dpsh.TensorPresheaf(y1, y2)),
                ("Q(y1), bound 2", dpsh.QPresheaf(y1, bound=2))]:
    report = dpsh.check_presheaf(X, map_budget=64)
    print(f"{name}: {'all axioms hold' if report.passed else report.render()}")

# A presheaf map out of a representable is classified by a symmetric
# derivative sequence; evaluating it on the canonical generators gives
# the sequence back.
f = be.proj([1, 1], 0)
cm = dpsh.classify(base, y1, 2, [f, be.D(f)])
print("classified map returns f on the canonical generator:",
      cm.eval(2, dpsh.canonical_generator(base, 2, 0)) == f)

# Full fidelity: among all candidate derivative sequences, exactly the
# Yoneda images of base maps respect the differential.
report = dpsh.full_fidelity(base, 1, 2, support_bound=2, degree_bound=1)
print(report.render())
