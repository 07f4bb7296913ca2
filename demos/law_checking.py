"""Running the verification suites programmatically.

The same suites back the `cdcat check` command; each returns a Report
whose JSON form is deterministic. The last part states one law of Q as a
row and decides it with Report.check. Run with: python3 demos/law_checking.py
"""

import json

from cdcat import qmodality as qm, suites
from cdcat.algebra import Free, basis_elem, zmod
from cdcat.reports import Report, equation

# The seven differential axioms on polynomial maps, randomized but seeded.
report = suites.cdc_suite("zmod:5", seed=0, samples=50)
print(report.render())
print()

# The comonad / comonoid / bialgebra laws of Q, exhaustively on all
# generators up to the stated degree. Small sizes finish in seconds.
report = suites.modality_suite(2, dim=1, maxdeg=2)
print(report.render())
print()

# Reports serialize deterministically (no timestamps), so two runs of
# `cdcat check ... --json` are byte-identical.
payload = json.dumps(report.to_dict(), sort_keys=True, indent=2)
print(payload.splitlines()[0])
print("checks recorded:", len(report.checks))

# A law is a row: a name, two sides and a message. Report.check decides
# each row on a stream of instances and stops it at its first failure; the
# counterexample is the message formatted with the failing instance.
rig = zmod(2)
A = Free(("a1", "a2"))
gens = [qm.q_inject(basis_elem(rig, A, k), []) for k in A.basis]
report = Report("demo")
report.check(gens, equation("comonad-counit-outer",
                            lambda q: qm.counit(qm.comult(q)), lambda q: q,
                            "eps.delta != id at {}"))
print()
print(report.render())
