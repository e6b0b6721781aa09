"""Finite models of generalized quantum theory.

Propositions are pairs of idempotent state maps, observables are
mutually exclusive and jointly complete proposition families, and the
usual quantum phenomena (complementarity, order-dependent measurement,
entanglement) appear as properties of plain finite maps.  Names are
imported from their modules: `gqt.core` (the calculus and its laws),
`gqt.modelio` (documents), `gqt.quantum` (density matrices and
projectors), `gqt.checker` (law fuzzing), `gqt.errors` and `gqt.cli`.
"""

__version__ = "0.1.0"
