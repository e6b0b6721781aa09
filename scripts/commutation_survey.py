#!/usr/bin/env python3
"""Matrix commutation versus induced-map compatibility on finite orbits.

Commuting projectors always induce compatible propositions on an orbit
model; that direction holds unconditionally.  The converse can fail: if
the orbit never visits a state that witnesses the non-commutation, the
induced maps commute even though the matrices do not.  This samples
projector pairs in three regimes (common eigenbasis, generic, and
non-commuting pairs seeded at a shared eigenvector), tabulates the
commute/compatible cells, and lists converse counterexample candidates.
Exits 1 when a commuting pair induces incompatible maps.
"""

import argparse
import sys

import numpy as np

from gqt.core import is_compatible_propositions
from gqt.errors import OrbitCapExceeded
from gqt.quantum import DensityState, Projector, close_orbit


def random_unitary(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(m)
    return q


def rank_projector(basis):
    return Projector(basis @ basis.conj().T)


def sample_pair(rng, dim):
    """One trial: (P, Q, seed state, regime label)."""
    regime = rng.choice(["commuting", "generic", "shared-eigenvector"])
    if regime == "commuting":
        u = random_unitary(rng, dim)
        d1 = np.diag(rng.integers(0, 2, size=dim).astype(complex))
        d2 = np.diag(rng.integers(0, 2, size=dim).astype(complex))
        p, q = Projector(u @ d1 @ u.conj().T), Projector(u @ d2 @ u.conj().T)
    elif regime == "generic":
        p = rank_projector(random_unitary(rng, dim)[:, : rng.integers(1, dim)])
        q = rank_projector(random_unitary(rng, dim)[:, : rng.integers(1, dim)])
    else:
        # planes sharing the line through u0; tilt keeps them non-commuting
        u = random_unitary(rng, max(dim, 3))
        angle = rng.uniform(0.2, 1.2)
        tilted = np.cos(angle) * u[:, 1] + np.sin(angle) * u[:, 2]
        p = Projector(np.outer(u[:, 0], u[:, 0].conj()) + np.outer(u[:, 1], u[:, 1].conj()))
        q = Projector(np.outer(u[:, 0], u[:, 0].conj()) + np.outer(tilted, tilted.conj()))
        seed = DensityState(np.outer(u[:, 0], u[:, 0].conj()))
        return p, q, seed, regime
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return p, q, DensityState(a @ a.conj().T), regime


def survey(trials, dim, seed, cap, tol):
    rng = np.random.default_rng(seed)
    cells = {}
    candidates = []
    capped = 0
    for trial in range(trials):
        p, q, state, regime = sample_pair(rng, dim)
        residue = float(np.abs(p.matrix @ q.matrix - q.matrix @ p.matrix).max())
        commute = residue <= tol
        try:
            orbit = close_orbit([state], [("P", p), ("Q", q)], cap=cap, tol=tol)
        except OrbitCapExceeded:
            capped += 1
            continue
        model = orbit.model
        compatible, _ = is_compatible_propositions(model.propositions["P"], model.propositions["Q"])
        cells[(commute, compatible)] = cells.get((commute, compatible), 0) + 1
        if compatible and not commute:
            candidates.append((trial, regime, residue, len(model.space)))
    return cells, candidates, capped


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--dim", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cap", type=int, default=256)
    parser.add_argument("--tol", type=float, default=1e-9)
    args = parser.parse_args(argv)

    cells, candidates, capped = survey(args.trials, args.dim, args.seed, args.cap, args.tol)
    print(f"trials: {args.trials}  dim: {args.dim}  cap exceeded: {capped}")
    print(f"{'':>14}{'compatible':>12}{'incompatible':>14}")
    for commute in (True, False):
        label = "commuting" if commute else "non-commuting"
        yes = cells.get((commute, True), 0)
        no = cells.get((commute, False), 0)
        print(f"{label:>14}{yes:>12}{no:>14}")
    print(f"\nconverse counterexample candidates (compatible maps, non-commuting matrices): {len(candidates)}")
    for trial, regime, residue, n_states in candidates[:10]:
        print(f"  trial {trial:4d}  regime {regime:<18}  max|[P,Q]| = {residue:.3e}  orbit states = {n_states}")
    broken = cells.get((True, False), 0)
    if broken:
        print(f"error: {broken} commuting pairs induced incompatible maps (theorem broken)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
