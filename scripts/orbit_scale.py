#!/usr/bin/env python3
"""Time orbit closures of hundreds to thousands of states.

Three kinds of system, each closed `--repeats` times, with the median wall
time printed per row:

- two tilted planes in R^3 that share a line, at small angles, whose
  orbits close in about 500 to 4,000 states at tolerance 1e-12 (cap
  4096).  Alternating projections between the planes converge to the
  shared line at rate cos^2(angle) per round trip, so the orbit is always
  finite but grows like log(tol) / log(cos^2 angle) as the tilt shrinks
  or the tolerance tightens; the `est.` column gives that chain length;
- the d=3 mutually unbiased pair of the computational and Fourier bases,
  one rank-1 projector per basis vector, seeded at |0>, at tolerance
  1e-6.  Its orbit does not close, so each run stops at the cap, and the
  row gives how many of the discovered states were still unexpanded;
- a mixed cycle of two-plane documents, as `quantum build` reads them:
  the planes in dimension 3 or 4, each with its complement as a
  proposition of its own, at angles 0.28 to 0.4 and tolerance 1e-6, whose
  orbits close in 150 to 290 states.  The cycle is closed `--repeats`
  times, and its states and seconds are those of one whole cycle.

Each row gives its number of yes/no actions, two per proposition, and
how many of them are distinct matrices, summed over the row's systems.
Orbit closure acts once with each distinct matrix, so only rows whose
systems list a projector and its complement as two propositions (the
mixed cycle) have fewer distinct actions than actions.

Each row also gives the minor page faults (`getrusage`) per closure,
in its first round and in the later ones: the memory a closure touches
for the first time.  Rows run in one process, the mixed cycle first, as the
first closures of a `gqt quantum build` or of the benchmark's process
are; how many faults a closure takes depends on the closures before it.

Only the public `gqt.quantum` names are used, so the same script times
any checkout put on PYTHONPATH.  It makes no assertions.
"""

import argparse
import cmath
import math
import resource
import statistics
import time

# gqt before numpy, the order of the `gqt` command, which loads numpy only
# for `quantum build`: the page faults of a closure depend on the state
# malloc is left in, and numpy loaded first hides them.
from gqt.errors import OrbitCapExceeded
from gqt.quantum import DensityState, Projector, close_orbit

import numpy as np

PLANE_CAP = 4096
MUB_TOL = 1e-6
MIXED_SYSTEMS = ((4, 0.28), (3, 0.3), (4, 0.35), (3, 0.4))
MIXED_TOL = 1e-6


def two_plane_system(angle):
    """Seed (|0> + |1>)/sqrt 2 and the projectors onto span(e0, e1) and span(e0, tilted e1)."""
    e0 = np.array([1, 0, 0], dtype=complex)
    e1 = np.array([0, 1, 0], dtype=complex)
    tilted = np.array([0, math.cos(angle), math.sin(angle)], dtype=complex)
    p = Projector(np.outer(e0, e0.conj()) + np.outer(e1, e1.conj()))
    q = Projector(np.outer(e0, e0.conj()) + np.outer(tilted, tilted.conj()))
    vec = (e0 + e1) / math.sqrt(2)
    seed = DensityState(np.outer(vec, vec.conj()))
    return seed, [("P", p), ("Q", q)]


def plane_document_system(angle, dim):
    """The two planes in dimension `dim`, both also holding every basis
    vector past e2, each with its complement as a proposition of its own,
    as the two-member families of a quantum document list them."""
    seed, [(_, p), (_, q)] = two_plane_system(angle)
    shared = np.diag([0.0] * 3 + [1.0] * (dim - 3))
    p, q = (np.pad(m.matrix, (0, dim - 3)) + shared for m in (p, q))
    seed = DensityState(np.pad(seed.matrix, (0, dim - 3)))
    eye = np.eye(dim)
    return seed, [("P", Projector(p)), ("Pn", Projector(eye - p)), ("Q", Projector(q)), ("Qn", Projector(eye - q))]


def chain_estimate(angle, tol):
    """Round trips until the off-axis component of the two-plane seed falls below tol."""
    return math.ceil(math.log(tol) / (2.0 * math.log(math.cos(angle))))


def fourier_pair(d=3):
    """Seed |0> and the rank-1 projectors of the computational and Fourier bases."""
    fourier = np.array([[cmath.exp(2j * math.pi * j * k / d) for k in range(d)] for j in range(d)]) / math.sqrt(d)
    props = []
    for name, basis in (("Z", np.eye(d, dtype=complex)), ("F", fourier)):
        for k in range(d):
            v = basis[:, k]
            props.append((f"{name}{k}", Projector(np.outer(v, v.conj()))))
    seed = DensityState(np.diag([1.0] + [0.0] * (d - 1)))
    return seed, props


def action_counts(systems):
    """The yes/no actions of the systems, and how many of each system's are distinct matrices, summed."""
    keys = [[m.tobytes() for _, p in props for m in (p.matrix, p.complement().matrix)] for _, props in systems]
    return sum(map(len, keys)), sum(len(set(k)) for k in keys)


def minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def timed_closures(systems, cap, tol, repeats):
    """(states, unexpanded or None, median seconds, faults per closure of
    the first round, of the later ones or None) of `repeats` rounds, each
    closing every (seed, props) system once; states, unexpanded and
    seconds are per round."""
    times, faults = [], []
    for _ in range(repeats):
        states, unexpanded, seconds = 0, None, 0.0
        for seed, props in systems:
            before, start = minor_faults(), time.perf_counter()
            try:
                states += len(close_orbit([seed], props, cap=cap, tol=tol).model.space)
            except OrbitCapExceeded as exc:
                states += len(exc.discovered)
                unexpanded = (unexpanded or 0) + len(exc.frontier)
            seconds += time.perf_counter() - start
            faults.append(minor_faults() - before)
        times.append(seconds)
    first, later = faults[: len(systems)], faults[len(systems) :]
    return states, unexpanded, statistics.median(times), statistics.mean(first), statistics.mean(later) if later else None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--angles", type=float, nargs="*", default=[0.3, 0.2, 0.15, 0.11], help="plane tilt angles")
    parser.add_argument("--tol", type=float, default=1e-12, help="tolerance of the plane systems (default 1e-12)")
    parser.add_argument("--mub-caps", type=int, nargs="*", default=[1000, 2000], help="caps of the Fourier pair")
    parser.add_argument("--repeats", type=int, default=3, help="closures per row; the median is printed (default 3)")
    args = parser.parse_args(argv)

    mixed = [plane_document_system(angle, dim) for dim, angle in MIXED_SYSTEMS]
    closure = timed_closures(mixed, PLANE_CAP, MIXED_TOL, args.repeats)
    rows = [("mixed planes", PLANE_CAP, MIXED_TOL, "-", *action_counts(mixed), *closure)]
    for angle in args.angles:
        system = [two_plane_system(angle)]
        closure = timed_closures(system, PLANE_CAP, args.tol, args.repeats)
        rows.append((f"planes {angle:g}", PLANE_CAP, args.tol, chain_estimate(angle, args.tol), *action_counts(system), *closure))
    for cap in args.mub_caps:
        system = [fourier_pair()]
        rows.append(("fourier d=3", cap, MUB_TOL, "-", *action_counts(system), *timed_closures(system, cap, MUB_TOL, args.repeats)))

    print(f"orbit closure time, median of {args.repeats} rounds; minor page faults per closure, first round and later ones")
    header = f"{'system':<14}{'cap':>7}{'tol':>8}{'est.':>6}{'actions':>9}{'distinct':>10}{'states':>8}{'unexpanded':>12}"
    print(f"{header}{'seconds':>10}{'states/s':>10}{'faults 1st':>12}{'later':>10}")
    for name, cap, tol, estimate, actions, distinct, states, unexpanded, seconds, first, later in rows:
        left = "-" if unexpanded is None else str(unexpanded)
        later = "-" if later is None else f"{later:.1f}"
        print(
            f"{name:<14}{cap:>7}{tol:>8.0e}{estimate:>6}{actions:>9}{distinct:>10}{states:>8}{left:>12}"
            f"{seconds:>10.3f}{states / seconds:>10.0f}{first:>12.1f}{later:>10}"
        )


if __name__ == "__main__":
    main()
