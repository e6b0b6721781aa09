#!/usr/bin/env python3
"""Time orbit closures of hundreds to thousands of states.

Two kinds of system, each closed `--repeats` times, with the median wall
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
  row gives how many of the discovered states were still unexpanded.

Only the public `gqt.quantum` names are used, so the same script times
any checkout put on PYTHONPATH.  It makes no assertions.
"""

import argparse
import cmath
import math
import statistics
import time

import numpy as np

from gqt.errors import OrbitCapExceeded
from gqt.quantum import DensityState, Projector, close_orbit

PLANE_CAP = 4096
MUB_TOL = 1e-6


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


def timed_closure(seed, props, cap, tol, repeats):
    """(states, unexpanded or None, median seconds) over `repeats` closures."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        try:
            states, unexpanded = len(close_orbit([seed], props, cap=cap, tol=tol).model.space), None
        except OrbitCapExceeded as exc:
            states, unexpanded = len(exc.discovered), len(exc.frontier)
        times.append(time.perf_counter() - start)
    return states, unexpanded, statistics.median(times)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--angles", type=float, nargs="*", default=[0.3, 0.2, 0.15, 0.11], help="plane tilt angles")
    parser.add_argument("--tol", type=float, default=1e-12, help="tolerance of the plane systems (default 1e-12)")
    parser.add_argument("--mub-caps", type=int, nargs="*", default=[1000, 2000], help="caps of the Fourier pair")
    parser.add_argument("--repeats", type=int, default=3, help="closures per row; the median is printed (default 3)")
    args = parser.parse_args(argv)

    rows = []
    for angle in args.angles:
        seed, props = two_plane_system(angle)
        closure = timed_closure(seed, props, PLANE_CAP, args.tol, args.repeats)
        rows.append((f"planes {angle:g}", PLANE_CAP, args.tol, chain_estimate(angle, args.tol), *closure))
    seed, props = fourier_pair()
    for cap in args.mub_caps:
        rows.append(("fourier d=3", cap, MUB_TOL, "-", *timed_closure(seed, props, cap, MUB_TOL, args.repeats)))

    print(f"orbit closure time, median of {args.repeats}")
    print(f"{'system':<14}{'cap':>7}{'tol':>8}{'est.':>6}{'states':>8}{'unexpanded':>12}{'seconds':>10}{'states/s':>10}")
    for name, cap, tol, estimate, states, unexpanded, seconds in rows:
        left = "-" if unexpanded is None else str(unexpanded)
        print(f"{name:<14}{cap:>7}{tol:>8.0e}{estimate:>6}{states:>8}{left:>12}{seconds:>10.3f}{states / seconds:>10.0f}")


if __name__ == "__main__":
    main()
