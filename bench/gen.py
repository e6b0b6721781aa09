"""Seeded input generators for the benchmark.

Everything here is pure standard-library Python and independent of the
`gqt` package, so the inputs stay the same bytes however the program
under test changes.  The same arguments always give the same text:
`random.Random` is seeded with a string, and the quantum matrices use
only IEEE arithmetic (no libm calls), so they do not depend on the
platform's maths library.
"""

from __future__ import annotations

import json
import random

# Model sizes of the `model-docs` and `fuzz` workloads.  A fine, even
# spread of sizes, not a few classes, so that op_ms_p50 never sits inside
# one class whose latency jumps when the machine's speed changes.
MODEL_STATES = tuple(range(8, 65, 4))

# Number of documents (or generator seeds) per size with a golden.
MODEL_POOL = 24

# Every fourth model document carries one seeded map-entry mutation.
MUTATED_EVERY = 4

# Pool of quantum document indices that golden capture considers.
QUANTUM_POOL = 96


# ---------------------------------------------------------------------------
# Model documents


def _proposition(rng: random.Random, states: list[str]) -> tuple[dict, dict]:
    # Yes-eigenstates, no-eigenstates and contingent states that map into
    # them: idempotent, mutually annihilating and consistent by construction.
    cats = {}
    for z in states:
        r = rng.random()
        cats[z] = "Y" if r < 0.4 else ("N" if r < 0.8 else "C")
    if all(c == "C" for c in cats.values()):
        cats[rng.choice(states)] = rng.choice("YN")
    yes_eigen = [z for z in states if cats[z] == "Y"]
    no_eigen = [z for z in states if cats[z] == "N"]
    yes, no = {}, {}
    for z in states:
        if cats[z] == "Y":
            yes[z], no[z] = z, None
        elif cats[z] == "N":
            yes[z], no[z] = None, z
        else:
            yes[z] = rng.choice(yes_eigen) if yes_eigen else None
            no[z] = rng.choice(no_eigen) if no_eigen else None
    return yes, no


def _step(table: dict, z):
    return None if z is None else table[z]


def _annihilating(p: tuple[dict, dict], q: tuple[dict, dict], states: list[str]) -> bool:
    return all(_step(p[0], q[0][z]) is None and _step(q[0], p[0][z]) is None for z in states)


def _observable(rng, states, name, props, max_spectrum):
    # Greedy pairwise-annihilating branches plus a remainder branch that
    # fixes every uncovered state, so the family is exclusive and complete.
    target = rng.randint(2, max_spectrum)
    chosen: list[str] = []
    for pname in rng.sample(sorted(props), len(props)):
        if len(chosen) >= target - 1:
            break
        if all(_annihilating(props[pname], props[q], states) for q in chosen):
            chosen.append(pname)
    uncovered = [z for z in states if all(props[p][0][z] is None for p in chosen)]
    kill = {z for p in chosen for z in states if props[p][0][z] == z}
    if uncovered:
        pad = f"{name}rest"
        kill_list = [z for z in states if z in kill]
        yes, no = {}, {}
        for z in states:
            if z in uncovered:
                yes[z], no[z] = z, None
            elif z in kill:
                yes[z], no[z] = None, z
            else:
                yes[z] = rng.choice(uncovered) if rng.random() < 0.5 else None
                no[z] = rng.choice(kill_list)
        props[pad] = (yes, no)
        chosen.append(pad)
    return {"spectrum": [f"v{i}" for i in range(len(chosen))], "family": {f"v{i}": p for i, p in enumerate(chosen)}}


def model_params(n_states: int) -> tuple[int, int, int, int]:
    """(states, propositions, observables, max spectrum) of a model size."""
    return n_states, min(16, max(4, n_states // 4)), min(8, max(2, n_states // 8)), min(8, max(4, n_states // 8))


def fuzz_seed(n: int, index: int) -> int:
    """Generator seed number `index` of the `fuzz` workload's models with `n` states."""
    return random.Random(f"fuzz:{n}:{index}").randrange(2**64)


def is_mutated(index: int) -> bool:
    return index % MUTATED_EVERY == MUTATED_EVERY - 1


def model_document(n: int, index: int) -> str:
    """Canonical model document number `index` with `n` states.

    Documents with `is_mutated(index)` have one map entry redirected to
    another state or to null, so they may break the laws.
    """
    n_states, n_props, n_obs, max_spectrum = model_params(n)
    rng = random.Random(f"model-docs:{n}:{index}")
    states = [f"s{i}" for i in range(n_states)]
    props = {f"P{k}": _proposition(rng, states) for k in range(n_props)}
    observables = {f"A{j}": _observable(rng, states, f"A{j}", props, max_spectrum) for j in range(n_obs)}
    if is_mutated(index):
        name = rng.choice(sorted(props))
        side = rng.randrange(2)
        z = rng.choice(states)
        current = props[name][side][z]
        props[name][side][z] = rng.choice([w for w in [None, *states] if w != current])
    doc = {
        "states": states,
        "propositions": {name: {"yes": props[name][0], "no": props[name][1]} for name in sorted(props)},
        "observables": {name: observables[name] for name in sorted(observables)},
    }
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


# ---------------------------------------------------------------------------
# Quantum documents


def _unit(t: float) -> tuple[float, float]:
    # (cos, sin) of the angle 2*atan(t), from arithmetic alone.
    d = 1.0 + t * t
    return (1.0 - t * t) / d, 2.0 * t / d


def _matvec(m, v):
    return [sum(m[i][k] * v[k] for k in range(len(v))) for i in range(len(m))]


def _outer(vectors, dim):
    return [[sum(v[i] * v[j].conjugate() for v in vectors) for j in range(dim)] for i in range(dim)]


def _encode(m):
    return [[[x.real, x.imag] for x in row] for row in m]


def quantum_params(index: int) -> dict:
    rng = random.Random(f"quantum:{index}")
    return {
        "dim": rng.choice((3, 4)),
        "tilt": rng.uniform(0.11, 0.28),
        "tol_exp": rng.choice((5, 6)),
        "rotation": [rng.uniform(-1.0, 1.0) for _ in range(6)],
        "phases": [rng.uniform(-1.0, 1.0) for _ in range(4)],
    }


def quantum_document(index: int) -> str:
    """Two-plane quantum document number `index`.

    Planes P = span(e0, e1) and Q = span(e0, cos a e1 + sin a e2), with a
    seeded tilt a, are carried into dimension 3 or 4 by a seeded unitary
    (Givens rotations, then diagonal phases).  The seed ket (e0 + e1)
    converges to e0 at rate cos^2 a under alternating projection, so the
    orbit length grows like log(tol) / log(cos^2 a).
    """
    p = quantum_params(index)
    dim = p["dim"]
    u = [[complex(i == j) for j in range(dim)] for i in range(dim)]
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    for (i, j), t in zip(pairs, p["rotation"]):
        c, s = _unit(t)
        for row in u:
            row[i], row[j] = c * row[i] - s * row[j], s * row[i] + c * row[j]
    for i, t in zip(range(dim), p["phases"]):
        c, s = _unit(t)
        u[i] = [complex(c, s) * x for x in u[i]]
    basis = [[complex(i == j) for i in range(dim)] for j in range(dim)]
    c, s = _unit(p["tilt"])
    tilted = [c * a + s * b for a, b in zip(basis[1], basis[2])]
    # Both "planes" also hold every basis vector past e2, so each complement
    # is a single line and the no-branches end at once instead of seeding
    # further chains.
    shared = [_matvec(u, v) for v in basis[3:]]
    e0, e1, w = (_matvec(u, v) for v in (basis[0], basis[1], tilted))
    eye = [[complex(i == j) for j in range(dim)] for i in range(dim)]
    plane_p = _outer([e0, e1, *shared], dim)
    plane_q = _outer([e0, w, *shared], dim)
    seed = _matvec(u, [a + b for a, b in zip(basis[0], basis[1])])
    doc = {
        "dimension": dim,
        "seeds": {"psi": [[x.real, x.imag] for x in seed]},
        "propositions": {
            "P": _encode(plane_p),
            "Pn": _encode([[eye[i][j] - plane_p[i][j] for j in range(dim)] for i in range(dim)]),
            "Q": _encode(plane_q),
            "Qn": _encode([[eye[i][j] - plane_q[i][j] for j in range(dim)] for i in range(dim)]),
        },
        "observables": {
            "A": {"spectrum": ["1", "0"], "family": {"1": "P", "0": "Pn"}},
            "B": {"spectrum": ["1", "0"], "family": {"1": "Q", "0": "Qn"}},
        },
        "cap": 4096,
        "tolerance": float(f"1e-{p['tol_exp']}"),
    }
    return json.dumps(doc) + "\n"


# ---------------------------------------------------------------------------
# CLI commands

# Output file of each `quantum build`, relative to the checkout root.
CLI_OUT = "bench/out/cli"

# The malformed document of `cli-cold`, relative to the checkout root.
CLI_MALFORMED = f"{CLI_OUT}/malformed.json"

# One cycle of `cli-cold`, keyed by a stable name.  `{fuzz_seed}` is
# filled in per run.  Three of the fourteen are `quantum build`, the one
# class that keeps numpy once pure-core commands stop importing it, so
# op_ms_p90 lands inside that class, not on its edge.
CLI_COMMANDS = (
    ("validate-qzx", ["validate", "fixtures/qzx.json"]),
    ("validate-bell", ["validate", "fixtures/bell.json"]),
    ("check-bell", ["check", "fixtures/bell.json"]),
    ("check-bistable", ["check", "fixtures/bistable.json"]),
    ("report-qzx", ["report", "fixtures/qzx.json"]),
    ("report-bell-json", ["report", "fixtures/bell.json", "--format", "json"]),
    ("eigen-bell", ["eigen", "fixtures/bell.json", "--observable", "BELL"]),
    ("measure-bell", ["measure", "fixtures/bell.json", "--state", "phiP", "--steps", "ZA=0,BELL=phi+"]),
    ("entangle-bell", ["entangle", "fixtures/bell.json", "--global", "BELL", "--locals", "ZA,ZB"]),
    ("quantum-qzx", ["quantum", "build", "fixtures/qzx_quantum.json", "-o", f"{CLI_OUT}/qzx_built.json"]),
    ("quantum-bell", ["quantum", "build", "fixtures/bell_quantum.json", "-o", f"{CLI_OUT}/bell_built.json"]),
    (
        "quantum-bell-tol",
        ["quantum", "build", "fixtures/bell_quantum.json", "--tol", "1e-6", "-o", f"{CLI_OUT}/bell_tol_built.json"],
    ),
    ("fuzz-small", ["fuzz", "--states", "8", "--props", "4", "--obs", "2", "--count", "20", "--seed", "{fuzz_seed}"]),
    ("malformed", ["validate", CLI_MALFORMED]),
)


def malformed_document(fixture_text: str) -> str:
    """A truncated copy of a model document, which `gqt validate` must reject with exit 2."""
    return fixture_text[: len(fixture_text) // 2]
