"""Seeded random model generation and whole-model law checking.

The generator only emits valid models: propositions are built by
partitioning states into yes-eigenstates, no-eigenstates, and contingent
states that map into the first two groups, which satisfies idempotence,
annihilation, and consistency by construction.  Observable families pick
pairwise-annihilating propositions and pad the uncovered states with a
remainder branch.  `check_laws` re-verifies everything from scratch, so
under fuzzing any reported violation is an implementation bug.
"""

from __future__ import annotations

import random
from functools import cache, partial
from itertools import compress
from typing import Sequence

from . import core
from .core import Violation
from .errors import StructuralError

# Laws re-checked by check_laws.  Frozen, as is the report order, which
# follows this one except that each observable pair reports
# strongcomp-implies-comp before compat-implies-joint-eigenstate.
LAW_IDS = (
    "PP=P",
    "P·negP=0",
    "consistency",
    "0P=P0=0",
    "1P=P1=P",
    "1ANDP=P",
    "mutual-exclusion",
    "completeness",
    "compat-implies-joint-eigenstate",
    "strongcomp-implies-comp",
    "compat-order-independence",
)

_MAX_SEED = 2**64


class GeneratorParams(core._Record):
    """Knobs for the random model generator."""

    __slots__ = _fields = ("n_states", "n_props", "n_obs", "max_spectrum", "seed")

    def __init__(self, n_states: int, n_props: int = 0, n_obs: int = 0, max_spectrum: int = 4, seed: int = 0):
        if not 1 <= n_states <= 64:
            raise StructuralError(f"n_states must be in 1..64, got {n_states}")
        if not 0 <= n_props <= 16:
            raise StructuralError(f"n_props must be in 0..16, got {n_props}")
        if not 0 <= n_obs <= 8:
            raise StructuralError(f"n_obs must be in 0..8, got {n_obs}")
        if not 2 <= max_spectrum <= 8:
            raise StructuralError(f"max_spectrum must be in 2..8, got {max_spectrum}")
        if not 0 <= seed < _MAX_SEED:
            raise StructuralError("seed must be an unsigned 64-bit integer")
        self._assign(n_states, n_props, n_obs, max_spectrum, seed)


# The generator builds index tables, n = len(space) being the zero state,
# valid by construction, so `core._checked_map` wraps them unchecked.
def _shuffled(bits, seq: Sequence) -> list:
    """`rng.sample(seq, len(seq))` with `bits = rng.getrandbits`: the same
    draws on Python 3.10 to 3.13 (tests/test_generator.py).  This is
    `sample`'s pool loop, a Fisher-Yates shuffle: each step picks a member
    with `choice`'s draws and moves the last unpicked one into its place."""
    pool = list(seq)
    out = []
    for top in range(len(pool) - 1, -1, -1):
        k = (top + 1).bit_length()
        r = bits(k)
        while r > top:
            r = bits(k)
        out.append(pool[r])
        pool[r] = pool[top]
    return out


# Bit strings' digits "0" and "1" as the bytes 0 and 1, for `compress`.
_BIT_FLAGS = bytes.maketrans(b"01", b"\0\1")


def _states(mask: int, n: int) -> list[int]:
    """The states whose bits are set in `mask`, a mask below `1 << n`, in
    increasing order: C calls only, with no big-int shift per state."""
    return list(compress(range(n), format(mask, f"0{n}b").encode()[::-1].translate(_BIT_FLAGS)))


def _random_proposition(rng: random.Random, space: core.StateSpace, name: str) -> tuple[core.Proposition, int, int]:
    """A proposition with two bitmasks of its yes map: `image`, its
    yes-eigenstates, which are also its fixed points, and `support`, the
    proper states it does not send to zero."""
    # Partition states: yes-eigen (draw below 0.4), no-eigen (below 0.8)
    # and contingent.  Contingent states map into the eigen groups, so both
    # outcome maps are idempotent and mutually annihilating by construction.
    n = len(space)
    draw, bits = rng.random, rng.getrandbits
    draws = [draw() for _ in range(n)]
    if min(draws) >= 0.8:
        draws[rng.choice(range(n))] = rng.choice((0.0, 0.4))
    yes, no = [n] * (n + 1), [n] * (n + 1)
    yes_eigen, no_eigen, contingent = [], [], []
    for i, r in enumerate(draws):
        if r < 0.4:
            yes[i] = i
            yes_eigen.append(i)
        elif r < 0.8:
            no[i] = i
            no_eigen.append(i)
        else:
            contingent.append(i)
    # Each pick is `rng.choice` inline, the same draws with no Python call
    # per pick.
    n_yes, n_no = len(yes_eigen), len(no_eigen)
    k_yes, k_no = n_yes.bit_length(), n_no.bit_length()
    for i in contingent:
        if n_yes:
            r = bits(k_yes)
            while r >= n_yes:
                r = bits(k_yes)
            yes[i] = yes_eigen[r]
        if n_no:
            r = bits(k_no)
            while r >= n_no:
                r = bits(k_no)
            no[i] = no_eigen[r]
    image = sum(map((1).__lshift__, yes_eigen))
    # Yes sends the no-eigen states to zero, and the contingent ones too
    # when it has no eigenstate to send them to.
    support = ((1 << n) - 1) ^ sum(map((1).__lshift__, no_eigen)) if n_yes else 0
    return core.Proposition(name, core._checked_map(space, yes), core._checked_map(space, no)), image, support


def _remainder_proposition(
    rng: random.Random,
    space: core.StateSpace,
    name: str,
    covered: int,
    kill: int,
) -> core.Proposition:
    # Yes fixes every state outside `covered`, the states some selected
    # branch's yes does not send to zero, and is impossible on `kill`, the
    # yes-eigen states of those branches (a subset of `covered`); the other
    # covered states are contingent.  Keeps the family exclusive and makes
    # it complete.
    n = len(space)
    uncovered = _states(((1 << n) - 1) ^ covered, n)
    kill_list = _states(kill, n)
    yes, no = [n] * (n + 1), [n] * (n + 1)
    for i in uncovered:
        yes[i] = i
    for i in kill_list:
        no[i] = i
    # Each pick is `rng.choice` inline, as in `_random_proposition`.  Neither
    # list is empty here: some state is uncovered, and a covered state is
    # in the support of a branch with yes-eigenstates.
    draw, bits = rng.random, rng.getrandbits
    n_up, n_kill = len(uncovered), len(kill_list)
    k_up, k_kill = n_up.bit_length(), n_kill.bit_length()
    for i in _states(covered ^ kill, n):
        if draw() < 0.5:
            r = bits(k_up)
            while r >= n_up:
                r = bits(k_up)
            yes[i] = uncovered[r]
        r = bits(k_kill)
        while r >= n_kill:
            r = bits(k_kill)
        no[i] = kill_list[r]
    return core.Proposition(name, core._checked_map(space, yes), core._checked_map(space, no))


def _random_observable(
    rng: random.Random,
    space: core.StateSpace,
    name: str,
    pool: list[tuple[core.Proposition, int, int]],
    max_spectrum: int,
) -> core.Observable:
    """An observable over branches from `pool`, the `_random_proposition`
    triples, padded with a remainder branch where they leave states uncovered."""
    target = rng.randint(2, max_spectrum)
    chosen: list[core.Proposition] = []
    kill = covered = 0  # the ORs of the chosen branches' images and supports
    # The whole permutation is drawn, as `rng.sample` drew it, though the
    # loop may stop early: later draws follow from the generator's state.
    for p, image, support in _shuffled(rng.getrandbits, pool):
        if len(chosen) >= target - 1:
            break
        # Two yes maps annihilate exactly when neither one's image
        # meets the other's support.
        if not (image & covered or support & kill):
            chosen.append(p)
            kill |= image
            covered |= support
    if covered != (1 << len(space)) - 1:
        chosen.append(_remainder_proposition(rng, space, f"{name}rest", covered, kill))
    spectrum = tuple(f"v{i}" for i in range(len(chosen)))
    return core.Observable(name, spectrum, {f"v{i}": p for i, p in enumerate(chosen)})


def _draw_model(rng: random.Random, space: core.StateSpace, n_props: int, n_obs: int, max_spectrum: int) -> core.Model:
    """The generator's model over any space.  It draws the propositions, then the observables, and holds
    those propositions followed by the observables' remainder branches."""
    pool = [_random_proposition(rng, space, f"P{k}") for k in range(n_props)]
    observables = [_random_observable(rng, space, f"A{j}", pool, max_spectrum) for j in range(n_obs)]
    members = {p.name: p for p, _, _ in pool} | {p.name: p for a in observables for p in a.family.values()}
    return core.Model.build(space, members.values(), observables)


@cache
def _space(n_states: int) -> core.StateSpace:
    """The generator's space of `n_states` states, one shared object per
    size (`GeneratorParams` allows 64 sizes)."""
    return core.StateSpace(tuple(f"s{i}" for i in range(n_states)))


def generate_model(params: GeneratorParams) -> core.Model:
    """Deterministic pseudo-random valid model for the given parameters."""
    space = _space(params.n_states)
    return _draw_model(random.Random(params.seed), space, params.n_props, params.n_obs, params.max_spectrum)


# ---------------------------------------------------------------------------
# Law checking


def check_laws(model: core.Model) -> list[Violation]:
    """Re-verify every supported law against the model, from scratch.

    Covers the pointwise proposition laws, composition with the builtin
    ONE and ZERO, the conjunction identity with ONE, observable exclusion
    and completeness, and three theorems about observable pairs.  The
    conjunction of a proposition with its own negation is the annihilation
    composite, so it is reported under "P·negP=0".

    The pair laws are theorems about compatible pairs, so each goes only
    to the pairs that `core._compatible` accepts, the pairs `core.pair_class`
    calls compatible; no witness is built for the others.

    "0P=P0=0" is evaluated only when ZERO's yes map is not constant zero,
    and "1P=P1=P" and "1ANDP=P" only when ONE's is not the identity: every
    map fixes the zero index, so against those builtin maps the three laws
    have no witness, and skipping them loses no report.
    """
    one = model.propositions.get("ONE")
    zero = model.propositions.get("ZERO")
    prop_laws = (core.idempotent_maps, core.negation_annihilates, core.consistency)
    if zero is not None and zero.yes != core.constant_zero_map(model.space):
        prop_laws += (partial(core.zero_absorbs, zero),)
    if one is not None and one.yes != core.identity_map(model.space):
        prop_laws += (partial(core.one_is_identity, one), partial(core.one_and_is_identity, one))
    out = [v for name in sorted(model.propositions) for law in prop_laws for v in law(model.propositions[name])]
    observables = [model.observables[name] for name in sorted(model.observables)]
    out += [v for a in observables for law in core.OBSERVABLE_LAWS for v in law(a)]
    for i, a in enumerate(observables):
        for b in observables[i:]:
            if core._compatible(a, b):
                out.extend(v for law in core.PAIR_LAWS for v in law(a, b))
    return out


# ---------------------------------------------------------------------------
# Fuzzing


class FuzzCounterexample(core._Record):
    """First failure seen for one law, with a minimized model."""

    __slots__ = _fields = ("law", "seed", "violation", "model")

    def __init__(self, law: str, seed: int, violation: Violation, model: core.Model):
        self._assign(law, seed, violation, model)


class FuzzSummary(core._Record):
    __slots__ = _fields = ("params", "n_models", "n_violations", "first_by_law")

    def __init__(
        self, params: GeneratorParams, n_models: int, n_violations: int, first_by_law: dict[str, FuzzCounterexample]
    ):
        self._assign(params, n_models, n_violations, dict(first_by_law))


def minimize_counterexample(model: core.Model, violation: Violation) -> core.Model:
    """Shrink a model to the reachable closure of the violation's witnesses."""
    seeds = [w for w in violation.witness if w in model.space]
    if not seeds:
        return model
    return core.reachable_submodel(model, seeds)


def fuzz(params: GeneratorParams, n_models: int) -> FuzzSummary:
    """Generate models from consecutive seeds and law-check each one."""
    if n_models < 0:
        raise StructuralError("n_models must be non-negative")
    first: dict[str, FuzzCounterexample] = {}
    total = 0
    for i in range(n_models):
        seed = (params.seed + i) % _MAX_SEED
        run = GeneratorParams(params.n_states, params.n_props, params.n_obs, params.max_spectrum, seed)
        model = generate_model(run)
        violations = check_laws(model)
        total += len(violations)
        for v in violations:
            if v.law not in first:
                first[v.law] = FuzzCounterexample(v.law, run.seed, v, minimize_counterexample(model, v))
    return FuzzSummary(params, n_models, total, first)
