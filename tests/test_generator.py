"""The seeded generator's exact output and the shortcuts it takes.

`golden/generate_model.json` holds the sha256 of
`serialize_model(generate_model(p))` for every parameter set of a grid,
so any change to the random draws or to how they become tables fails
here, not only in the benchmark's goldens; they also pin its inline
`random.Random.choice` picks.  The generator's other shortcuts are
checked against what they stand for: its pool order against
`random.Random.sample`, its unchecked maps against `core.PropMap`, its
shared state spaces against fresh ones, and its branch bitmasks against
the law predicate and tables they replace.  `Observable`'s eigenvalue
table, which an observable builds on its first read, is checked against
its definition, and the law check is held to reading it only for
compatible pairs.

To regenerate after an intended change of the generator's output, from
the repository root:
    PYTHONPATH=src python3 tests/test_generator.py
"""

import hashlib
import itertools
import json
import pickle
import random
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from gqt import checker, core, modelio
from gqt.checker import GeneratorParams

GOLDEN = Path(__file__).resolve().parent / "golden" / "generate_model.json"
FIELDS = ("n_states", "n_props", "n_obs", "max_spectrum", "seed")
GRID = {
    "n_states": (1, 2, 7, 8, 33, 63, 64),
    "n_props": (0, 1, 16),
    "n_obs": (0, 1, 8),
    "max_spectrum": (2, 8),
    "seed": (0, 1, 2**64 - 1),
}


def _hashes() -> dict[str, str]:
    out = {}
    for values in itertools.product(*(GRID[f] for f in FIELDS)):
        text = modelio.serialize_model(checker.generate_model(GeneratorParams(*values)))
        out[" ".join(map(str, values))] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return out


def test_generator_output_matches_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert golden["fields"] == list(FIELDS)
    got = _hashes()
    assert sorted(got) == sorted(golden["sha256"])
    assert [k for k in got if got[k] != golden["sha256"][k]] == []


@pytest.mark.parametrize("seed", [0, 1, 12345, 2**64 - 1])
def test_shuffled_makes_the_draws_of_sample(seed):
    ours, theirs = random.Random(seed), random.Random(seed)
    for m in range(17):
        pool = [f"P{k}" for k in range(m)]
        for _ in range(20):
            assert checker._shuffled(ours.getrandbits, pool) == theirs.sample(pool, len(pool)), m
            assert ours.getstate() == theirs.getstate(), m


def test_models_of_one_size_share_one_space():
    for n in (1, 8, 64):
        a, b = (checker.generate_model(GeneratorParams(n, 4, 2, seed=seed)) for seed in (0, 1))
        assert a.space is b.space
        assert a.space == core.StateSpace(tuple(f"s{i}" for i in range(n)))
        assert all(p.space is a.space for p in b.propositions.values())


@settings(max_examples=60, deadline=None)
@given(
    st.builds(
        GeneratorParams,
        st.integers(1, 64),
        st.integers(0, 16),
        st.integers(0, 8),
        st.integers(2, 8),
        st.integers(0, 2**64 - 1),
    )
)
def test_generated_maps_pass_the_checks_they_skip(params):
    model = checker.generate_model(params)
    for p in model.propositions.values():
        for m in (p.yes, p.no):
            assert m == core.PropMap(model.space, m.table)
            assert type(m.table) is bytes


def _greedy_branches(rng: random.Random, pool, max_spectrum: int) -> list[core.Proposition]:
    """The branches `_random_observable` should choose, by the law predicate."""
    target = rng.randint(2, max_spectrum)
    chosen = []
    for p, _, _ in rng.sample(pool, len(pool)):
        if len(chosen) >= target - 1:
            break
        if all(not core.unannihilated(p.yes, q.yes) for q in chosen):
            chosen.append(p)
    return chosen


def _fixed_points(m: core.PropMap) -> list[int]:
    return [i for i, w in zip(range(len(m.space)), m.table) if i == w]


# 256 and 300 states have tuple tables.
@pytest.mark.parametrize("n", [1, 8, 64, 255, 256, 300])
def test_branch_masks_agree_with_the_laws(n):
    space = core.StateSpace(tuple(f"s{i}" for i in range(n)))
    full = (1 << n) - 1
    for seed in range(3):
        rng = random.Random(seed)
        pool = [checker._random_proposition(rng, space, f"P{k}") for k in range(16)]
        for p, image, support in pool:
            assert checker._states(image, n) == _fixed_points(p.yes)
            assert checker._states(support, n) == [i for i in range(n) if p.yes.table[i] != n]
        for (p, ip, sp), (q, iq, sq) in itertools.combinations(pool, 2):
            assert (not (ip & sq or sp & iq)) == (not core.unannihilated(p.yes, q.yes))
        for k in range(len(pool) + 1):
            covered = kill = 0
            for _, image, support in pool[:k]:
                covered |= support
                kill |= image
            zeroed = core._zeroed_by_all([p.yes for p, _, _ in pool[:k]], space)
            assert checker._states(full ^ covered, n) == [space.index[z] for z in zeroed]
            assert checker._states(kill, n) == sorted({i for p, _, _ in pool[:k] for i in _fixed_points(p.yes)})
        # Each observable chooses the branches the law predicate does, and
        # its remainder fixes the states they all send to zero and rules
        # out their yes-eigenstates.
        for j in range(8):
            state = rng.getstate()
            a = checker._random_observable(rng, space, "A", pool, 8)
            rng_ref = random.Random()
            rng_ref.setstate(state)
            expected = _greedy_branches(rng_ref, pool, 8)
            assert [a.family[v] for v in a.spectrum[: len(expected)]] == expected
            uncovered = [space.index[z] for z in core._zeroed_by_all([p.yes for p in expected], space)]
            assert len(a.spectrum) == len(expected) + bool(uncovered)
            if uncovered:
                rest = a.family[a.spectrum[-1]]
                assert rest.name == "Arest"
                assert _fixed_points(rest.yes) == uncovered
                assert _fixed_points(rest.no) == sorted({i for p in expected for i in _fixed_points(p.yes)})


# 256 and 300 states have tuple tables.
@pytest.mark.parametrize("n", [1, 8, 255, 256, 300])
def test_eigenvalues_are_the_fixed_points_of_each_branch(n):
    space = core.StateSpace(tuple(f"s{i}" for i in range(n)))
    rng = random.Random(n)
    generated = checker._draw_model(rng, space, 16, 8, 8).observables.values()
    # Branches whose yes maps are arbitrary tables, fixed points anywhere.
    arbitrary = [
        core.Observable(
            f"B{j}",
            ("a", "b", "c"),
            {
                v: core.Proposition(
                    f"B{j}{v}",
                    core.PropMap(space, [rng.choice((i, rng.randrange(n + 1))) for i in range(n)] + [n]),
                    core.constant_zero_map(space),
                )
                for v in "abc"
            },
        )
        for j in range(4)
    ]
    for a in [*generated, *arbitrary]:
        assert a._eigenvalues is None
        table = a.eigenvalues
        assert table == _eigenvalue_definition(a)
        assert a.eigenvalues is table and a._eigenvalues is table


def _eigenvalue_definition(a: core.Observable) -> tuple:
    """The eigenvalue table from its per-state definition: entry i holds the
    values whose yes map fixes state i, and the zero slot holds none."""
    n = len(a.space)
    return (*(tuple(v for v in a.spectrum if a.family[v].yes.table[i] == i) for i in range(n)), ())


def test_the_law_check_builds_eigenvalue_tables_only_for_compatible_pairs():
    params = GeneratorParams(8, 16, 8, seed=0)
    model = checker.generate_model(params)
    # An equal model with observables of its own: `pair_class` reads the
    # tables of the pairs it finds incompatible.
    twin = checker.generate_model(params)
    names = sorted(twin.observables)
    pairs = [(twin.observables[a], twin.observables[b]) for i, a in enumerate(names) for b in names[i:]]
    paired = {x.name for a, b in pairs if core.pair_class(a, b)[0] is core.PairClass.COMPATIBLE for x in (a, b)}
    assert paired == {"A2", "A6"}
    assert checker.check_laws(model) == []
    for name in names:
        a = model.observables[name]
        if name in paired:
            assert a._eigenvalues == _eigenvalue_definition(a)
        else:
            assert a._eigenvalues is None


def test_copies_and_rebuilt_models_fill_their_own_eigenvalue_tables():
    model = checker.generate_model(GeneratorParams(8, 16, 8, seed=0))
    states = model.space.states
    copies = {
        "pickle": pickle.loads(pickle.dumps(model)),
        "rename_states": core.rename_states(model, {z: z.upper() for z in states}),
        "reachable_submodel": core.reachable_submodel(model, states),
    }
    for name, a in model.observables.items():
        table = a.eigenvalues
        for how, copy in copies.items():
            b = copy.observables[name]
            assert b is not a, how
            assert b._eigenvalues is None, how
            assert b.eigenvalues == table, how
            assert b._eigenvalues is b.eigenvalues, how


def test_an_unknown_observable_attribute_is_named():
    a = checker.generate_model(GeneratorParams(8, 16, 8, seed=0)).observables["A0"]
    with pytest.raises(AttributeError, match="^'Observable' object has no attribute 'eigenvalue'$") as caught:
        a.eigenvalue
    assert (caught.value.name, caught.value.obj) == ("eigenvalue", a)
    assert a._eigenvalues is None


def _write_golden() -> None:
    doc = {"fields": list(FIELDS), "sha256": _hashes()}
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(_write_golden())
