"""The seeded generator's exact output and the shortcuts it takes.

`golden/generate_model.json` holds the sha256 of
`serialize_model(generate_model(p))` for every parameter set of a grid,
so any change to the random draws or to how they become tables fails
here, not only in the benchmark's goldens.  The generator's two
shortcuts are checked against what they stand for: its picks against
`random.Random.choice`, and its unchecked maps against `core.PropMap`.

To regenerate after an intended change of the generator's output, from
the repository root:
    PYTHONPATH=src python3 tests/test_generator.py
"""

import hashlib
import itertools
import json
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
def test_pick_makes_the_draws_of_choice(seed):
    # A Python whose `Random.choice` draws differently fails here, not
    # only in the goldens.
    ours, theirs = random.Random(seed), random.Random(seed)
    for m in range(1, 301):
        seq = list(range(m))
        for _ in range(3):
            assert checker._pick(ours.getrandbits, seq) == theirs.choice(seq), m
    assert ours.getstate() == theirs.getstate()


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


def _write_golden() -> None:
    doc = {"fields": list(FIELDS), "sha256": _hashes()}
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(_write_golden())
