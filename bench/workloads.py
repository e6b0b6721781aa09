"""The benchmark workloads: inputs, the op, and its golden check.

Constructing a workload is its set-up: it imports the program, builds the
run's inputs from the seed, loads the goldens and warms up.  `run(x)` is
one op and is the only thing timed; `check(x, out)` compares the op's
output with the golden captured when the benchmark was defined, outside
the timed region.  `traced(tracer)` is a context in which `run` records
spans into the tracer.  `gauge` names the kind of host-speed gauge that
scales the workload's times (see speed.py).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import gen

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDENS = BENCH / "goldens.json"
OUT = BENCH / "out"

# One subprocess op may not take longer than this.
CLI_TIMEOUT_S = 60


def digest(data) -> str:
    """Short sha256 of a string, or of the canonical JSON of anything else."""
    if not isinstance(data, str):
        data = json.dumps(data, ensure_ascii=False, separators=(",", ":"))
    return hashlib.sha256(data.encode("utf-8")).hexdigest()[:16]


def load_goldens() -> dict:
    return json.loads(GOLDENS.read_text(encoding="utf-8"))


def import_gqt():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from gqt import core, modelio

    return core, modelio


def balanced(groups: list[list]) -> list:
    """Round-robin over groups ordered small to large, alternating ends.

    Taking the smallest group, then the largest, then the next smallest,
    and so on, keeps every prefix of a cycle close to the cycle's mix.
    A group that has run out is skipped.
    """
    k = len(groups)
    order = [i for pair in zip(range(k), range(k - 1, -1, -1)) for i in pair][:k]
    return [groups[i][r] for r in range(max(map(len, groups))) for i in order if r < len(groups[i])]


def pool_cycle(rng: random.Random, make_input) -> list:
    """`make_input(size, index)` for the whole pool, one input of each size in turn.

    Every run cycles through the same inputs; the seed only shuffles the
    order within each size.
    """
    indices = range(gen.MODEL_POOL)
    return balanced([[make_input(s, g) for g in rng.sample(indices, len(indices))] for s in range(len(gen.MODEL_STATES))])


def docs_digest(out) -> str:
    """Digest of a model-docs op's violations, pair classes and eigenstates."""
    violations, pairs, eigen, _ = out
    return digest(
        [
            [[v.law, list(v.subjects), list(v.witness), v.detail] for v in violations],
            [[c.value, [list(t) for t in ev.common]] for c, ev in pairs],
            [[list(t) for t in e] for e in eigen],
        ]
    )


def fuzz_digest(checker, modelio, params) -> str:
    """Digest of the serialized model that `params` generates."""
    return digest(modelio.serialize_model(checker.generate_model(params)))


def cli_argv(argv: list[str], fuzz_seed: str) -> list[str]:
    """A `CLI_COMMANDS` argument list with its `{fuzz_seed}` filled in."""
    return [fuzz_seed if a == "{fuzz_seed}" else a for a in argv]


def cli_observation(argv: list[str], out) -> dict:
    """Exit code, stdout sha256 and, for `-o`, the written file's sha256."""
    rc, stdout = out
    written = ROOT / argv[argv.index("-o") + 1] if "-o" in argv else None
    file_sha = hashlib.sha256(written.read_bytes()).hexdigest() if written and written.is_file() else None
    if written:
        written.unlink(missing_ok=True)
    return {"rc": rc, "stdout": hashlib.sha256(stdout).hexdigest(), "file": file_sha}


def docs_op(core, modelio, text: str):
    """Parse, validate, classify every observable pair, list eigenstates, serialize."""
    model = modelio.parse_model(text)
    violations = core.validate_model(model)
    names = sorted(model.observables)
    pairs = [
        core.classify_pair(model.observables[na], model.observables[nb]) for i, na in enumerate(names) for nb in names[i:]
    ]
    eigen = [core.eigenstates_of_observable(model.observables[name]) for name in names]
    return violations, pairs, eigen, modelio.serialize_model(model)


class ModelDocs:
    """One op: parse a model document, validate it, report on it, write it back."""

    name = "model-docs"
    gauge = "compute"

    def __init__(self, seed: int, goldens: dict):
        self.core, self.modelio = import_gqt()
        self.golden = goldens["model-docs"]
        rng = random.Random(f"model-docs:{seed}")
        sizes = range(len(gen.MODEL_STATES))
        self.inputs = pool_cycle(rng, self._input)
        # Document 3 of each size is a mutated one.
        self.count_inputs = [self._input(s, g) for s in sizes[::2] for g in (0, 3)]
        for x in self.inputs[:2]:
            self.run(x)

    @staticmethod
    def _input(size: int, index: int):
        return (size, index), gen.model_document(gen.MODEL_STATES[size], index)

    def traced(self, tracer):
        return tracer.installed({"modelio": self.modelio, "core": self.core})

    def run(self, x):
        return docs_op(self.core, self.modelio, x[1])

    def check(self, x, out) -> bool:
        (size, index), text = x
        return out[-1] == text and docs_digest(out) == self.golden[size][index]


class Fuzz:
    """One op: generate a seeded model and check its laws, via `checker.fuzz(params, 1)`."""

    name = "fuzz"
    gauge = "compute"

    def __init__(self, seed: int, goldens: dict):
        self.core, self.modelio = import_gqt()
        from gqt import checker

        self.checker = checker
        self.golden = goldens["fuzz"]
        rng = random.Random(f"fuzz:{seed}")
        sizes = range(len(gen.MODEL_STATES))
        self.inputs = pool_cycle(rng, self._input)
        self.count_inputs = [self._input(s, 0) for s in sizes[::2]]
        for x in self.inputs[:2]:
            self.run(x)

    def _input(self, size: int, index: int):
        n = gen.MODEL_STATES[size]
        _, n_props, n_obs, max_spectrum = gen.model_params(n)
        return (size, index), self.checker.GeneratorParams(n, n_props, n_obs, max_spectrum, gen.fuzz_seed(n, index))

    def traced(self, tracer):
        return tracer.installed({"checker": self.checker, "core": self.core})

    def run(self, x):
        return self.checker.fuzz(x[1], 1)

    def check(self, x, out) -> bool:
        (size, index), params = x
        golden = self.golden[size][index]
        return out.n_models == 1 and out.n_violations == 0 and fuzz_digest(self.checker, self.modelio, params) == golden


class QuantumBuild:
    """One op: the `quantum build` pipeline in process, without the file write."""

    name = "quantum-build"
    gauge = "compute"
    bands = 8

    def __init__(self, seed: int, goldens: dict):
        self.core, self.modelio = import_gqt()
        from gqt import quantum

        self.quantum = quantum
        # Golden entries are [index, orbit states, digest of the serialized model].
        # Every run cycles through the same two documents of each orbit-size
        # band, one band after another; the seed only shuffles the order
        # within a band.  Few documents, so that each one repeats often
        # enough in a run for the median of its repeats to be steady.
        entries = sorted(goldens["quantum-build"], key=lambda e: (e[1], e[0]))
        self.golden = {e[0]: e[2] for e in entries}
        n, k = len(entries), self.bands
        bands = [entries[b * n // k : (b + 1) * n // k] for b in range(k)]
        self.count_inputs = [self._input(band[0][0]) for band in bands[::2]]
        rng = random.Random(f"quantum-build:{seed}")
        chosen = [rng.sample([band[len(band) // 4], band[3 * len(band) // 4]], 2) for band in bands]
        self.inputs = [self._input(entry[0]) for entry in balanced(chosen)]
        self.run(self.inputs[0])

    @staticmethod
    def _input(index: int):
        return index, gen.quantum_document(index)

    def traced(self, tracer):
        return tracer.installed({"modelio": self.modelio, "core": self.core, "quantum": self.quantum})

    def run(self, x):
        doc = self.modelio.parse_quantum(x[1])
        family = self.quantum.family_violations(doc)
        model = self.quantum.document_model(doc)
        residual = self.core.validate_model(model)
        return family, residual, self.modelio.serialize_model(model)

    def check(self, x, out) -> bool:
        family, residual, text = out
        return not family and not residual and digest(text) == self.golden[x[0]]


def write_malformed() -> None:
    """Write the malformed document of `cli-cold` (and its directory)."""
    fixture = (ROOT / "fixtures" / "qzx.json").read_text(encoding="utf-8")
    (ROOT / gen.CLI_OUT).mkdir(parents=True, exist_ok=True)
    (ROOT / gen.CLI_MALFORMED).write_text(gen.malformed_document(fixture), encoding="utf-8")


class CliCold:
    """One op is one `python -m gqt ...` subprocess, from the checkout root."""

    name = "cli-cold"
    gauge = "start"

    def __init__(self, seed: int, goldens: dict):
        if not (SRC / "gqt").is_dir():
            raise FileNotFoundError(f"no gqt package under {SRC}")
        self.golden = goldens["cli-cold"]
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.tracer = None
        self.interpreter_ns: list[int] = []
        rng = random.Random(f"cli-cold:{seed}")
        write_malformed()
        fuzz_seed = str(rng.randrange(2**32))
        commands = [(key, cli_argv(argv, fuzz_seed)) for key, argv in gen.CLI_COMMANDS]
        self.count_inputs = commands
        start = rng.randrange(len(commands))
        self.inputs = commands[start:] + commands[:start]
        self.trace_file = OUT / "child-trace.json"
        warm = commands[0]
        if not self.check(warm, self.run(warm)):
            raise RuntimeError(f"warm-up command {warm[1]} did not match its golden")

    @contextlib.contextmanager
    def traced(self, tracer):
        t0 = time.perf_counter_ns()
        subprocess.run([sys.executable, "-c", "pass"], env=self.env, cwd=ROOT, check=True, timeout=CLI_TIMEOUT_S)
        self.interpreter_ns.append(time.perf_counter_ns() - t0)
        self.tracer = tracer
        try:
            yield
        finally:
            self.tracer = None

    def run(self, x):
        if self.tracer is None:
            cmd = [sys.executable, "-m", "gqt", *x[1]]
        else:
            cmd = [sys.executable, str(BENCH / "child.py"), str(self.trace_file), *x[1]]
        proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True, timeout=CLI_TIMEOUT_S)
        if self.tracer is not None:
            spans = json.loads(self.trace_file.read_text(encoding="utf-8"))
            self.trace_file.unlink()
            self.tracer.adopt(spans, self.tracer.current)
        return proc.returncode, proc.stdout

    def check(self, x, out) -> bool:
        return cli_observation(x[1], out) == self.golden[x[0]]


WORKLOADS = {w.name: w for w in (CliCold, Fuzz, ModelDocs, QuantumBuild)}
