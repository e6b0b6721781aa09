#!/usr/bin/env python3
"""Capture bench/goldens.json from the program as it is now.

    python3 bench/make_goldens.py

Run from the checkout root, only at a commit whose outputs are the
reference: every later run of the benchmark counts an op whose output
differs from these goldens as failed.  Quantum documents enter the pool
only when they build without violations, fall in the orbit size range,
and give the same model with the tolerance moved by a relative 1e-3, so
that rounding differences between machines cannot flip a state merge.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import gen
import workloads
from workloads import ROOT, SRC, cli_argv, cli_observation, digest, docs_digest, docs_op, fuzz_digest

# Orbit sizes kept for quantum-build; bigger orbits take seconds per op.
ORBIT_STATES = (60, 300)

# Relative tolerance shifts under which a quantum document must build the same model.
TOL_SHIFTS = (1 - 1e-3, 1 + 1e-3)


def capture_cli() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    workloads.write_malformed()
    out = {}
    for key, argv in gen.CLI_COMMANDS:
        seen = []
        # The fuzz seed changes per run; the golden may not.
        for fuzz_seed in ("0", "1") if "{fuzz_seed}" in argv else ("0",):
            filled = cli_argv(argv, fuzz_seed)
            proc = subprocess.run([sys.executable, "-m", "gqt", *filled], env=env, cwd=ROOT, capture_output=True)
            seen.append(cli_observation(filled, (proc.returncode, proc.stdout)))
        if any(s != seen[0] for s in seen):
            raise SystemExit(f"{key}: output depends on the fuzz seed: {seen}")
        out[key] = seen[0]
    return out


def capture_fuzz(core, modelio) -> list:
    from gqt import checker

    digests = []
    for n in gen.MODEL_STATES:
        digests.append([])
        _, n_props, n_obs, max_spectrum = gen.model_params(n)
        for index in range(gen.MODEL_POOL):
            params = checker.GeneratorParams(n, n_props, n_obs, max_spectrum, gen.fuzz_seed(n, index))
            if checker.fuzz(params, 1).n_violations:
                raise SystemExit(f"fuzz model {n}:{index} breaks a law")
            digests[-1].append(fuzz_digest(checker, modelio, params))
    return digests


def capture_docs(core, modelio) -> list:
    docs = []
    for n in gen.MODEL_STATES:
        docs.append([])
        for index in range(gen.MODEL_POOL):
            text = gen.model_document(n, index)
            out = docs_op(core, modelio, text)
            if out[-1] != text:
                raise SystemExit(f"model document {n}:{index} does not round-trip")
            docs[-1].append(docs_digest(out))
    return docs


def capture_quantum(core, modelio) -> list:
    from gqt import quantum

    entries = []
    for index in range(gen.QUANTUM_POOL):
        doc = modelio.parse_quantum(gen.quantum_document(index))
        if quantum.family_violations(doc):
            continue
        try:
            model = quantum.document_model(doc, cap=ORBIT_STATES[1])
        except quantum.OrbitCapExceeded:
            continue
        text = modelio.serialize_model(model)
        n = len(model.space)
        if n < ORBIT_STATES[0] or core.validate_model(model):
            continue
        if any(modelio.serialize_model(quantum.document_model(doc, tol=doc.tolerance * k)) != text for k in TOL_SHIFTS):
            continue
        entries.append([index, n, digest(text)])
    return entries


def main() -> None:
    t0 = time.perf_counter()
    core, modelio = workloads.import_gqt()
    goldens = {
        "cli-cold": capture_cli(),
        "fuzz": capture_fuzz(core, modelio),
        "model-docs": capture_docs(core, modelio),
        "quantum-build": capture_quantum(core, modelio),
    }
    workloads.GOLDENS.write_text(json.dumps(goldens, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {workloads.GOLDENS} ({len(goldens['quantum-build'])} quantum documents) in {time.perf_counter() - t0:.1f}s")


if __name__ == "__main__":
    main()
