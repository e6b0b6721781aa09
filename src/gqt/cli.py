"""Command-line interface.

Each command computes its result once and returns it as an exit code, a
JSON payload and the lines of its text rendering; `main` alone writes
stdout, printing the payload for `--format json` and the lines
otherwise.  Exit codes: 0 on success with no violations, 1 when a report
contains violations or a precondition fails, 2 on usage, parse, or IO
errors, which go to stderr and leave stdout empty.  Output is
deterministic: the same command on the same input produces identical
bytes.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from pathlib import Path

from . import core, modelio
from .errors import EntanglementPreconditionError, GqtError, OrbitCapExceeded, StructuralError


def _json_value(value):
    """The JSON form of the two non-JSON values in payloads: violations and the zero state."""
    if value is core.ZERO:
        return None
    if isinstance(value, core.Violation):
        return {"law": value.law, "subjects": value.subjects, "witness": value.witness, "detail": value.detail}
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _violations(violations):
    """A violation report: exit 1 unless it is empty, its count, one line per violation."""
    lines = [f"{len(violations)} violations", *map(str, violations)]
    return (1 if violations else 0), {"count": len(violations), "violations": violations}, lines


def _load_model(path: str) -> core.Model:
    return modelio.parse_model(Path(path).read_text(encoding="utf-8"))


def cmd_validate(args):
    return _violations(core.validate_model(_load_model(args.model)))


def cmd_check(args):
    from . import checker

    return _violations(checker.check_laws(_load_model(args.model)))


def cmd_report(args):
    model = _load_model(args.model)
    obs_names = sorted(model.observables)
    pairs = []
    for i, na in enumerate(obs_names):
        for nb in obs_names[i:]:
            cls_, ev = core.classify_pair(model.observables[na], model.observables[nb])
            pairs.append({"a": na, "b": nb, "class": cls_.value, "common_eigenstates": ev.common})
    eigen = {name: core.eigenstates_of_observable(model.observables[name]) for name in obs_names}
    props = sorted(n for n in model.propositions if n not in core.RESERVED_PROPOSITION_NAMES)
    payload = {
        "states": model.space.states,
        "propositions": props,
        "observables": obs_names,
        "pairs": pairs,
        "eigenstates": eigen,
    }
    lines = [
        f"states: {len(model.space)}",
        f"propositions: {len(props)}",
        f"observables: {len(obs_names)}",
        "pairs:",
        *(f"  {p['a']} vs {p['b']}: {p['class']}" for p in pairs),
        "eigenstates:",
        *(f"  {name}: {' '.join(f'{z}={v}' for z, v in entries) or '(none)'}" for name, entries in eigen.items()),
    ]
    return 0, payload, lines


def cmd_eigen(args):
    entries = core.eigenstates_of_observable(_load_model(args.model).observable(args.observable))
    return 0, {"observable": args.observable, "eigenstates": entries}, [f"{z} {value}" for z, value in entries]


def _parse_steps(text: str) -> list[tuple[str, str]]:
    steps = []
    if not text:
        return steps
    for chunk in text.split(","):
        if "=" not in chunk:
            raise StructuralError(f"step {chunk!r} is not of the form observable=value")
        name, value = chunk.split("=", 1)
        steps.append((name, value))
    return steps


def cmd_measure(args):
    model = _load_model(args.model)
    steps = _parse_steps(args.steps)
    if args.state not in model.space:
        raise StructuralError(f"unknown state {args.state!r}")
    trajectory = []
    current: core.StateRef = args.state
    for name, value in steps:
        current = core.measure_sequence(model, current, [(name, value)])
        trajectory.append({"observable": name, "value": value, "state": current})
    lines = [f"step {s['observable']}={s['value']}: {core.show_state(s['state'])}" for s in trajectory]
    lines.append(f"result: {core.show_state(current)}")
    return 0, {"start": args.state, "steps": trajectory, "result": current}, lines


def cmd_entangle(args):
    model = _load_model(args.model)
    locals_ = [s for s in args.locals.split(",") if s]
    if not locals_:
        raise StructuralError("at least one local observable is required")
    try:
        states = core.entangled_states(model, args.global_name, locals_)
    except EntanglementPreconditionError as e:
        code, _, lines = _violations(e.report)
        return code, {"preconditions": e.report, "entangled": None}, lines
    lines = ["preconditions: ok", f"entangled states: {' '.join(states) or '(none)'}"]
    return 0, {"preconditions": [], "entangled": states}, lines


def cmd_quantum_build(args):
    text = Path(args.document).read_text(encoding="utf-8")
    # Fail as writing the output would, but before the build.
    output = Path(args.output)
    if output.is_dir():
        raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), args.output)
    if not output.parent.is_dir():
        code = errno.ENOTDIR if output.parent.exists() else errno.ENOENT
        raise OSError(code, os.strerror(code), args.output)
    # The only command that needs numpy, so the only one that imports it;
    # `check` and `fuzz` import `checker` the same way.
    from . import quantum

    doc = modelio.parse_quantum(text)
    cap, tol = quantum.settings(doc, args.cap, args.tol)
    violations = quantum.family_violations(doc, tol)
    if not violations:
        try:
            orbit = quantum.document_orbit(doc, cap, tol)
        except OrbitCapExceeded as e:
            return 1, None, [str(e), f"discovered: {' '.join(e.discovered)}"]
        model = orbit.model
        violations = core.validate_model(model)
    if violations:
        code, _, lines = _violations(violations)
        return code, None, lines
    output.write_text(modelio.serialize_model(model), encoding="utf-8")
    # Nine places where they read back as `tol` (1e-9 does), repr where not (1e-12).
    shown = f"{tol:.9f}"
    lines = [
        f"states: {len(model.space)}",
        f"propositions: {len(model.propositions) - len(core.RESERVED_PROPOSITION_NAMES)}",
        f"observables: {len(model.observables)}",
        f"cap: {cap}",
        f"tolerance: {shown if float(shown) == tol else repr(tol)}",
        f"wrote: {args.output}",
    ]
    return 0, None, lines


def cmd_fuzz(args):
    from . import checker

    params = checker.GeneratorParams(n_states=args.states, n_props=args.props, n_obs=args.obs, seed=args.seed)
    summary = checker.fuzz(params, args.count)
    first = sorted(summary.first_by_law.items())
    payload = {
        "models": summary.n_models,
        "violations": summary.n_violations,
        "first_by_law": {
            law: {"seed": ce.seed, "violation": ce.violation, "model": json.loads(modelio.serialize_model(ce.model))}
            for law, ce in first
        },
    }
    lines = [f"models checked: {summary.n_models}", f"violations found: {summary.n_violations}"]
    lines += [
        f"first counterexample for {law}: seed={ce.seed} {ce.violation} (minimized to {len(ce.model.space)} states)"
        for law, ce in first
    ]
    return (1 if summary.n_violations else 0), payload, lines


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("text", "json"), default="text", help="output format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gqt", description="Finite generalized-quantum models: validate, explore, and fuzz.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, help_ in (
        ("validate", cmd_validate, "check one model against the proposition and observable laws"),
        ("check", cmd_check, "re-verify the full law catalogue against one model"),
        ("report", cmd_report, "summarize a model: pair classification and eigenstates"),
    ):
        p = sub.add_parser(name, help=help_)
        p.add_argument("model")
        _add_format(p)
        p.set_defaults(func=func)

    p = sub.add_parser("eigen", help="list eigenstates of one observable")
    p.add_argument("model")
    p.add_argument("--observable", required=True)
    _add_format(p)
    p.set_defaults(func=cmd_eigen)

    p = sub.add_parser("measure", help="fold a measurement sequence over a start state")
    p.add_argument("model")
    p.add_argument("--state", required=True)
    p.add_argument("--steps", required=True, help="comma-separated observable=value steps")
    _add_format(p)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("entangle", help="list entangled states of a global observable")
    p.add_argument("model")
    p.add_argument("--global", dest="global_name", required=True)
    p.add_argument("--locals", required=True, help="comma-separated local observable names")
    _add_format(p)
    p.set_defaults(func=cmd_entangle)

    p = sub.add_parser("fuzz", help="generate random valid models and law-check each one")
    p.add_argument("--states", type=int, default=8)
    p.add_argument("--props", type=int, default=4)
    p.add_argument("--obs", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=100)
    _add_format(p)
    p.set_defaults(func=cmd_fuzz)

    q = sub.add_parser("quantum", help="density-matrix backend commands")
    qsub = q.add_subparsers(dest="quantum_command", required=True)
    p = qsub.add_parser("build", help="discretize a quantum document into a model via orbit closure")
    p.add_argument("document")
    p.add_argument("--cap", type=int, default=None, help="orbit size cap (default 256)")
    p.add_argument("--tol", type=float, default=None, help="numeric tolerance (default 1e-9)")
    p.add_argument("-o", "--output", required=True, help="where to write the model document")
    p.set_defaults(func=cmd_quantum_build)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        code, payload, lines = args.func(args)
        if getattr(args, "format", "text") == "json":
            print(json.dumps(payload, indent=2, ensure_ascii=False, default=_json_value))
        else:
            for line in lines:
                print(line)
        return code
    except UnicodeDecodeError as e:
        print(f"error: input is not valid UTF-8: {e}", file=sys.stderr)
        return 2
    except (OSError, GqtError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
