"""Command-line interface.

Exit codes: 0 on success with no violations, 1 when a report contains
violations or a precondition fails, 2 on usage, parse, or IO errors
(which go to stderr; reports go to stdout).  Output is deterministic:
the same command on the same input produces identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import checker, core, modelio
from .errors import GqtError, OrbitCapExceeded, StructuralError


def _violation_dict(v: core.Violation) -> dict:
    return {"law": v.law, "subjects": list(v.subjects), "witness": list(v.witness), "detail": v.detail}


def _emit_json(payload) -> None:
    print(json.dumps(payload, indent=2, ensure_ascii=False))


def _print_violations(violations, fmt: str) -> None:
    if fmt == "json":
        _emit_json({"count": len(violations), "violations": [_violation_dict(v) for v in violations]})
        return
    print(f"{len(violations)} violations")
    for v in violations:
        print(str(v))


def _load_model(path: str) -> core.Model:
    return modelio.parse_model(Path(path).read_text(encoding="utf-8"))


def cmd_validate(args) -> int:
    model = _load_model(args.model)
    violations = core.validate_model(model)
    _print_violations(violations, args.format)
    return 1 if violations else 0


def cmd_check(args) -> int:
    model = _load_model(args.model)
    violations = checker.check_laws(model)
    _print_violations(violations, args.format)
    return 1 if violations else 0


def cmd_report(args) -> int:
    model = _load_model(args.model)
    obs_names = sorted(model.observables)
    pairs = []
    for i, na in enumerate(obs_names):
        for nb in obs_names[i:]:
            cls_, ev = core.classify_pair(model.observables[na], model.observables[nb])
            pairs.append((na, nb, cls_.value, [list(t) for t in ev.common]))
    eigen = {name: core.eigenstates_of_observable(model.observables[name]) for name in obs_names}
    n_props = len(model.propositions) - len(core.RESERVED_PROPOSITION_NAMES)
    if args.format == "json":
        _emit_json(
            {
                "states": list(model.space.states),
                "propositions": sorted(n for n in model.propositions if n not in core.RESERVED_PROPOSITION_NAMES),
                "observables": obs_names,
                "pairs": [
                    {"a": na, "b": nb, "class": cls_, "common_eigenstates": common}
                    for na, nb, cls_, common in pairs
                ],
                "eigenstates": {name: [list(t) for t in eigen[name]] for name in obs_names},
            }
        )
        return 0
    print(f"states: {len(model.space)}")
    print(f"propositions: {n_props}")
    print(f"observables: {len(obs_names)}")
    print("pairs:")
    for na, nb, cls_, _ in pairs:
        print(f"  {na} vs {nb}: {cls_}")
    print("eigenstates:")
    for name in obs_names:
        entries = " ".join(f"{z}={value}" for z, value in eigen[name])
        print(f"  {name}: {entries if entries else '(none)'}")
    return 0


def cmd_eigen(args) -> int:
    model = _load_model(args.model)
    entries = core.eigenstates_of_observable(model.observable(args.observable))
    if args.format == "json":
        _emit_json({"observable": args.observable, "eigenstates": [list(t) for t in entries]})
        return 0
    for z, value in entries:
        print(f"{z} {value}")
    return 0


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


def cmd_measure(args) -> int:
    model = _load_model(args.model)
    steps = _parse_steps(args.steps)
    if args.state not in model.space:
        raise StructuralError(f"unknown state {args.state!r}")
    trajectory = []
    current: core.StateRef = args.state
    for name, value in steps:
        current = core.measure_sequence(model, current, [(name, value)])
        trajectory.append((name, value, current))
    result = current
    if args.format == "json":
        _emit_json(
            {
                "start": args.state,
                "steps": [
                    {"observable": name, "value": value, "state": None if z is core.ZERO else z}
                    for name, value, z in trajectory
                ],
                "result": None if result is core.ZERO else result,
            }
        )
        return 0
    for name, value, z in trajectory:
        print(f"step {name}={value}: {core.show_state(z)}")
    print(f"result: {core.show_state(result)}")
    return 0


def cmd_entangle(args) -> int:
    model = _load_model(args.model)
    locals_ = [s for s in args.locals.split(",") if s]
    if not locals_:
        raise StructuralError("at least one local observable is required")
    report = core.check_entanglement_preconditions(model, args.global_name, locals_)
    if report:
        if args.format == "json":
            _emit_json(
                {
                    "preconditions": [_violation_dict(v) for v in report],
                    "entangled": None,
                }
            )
        else:
            _print_violations(report, "text")
        return 1
    states = core.entangled_states(model, args.global_name, locals_)
    if args.format == "json":
        _emit_json({"preconditions": [], "entangled": states})
        return 0
    print("preconditions: ok")
    print(f"entangled states: {' '.join(states) if states else '(none)'}")
    return 0


def cmd_quantum_build(args) -> int:
    # The only command that needs numpy, so the only one that imports it.
    from . import quantum

    doc = modelio.parse_quantum(Path(args.document).read_text(encoding="utf-8"))
    violations = quantum.family_violations(doc, tol=args.tol)
    if violations:
        _print_violations(violations, "text")
        return 1
    try:
        model = quantum.document_model(doc, cap=args.cap, tol=args.tol)
    except OrbitCapExceeded as e:
        print(str(e))
        print(f"discovered: {' '.join(e.discovered)}")
        return 1
    residual = core.validate_model(model)
    if residual:
        _print_violations(residual, "text")
        return 1
    text = modelio.serialize_model(model)
    Path(args.output).write_text(text, encoding="utf-8")
    tol = quantum._effective_tol(doc, args.tol)
    cap = quantum._effective_cap(doc, args.cap)
    n_props = len(model.propositions) - len(core.RESERVED_PROPOSITION_NAMES)
    print(f"states: {len(model.space)}")
    print(f"propositions: {n_props}")
    print(f"observables: {len(model.observables)}")
    print(f"cap: {cap}")
    print(f"tolerance: {tol:.9f}")
    print(f"wrote: {args.output}")
    return 0


def cmd_fuzz(args) -> int:
    params = checker.GeneratorParams(
        n_states=args.states, n_props=args.props, n_obs=args.obs, seed=args.seed
    )
    summary = checker.fuzz(params, args.count)
    if args.format == "json":
        _emit_json(
            {
                "models": summary.n_models,
                "violations": summary.n_violations,
                "first_by_law": {
                    law: {
                        "seed": ce.seed,
                        "violation": _violation_dict(ce.violation),
                        "model": modelio.model_document(ce.model),
                    }
                    for law, ce in sorted(summary.first_by_law.items())
                },
            }
        )
    else:
        print(f"models checked: {summary.n_models}")
        print(f"violations found: {summary.n_violations}")
        for law in sorted(summary.first_by_law):
            ce = summary.first_by_law[law]
            print(f"first counterexample for {law}: seed={ce.seed} {ce.violation} "
                  f"(minimized to {len(ce.model.space)} states)")
    return 1 if summary.n_violations else 0


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("text", "json"), default="text", help="output format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gqt", description="Finite generalized-quantum models: validate, explore, and fuzz.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check one model against the proposition and observable laws")
    p.add_argument("model")
    _add_format(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("check", help="re-verify the full law catalogue against one model")
    p.add_argument("model")
    _add_format(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("report", help="summarize a model: pair classification and eigenstates")
    p.add_argument("model")
    _add_format(p)
    p.set_defaults(func=cmd_report)

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
        return args.func(args)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as e:
        print(f"error: input is not valid UTF-8: {e}", file=sys.stderr)
        return 2
    except GqtError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
