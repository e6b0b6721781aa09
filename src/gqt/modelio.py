"""JSON documents for models and quantum systems.

Model documents are fully explicit: every proposition map lists every
proper state exactly once, with ``null`` marking the zero state, so a
forgotten entry is a parse error rather than a silent default.  The
builtin propositions ONE and ZERO are implicit and may not be redefined.
Serialization is canonical (fixed key order, sorted names, two-space
indent, trailing newline), so equal models produce identical bytes.  The
writer emits that fixed shape directly, quoting each name once with the
C quoting function behind ``json.dumps(..., ensure_ascii=False)`` and
writing each map with one join over a template made once per document;
it is the one writer of the format, and the tests hold it byte for byte
to ``json.dumps(..., indent=2, ensure_ascii=False) + "\n"`` of a dict
they build from the model themselves.  A string with an unpaired
surrogate escape is a parse error, since no file or terminal can take it.
So is an object that repeats a key, whose meaning JSON leaves open.  A
model document is decoded without a check per object and kept when its
parsed entries number as many as the colons in its text; any other model
document is decoded with the check (see `parse_model`).

Quantum documents carry complex matrices as nested arrays of ``[re, im]``
pairs; a depth-2 array is a ket ``v`` standing for the density matrix
``v v†``, a depth-3 array is a matrix.  They hold a few objects each, so
they are always decoded with the check, and their projectors may not be
named ONE or ZERO either.  Only the two helpers that build those arrays
import numpy, so parsing and writing model documents never loads it.
"""

from __future__ import annotations

import cmath
import json
import sys
from json.encoder import encode_basestring as _quote
from typing import TYPE_CHECKING, Mapping, Optional

from . import core
from .errors import StructuralError

if TYPE_CHECKING:
    import numpy as np


def _fail(path: str, message: str):
    raise StructuralError(f"{path}: {message}")


def _reject_duplicate_keys(pairs):
    d = dict(pairs)
    if len(d) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise StructuralError(f"duplicate key {key!r}")
            seen.add(key)
    return d


def _reject_lone_surrogates(data) -> None:
    """Fail at the first string, in document order, holding a surrogate
    that no escape pairs up (a valid pair decodes to one character)."""
    # Entries are (path, value, is_key); a key is checked before its value.
    stack = [("$", data, False)]
    while stack:
        path, value, is_key = stack.pop()
        if isinstance(value, str):
            try:
                value.encode("utf-8")
            except UnicodeEncodeError:
                _fail(path, f"key {value!r} holds an unpaired surrogate" if is_key else "unpaired surrogate in string")
        elif isinstance(value, dict):
            for key, item in reversed(value.items()):
                stack.append((key if path == "$" else f"{path}.{key}", item, False))
                stack.append((path, key, True))
        elif isinstance(value, list):
            stack.extend((f"{path}[{i}]", item, False) for i, item in reversed(list(enumerate(value))))


def _load_json(text: str):
    try:
        data = json.loads(text, object_pairs_hook=_reject_duplicate_keys)
    except json.JSONDecodeError as e:
        raise StructuralError(f"not valid JSON: line {e.lineno} column {e.colno}: {e.msg}") from None
    except RecursionError:
        raise StructuralError("not valid JSON: nested too deeply") from None
    except StructuralError:
        raise
    except ValueError:
        # The decoder's one other error: an integer past Python's digit limit.
        raise StructuralError("not valid JSON: an integer has too many digits") from None
    # Text decoded from UTF-8 holds a surrogate only through a \u escape,
    # so text without one skips the walk.
    if _has_u_escape(text):
        _reject_lone_surrogates(data)
    return data


def _has_u_escape(text: str) -> bool:
    # A search for one character is a memchr; for two, a slower scan.
    return "\\" in text and "\\u" in text


def _require_object(value, path: str) -> dict:
    if not isinstance(value, dict):
        _fail(path, "must be a JSON object")
    return value


def _require_string_list(value, path: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
        _fail(path, "must be an array of strings")
    return value


def _proposition_path(name: str) -> str:
    """The path of proposition `name`, failing there if it names a builtin."""
    path = f"propositions.{name}"
    if name in core.RESERVED_PROPOSITION_NAMES:
        _fail(path, f"{name} is a builtin proposition and cannot be redefined")
    return path


def _check_keys(obj: dict, allowed: tuple[str, ...], required: tuple[str, ...], path: str):
    unknown = obj.keys() - set(allowed)
    if unknown:
        _fail(path, f"unknown key(s) {sorted(unknown)}")
    missing = [k for k in required if k not in obj]
    if missing:
        _fail(path, f"missing required key(s) {missing}")


# ---------------------------------------------------------------------------
# Model documents


def _parse_map(obj, space: core.StateSpace, path: str) -> core.PropMap:
    index = space.index
    n = len(space)
    # A map with n entries that holds every state is over exactly the
    # states and needs one lookup per entry.  Anything else (a missing
    # state, an unknown, non-string or unhashable target) is named by the scan.
    if isinstance(obj, dict) and len(obj) == n:
        try:
            return core._checked_map(space, (*[n if (t := obj[z]) is None else index[t] for z in space.states], n))
        except (KeyError, TypeError):
            pass
    # The scan: fail at the first error in document order.
    if not isinstance(obj, dict):
        _fail(path, "must be an object mapping every state to a state or null")
    for state, target in obj.items():
        if state not in index:
            _fail(f"{path}.{state}", f"unknown state {state!r}")
        if isinstance(target, str):
            if target not in index:
                _fail(f"{path}.{state}", f"unknown state {target!r}")
        elif target is not None:
            _fail(f"{path}.{state}", "map values must be state names or null")
    missing = [s for s in space.states if s not in obj]
    _fail(path, f"missing entries for state(s) {missing}; maps must be total")


def _parse_partition(obj, path: str) -> core.Partition:
    _require_object(obj, path)
    _check_keys(obj, ("subsystems", "local", "global"), ("subsystems", "local", "global"), path)
    subsystems = _require_string_list(obj["subsystems"], f"{path}.subsystems")
    local = _require_object(obj["local"], f"{path}.local")
    for name, target in local.items():
        if not isinstance(target, str):
            _fail(f"{path}.local.{name}", "subsystem tag must be a string")
    global_tags = _require_string_list(obj["global"], f"{path}.global")
    try:
        return core.Partition(tuple(subsystems), dict(local), tuple(global_tags))
    except StructuralError as e:
        _fail(path, str(e))


def _parse_observables(data: dict, refs: Mapping, kind: str, make) -> list:
    """The `observables` section of either document kind: each family entry
    names a `kind` in `refs`, and `make(name, spectrum, family)` builds one."""
    observables = []
    obs_raw = _require_object(data.get("observables", {}), "observables")
    for name, body in obs_raw.items():
        path = f"observables.{name}"
        _require_object(body, path)
        _check_keys(body, ("spectrum", "family"), ("spectrum", "family"), path)
        spectrum = _require_string_list(body["spectrum"], f"{path}.spectrum")
        family_raw = _require_object(body["family"], f"{path}.family")
        family = {}
        for value, ref in family_raw.items():
            if not isinstance(ref, str):
                _fail(f"{path}.family.{value}", "family entries must name propositions")
            if ref not in refs:
                _fail(f"{path}.family.{value}", f"unknown {kind} {ref!r}")
            family[value] = refs[ref]
        try:
            observables.append(make(name, tuple(spectrum), family))
        except StructuralError as e:
            _fail(path, str(e))
    return observables


def parse_model(text: str) -> core.Model:
    """Parse a model document; structural problems raise with field context.

    Only structure is checked here.  A parseable model can still break
    the laws; run `core.validate_model` for that.
    """
    # `_build_model(_load_json(text))`, decoding without the duplicate-key
    # hook wherever a count proves that the hook would refuse nothing.  In
    # JSON text every key is followed by exactly one structural colon, so
    # `text.count(":")` bounds the key tokens from above; a colon inside a
    # string only adds to the count.  A decoded object holds as many entries
    # as it has key tokens, or fewer exactly when it repeats a key.  Once
    # `_build_model` has accepted the data, `_model_entries` gives the
    # entries of all its objects in closed form.  Entries <= key tokens <=
    # colons, so equality proves that no object repeated a key, and the hook
    # would have decoded the same data.
    #
    # Any other document is decoded again by `_load_json`, which stays the
    # one place that names a repeated key, a decode error or a lone
    # surrogate; so every message, and which error wins, is the hook's.
    # When it returns, no key repeated and its data equals the plain decode,
    # so the first build stands: its result is returned, or its error
    # raised.  A document with a `\u` escape is decoded with the hook only.
    if not _has_u_escape(text):
        try:
            data = json.loads(text)
        except (ValueError, RecursionError):
            pass  # `_load_json` fails too, with the message to give
        else:
            try:
                result = _build_model(data)
            except Exception as e:
                error = e
            else:
                if _model_entries(data) == text.count(":"):
                    return result
                error = None
            # Raised here, not in the handler, so no error chains to another.
            _load_json(text)
            if error is not None:
                raise error
            return result
    return _build_model(_load_json(text))


def _model_entries(data: dict) -> int:
    """The object entries of a document `_build_model` has accepted: per
    proposition its key, `yes`, `no` and one per state in each map; per
    observable its key, `spectrum`, `family` and one per spectrum value;
    for a partition its three keys and its `local` entries."""
    total = len(data) + (3 + 2 * len(data["states"])) * len(data.get("propositions", {}))
    total += sum(3 + len(body["family"]) for body in data.get("observables", {}).values())
    if "partition" in data:
        total += 3 + len(data["partition"]["local"])
    return total


def _build_model(data) -> core.Model:
    _require_object(data, "$")
    _check_keys(data, ("states", "propositions", "observables", "partition"), ("states",), "$")
    try:
        space = core.StateSpace(tuple(_require_string_list(data["states"], "states")))
    except StructuralError as e:
        _fail("states", str(e))

    # One ONE and one ZERO, which observables name too; no key repeats or is a builtin.
    props = {"ONE": core.make_one(space), "ZERO": core.make_zero(space)}
    props_raw = _require_object(data.get("propositions", {}), "propositions")
    for name, body in props_raw.items():
        path = _proposition_path(name)
        _require_object(body, path)
        _check_keys(body, ("yes", "no"), ("yes", "no"), path)
        yes = _parse_map(body["yes"], space, f"{path}.yes")
        no = _parse_map(body["no"], space, f"{path}.no")
        props[name] = core.Proposition(name, yes, no)

    observables = {o.name: o for o in _parse_observables(data, props, "proposition", core.Observable)}

    partition = None
    if "partition" in data:
        partition = _parse_partition(data["partition"], "partition")

    return core.Model(space, props, observables, partition)


def _container(members: list[str], pad: str, brackets: str) -> str:
    """A JSON object or array whose closing bracket sits at indent `pad`;
    `members` come indented one level deeper, as `json.dumps` lays them out."""
    if not members:
        return brackets
    return f"{brackets[0]}\n" + ",\n".join(members) + f"\n{pad}{brackets[1]}"


def serialize_model(model: core.Model) -> str:
    """Canonical JSON for a model: the model document at indent 2 plus a
    newline; equal models give identical bytes."""
    refs = [_quote(z) for z in model.space.states]
    states = [f"    {z}" for z in refs]
    n = len(refs)
    # A map's text: the key lines in the even slots, its targets in the odd.
    parts = [line for z in refs for line in (f",\n        {z}: ", "")] + ["\n      }"]
    parts[0] = "{" + parts[0][1:]
    refs.append("null")

    def map_obj(m: core.PropMap) -> str:
        parts[1::2] = map(refs.__getitem__, m.table[:n])
        return "".join(parts)

    propositions = [
        f'    {_quote(name)}: {{\n      "yes": {map_obj(p.yes)},\n      "no": {map_obj(p.no)}\n    }}'
        for name, p in sorted(model.propositions.items())
        if name not in core.RESERVED_PROPOSITION_NAMES
    ]
    observables = []
    for name, o in sorted(model.observables.items()):
        values = [_quote(v) for v in o.spectrum]
        spectrum = _container([f"        {v}" for v in values], "      ", "[]")
        family = _container(
            [f"        {v}: {_quote(o.family[value].name)}" for v, value in zip(values, o.spectrum)], "      ", "{}"
        )
        observables.append(f'    {_quote(name)}: {{\n      "spectrum": {spectrum},\n      "family": {family}\n    }}')
    members = [
        f'  "states": {_container(states, "  ", "[]")}',
        f'  "propositions": {_container(propositions, "  ", "{}")}',
        f'  "observables": {_container(observables, "  ", "{}")}',
    ]
    if model.partition is not None:
        part = model.partition
        subsystems = [f"      {_quote(s)}" for s in sorted(part.subsystems)]
        local = [f"      {_quote(name)}: {_quote(part.local_tags[name])}" for name in sorted(part.local_tags)]
        global_tags = [f"      {_quote(name)}" for name in sorted(part.global_tags)]
        partition = [
            f'    "subsystems": {_container(subsystems, "    ", "[]")}',
            f'    "local": {_container(local, "    ", "{}")}',
            f'    "global": {_container(global_tags, "    ", "[]")}',
        ]
        members.append(f'  "partition": {_container(partition, "  ", "{}")}')
    return _container(members, "", "{}") + "\n"


# ---------------------------------------------------------------------------
# Quantum documents


class ObservableSpec(core._Record):
    """Observable declaration: spectrum values naming projectors."""

    __slots__ = _fields = ("name", "spectrum", "family")

    def __init__(self, name: str, spectrum: tuple[str, ...], family: Mapping[str, str]):
        family = dict(family)
        core.check_spectrum(name, spectrum, family)
        self._assign(name, spectrum, family)


class QuantumDocument(core._Record):
    """Parsed quantum system: seeds, projectors, observables, knobs."""

    __slots__ = _fields = ("dimension", "seeds", "propositions", "observables", "cap", "tolerance", "partition")

    def __init__(
        self,
        dimension: int,
        seeds: tuple[tuple[str, np.ndarray], ...],
        propositions: tuple[tuple[str, np.ndarray], ...],
        observables: tuple[ObservableSpec, ...],
        cap: Optional[int] = None,
        tolerance: Optional[float] = None,
        partition: Optional[core.Partition] = None,
    ):
        self._assign(dimension, seeds, propositions, observables, cap, tolerance, partition)

    @staticmethod
    def _key(d):
        seeds, props = (tuple((name, core.array_key(m)) for name, m in pairs) for pairs in (d.seeds, d.propositions))
        return d.dimension, seeds, props, d.observables, d.cap, d.tolerance, d.partition


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _parse_complex(entry, path: str) -> complex:
    if not isinstance(entry, list) or len(entry) != 2 or not all(_is_number(x) for x in entry):
        _fail(path, "complex entries must be [re, im] number pairs")
    try:
        z = complex(entry[0], entry[1])
    except OverflowError:
        _fail(path, "complex entries must fit in a float")
    # JSON reads 1e400 as inf, and Python's decoder takes Infinity and NaN.
    if not cmath.isfinite(z):
        _fail(path, "complex entries must be finite")
    return z


def _entry_depth(value) -> int:
    depth = 0
    while isinstance(value, list):
        depth += 1
        value = value[0] if value else None
    return depth


def _parse_vector(value, dim: int, path: str) -> np.ndarray:
    if not isinstance(value, list) or len(value) != dim:
        _fail(path, f"vector must have {dim} entries")
    import numpy as np

    v = np.array([_parse_complex(e, f"{path}[{i}]") for i, e in enumerate(value)])
    with np.errstate(over="ignore", invalid="ignore"):
        rho = np.outer(v, v.conj())
    if not np.all(np.isfinite(rho)):
        _fail(path, "ket entries must give a finite density matrix")
    return rho


def _parse_matrix(value, dim: int, path: str) -> np.ndarray:
    if not isinstance(value, list) or len(value) != dim:
        _fail(path, f"matrix must have {dim} rows")
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != dim:
            _fail(f"{path}[{i}]", f"matrix rows must have {dim} entries")
        rows.append([_parse_complex(e, f"{path}[{i}][{j}]") for j, e in enumerate(row)])
    import numpy as np

    return np.array(rows)


def _parse_state_entry(value, dim: int, path: str) -> np.ndarray:
    # Depth 2 is a ket (meaning v v†), depth 3 a density matrix.
    depth = _entry_depth(value)
    if depth == 2:
        return _parse_vector(value, dim, path)
    if depth == 3:
        return _parse_matrix(value, dim, path)
    _fail(path, "state must be a vector of [re, im] pairs or a matrix of them")


def parse_quantum(text: str) -> QuantumDocument:
    """Parse a quantum document; numeric validity is checked downstream."""
    return _build_quantum(_load_json(text))


def _build_quantum(data) -> QuantumDocument:
    _require_object(data, "$")
    _check_keys(
        data,
        ("dimension", "seeds", "propositions", "observables", "cap", "tolerance", "partition"),
        ("dimension", "seeds", "propositions"),
        "$",
    )
    dim = data["dimension"]
    if not core._is_int(dim) or dim < 1:
        _fail("dimension", "must be a positive integer")

    # Projectors first: each spells out its d x d entries, so no ket seed
    # expands into a density matrix larger than the document itself.
    props_raw = _require_object(data["propositions"], "propositions")
    if not props_raw:
        _fail("propositions", "at least one projector is required")
    propositions = tuple(
        (name, _parse_matrix(value, dim, _proposition_path(name))) for name, value in props_raw.items()
    )
    seeds_raw = _require_object(data["seeds"], "seeds")
    if not seeds_raw:
        _fail("seeds", "at least one seed state is required")
    seeds = tuple((name, _parse_state_entry(value, dim, f"seeds.{name}")) for name, value in seeds_raw.items())
    observables = _parse_observables(data, {name: name for name, _ in propositions}, "projector", ObservableSpec)

    cap = data.get("cap")
    if cap is not None and (not core._is_int(cap) or cap < 1):
        _fail("cap", "must be a positive integer")
    tolerance = data.get("tolerance")
    if tolerance is not None:
        # The upper bound also rejects NaN, infinity and ints too large for a float.
        if not _is_number(tolerance) or not 0 <= tolerance <= sys.float_info.max:
            _fail("tolerance", "must be a finite non-negative number")
        tolerance = float(tolerance)

    partition = None
    if "partition" in data:
        partition = _parse_partition(data["partition"], "partition")

    return QuantumDocument(dim, seeds, propositions, tuple(observables), cap, tolerance, partition)
