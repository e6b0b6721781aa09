"""Finite calculus of propositions, observables, and models.

A model is a finite set of named states plus one improper zero state that
absorbs impossible measurement branches.  A proposition acts on states
through a pair of total maps giving the post-measurement state for the
"yes" and "no" outcomes; an observable bundles mutually exclusive,
jointly complete propositions indexed by a finite spectrum.  Everything
here is immutable and pure, and all reported orders are deterministic:
states sort by name, spectra keep declaration order.

Internally a state is its index in declaration order and the zero state
is the index `n = len(space)`, which every map fixes.  Names and the
`ZERO` tag appear only where states enter or leave the calculus.
"""

from __future__ import annotations

import functools
import itertools
import operator
import sys
from enum import Enum
from typing import Collection, Iterable, Mapping, Optional, Sequence, Union

from .errors import (
    AmbiguousRealization,
    DomainError,
    EntanglementPreconditionError,
    IncompatibleOperands,
    StructuralError,
)

RESERVED_PROPOSITION_NAMES = ("ONE", "ZERO")

# Serialized spelling of the zero state; not a legal proper-state name.
ZERO_TOKEN = "null"


class _ZeroState:
    """Singleton tag for the improper zero state."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "ZERO"

    def __reduce__(self):
        # By name, so that a copy or an unpickled ZERO is ZERO itself.
        return "ZERO"


ZERO = _ZeroState()

StateRef = Union[str, _ZeroState]


def show_state(ref: StateRef) -> str:
    return ZERO_TOKEN if ref is ZERO else ref


@functools.cache
def _assigner(k: int):
    """A function of `k` slot setters that returns `_assign(self, v0, ...,
    v<k-1>)`, which calls each setter once with its value.  Unrolled: a
    loop over `object.__setattr__` cost about three times as much on a
    two-slot record.  One compile per slot count."""
    setters = ", ".join(f"set{i}" for i in range(k))
    values = "".join(f", v{i}" for i in range(k))
    calls = "".join(f"\n        set{i}(self, v{i})" for i in range(k))
    scope = {}
    exec(f"def make({setters}):\n    def _assign(self{values}):{calls}\n    return _assign", scope)
    return scope["make"]


class _Record:
    """Immutable record compared, hashed and shown by its fields.

    A subclass names its fields in `_fields` and lists them first in
    `__slots__`; slots after them are derived, so neither compared nor
    shown; one with array fields compares them through `array_key` in its
    own `_key`.  Its `__init__` validates and then sets every slot once
    with `_assign(*values)`, which takes one value per slot in slot order.
    Any other assignment or deletion raises AttributeError.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        if "_key" not in vars(cls):
            cls._key = operator.attrgetter(*cls._fields)
        cls._assign = _assigner(len(cls.__slots__))(*(getattr(cls, name).__set__ for name in cls.__slots__))

    def __eq__(self, other):
        # Most comparisons are of a state space with itself.
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def array_key(a) -> tuple:
    """An array's value for `==` and `hash`: its dtype, shape and bytes."""
    return a.dtype.str, a.shape, a.tobytes()


class StateSpace(_Record):
    """Ordered finite set of proper state names."""

    # `index` maps each name to its index in declaration order, and
    # `by_name` lists every index in name order (the order of all
    # reports); both are derived.
    _fields = ("states",)
    __slots__ = (*_fields, "index", "by_name")

    def __init__(self, states: tuple[str, ...]):
        if not states:
            raise StructuralError("state space must not be empty")
        index = {}
        for i, name in enumerate(states):
            if not isinstance(name, str) or not name:
                raise StructuralError(f"state names must be non-empty strings, got {name!r}")
            if name == ZERO_TOKEN:
                raise StructuralError(f"state name {ZERO_TOKEN!r} is reserved for the zero state")
            if name in index:
                raise StructuralError(f"duplicate state name {name!r}")
            index[name] = i
        # Built from a list: a tuple grown from a generator left peak RSS creeping.
        self._assign(states, index, tuple(sorted(range(len(index)), key=states.__getitem__)))

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and name in self.index

    def __len__(self) -> int:
        return len(self.states)

    def ref(self, i: int) -> StateRef:
        """The state at index `i`: its name, or ZERO for the zero index."""
        return self.states[i] if i < len(self.states) else ZERO


def _same_space(a: StateSpace, b: StateSpace) -> bool:
    """`a == b`, identity first: `==` and `!=` on two records run
    `_Record.__eq__` in Python even when both are the same object."""
    return a is b or a == b


def _table(entries: Sequence[int]) -> Union[bytes, tuple[int, ...]]:
    """A map's table: bytes while every index fits in a byte (up to 255
    states), so that the laws compose maps with `bytes.translate`, and a
    tuple of ints beyond."""
    return bytes(entries) if len(entries) <= 256 else tuple(entries)


class PropMap(_Record):
    """Total map on the states of a space, zero state included.

    `table[i]` is the index of the image of state `i`; the last entry,
    `table[n]` for `n = len(space)`, is the zero state, which is absorbing.
    The table is bytes up to 255 states and a tuple of ints beyond.
    """

    __slots__ = _fields = ("space", "table")

    def __init__(self, space: StateSpace, table: Iterable[int]):
        table = tuple(table)
        n = len(space)
        in_range = len(table) == n + 1 and set(map(type, table)) == {int} and min(table) >= 0 and max(table) <= n
        if not in_range or table[n] != n:
            raise StructuralError(f"map table must hold {n + 1} state indices in 0..{n} and end with {n}")
        self._assign(space, _table(table))

    @classmethod
    def from_names(cls, space: StateSpace, mapping: Mapping[str, StateRef]) -> "PropMap":
        """Build from a mapping of every state name to a state name or ZERO."""
        missing = [s for s in space.states if s not in mapping]
        if missing:
            raise StructuralError(f"map is not total: missing entries for {missing}")
        extra = sorted(k for k in mapping if k not in space)
        if extra:
            raise StructuralError(f"map has entries for unknown states {extra}")
        n = len(space)
        table = [n] * (n + 1)
        for s, target in mapping.items():
            if target is not ZERO:
                if target not in space:
                    raise StructuralError(f"map sends {s!r} to unknown state {target!r}")
                table[space.index[s]] = space.index[target]
        return cls(space, table)

    def __call__(self, z: StateRef) -> StateRef:
        if z is ZERO:
            return ZERO
        if z not in self.space:
            raise StructuralError(f"unknown state {z!r}")
        return self.space.ref(self.table[self.space.index[z]])


def _checked_map(space: StateSpace, entries: Sequence[int]) -> PropMap:
    """A PropMap holding `entries`, which its caller built valid: not checked again."""
    m = object.__new__(PropMap)
    m._assign(space, _table(entries))
    return m


def identity_map(space: StateSpace) -> PropMap:
    return _checked_map(space, range(len(space) + 1))


def constant_zero_map(space: StateSpace) -> PropMap:
    return _checked_map(space, (len(space),) * (len(space) + 1))


class Proposition(_Record):
    """Named yes/no question with a post-measurement map for each outcome."""

    __slots__ = _fields = ("name", "yes", "no")

    def __init__(self, name: str, yes: PropMap, no: PropMap):
        if not name or not isinstance(name, str):
            raise StructuralError("proposition name must be a non-empty string")
        if not _same_space(yes.space, no.space):
            raise StructuralError(f"proposition {name!r}: yes/no maps use different state spaces")
        self._assign(name, yes, no)

    @property
    def space(self) -> StateSpace:
        return self.yes.space

    def side(self, outcome: str) -> PropMap:
        if outcome == "yes":
            return self.yes
        if outcome == "no":
            return self.no
        raise StructuralError(f"outcome must be 'yes' or 'no', got {outcome!r}")


def make_one(space: StateSpace) -> Proposition:
    """The always-true proposition: yes leaves states alone, no never happens."""
    return Proposition("ONE", identity_map(space), constant_zero_map(space))


def make_zero(space: StateSpace) -> Proposition:
    """The never-true proposition, the negation of ONE."""
    return Proposition("ZERO", constant_zero_map(space), identity_map(space))


_NEGATED_RESERVED = {"ONE": "ZERO", "ZERO": "ONE"}


def negate(p: Proposition) -> Proposition:
    """Swap the outcome maps.  Involutive; ONE and ZERO trade places."""
    if p.name in _NEGATED_RESERVED:
        name = _NEGATED_RESERVED[p.name]
    elif p.name.startswith("¬") and p.name != "¬":
        name = p.name[1:]
    else:
        name = "¬" + p.name
    return Proposition(name, p.no, p.yes)


class DerivedProposition(_Record):
    """One known outcome map of a derived yes/no question.

    Conjunction and adjunction pin down only one side of the result; the
    other side is left undefined rather than guessed, and `realize` can
    look the full proposition up in a model.
    """

    __slots__ = _fields = ("known_side", "known_map", "provenance")

    def __init__(self, known_side: str, known_map: PropMap, provenance: str):
        if known_side not in ("yes", "no"):
            raise StructuralError(f"known_side must be 'yes' or 'no', got {known_side!r}")
        unfixed = unfixed_points(known_map)
        if unfixed:
            raise StructuralError(f"derived map is not idempotent at {unfixed[0]!r}")
        self._assign(known_side, known_map, provenance)


class ModalStatus(Enum):
    IMPOSSIBLE = "impossible"
    POSSIBLE = "possible"
    CERTAIN = "certain"


class PairClass(Enum):
    COMPATIBLE = "compatible"
    COMPLEMENTARY = "complementary"
    STRONGLY_COMPLEMENTARY = "strongly-complementary"


class Violation(_Record):
    """A broken law, with the subject names and witnessing states."""

    __slots__ = _fields = ("law", "subjects", "witness", "detail")

    def __init__(self, law: str, subjects: tuple[str, ...], witness: tuple[str, ...], detail: str = ""):
        self._assign(law, subjects, witness, detail)

    def __str__(self) -> str:
        head = f"[{self.law}] {' '.join(self.subjects)}"
        return f"{head}: {self.detail}" if self.detail else head


class CommutationWitness(_Record):
    """A state where two propositions fail to commute on the given sides."""

    __slots__ = _fields = ("p_name", "q_name", "p_side", "q_side", "state", "pq", "qp")

    def __init__(self, p_name: str, q_name: str, p_side: str, q_side: str, state: str, pq: StateRef, qp: StateRef):
        self._assign(p_name, q_name, p_side, q_side, state, pq, qp)


class PairEvidence(_Record):
    """Why a pair of observables got its classification."""

    __slots__ = _fields = ("witness", "common")

    def __init__(self, witness: Optional[CommutationWitness], common: tuple[tuple[str, str, str], ...]):
        self._assign(witness, common)


def _is_int(value) -> bool:
    """The rule for every count, cap and dimension: an `int` that is not a `bool`."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_tolerance(value) -> bool:
    """The rule for every tolerance: an `int` or `float` that is not a
    `bool`, from 0 to the largest float.  The upper bound also refuses NaN,
    infinity and ints too large for a float; an int compared with a float
    cannot overflow."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and 0 <= value <= sys.float_info.max


def check_spectrum(name: str, spectrum: Sequence[str], labels: Collection[str]) -> None:
    """The rule for every observable: a non-empty name, distinct non-empty
    spectrum values, and family labels that are exactly those values."""
    if not name or not isinstance(name, str):
        raise StructuralError("observable name must be a non-empty string")
    if not spectrum:
        raise StructuralError(f"observable {name!r}: spectrum must be non-empty")
    seen = set()
    for value in spectrum:
        if not isinstance(value, str) or not value:
            raise StructuralError(f"observable {name!r}: spectrum values must be non-empty strings")
        if value in seen:
            raise StructuralError(f"observable {name!r}: duplicate spectrum value {value!r}")
        seen.add(value)
    missing = [v for v in spectrum if v not in labels]
    if missing:
        raise StructuralError(f"observable {name!r}: family has no proposition for value(s) {missing}")
    extra = sorted(v for v in labels if v not in seen)
    if extra:
        raise StructuralError(f"observable {name!r}: family has propositions for unknown value(s) {extra}")


class Observable(_Record):
    """Finite spectrum of values, each answered by one proposition."""

    # Derived `space`, the family's state space, and `_eigenvalues`, the
    # table `eigenvalues` builds on first read.
    _fields = ("name", "spectrum", "family")
    __slots__ = (*_fields, "space", "_eigenvalues")

    def __init__(self, name: str, spectrum: tuple[str, ...], family: Mapping[str, Proposition]):
        family = dict(family)
        check_spectrum(name, spectrum, family)
        space = family[spectrum[0]].space
        for value in spectrum:
            if not _same_space(family[value].space, space):
                raise StructuralError(f"observable {name!r}: family members use different state spaces")
        self._assign(name, spectrum, family, space, None)

    @property
    def eigenvalues(self) -> tuple[tuple[str, ...], ...]:
        """Entry i: the values whose yes-branch fixes state i, in spectrum
        order; the zero slot is (), so it is nobody's eigenstate.  Built on
        first read: the law check reads it only for compatible pairs."""
        table = self._eigenvalues
        if table is not None:
            return table
        family = self.family
        n = len(self.space)
        eigen = [()] * (n + 1)
        for v in self.spectrum:
            # The fixed points of the branch's yes map, by C calls only; an
            # empty slot takes the one tuple `one` itself.
            one = (v,)
            for i in itertools.compress(range(n), map(operator.eq, range(n), family[v].yes.table)):
                eigen[i] += one
        table = tuple(eigen)
        Observable._eigenvalues.__set__(self, table)
        return table

    def branch(self, value: str) -> Proposition:
        try:
            return self.family[value]
        except KeyError:
            raise StructuralError(f"observable {self.name!r} has no value {value!r}") from None


def observable_from_proposition(p: Proposition, name: Optional[str] = None) -> Observable:
    """Two-valued observable asking the proposition itself."""
    return Observable(name or p.name, ("yes", "no"), {"yes": p, "no": negate(p)})


class Partition(_Record):
    """Split of a model into subsystems, tagging observables local or global."""

    __slots__ = _fields = ("subsystems", "local_tags", "global_tags")

    def __init__(self, subsystems: tuple[str, ...], local_tags: Mapping[str, str], global_tags: tuple[str, ...]):
        local_tags = dict(local_tags)
        if not subsystems:
            raise StructuralError("partition must name at least one subsystem")
        if not all(isinstance(name, str) and isinstance(target, str) for name, target in local_tags.items()):
            raise StructuralError("local tags must map observable names to subsystem names")
        if not all(isinstance(name, str) for name in global_tags):
            raise StructuralError("global tags must be observable names")
        for kind, names in (("subsystem name", subsystems), ("global tag", global_tags)):
            seen = set()
            for name in names:
                if names is subsystems and not (isinstance(name, str) and name):
                    raise StructuralError("subsystem names must be non-empty strings")
                if name in seen:
                    raise StructuralError(f"duplicate {kind} {name!r}")
                seen.add(name)
        self._assign(subsystems, local_tags, global_tags)


class Model(_Record):
    """A state space with named propositions and observables.

    Every model, however made (raw, built, rebuilt or unpickled), holds
    each proposition and observable under its own name, only parts over
    its `space`, and observables whose family members are its own
    propositions; the constructor refuses any other.  Use `Model.build`
    to have the builtins ONE and ZERO added; a raw model may lack them or
    hold them malformed, and `validate_model` reports that.
    """

    __slots__ = _fields = ("space", "propositions", "observables", "partition")

    def __init__(
        self,
        space: StateSpace,
        propositions: Mapping[str, Proposition],
        observables: Mapping[str, Observable],
        partition: Optional[Partition] = None,
    ):
        propositions, observables = dict(propositions), dict(observables)
        for kind, parts in (("proposition", propositions), ("observable", observables)):
            for key, part in parts.items():
                if part.name != key:
                    raise StructuralError(f"{kind} {part.name!r} is stored under {key!r}")
                if not _same_space(part.space, space):
                    raise StructuralError(f"{kind} {part.name!r} is over a different state space")
        for o in observables.values():
            for v in o.spectrum:
                member = o.family[v]
                held = propositions.get(member.name)
                if held is not member and held != member:
                    raise StructuralError(
                        f"observable {o.name!r}: family member {member.name!r} is not a proposition of the model"
                    )
        self._assign(space, propositions, observables, partition)

    @classmethod
    def build(
        cls,
        space: StateSpace,
        propositions: Iterable[Proposition] = (),
        observables: Iterable[Observable] = (),
        partition: Optional[Partition] = None,
    ) -> "Model":
        """The model of these parts with the builtins ONE and ZERO added.  A
        part named ONE or ZERO must equal the builtin; names must not repeat."""
        props: dict[str, Proposition] = {"ONE": make_one(space), "ZERO": make_zero(space)}
        for p in propositions:
            if p.name in RESERVED_PROPOSITION_NAMES:
                if p != props[p.name]:
                    raise StructuralError(f"proposition name {p.name!r} is reserved")
                continue
            if p.name in props:
                raise StructuralError(f"duplicate proposition name {p.name!r}")
            props[p.name] = p
        obs: dict[str, Observable] = {}
        for a in observables:
            if a.name in obs:
                raise StructuralError(f"duplicate observable name {a.name!r}")
            obs[a.name] = a
        return cls(space, props, obs, partition)

    def observable(self, name: str) -> Observable:
        try:
            return self.observables[name]
        except KeyError:
            raise StructuralError(f"unknown observable {name!r}") from None


# ---------------------------------------------------------------------------
# Laws
#
# Each law is a function from one subject (a proposition, an observable,
# or an observable pair classified once) to its violations in report
# order.  `validate_*` and `checker.check_laws` are built from ordered
# tuples of these.  Where the two reports name one law differently
# (idempotence-yes/no and PP=P, annihilation and P·negP=0) they share the
# predicate and differ only in wording.
#
# Each predicate composes its maps once, returns an empty list at once
# when the composites show no witness, and otherwise lists the witnesses,
# in state order, from those same composites.  Each law returns [] as soon
# as its predicates are empty, before it builds a report.


def _after(f: PropMap, g: PropMap) -> Union[bytes, tuple[int, ...]]:
    """The table of `f` after `g`, by one C call: bytes when both tables are
    bytes, else a tuple (a table has at least two entries, so the getter
    returns a tuple)."""
    try:
        return g.table.translate(f.table.ljust(256, b"\0"))
    except AttributeError:
        return operator.itemgetter(*g.table)(f.table)


@functools.cache
def _zero_flags(n: int) -> bytes:
    """The `translate` table that marks the zero index `n` of a byte table: 256 bytes, byte n set."""
    return (bytes(n) + b"\1").ljust(256, b"\0")


def _zeroed_by_all(maps: Sequence[PropMap], space: StateSpace) -> list[str]:
    """The states that every map in `maps` sends to zero, in state order:
    every state when `maps` is empty."""
    n = len(space)  # the zero index
    # A byte table has n <= 255; past that every table is a tuple and the flags go unused.
    flags = _zero_flags(min(n, 255))
    common = (1 << 8 * n) - 1
    for m in maps:
        try:
            hits = m.table.translate(flags)
        except AttributeError:
            hits = bytes([w == n for w in m.table])
        common &= int.from_bytes(hits, "little")
    if not common:
        return []
    return list(itertools.compress(space.states, common.to_bytes(n, "little")))


def unfixed_points(m: PropMap) -> list[str]:
    """States where `m(m(z)) != m(z)`: the witnesses against idempotence."""
    mm = _after(m, m)
    if mm == m.table:
        return []
    return [z for z, w, u in zip(m.space.states, m.table, mm) if u != w]


def unannihilated(f: PropMap, g: PropMap) -> list[tuple[str, int, int]]:
    """`(z, f(g(z)), g(f(z)))` for each state where either image is not the zero index."""
    fg, gf = _after(f, g), _after(g, f)
    n = len(fg) - 1  # the zero index
    if fg.count(n) == len(fg) == gf.count(n):
        return []
    return [(z, u, w) for z, u, w in zip(g.space.states, fg, gf) if u != n or w != n]


def noncommuting(f: PropMap, g: PropMap) -> list[tuple[str, int, int]]:
    """`(z, f(g(z)), g(f(z)))` for each state where the two images differ."""
    fg, gf = _after(f, g), _after(g, f)
    if fg == gf:
        return []
    return [(z, u, w) for z, u, w in zip(g.space.states, fg, gf) if u != w]


def _changed_by(f: PropMap, g: PropMap) -> list[tuple[str, int, int, int]]:
    """`(z, g(z), f(g(z)), g(f(z)))` for each state where either composite differs from `g(z)`."""
    fg, gf = _after(f, g), _after(g, f)
    if fg == g.table == gf:
        return []
    return [(z, w, u, v) for z, w, u, v in zip(g.space.states, g.table, fg, gf) if u != w or v != w]


def idempotence(p: Proposition) -> list[Violation]:
    yes, no = unfixed_points(p.yes), unfixed_points(p.no)
    if not (yes or no):
        return []
    space = p.space
    out = []
    for side, t, unfixed in (("yes", p.yes.table, yes), ("no", p.no.table, no)):
        for z in unfixed:
            # w is a proper state: the zero index is fixed.
            w = t[space.index[z]]
            detail = f"{side}({side}({z})) = {show_state(space.ref(t[w]))} but {side}({z}) = {space.states[w]}"
            out.append(Violation(f"idempotence-{side}", (p.name,), (z,), detail))
    return out


def idempotent_maps(p: Proposition) -> list[Violation]:
    """PP=P: the law of `idempotence`, in the checker's wording."""
    yes, no = unfixed_points(p.yes), unfixed_points(p.no)
    if not (yes or no):
        return []
    return [
        Violation("PP=P", (p.name, side), (z,), f"{side} map is not idempotent at {z}")
        for side, unfixed in (("yes", yes), ("no", no))
        for z in unfixed
    ]


def annihilation(p: Proposition) -> list[Violation]:
    found = unannihilated(p.no, p.yes)
    if not found:
        return []
    out = []
    for z, no_yes, yes_no in found:
        for image, composite in ((no_yes, f"no(yes({z}))"), (yes_no, f"yes(no({z}))")):
            if image != len(p.space):
                detail = f"{composite} = {p.space.states[image]}, expected {ZERO_TOKEN}"
                out.append(Violation("annihilation", (p.name,), (z,), detail))
    return out


def negation_annihilates(p: Proposition) -> list[Violation]:
    """P·negP=0: the law of `annihilation`, one entry per state."""
    found = unannihilated(p.no, p.yes)
    if not found:
        return []
    return [Violation("P·negP=0", (p.name,), (z,), f"outcome maps do not annihilate at {z}") for z, _, _ in found]


def consistency(p: Proposition) -> list[Violation]:
    zeroed = _zeroed_by_all((p.yes, p.no), p.space)
    if not zeroed:
        return []
    return [Violation("consistency", (p.name,), (z,), f"both outcomes are impossible at {z}") for z in zeroed]


def zero_absorbs(zero: Proposition, p: Proposition) -> list[Violation]:
    """0P=P0=0, against the model's ZERO."""
    found = unannihilated(zero.yes, p.yes)
    if not found:
        return []
    return [Violation("0P=P0=0", (p.name,), (z,), f"composition with ZERO is not ZERO at {z}") for z, _, _ in found]


def one_is_identity(one: Proposition, p: Proposition) -> list[Violation]:
    """1P=P1=P, against the model's ONE."""
    changed = _changed_by(one.yes, p.yes)
    if not changed:
        return []
    return [Violation("1P=P1=P", (p.name,), (z,), f"composition with ONE changes the map at {z}") for z, _, _, _ in changed]


def one_and_is_identity(one: Proposition, p: Proposition) -> list[Violation]:
    """1ANDP=P: ONE AND P, whose yes map is ONE after P, is P; first witness only."""
    for z, w, u, _ in _changed_by(one.yes, p.yes):
        if u != w:
            return [Violation("1ANDP=P", (p.name,), (z,), f"ONE AND {p.name} differs from {p.name} at {z}")]
    return []


def exclusion(a: Observable) -> list[Violation]:
    out = []
    for i, v1 in enumerate(a.spectrum):
        for v2 in a.spectrum[i + 1 :]:
            for z, one_two, two_one in unannihilated(a.family[v1].yes, a.family[v2].yes):
                for image, first, then in ((one_two, v1, v2), (two_one, v2, v1)):
                    if image != len(a.space):
                        detail = f"value {first} stays possible after {then} at {z}"
                        out.append(Violation("mutual-exclusion", (a.name, first, then), (z,), detail))
    return out


def completeness(a: Observable) -> list[Violation]:
    zeroed = _zeroed_by_all([a.family[v].yes for v in a.spectrum], a.space)
    if not zeroed:
        return []
    return [Violation("completeness", (a.name,), (z,), f"every value is impossible at {z}") for z in zeroed]


def compatible_has_common_eigenstate(a: Observable, b: Observable) -> list[Violation]:
    """strongcomp-implies-comp: a compatible pair shares an eigenstate; `check_laws` passes no other pair."""
    if _share_an_eigenstate(a, b):
        return []
    detail = "pair has no common eigenstate yet classifies as compatible"
    return [Violation("strongcomp-implies-comp", (a.name, b.name), (), detail)]


def _joint_eigenstate_reachable(a: Observable, b: Observable, i: int) -> bool:
    for va in a.spectrum:
        w = a.family[va].yes.table[i]
        for vb in b.spectrum:
            u = b.family[vb].yes.table[w]
            if va in a.eigenvalues[u] and vb in b.eigenvalues[u]:
                return True
    return False


def compatible_reaches_joint_eigenstate(a: Observable, b: Observable) -> list[Violation]:
    """compat-implies-joint-eigenstate: from every state, one measurement of each of a compatible pair
    reaches a common eigenstate; `check_laws` passes no other pair."""
    detail = "no common eigenstate reachable by one measurement of each"
    return [
        Violation("compat-implies-joint-eigenstate", (a.name, b.name), (z,), detail)
        for i, z in enumerate(a.space.states)
        if not _joint_eigenstate_reachable(a, b, i)
    ]


def compatible_order_independent(a: Observable, b: Observable) -> list[Violation]:
    """compat-order-independence: the branches of a compatible pair commute; `check_laws` passes no other pair."""
    out = []
    for va in a.spectrum:
        for vb in b.spectrum:
            for z, _, _ in noncommuting(a.family[va].yes, b.family[vb].yes):
                detail = f"measurement order changes the outcome at {z}"
                out.append(Violation("compat-order-independence", (a.name, va, b.name, vb), (z,), detail))
    return out


PROPOSITION_LAWS = (idempotence, annihilation, consistency)
OBSERVABLE_LAWS = (exclusion, completeness)
PAIR_LAWS = (compatible_has_common_eigenstate, compatible_reaches_joint_eigenstate, compatible_order_independent)


# ---------------------------------------------------------------------------
# Proposition-level operations


def compose(f: PropMap, g: PropMap) -> PropMap:
    """The map `f after g`; zero is absorbing throughout."""
    if not _same_space(f.space, g.space):
        raise StructuralError("cannot compose maps over different state spaces")
    return PropMap(f.space, _after(f, g))


def modal_status(p: Proposition, z: StateRef) -> ModalStatus:
    """Impossible, certain, or genuinely open at a proper state."""
    if z is ZERO:
        raise DomainError("modal status is undefined for the zero state")
    yes, no = p.yes(z), p.no(z)
    if yes is ZERO:
        return ModalStatus.IMPOSSIBLE
    if no is ZERO:
        return ModalStatus.CERTAIN
    return ModalStatus.POSSIBLE


_SIDE_PAIRS = (("yes", "yes"), ("yes", "no"), ("no", "yes"), ("no", "no"))


def is_compatible_propositions(p: Proposition, q: Proposition) -> tuple[bool, Optional[CommutationWitness]]:
    """Do all four outcome maps of `p` commute with those of `q`?

    On failure the witness records the first state (scanning sides in a
    fixed order, states in declaration order) where the two application
    orders disagree.
    """
    if not _same_space(p.space, q.space):
        raise StructuralError("propositions are over different state spaces")
    found = _first_noncommuting((p,), (q,))
    if found is None:
        return True, None
    return False, _witness(*found)


def _first_noncommuting(ps: Sequence[Proposition], qs: Sequence[Proposition]) -> Optional[tuple]:
    """The one commutation scan, over propositions known to share a space:
    `(p, q, sp, sq, fg, gf)` for the first `p` in `ps`, `q` in `qs` and side
    pair `(sp, sq)` in `_SIDE_PAIRS` order whose composites `fg = p.sp after
    q.sq` and `gf = q.sq after p.sp` differ; None when all commute."""
    for p in ps:
        for q in qs:
            for sp, sq in _SIDE_PAIRS:
                f, g = getattr(p, sp), getattr(q, sq)
                fg, gf = _after(f, g), _after(g, f)
                if fg != gf:
                    return p, q, sp, sq, fg, gf
    return None


def _witness(p: Proposition, q: Proposition, sp: str, sq: str, fg, gf) -> CommutationWitness:
    """The witness at the first state where `_first_noncommuting`'s composites differ."""
    for z, pq, qp in zip(p.space.states, fg, gf):
        if pq != qp:
            return CommutationWitness(p.name, q.name, sp, sq, z, p.space.ref(pq), p.space.ref(qp))


def conjunction(p: Proposition, q: Proposition) -> DerivedProposition:
    """Sequential "and": defined only for compatible propositions."""
    ok, witness = is_compatible_propositions(p, q)
    if not ok:
        raise IncompatibleOperands(f"{p.name} and {q.name} are not compatible; conjunction is undefined", witness)
    return DerivedProposition("yes", compose(p.yes, q.yes), f"{p.name} AND {q.name}")


def adjunction(p: Proposition, q: Proposition) -> DerivedProposition:
    """Sequential "or", via the negations: defined only for compatible propositions."""
    ok, witness = is_compatible_propositions(p, q)
    if not ok:
        raise IncompatibleOperands(f"{p.name} and {q.name} are not compatible; adjunction is undefined", witness)
    return DerivedProposition("no", compose(p.no, q.no), f"{p.name} OR {q.name}")


def realize(model: Model, d: DerivedProposition) -> Optional[Proposition]:
    """Find the unique model proposition matching a derived one, if any."""
    if not _same_space(d.known_map.space, model.space):
        raise StructuralError("derived proposition is over a different state space")
    table = d.known_map.table
    matches = [p for _, p in sorted(model.propositions.items()) if p.side(d.known_side).table == table]
    if not matches:
        return None
    if len(matches) > 1:
        raise AmbiguousRealization(
            f"{d.provenance}: {len(matches)} propositions share the {d.known_side}-map",
            candidates=[p.name for p in matches],
        )
    return matches[0]


# ---------------------------------------------------------------------------
# Observable-level operations


def eigenstates_of_observable(a: Observable) -> list[tuple[str, str]]:
    """States fixed by some branch, with the value; sorted by state name."""
    states = a.space.states
    return [(states[i], v) for i in a.space.by_name for v in a.eigenvalues[i]]


def common_eigenstates(a: Observable, b: Observable) -> list[tuple[str, str, str]]:
    """States that are simultaneously eigenstates of both observables."""
    if not _same_space(a.space, b.space):
        raise StructuralError("observables are over different state spaces")
    states, ae, be = a.space.states, a.eigenvalues, b.eigenvalues
    return [(states[i], va, vb) for i in a.space.by_name if ae[i] and be[i] for va in ae[i] for vb in be[i]]


def _share_an_eigenstate(a: Observable, b: Observable) -> bool:
    # A state is a common eigenstate when both of its slots are non-empty;
    # the zero slot is ((), ()), so it never is.
    return any(map(all, zip(a.eigenvalues, b.eigenvalues)))


def pair_class(a: Observable, b: Observable) -> tuple[PairClass, Optional[CommutationWitness]]:
    """Compatible, complementary, or strongly complementary, with the witness.

    Compatible means every branch of `a` commutes with every branch of
    `b` on all four outcome sides, and the witness is None; otherwise the
    witness is the first failure, scanning `a`'s spectrum, then `b`'s,
    then the sides.  Strongly complementary additionally means the pair
    has no common eigenstate.
    """
    if not _same_space(a.space, b.space):
        raise StructuralError("observables are over different state spaces")
    # Every family member is over its observable's space.
    found = _first_noncommuting([a.family[v] for v in a.spectrum], [b.family[v] for v in b.spectrum])
    if found is None:
        return PairClass.COMPATIBLE, None
    witness = _witness(*found)
    if _share_an_eigenstate(a, b):
        return PairClass.COMPLEMENTARY, witness
    return PairClass.STRONGLY_COMPLEMENTARY, witness


def classify_pair(a: Observable, b: Observable) -> tuple[PairClass, PairEvidence]:
    """`pair_class`, with the pair's common eigenstates as evidence."""
    cls_, witness = pair_class(a, b)
    return cls_, PairEvidence(witness, tuple(common_eigenstates(a, b)))


def measure_sequence(model: Model, z: StateRef, steps: Sequence[tuple[str, str]]) -> StateRef:
    """Fold a sequence of (observable, value) filters over a start state.

    Each step applies the yes-map of the named branch; once the zero
    state is reached it absorbs every later step.
    """
    if z is not ZERO and z not in model.space:
        raise StructuralError(f"unknown state {z!r}")
    current = z
    for obs_name, value in steps:
        branch = model.observable(obs_name).branch(value)
        current = branch.yes(current)
    return current


# ---------------------------------------------------------------------------
# Entanglement


def check_entanglement_preconditions(model: Model, global_name: str, local_names: Sequence[str]) -> list[Violation]:
    """Report why an entanglement query would be meaningless.

    Structural problems (no partition, unknown or untagged observables)
    raise; genuine law failures (locals that do not commute across
    subsystems, a global compatible with a local) come back as report
    entries.
    """
    part = model.partition
    if part is None:
        raise StructuralError("model has no partition")
    g = model.observable(global_name)
    if global_name not in part.global_tags:
        raise StructuralError(f"observable {global_name!r} is not tagged global in the partition")
    for name in local_names:
        model.observable(name)
        if name not in part.local_tags:
            raise StructuralError(f"observable {name!r} is not tagged local in the partition")
    out: list[Violation] = []
    for i, l1 in enumerate(local_names):
        for l2 in local_names[i + 1 :]:
            if part.local_tags[l1] == part.local_tags[l2]:
                continue
            cls_, witness = pair_class(model.observable(l1), model.observable(l2))
            if cls_ is not PairClass.COMPATIBLE:
                # Every class but compatible comes with a witness.
                out.append(
                    Violation(
                        "entangle-locals-compatible",
                        (l1, l2),
                        (witness.state,),
                        f"local observables {l1} and {l2} on different subsystems are {cls_.value}",
                    )
                )
    for name in local_names:
        cls_, _ = pair_class(g, model.observable(name))
        if cls_ is PairClass.COMPATIBLE:
            out.append(
                Violation(
                    "entangle-global-complementary",
                    (global_name, name),
                    (),
                    f"global observable {global_name} is compatible with local {name}",
                )
            )
    return out


def entangled_states(model: Model, global_name: str, local_names: Sequence[str]) -> list[str]:
    """Eigenstates of the global observable that no listed local resolves."""
    report = check_entanglement_preconditions(model, global_name, local_names)
    if report:
        raise EntanglementPreconditionError("entanglement preconditions failed", report)
    global_eigen = {z for z, _ in eigenstates_of_observable(model.observable(global_name))}
    local_eigen: set[str] = set()
    for name in local_names:
        local_eigen.update(z for z, _ in eigenstates_of_observable(model.observable(name)))
    return sorted(global_eigen - local_eigen)


# ---------------------------------------------------------------------------
# Whole-model operations


def _builtin_violations(model: Model) -> list[Violation]:
    out = []
    for name, want in (("ONE", make_one(model.space)), ("ZERO", make_zero(model.space))):
        got = model.propositions.get(name)
        if got is None:
            out.append(Violation("builtin-structure", (name,), (), f"builtin proposition {name} is missing"))
        elif got != want:
            out.append(Violation("builtin-structure", (name,), (), f"builtin proposition {name} is malformed"))
    return out


def _partition_violations(model: Model) -> list[Violation]:
    part = model.partition
    if part is None:
        return []
    out = []
    for name in sorted(part.local_tags):
        if name not in model.observables:
            out.append(Violation("partition-reference", (name,), (), f"local tag names unknown observable {name!r}"))
        target = part.local_tags[name]
        if target not in part.subsystems:
            out.append(
                Violation("partition-reference", (name,), (), f"local tag for {name!r} names unknown subsystem {target!r}")
            )
    for name in part.global_tags:
        if name not in model.observables:
            out.append(Violation("partition-reference", (name,), (), f"global tag names unknown observable {name!r}"))
    for name in sorted(set(part.local_tags) & set(part.global_tags)):
        out.append(Violation("partition-overlap", (name,), (), f"observable {name!r} is tagged both local and global"))
    return out


def validate_model(model: Model) -> list[Violation]:
    """Aggregate report: builtins, every proposition, every observable, partition."""
    props, observables = model.propositions, model.observables
    out = _builtin_violations(model)
    out += [v for name in sorted(props) for law in PROPOSITION_LAWS for v in law(props[name])]
    out += [v for name in sorted(observables) for law in OBSERVABLE_LAWS for v in law(observables[name])]
    return out + _partition_violations(model)


def _rebuild(model: Model, space: StateSpace, convert) -> Model:
    """Rebuild a model over a new space, mapping every PropMap through `convert`.

    ONE and ZERO are converted as they are, so `validate_model` reports the same."""
    props = {name: Proposition(p.name, convert(p.yes), convert(p.no)) for name, p in model.propositions.items()}
    observables = {
        name: Observable(o.name, o.spectrum, {v: props[o.family[v].name] for v in o.spectrum})
        for name, o in model.observables.items()
    }
    return Model(space, props, observables, model.partition)


def rename_states(model: Model, mapping: Mapping[str, str]) -> Model:
    """Rename every state; the mapping must cover the whole space."""
    missing = [s for s in model.space.states if s not in mapping]
    if missing:
        raise StructuralError(f"rename mapping is missing states {missing}")
    space = StateSpace(tuple(mapping[s] for s in model.space.states))
    return _rebuild(model, space, lambda m: PropMap(space, m.table))


def reachable_submodel(model: Model, seeds: Sequence[str]) -> Model:
    """Restrict the model to states reachable from the seeds.

    Reachability follows every outcome map of every proposition, so the
    restricted maps stay total.
    """
    for s in seeds:
        if s not in model.space:
            raise StructuralError(f"unknown state {s!r}")
    if not seeds:
        raise StructuralError("at least one seed state is required")
    # The zero index counts as reached, so it stays last and stays zero.
    reached = {model.space.index[s] for s in seeds} | {len(model.space)}
    frontier = list(reached)
    tables = [p.side(side).table for p in model.propositions.values() for side in ("yes", "no")]
    while frontier:
        i = frontier.pop()
        for table in tables:
            j = table[i]
            if j not in reached:
                reached.add(j)
                frontier.append(j)
    keep = sorted(reached)
    space = StateSpace(tuple(model.space.states[i] for i in keep[:-1]))
    new_index = {old: new for new, old in enumerate(keep)}
    return _rebuild(model, space, lambda m: PropMap(space, [new_index[m.table[i]] for i in keep]))
