"""Finite-dimensional density-matrix backend.

Quantum states are density matrices acted on by projectors, `z -> PzP`
with trace normalization; branches whose trace falls below the tolerance
collapse to the zero state.  `close_orbit` discretizes a quantum system
into a finite model by following all projector actions from a set of
seed states, which gives the core calculus an independent source of
ground truth.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from . import core
from .errors import OrbitCapExceeded, StructuralError

DEFAULT_TOL = 1e-9
DEFAULT_CAP = 256

# Size of one block of the broadcast comparison in orbit closure, and of
# the work buffers it writes into.  A closure allocates them once; numpy
# temporaries that grew with the orbit up to one block would be fresh
# memory, faulted in page by page, at each step.
BROADCAST_BYTES = 1 << 20


def _as_matrix(value, what: str) -> np.ndarray:
    # A copy, so that freezing it never freezes the caller's array.
    m = np.array(value, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise StructuralError(f"{what} must be a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(float))):
        raise StructuralError(f"{what} contains non-finite entries")
    return m


# Every check passes only when its condition holds, so a residue or trace
# that overflows to inf or nan fails it; numpy need not warn of that.
@np.errstate(over="ignore", invalid="ignore")
def _hermiticity_residue(m: np.ndarray) -> float:
    return float(np.abs(m - m.conj().T).max())


@np.errstate(over="ignore", invalid="ignore")
def _idempotence_residue(m: np.ndarray) -> float:
    return float(np.abs(m @ m - m).max())


def _check_tol(tol: float) -> None:
    # A NaN tolerance fails every residue check and blames the matrix, an
    # infinite one passes every check and sends every branch to zero, and a
    # negative one takes a zero trace for a live branch.  The rule is the
    # document's.
    if not core._is_tolerance(tol):
        raise StructuralError(f"tol must be a finite non-negative number, got {tol!r}")


def _check_cap(cap: int) -> None:
    if not core._is_int(cap):
        raise StructuralError(f"orbit cap must be an integer, got {cap!r}")
    if cap < 1:
        raise StructuralError("orbit cap must be at least 1")


def _shown(residue: float) -> str:
    """A residue as reports print it: nine places below 1e9, an exponent from there on."""
    return f"{residue:.9f}" if abs(residue) < 1e9 else f"{residue:.9e}"


class DensityState:
    """Hermitian positive-semidefinite matrix with positive finite trace.

    Not necessarily normalized; a state and any positive multiple of it
    describe the same physics, so comparisons go through `states_equal`.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix, tol: float = DEFAULT_TOL):
        _check_tol(tol)
        m = _as_matrix(matrix, "density matrix")
        if not _hermiticity_residue(m) <= tol:
            raise StructuralError("density matrix is not hermitian within tolerance")
        if not np.linalg.eigvalsh(m).min() >= -tol:
            raise StructuralError("density matrix has a negative eigenvalue beyond tolerance")
        with np.errstate(over="ignore", invalid="ignore"):
            trace = m.trace().real
        if not trace > tol:
            raise StructuralError("density matrix trace must exceed the tolerance")
        if not trace < math.inf:
            raise StructuralError("density matrix trace must be finite")
        m.flags.writeable = False
        self.matrix = m

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def trace(self) -> float:
        return float(self.matrix.trace().real)

    def normalized(self) -> np.ndarray:
        return self.matrix / self.matrix.trace().real

    def __repr__(self) -> str:
        return f"DensityState(dim={self.dimension}, trace={self.trace():.9f})"


class Projector:
    """Hermitian idempotent matrix."""

    __slots__ = ("matrix",)

    def __init__(self, matrix, tol: float = DEFAULT_TOL):
        _check_tol(tol)
        m = _as_matrix(matrix, "projector")
        if not _hermiticity_residue(m) <= tol:
            raise StructuralError("projector is not hermitian within tolerance")
        if not _idempotence_residue(m) <= tol:
            raise StructuralError("projector is not idempotent within tolerance")
        m.flags.writeable = False
        self.matrix = m

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def complement(self) -> "Projector":
        """I - P, which inherits the check P passed at its own tolerance:
        its hermiticity and idempotence residues are those of P, up to
        rounding.  Frozen, and not checked again."""
        m = np.eye(self.dimension) - self.matrix
        m.flags.writeable = False
        c = object.__new__(Projector)
        c.matrix = m
        return c

    def __repr__(self) -> str:
        return f"Projector(dim={self.dimension})"


def states_equal(z1: DensityState, z2: DensityState, tol: float = DEFAULT_TOL) -> bool:
    """Equality up to scalar factors: compare trace-normalized matrices entrywise."""
    _check_tol(tol)
    if z1.dimension != z2.dimension:
        raise StructuralError("density matrices have different dimensions")
    return bool(np.abs(z1.normalized() - z2.normalized()).max() <= tol)


# ---------------------------------------------------------------------------
# Orbit closure


class Orbit(core._Record):
    """A closed orbit: the induced finite model plus the state matrices.

    `matrices` holds one read-only trace-normalized density matrix per
    model state, in discovery order (states are named s0, s1, ... as
    found).  The two merge margins tell how close the discretization came
    to a different answer; both are `max|Δ|` distances between
    trace-normalized matrices:

    - `max_merge_distance`: the largest distance at which a seed or an
      image merged into a known state, or 0.0 if none did;
    - `min_split_distance`: the smallest distance between two states of
      the orbit, taken when the later one was added, or inf for a
      single state.

    Every merge is within the tolerance and every split beyond it, so a
    margin near the tolerance marks a near-tie that a slightly different
    tolerance would resolve the other way.  `cap` and `tol` are the
    settings the closure ran with.
    """

    __slots__ = _fields = ("model", "matrices", "max_merge_distance", "min_split_distance", "cap", "tol")

    def __init__(
        self,
        model: core.Model,
        matrices: tuple[np.ndarray, ...],
        max_merge_distance: float,
        min_split_distance: float,
        cap: int,
        tol: float,
    ):
        self._assign(model, matrices, max_merge_distance, min_split_distance, cap, tol)

    @staticmethod
    def _key(o):
        return o.model, tuple(map(core.array_key, o.matrices)), o.max_merge_distance, o.min_split_distance, o.cap, o.tol


def close_orbit(
    seeds: Sequence[DensityState],
    propositions: Sequence[tuple[str, Projector]],
    cap: int = DEFAULT_CAP,
    tol: float = DEFAULT_TOL,
) -> Orbit:
    """Saturate the seed states under all yes/no projector actions.

    Breadth-first and deterministic: seeds are taken in order, then each
    discovered state is expanded with the propositions in the given
    order, yes-image before no-image.  A new matrix is the known state it
    is within `tol` of (entrywise), the first one in discovery order, or
    else a new state.  Raises OrbitCapExceeded when more than `cap`
    distinct states appear.  Each distinct action matrix acts once, since
    an action with the bytes of an earlier one gives the same image,
    which joins the state the earlier image became and adds nothing.
    """
    _check_cap(cap)
    _check_tol(tol)
    if not seeds:
        raise StructuralError("at least one seed state is required")
    if not propositions:
        raise StructuralError("at least one proposition is required")
    dim = seeds[0].dimension
    for s in seeds:
        if s.dimension != dim:
            raise StructuralError("seed states have mixed dimensions")
    names = []
    for name, p in propositions:
        if p.dimension != dim:
            raise StructuralError(f"projector {name!r} dimension does not match the seeds")
        if name in names:
            raise StructuralError(f"duplicate proposition name {name!r}")
        names.append(name)

    # The known states are the columns store[:, :n], matrices flattened, so
    # that a distance reduces over the leading axis, in contiguous rows.  The
    # store doubles when full; it is never sized from `cap`, which has no bound.
    store = np.empty((dim * dim, 16), dtype=complex)
    n = 0
    max_merge, min_split = 0.0, math.inf
    # The comparison's differences and their moduli, one block at a time:
    # at most BROADCAST_BYTES of differences, or one column of the largest
    # batch, the seeds or the 2k images of a state.
    size = max(BROADCAST_BYTES // 16, dim * dim * max(len(seeds), 2 * len(propositions)))
    diff_buffer, abs_buffer = np.empty(size, dtype=complex), np.empty(size)

    def absorb(batch: np.ndarray, processed: int) -> list[int]:
        """The state index of each matrix of `batch`, in order, adding misses."""
        nonlocal store, n, max_merge, min_split
        n0, end = n, n + len(batch)
        # The batch goes into the columns after the known states, and one
        # comparison sets it against them and against itself, in blocks of
        # about BROADCAST_BYTES of differences.  abs and max act entry by
        # entry, so each distance is bit for bit max|known - m| of that pair
        # alone, as a one-by-one scan finds it.
        while end > store.shape[1]:
            store = np.hstack((store, np.empty_like(store)))
        own = store[:, n0:end]
        own[...] = batch.reshape(-1, len(store)).T
        distances = np.empty((len(batch), end))
        block = max(1, BROADCAST_BYTES // max(1, batch.nbytes))
        for lo in range(0, end, block):
            known = store[:, None, lo : min(lo + block, end)]
            # Views cut to this block's exact shape, so no entry of an
            # earlier block or step is read.
            shape = (len(store), len(batch), known.shape[2])
            count = math.prod(shape)
            diff = np.subtract(known, own[:, :, None], out=diff_buffer[:count].reshape(shape))
            np.abs(diff, out=abs_buffer[:count].reshape(shape)).max(axis=0, out=distances[:, lo : lo + block])
        # The first column within tol is the lowest index, the first in
        # discovery order; a hit if it is a known state.
        first = (distances <= tol).argmax(axis=1).tolist()
        out, added = [], []
        for t, j in enumerate(first):
            d = distances.item(t, j)
            if j >= n0 or not d <= tol:
                # A miss can still match a state added earlier in this batch;
                # the k-th of them is state n0 + k.
                same = [distances.item(t, n0 + u) for u in added]
                k = next((k for k, e in enumerate(same) if e <= tol), None)
                if k is not None:
                    j, d = n0 + k, same[k]
                else:
                    if n >= cap:
                        discovered = [f"s{k}" for k in range(n)]
                        message = f"orbit closure exceeded cap {cap}: {n} states discovered, {n - processed} still unexpanded"
                        raise OrbitCapExceeded(message, cap, discovered=discovered, frontier=discovered[processed:])
                    min_split = min(min_split, float(distances[t, :n0].min(initial=math.inf)), *same)
                    # Its column moves down to index n, over an absorbed image.
                    if n < n0 + t:
                        store[:, n] = own[:, t]
                    added.append(t)
                    j, d, n = n, 0.0, n + 1
            max_merge = max(max_merge, d)
            out.append(j)
        return out

    absorb(np.array([s.normalized() for s in seeds]), 0)

    # The 2k actions, yes before no per proposition.  A complement listed as
    # a proposition of its own repeats the no-action of the projector it
    # complements, so only the distinct matrices act on a state, in one
    # batched product whose live images are absorbed as one batch.  Action a
    # takes the images of distinct matrix `slot[a]`: a repeat's image, the
    # same bytes absorbed after the original's, would join the state the
    # original joined, at the same distance, or the one it added, at 0.0.
    every = [m for _, p in propositions for m in (p.matrix, p.complement().matrix)]
    keys = [m.tobytes() for m in every]
    distinct = list(dict.fromkeys(keys))
    slot = [distinct.index(key) for key in keys]
    actions = np.array([every[keys.index(key)] for key in distinct])
    # One image row per expanded state, one entry per distinct action; -1
    # until the zero index is known.
    rows = []
    i = 0
    while i < n:
        # A contiguous copy: numpy may send a strided operand through another
        # matmul loop, which can round differently.
        imgs = actions @ store[:, i].reshape(dim, dim).copy() @ actions
        traces = imgs.trace(axis1=1, axis2=2).real
        live = traces > tol
        index = iter(absorb(imgs.compress(live, axis=0) / traces.compress(live)[:, None, None], i))
        rows.append([next(index) if ok else -1 for ok in live.tolist()])
        i += 1

    space = core.StateSpace(tuple(f"s{k}" for k in range(n)))
    maps = [core.PropMap(space, [j if j >= 0 else n for j in column] + [n]) for column in zip(*rows)]
    props = [core.Proposition(name, maps[slot[2 * k]], maps[slot[2 * k + 1]]) for k, (name, _) in enumerate(propositions)]
    model = core.Model.build(space, props)
    # One read-only contiguous copy of the states, viewed matrix by matrix.
    matrices = store[:, :n].T.reshape(n, dim, dim).copy()
    matrices.flags.writeable = False
    return Orbit(model, tuple(matrices), max_merge, min_split, cap, tol)


# ---------------------------------------------------------------------------
# Building models from quantum documents


def settings(doc, cap: Optional[int] = None, tol: Optional[float] = None) -> tuple[int, float]:
    """The orbit cap and tolerance of a build: each the flag given here,
    else the document's, else the default, and checked once settled."""
    if tol is None:
        tol = DEFAULT_TOL if doc.tolerance is None else doc.tolerance
    if cap is None:
        cap = DEFAULT_CAP if doc.cap is None else doc.cap
    _check_tol(tol)
    _check_cap(cap)
    return cap, tol


@np.errstate(over="ignore", invalid="ignore")
def family_violations(doc, tol: Optional[float] = None) -> list[core.Violation]:
    """Projector-family law report for every observable of a quantum
    document, members in spectrum order: each a projector, pairwise
    orthogonal, summing to the identity.  The parser has checked the
    spectra and dimensions; a family that breaks a law is reported."""
    _, tol = settings(doc, tol=tol)
    raw = dict(doc.propositions)
    out: list[core.Violation] = []
    for spec in doc.observables:
        name, labels = spec.name, spec.spectrum
        matrices = [_as_matrix(raw[spec.family[label]], f"family member {label!r}") for label in labels]
        for label, m in zip(labels, matrices):
            residue = _hermiticity_residue(m)
            if not residue <= tol:
                out.append(core.Violation("projector-hermitian", (name, label), (), f"max |M - M†| = {_shown(residue)}"))
            residue = _idempotence_residue(m)
            if not residue <= tol:
                out.append(core.Violation("projector-idempotent", (name, label), (), f"max |MM - M| = {_shown(residue)}"))
        for i, l1 in enumerate(labels):
            for l2, m2 in zip(labels[i + 1 :], matrices[i + 1 :]):
                residue = float(np.abs(matrices[i] @ m2).max())
                if not residue <= tol:
                    out.append(core.Violation("orthogonality", (name, l1, l2), (), f"max |M1 M2| = {_shown(residue)}"))
        residue = float(np.abs(sum(matrices) - np.eye(len(matrices[0]))).max())
        if not residue <= tol:
            out.append(core.Violation("resolution-of-identity", (name,), (), f"max |sum - I| = {_shown(residue)}"))
    return out


def document_orbit(doc, cap: Optional[int] = None, tol: Optional[float] = None) -> Orbit:
    """Close the orbit of a quantum document's seeds under its projectors.

    Cap and tolerance come from `settings`, and the orbit records both.
    Its model carries the document's observables and partition.
    """
    cap, tol = settings(doc, cap, tol)
    projectors = [(name, Projector(m, tol)) for name, m in doc.propositions]
    seeds = [DensityState(m, tol) for _, m in doc.seeds]
    orbit = close_orbit(seeds, projectors, cap=cap, tol=tol)
    props = orbit.model.propositions
    observables = {
        spec.name: core.Observable(spec.name, spec.spectrum, {v: props[spec.family[v]] for v in spec.spectrum})
        for spec in doc.observables
    }
    model = core.Model(orbit.model.space, props, observables, doc.partition)
    return Orbit(model, orbit.matrices, orbit.max_merge_distance, orbit.min_split_distance, orbit.cap, orbit.tol)


def document_model(doc, cap: Optional[int] = None, tol: Optional[float] = None) -> core.Model:
    """The model of `document_orbit`: orbit closure plus observables and partition."""
    return document_orbit(doc, cap=cap, tol=tol).model
