"""Core data model for slot auctions under a cascading attention model.

A user scans the slot list top-down.  After looking at the ad in slot s she
moves on to slot s+1 with probability ``lambda_s * c_a``, where ``lambda_s``
is a property of the slot and ``c_a`` a property of the ad occupying it.
The click-through rate of an allocated ad is therefore the product of its
own quality, the slot prominence (product of the slot factors above it) and
the continuation probabilities of every ad allocated above it.
"""
from __future__ import annotations

import json
import math
import operator
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain
from typing import Any, Iterable, Mapping

import numpy as np

__all__ = [
    "AuctionError", "NotAllocatedError", "InvalidAllocationError", "InstanceFormatError",
    "InstanceTooLargeError", "Ad", "SlotLadder", "AuctionInstance", "Allocation", "ctr",
    "social_welfare", "slot_positions", "instance_to_dict", "instance_from_dict",
    "dump_instance", "load_instance",
]


class AuctionError(Exception):
    """Base class for errors raised by this package."""


class NotAllocatedError(AuctionError):
    """The requested ad does not appear in the allocation."""


class InvalidAllocationError(AuctionError):
    """The allocation is malformed for the given instance."""


class InstanceFormatError(AuctionError):
    """An instance document violates the on-disk schema."""


class InstanceTooLargeError(AuctionError):
    """The instance exceeds a size cap for an exhaustive computation."""


def _shown(x: Any) -> str:
    """A short repr of a rejected value: a huge int would print every digit."""
    if isinstance(x, int) and x.bit_length() > 1024:
        return "an integer too large for a float"
    text = repr(x)
    return text if len(text) <= 40 else text[:37] + "..."


def _check_field(x: Any, where: str, hi: float = 1.0) -> None:
    """Raises InstanceFormatError starting with ``where`` unless x is a number in [0, hi] that fits a finite
    float; a bool is not a number here, as in the loader."""
    with suppress(TypeError, OverflowError):
        if 0.0 <= x <= hi and math.isfinite(x) and not isinstance(x, (bool, np.bool_)):
            return
    rule = "a finite number >= 0" if hi == math.inf else f"a number within [0, {hi:g}]"
    raise InstanceFormatError(f"{where} must be {rule}, got {_shown(x)}")


@dataclass(frozen=True)
class Ad:
    """One ad: an integer id, unique within an instance; its private value per click (>= 0); its
    quality, the click probability once looked at; and its continuation, the probability that the
    user keeps scanning past it (both in [0, 1])."""

    id: int
    value: float
    quality: float
    continuation: float

    def __post_init__(self) -> None:
        _check_field(self.value, f"ad {self.id}: value", math.inf)
        _check_field(self.quality, f"ad {self.id}: quality")
        _check_field(self.continuation, f"ad {self.id}: continuation")

    @property
    def weighted_value(self) -> float:
        """Expected value per impression: quality times value."""
        return self.quality * self.value


@dataclass(frozen=True)
class SlotLadder:
    """The slot side of the model: ``factors[s-1]`` is the probability the user moves from slot s
    to slot s+1, before multiplying in the continuation of the ad shown in slot s.  The last slot's
    factor is stored for round-tripping but never enters a welfare (no slot lies below it)."""

    factors: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.factors) == 0:
            raise InstanceFormatError("lambdas: a ladder needs at least one slot")
        for i, f in enumerate(self.factors):
            _check_field(f, f"lambdas[{i}]: factor")
        object.__setattr__(self, "factors", tuple(float(f) for f in self.factors))

    @classmethod
    def from_factors(cls, factors: Iterable[float], num_slots: int | None = None) -> "SlotLadder":
        """Builds a ladder from either K or K-1 factors; a missing last factor
        is 0 (the scan cannot continue past the last slot)."""
        fs = list(factors)
        if num_slots is not None and len(fs) == num_slots - 1:
            fs.append(0.0)
        elif num_slots is not None and len(fs) != num_slots:
            raise InstanceFormatError(f"lambdas: expected {num_slots} or {num_slots - 1} factors, got {len(fs)}")
        return cls(tuple(fs))

    @property
    def num_slots(self) -> int:
        return len(self.factors)

    @cached_property
    def effective_factors(self) -> tuple[float, ...]:
        """Factors as used in computations: the last one is forced to 0."""
        return self.factors[:-1] + (0.0,)

    @cached_property
    def prominences(self) -> tuple[float, ...]:
        """Probability of reaching each slot through empty slots above it:
        entry s-1 is the product of the factors of slots 1..s-1."""
        return tuple(accumulate(self.factors[:-1], operator.mul, initial=1.0))

    @property
    def max_factor(self) -> float:
        """Largest factor of any slot that has a slot below it (0 if K=1)."""
        return max(self.factors[:-1], default=0.0)


def _check_table(id_array: np.ndarray, table: np.ndarray) -> None:
    """Two reductions test the whole table (NaN fails both); the Ad checks only name the first bad ad."""
    upper = (np.finfo(float).max, 1.0, 1.0, np.finfo(float).max)  # of value, quality, continuation, wv
    if len(id_array) and not (table.min() >= 0.0 and all(map(operator.le, table.max(axis=1).tolist(), upper))):
        i = int(np.argmin(((table >= 0.0) & (table <= np.array(upper)[:, None])).all(axis=0)))
        Ad(int(id_array[i]), *table[:3, i].tolist())


def _columns(ids: Any, value: Any, quality: Any, continuation: Any) -> tuple[np.ndarray, np.ndarray]:
    """A new int64 id array and float table (rows value, quality, continuation and wv), checked;
    an id that is not an integer within 64 bits is an error naming it."""
    table = np.empty((4, len(ids)))
    table[:3] = value, quality, continuation  # a column of another length does not fit
    np.multiply(table[1], table[0], out=table[3])
    id_array = np.array(ids)  # a Python int outside 64 bits makes an object array
    if id_array.dtype.kind != "i" and id_array.size:
        bad = next(a for a in ids if type(a) is not int or not -(1 << 63) <= a < 1 << 63)
        raise InstanceFormatError(f"ad {_shown(bad)}: id must be an integer within 64 bits")
    id_array = id_array.astype(np.int64)
    _check_table(id_array, table)
    return id_array, table


@dataclass(frozen=True, init=False, eq=False, repr=False)  # frozen: assigning an attribute raises
class AuctionInstance:
    """A set of ads plus a slot ladder.  Requires at least as many ads as slots.

    The ads are read-only columns in ad order: ``id_array`` (int64) and
    ``value``, ``quality``, ``continuation`` and ``wv = quality * value``
    (float64, the rows of one table).  ``ids``, the id lookup and, on first
    use, ``ads`` and the rows as lists of floats are built from them.
    Immutable; equality, hashing and repr are those of the pair (ads, ladder).
    """

    def __init__(self, ads: Iterable[Ad], ladder: SlotLadder) -> None:
        ads = tuple(ads)
        fields = ([getattr(ad, name) for ad in ads] for name in ("id", "value", "quality", "continuation"))
        self.__post_init__(*_columns(*fields), ladder)

    @classmethod
    def from_columns(cls, ids: Any, value: Any, quality: Any, continuation: Any, ladder: SlotLadder) -> AuctionInstance:
        """Instance from per-ad sequences of numbers, in ad order."""
        return cls._of(*_columns(ids, value, quality, continuation), ladder)

    @classmethod
    def _of(cls, id_array: np.ndarray, table: np.ndarray, ladder: SlotLadder) -> AuctionInstance:
        inst = cls.__new__(cls)
        inst.__post_init__(id_array, table, ladder)
        return inst

    def __post_init__(self, id_array: np.ndarray, table: np.ndarray, ladder: SlotLadder) -> None:
        """Sets columns that ``_columns`` checked (or rows of them) and checks the ad set: distinct
        ids, at least K ads.  Every instance, derived ones included, is built through here."""
        # nearly every use reads ids and the id lookup; built lazily they cost more at VCG rerun sizes
        ids = tuple(id_array.tolist())
        n = len(ids)
        index = dict(zip(ids, range(n)))
        if len(index) != n:
            raise InstanceFormatError(f"ads: duplicate ad id {next(a for i, a in enumerate(ids) if index[a] != i)}")
        if n < ladder.num_slots:
            raise InstanceFormatError(f"ads: need at least as many ads as slots, got {n} ads for {ladder.num_slots} slots")
        id_array.flags.writeable = table.flags.writeable = False
        vars(self).update(id_array=id_array, _table=table, ladder=ladder, ids=ids, _index=index,
                          value=table[0], quality=table[1], continuation=table[2], wv=table[3])

    def _key(self) -> tuple:
        return (self.ids, *map(tuple, self._lists[:3]), self.ladder)

    def __eq__(self, other: object) -> bool:
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(ads={self.ads!r}, ladder={self.ladder!r})"

    @cached_property
    def ads(self) -> tuple[Ad, ...]:
        return tuple(map(Ad, self.ids, *self._lists[:3]))

    @cached_property
    def _lists(self) -> list[list[float]]:
        return self._table.tolist()

    @property
    def num_ads(self) -> int:
        return len(self.id_array)

    @property
    def num_slots(self) -> int:
        return self.ladder.num_slots

    def indices(self, ids: Iterable[int]) -> list[int]:
        """Ad-array index of each id, in the order given; an unknown id is an InvalidAllocationError."""
        index = self._index
        try:
            return [index[aid] for aid in ids]
        except KeyError as exc:
            raise InvalidAllocationError(f"unknown ad id {exc.args[0]}") from None

    def ad(self, ad_id: int) -> Ad:
        (i,) = self.indices((ad_id,))
        return Ad(self.ids[i], *self._table[:3, i].tolist())

    def __contains__(self, ad_id: int) -> bool:
        return ad_id in self._index

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(weighted_value, continuation) arrays in ad order, read-only."""
        return self.wv, self.continuation

    def _subset(self, ids: Iterable[int], keep: bool) -> AuctionInstance:
        mask = np.zeros(self.num_ads, bool)
        mask[self.indices(ids)] = True
        rows = mask if keep else ~mask
        return self._of(self.id_array[rows], self._table.compress(rows, axis=1), self.ladder)

    def without(self, ad_id: int) -> AuctionInstance:
        """Copy of the instance with one ad removed (ladder unchanged)."""
        return self._subset((ad_id,), keep=False)

    def restricted_to(self, ids: Iterable[int]) -> AuctionInstance:
        """Copy keeping only the given ad ids, in the original ad order."""
        return self._subset(ids, keep=True)

    def with_values(self, values: Mapping[int, float]) -> AuctionInstance:
        """Copy with the per-click values of the given ids replaced (used for reported bids); a value
        that ``Ad`` would reject is an error naming its ad."""
        try:
            new = np.fromiter(values.values(), float, len(values))
        except (TypeError, ValueError, OverflowError):
            new = None
        # cheaper than two reductions at VCG sizes; np.fromiter would take "1.0" and True silently
        if new is None or not all(type(v) in (float, int) and 0.0 <= v < math.inf for v in values.values()):
            for aid, x in values.items():
                _check_field(x, f"ad {aid}: value", math.inf)  # names the first bad ad
            new = np.fromiter(values.values(), float, len(values))
        table = self._table.copy()
        table[0][self.indices(values)] = new
        np.multiply(table[1], table[0], out=table[3])
        return self._of(self.id_array, table, self.ladder)


def _leave_one_out_context(instance: AuctionInstance) -> AuctionInstance:
    """All n ads on the ladder of every instance that drops one of them, which keeps min(K, n-1) slots.

    Cutting trailing slots loses nothing: prominences of the remaining slots are unchanged and filling more
    slots than ads is impossible.  Needs n >= 2; the instance itself is returned when no slot is cut.
    """
    k = min(instance.num_slots, instance.num_ads - 1)
    if k == instance.num_slots:
        return instance
    return instance._of(instance.id_array, instance._table, SlotLadder(instance.ladder.factors[:k]))


@dataclass(frozen=True)
class Allocation:
    """An ordered assignment of ads to slots: ``slots`` lists ad ids from the top slot down.

    A left-aligned allocation of n ads occupies slots 1..n, a right-aligned one the last n slots,
    leaving the top slots empty (the scan passes through them with the bare slot factors).
    """

    slots: tuple[int, ...]
    right_aligned: bool = False

    def __post_init__(self) -> None:
        if len(set(self.slots)) != len(self.slots):
            raise InvalidAllocationError("allocation repeats an ad id")

    def __len__(self) -> int:
        return len(self.slots)


def slot_positions(instance: AuctionInstance, alloc: Allocation) -> tuple[int, ...]:
    """1-based slot index of each allocated ad, in allocation order."""
    n, k = len(alloc.slots), instance.num_slots
    if n > k:
        raise InvalidAllocationError(f"allocation has {n} ads but only {k} slots exist")
    first = k - n + 1 if alloc.right_aligned else 1
    return tuple(range(first, first + n))


def _ctrs(instance: AuctionInstance, alloc: Allocation) -> dict[int, float]:
    """Click-through rate of every allocated ad, by ad id (see ``ctr``)."""
    prom = instance.ladder.prominences
    _, quality, cont, _ = instance._lists
    out = {}
    through = 1.0
    for pos, aid, i in zip(slot_positions(instance, alloc), alloc.slots, instance.indices(alloc.slots)):
        out[aid] = quality[i] * prom[pos - 1] * through
        through *= cont[i]
    return out


def ctr(instance: AuctionInstance, alloc: Allocation, ad_id: int) -> float:
    """Click-through rate of one allocated ad under the full cascade model: its quality times its
    slot's prominence times the continuations of the ads above it.  NotAllocatedError if not allocated."""
    try:
        return _ctrs(instance, alloc)[ad_id]
    except KeyError:
        raise NotAllocatedError(f"ad {ad_id} is not allocated") from None


def social_welfare(instance: AuctionInstance, alloc: Allocation) -> float:
    """Expected welfare of an allocation: sum of weighted value times CTR weight."""
    prom = instance.ladder.prominences
    _, _, cont, wv = instance._lists
    index = instance._index
    total = 0.0
    through = 1.0
    try:  # a scalar loop over at most K ads, with the lookups inlined: it runs per rerun
        for pos, aid in zip(slot_positions(instance, alloc), alloc.slots):
            i = index[aid]
            total += wv[i] * (prom[pos - 1] * through)
            through *= cont[i]
    except KeyError as exc:
        raise InvalidAllocationError(f"unknown ad id {exc.args[0]}") from None
    return total


def _number(x: Any, path: str) -> float:
    """``float(x)`` for an int or float that is not a bool; ``path`` names ``x`` in an error."""
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        try:
            return float(x)
        except OverflowError:
            raise InstanceFormatError(f"{path}: integer too large for a float") from None
    raise InstanceFormatError(f"{path}: must be a number, got {x!r}")


def _check_entry(i: int, entry: Any) -> None:
    """Raises the first error of ``ads[i]``: its shape, then its field types, then its ranges."""
    if not isinstance(entry, dict):
        raise InstanceFormatError(f"ads[{i}]: must be an object")
    try:
        aid, *fields = (entry[key] for key in ("id", "v", "q", "c"))
    except KeyError as exc:
        raise InstanceFormatError(f"ads[{i}].{exc.args[0]}: missing required field") from None
    if not isinstance(aid, int) or isinstance(aid, bool) or not -(1 << 63) <= aid < 1 << 63:
        raise InstanceFormatError(f"ads[{i}].id: must be an integer within 64 bits, got {_shown(aid)}")
    fields = [_number(x, f"ads[{i}].{key}") for x, key in zip(fields, "vqc")]
    for x, name, hi in zip(fields, ("value", "quality", "continuation"), (math.inf, 1.0, 1.0)):
        _check_field(x, f"ads[{i}]: ad {aid}: {name}", hi)


def instance_from_dict(doc: Any) -> AuctionInstance:
    """Builds an instance from a parsed JSON document of the README's schema.  The ads are read a
    column at a time; on any error, one by one, so that each message starts with the path of the
    first bad element, e.g. ``lambdas[2]``, ``ads[3].v``, ``ads[3]``."""
    if not isinstance(doc, dict):
        raise InstanceFormatError("top-level document must be an object")
    for key in ("K", "lambdas", "ads"):
        if key not in doc:
            raise InstanceFormatError(f"{key}: missing required field")
    k = doc["K"]
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise InstanceFormatError(f"K: must be an integer >= 1, got {k!r}")
    lambdas = doc["lambdas"]
    if not isinstance(lambdas, list):
        raise InstanceFormatError("lambdas: must be an array")
    ladder = SlotLadder.from_factors([_number(f, f"lambdas[{i}]") for i, f in enumerate(lambdas)], num_slots=k)
    raw_ads = doc["ads"]
    if not isinstance(raw_ads, list):
        raise InstanceFormatError("ads: must be an array")
    try:
        columns = [[entry[key] for entry in raw_ads] for key in ("id", "v", "q", "c")]
        if (set(map(type, raw_ads)) <= {dict} and set(map(type, columns[0])) <= {int}
                and set(map(type, chain(*columns[1:]))) <= {int, float}):
            return AuctionInstance.from_columns(*columns, ladder)
    except (LookupError, TypeError, OverflowError, InstanceFormatError):
        pass
    for i, entry in enumerate(raw_ads):
        _check_entry(i, entry)
    return AuctionInstance.from_columns(*columns, ladder)  # raises the error no single entry has


def instance_to_dict(instance: AuctionInstance) -> dict[str, Any]:
    value, quality, cont, _ = instance._lists
    ads = [{"id": aid, "v": v, "q": q, "c": c} for aid, v, q, c in zip(instance.ids, value, quality, cont)]
    return {"K": instance.num_slots, "lambdas": [float(f) for f in instance.ladder.factors], "ads": ads}


def dump_instance(instance: AuctionInstance) -> str:
    """Canonical JSON serialization; identical instances give identical bytes."""
    return json.dumps(instance_to_dict(instance), sort_keys=True, separators=(",", ":"))


def load_instance(text: str) -> AuctionInstance:
    """Parses the JSON schema, raising InstanceFormatError with the parser's
    line/column, or with a field path (see ``instance_from_dict``)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise InstanceFormatError(f"invalid JSON: {exc}") from None
    return instance_from_dict(doc)
