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
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Iterable, Mapping

import numpy as np

__all__ = [
    "AuctionError",
    "NotAllocatedError",
    "InvalidAllocationError",
    "InstanceFormatError",
    "InstanceTooLargeError",
    "Ad",
    "SlotLadder",
    "AuctionInstance",
    "Allocation",
    "ctr",
    "social_welfare",
    "slot_positions",
    "instance_to_dict",
    "instance_from_dict",
    "dump_instance",
    "load_instance",
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
    """Raises InstanceFormatError starting with ``where`` unless x is a
    number in [0, hi] that fits a finite float."""
    try:
        ok = 0.0 <= x <= hi and math.isfinite(x)
    except (TypeError, OverflowError):
        ok = False
    if not ok:
        rule = "a finite number >= 0" if hi == math.inf else f"a number within [0, {hi:g}]"
        raise InstanceFormatError(f"{where} must be {rule}, got {_shown(x)}")


@dataclass(frozen=True)
class Ad:
    """A single ad with its private value and public user-model parameters.

    Attributes:
        id: Integer identifier, unique within an instance.
        value: Value per click to the advertiser, >= 0.
        quality: Click probability once the ad is looked at, in [0, 1].
        continuation: Probability the user keeps scanning past this ad,
            in [0, 1].
    """

    id: int
    value: float
    quality: float
    continuation: float

    def __post_init__(self) -> None:
        # ads are built by the thousand, so one cheap test comes first and
        # _check_field only runs to name the first bad field
        try:
            ok = (self.value >= 0.0 and math.isfinite(self.value)
                  and 0.0 <= self.quality <= 1.0 and 0.0 <= self.continuation <= 1.0)
        except (TypeError, OverflowError):
            ok = False
        if not ok:
            _check_field(self.value, f"ad {self.id}: value", math.inf)
            _check_field(self.quality, f"ad {self.id}: quality")
            _check_field(self.continuation, f"ad {self.id}: continuation")

    @property
    def weighted_value(self) -> float:
        """Expected value per impression: quality times value."""
        return self.quality * self.value


@dataclass(frozen=True)
class SlotLadder:
    """The slot side of the model: one continuation factor per slot.

    ``factors[s-1]`` is the probability the user moves from slot s to slot
    s+1, before multiplying in the continuation of the ad shown in slot s.
    The factor of the last slot is stored for round-tripping but never
    enters any welfare computation (there is no slot below it to reach).
    """

    factors: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.factors) == 0:
            raise InstanceFormatError("lambdas: a ladder needs at least one slot")
        for i, f in enumerate(self.factors):
            _check_field(f, f"lambdas[{i}]: factor")
        object.__setattr__(self, "factors", tuple(float(f) for f in self.factors))

    @classmethod
    def from_factors(cls, factors: Iterable[float], num_slots: int | None = None) -> "SlotLadder":
        """Builds a ladder from either K or K-1 factors.

        When K-1 factors are supplied for K slots the missing last factor is
        set to 0 (the scan cannot continue past the last slot).
        """
        fs = list(factors)
        if num_slots is not None:
            if len(fs) == num_slots - 1:
                fs.append(0.0)
            elif len(fs) != num_slots:
                raise InstanceFormatError(
                    f"lambdas: expected {num_slots} or {num_slots - 1} factors, got {len(fs)}"
                )
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
        """Probability of reaching each slot through empty slots above it.

        Entry s-1 is the product of the factors of slots 1..s-1; the first
        entry is 1.  Built on the first access, like effective_factors.
        """
        out = [1.0]
        for f in self.factors[:-1]:
            out.append(out[-1] * f)
        return tuple(out)

    @property
    def max_factor(self) -> float:
        """Largest factor of any slot that has a slot below it (0 if K=1)."""
        if self.num_slots == 1:
            return 0.0
        return max(self.factors[:-1])


@dataclass(frozen=True)
class AuctionInstance:
    """A set of ads plus a slot ladder.  Requires at least as many ads as slots."""

    ads: tuple[Ad, ...]
    ladder: SlotLadder
    # ad ids in ad order, and each id's position; both built once
    ids: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _index: dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "ads", tuple(self.ads))
        index = {ad.id: i for i, ad in enumerate(self.ads)}
        if len(index) != len(self.ads):
            repeated = next(ad.id for i, ad in enumerate(self.ads) if index[ad.id] != i)
            raise InstanceFormatError(f"ads: duplicate ad id {repeated}")
        if len(self.ads) < self.ladder.num_slots:
            raise InstanceFormatError(
                f"ads: need at least as many ads as slots, got {len(self.ads)} ads for {self.ladder.num_slots} slots"
            )
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "ids", tuple(index))

    @property
    def num_ads(self) -> int:
        return len(self.ads)

    @property
    def num_slots(self) -> int:
        return self.ladder.num_slots

    def ad(self, ad_id: int) -> Ad:
        try:
            return self.ads[self._index[ad_id]]
        except KeyError:
            raise InvalidAllocationError(f"unknown ad id {ad_id}") from None

    def __contains__(self, ad_id: int) -> bool:
        return ad_id in self._index

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(weighted_value, continuation) arrays in ad order, read-only.

        Built on the first call and shared by every later one.
        """
        return self._arrays

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        wv = np.array([ad.weighted_value for ad in self.ads], dtype=float)
        cont = np.array([ad.continuation for ad in self.ads], dtype=float)
        wv.flags.writeable = False
        cont.flags.writeable = False
        return wv, cont

    @cached_property
    def _id_array(self) -> np.ndarray:
        """``ids`` as a read-only int64 array."""
        out = np.array(self.ids, dtype=np.int64)
        out.flags.writeable = False
        return out

    def without(self, ad_id: int) -> "AuctionInstance":
        """Copy of the instance with one ad removed (ladder unchanged)."""
        if ad_id not in self._index:
            raise InvalidAllocationError(f"unknown ad id {ad_id}")
        kept = tuple(ad for ad in self.ads if ad.id != ad_id)
        return AuctionInstance(kept, self.ladder)

    def restricted_to(self, ids: Iterable[int]) -> "AuctionInstance":
        """Copy keeping only the given ad ids, in the original ad order."""
        keep = set(ids)
        kept = tuple(ad for ad in self.ads if ad.id in keep)
        return AuctionInstance(kept, self.ladder)

    def with_values(self, values: Mapping[int, float]) -> "AuctionInstance":
        """Copy with per-click values replaced (used for reported bids)."""
        new_ads = []
        for ad in self.ads:
            v = float(values.get(ad.id, ad.value))
            new_ads.append(Ad(ad.id, v, ad.quality, ad.continuation))
        return AuctionInstance(tuple(new_ads), self.ladder)


def _leave_one_out_context(instance: AuctionInstance) -> AuctionInstance:
    """All n ads on the ladder of every instance that drops one of them.

    With n-1 ads left the ladder keeps min(K, n-1) slots.  Cutting trailing
    slots loses nothing: prominences of the remaining slots are unchanged
    and filling more slots than ads is impossible.  Needs n >= 2; the
    instance itself is returned when no slot is cut.
    """
    k = min(instance.num_slots, instance.num_ads - 1)
    if k == instance.num_slots:
        return instance
    return AuctionInstance(instance.ads, SlotLadder(instance.ladder.factors[:k]))


@dataclass(frozen=True)
class Allocation:
    """An ordered assignment of ads to slots.

    ``slots`` lists ad ids from the top slot down.  A left-aligned
    allocation of n ads occupies slots 1..n.  A right-aligned one occupies
    the last n slots, leaving the top slots empty (the scan passes through
    empty slots with the bare slot factors).
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
    n = len(alloc.slots)
    k = instance.num_slots
    if n > k:
        raise InvalidAllocationError(f"allocation has {n} ads but only {k} slots exist")
    first = k - n + 1 if alloc.right_aligned else 1
    return tuple(range(first, first + n))


def _ctrs(instance: AuctionInstance, alloc: Allocation) -> dict[int, float]:
    """Click-through rate of every allocated ad, by ad id (see ``ctr``)."""
    positions = slot_positions(instance, alloc)
    prom = instance.ladder.prominences
    out = {}
    through = 1.0
    for pos, aid in zip(positions, alloc.slots):
        ad = instance.ad(aid)
        out[aid] = ad.quality * prom[pos - 1] * through
        through *= ad.continuation
    return out


def ctr(instance: AuctionInstance, alloc: Allocation, ad_id: int) -> float:
    """Click-through rate of one allocated ad under the full cascade model.

    Product of the ad's quality, the prominence of its slot, and the
    continuation probabilities of the ads allocated above it.

    Raises:
        NotAllocatedError: if the ad is not part of the allocation.
    """
    try:
        return _ctrs(instance, alloc)[ad_id]
    except KeyError:
        raise NotAllocatedError(f"ad {ad_id} is not allocated") from None


def social_welfare(instance: AuctionInstance, alloc: Allocation) -> float:
    """Expected welfare of an allocation: sum of weighted value times CTR weight."""
    positions = slot_positions(instance, alloc)
    prom = instance.ladder.prominences
    total = 0.0
    through = 1.0
    for pos, aid in zip(positions, alloc.slots):
        ad = instance.ad(aid)
        total += ad.weighted_value * (prom[pos - 1] * through)
        through *= ad.continuation
    return total


def _number(x: Any, path: str, *args: object) -> float:
    """``float(x)`` for an int or float that is not a bool; ``path.format(*args)`` names ``x`` in an error."""
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        try:
            return float(x)
        except OverflowError:
            raise InstanceFormatError(f"{path.format(*args)}: integer too large for a float") from None
    raise InstanceFormatError(f"{path.format(*args)}: must be a number, got {x!r}")


def instance_from_dict(doc: Any) -> AuctionInstance:
    """Builds an instance from a parsed JSON document of the README's schema.

    Only the document's shape and field types are checked here; ``Ad``,
    ``SlotLadder`` and ``AuctionInstance`` check the values (ranges, factor
    count, distinct ids, at least K ads).  Each error message starts with
    the path of the bad element, e.g. ``lambdas[2]``, ``ads[3].v``, ``ads[3]``.
    """
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
    factors = [_number(f, "lambdas[{}]", i) for i, f in enumerate(lambdas)]
    ladder = SlotLadder.from_factors(factors, num_slots=k)
    raw_ads = doc["ads"]
    if not isinstance(raw_ads, list):
        raise InstanceFormatError("ads: must be an array")
    ads = []
    for i, entry in enumerate(raw_ads):
        if not isinstance(entry, dict):
            raise InstanceFormatError(f"ads[{i}]: must be an object")
        try:
            aid, v, q, c = entry["id"], entry["v"], entry["q"], entry["c"]
        except KeyError as exc:
            raise InstanceFormatError(f"ads[{i}].{exc.args[0]}: missing required field") from None
        if not isinstance(aid, int) or isinstance(aid, bool):
            raise InstanceFormatError(f"ads[{i}].id: must be an integer, got {aid!r}")
        v = _number(v, "ads[{}].v", i)
        q = _number(q, "ads[{}].q", i)
        c = _number(c, "ads[{}].c", i)
        try:
            ads.append(Ad(aid, v, q, c))
        except InstanceFormatError as exc:
            raise InstanceFormatError(f"ads[{i}]: {exc}") from None
    return AuctionInstance(tuple(ads), ladder)


def instance_to_dict(instance: AuctionInstance) -> dict[str, Any]:
    return {
        "K": instance.num_slots,
        "lambdas": [float(f) for f in instance.ladder.factors],
        "ads": [
            {"id": ad.id, "v": ad.value, "q": ad.quality, "c": ad.continuation}
            for ad in instance.ads
        ],
    }


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
