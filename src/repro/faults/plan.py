"""Fault plans: declarative, seedable descriptions of a hostile channel.

The 17-month footbridge pilot survives a physical reality the clean
simulators never exercise: charge-starved brownouts, off-resonance
links that flip bits, a reader whose CBW blast occasionally fails, and
sensors that silently latch.  A :class:`FaultPlan` captures those
failure modes as *rates* so any simulator can accept one plan object,
and the :class:`~repro.faults.injector.FaultInjector` built from it
replays the same faults for the same seed -- fault runs are as
reproducible as clean runs.

All rates are probabilities in [0, 1]:

* ``downlink_ber`` / ``uplink_ber`` -- per-bit flip probability on
  reader commands / node replies (corruption is caught by the Gen2
  CRCs, exercising ``protocol.crc`` on the live TDMA path);
* ``reply_loss_rate`` -- a reply vanishes entirely (deep fade);
* ``brownout_rate`` -- per node per round, the harvested supply
  collapses mid-round and the node forgets its protocol state;
* ``reader_dropout_rate`` -- a CBW charge attempt fails outright
  (cable knock, amplifier trip); the session retries with backoff;
* ``slot_jitter_rate`` -- the reader samples the wrong uplink window
  for a slot and hears nothing;
* ``stuck_sensor_rate`` -- per (node, channel), the sensor latches its
  first reading forever (stuck-at fault).

A plan with every rate at zero is *inactive*: simulators take the
exact code path they take with no plan at all, so golden snapshots
stay byte-identical.

Each job the fault plans share is implemented once below, in
:func:`strict_fields`, :class:`PlanFile`, :class:`RatePlan` and
:class:`SeededInjector`.  The campaign, fleet and chaos configs share
two more: :func:`strict_fields` parses them, and :func:`option` with
:func:`check_options` declares and checks their settable fields.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any, ClassVar, Dict, Mapping, NamedTuple, Optional, Tuple, Type, Union,
)

from ..errors import FaultConfigError, FaultPlanError
from ..obs import obs_counter, obs_enabled

#: Field names that hold probabilities (everything except the seed).
RATE_FIELDS = (
    "downlink_ber",
    "uplink_ber",
    "reply_loss_rate",
    "brownout_rate",
    "reader_dropout_rate",
    "slot_jitter_rate",
    "stuck_sensor_rate",
)

#: Schema tag written into serialized plans.
FAULT_PLAN_SCHEMA = "repro/fault-plan/v1"


def strict_fields(
    cls: type,
    payload: Any,
    what: str,
    schema: Optional[str] = None,
    error: Type[Exception] = FaultConfigError,
) -> Dict[str, Any]:
    """The constructor kwargs for dataclass ``cls`` in ``payload``, strictly.

    ``payload`` must be an object.  When ``schema`` is given, a
    ``"schema"`` key is optional but must equal it; without one a
    ``"schema"`` key is an unknown field.  Every other key must name a
    field of ``cls``, and every field without a default must be
    present.  Violations raise ``error`` naming ``what``.
    """
    if not isinstance(payload, Mapping):
        raise error(f"{what} must be an object, got {type(payload).__name__}")
    kwargs = dict(payload)
    if schema is not None:
        tag = kwargs.pop("schema", schema)
        if tag != schema:
            raise error(
                f"unsupported {what} schema {tag!r} (expected {schema!r})"
            )
    fields = dataclasses.fields(cls)
    known = sorted(f.name for f in fields)
    unknown = sorted(set(kwargs) - set(known))
    if unknown:
        raise error(f"unknown {what} field(s) {unknown}; known: {known}")
    missing = [
        f.name
        for f in fields
        if f.name not in kwargs
        and f.default is dataclasses.MISSING
        and f.default_factory is dataclasses.MISSING
    ]
    if missing:
        raise error(f"missing {what} field(s) {missing}")
    return kwargs


#: The bounds a numeric :func:`option` can carry, by the test its
#: value must pass.
POSITIVE = "positive"
NON_NEGATIVE = "non-negative"
PROBABILITY = "a probability in [0, 1]"
_BOUNDS = {
    POSITIVE: lambda value: value > 0,
    NON_NEGATIVE: lambda value: value >= 0,
    PROBABILITY: lambda value: 0 <= value <= 1,
}


class Option(NamedTuple):
    """What :func:`option` records on a config field besides its default."""

    bound: Union[None, str, Tuple[str, ...]]
    help: Optional[str]
    flag: bool


def option(
    default: Union[int, float, str],
    bound: Union[None, str, Tuple[str, ...]] = None,
    help: Optional[str] = None,
    *,
    flag: bool = True,
) -> Any:
    """A config field that is one settable option, declared once.

    The default's type is the option's type: ``int``, ``float`` or
    ``str``.  A number's ``bound`` is :data:`POSITIVE`,
    :data:`NON_NEGATIVE`, :data:`PROBABILITY` or None; a str's is the
    tuple of its allowed values.  The CLI derives the option's flag
    from the field -- name, type, default, ``help`` and choices --
    unless ``flag`` is False.  :func:`check_options` checks the value.
    """
    return dataclasses.field(
        default=default, metadata={"option": Option(bound, help, flag)}
    )


def options(cls: type) -> Tuple[Tuple[dataclasses.Field, Option], ...]:
    """Each :func:`option` field of dataclass ``cls`` with its spec, in order."""
    return tuple(
        (f, f.metadata["option"])
        for f in dataclasses.fields(cls)
        if "option" in f.metadata
    )


def check_options(config: Any, error: Type[Exception]) -> None:
    """Check every :func:`option` field of ``config``, raising ``error``.

    An int option takes an ``int`` and a float option a finite ``int``
    or ``float``, neither a ``bool``; then the value must meet the
    bound.  A str option takes one of its allowed values.  A value that
    passes is stored as it came, so serialized configs do not change.
    """
    for f, spec in options(type(config)):
        value = getattr(config, f.name)
        kind = type(f.default)
        if kind is str:
            if value not in spec.bound:
                raise error(f"unknown {f.name} {value!r}; options: {spec.bound}")
            continue
        if kind is float:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise error(f"{f.name} must be a number, got {value!r}")
            if not math.isfinite(value):
                raise error(f"{f.name} must be finite, got {value!r}")
        elif isinstance(value, bool) or not isinstance(value, int):
            raise error(f"{f.name} must be an int, got {value!r}")
        if spec.bound is not None and not _BOUNDS[spec.bound](value):
            raise error(f"{f.name} must be {spec.bound}, got {value!r}")


class PlanFile:
    """JSON-file I/O for a plan class with ``from_dict``/``to_dict``."""

    @classmethod
    def from_json_file(cls, path: Union[str, Path]):
        """Load a plan from a JSON file (the CLI plan-file format)."""
        path = Path(path)
        try:
            payload = json.loads(path.read_text())
        except OSError as exc:
            raise FaultConfigError(f"cannot read {path}: {exc}")
        except ValueError as exc:
            raise FaultConfigError(f"{path} is not valid JSON: {exc}")
        return cls.from_dict(payload)

    def to_json_file(self, path: Union[str, Path]) -> None:
        """Write the plan as JSON (round-trips with :meth:`from_json_file`)."""
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True)
        )


@dataclass(frozen=True)
class RatePlan(PlanFile):
    """A seed plus probability fields: the rate model fault plans share.

    A subclass declares its probability fields after ``seed`` and sets
    three class attributes: ``SCHEMA``, the tag its dicts carry;
    ``KIND``, the noun its parse errors use; and ``RATES``, the fields
    that make a plan active and that :meth:`scaled` multiplies.  A
    probability outside ``RATES`` shapes *how* a fault fails, not how
    often, so it neither activates nor scales a plan.

    Every field is an :func:`option`: the seed an int, each probability
    a :data:`PROBABILITY`.  A value that fails :func:`check_options`
    raises :class:`~repro.errors.FaultPlanError` (a
    :class:`~repro.errors.FaultConfigError`).
    """

    SCHEMA: ClassVar[str]
    KIND: ClassVar[str]
    RATES: ClassVar[Tuple[str, ...]]

    seed: int = option(0)

    def __post_init__(self) -> None:
        check_options(self, FaultPlanError)

    @classmethod
    def probabilities(cls) -> Tuple[str, ...]:
        """Every field but the seed, in declaration order."""
        return tuple(f.name for f in dataclasses.fields(cls)[1:])

    # ------------------------------------------------------------------
    # Derived plans
    # ------------------------------------------------------------------

    @classmethod
    def none(cls) -> "RatePlan":
        """The inactive plan (every rate zero)."""
        return cls()

    @property
    def active(self) -> bool:
        """True when any fault rate is nonzero."""
        return any(getattr(self, name) > 0.0 for name in self.RATES)

    def scaled(self, intensity: float) -> "RatePlan":
        """This plan with every rate multiplied by ``intensity``.

        Rates clamp at 1.0; ``intensity=0`` yields an inactive plan, so
        a fault sweep's zero point runs the exact clean code path.

        ``intensity`` must be a finite non-negative real number --
        NaN/inf would silently saturate every rate through the clamp
        (``min(1.0, nan)`` is 1.0), turning a bad input into a
        plausible-looking catastrophic plan, so both are rejected with
        :class:`~repro.errors.FaultPlanError` instead.
        """
        if not isinstance(intensity, (int, float)) or isinstance(intensity, bool):
            raise FaultPlanError(
                f"intensity must be a number, got {intensity!r}"
            )
        if math.isnan(intensity) or math.isinf(intensity):
            raise FaultPlanError(f"intensity must be finite, got {intensity}")
        if intensity < 0.0:
            raise FaultPlanError(f"intensity cannot be negative: {intensity}")
        rates = {
            name: min(1.0, getattr(self, name) * intensity)
            for name in self.RATES
        }
        return dataclasses.replace(self, **rates)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dict: the schema tag, then every field in order."""
        payload: Dict[str, Any] = {"schema": self.SCHEMA}
        for f in dataclasses.fields(self):
            payload[f.name] = getattr(self, f.name)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RatePlan":
        """Build a plan from a dict, rejecting unknown keys loudly."""
        return cls(**strict_fields(cls, payload, cls.KIND, cls.SCHEMA))


class SeededInjector:
    """Named RNG streams and fault accounting for one :class:`RatePlan`.

    Every fault type draws from its own stream, seeded from
    ``"{plan.seed}:{name}"``, so enabling one fault never perturbs the
    draws of another, and a rate of zero never touches its stream.
    Every injected fault is booked twice: into ``counts`` and, when obs
    is on, into the ``<COUNTER_PREFIX>.<name>`` counter.

    Build one per run (the streams are stateful); :meth:`from_plan`
    returns None for absent or inactive plans so call sites can keep a
    fast no-fault path.
    """

    COUNTER_PREFIX: ClassVar[str]

    def __init__(self, plan: RatePlan):
        self.plan = plan
        self.counts: Dict[str, int] = {}
        self._streams: Dict[str, random.Random] = {}

    @classmethod
    def from_plan(cls, plan: Optional[RatePlan]) -> Optional["SeededInjector"]:
        """An injector for ``plan``, or None when there is nothing to inject."""
        if plan is None or not plan.active:
            return None
        return cls(plan)

    def _stream(self, name: str) -> random.Random:
        """The named RNG stream (created on first use, seed-stable)."""
        stream = self._streams.get(name)
        if stream is None:
            stream = random.Random(f"{self.plan.seed}:{name}")
            self._streams[name] = stream
        return stream

    def record(self, name: str, count: int = 1) -> None:
        """Book ``count`` occurrences of fault ``name`` (local + obs)."""
        if count <= 0:
            return
        self.counts[name] = self.counts.get(name, 0) + count
        if obs_enabled():
            obs_counter(f"{self.COUNTER_PREFIX}.{name}").inc(count)

    def _hit(self, stream: str, rate: float) -> bool:
        """One Bernoulli draw from ``stream``; zero rates never draw."""
        return rate > 0.0 and self._stream(stream).random() < rate


@dataclass(frozen=True)
class FaultPlan(RatePlan):
    """A seedable description of every fault the stack can inject.

    Args:
        seed: Seed for the fault RNG streams (independent of the
            simulator seeds, so the same protocol run can be replayed
            under different fault draws and vice versa).
        downlink_ber: Per-bit flip probability, reader -> node.
        uplink_ber: Per-bit flip probability, node -> reader.
        reply_loss_rate: Probability an uplink reply is lost entirely.
        brownout_rate: Per-node-per-round probability of a mid-round
            supply collapse.
        reader_dropout_rate: Probability one CBW charge attempt fails.
        slot_jitter_rate: Probability a slot's timing slips and the
            reader hears nothing that slot.
        stuck_sensor_rate: Per-(node, channel) probability the sensor
            is a stuck-at unit that latches its first reading.
    """

    SCHEMA = FAULT_PLAN_SCHEMA
    KIND = "fault-plan"
    RATES = RATE_FIELDS

    downlink_ber: float = option(0.0, PROBABILITY)
    uplink_ber: float = option(0.0, PROBABILITY)
    reply_loss_rate: float = option(0.0, PROBABILITY)
    brownout_rate: float = option(0.0, PROBABILITY)
    reader_dropout_rate: float = option(0.0, PROBABILITY)
    slot_jitter_rate: float = option(0.0, PROBABILITY)
    stuck_sensor_rate: float = option(0.0, PROBABILITY)


def ber_from_snr_db(snr_db: float) -> float:
    """Coherent-detection bit error rate at a given in-band SNR (dB).

    The standard BPSK/OOK-style waterline ``0.5 * erfc(sqrt(Es/N0))``;
    the anchor for deriving packet-corruption rates from a link budget
    instead of guessing them.

    >>> ber_from_snr_db(40.0) < 1e-12
    True
    """
    es_n0 = 10.0 ** (snr_db / 10.0)
    return 0.5 * math.erfc(math.sqrt(es_n0))


def plan_from_link_budget(
    link: Any,
    distance: float,
    tx_voltage: float,
    seed: int = 0,
    **overrides: float,
) -> FaultPlan:
    """Derive a fault plan from a charging-link budget.

    Maps the harvested headroom at ``distance`` (dB above the
    activation threshold, :func:`repro.link.harvested_headroom_db`) to
    a symmetric bit error rate via :func:`ber_from_snr_db`, so packet
    corruption tracks the same physics as the power-up range.  Nodes
    near the edge of the charge envelope also brown out: the brownout
    rate ramps from 0 (>= 10 dB headroom) to 0.25 (0 dB).

    Extra keyword rates (e.g. ``reply_loss_rate=0.05``) are applied on
    top of the derived ones.
    """
    from ..link.budget import harvested_headroom_db

    headroom_db = harvested_headroom_db(link, distance, tx_voltage)
    ber = ber_from_snr_db(headroom_db)
    brownout = min(0.25, max(0.0, (10.0 - headroom_db) / 10.0 * 0.25))
    rates: Dict[str, float] = {
        "downlink_ber": min(1.0, ber),
        "uplink_ber": min(1.0, ber),
        "brownout_rate": brownout,
    }
    rates.update(overrides)
    return FaultPlan(seed=seed, **rates)
