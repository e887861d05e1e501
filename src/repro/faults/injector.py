"""Deterministic fault injection driven by a :class:`FaultPlan`.

The injector is the single source of fault randomness.  Its streams
and accounting are :class:`~repro.faults.plan.SeededInjector`'s, shared
with the storage-fault injector: every fault type draws from its own
named RNG stream (seeded from the plan seed + the stream name), so
enabling one fault never perturbs the draws of another -- a run with
``brownout_rate=0.1`` sees the same brownouts whether or not bit
errors are also enabled.  A rate of zero never touches its stream at
all, which is what keeps an inactive plan's simulation byte-identical
to a run with no plan.

Every injected fault is double-booked: into the injector's local
``counts`` (returned with degraded results so fault totals are part of
the deterministic payload) and into the ``faults.*`` observability
counters (visible in ``experiments stats`` when --obs is on).
"""

from __future__ import annotations

import random
from itertools import repeat, starmap
from typing import Any, Dict, Mapping, Optional, Tuple

from ..errors import FaultConfigError
from .plan import FaultPlan, SeededInjector


class FaultInjector(SeededInjector):
    """Replays the faults a :class:`FaultPlan` describes, deterministically.

    Args:
        plan: The fault plan to execute.

    Build one per simulation run: its RNG streams and stuck-sensor
    latches are stateful.
    """

    COUNTER_PREFIX = "faults"

    def __init__(self, plan: FaultPlan):
        super().__init__(plan)
        self._stuck: Dict[Tuple[int, str], Optional[int]] = {}

    # ------------------------------------------------------------------
    # State serialization (campaign checkpoints)
    # ------------------------------------------------------------------

    def export_state(self) -> Dict[str, Any]:
        """JSON-able snapshot: RNG streams, stuck latches, fault counts.

        The campaign runtime checkpoints this so a resumed run
        continues every fault stream mid-sequence and keeps sensors
        that latched months ago latched.
        """
        return {
            "streams": {
                name: [state[0], list(state[1]), state[2]]
                for name, state in sorted(
                    (n, s.getstate()) for n, s in self._streams.items()
                )
            },
            "stuck": [
                [node_id, channel, latched]
                for (node_id, channel), latched in sorted(self._stuck.items())
            ],
            "counts": dict(self.counts),
        }

    def restore_state(self, payload: Mapping[str, Any]) -> None:
        """Rebuild :meth:`export_state` output into this injector."""
        try:
            self._streams = {}
            for name, state in payload["streams"].items():
                stream = random.Random()
                stream.setstate(
                    (state[0], tuple(int(v) for v in state[1]), state[2])
                )
                self._streams[name] = stream
            self._stuck = {
                (int(node_id), str(channel)): latched
                for node_id, channel, latched in payload["stuck"]
            }
            self.counts = {
                str(k): int(v) for k, v in payload["counts"].items()
            }
        except (KeyError, TypeError, ValueError) as exc:
            raise FaultConfigError(f"malformed injector state: {exc!r}")

    # ------------------------------------------------------------------
    # Channel faults
    # ------------------------------------------------------------------

    def _flip_mask(self, width: int, ber: float, label: str) -> int:
        """The bits of a ``width``-bit frame the channel flips, as an XOR mask.

        Draws once per bit, MSB first, from the ``label`` stream, whether
        or not a bit flips, so the stream advances by ``width`` per frame
        at any nonzero ``ber``.  A zero rate or a zero width never draws.
        """
        if ber <= 0.0 or not width:
            return 0
        # starmap calls the bound method from C, so the per-bit draws
        # run no bytecode of their own.
        draws = list(starmap(self._stream(label).random, repeat((), width)))
        if min(draws) >= ber:
            return 0
        mask = 0
        for draw in draws:
            mask = (mask << 1) | (draw < ber)
        self.record(f"{label}_bits_flipped", bin(mask).count("1"))
        return mask

    def downlink_mask(self, width: int) -> int:
        """The flip mask of ``width`` bits of reader->node command frames."""
        return self._flip_mask(width, self.plan.downlink_ber, "downlink")

    def uplink_mask(self, width: int) -> int:
        """The flip mask of ``width`` bits of node->reader reply frames."""
        return self._flip_mask(width, self.plan.uplink_ber, "uplink")

    def drop_reply(self) -> bool:
        """True when an uplink reply vanishes in a deep fade."""
        hit = self._hit("reply_loss", self.plan.reply_loss_rate)
        if hit:
            self.record("replies_dropped")
        return hit

    def slot_jitter(self) -> bool:
        """True when the reader's slot timing slips this slot."""
        hit = self._hit("slot_jitter", self.plan.slot_jitter_rate)
        if hit:
            self.record("jittered_slots")
        return hit

    # ------------------------------------------------------------------
    # Power faults
    # ------------------------------------------------------------------

    def brownout(self) -> bool:
        """True when a node browns out this round (draw once per node)."""
        hit = self._hit("brownout", self.plan.brownout_rate)
        if hit:
            self.record("brownouts")
        return hit

    def victim_slot(self, n_slots: int) -> int:
        """The slot at which a browned-out node's supply collapses."""
        if n_slots <= 1:
            return 0
        return self._stream("brownout_slot").randrange(n_slots)

    def reader_dropout(self) -> bool:
        """True when one CBW charge attempt fails at the reader."""
        hit = self._hit("reader_dropout", self.plan.reader_dropout_rate)
        if hit:
            self.record("reader_dropouts")
        return hit

    # ------------------------------------------------------------------
    # Sensor faults
    # ------------------------------------------------------------------

    def latch_stuck(self, report):
        """Apply the stuck-at fault model to one sensor report.

        The first read of a (node, channel) pair decides -- once, from
        the ``stuck`` stream -- whether that sensor is a stuck-at unit;
        a stuck sensor latches its first raw reading and repeats it on
        every later read.  Healthy sensors pass through untouched.
        """
        rate = self.plan.stuck_sensor_rate
        if rate <= 0.0:
            return report
        from ..protocol.packets import SensorReport

        key = (report.node_id, report.channel)
        if key not in self._stuck:
            stuck = self._stream("stuck").random() < rate
            # A stuck unit latches this very first reading.
            self._stuck[key] = report.raw if stuck else None
            return report
        latched = self._stuck[key]
        if latched is None:
            return report
        self.record("stuck_reads")
        return SensorReport(
            node_id=report.node_id, channel=report.channel, raw=latched
        )
