"""Campaign child: runs or resumes the pilot and reports each epoch start.

Usage (launched by the pilot workload, never by hand)::

    python3 perfbench/sut_campaign.py fresh|resume STATE STORE SEED KILL_AT TRACE

Protocol on stdout/stdin (see :mod:`common`):

* ``{"imported": ..}`` once ``import repro`` returns;
* ``{"hook": epoch, "t": .., "cpu": ..}`` on every ``epoch_hook`` call,
  with this process's CPU clock (``time.process_time()``).  The first
  hook of the process and the hook at epoch ``KILL_AT`` block until the
  parent answers ``{"go": true}``, so the parent can read this
  process's ``/proc`` counters (and SIGKILL it) on an exact boundary;
  the child then reports ``{"start": epoch, "t": .., "cpu": ..}``;
* ``{"done": .., "t": .., "cpu": ..}`` when ``run`` returns, then it blocks again
  until the parent answers ``{"exit": true}``.

A parent message ``{"spans": true}`` at any block makes a traced child
send its spans first.
"""

from __future__ import annotations

import sys
import time


def main(argv: list) -> int:
    mode, state_dir, store_dir, seed, kill_at, traced = argv
    from common import Channel, import_repro_here

    channel = Channel()
    import_repro_here()
    started = time.monotonic()
    import repro  # noqa: F401  (the measured import)
    imported = time.monotonic()
    from repro.campaign.config import CampaignConfig
    from repro.campaign.driver import resume_campaign, run_campaign

    tracer = None
    if traced == "1":
        from spans import CAMPAIGN_CALLS, Tracer

        tracer = Tracer()
        tracer.install(CAMPAIGN_CALLS)
    channel.send(imported=True, import_s=imported - started, t=imported)

    def wait_for(key: str) -> None:
        while True:
            msg = channel.recv()
            if msg is None:
                sys.exit(3)  # parent went away
            if msg.get("spans") and tracer is not None:
                channel.send(spans=tracer.spans)
                continue
            if msg.get(key):
                return

    first = [True]
    epoch_span = [None]

    def hook(epoch: int) -> None:
        now = time.monotonic()
        if tracer is not None and epoch_span[0] is not None:
            tracer.end(epoch_span[0])
        channel.send(hook=epoch, t=now, cpu=time.process_time())
        if first[0] or epoch == int(kill_at):
            first[0] = False
            wait_for("go")
            channel.send(start=epoch, t=time.monotonic(), cpu=time.process_time())
        if tracer is not None:
            tracer.tag = epoch
            epoch_span[0] = tracer.begin("campaign.epoch", "campaign")

    if mode == "fresh":
        outcome = run_campaign(
            CampaignConfig(seed=int(seed)), state_dir=state_dir,
            epoch_hook=hook, store_dir=store_dir,
        )
    else:
        outcome = resume_campaign(state_dir, epoch_hook=hook, store_dir=store_dir)
    now = time.monotonic()
    if tracer is not None:
        tracer.end(epoch_span[0])
    channel.send(done=outcome.completed, t=now, cpu=time.process_time())
    wait_for("exit")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
