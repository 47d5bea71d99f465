#!/usr/bin/env python
"""Quickstart: bring up the overlay, move a file, run a task.

This walks the three ingredients of the reproduction end to end:

1. the simulated PlanetLab testbed (broker + SC1..SC8),
2. the JXTA-Overlay platform (connect, transfer, execute), and
3. the paper's measurements (petition time, transmission time).

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro.experiments.scenario import ExperimentConfig, Session
from repro.units import fmt_minutes, fmt_seconds, mbit


def main() -> None:
    # One line wires the whole deployment the paper used: a Broker on
    # the nozomi cluster head and eight SimpleClients on PlanetLab
    # slivers across Europe.
    session = Session(ExperimentConfig(seed=42))

    def scenario(s: Session):
        broker = s.broker

        print(f"connected peers: {[r.adv.name for r in s.candidates()]}")

        # --- file transmission (the paper's measured workload) -------
        target = s.client("SC4").advertisement()
        outcome = yield s.sim.process(
            broker.transfers.send_file(
                target, "lecture-recording.avi", mbit(50), n_parts=4
            )
        )
        print(f"\n50 Mb to {target.name} in 4 parts:")
        print(f"  petition received after {fmt_seconds(outcome.petition_time)}")
        print(f"  transmission took       {fmt_seconds(outcome.transmission_time)}")
        print(f"  bulk attempts           {outcome.total_attempts}")

        # --- the straggler ---------------------------------------------
        sc7 = s.client("SC7").advertisement()
        slow = yield s.sim.process(
            broker.transfers.send_file(
                sc7, "lecture-recording.avi", mbit(50), n_parts=4
            )
        )
        print(f"\nsame transfer to the straggler {sc7.name}:")
        print(f"  petition received after {fmt_seconds(slow.petition_time)}")
        print(f"  transmission took       {fmt_seconds(slow.transmission_time)}")

        # --- task execution ---------------------------------------------
        task = yield s.sim.process(
            broker.tasks.submit(
                target, "transcode", ops=150.0, input_bits=mbit(25), input_parts=4
            )
        )
        print(f"\ntask on {target.name} (25 Mb input + 150 ops):")
        print(f"  input transfer {fmt_seconds(task.transfer_seconds)}")
        print(f"  execution      {fmt_seconds(task.busy_seconds)}")
        print(f"  end to end     {fmt_minutes(task.total_seconds)}")
        return None

    session.run(scenario)
    print(f"\nsimulated time elapsed: {fmt_minutes(session.sim.now)}")


if __name__ == "__main__":
    main()
