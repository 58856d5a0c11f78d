"""Figures 7–8: periodic probing.

``Send-Probes`` enforces the liveness constraint L1: every π time
units, an assigned processor probes everyone, collects acknowledgements
for 2δ, and triggers a new partition if the answering set differs from
its view.  ``Monitor-Probes`` answers probes carrying the *same*
partition id, ignores lower ones (stale messages), and reacts to higher
ones — a higher-id probe is unambiguous evidence that two different
virtual partitions can communicate and should merge.

Together these tasks give the paper's convergence bound Δ = π + 8δ
(measured by ``benchmarks/bench_liveness.py``).
"""

from __future__ import annotations


class ProbesMixin:
    """Failure/recovery detection through periodic probes."""

    def send_probes(self):
        """Fig. 7: probe every period π while assigned."""
        state = self.state
        config = self.config
        others = [pid for pid in sorted(self.all_pids) if pid != self.pid]
        sequence = 0
        if config.probe_phase is not None:
            phase = config.probe_phase(self.pid)
            if phase < 0:
                raise ValueError(f"negative probe phase {phase}")
            if phase:
                yield self.sim.timeout(phase)
        while True:
            if not state.assigned:
                yield self.sim.timeout(config.pi)
                continue
            current = state.cur_id
            responders = {self.pid}

            def accept(message, expect=sequence, seen=responders) -> bool:
                if message.payload["m"] != expect:
                    return False  # an ack for an earlier round
                seen.add(message.payload["from"])
                return True

            yield from self.processor.broadcast_collect(
                others, "probe",
                {"from": self.pid, "v": current, "m": sequence},
                reply_kind="probe-ack", window=config.probe_ack_wait,
                accept=accept,
            )
            # Fig. 7 line 21: any discrepancy triggers a new partition —
            # but only when this round's evidence is still *about* the
            # current partition.  If a view change landed while the acks
            # were in flight (we probed with the old id, so members of
            # the new partition ignored it), the responder set is stale;
            # reacting to it mints a fresh partition every round and the
            # views never settle.  A genuine discrepancy reappears in
            # the next round's probe, which carries the new id.
            if (state.assigned and state.cur_id == current
                    and responders != state.lview):
                self.create_new_vp()
            sequence += 1
            yield self.sim.timeout(config.pi - config.probe_ack_wait)

    def monitor_probes(self, message) -> None:
        """Fig. 8: answer, ignore, or react to one incoming probe."""
        state = self.state
        if not state.assigned:
            return
        probed_id = message.payload["v"]
        if probed_id == state.cur_id:
            self.processor.send(message.payload["from"], "probe-ack", {
                "from": self.pid, "m": message.payload["m"],
            })
        elif probed_id < state.cur_id:
            pass  # an old, delayed message — skip (Fig. 8 line 6)
        else:
            # Proof of cross-partition communication: merge.  The
            # probe's id has been "seen", so fold it into max-id
            # before minting the successor — otherwise the new
            # partition could carry a *lower* id than the probed one
            # and its invitations would be refused, costing extra
            # rounds beyond the Delta = pi + 8*delta bound.
            if state.max_id < probed_id:
                state.max_id = probed_id
            self.create_new_vp()
