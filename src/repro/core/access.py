"""Rules R1–R4: logical reads/writes and the physical access server.

Implements Figures 10 (``Logical-Read``), 11 (``Logical-Write``) and 12
(``Physical-Access``), integrated with strict two-phase locking on
copies (the concurrency control protocol assumed by §6's optimization
discussion) and a prepare round at commit so that rule R4 holds even
when a server joins a new partition after acknowledging an access —
without the prepare round, a coordinator whose own view never changed
could commit a transaction whose write was force-aborted elsewhere.

The mixin expects the protocol façade to provide: ``processor``,
``pid``, ``sim``, ``state``, ``placement``, ``directory``, ``config``,
``history``, ``locks``, ``metrics``, ``distance(pid)``, and
``create_new_vp()``.

Client-side routing (which copy do I read? which copies take the
write? is the object accessible from here?) goes through the
``directory``; server-side checks — the R4 vote and the weakened-R4
screen — stay on the authoritative ``placement``, because a vote must
not depend on the voter's cache temperature.
"""

from __future__ import annotations

from typing import Any

from ..node.processor import NoResponse
from .errors import AccessAborted

#: payload reasons a server may reject a physical access with
REJECT_WRONG_PARTITION = "wrong-partition"
REJECT_LOCK_TIMEOUT = "lock-timeout"
REJECT_POISONED = "txn-poisoned"
#: the request was routed on a placement epoch that a concurrent
#: reshard has since flipped (or reached a processor that retired its
#: copy): the client must abort and retry on the new placement
REJECT_STALE_PLACEMENT = "stale-placement"


class AccessMixin:
    """Client-side logical operations + server-side physical access."""

    # ------------------------------------------------------------------
    # client side: Fig. 10 — Logical-Read
    # ------------------------------------------------------------------

    def logical_read(self, obj: str, ctx):
        """Read the nearest available copy of ``obj`` (rules R1 + R2)."""
        self.metrics.logical_reads += 1
        state = self.state
        if not (state.assigned and self.directory.accessible(obj, state.lview)):
            self.metrics.abort("r", "inaccessible")
            raise AccessAborted(obj, "inaccessible")
        candidates = self.directory.read_candidates(
            obj, state.lview, self.distance
        )
        if not candidates:
            self.metrics.abort("r", "no-copy-in-view")
            raise AccessAborted(obj, "no copy in view")
        vpid = state.cur_id
        # R4 stamp: remember which placement epoch this access routed
        # on; servers reject mismatches and the commit vote re-checks.
        ctx.placement_epochs[obj] = self.directory.route_epoch(obj)
        attempts = candidates if self.config.read_retry else candidates[:1]
        last_reason = "no-response"
        for server in attempts:
            try:
                response = yield from self._read_rpc(obj, server, vpid, ctx)
            except NoResponse:
                last_reason = "no-response"
                if state.cur_id != vpid or not state.assigned:
                    break
                continue  # R2: retry the next-nearest copy
            payload = response.payload
            if payload["ok"]:
                value = payload["value"]
                self.history.record_logical(
                    time=self.sim.now, txn=ctx.txn_id, kind="r", obj=obj,
                    value=value, version=payload["version"],
                )
                if self.auditor is not None:
                    self.auditor.on_logical_access(
                        time=self.sim.now, pid=self.pid, txn=ctx.txn_id,
                        kind="r", obj=obj, vpid=vpid, targets=(server,),
                        epoch=ctx.placement_epochs.get(obj, 0),
                    )
                ctx.note_access("r", obj, server, vpid)
                ctx.read_versions[obj] = (payload["version"], self.sim.now)
                return value
            last_reason = payload["reason"]
            if last_reason != REJECT_LOCK_TIMEOUT:
                break  # partition mismatch: retrying elsewhere won't help
            break  # lock timeout = probable deadlock; abort to break it
        if last_reason == "no-response":
            # Fig. 10 line 5: a silent copy means the view is stale —
            # unless the view already changed while the read was in
            # flight: then the silence is explained by the transition
            # (servers hold accesses while copies are locked), a
            # successor partition already exists, and minting another
            # would churn views under steady retry load.
            if state.assigned and state.cur_id == vpid:
                self.create_new_vp()
        self.metrics.abort("r", last_reason)
        raise AccessAborted(obj, last_reason)

    def _read_rpc(self, obj: str, server: int, vpid, ctx):
        if server == self.pid:
            self.metrics.local_reads += 1
        self.metrics.physical_read_rpcs += 1
        response = yield from self.processor.rpc(
            server, "read",
            {"obj": obj, "v": vpid, "txn": ctx.txn_id,
             "ts": ctx.timestamp,
             "pe": ctx.placement_epochs.get(obj, 0)},
            timeout=self.config.access_timeout,
        )
        return response

    # ------------------------------------------------------------------
    # client side: Fig. 11 — Logical-Write
    # ------------------------------------------------------------------

    def logical_write(self, obj: str, value: Any, ctx):
        """Write every copy of ``obj`` in the view (rules R1 + R3)."""
        self.metrics.logical_writes += 1
        state = self.state
        if not (state.assigned and self.directory.accessible(obj, state.lview)):
            self.metrics.abort("w", "inaccessible")
            raise AccessAborted(obj, "inaccessible")
        vpid = state.cur_id
        version = ctx.next_version()
        ctx.placement_epochs[obj] = self.directory.route_epoch(obj)
        route_epoch = ctx.placement_epochs[obj]
        targets, call = self.processor.scatter_to_copies(
            self.directory, obj, state.lview, "write",
            lambda _server: {"obj": obj, "value": value, "v": vpid,
                             "txn": ctx.txn_id, "ts": ctx.timestamp,
                             "version": version, "pe": route_epoch},
            timeout=self.config.access_timeout,
            label=f"write({obj})",
        )
        self.metrics.physical_write_rpcs += len(targets)
        results = yield from call.gather()
        outcomes = []
        for server in targets:
            reply = results[server]
            if reply is None:
                outcomes.append(("no-response", server))
            elif reply["ok"]:
                outcomes.append(("ok", server))
            else:
                outcomes.append((reply["reason"], server))
        failures = [o for o in outcomes if o[0] != "ok"]
        if failures:
            reason = failures[0][0]
            if reason == "no-response":
                # Fig. 11 line 8: an unresponsive copy triggers a new
                # VP — but only when the view is still the one the
                # write was issued in (see logical_read: silence during
                # a transition is stale evidence, not a new failure).
                if state.assigned and state.cur_id == vpid:
                    self.create_new_vp()
            for status, server in outcomes:
                if status == "ok":
                    ctx.note_access("w", obj, server, vpid)
            ctx.poison(f"write {obj!r} failed at "
                       f"{sorted(s for _, s in failures)}: {reason}")
            self.metrics.abort("w", reason)
            raise AccessAborted(obj, reason)
        for _status, server in outcomes:
            ctx.note_access("w", obj, server, vpid)
        self.history.record_logical(
            time=self.sim.now, txn=ctx.txn_id, kind="w", obj=obj,
            value=value, version=version,
        )
        if self.auditor is not None:
            self.auditor.on_logical_access(
                time=self.sim.now, pid=self.pid, txn=ctx.txn_id,
                kind="w", obj=obj, vpid=vpid, targets=tuple(targets),
                epoch=route_epoch,
            )
        return None

    # ------------------------------------------------------------------
    # commit protocol (R4 validation + decision distribution)
    # ------------------------------------------------------------------
    # The whole atomic-commit phase lives in the pluggable backend
    # (``self.commit``, a :class:`~repro.commit.base.AtomicCommit`
    # chosen by ``ProtocolConfig.commit_backend``): the prepare round,
    # the decision log, the decide fan-out, and in-doubt resolution.
    # The host keeps what is replica-control business — the R4 vote,
    # before-images, poisoning, and decision application.

    def prepare_commit(self, ctx):
        """Validate R4 across all participants (one voting round)."""
        return self.commit.prepare_commit(ctx)

    def end_transaction(self, ctx, outcome: str):
        """Distribute the decision; participants release locks (strict
        2PL)."""
        return self.commit.end_transaction(ctx, outcome)

    def available(self, obj: str, write: bool) -> bool:
        """R1 as a pure predicate (reads and writes gate identically)."""
        return (self.state.assigned
                and self.directory.accessible(obj, self.state.lview))

    # ------------------------------------------------------------------
    # server side: Fig. 12 — Physical-Access
    # ------------------------------------------------------------------

    def serve_physical_access(self) -> None:
        """Register the request handlers: one process per access.

        Reads and writes are the host's (each spawns a handler process,
        since it may wait on the R5 gate and its lock); everything else
        comes from the commit backend's ``handlers()`` map, whose
        handlers answer inline or spawn their own processes.
        """
        processor = self.processor
        processor.serve("read", self._handle_read, process="serve-read")
        processor.serve("write", self._handle_write, process="serve-write")
        for kind, handler in self.commit.handlers().items():
            processor.serve(kind, handler)

    def _handle_read(self, message):
        payload = message.payload
        obj, vpid, txn = payload["obj"], payload["v"], payload["txn"]
        state = self.state
        # Fig. 12: wait until (l not in locked) — the R5 gate.
        yield from state.locked_changed.wait_for(
            lambda: obj not in state.locked
        )
        if not (state.assigned and vpid == state.cur_id):
            self.processor.reply(message, "read-reply",
                                 {"ok": False,
                                  "reason": REJECT_WRONG_PARTITION})
            return
        if self._placement_stale(obj, payload):
            self.processor.reply(message, "read-reply",
                                 {"ok": False,
                                  "reason": REJECT_STALE_PLACEMENT})
            return
        granted, cc_reason = yield from self.cc.begin_read(
            txn, payload.get("ts"), obj)
        if not granted:
            self.processor.reply(message, "read-reply",
                                 {"ok": False,
                                  "reason": cc_reason or REJECT_LOCK_TIMEOUT})
            return
        if not (state.assigned and vpid == state.cur_id):
            # The partition changed while we waited for the lock.
            self.processor.reply(message, "read-reply",
                                 {"ok": False,
                                  "reason": REJECT_WRONG_PARTITION})
            return
        if self._placement_stale(obj, payload):
            # A reshard flipped the placement while we waited for the
            # lock; the abort releases it (strict 2PL).
            self.processor.reply(message, "read-reply",
                                 {"ok": False,
                                  "reason": REJECT_STALE_PLACEMENT})
            return
        value, date = self.processor.store.read(obj)
        version = self.processor.store.version(obj)
        self.history.record_physical(
            time=self.sim.now, txn=txn, kind="r", obj=obj,
            copy_pid=self.pid, value=value, version=version, vpid=vpid,
        )
        if self.auditor is not None:
            self.auditor.on_physical_access(
                time=self.sim.now, pid=self.pid, txn=txn, kind="r",
                obj=obj, vpid=vpid, state=state,
            )
        self.processor.reply(message, "read-reply",
                             {"ok": True, "value": value, "date": date,
                              "version": version})

    def _handle_write(self, message):
        payload = message.payload
        obj, vpid, txn = payload["obj"], payload["v"], payload["txn"]
        value, version = payload["value"], payload["version"]
        state = self.state
        # Writes additionally wait out the reshard write gate: the §6
        # catch-up installing the new copy must see a quiescent value.
        yield from state.locked_changed.wait_for(
            lambda: obj not in state.locked and obj not in state.migrating
        )
        if not (state.assigned and vpid == state.cur_id):
            self.processor.reply(message, "write-reply",
                                 {"ok": False,
                                  "reason": REJECT_WRONG_PARTITION})
            return
        if self._placement_stale(obj, payload):
            self.processor.reply(message, "write-reply",
                                 {"ok": False,
                                  "reason": REJECT_STALE_PLACEMENT})
            return
        granted, cc_reason = yield from self.cc.begin_write(
            txn, payload.get("ts"), obj)
        if not granted:
            self.processor.reply(message, "write-reply",
                                 {"ok": False,
                                  "reason": cc_reason or REJECT_LOCK_TIMEOUT})
            return
        if not (state.assigned and vpid == state.cur_id):
            self.processor.reply(message, "write-reply",
                                 {"ok": False,
                                  "reason": REJECT_WRONG_PARTITION})
            return
        if (obj in state.migrating or self.placement.pending_copies(obj)
                or self._placement_stale(obj, payload)):
            # The gate closed (or the flip landed) while we waited for
            # the lock: letting this write through would miss the copy
            # just installed elsewhere.  Reject; the abort releases the
            # lock and the client retries on the new placement.  The
            # pending-migration fence backs up the volatile gate: a
            # holder that crashed and recovered mid-migration forgets
            # ``migrating``, but the staged placement still names the
            # object until the flip, so no write slips in through the
            # amnesia window.
            self.processor.reply(message, "write-reply",
                                 {"ok": False,
                                  "reason": REJECT_STALE_PLACEMENT})
            return
        if txn in self._poisoned_txns:
            self.processor.reply(message, "write-reply",
                                 {"ok": False, "reason": REJECT_POISONED})
            return
        images = self._before_images.setdefault(txn, {})
        store = self.processor.store
        old_date = store.date(obj)
        if obj not in images:
            old_value, _ = store.peek(obj)
            images[obj] = (old_value, old_date, store.version(obj))
        # Fig. 12 lines 11-12: value(l) <- val; date(l) <- cur-id —
        # refined per §6 with a within-partition write counter, so the
        # log catch-up can tell apart (and correctly order) multiple
        # writes carrying the same partition identifier.  Strict 2PL
        # orders writes of one object identically at every copy, so the
        # counters agree across up-to-date copies.
        if (isinstance(old_date, tuple) and len(old_date) == 2
                and old_date[0] == state.cur_id):
            new_date = (state.cur_id, old_date[1] + 1)
        else:
            new_date = (state.cur_id, 1)
        store.write(obj, value, new_date, version)
        self.history.record_physical(
            time=self.sim.now, txn=txn, kind="w", obj=obj,
            copy_pid=self.pid, value=value, version=version, vpid=vpid,
        )
        if self.auditor is not None:
            self.auditor.on_physical_access(
                time=self.sim.now, pid=self.pid, txn=txn, kind="w",
                obj=obj, vpid=vpid, state=state,
            )
        # Durability cost model: the write's journal append must land
        # before the copy acknowledges.  The write is already visible
        # locally (strict 2PL holds the lock), so only the ack waits.
        append_cost = self.config.storage_append_cost
        if append_cost > 0:
            yield self.sim.timeout(append_cost)
        self.processor.reply(message, "write-reply", {"ok": True})

    def _placement_stale(self, obj: str, payload) -> bool:
        """Was this physical access routed on a flipped placement?

        Requests carry the placement epoch they routed on (``pe``, 0
        when the object was never resharded, matching requests from
        older payloads); a mismatch against the authoritative map — or
        a request reaching a processor whose copy was retired — means a
        reshard flip won the race and the access must not be served.
        """
        return (payload.get("pe", 0) != self.placement.epoch_of(obj)
                or not self.processor.store.holds(obj))

    def _vote(self, txn, payload) -> str | None:
        """R4 vote; None means yes, otherwise the refusal reason."""
        state = self.state
        if txn in self._poisoned_txns:
            return REJECT_POISONED
        # Placement-epoch stamp check (the reshard arm of rule R4): a
        # transaction that read or wrote on a placement a migration has
        # since flipped must abort — its writes missed the new copy,
        # its reads may have used a retired one.
        stamps = payload.get("epochs") or {}
        for obj in payload["objects"]:
            if self.placement.epoch_of(obj) != stamps.get(obj, 0):
                return REJECT_STALE_PLACEMENT
        if state.assigned and state.cur_id in payload["vpids"]:
            return None  # still in a partition the transaction used
        if not self.config.weakened_r4:
            return REJECT_WRONG_PARTITION
        if not state.assigned:
            return REJECT_WRONG_PARTITION
        # Weakened R4 (§6): conditions (1) and (2) on the current view.
        objects_ok = all(
            self.placement.accessible(obj, state.lview)
            for obj in payload["objects"]
        )
        participants_ok = set(payload["participants"]) <= state.lview
        if objects_ok and participants_ok:
            return None
        return REJECT_WRONG_PARTITION

    def _apply_decision(self, txn, outcome: str) -> None:
        if outcome == "abort":
            images = self._before_images.pop(txn, {})
            for obj, (value, date, version) in images.items():
                # the holds() guard: a reshard may have retired this
                # copy after the transaction resolved here but before
                # the (delayed) decide reached us — nothing to restore
                if self.processor.store.holds(obj):
                    self.processor.store.install(obj, value, date, version)
        else:
            written = self._before_images.pop(txn, {})
            # the commit fan-out doubles as lease invalidation: every
            # copy holder (and the coordinator) applies the decision,
            # so any lease it granted on the object is now stale
            if written and self.lease_table is not None:
                for obj in written:
                    self.lease_table.invalidate(obj)
            if written and self.auditor is not None:
                for obj in sorted(written):
                    if not self.processor.store.holds(obj):
                        continue  # copy retired by a reshard meanwhile
                    self.auditor.on_committed_write(
                        time=self.sim.now, pid=self.pid, obj=obj,
                        version=self.processor.store.version(obj),
                    )
        self.commit.note_resolved(txn)
        self._poisoned_txns.discard(txn)
        if self.auditor is not None:
            self.auditor.on_decision_applied(self.sim.now, self.pid, txn,
                                             outcome)
        self.cc.finish(txn, outcome)

    def _audit_decision(self, txn, outcome: str) -> None:
        if self.auditor is not None:
            self.auditor.on_decision(self.sim.now, self.pid, txn, outcome)

    # ------------------------------------------------------------------
    # partition-change effects on transactions (rule R4, strict mode)
    # ------------------------------------------------------------------

    def on_partition_change(self) -> None:
        """Called on every join: strict R4 force-aborts local participants.

        Their writes are rolled back and their locks dropped so the new
        partition's Update-Copies sees clean copies; the transactions'
        coordinators learn about it at prepare time.  In weakened mode
        locks survive — condition (3) is honoured by recovery reads
        taking shared locks.

        Exception: a transaction we voted yes for in the prepare round
        is *in-doubt* — the coordinator may have committed it and the
        decide message may simply be lost, so rolling it back here
        could erase a committed write that a later majority (without
        any up-to-date copy) would then never see.  In-doubt
        transactions keep their locks and writes; a resolver task
        queries the coordinator's decision log until it learns the
        outcome.  Recovery cannot ship their values meanwhile: the
        vpread gate refuses write-locked copies.
        """
        if self.config.weakened_r4:
            # Weakened mode lets transactions ride through view
            # changes; lost decides are still caught by the per-vote
            # watchdog, which fires only after the coordinator must
            # have decided — so no commit-bound transaction is ceded.
            return
        # Strict mode: resolve in-doubt transactions right away.  An
        # undecided 2PC coordinator cedes the abort (its txn-status
        # handler), which is the classic strict-R4 force-abort made
        # atomic; a Paxos resolver decides from the acceptors instead.
        for txn in sorted(self.commit.in_doubt, key=repr):
            self.commit.kick_resolver(txn)
        for txn in sorted(self.cc.active_txns(), key=repr):
            if txn in self.commit.in_doubt:
                continue
            self._poisoned_txns.add(txn)
            self._apply_decision(txn, "abort")
            self._poisoned_txns.add(txn)

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------

    def _has_in_doubt_write(self, obj: str) -> bool:
        """Does the local copy of ``obj`` carry a prepared, undecided write?

        While it does, the copy's date must not be treated as
        authoritative: the write may yet be undone (abort) or may be the
        only surviving committed value (commit).  Recovery consults this
        because CC locks are volatile — after a crash the lock table is
        empty but the in-doubt write (force-written with its prepare
        record) is still on the copy.
        """
        return any(
            obj in self._before_images.get(txn, {})
            for txn in self.commit.in_doubt
        )

    def _weakened_ok_locally(self, ctx) -> bool:
        """Coordinator-side weakened-R4 screen (participants re-check)."""
        if not self.config.weakened_r4:
            return False
        state = self.state
        if not state.assigned:
            return False
        objects_ok = all(
            self.placement.accessible(obj, state.lview)
            for obj in ctx.objects
        )
        return objects_ok and ctx.participants <= state.lview
