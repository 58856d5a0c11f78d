"""Figure 9 + §6: ``Update-Copies-in-View`` (rule R5).

After a processor joins a partition, every accessible local copy is
locked until it provably holds the most recent value of its logical
object.  Because ≺ is a legal creation order (Theorem 1'), "most
recent" is simply "largest date among the copies in the view".

Strategies (ablated by ``benchmarks/bench_init_cost.py``):

* ``read-all`` — Fig. 9 as written: read every copy in the view, keep
  the one with the largest date.
* ``previous`` — §6: each acceptor's previous partition id and the
  objects accessible there travel with the creation protocol; the
  member holding the maximal such id already has the freshest copy, so
  one read (or none, if that member is us) suffices.
* split-off fast path — when every member of the new partition comes
  from one common previous partition, copies of objects accessible
  there are already up to date: unlock with no reads at all.
* ``log`` catch-up — ship only the write-log entries the stale copy
  missed instead of the whole value (cost = entries, not object size).

Recovery reads use a dedicated ``vpread`` message served *without* the
Fig. 12 locked-set wait: with it, two holders updating the same object
would block on each other forever (each waits for the other's unlock
before answering).  They do take a short shared lock, which is exactly
condition (3) of the weakened R4: recovery never reads a copy locked
for writing.
"""

from __future__ import annotations

from ..node.storage import LogTruncated


#: sentinel returned by ``_read_sources`` when a source copy is
#: temporarily unusable (in-doubt 2PC write) but the view itself is
#: fine — the caller should re-read later, not force a new partition.
RETRY_LATER = object()


class UpdateMixin:
    """Partition initialization (rule R5) with the §6 optimizations."""

    def _schedule_update_copies(self) -> None:
        """The ``schedule(Update-Copies-in-View)`` of Figs. 5 and 6."""
        self._update_process = self.processor.spawn(
            "update-copies", self._update_copies_task()
        )

    def _update_copies_task(self):
        """Fig. 9 outer loop: one parallel worker per locked object."""
        state = self.state
        old_id = state.cur_id
        objects = sorted(state.locked)
        if not objects:
            return
        if self.tracer is not None:
            self.tracer.emit("recover.start", pid=self.pid, vpid=old_id,
                             objects=len(objects))
        split_off_objects = (
            self._split_off_fresh_objects() if self.config.split_off_fastpath
            else frozenset()
        )
        workers = []
        for obj in objects:
            if obj in split_off_objects and not self._has_in_doubt_write(obj):
                # §6: pure split-off — the copy is known fresh already.
                state.unlock_object(obj)
                self.metrics.recoveries += 1
                self.history.record_recovery(time=self.sim.now, pid=self.pid,
                                             obj=obj, vpid=old_id)
                if self.tracer is not None:
                    self.tracer.emit("recover.fresh", pid=self.pid, obj=obj,
                                     vpid=old_id)
                continue
            workers.append(self.processor.spawn(
                f"update({obj})", self._update_one_object(obj, old_id)
            ))
        if workers:
            yield self.sim.all_of(workers)

    def _split_off_fresh_objects(self) -> frozenset:
        """Objects provably fresh because the partition is a split-off.

        Requires every member to come from one common previous partition
        *and*, per object, every copy-holding member to have had the
        object accessible there (otherwise that copy may predate the
        previous partition and still be stale).
        """
        state = self.state
        previous_map = state.previous_map
        if not previous_map or set(previous_map) < set(state.lview):
            return frozenset()
        previous_ids = {prev for prev, _ in previous_map.values()}
        if len(previous_ids) != 1:
            return frozenset()
        fresh = set()
        for obj in state.locked:
            holders = self.placement.copies(obj) & state.lview
            if holders and all(
                obj in previous_map[holder][1] for holder in holders
            ):
                fresh.add(obj)
        return frozenset(fresh)

    def _update_one_object(self, obj: str, old_id):
        """Fig. 9 inner loop for one object, honouring the strategy."""
        state = self.state
        store = self.processor.store
        while self._has_in_doubt_write(obj):
            # A prepared-but-undecided write sits on the local copy: its
            # date must not be taken as authoritative (the §6 fast path
            # would serve it with no reads at all) until the resolver
            # task learns the 2PC outcome.  Park; the object stays
            # locked, which is exactly what R5 requires of a copy whose
            # freshness is unknown.
            yield self.sim.timeout(self.config.delta)
            if not (state.assigned and state.cur_id == old_id):
                return
        if not store.holds(obj):
            # A concurrent reshard retired this copy while the update
            # was queued or parked: the object moved off this processor,
            # so there is nothing left to catch up locally.
            state.unlock_object(obj)
            return
        local_value, local_date = store.peek(obj)
        best = (local_date, local_value, store.version(obj))
        units = 0
        entries_to_apply = None

        sources = self._recovery_sources(obj)
        if sources:
            while True:
                results = yield from self._read_sources(obj, sources)
                if results is not RETRY_LATER:
                    break
                # A source answered "in-doubt": its copy carries a
                # prepared write whose 2PC outcome is pending.  The
                # view is fine — re-read once the source has resolved
                # it, instead of spawning a new partition generation.
                yield self.sim.timeout(self.config.commit_wait)
                if not (state.assigned and state.cur_id == old_id):
                    return
                if not store.holds(obj):
                    state.unlock_object(obj)
                    return
            if results is None:
                # Fig. 9 line 12's [no-response]: the view is wrong;
                # leave the object locked — the next partition's update
                # (with a fresh locked set) takes over.  Actionable only
                # while we still stand in the partition the evidence was
                # gathered in: once a newer generation superseded this
                # one, the silence (or a "wrong-partition" refusal from
                # a source that already moved on) says nothing about the
                # *current* view — reacting to it mints a partition per
                # generation and the views never settle.
                if state.assigned and state.cur_id == old_id:
                    self.create_new_vp()
                return
            for payload in results:
                units += payload.get("units", 0)
                if payload.get("truncated"):
                    # the source compacted past our date; it shipped the
                    # whole value instead of log entries
                    self.metrics.catchup_fallbacks += 1
                date = payload["date"]
                if self._date_newer(date, best[0]):
                    best = (date, payload["value"], payload["version"])
                    entries_to_apply = payload.get("entries")

        # Fig. 9 lines 15-17: install only if still in the same partition.
        if not (state.assigned and state.cur_id == old_id):
            return
        if not store.holds(obj):
            state.unlock_object(obj)
            return
        if self._date_newer(best[0], local_date):
            if entries_to_apply is not None:
                store.apply_log(obj, entries_to_apply)
            else:
                store.install(obj, best[1], best[0], best[2])
        self.metrics.transfer_units += units
        self.metrics.recoveries += 1
        self.history.record_recovery(time=self.sim.now, pid=self.pid,
                                     obj=obj, vpid=old_id)
        if self.tracer is not None:
            self.tracer.emit("recover.object", pid=self.pid, obj=obj,
                             units=units, vpid=old_id)
        state.unlock_object(obj)

    def _recovery_sources(self, obj: str) -> list[int]:
        """Which remote copies to read, per the configured strategy."""
        state = self.state
        holders = sorted(
            (self.placement.copies(obj) & state.lview) - {self.pid}
        )
        if self.config.init_strategy == "read-all" or not state.previous_map:
            return holders
        # §6 optimized search: among view members holding a copy for
        # which the object was accessible in their previous partition,
        # the one with the maximal previous id has the freshest copy.
        candidates = [
            (state.previous_map[holder][0], holder)
            for holder in set(holders) | {self.pid}
            if holder in state.previous_map
            and obj in state.previous_map[holder][1]
        ]
        if not candidates:
            return holders  # no usable info: fall back to Fig. 9
        _best_prev, best_holder = max(candidates)
        if best_holder == self.pid:
            return []  # our copy is already the freshest: no reads
        return [best_holder]

    def _read_sources(self, obj: str, sources: list[int]):
        """Issue vpread RPCs in parallel; None signals a no-response."""
        state = self.state
        want_log = self.config.catchup == "log"
        _, local_date = self.processor.store.peek(obj)
        request = {
            "obj": obj,
            "v": state.cur_id,
            "after": local_date if want_log else None,
            "mode": "log" if want_log else "full",
        }
        results = yield from self.processor.scatter_gather(
            sources, "vpread", lambda _server: request,
            timeout=self.config.access_timeout,
            label=f"vpread({obj})",
        )
        payloads = []
        retry = False
        for server in sources:
            payload = results[server]
            if payload is None:
                return None
            if not payload["ok"]:
                if payload["reason"] == "in-doubt":
                    retry = True
                    continue
                # The source is in another partition or its copy is
                # write-locked; treat like silence — R5 must not read it.
                return None
            payloads.append(payload)
        if retry:
            return RETRY_LATER
        return payloads

    # ------------------------------------------------------------------
    # server side: answering recovery reads
    # ------------------------------------------------------------------

    def serve_vpread(self) -> None:
        """Serve ``vpread`` requests (see module docstring)."""
        self.processor.serve("vpread", self._handle_vpread,
                             process="vpread-handler")

    def _handle_vpread(self, message):
        payload = message.payload
        obj = payload["obj"]
        state = self.state
        if not (state.assigned and payload["v"] == state.cur_id):
            # The requester may simply be ahead of us: its commit for
            # the same partition can still be in flight (message delays
            # are independent).  Wait up to the commit timeout for our
            # own join before giving up — Fig. 12's plain "if" (silence)
            # would make the requester declare us dead over a race the
            # network is allowed to produce.
            deadline = self.sim.now + self.config.commit_wait
            while (payload["v"] > state.cur_id or not state.assigned) \
                    and self.sim.now < deadline:
                change = state.partition_changed.wait()
                tick = self.sim.timeout(max(deadline - self.sim.now, 0.0))
                yield self.sim.any_of([change, tick])
        if not (state.assigned and payload["v"] == state.cur_id):
            self.processor.reply(message, "vpread-reply",
                                 {"ok": False, "reason": "wrong-partition"})
            return
        # Condition (3) of the weakened R4: never ship a value a live
        # transaction is overwriting.  The CC strategy provides the gate
        # (a brief shared lock under 2PL; an uncommitted-writer wait
        # under TSO).
        granted = yield from self.cc.stable_read_gate(obj)
        if not granted:
            self.processor.reply(message, "vpread-reply",
                                 {"ok": False, "reason": "write-locked"})
            return
        # The gate covers the 2PC uncertainty window in normal
        # operation: an in-doubt writer still holds its copy lock, and
        # the decide is applied before the lock is released.  But CC
        # locks are volatile — after a crash the lock table is empty
        # while the (force-written) in-doubt write is still on the
        # copy.  That residue must never be shipped; tell the requester
        # to retry us once the resolver has learned the outcome, rather
        # than let it declare the view wrong.
        if self._has_in_doubt_write(obj):
            self.processor.reply(message, "vpread-reply",
                                 {"ok": False, "reason": "in-doubt"})
            return
        store = self.processor.store
        if not store.holds(obj):
            # A reshard retired our copy while this request was in
            # flight; the requester must pick a holder of the new
            # placement instead.
            self.processor.reply(message, "vpread-reply",
                                 {"ok": False, "reason": "no-copy"})
            return
        value, date = store.peek(obj)
        version = store.version(obj)
        truncated = False
        if payload["mode"] == "log":
            try:
                entries = store.log_since(obj, payload["after"])
                units = len(entries)
            except LogTruncated:
                # Compaction discarded entries the requester would need
                # (its copy predates the retained floor).  §6's log
                # catch-up degrades gracefully to Fig. 9's full-object
                # transfer — correctness never depends on log history,
                # only the transfer cost does.
                entries = None
                units = store.size(obj)
                truncated = True
        else:
            entries = None
            units = store.size(obj)
        self.processor.reply(message, "vpread-reply", {
            "ok": True, "value": value, "date": date,
            "version": version, "entries": entries, "units": units,
            "truncated": truncated,
        })

    # ------------------------------------------------------------------
    # server side: migration control (reshard engine only)
    # ------------------------------------------------------------------
    # The reshard engine registers these handlers explicitly
    # (``serve_reshard``); a cluster that never reshards never serves
    # the migration kinds.

    def serve_reshard(self) -> None:
        """Serve the migration engine's control messages, one handler
        process per request."""
        for kind, handler in (
                ("reshard-gate", self._handle_reshard_gate),
                ("reshard-install", self._handle_reshard_install),
                ("reshard-release", self._handle_reshard_release)):
            self.processor.serve(kind, handler, process=f"{kind}-handler")

    def _handle_reshard_gate(self, message):
        """Write-gate the local copy and report its freshness.

        Yield-free up to the reply: the gate and the reported date are
        one atomic snapshot.  A write that already passed the gate check
        but is still waiting on its copy lock is caught by the post-lock
        re-check in ``_handle_write`` — no write lands after the gate's
        date without the coordinator's verify round seeing it.
        """
        payload = message.payload
        obj = payload["obj"]
        store = self.processor.store
        self.state.gate_migration(obj)
        self.processor.reply(message, "reshard-gate-reply", {
            "ok": True,
            "date": store.date(obj) if store.holds(obj) else None,
            "in_doubt": self._has_in_doubt_write(obj),
        })
        return
        yield  # pragma: no cover - marks this handler as a generator

    def _handle_reshard_install(self, message):
        """Install a copy of ``obj`` here via the §6 catch-up path.

        The new holder reads the nearest in-view source copy with a
        ``vpread`` (same stable-read gate and in-doubt refusal as
        partition initialization) and materializes it locally.  Every
        refusal maps to a not-ok reply; the coordinator retries until
        the views merge and the sources quiesce.
        """
        payload = message.payload
        obj = payload["obj"]
        state = self.state
        store = self.processor.store
        if not state.assigned:
            self.processor.reply(message, "reshard-install-reply",
                                 {"ok": False, "reason": "unassigned"})
            return
        in_view = [p for p in payload["sources"]
                   if p in state.lview and p != self.pid]
        if store.holds(obj) and not in_view:
            # Staying holder (weight-only move) or re-delivered install:
            # our own copy is a valid source.
            self.processor.reply(message, "reshard-install-reply",
                                 {"ok": True, "date": store.date(obj)})
            return
        if not in_view:
            self.processor.reply(message, "reshard-install-reply",
                                 {"ok": False, "reason": "no-source-in-view"})
            return
        source = min(in_view, key=lambda p: (self.distance(p), p))
        results = yield from self.processor.scatter_gather(
            [source], "vpread",
            lambda _server: {"obj": obj, "v": state.cur_id,
                             "after": None, "mode": "full"},
            timeout=self.config.access_timeout,
            label=f"reshard-install({obj})",
        )
        answer = results[source]
        if answer is None or not answer["ok"]:
            reason = "no-response" if answer is None else answer["reason"]
            self.processor.reply(message, "reshard-install-reply",
                                 {"ok": False, "reason": reason})
            return
        value, date, version = (answer["value"], answer["date"],
                                answer["version"])
        if not store.holds(obj):
            store.place(obj, initial=value, date=date,
                        size=payload["size"], version=version)
        elif self._date_newer(date, store.date(obj)):
            store.install(obj, value, date, version)
        self.metrics.reshard_installs += 1
        self.metrics.transfer_units += answer.get("units", 0)
        if self.auditor is not None:
            self.auditor.on_copy_installed(
                time=self.sim.now, pid=self.pid, obj=obj)
        if self.tracer is not None:
            self.tracer.emit("reshard.install", pid=self.pid, obj=obj,
                             source=source)
        self.processor.reply(message, "reshard-install-reply",
                             {"ok": True, "date": store.date(obj)})

    def _handle_reshard_release(self, message):
        """Drop the write gate; dropped holders also retire the copy.

        Retiring is refused (reply not-ok, gate kept) while the copy
        still carries unresolved transaction state — an in-doubt write
        or an unapplied before-image — because the late decide must
        still find the copy to settle it.  The coordinator retries.
        """
        payload = message.payload
        obj = payload["obj"]
        store = self.processor.store
        if payload["retire"] and store.holds(obj):
            busy = self._has_in_doubt_write(obj) or any(
                obj in images for images in self._before_images.values()
            )
            if busy:
                self.processor.reply(message, "reshard-release-reply",
                                     {"ok": False, "reason": "busy"})
                return
            store.retire(obj)
            self.metrics.reshard_retires += 1
            if self.auditor is not None:
                self.auditor.on_copy_retired(
                    time=self.sim.now, pid=self.pid, obj=obj)
            if self.tracer is not None:
                self.tracer.emit("reshard.retire", pid=self.pid, obj=obj)
        self.state.ungate_migration(obj)
        self.processor.reply(message, "reshard-release-reply", {"ok": True})
        return
        yield  # pragma: no cover - marks this handler as a generator

    # ------------------------------------------------------------------

    @staticmethod
    def _date_newer(candidate, reference) -> bool:
        """Is ``candidate`` a strictly newer logical date than ``reference``?

        ``None`` (never written) is older than everything.
        """
        if candidate is None:
            return False
        if reference is None:
            return True
        return candidate > reference
