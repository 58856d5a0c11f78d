"""Paxos Commit (Gray & Lamport, *Consensus on Transaction Commit*).

Non-blocking atomic commit: each resource manager's prepared/aborted
vote is one Paxos consensus instance, replicated to the transaction's
2F+1 acceptors.  The global outcome is a pure function of the chosen
votes — commit iff every instance chose "prepared" — so *any* node
that can reach a majority of acceptors can finish the transaction.
The coordinator is only an optimization (it collects the fast-path
ballot-0 accepts); its crash moves leadership to whichever prepared
participant's watchdog fires first, and the in-doubt window closes
without the coordinator ever recovering.  That is the property 2PC
cannot offer: there, the coordinator's decision log is the single
authority and its crash parks every prepared participant.

Mapping onto this codebase's primitives:

* **Acceptors** are the coordinator's view members at prepare time
  (their durable state rides on :meth:`StorageEngine.durable_cell`,
  one cell per consensus instance, forced on every promise/accept —
  the PR-3 durability points, ``storage_sync_cost`` charged per
  acceptor write batch).
* **Ballot 0** is reserved for the RM itself: it force-writes its
  prepare record, then sends phase-2a ``px-accept`` messages straight
  to the acceptors (no phase 1 needed — ballot 0 cannot have been
  preempted unless a recovery leader already moved in, in which case
  the stale 2a is simply dropped).
* **Recovery leaders** (the coordinator on collection timeout, or any
  in-doubt participant's watchdog/partition-change/recovery resolver)
  run full ballots ``attempt * BALLOT_STRIDE + pid`` over all
  instances at once, batched per acceptor through the ordinary
  ``scatter_gather`` quorum machinery: phase 1 to a majority, pick
  each instance's highest-ballot accepted value — aborting *free*
  instances, whose RM's ballot-0 vote can then never reach a majority
  unseen — and phase 2 to a majority.

Unilateral abort discipline: once prepare messages have left, the
coordinator may abort on its own only while it knows its own instance
can never choose "prepared" (it never proposed that vote) — e.g. its
local R4 vote failed.  In every other pre-decision failure mode it
must *cede* the outcome to the recovery leaders rather than guess;
the transaction's history record is then closed by whoever decides
(``History.finish_txn_once`` makes that race idempotent).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..core.errors import TransactionAborted
from .base import AtomicCommit

#: recovery ballots are ``attempt * BALLOT_STRIDE + pid`` — distinct
#: per leader, strictly above the RMs' fast ballot 0, and increasing
#: per attempt (classic Paxos ballot allocation)
BALLOT_STRIDE = 1024

#: acceptor cell value: (promised ballot, accepted ballot or None,
#: accepted vote or None); a missing cell means the acceptor is fresh
AcceptorState = Tuple[int, Optional[int], Optional[str]]


class PaxosCommit(AtomicCommit):
    """Gray & Lamport's commit protocol over the VP transport layer."""

    name = "paxos"

    def __init__(self, host: Any):
        super().__init__(host)
        #: consensus outcomes determined here: txn -> commit|abort
        self._outcome: Dict[Any, str] = {}
        #: per-txn instance metadata (participants, acceptors,
        #: majority, leader).  Modelled as part of the force-written
        #: prepare record, so it deliberately survives on_crash —
        #: recovery leadership needs it.
        self._meta: Dict[Any, dict] = {}
        #: coordinator-side fast-path collection: txn -> {event,
        #: instances, tallies}; volatile (cleared on crash)
        self._collect: Dict[Any, dict] = {}

    # ------------------------------------------------------------------
    # coordinator side
    # ------------------------------------------------------------------

    def prepare_commit(self, ctx):
        """Run every participant's voting instance; wait for all of
        them to choose.  Same R4 screens as the 2PC backend — what
        changes is who may finish the transaction afterwards."""
        if ctx.poisoned:
            raise TransactionAborted(ctx.txn_id, ctx.poisoned)
        state = self.state
        if not state.assigned or state.cur_id not in ctx.vpids:
            if ctx.vpids and not self.host._weakened_ok_locally(ctx):
                raise TransactionAborted(
                    ctx.txn_id, "coordinator changed partition (R4)"
                )
        txn = ctx.txn_id
        participants = sorted(ctx.participants)
        if not participants:
            # No copies were touched: nothing is prepared anywhere and
            # every instance is trivially free — presumed abort/commit
            # without any consensus round.
            return None
        acceptors = sorted(state.lview) if state.assigned else [self.pid]
        meta = {
            "txn": txn,
            "vpids": sorted(ctx.vpids),
            "objects": sorted(ctx.objects),
            "participants": participants,
            "acceptors": acceptors,
            "majority": len(acceptors) // 2 + 1,
            "leader": self.pid,
            # placement epochs each access routed on (reshard R4 stamps)
            "epochs": {obj: ctx.placement_epochs.get(obj, 0)
                       for obj in sorted(ctx.objects)},
        }
        self._meta[txn] = meta
        wait = self._begin_collect(txn, participants)
        for server in participants:
            if server != self.pid:
                self.processor.send(server, "prepare", meta)
        if self.pid in ctx.participants:
            verdict = self.host._vote(txn, meta)
            if verdict is not None:
                # Only the RM itself ever proposes "prepared" for its
                # own instance (at ballot 0); since we never will, no
                # quorum can choose prepared for it and abort is the
                # only decidable outcome — this unilateral abort is
                # consensus-safe.  Cast the no-vote anyway so recovery
                # leaders converge without waiting out a free instance.
                self.processor.spawn(
                    f"px-vote{txn}", self._cast_vote(txn, "aborted", meta))
                self._outcome[txn] = "abort"
                raise TransactionAborted(txn, f"local vote: {verdict}")
            # Our yes vote: force the prepare record, then run our own
            # instance exactly like any remote RM's.
            self.note_in_doubt(txn, self.pid)
            self.processor.store.record_prepare(txn, ctx.objects)
            self.processor.spawn(
                f"px-vote{txn}", self._cast_vote(txn, "prepared", meta))
        timer = self.sim.timeout(self.config.access_timeout)
        fired = yield self.sim.any_of([wait, timer])
        if wait in fired:
            instances = fired[wait]
        else:
            # Fast path timed out (a silent RM, a lost accept, a cut):
            # become a recovery leader over our own transaction.
            instances = yield from self._lead_until_decided(txn)
        self._collect.pop(txn, None)
        outcome = ("commit"
                   if all(v == "prepared" for v in instances.values())
                   else "abort")
        self._outcome[txn] = outcome
        if outcome == "abort":
            raise TransactionAborted(txn, "a participant voted aborted")
        return None

    def _lead_until_decided(self, txn):
        """Retry recovery ballots until one completes.  Used by the
        coordinator's own slow path; participant resolvers run their
        own loop in :meth:`_resolve_in_doubt`."""
        retry = self.config.access_timeout
        attempt = 1
        while True:
            if not self.processor.alive:
                # Our processor crashed under this client process.  We
                # can no longer learn or influence the outcome — the
                # participants' recovery leaders own it now (that is
                # the point of Paxos Commit).  end_transaction sees no
                # determined outcome and stays silent.
                raise TransactionAborted(txn, "coordinator crashed "
                                              "while deciding")
            meta = self._meta.get(txn)
            if meta is None:
                # A recovery leader finished the transaction while we
                # slept: either its decide already applied here (the
                # release handler memoizes the outcome for our own
                # transactions) or this node itself led the resolution
                # (which journals the decision).  Adopt that outcome —
                # deciding anything else would contradict consensus.
                known = (self._outcome.get(txn)
                         or self.processor.store.decision_of(txn))
                if known == "commit":
                    return {self.pid: "prepared"}
                if known == "abort":
                    self._outcome[txn] = "abort"
                    return {self.pid: "aborted"}
                raise TransactionAborted(
                    txn, "consensus state lost while deciding")
            ballot = attempt * BALLOT_STRIDE + self.pid
            votes = yield from self._lead(txn, meta, ballot)
            if votes is not None:
                return votes
            attempt += 1
            yield self.sim.timeout(retry)

    def end_transaction(self, ctx, outcome: str):
        """Distribute a *consensus-backed* outcome (or a presumed abort
        for transactions that never started a voting round)."""
        if outcome not in ("commit", "abort"):
            raise ValueError(f"unknown outcome {outcome!r}")
        txn = ctx.txn_id
        known = self._outcome.pop(txn, None)
        started = txn in self._collect
        self._collect.pop(txn, None)
        if outcome == "commit" and known != "commit":
            # Defensive: prepare_commit determines the outcome before
            # returning, so a commit without one cannot happen — but it
            # must never be distributed on faith.
            raise TransactionAborted(txn, "commit without consensus")
        if (outcome == "abort" and known is None
                and (started or not self.processor.alive)):
            # A voting round exists but no outcome was determined here —
            # a coordinator interrupted mid-decision, or a zombie client
            # of a crashed processor (whose crash hook cleared the
            # volatile collect state, hence the liveness check).  It
            # must stay silent: the acceptors may yet choose commit,
            # and a unilateral abort here could contradict the recovery
            # leaders.  The history record stays open; whoever decides
            # closes it (see _decide_and_distribute).  When our own
            # instance is prepared, the metadata is part of that
            # force-written record: our resolver leads with it after
            # recovery, so it goes only with the in-doubt entry.
            if txn not in self.in_doubt:
                self._meta.pop(txn, None)
            raise TransactionAborted(txn, "outcome ceded to recovery leaders")
        yield from self._decide_and_distribute(txn, outcome,
                                               sorted(ctx.participants))

    def _decide_and_distribute(self, txn, outcome: str, participants):
        """Journal the decision, fan it out, close the history record.

        Unlike 2PC the decision-log record is a convenience, not the
        authority — any majority of acceptors can re-derive the
        outcome — so the in-memory entry retires immediately (the
        ``decisions_retired`` counter keeps the two backends
        comparable).
        """
        self.processor.store.record_decision(txn, outcome)
        self.host._audit_decision(txn, outcome)
        sync_cost = self.config.storage_sync_cost
        if sync_cost > 0:
            yield self.sim.timeout(sync_cost)
        for server in participants:
            if server == self.pid:
                self.host._apply_decision(txn, outcome)
            else:
                self.processor.send(server, "release",
                                    {"txn": txn, "outcome": outcome})
        self._meta.pop(txn, None)
        self.metrics.decisions_retired += 1
        # Close the transaction's history record if its own client
        # could not (dead coordinator): first finalization wins, the
        # client's own commit/abort path is a no-op afterwards.
        status = "committed" if outcome == "commit" else "aborted"
        self.host.history.finish_txn_once(
            txn, status, self.sim.now, reason="decided by recovery leader")
        return
        yield  # pragma: no cover - generator form when sync cost is zero

    # ------------------------------------------------------------------
    # the fast path: ballot-0 votes and their collection
    # ------------------------------------------------------------------

    def _begin_collect(self, txn, participants):
        """Register the coordinator's fast-path tally; returns the
        event that fires with ``{rm: vote}`` once every instance has a
        majority of same-ballot accepts."""
        event = self.sim.event(name=f"px-collect{txn}")
        self._collect[txn] = {
            "event": event,
            "instances": {rm: None for rm in participants},
            "tallies": {},
        }
        return event

    def _cast_vote(self, txn, vote: str, meta):
        """Ballot-0 phase 2a: propose this RM's own vote everywhere.

        A prepared vote waits out the prepare record's force first;
        the no-vote needs no durability (forgetting it re-aborts)."""
        sync_cost = self.config.storage_sync_cost
        if vote == "prepared" and sync_cost > 0:
            yield self.sim.timeout(sync_cost)
        for acceptor in meta["acceptors"]:
            if acceptor != self.pid:
                self.processor.send(acceptor, "px-accept",
                                    {"txn": txn, "rm": self.pid, "ballot": 0,
                                     "vote": vote, "leader": meta["leader"]})
        if self.pid in meta["acceptors"]:
            yield from self._accept(txn, self.pid, 0, vote, meta["leader"])

    def _accept(self, txn, rm: int, ballot: int, vote: str, leader: int):
        """Acceptor: accept one instance's 2a, force it, notify the
        leader (locally when we are the leader — no self-sends)."""
        cell = self._acceptor_cell(txn, rm)
        state: Optional[AcceptorState] = cell.value
        if state is not None and ballot < state[0]:
            return  # promised a higher ballot; drop the stale 2a
        cell.value = (ballot, ballot, vote)
        sync_cost = self.config.storage_sync_cost
        if sync_cost > 0:
            yield self.sim.timeout(sync_cost)
        payload = {"txn": txn, "rm": rm, "ballot": ballot, "vote": vote,
                   "acceptor": self.pid}
        if leader == self.pid:
            self._note_accepted(payload)
        else:
            self.processor.send(leader, "px-accepted", payload)

    def _note_accepted(self, payload) -> None:
        """Leader: tally one 2b; fire the collection event when every
        instance has a same-ballot majority."""
        txn = payload["txn"]
        entry = self._collect.get(txn)
        meta = self._meta.get(txn)
        if entry is None or meta is None:
            return  # not collecting (already decided, or not ours)
        instances = entry["instances"]
        rm = payload["rm"]
        if rm not in instances:
            return
        votes = (entry["tallies"].setdefault(rm, {})
                 .setdefault(payload["ballot"], {}))
        votes[payload["acceptor"]] = payload["vote"]
        if instances[rm] is None and len(votes) >= meta["majority"]:
            instances[rm] = payload["vote"]
            if all(v is not None for v in instances.values()):
                event = entry["event"]
                if not event.triggered:
                    event.succeed(dict(instances))

    # ------------------------------------------------------------------
    # recovery leadership (full ballots)
    # ------------------------------------------------------------------

    def _lead(self, txn, meta, ballot: int):
        """One complete ballot over all of ``txn``'s instances, batched
        per acceptor: phase 1 to a majority, pick each instance's
        highest-ballot accepted value (aborting free instances), phase
        2 to a majority.  Returns the chosen ``{rm: vote}`` map, or
        None when preempted or short of quorum."""
        rms = meta["participants"]
        acceptors = meta["acceptors"]
        majority = meta["majority"]
        timeout = self.config.access_timeout
        sync_cost = self.config.storage_sync_cost
        others = [a for a in acceptors if a != self.pid]

        # Phase 1: promises from a majority.
        promises: List[dict] = []
        if self.pid in acceptors:
            local = self._promise_locally(txn, ballot, rms)
            if local is not None:
                if sync_cost > 0:
                    yield self.sim.timeout(sync_cost)
                promises.append(local)
        needed = majority - len(promises)
        if needed > 0:
            if len(others) < needed:
                return None

            def promise_quorum(results):
                return sum(1 for r in results.values()
                           if r is not None and r["ok"]) >= needed

            replies = yield from self.processor.scatter_gather(
                others, "px-p1",
                lambda _server: {"txn": txn, "ballot": ballot, "rms": rms},
                timeout=timeout, quorum=promise_quorum,
                label=f"px-p1({txn})")
            promises.extend(r for r in replies.values()
                            if r is not None and r["ok"])
            if len(promises) < majority:
                return None

        # Choose values: highest-ballot accepted per instance; a free
        # instance (no accepted value in a full majority) means the
        # RM's ballot-0 vote cannot be chosen behind our back — abort.
        votes: Dict[int, str] = {}
        for rm in rms:
            best = None
            for reply in promises:
                entry = reply["accepted"].get(rm)
                if entry is not None and (best is None
                                          or entry[0] > best[0]):
                    best = entry
            votes[rm] = best[1] if best is not None else "aborted"

        # Phase 2: accepts from a majority.
        accepted = 0
        if self.pid in acceptors and self._accept_locally(txn, ballot,
                                                          votes):
            accepted += 1
            if sync_cost > 0:
                yield self.sim.timeout(sync_cost)
        needed = majority - accepted
        if needed > 0:
            if len(others) < needed:
                return None

            def accept_quorum(results):
                return sum(1 for r in results.values()
                           if r is not None and r["ok"]) >= needed

            replies = yield from self.processor.scatter_gather(
                others, "px-p2",
                lambda _server: {"txn": txn, "ballot": ballot,
                                 "votes": votes},
                timeout=timeout, quorum=accept_quorum,
                label=f"px-p2({txn})")
            accepted += sum(1 for r in replies.values()
                            if r is not None and r["ok"])
        if accepted < majority:
            return None
        return votes

    def _promise_locally(self, txn, ballot: int, rms):
        """Local-acceptor phase 1b for all instances (batched force);
        returns a reply-shaped dict, or None when preempted."""
        cells = [(rm, self._acceptor_cell(txn, rm)) for rm in rms]
        for _rm, cell in cells:
            state: Optional[AcceptorState] = cell.value
            if state is not None and ballot < state[0]:
                return None
        accepted = {}
        for rm, cell in cells:
            state = cell.value
            cell.value = (ballot,
                          state[1] if state else None,
                          state[2] if state else None)
            if state is not None and state[1] is not None:
                accepted[rm] = (state[1], state[2])
        return {"ok": True, "accepted": accepted}

    def _accept_locally(self, txn, ballot: int, votes) -> bool:
        """Local-acceptor phase 2b for all instances (batched force)."""
        cells = [(rm, self._acceptor_cell(txn, rm)) for rm in votes]
        for _rm, cell in cells:
            state: Optional[AcceptorState] = cell.value
            if state is not None and ballot < state[0]:
                return False
        for rm, cell in cells:
            cell.value = (ballot, ballot, votes[rm])
        return True

    def _acceptor_cell(self, txn, rm: int):
        """The durable cell of one consensus instance's acceptor state.

        Durable cells journal a forced WAL record on every write, so
        promises and accepts survive the acceptor's crash — the
        protocol's correctness leans on exactly that."""
        return self.processor.store.durable_cell(f"px:{txn}:{rm}")

    # ------------------------------------------------------------------
    # participant side
    # ------------------------------------------------------------------

    def handlers(self) -> Mapping[str, Callable]:
        """Paxos Commit's participant-side request kinds."""
        return {
            "prepare": self._handle_prepare,
            "release": self._handle_release,
            "txn-status": self._handle_txn_status,
            "px-accept": self._handle_px_accept,
            "px-accepted": self._handle_px_accepted,
            "px-p1": self._handle_px_p1,
            "px-p2": self._handle_px_p2,
        }

    def _handle_prepare(self, message) -> None:
        payload = message.payload
        txn = payload["txn"]
        verdict = self.host._vote(txn, payload)
        self._meta.setdefault(txn, dict(payload))
        if verdict is None:
            # In doubt from here until a decision applies — but unlike
            # 2PC, resolution needs a majority of acceptors, never the
            # coordinator itself.  The watchdog's resolver *decides*
            # rather than asks.
            self.note_in_doubt(txn, message.src)
            self.sim.timeout(self.config.access_timeout).add_callback(
                lambda _event, txn=txn: self.kick_resolver(txn)
            )
            self.processor.store.record_prepare(txn, payload["objects"])
            self.processor.spawn(
                f"px-vote{txn}", self._cast_vote(txn, "prepared", payload))
        else:
            self.processor.spawn(
                f"px-vote{txn}", self._cast_vote(txn, "aborted", payload))

    def _handle_release(self, message) -> None:
        txn = message.payload["txn"]
        outcome = message.payload["outcome"]
        meta = self._meta.get(txn)
        if meta is not None and meta["leader"] == self.pid:
            # A recovery leader finished our own transaction; the
            # client generator may still be waiting out its vote
            # collection.  Leave it the outcome — end_transaction pops
            # the memo, so this cannot outlive the transaction.
            self._outcome.setdefault(txn, outcome)
        self.host._apply_decision(txn, outcome)
        self._meta.pop(txn, None)

    def _handle_txn_status(self, message) -> None:
        # Kept for introspection/compat: answer from the journalled
        # decision record.  Nothing is ceded here — undecided really
        # means undecided, and the asker should lead a ballot instead.
        txn = message.payload["txn"]
        outcome = (self._outcome.get(txn)
                   or self.processor.store.decision_of(txn))
        self.processor.reply(message, "txn-status-reply",
                             {"outcome": outcome or "undecided"})

    def _handle_px_accept(self, message) -> None:
        payload = message.payload
        self.processor.spawn(
            f"px-acc{payload['txn']}",
            self._accept(payload["txn"], payload["rm"], payload["ballot"],
                         payload["vote"], payload["leader"]))

    def _handle_px_accepted(self, message) -> None:
        self._note_accepted(message.payload)

    def _handle_px_p1(self, message) -> None:
        self.processor.spawn(f"px-p1{message.payload['txn']}",
                             self._serve_promise(message))

    def _serve_promise(self, message):
        """Acceptor phase 1b (remote): all-instance promise + one
        batched force before the reply."""
        payload = message.payload
        reply = self._promise_locally(payload["txn"], payload["ballot"],
                                      payload["rms"])
        if reply is None:
            self.processor.reply(message, "px-p1-reply", {"ok": False})
            return
        sync_cost = self.config.storage_sync_cost
        if sync_cost > 0:
            yield self.sim.timeout(sync_cost)
        self.processor.reply(message, "px-p1-reply", reply)
        return
        yield  # pragma: no cover - generator form when sync cost is zero

    def _handle_px_p2(self, message) -> None:
        self.processor.spawn(f"px-p2{message.payload['txn']}",
                             self._serve_accept(message))

    def _serve_accept(self, message):
        """Acceptor phase 2b (remote): all-instance accept + one
        batched force before the reply."""
        payload = message.payload
        ok = self._accept_locally(payload["txn"], payload["ballot"],
                                  payload["votes"])
        if not ok:
            self.processor.reply(message, "px-p2-reply", {"ok": False})
            return
        sync_cost = self.config.storage_sync_cost
        if sync_cost > 0:
            yield self.sim.timeout(sync_cost)
        self.processor.reply(message, "px-p2-reply", {"ok": True})
        return
        yield  # pragma: no cover - generator form when sync cost is zero

    # ------------------------------------------------------------------
    # in-doubt resolution (recovery leadership)
    # ------------------------------------------------------------------

    def kick_resolver(self, txn) -> None:
        """Start deciding one in-doubt transaction (idempotent)."""
        if not self.processor.alive:
            return
        if txn in self.in_doubt and txn not in self.resolving:
            self.resolving.add(txn)
            if self.tracer is not None:
                self.tracer.emit("txn.indoubt", pid=self.pid, txn=str(txn),
                                 coordinator=self.in_doubt[txn])
            self.processor.spawn(f"resolve{txn}",
                                 self._resolve_in_doubt(txn))

    def _resolve_in_doubt(self, txn):
        """Become a recovery leader and *decide* the outcome from the
        acceptors — the coordinator is not consulted, so its crash
        bounds our in-doubt dwell at roughly one watchdog period plus
        a ballot round-trip.  Concurrent leaders are safe: ballots
        embed the pid and Paxos makes them all choose the same votes.
        A normally-delivered decide resolves the transaction while we
        lead; the loop notices and stops."""
        retry = self.config.access_timeout
        attempt = 1
        try:
            while txn in self.in_doubt:
                meta = self._meta.get(txn)
                if meta is None:  # pragma: no cover - kept while in doubt
                    yield self.sim.timeout(retry)
                    continue
                ballot = attempt * BALLOT_STRIDE + self.pid
                votes = yield from self._lead(txn, meta, ballot)
                if votes is not None:
                    outcome = ("commit"
                               if all(v == "prepared"
                                      for v in votes.values())
                               else "abort")
                    if txn in self.in_doubt:
                        if self.tracer is not None:
                            self.tracer.emit("txn.resolve", pid=self.pid,
                                             txn=str(txn), outcome=outcome)
                        targets = sorted(set(meta["participants"])
                                         | {meta["leader"]})
                        yield from self._decide_and_distribute(
                            txn, outcome, targets)
                    break
                attempt += 1
                yield self.sim.timeout(retry)
        finally:
            self.resolving.discard(txn)

    # ------------------------------------------------------------------
    # crash / recovery
    # ------------------------------------------------------------------

    def on_crash(self) -> None:
        """Volatile leadership state dies; acceptor cells and prepare
        metadata are durable.  Unlike 2PC there is nothing to presume-
        abort: undecided transactions belong to the acceptors now, and
        a recovery leader — any prepared participant, or this node
        after recovery — finishes them."""
        self.resolving.clear()
        self._collect.clear()
        self._outcome.clear()

    def on_recover(self) -> None:
        for txn in sorted(self.in_doubt, key=repr):
            self.kick_resolver(txn)
