"""Presumed-abort two-phase commit (the backend PR 1's machinery became).

Moved verbatim out of ``core/access.py``: the prepare scatter, the
coordinator decision log, the decide fan-out, the in-doubt set with its
decide watchdog and resolver task, and the ``txn-status`` cession.  The
default-config simulation must stay byte-identical to the pre-refactor
golden trace (``tests/properties/test_storage_transparency.py``), so
every sim interaction — scatter/gather order, spawn names, timer
callbacks, forced-write points — is preserved exactly.

One behavioural addition rides along (trace-transparent by design):
the coordinator *retires* a decision's in-memory entry as soon as the
decide fan-out has left.  The WAL record written just before is the
durable authority — ``_handle_txn_status`` falls back to it — so the
in-memory map holds only in-flight transactions instead of growing
with history (``ProtocolMetrics.decisions_retired`` counts the pops).
The fallback changes no message payload and emits no event, which is
what keeps the golden trace pinned.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping

from ..core.errors import TransactionAborted
from ..node.transport import NoResponse
from .base import AtomicCommit


class TwoPhaseCommit(AtomicCommit):
    """Classic 2PC: the coordinator's log is the only decision authority.

    Blocking window: a prepared participant whose coordinator crashed
    before distributing the decision stays in doubt until the
    coordinator recovers (its resolver retries ``txn-status`` forever).
    """

    name = "2pc"

    def __init__(self, host: Any):
        super().__init__(host)
        #: coordinator-side decision log: txn -> undecided|commit|abort.
        #: Written before any decide message leaves, so in-doubt
        #: participants can query it (presumed abort when absent);
        #: retired to the WAL record once the fan-out is done.
        self.decisions: Dict[Any, str] = {}

    # ------------------------------------------------------------------
    # coordinator side
    # ------------------------------------------------------------------

    def prepare_commit(self, ctx):
        """Validate R4 across all participants (one voting round).

        Strict mode: every participant must still be in the partition
        the access was made in.  Weakened mode (§6): a participant in a
        *newer* partition may vote yes when conditions (1) and (2) hold
        — every object the transaction referenced is accessible in its
        current view and every participant is inside that view.
        Condition (3) is enforced by the recovery reads taking shared
        locks (see copy_update).
        """
        if ctx.poisoned:
            raise TransactionAborted(ctx.txn_id, ctx.poisoned)
        # Open the decision-log entry before any participant can vote
        # yes: an in-doubt participant querying us must find at least
        # "undecided", never a missing entry (which means presumed abort).
        # Journalled unforced — presumed abort means its *absence* is
        # already safe, so the open needs no sync of its own.
        if ctx.txn_id not in self.decisions:
            self.decisions[ctx.txn_id] = "undecided"
            self.processor.store.record_decision(ctx.txn_id, "undecided",
                                                 forced=False)
            self.host._audit_decision(ctx.txn_id, "undecided")
        state = self.state
        if not state.assigned or state.cur_id not in ctx.vpids:
            if ctx.vpids and not self.host._weakened_ok_locally(ctx):
                raise TransactionAborted(
                    ctx.txn_id, "coordinator changed partition (R4)"
                )
        votes_needed = sorted(ctx.participants - {self.pid})
        payload = {
            "txn": ctx.txn_id,
            "vpids": sorted(ctx.vpids),
            "objects": sorted(ctx.objects),
            "participants": sorted(ctx.participants),
            # placement epochs each access routed on (reshard R4 stamps)
            "epochs": {obj: ctx.placement_epochs.get(obj, 0)
                       for obj in sorted(ctx.objects)},
        }

        # Two-phase scatter: the prepare requests go out *before* the
        # local vote runs (participants learn of the transaction and
        # become in-doubt even when the coordinator's own vote fails —
        # the resolver machinery handles them), matching the original
        # spawn-then-vote ordering.
        call = self.processor.scatter(
            votes_needed, "prepare", lambda _server: payload,
            timeout=self.config.access_timeout,
        )
        if self.pid in ctx.participants:
            verdict = self.host._vote(ctx.txn_id, payload)
            if verdict is not None:
                raise TransactionAborted(ctx.txn_id, f"local vote: {verdict}")
            # Our own yes vote is a participant prepare record: force-
            # written (the classic 2PC force point), its model-time cost
            # overlapping the remote vote collection already in flight.
            self.processor.store.record_prepare(ctx.txn_id, ctx.objects)
            sync_cost = self.config.storage_sync_cost
            if sync_cost > 0:
                yield self.sim.timeout(sync_cost)
        results = yield from call.gather()
        for server in votes_needed:
            reply = results[server]
            status = ("no-response" if reply is None
                      else "yes" if reply["ok"] else reply["reason"])
            if status != "yes":
                raise TransactionAborted(
                    ctx.txn_id, f"participant {server} voted {status}"
                )
        return None

    def end_transaction(self, ctx, outcome: str):
        """Distribute the decision; participants release locks (strict 2PL).

        Decision messages are one-way: a participant that cannot be
        reached holds its locks until its own partition change clears
        them (strict mode) or until the lock timeout of a later
        conflicting transaction breaks the wait.
        """
        if outcome not in ("commit", "abort"):
            raise ValueError(f"unknown outcome {outcome!r}")
        if outcome == "commit" and self.decisions.get(ctx.txn_id) == "abort":
            # While we were collecting votes, an in-doubt participant
            # asked for the outcome and we ceded the abort (see
            # _handle_txn_status).  That answer is final — it may
            # already have been applied — so this transaction can no
            # longer commit.
            raise TransactionAborted(ctx.txn_id,
                                     "aborted while in doubt (R4)")
        if outcome == "commit" and ctx.txn_id in self.host._poisoned_txns:
            # Our own partition changed while the remote votes were in
            # flight and strict R4 force-aborted the transaction here
            # (on_partition_change): the local writes are already rolled
            # back and the locks dropped, so deciding commit now would
            # diverge from our own copies.  The coordinator still holds
            # its unilateral abort right at this point — exercise it.
            raise TransactionAborted(ctx.txn_id,
                                     "partition changed during commit (R4)")
        # Log the decision before the first decide message leaves: a
        # participant may lose the decide to a partition cut and query
        # the log later (see _resolve_in_doubt).  This is the
        # coordinator's forced write — the decide messages wait for it.
        self.decisions[ctx.txn_id] = outcome
        self.processor.store.record_decision(ctx.txn_id, outcome)
        self.host._audit_decision(ctx.txn_id, outcome)
        sync_cost = self.config.storage_sync_cost
        if sync_cost > 0:
            yield self.sim.timeout(sync_cost)
        for server in sorted(ctx.participants):
            if server == self.pid:
                self.host._apply_decision(ctx.txn_id, outcome)
            else:
                self.processor.send(server, "release",
                                    {"txn": ctx.txn_id, "outcome": outcome})
        # Retire the in-memory entry: the forced WAL record above is
        # the durable authority from here on (txn-status falls back to
        # it), so only in-flight transactions stay in the map.
        self.decisions.pop(ctx.txn_id, None)
        self.metrics.decisions_retired += 1
        return
        yield  # pragma: no cover - generator form when sync cost is zero

    # ------------------------------------------------------------------
    # participant side
    # ------------------------------------------------------------------

    def handlers(self) -> Mapping[str, Callable]:
        """2PC's participant-side request kinds."""
        return {
            "prepare": self._handle_prepare,
            "release": self._handle_release,
            "txn-status": self._handle_txn_status,
        }

    def _handle_prepare(self, message):
        verdict = self.host._vote(message.payload["txn"], message.payload)
        if verdict is None:
            # A yes vote makes this transaction in-doubt here: we may
            # no longer abort it unilaterally until we learn the
            # coordinator's decision (classic 2PC uncertainty window).
            # Arm a decide watchdog (a bare timer, not a process): if
            # no decide arrived when it fires — lost to the network, a
            # cut, or a coordinator crash — start querying for the
            # outcome.  Normally the decide lands one round later and
            # the callback finds nothing to do.
            txn = message.payload["txn"]
            self.note_in_doubt(txn, message.src)
            self.sim.timeout(self.config.access_timeout).add_callback(
                lambda _event, txn=txn: self.kick_resolver(txn)
            )
            # The yes vote is 2PC's participant force point: the
            # prepare record must be durable before the vote leaves,
            # or a crash could silently forget it.  With a nonzero
            # sync cost the reply waits out the force write in a
            # spawned process; at zero cost it goes out immediately.
            self.processor.store.record_prepare(
                txn, message.payload["objects"])
            sync_cost = self.config.storage_sync_cost
            if sync_cost > 0:
                self.processor.spawn(
                    f"prepare-sync{txn}",
                    self._delayed_reply(sync_cost, message, "prepare-reply",
                                        {"ok": True}))
            else:
                self.processor.reply(message, "prepare-reply", {"ok": True})
        else:
            self.processor.reply(message, "prepare-reply",
                                 {"ok": False, "reason": verdict})

    def _handle_release(self, message) -> None:
        self.host._apply_decision(message.payload["txn"],
                                  message.payload["outcome"])

    def _handle_txn_status(self, message) -> None:
        # Presumed abort: a transaction with no decision-log entry never
        # entered its prepare round here, so no decide can have been
        # sent — answering "abort" is always safe.  A retired entry is
        # answered from its WAL record (same outcome, no extra events).
        txn = message.payload["txn"]
        outcome = self.decisions.get(txn)
        if outcome is None:
            outcome = self.processor.store.decision_of(txn) or "abort"
        if outcome == "undecided":
            # The asker is an in-doubt participant whose recovery is
            # blocked on this transaction.  No decide has left yet, so
            # aborting is still our unilateral right — cede it rather
            # than keep a whole partition's Update-Copies waiting on
            # our vote collection (the strict-R4 trade, routed safely
            # through the decision log; end_transaction honours it).
            outcome = "abort"
            self.decisions[txn] = "abort"
            # Journalled as a forced decision record (its sync latency
            # is absorbed by the status reply already in flight).
            self.processor.store.record_decision(txn, "abort")
            self.host._audit_decision(txn, "abort")
        self.processor.reply(message, "txn-status-reply",
                             {"outcome": outcome})

    # ------------------------------------------------------------------
    # in-doubt resolution
    # ------------------------------------------------------------------

    def kick_resolver(self, txn) -> None:
        """Start the in-doubt resolver for ``txn`` unless it is moot.

        Callable from anywhere (watchdog timer, partition change,
        recovery); idempotent via ``resolving``.  A crashed processor
        must not grow tasks — its ``on_recover`` restarts resolvers
        for whatever is still in doubt.
        """
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
        """Learn an in-doubt transaction's outcome from its coordinator.

        Retries through partitions and crashes: the coordinator logs
        its decision before sending any decide, so the answer is
        "commit"/"abort" once decided and "undecided" at most briefly.
        A normally-delivered decide resolves the transaction while we
        retry; the loop notices and stops.
        """
        retry = self.config.access_timeout
        try:
            # A decide handled in the resolver's spawn instant may have
            # resolved the transaction before this process first runs.
            coordinator = self.in_doubt.get(txn)
            while txn in self.in_doubt:
                try:
                    response = yield from self.processor.rpc(
                        coordinator, "txn-status", {"txn": txn},
                        timeout=retry,
                    )
                except NoResponse:
                    yield self.sim.timeout(retry)
                    continue
                outcome = response.payload["outcome"]
                if outcome == "undecided":
                    yield self.sim.timeout(retry)
                    continue
                if txn in self.in_doubt:
                    if self.tracer is not None:
                        self.tracer.emit("txn.resolve", pid=self.pid,
                                         txn=str(txn), outcome=outcome)
                    self.host._apply_decision(txn, outcome)
                break
        finally:
            self.resolving.discard(txn)

    # ------------------------------------------------------------------
    # crash / recovery
    # ------------------------------------------------------------------

    def on_crash(self) -> None:
        """The decision log survives the crash (real coordinators force-
        write it); entries still undecided can never have sent a decide,
        so crashing finalizes them as the presumed abort.  The
        finalization is journalled (unforced — it is a recovery
        re-interpretation, not a new force point) so WAL replay rebuilds
        the same decision log; the journalled record then lets every
        entry retire from memory."""
        self.resolving.clear()
        for txn, outcome in list(self.decisions.items()):
            if outcome == "undecided":
                self.decisions[txn] = "abort"
                self.processor.store.record_decision(txn, "abort",
                                                     forced=False)
                self.host._audit_decision(txn, "abort")
        retired = len(self.decisions)
        self.decisions.clear()
        self.metrics.decisions_retired += retired

    def on_recover(self) -> None:
        for txn in sorted(self.in_doubt, key=repr):
            self.kick_resolver(txn)
