"""The atomic-commit backend interface.

The virtual partitions protocol (and, in principle, any replica
control protocol that validates at commit time) delegates the whole
atomic-commit phase — the prepare round, the decision log, the decide
fan-out, and in-doubt resolution — to a pluggable backend selected by
:attr:`~repro.core.config.ProtocolConfig.commit_backend`:

* ``"2pc"`` — classic presumed-abort two-phase commit
  (:class:`~repro.commit.two_phase.TwoPhaseCommit`), where the
  coordinator's decision log is the single authority a prepared
  participant can learn the outcome from; its crash blocks them.
* ``"paxos"`` — Gray & Lamport's *Paxos Commit*
  (:class:`~repro.commit.paxos.PaxosCommit`), where each participant's
  vote is a Paxos consensus instance replicated to the transaction's
  acceptors, so any node reaching a majority of them can finish the
  transaction — no single crash leaves participants in doubt.

The host protocol keeps everything that is *not* commit-protocol
specific: before-images (the write path fills them), poisoning (strict
R4 force-aborts), the R4 vote itself, and decision application.  The
backend owns the commit-phase state: the coordinator decision log, the
participant in-doubt set, and the resolver machinery.

A backend's host must provide: ``processor``, ``pid``, ``sim``,
``state``, ``config``, ``metrics``, ``tracer``, ``auditor``,
``all_pids``, ``_vote(txn, payload)``, ``_weakened_ok_locally(ctx)``,
``_apply_decision(txn, outcome)`` and ``_audit_decision(txn,
outcome)``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Dict, Mapping


class AtomicCommit(ABC):
    """One commit backend instance per protocol instance (per processor).

    The same object plays both commit-protocol roles: the coordinator
    side (:meth:`prepare_commit` / :meth:`end_transaction`, driven by
    the transaction manager) and the participant side (the message
    handlers from :meth:`handlers`, which the protocol serves next to
    its physical-access handlers).
    """

    #: short identifier, matches ``ProtocolConfig.commit_backend``
    name: str = "abstract"

    def __init__(self, host: Any):
        self.host = host
        #: participant side: txns we voted yes for -> coordinator pid
        self.in_doubt: Dict[Any, int] = {}
        #: sim-time each in-doubt registration happened (dwell metric)
        self._in_doubt_since: Dict[Any, float] = {}
        #: txns with a live resolver task (idempotence guard)
        self.resolving: set = set()

    # -- conveniences over the host façade --------------------------------

    @property
    def processor(self):
        return self.host.processor

    @property
    def pid(self) -> int:
        return self.host.pid

    @property
    def sim(self):
        return self.host.sim

    @property
    def config(self):
        return self.host.config

    @property
    def state(self):
        return self.host.state

    @property
    def metrics(self):
        return self.host.metrics

    @property
    def tracer(self):
        return self.host.tracer

    @property
    def auditor(self):
        return self.host.auditor

    # -- coordinator side ---------------------------------------------------

    @abstractmethod
    def prepare_commit(self, ctx):
        """Generator: run the voting round for ``ctx``'s transaction.

        Returns None when every participant is prepared; raises
        :class:`~repro.core.errors.TransactionAborted` otherwise.
        """

    @abstractmethod
    def end_transaction(self, ctx, outcome: str):
        """Generator: decide ``outcome`` and distribute it to all
        participants (decision log force-write + decide fan-out)."""

    # -- participant side ---------------------------------------------------

    @abstractmethod
    def handlers(self) -> Mapping[str, Callable]:
        """``{message kind: handler}`` map of the participant side.

        The protocol serves each kind next to its read/write handlers
        (:meth:`~repro.node.processor.Processor.serve`).  Handlers are
        plain callables taking the message, run inside its delivery;
        anything that needs to wait spawns its own process.
        """

    # -- lifecycle hooks (called from the host's crash/recover hooks) ------

    @abstractmethod
    def on_crash(self) -> None:
        """Drop volatile commit state; durable state (the decision log
        models a force-written log) survives."""

    @abstractmethod
    def on_recover(self) -> None:
        """Restart resolution for whatever is still in doubt."""

    @abstractmethod
    def kick_resolver(self, txn) -> None:
        """Begin resolving one in-doubt transaction now (idempotent);
        called by watchdogs, partition changes, and recovery."""

    # -- shared bookkeeping -------------------------------------------------

    def note_in_doubt(self, txn, coordinator: int) -> None:
        """Register a yes-vote: ``txn`` may no longer be aborted
        unilaterally here until its outcome is learned."""
        self.in_doubt[txn] = coordinator
        self._in_doubt_since.setdefault(txn, self.sim.now)

    def note_resolved(self, txn) -> None:
        """The outcome reached this participant; record the dwell."""
        if self.in_doubt.pop(txn, None) is not None:
            since = self._in_doubt_since.pop(txn, None)
            if since is not None:
                self.metrics.in_doubt_dwell.append(self.sim.now - since)

    def _delayed_reply(self, delay: float, message, kind: str, payload):
        """Reply after ``delay`` — models a forced write gating an ack."""
        yield self.sim.timeout(delay)
        self.processor.reply(message, kind, payload)
