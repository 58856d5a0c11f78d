"""Shared machinery for the baseline protocols.

The baselines differ in *which copies* a logical operation touches and
*when it is allowed* — not in how a physical access is served.  This
module provides that common server: strict-2PL copy locking with
before-images, a prepare/release decision protocol, and parallel
fan-out helpers, so every protocol pays identical concurrency control
costs and the benchmark comparisons isolate replica control itself.
"""

from __future__ import annotations

from typing import Iterable

from ..cc.factory import make_cc
from ..core.errors import TransactionAborted
from ..protocols.base import ProtocolMetrics

REJECT_LOCK_TIMEOUT = "lock-timeout"
REJECT_POISONED = "txn-poisoned"
REJECT_NO_COPY = "no-copy"


class BaselineServerMixin:
    """Physical access serving + commit protocol for baselines.

    Expects the concrete protocol to provide ``processor``, ``pid``,
    ``sim``, ``placement``, ``config``, ``history``, and to call
    :meth:`_init_server` from its constructor.
    """

    def _init_server(self) -> None:
        self.cc = make_cc(self.config, self.sim, label=f"p{self.pid}.cc")
        self.metrics = ProtocolMetrics()
        self._before_images: dict = {}
        self._poisoned_txns: set = set()

    def _attach_server(self) -> None:
        processor = self.processor
        processor.serve("read", self._serve_read, process="serve-read")
        processor.serve("write", self._serve_write, process="serve-write")
        processor.serve("prepare", self._serve_prepare)
        processor.serve("release", lambda message: self._apply_decision(
            message.payload["txn"], message.payload["outcome"]))
        processor.on_crash(self._server_on_crash)

    def _server_on_crash(self) -> None:
        for txn in sorted(self._before_images, key=repr):
            for obj, (value, date, version) in self._before_images[txn].items():
                self.processor.store.install(obj, value, date, version)
        self._before_images.clear()
        self._poisoned_txns.clear()
        self.cc = make_cc(self.config, self.sim, label=f"p{self.pid}.cc")

    # ------------------------------------------------------------------
    # request handlers
    # ------------------------------------------------------------------

    def _serve_read(self, message):
        payload = message.payload
        obj, txn = payload["obj"], payload["txn"]
        store = self.processor.store
        if not store.holds(obj):
            self.processor.reply(message, "read-reply",
                                 {"ok": False, "reason": REJECT_NO_COPY})
            return
        granted, cc_reason = yield from self.cc.begin_read(
            txn, payload.get("ts"), obj)
        if not granted:
            self.processor.reply(message, "read-reply",
                                 {"ok": False,
                                  "reason": cc_reason or REJECT_LOCK_TIMEOUT})
            return
        value, date = store.read(obj)
        version = store.version(obj)
        self.history.record_physical(
            time=self.sim.now, txn=txn, kind="r", obj=obj,
            copy_pid=self.pid, value=value, version=version, vpid=None,
        )
        self.processor.reply(message, "read-reply", {
            "ok": True, "value": value, "date": date, "version": version,
        })

    def _serve_write(self, message):
        payload = message.payload
        obj, txn = payload["obj"], payload["txn"]
        store = self.processor.store
        if not store.holds(obj):
            self.processor.reply(message, "write-reply",
                                 {"ok": False, "reason": REJECT_NO_COPY})
            return
        granted, cc_reason = yield from self.cc.begin_write(
            txn, payload.get("ts"), obj)
        if not granted:
            self.processor.reply(message, "write-reply",
                                 {"ok": False,
                                  "reason": cc_reason or REJECT_LOCK_TIMEOUT})
            return
        if txn in self._poisoned_txns:
            self.processor.reply(message, "write-reply",
                                 {"ok": False, "reason": REJECT_POISONED})
            return
        images = self._before_images.setdefault(txn, {})
        if obj not in images:
            old_value, old_date = store.peek(obj)
            images[obj] = (old_value, old_date, store.version(obj))
        date = payload.get("date")
        if date is None:
            date = store.date(obj)
        store.write(obj, payload["value"], date, payload["version"])
        self.history.record_physical(
            time=self.sim.now, txn=txn, kind="w", obj=obj,
            copy_pid=self.pid, value=payload["value"],
            version=payload["version"], vpid=None,
        )
        self.processor.reply(message, "write-reply", {"ok": True})

    def _serve_prepare(self, message) -> None:
        txn = message.payload["txn"]
        if txn in self._poisoned_txns:
            self.processor.reply(message, "prepare-reply",
                                 {"ok": False, "reason": REJECT_POISONED})
        else:
            self.processor.reply(message, "prepare-reply", {"ok": True})

    def _apply_decision(self, txn, outcome: str) -> None:
        if outcome == "abort":
            for obj, (value, date, version) in \
                    self._before_images.pop(txn, {}).items():
                self.processor.store.install(obj, value, date, version)
        else:
            written = self._before_images.pop(txn, {})
            # mirror of AccessMixin._apply_decision: a committed write
            # invalidates any lease this processor granted on the object
            lease_table = getattr(self, "lease_table", None)
            if written and lease_table is not None:
                for obj in written:
                    lease_table.invalidate(obj)
        self._poisoned_txns.discard(txn)
        self.cc.finish(txn, outcome)

    # ------------------------------------------------------------------
    # client-side helpers
    # ------------------------------------------------------------------

    def _fanout(self, kind: str, servers: Iterable[int], payload_for):
        """Generator: parallel RPCs; returns ``{server: payload_or_None}``
        (None = no response).  A thin veneer over the processor's shared
        scatter-gather primitive (node/transport.py), kept so the
        baselines read like the paper's pseudocode."""
        results = yield from self.processor.scatter_gather(
            servers, kind, payload_for,
            timeout=self.config.access_timeout,
        )
        return results

    def prepare_commit(self, ctx):
        """Plain unanimous-vote prepare (no view validation)."""
        if ctx.poisoned:
            raise TransactionAborted(ctx.txn_id, ctx.poisoned)
        remote = sorted(ctx.participants - {self.pid})
        if self.pid in ctx.participants and \
                ctx.txn_id in self._poisoned_txns:
            raise TransactionAborted(ctx.txn_id, "local participant poisoned")
        results = yield from self._fanout(
            "prepare", remote, lambda _s: {"txn": ctx.txn_id})
        for server, payload in results.items():
            if payload is None:
                raise TransactionAborted(
                    ctx.txn_id, f"participant {server} unreachable at commit")
            if not payload["ok"]:
                raise TransactionAborted(
                    ctx.txn_id,
                    f"participant {server} voted {payload['reason']}")
        return None

    def end_transaction(self, ctx, outcome: str):
        if outcome not in ("commit", "abort"):
            raise ValueError(f"unknown outcome {outcome!r}")
        for server in sorted(ctx.participants):
            if server == self.pid:
                self._apply_decision(ctx.txn_id, outcome)
            else:
                self.processor.send(server, "release",
                                    {"txn": ctx.txn_id, "outcome": outcome})
        return
        yield  # pragma: no cover
