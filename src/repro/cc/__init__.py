"""Concurrency control: 2PL and TSO strategies, transactions, contexts.

Both strategies are in the CP-serializable class the paper's assumption
A1 requires; the replica control layer is agnostic to the choice
(``ProtocolConfig.cc``).
"""

from .context import TransactionContext
from .factory import make_cc
from .locks import EXCLUSIVE, SHARED, LockManager, LockRequest
from .strategy import ConcurrencyControl
from .transactions import Transaction, TransactionManager
from .tso import TimestampOrdering
from .twopl import TwoPhaseLocking


__all__ = [
    "ConcurrencyControl",
    "EXCLUSIVE",
    "LockManager",
    "LockRequest",
    "SHARED",
    "TimestampOrdering",
    "Transaction",
    "TransactionContext",
    "TransactionManager",
    "TwoPhaseLocking",
    "make_cc",
]
