"""Compact LOCAL-model substrate: interned networks and flat-array rounds.

The reference simulator (:class:`~repro.local_model.scheduler.
SynchronousScheduler`) is the readable correctness oracle: per-node state
machines, per-message dict envelopes, hash-based neighbour sets.  Its hot
loop allocates one inbox and one outbox entry per message per round, which
caps simulated network sizes at toys.

This module is the compact counterpart, mirroring the design of
:mod:`repro.graphs.compact`:

* :class:`CompactNetwork` re-represents a :class:`~repro.local_model.
  network.Network` **once**: node ids (arbitrary Hashables) are interned
  into dense integers in ``repr``-sorted order via
  :func:`repro.graphs.compact.intern_nodes`, with each node's local input
  aligned to its dense id.  Because the reference algorithms break ties
  by ``repr`` order, "ascending dense id" and "reference tie-break order"
  coincide, which is what lets int-array kernels replay reference
  executions exactly.  Kernels build whatever adjacency they need from
  the local inputs (the token kernels read each node's parents there).
* :class:`CompactEngine` is the batched synchronous round engine: it owns
  the flat per-node state every kernel needs — alive flags, halt rounds,
  the round budget, and the message counter — so a kernel only supplies
  the algorithm-specific phase logic over parallel arrays (requests,
  grants, token positions) instead of per-message objects.

Kernels register on :class:`~repro.local_model.node.AlgorithmFactory`
(``compact_kernel=``) and are dispatched from
:meth:`~repro.local_model.runner.Runner.run` per :mod:`repro.dispatch`;
algorithms without a kernel always take the reference scheduler.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Tuple

from repro.graphs.compact import intern_nodes
from repro.local_model.errors import RoundLimitExceeded
from repro.local_model.metrics import ExecutionMetrics
from repro.local_model.network import Network

NodeId = Hashable


class CompactNetwork:
    """An immutable LOCAL-model network over dense node ids.

    Attributes
    ----------
    node_ids:
        Dense id → original Hashable id, ``repr``-sorted (the reference
        tie-break order).
    index_of:
        Inverse of ``node_ids``.
    local_inputs:
        Per dense node, the node's original local input object.
    """

    __slots__ = (
        "node_ids",
        "index_of",
        "local_inputs",
        "derived",
    )

    def __init__(
        self,
        node_ids: Tuple[NodeId, ...],
        index_of: Dict[NodeId, int],
        local_inputs: List[Any],
    ) -> None:
        self.node_ids = node_ids
        self.index_of = index_of
        self.local_inputs = local_inputs
        #: Memo for immutable structures kernels derive from this network
        #: (e.g. the dense token-game adjacency); keyed by kernel family.
        self.derived: Dict[str, Any] = {}

    @classmethod
    def from_network(cls, network: Network) -> "CompactNetwork":
        """Intern a reference :class:`Network` (one O(n) pass)."""
        node_ids, index_of = intern_nodes(iter(network))
        local_inputs = [network.local_input(node) for node in node_ids]
        return cls(node_ids, index_of, local_inputs)

    @classmethod
    def of(cls, network: Network) -> "CompactNetwork":
        """The interned form of ``network``, memoized on the network.

        Networks are immutable, so the compact form is computed at most
        once per network object; repeated executions (round kernels,
        head-to-head benchmarks) reuse it.
        """
        cached = getattr(network, "_compact_cache", None)
        if cached is not None:
            return cached
        compact = cls.from_network(network)
        network._compact_cache = compact
        return compact

    @property
    def num_nodes(self) -> int:
        return len(self.node_ids)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompactNetwork(n={self.num_nodes})"


class CompactEngine:
    """Batched synchronous round bookkeeping shared by compact kernels.

    Tracks exactly the runner-visible execution state — which nodes are
    still alive, when each node halted, how many communication rounds ran,
    and how many messages were delivered — as flat arrays and plain
    counters.  Kernels call :meth:`step` before simulating each
    communication round (replicating the reference runner's round-budget
    check), :meth:`halt` when a node commits, and :meth:`metrics` at the
    end to obtain an :class:`ExecutionMetrics` equal to the reference
    scheduler's.
    """

    __slots__ = (
        "num_nodes",
        "max_rounds",
        "alive",
        "halt_rounds",
        "n_alive",
        "rounds",
        "messages",
    )

    def __init__(self, num_nodes: int, max_rounds: int) -> None:
        self.num_nodes = num_nodes
        self.max_rounds = max_rounds
        self.alive = bytearray(b"\x01" * num_nodes)
        self.halt_rounds = [-1] * num_nodes
        self.n_alive = num_nodes
        self.rounds = 0
        self.messages = 0

    def step(self) -> int:
        """Enter the next communication round, enforcing the round budget.

        Mirrors the reference runner: with active nodes remaining, a new
        round may only start while fewer than ``max_rounds`` rounds have
        completed; otherwise the execution fails loudly.
        """
        if self.rounds >= self.max_rounds:
            raise RoundLimitExceeded(self.max_rounds, self.n_alive)
        self.rounds += 1
        return self.rounds

    def halt(self, node: int, round_number: int) -> None:
        """Record that dense node ``node`` halted at ``round_number``."""
        if self.alive[node]:
            self.alive[node] = 0
            self.halt_rounds[node] = round_number
            self.n_alive -= 1

    def metrics(self, node_ids: Tuple[NodeId, ...]) -> ExecutionMetrics:
        """Build the reference-equal :class:`ExecutionMetrics`."""
        halt_rounds = {
            node_ids[i]: r for i, r in enumerate(self.halt_rounds) if r >= 0
        }
        return ExecutionMetrics(
            rounds=self.rounds,
            messages_sent=self.messages,
            node_halt_rounds=halt_rounds,
            halted_nodes=len(halt_rounds),
            total_nodes=self.num_nodes,
        )
