"""Simulated message network with latency, bandwidth, loss, and partitions.

Models the wide-area links between medical blockchain nodes (Figure 2) and
charges every byte to the metrics registry so experiments can compare
"move data to compute" against "move compute to data" (E5) and account for
consensus broadcast traffic (E1/E2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.common.errors import SimulationError
from repro.sim.kernel import Kernel
from repro.sim.metrics import MetricsRegistry

MessageHandler = Callable[[str, Any], None]


@dataclass(frozen=True)
class LinkSpec:
    """Link characteristics between two endpoints (or the default)."""

    latency_s: float = 0.02  # one-way propagation delay
    bandwidth_bps: float = 1e9  # bits per second
    loss_rate: float = 0.0  # independent drop probability
    jitter_s: float = 0.0  # uniform +/- jitter added to latency

    def transfer_time(self, size_bytes: int) -> float:
        """Propagation + serialization time for a payload (no jitter)."""
        return self.latency_s + (size_bytes * 8) / self.bandwidth_bps


@dataclass
class Message:
    """Envelope delivered to an endpoint handler."""

    sender: str
    recipient: str
    kind: str
    payload: Any
    size_bytes: int
    sent_at: float
    delivered_at: float = 0.0


class Network:
    """Point-to-point message delivery over a kernel.

    Endpoints register a handler; :meth:`send` schedules delivery after the
    link's latency/serialization delay; partitions and loss silently drop
    messages (as a real UDP-ish gossip layer would).
    """

    def __init__(
        self,
        kernel: Kernel,
        metrics: Optional[MetricsRegistry] = None,
        default_link: Optional[LinkSpec] = None,
    ):
        self.kernel = kernel
        self.metrics = metrics or MetricsRegistry()
        self.default_link = default_link or LinkSpec()
        self._handlers: Dict[str, MessageHandler] = {}
        self._links: Dict[Tuple[str, str], LinkSpec] = {}
        self._partitions: List[Set[str]] = []
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0

    # -- topology ------------------------------------------------------------
    def register(self, name: str, handler: MessageHandler) -> None:
        """Attach an endpoint.  Names must be unique."""
        if name in self._handlers:
            raise SimulationError(f"endpoint {name!r} already registered")
        self._handlers[name] = handler

    def unregister(self, name: str) -> None:
        self._handlers.pop(name, None)

    @property
    def endpoints(self) -> List[str]:
        return sorted(self._handlers)

    def set_link(self, a: str, b: str, spec: LinkSpec) -> None:
        """Override link characteristics between two endpoints (symmetric)."""
        self._links[(a, b)] = spec
        self._links[(b, a)] = spec

    def link(self, a: str, b: str) -> LinkSpec:
        return self._links.get((a, b), self.default_link)

    # -- partitions -----------------------------------------------------------
    def partition(self, *groups: Iterable[str]) -> None:
        """Split endpoints into isolated groups; cross-group traffic drops."""
        self._partitions = [set(group) for group in groups]

    def heal(self) -> None:
        """Remove all partitions."""
        self._partitions = []

    def _group_of(self, name: str) -> Optional[int]:
        for index, group in enumerate(self._partitions):
            if name in group:
                return index
        return None

    def _partitioned(self, a: str, b: str) -> bool:
        """Symmetric partition check.

        Two endpoints communicate iff they are in the same group, or both
        are outside every group.  (An earlier version answered only from
        the sender's side, so an ungrouped sender could reach a group
        member while the reply was dropped — a one-way partition no real
        network split produces.)
        """
        if not self._partitions:
            return False
        group_a = self._group_of(a)
        group_b = self._group_of(b)
        if group_a is None and group_b is None:
            return False
        return group_a != group_b

    # -- delivery ---------------------------------------------------------
    def send(
        self,
        sender: str,
        recipient: str,
        kind: str,
        payload: Any,
        size_bytes: int = 256,
    ) -> bool:
        """Send one message.  Returns False when it was dropped upfront."""
        if recipient not in self._handlers:
            raise SimulationError(f"unknown endpoint {recipient!r}")
        self.messages_sent += 1
        spec = self.link(sender, recipient)
        self.metrics.add_bytes(size_bytes, scope=sender)
        if self._partitioned(sender, recipient):
            self.messages_dropped += 1
            return False
        if spec.loss_rate > 0 and self.kernel.rng.random() < spec.loss_rate:
            self.messages_dropped += 1
            return False
        delay = spec.transfer_time(size_bytes)
        if spec.jitter_s > 0:
            delay += self.kernel.rng.uniform(0, spec.jitter_s)
        message = Message(
            sender=sender,
            recipient=recipient,
            kind=kind,
            payload=payload,
            size_bytes=size_bytes,
            sent_at=self.kernel.now,
        )
        self.kernel.schedule(
            delay, lambda: self._deliver(message), label=f"msg:{kind}"
        )
        return True

    def _deliver(self, message: Message) -> None:
        handler = self._handlers.get(message.recipient)
        if handler is None:
            self.messages_dropped += 1
            return
        message.delivered_at = self.kernel.now
        self.messages_delivered += 1
        self.metrics.observe("network_delay_s", message.delivered_at - message.sent_at)
        handler(message.sender, message)
