"""Tunables for the peer-to-peer layer."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List


@dataclass
class P2PConfig:
    """Knobs shared by both transports (sim and TCP).

    Gossip: the node that creates a block or transaction pushes its body
    to ``fanout`` peers and names them; beyond that first hop an item is
    announced to ``fanout`` peers as its id only, and the body is fetched
    once, on miss — never flooded.  ``seen_cache_size`` bounds the dedup cache;
    ``sync_batch_size`` bounds one ``chain.get_blocks`` request during
    headers-first sync.  Pings double as the anti-entropy head exchange:
    every reply carries the peer's head and known peer addresses.
    """

    #: Bootstrap peer addresses (endpoint names on the sim network,
    #: ``host:port`` strings over TCP).  Seeds are redialed forever with
    #: capped exponential backoff; learned peers are dropped after
    #: ``max_connect_attempts`` consecutive failures.
    seeds: List[str] = field(default_factory=list)
    #: Peers a new body is pushed to, and a gossip announcement relayed to.
    fanout: int = 4
    #: Bounded LRU of announced ids (blocks and txs each get one).
    seen_cache_size: int = 4096
    #: Blocks fetched per ``chain.get_blocks`` request during sync.
    sync_batch_size: int = 32
    #: Headers requested per ``chain.get_headers`` round.
    sync_headers_window: int = 128
    #: Upper bound on tracked peers (seeds always fit).
    max_peers: int = 16
    #: Liveness ping / anti-entropy head-exchange period (jittered).
    ping_interval_s: float = 5.0
    #: Per-request timeout on hello/ping/fetch/sync calls.
    request_timeout_s: float = 5.0
    #: Consecutive ping failures before a peer is declared dead.
    max_ping_failures: int = 3
    #: Reconnect backoff after a dead peer or failed dial (doubles up to
    #: the cap, with multiplicative jitter).
    reconnect_backoff_s: float = 1.0
    reconnect_backoff_max_s: float = 30.0
    #: Dial attempts before a non-seed peer is forgotten.
    max_connect_attempts: int = 8
