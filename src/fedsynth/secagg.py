"""Simulated secret sharing and secure aggregation with cost accounting.

Marginal counts are encoded as elements of the ring Z_{2^64}; additive
shares are uniform on the ring and their modular sum is the encoded count.
There is no cryptographic transport: the contract is bit-exact aggregation
plus a byte ledger, which is everything the protocol simulations consume.
The protocols add encoded answers directly (what a client's shares sum to)
and charge every share's bytes; :func:`share` is the reference for that.
Aggregation here is exact: the protocol loop adds its one central noise
draw to the sum (``central.Loop.noised``).
"""

from __future__ import annotations

import csv
import io
from typing import Sequence

import numpy as np

SHARE_BYTES = 8
DEFAULT_PARTIES = 3

_LEDGER_FIELDS = ["client", "round", "bytes_sent", "bytes_received", "protocol"]


class CommsLedger:
    """Per-client bytes sent/received by round and protocol.

    Charges are kept as message blocks ``(clients, round, sizes, received,
    protocol)``: each client of a block sends one message of each byte size
    in ``sizes`` and receives ``received`` bytes with each.  A block reads
    as one row per message, client by client, in the order it was charged.
    """

    def __init__(self):
        self.blocks: list[tuple[Sequence[int], int, tuple[int, ...], int, str]] = []

    def charge(
        self,
        client: int,
        round_index: int,
        bytes_sent: int = 0,
        bytes_received: int = 0,
        protocol: str = "",
    ) -> None:
        if bytes_sent < 0 or bytes_received < 0:
            raise ValueError("byte counts must be non-negative")
        self.charge_block((int(client),), round_index, (int(bytes_sent),), int(bytes_received), protocol)

    def charge_block(
        self, clients: Sequence[int], round_index: int, sizes: tuple[int, ...], received: int, protocol: str
    ) -> None:
        """Charge every client in ``clients`` one message of each size in
        ``sizes``.  Both are kept as given, not copied, so callers can share
        one sequence across blocks and must not change it afterwards."""
        self.blocks.append((clients, int(round_index), sizes, received, protocol))

    def _rows(self):
        for clients, rnd, sizes, received, protocol in self.blocks:
            for client in clients:
                for sent in sizes:
                    yield client, rnd, sent, received, protocol

    @property
    def entries(self) -> list[dict]:
        """One dict per charge, built on demand."""
        return [dict(zip(_LEDGER_FIELDS, row)) for row in self._rows()]

    def client_totals(self) -> dict[int, int]:
        """Total traffic (sent + received) per client."""
        totals: dict[int, int] = {}
        for clients, _, sizes, received, _ in self.blocks:
            per_client = sum(sizes) + received * len(sizes)
            for client in clients:
                totals[client] = totals.get(client, 0) + per_client
        return totals

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(_LEDGER_FIELDS)
        writer.writerows(self._rows())
        return buf.getvalue()


def _encode(counts: np.ndarray) -> np.ndarray:
    counts = np.asarray(counts)
    if counts.dtype.kind in "iu":
        return counts.astype(np.int64).view(np.uint64)
    as_int = np.rint(counts).astype(np.int64)
    if not np.allclose(counts, as_int):
        raise ValueError("secret sharing requires integer counts")
    return as_int.view(np.uint64)


def _decode(ring: np.ndarray) -> np.ndarray:
    return ring.astype(np.uint64).view(np.int64).astype(np.float64)


def share(
    counts: np.ndarray,
    rng: np.random.Generator,
    parties: int = DEFAULT_PARTIES,
    ledger: CommsLedger | None = None,
    client: int = 0,
    round_index: int = 0,
    protocol: str = "share",
) -> list[np.ndarray]:
    """Split integer counts into ``parties`` uniform additive ring shares
    (uint64 arrays whose wrapping sum is the encoded counts)."""
    if parties < 2:
        raise ValueError("need at least two parties")
    encoded = _encode(counts)
    shares = [
        rng.integers(0, 2**64, size=encoded.shape, dtype=np.uint64)
        for _ in range(parties - 1)
    ]
    last = encoded.copy()
    for s in shares:
        last = last - s  # uint64 arithmetic wraps mod 2^64
    shares.append(last)
    if ledger is not None:
        ledger.charge(
            client,
            round_index,
            bytes_sent=encoded.size * SHARE_BYTES * parties,
            protocol=protocol,
        )
    return shares


class ShareAccumulator:
    """Server-side running sums of clients' ring-encoded answers over a fixed
    query set, as used by protocols that pool contributions across rounds."""

    def __init__(self, query_keys: list[tuple[int, ...]], parties: int = DEFAULT_PARTIES):
        if parties < 2:
            raise ValueError("need at least two parties")
        self.parties = parties
        self.sums: dict[tuple[int, ...], np.ndarray | None] = {
            tuple(k): None for k in query_keys
        }
        self.mass = 0.0
        self._sizes: tuple[int, ...] | None = None  # bytes a client sends per query, once known

    def add_client(
        self,
        answers: dict[tuple[int, ...], np.ndarray],
        client_size: int,
        ledger: CommsLedger | None = None,
        client: int = 0,
        round_index: int = 0,
    ) -> None:
        """Pool one client's answers.

        The sum of a client's fresh shares over all parties is its encoded
        answer, so that is what is accumulated; the ledger is charged for
        every share the client sends, as :func:`share` charges it, in one
        ledger block.
        """
        for key in self.sums:
            encoded = _encode(answers[key])
            if self.sums[key] is None:
                self.sums[key] = encoded
            else:
                self.sums[key] += encoded
        if self._sizes is None:
            self._sizes = tuple(s.size * SHARE_BYTES * self.parties for s in self.sums.values())
        if ledger is not None:
            ledger.charge_block((int(client),), round_index, self._sizes, 0, "distaim")
        self.mass += client_size

    def current(self, key: tuple[int, ...]) -> np.ndarray:
        stored = self.sums[tuple(key)]
        if stored is None:
            raise KeyError(f"no contributions for query {key}")
        return _decode(stored)


def secagg_round(
    contributions: list[np.ndarray] | np.ndarray,
    ledger: CommsLedger | None = None,
    clients: Sequence[int] | None = None,
    round_index: int = 0,
    protocol: str = "secagg",
) -> np.ndarray:
    """Exact sum of client vectors, as the server reconstructs it.

    ``contributions`` is a list of vectors or a (contributors x cells)
    matrix.  Each client is charged the bytes of its own vector, in one
    ledger block.  The sum carries no noise; the caller noises it once.
    """
    if len(contributions) == 0:
        raise ValueError("no contributions")
    stacked = np.asarray(contributions, dtype=np.float64)
    if stacked.ndim != 2:
        raise ValueError("contribution vectors must share one length")
    total = stacked.sum(axis=0)
    if ledger is not None:
        ids = range(len(stacked)) if clients is None else clients
        if len(ids) != len(stacked):
            raise ValueError("need one client id per contribution")
        ledger.charge_block(ids, round_index, (stacked.shape[1] * SHARE_BYTES,), 0, protocol)
    return total
