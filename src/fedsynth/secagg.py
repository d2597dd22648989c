"""Simulated secret sharing and secure aggregation with cost accounting.

There is no cryptographic transport: the contract is bit-exact aggregation
plus a byte ledger, which is everything the protocol simulations consume.
:func:`share` splits integer counts into uniform additive shares on the
ring Z_{2^64}, whose modular sum is the counts; it is the reference the
accumulator is checked against.  The protocols never build shares: the
sum of a client's fresh shares is its answer, so they keep exact integer
sums of the clients' counts and charge every share's bytes.  Aggregation
here is exact: the protocol loop adds its one central noise draw to the
sum (``central.Loop.noised``).
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
    """Per-client bytes sent by round and protocol.

    Charges are kept as message blocks ``(clients, round, sizes,
    protocol)``: each client of a block sends one message of each byte size
    in ``sizes``.  A block reads as one row per message, client by client,
    in the order it was charged; clients receive nothing, so every row's
    ``bytes_received`` is 0.
    """

    def __init__(self):
        self.blocks: list[tuple[Sequence[int], int, tuple[int, ...], str]] = []

    def charge_block(
        self, clients: Sequence[int], round_index: int, sizes: tuple[int, ...], protocol: str
    ) -> None:
        """Charge every client in ``clients`` one message of each size in
        ``sizes``.  Both are kept as given, not copied, so callers must not
        change them afterwards."""
        if min(sizes, default=0) < 0:
            raise ValueError("byte counts must be non-negative")
        self.blocks.append((clients, int(round_index), sizes, protocol))

    def _rows(self):
        for clients, rnd, sizes, protocol in self.blocks:
            for client in clients:
                for sent in sizes:
                    yield client, rnd, sent, 0, protocol

    @property
    def entries(self) -> list[dict]:
        """One dict per charge, built on demand."""
        return [dict(zip(_LEDGER_FIELDS, row)) for row in self._rows()]

    def client_totals(self) -> dict[int, int]:
        """Total bytes sent per client."""
        totals: dict[int, int] = {}
        for clients, _, sizes, _ in self.blocks:
            per_client = sum(sizes)
            for client in clients:
                totals[client] = totals.get(client, 0) + per_client
        return totals

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(_LEDGER_FIELDS)
        writer.writerows(self._rows())
        return buf.getvalue()


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
    (uint64 arrays whose wrapping sum is the counts as int64)."""
    if parties < 2:
        raise ValueError("need at least two parties")
    counts = np.asarray(counts)
    if counts.dtype.kind in "iu":
        as_int = counts.astype(np.int64)
    else:
        as_int = np.rint(counts).astype(np.int64)
        if not np.allclose(counts, as_int):
            raise ValueError("secret sharing requires integer counts")
    shares = [
        rng.integers(0, 2**64, size=as_int.shape, dtype=np.uint64)
        for _ in range(parties - 1)
    ]
    last = as_int.view(np.uint64)
    for s in shares:
        last = last - s  # uint64 arithmetic wraps mod 2^64
    shares.append(last)
    if ledger is not None:
        ledger.charge_block((int(client),), round_index, (as_int.size * SHARE_BYTES * parties,), protocol)
    return shares


class ShareAccumulator:
    """Server-side running sums of clients' secret-shared answers over a
    fixed query set, as used by protocols that pool contributions across
    rounds."""

    def __init__(self, query_keys: list[tuple[int, ...]], parties: int = DEFAULT_PARTIES):
        if parties < 2:
            raise ValueError("need at least two parties")
        self.parties = parties
        self.sums: dict[tuple[int, ...], np.ndarray | None] = {
            tuple(k): None for k in query_keys
        }
        self.mass = 0.0

    def add_client(
        self,
        answers: dict[tuple[int, ...], np.ndarray],
        sizes: np.ndarray,
        ledger: CommsLedger,
        clients: Sequence[int],
        round_index: int,
    ) -> None:
        """Pool a block of clients joining together: ``answers`` maps each
        query to their (clients x cells) integer counts, row ``i`` being
        ``clients[i]``'s, and ``sizes`` holds their record counts.

        The modular sum of a client's fresh shares is its answer, and int64
        adds counts below 2^63 exactly as the ring does, so plain integer
        sums are kept.  The ledger is charged for every share the clients
        send, as :func:`share` charges it, in one block.
        """
        for key, total in self.sums.items():
            rows = answers[key]
            if rows.dtype.kind not in "iu":
                raise ValueError("secret sharing requires integer counts")
            block = rows.sum(axis=0, dtype=np.int64)
            self.sums[key] = block if total is None else total + block
        sizes_sent = tuple(s.size * SHARE_BYTES * self.parties for s in self.sums.values())
        ledger.charge_block(clients, round_index, sizes_sent, "distaim")
        self.mass += int(np.sum(sizes))

    def current(self, key: tuple[int, ...]) -> np.ndarray:
        stored = self.sums[tuple(key)]
        if stored is None:
            raise KeyError(f"no contributions for query {key}")
        return stored.astype(np.float64)


def secagg_round(
    contributions: list[np.ndarray] | np.ndarray,
    ledger: CommsLedger,
    clients: Sequence[int],
    round_index: int,
    protocol: str = "secagg",
) -> np.ndarray:
    """Exact sum of client vectors, as the server reconstructs it.

    ``contributions`` is a list of vectors or a (contributors x cells)
    matrix, row ``i`` being ``clients[i]``'s.  Each client is charged the
    bytes of its own vector, in one ledger block.  The sum carries no
    noise; the caller noises it once.
    """
    if len(contributions) == 0:
        raise ValueError("no contributions")
    stacked = np.asarray(contributions, dtype=np.float64)
    if stacked.ndim != 2:
        raise ValueError("contribution vectors must share one length")
    if len(clients) != len(stacked):
        raise ValueError("need one client id per contribution")
    ledger.charge_block(clients, round_index, (stacked.shape[1] * SHARE_BYTES,), protocol)
    return stacked.sum(axis=0)
