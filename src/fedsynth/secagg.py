"""Simulated secret sharing and secure aggregation with cost accounting.

Marginal counts are encoded as elements of the ring Z_{2^64}; additive
shares are uniform on the ring and their modular sum is the encoded count.
There is no cryptographic transport: the contract is bit-exact aggregation
plus a byte ledger, which is everything the protocol simulations consume.
The protocols add encoded answers directly (what a client's shares sum to)
and charge every share's bytes; :func:`share` is the reference for that.
Noise is applied once by the server role after aggregation.
"""

from __future__ import annotations

import csv
import io
from array import array

import numpy as np

from .privacy import gaussian_mechanism

SHARE_BYTES = 8
DEFAULT_PARTIES = 3

SERVER = -1


_LEDGER_FIELDS = ["client", "round", "bytes_sent", "bytes_received", "protocol"]


class CommsLedger:
    """Per-client bytes sent/received by round and protocol.

    Charges are kept as integer columns, with each protocol stored as an
    index into a list of names.
    """

    def __init__(self):
        self.clients = array("q")
        self.rounds = array("q")
        self.bytes_sent = array("q")
        self.bytes_received = array("q")
        self.protocol_ids = array("q")
        self.protocols: list[str] = []
        self._protocol_index: dict[str, int] = {}

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
        pid = self._protocol_index.get(protocol)
        if pid is None:
            pid = self._protocol_index[protocol] = len(self.protocols)
            self.protocols.append(protocol)
        self.clients.append(int(client))
        self.rounds.append(int(round_index))
        self.bytes_sent.append(int(bytes_sent))
        self.bytes_received.append(int(bytes_received))
        self.protocol_ids.append(pid)

    def _rows(self):
        names = self.protocols
        for client, rnd, sent, received, pid in zip(
            self.clients, self.rounds, self.bytes_sent, self.bytes_received, self.protocol_ids
        ):
            yield client, rnd, sent, received, names[pid]

    @property
    def entries(self) -> list[dict]:
        """One dict per charge, built on demand."""
        return [dict(zip(_LEDGER_FIELDS, row)) for row in self._rows()]

    def client_totals(self) -> dict[int, int]:
        """Total traffic (sent + received) per client, server excluded."""
        totals: dict[int, int] = {}
        for client, sent, received in zip(self.clients, self.bytes_sent, self.bytes_received):
            if client == SERVER:
                continue
            totals[client] = totals.get(client, 0) + sent + received
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

    def add_client(
        self,
        answers: dict[tuple[int, ...], np.ndarray],
        client_size: int,
        ledger: CommsLedger | None = None,
        client: int = 0,
        round_index: int = 0,
        protocol: str = "distaim",
    ) -> None:
        """Pool one client's answers.

        The sum of a client's fresh shares over all parties is its encoded
        answer, so that is what is accumulated; the ledger is charged for
        every share the client sends, as :func:`share` charges it.
        """
        for key in self.sums:
            encoded = _encode(answers[key])
            if ledger is not None:
                ledger.charge(
                    client,
                    round_index,
                    bytes_sent=encoded.size * SHARE_BYTES * self.parties,
                    protocol=protocol,
                )
            if self.sums[key] is None:
                self.sums[key] = encoded
            else:
                self.sums[key] += encoded
        self.mass += client_size

    def current(self, key: tuple[int, ...]) -> np.ndarray:
        stored = self.sums[tuple(key)]
        if stored is None:
            raise KeyError(f"no contributions for query {key}")
        return _decode(stored)


def secagg_round(
    contributions: list[np.ndarray],
    sigma: float,
    rng: np.random.Generator,
    ledger: CommsLedger | None = None,
    clients: list[int] | None = None,
    round_index: int = 0,
    protocol: str = "secagg",
) -> np.ndarray:
    """Exact sum of client vectors plus one central N(0, sigma^2) per cell.

    Noise is added once per aggregate, not per client; each client is
    charged the bytes of its own vector.
    """
    if not contributions:
        raise ValueError("no contributions")
    stacked = np.asarray(contributions, dtype=np.float64)
    if stacked.ndim != 2:
        raise ValueError("contribution vectors must share one length")
    total = stacked.sum(axis=0)
    if ledger is not None:
        ids = clients if clients is not None else list(range(len(contributions)))
        for cid, vec in zip(ids, contributions):
            ledger.charge(
                cid,
                round_index,
                bytes_sent=np.asarray(vec).size * SHARE_BYTES,
                protocol=protocol,
            )
    if sigma > 0:
        total = gaussian_mechanism(total, sigma, rng)
    return total
