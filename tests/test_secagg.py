import numpy as np
import pytest

from fedsynth.rng import fork
from fedsynth.secagg import CommsLedger, ShareAccumulator, secagg_round, share


def reconstruct(shares: list[np.ndarray]) -> np.ndarray:
    """Counts from a complete share set: wrapping uint64 sum, read as int64."""
    total = np.zeros_like(shares[0])
    for s in shares:
        total += s
    return total.view(np.int64).astype(np.float64)


def test_share_roundtrip_random_counts():
    rng = fork(0, "roundtrip")
    counts = rng.integers(0, 10_000, size=64)
    shares = share(counts, rng, parties=3)
    assert all(s.dtype == np.uint64 for s in shares)
    np.testing.assert_array_equal(reconstruct(shares), counts.astype(float))


def test_share_bytes_charged():
    ledger = CommsLedger()
    share(np.arange(64), fork(1), parties=3, ledger=ledger, client=5, round_index=2)
    assert ledger.entries == [
        {"client": 5, "round": 2, "bytes_sent": 64 * 8 * 3, "bytes_received": 0, "protocol": "share"}
    ]


def test_shares_of_zero_vector_look_uniform():
    shares = share(np.zeros(256, dtype=int), fork(3, "zero"), parties=3)
    for s in shares[:-1]:
        values = s.astype(np.float64)
        # spread across the full 64-bit range, not constant
        assert values.max() > 2**62
        assert len(np.unique(s)) > 250


def test_share_requires_integer_counts():
    with pytest.raises(ValueError):
        share(np.array([1.5, 2.0]), fork(0))
    with pytest.raises(ValueError):
        share(np.array([1, 2]), fork(0), parties=1)


def _pool(acc, clients):
    """Pool ``clients`` (one answer dict each) as one block with ids
    0..n-1 and record counts 1."""
    answers = {key: np.stack([c[key] for c in clients]) for key in acc.sums}
    acc.add_client(answers, np.ones(len(clients), dtype=np.int64), CommsLedger(), list(range(len(clients))), 0)


def test_aggregate_additivity_and_identity():
    acc = ShareAccumulator([(0,)])
    acc.add_client({(0,): np.array([[1, 2]])}, np.array([3]), CommsLedger(), [0], 0)
    np.testing.assert_array_equal(acc.current((0,)), [1.0, 2.0])
    acc.add_client({(0,): np.array([[3, 4]])}, np.array([7]), CommsLedger(), [1], 1)
    np.testing.assert_array_equal(acc.current((0,)), [4.0, 6.0])
    assert acc.current((0,)).dtype == np.float64


def test_aggregate_order_invariance():
    answers = [{(0,): np.array([i, 2 * i, 17])} for i in range(1, 6)]

    def pooled(order, blocks):
        """Pool the clients in ``order``, split into ``blocks`` joins."""
        acc = ShareAccumulator([(0,)])
        for part in np.array_split(np.asarray(order), blocks):
            _pool(acc, [answers[i] for i in part])
        return acc.current((0,))

    expected = pooled(range(5), 1)
    np.testing.assert_array_equal(expected, [15.0, 30.0, 85.0])
    np.testing.assert_array_equal(pooled(range(4, -1, -1), 1), expected)
    np.testing.assert_array_equal(pooled([2, 0, 4, 1, 3], 2), expected)
    np.testing.assert_array_equal(pooled([3, 1, 4, 0, 2], 5), expected)


def test_aggregate_rejects_mismatched_queries():
    acc = ShareAccumulator([(0,)])
    with pytest.raises(KeyError):
        acc.add_client({(1,): np.array([[1]])}, np.array([1]), CommsLedger(), [0], 0)  # an answer to another query
    with pytest.raises(KeyError):
        acc.current((1,))
    with pytest.raises(KeyError, match="no contributions"):
        acc.current((0,))
    with pytest.raises(ValueError, match="integer counts"):
        acc.add_client({(0,): np.array([[1.5]])}, np.array([1]), CommsLedger(), [0], 0)


@pytest.mark.parametrize("parties", [2, 3, 5])
def test_accumulator_matches_sharing_oracle(parties):
    """The accumulator's sums and per-client bytes over two joins equal real
    ``parties``-way sharing of the same answers followed by a modular sum."""
    rng = fork(7, "oracle", parties)
    keys = [(0,), (0, 1), (2,)]
    cells = {(0,): 3, (0, 1): 12, (2,): 5}
    clients = [{key: rng.integers(0, 40, size=n) for key, n in cells.items()} for _ in range(6)]
    clients.insert(2, {key: np.zeros(n, dtype=np.int64) for key, n in cells.items()})  # empty client
    acc, acc_ledger = ShareAccumulator(keys, parties=parties), CommsLedger()
    shares, ref_ledger = {key: [] for key in keys}, CommsLedger()
    joins = [(1, [4, 0, 2]), (3, [6, 1, 5, 3])]  # the second join adds to existing sums
    for round_index, ids in joins:
        answers = {key: np.stack([clients[k][key] for k in ids]) for key in keys}
        sizes = np.array([int(clients[k][(0,)].sum()) for k in ids])
        acc.add_client(answers, sizes, acc_ledger, ids, round_index)
        for k in ids:
            for key in keys:
                shares[key] += share(clients[k][key], rng, parties, ref_ledger, k, round_index, protocol="distaim")
        if round_index == 1:
            for key in keys:
                np.testing.assert_array_equal(acc.current(key), reconstruct(shares[key]))
    for key in keys:
        np.testing.assert_array_equal(acc.current(key), reconstruct(shares[key]))
        np.testing.assert_array_equal(acc.current(key), sum(c[key] for c in clients))
    assert acc.mass == sum(int(c[(0,)].sum()) for c in clients)
    assert acc_ledger.client_totals() == ref_ledger.client_totals()
    assert acc_ledger.client_totals()[2] == sum(cells.values()) * 8 * parties
    assert acc_ledger.to_csv() == ref_ledger.to_csv()
    assert len(acc_ledger.blocks) == len(joins)


def test_accumulator_running_sum():
    acc = ShareAccumulator([(0,), (1,)], parties=3)
    ledger = CommsLedger()
    acc.add_client({(0,): np.array([[1, 0]]), (1,): np.array([[5, 5]])}, np.array([10]), ledger, [0], 0)
    assert acc.mass == 10
    acc.add_client(
        {(0,): np.array([[2, 2], [0, 0]]), (1,): np.array([[0, 1], [0, 0]])}, np.array([4, 0]), ledger, [1, 2], 1
    )
    np.testing.assert_array_equal(acc.current((0,)), [3.0, 2.0])
    np.testing.assert_array_equal(acc.current((1,)), [5.0, 6.0])
    assert acc.mass == 14
    assert ledger.client_totals() == {0: 2 * 2 * 8 * 3, 1: 2 * 2 * 8 * 3, 2: 2 * 2 * 8 * 3}


def test_secagg_round_exact_when_noiseless():
    vectors = [np.array([1.0, 2.0]), np.array([10.0, 20.0])]
    total = secagg_round(vectors, CommsLedger(), [0, 1], 0)
    np.testing.assert_array_equal(total, [11.0, 22.0])


def test_secagg_round_ledger_charges_each_client():
    ledger = CommsLedger()
    secagg_round([np.zeros(32), np.zeros(32)], ledger, [3, 8], 4)
    totals = ledger.client_totals()
    assert totals == {3: 32 * 8, 8: 32 * 8}


def test_ledger_csv_export():
    ledger = CommsLedger()
    ledger.charge_block((1,), 0, (100,), "x")
    ledger.charge_block((2, 3), 1, (0, 7), "y")
    text = ledger.to_csv()
    lines = text.strip().splitlines()
    assert lines == [
        "client,round,bytes_sent,bytes_received,protocol",
        "1,0,100,0,x",
        "2,1,0,0,y",
        "2,1,7,0,y",
        "3,1,0,0,y",
        "3,1,7,0,y",
    ]
    assert all(entry["bytes_received"] == 0 for entry in ledger.entries)
    with pytest.raises(ValueError, match="non-negative"):
        ledger.charge_block((1,), 0, (5, -1), "x")
    assert len(ledger.blocks) == 2  # the refused charge left no block


def test_ledger_blocks_read_as_per_charge_rows():
    """A block reads as the rows one-client, one-message blocks would make:
    client by client, one row per message size, in the order charged."""
    blocks, reference = CommsLedger(), CommsLedger()
    sizes = (24, 96, 8)  # one tuple shared by several blocks
    blocks.charge_block((4, 0, 9), 1, sizes, "distaim")
    for k in (4, 0, 9):
        for sent in sizes:
            reference.charge_block((k,), 1, (sent,), "distaim")
    blocks.charge_block((3, 8, 4), 2, (40,), "flaim")
    for k in (3, 8, 4):
        reference.charge_block((k,), 2, (40,), "flaim")
    for ledger in (blocks, reference):
        ledger.charge_block((7,), 3, (5,), "x")
    blocks.charge_block((1, 2), 4, (6, 7), "y")
    for k in (1, 2):
        for sent in (6, 7):
            reference.charge_block((k,), 4, (sent,), "y")
    assert blocks.entries == reference.entries
    assert len(blocks.entries) == 9 + 3 + 1 + 4
    assert list(blocks.client_totals().items()) == list(reference.client_totals().items())
    assert blocks.client_totals()[4] == sum(sizes) + 40
    assert blocks.to_csv() == reference.to_csv()


def test_secagg_round_takes_a_list_or_a_matrix():
    matrix = fork(13).integers(0, 50, size=(4, 6)).astype(np.int32)
    clients = [2, 5, 7, 11]
    by_list, by_matrix, reference = CommsLedger(), CommsLedger(), CommsLedger()
    a = secagg_round(list(matrix), by_list, clients=clients, round_index=3, protocol="f")
    b = secagg_round(matrix, by_matrix, clients=clients, round_index=3, protocol="f")
    assert a.tobytes() == b.tobytes()
    np.testing.assert_array_equal(a, matrix.sum(axis=0))
    for k in clients:
        reference.charge_block((k,), 3, (6 * 8,), "f")
    assert by_list.to_csv() == by_matrix.to_csv() == reference.to_csv()
    for empty in ([], matrix[:0]):
        with pytest.raises(ValueError, match="no contributions"):
            secagg_round(empty, CommsLedger(), [], 0)
    with pytest.raises(ValueError, match="one client id"):
        secagg_round(matrix, CommsLedger(), clients=[1, 2], round_index=0)
