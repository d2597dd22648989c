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


def test_aggregate_additivity_and_identity():
    acc = ShareAccumulator([(0,)])
    acc.add_client({(0,): np.array([1, 2])}, 3)
    np.testing.assert_array_equal(acc.current((0,)), [1.0, 2.0])
    acc.add_client({(0,): np.array([3, 4])}, 7)
    np.testing.assert_array_equal(acc.current((0,)), [4.0, 6.0])


def test_aggregate_order_invariance():
    answers = [{(0,): np.array([i, 2 * i, 17])} for i in range(1, 6)]

    def pooled(order):
        acc = ShareAccumulator([(0,)])
        for i in order:
            acc.add_client(answers[i], 1)
        return acc.current((0,))

    expected = pooled(range(5))
    np.testing.assert_array_equal(expected, [15.0, 30.0, 85.0])
    np.testing.assert_array_equal(pooled(range(4, -1, -1)), expected)
    np.testing.assert_array_equal(pooled([2, 0, 4, 1, 3]), expected)


def test_aggregate_rejects_mismatched_queries():
    acc = ShareAccumulator([(0,)])
    with pytest.raises(KeyError):
        acc.add_client({(1,): np.array([1])}, 1)  # an answer to another query
    with pytest.raises(KeyError):
        acc.current((1,))
    with pytest.raises(KeyError, match="no contributions"):
        acc.current((0,))


@pytest.mark.parametrize("parties", [2, 3, 5])
def test_accumulator_matches_sharing_oracle(parties):
    """The accumulator's sums and per-client bytes equal real ``parties``-way
    sharing of the same answers followed by a modular sum."""
    rng = fork(7, "oracle", parties)
    keys = [(0,), (0, 1), (2,)]
    cells = {(0,): 3, (0, 1): 12, (2,): 5}
    clients = [{key: rng.integers(0, 40, size=n) for key, n in cells.items()} for _ in range(4)]
    clients.insert(2, {key: np.zeros(n, dtype=np.int64) for key, n in cells.items()})  # empty client
    acc, acc_ledger = ShareAccumulator(keys, parties=parties), CommsLedger()
    shares, ref_ledger = {key: [] for key in keys}, CommsLedger()
    for k, answers in enumerate(clients):
        size = int(answers[(0,)].sum())
        acc.add_client(answers, size, acc_ledger, client=k, round_index=1)
        for key in keys:
            shares[key] += share(answers[key], rng, parties, ref_ledger, k, 1, protocol="distaim")
    for key in keys:
        np.testing.assert_array_equal(acc.current(key), reconstruct(shares[key]))
        np.testing.assert_array_equal(acc.current(key), sum(c[key] for c in clients))
    assert acc_ledger.client_totals() == ref_ledger.client_totals()
    assert acc_ledger.client_totals()[2] == sum(cells.values()) * 8 * parties
    assert acc_ledger.to_csv() == ref_ledger.to_csv()


def test_accumulator_running_sum():
    acc = ShareAccumulator([(0,), (1,)], parties=3)
    acc.add_client({(0,): np.array([1, 0]), (1,): np.array([5, 5])}, 10)
    acc.add_client({(0,): np.array([2, 2]), (1,): np.array([0, 1])}, 4)
    np.testing.assert_array_equal(acc.current((0,)), [3.0, 2.0])
    np.testing.assert_array_equal(acc.current((1,)), [5.0, 6.0])
    assert acc.mass == 14


def test_secagg_round_exact_when_noiseless():
    vectors = [np.array([1.0, 2.0]), np.array([10.0, 20.0])]
    total = secagg_round(vectors)
    np.testing.assert_array_equal(total, [11.0, 22.0])


def test_secagg_round_ledger_charges_each_client():
    ledger = CommsLedger()
    secagg_round(
        [np.zeros(32), np.zeros(32)], ledger=ledger, clients=[3, 8], round_index=4
    )
    totals = ledger.client_totals()
    assert totals == {3: 32 * 8, 8: 32 * 8}


def test_ledger_csv_export():
    ledger = CommsLedger()
    ledger.charge(1, 0, bytes_sent=100, protocol="x")
    ledger.charge(2, 1, bytes_received=50, protocol="y")
    text = ledger.to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "client,round,bytes_sent,bytes_received,protocol"
    assert lines[1] == "1,0,100,0,x"
    assert lines[2] == "2,1,0,50,y"
    with pytest.raises(ValueError):
        ledger.charge(1, 0, bytes_sent=-1)


def test_ledger_blocks_read_as_per_charge_rows():
    """A block reads as the rows its charges would have made one by one:
    client by client, one row per message size, in the order charged."""
    blocks, reference = CommsLedger(), CommsLedger()
    sizes = (24, 96, 8)  # one tuple shared by several blocks
    for k in (4, 0, 9):
        blocks.charge_block((k,), 1, sizes, 0, "distaim")
        for sent in sizes:
            reference.charge(k, 1, bytes_sent=sent, protocol="distaim")
    blocks.charge_block((3, 8, 4), 2, (40,), 0, "flaim")
    for k in (3, 8, 4):
        reference.charge(k, 2, bytes_sent=40, protocol="flaim")
    for ledger in (blocks, reference):
        ledger.charge(7, 3, bytes_sent=5, bytes_received=11, protocol="x")
    blocks.charge_block((1, 2), 4, (6, 7), 3, "y")
    for k in (1, 2):
        for sent in (6, 7):
            reference.charge(k, 4, bytes_sent=sent, bytes_received=3, protocol="y")
    assert blocks.entries == reference.entries
    assert len(blocks.entries) == 9 + 3 + 1 + 4
    assert list(blocks.client_totals().items()) == list(reference.client_totals().items())
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
        reference.charge(k, 3, bytes_sent=6 * 8, protocol="f")
    assert by_list.to_csv() == by_matrix.to_csv() == reference.to_csv()
    for empty in ([], matrix[:0]):
        with pytest.raises(ValueError, match="no contributions"):
            secagg_round(empty)
    with pytest.raises(ValueError, match="one client id"):
        secagg_round(matrix, CommsLedger(), clients=[1, 2])
