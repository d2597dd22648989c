"""Pinned digests of every output a run writes.

Each case runs ``harness.execute_run`` on one small label-skew split that
leaves some clients empty, and hashes what ``harness.write_results`` would
write for it: the results.csv row, the round log, the accounting ledger and
the comms CSV.  Cases run three fixed rounds or, in ``ANNEALING_DIGESTS``,
budget annealing, where every method anneals and ends on a final round.  A
change meant to keep outputs byte-identical (a refactor or a speed-up) must
leave every digest as it is; a change meant to move results updates them
and says why.
"""

import hashlib
import json

import pytest

from fedsynth.harness import METHODS, ExperimentConfig, execute_run, results_to_csv

SEED = 5

# method -> local_rounds -> normalize_scores -> sha256 of the run's outputs
DIGESTS = {
    "aim": {
        1: {True: "daf2728280dcb9d2a0afacd090d2c9ddf686dfadc4104d14b387bfacd09fe01a",
            False: "8a74542e9fdc3991cc18dda325a084844136f9147480df73649e35ea2ac4f919"},
        2: {True: "98d7ced826c29cafb5264ebb4619a64b6ced1c96d1d274b504757193aa8c592d",
            False: "f386b31561961707505aeb9c151cf5b7f0a747db817146daa5dd26e0800510a0"},
    },
    "distaim": {
        1: {True: "b871c69d3be77b519e46decc7f8f8691b3e31cba6979e375c2446614d4c9025a",
            False: "56322aef64e97d990aad143c60cb8b85f5733b37acd76bd4201001e3f70d81cd"},
        2: {True: "a53f2fd63bfe8e3b716ea9f68dea725dc1fa7d1b3a06318f033da5c01b1064ff",
            False: "52227d43c7f421788592d345fcee2136c4113701c7e9576d5ab858fecfaa565a"},
    },
    "flaim-naive": {
        1: {True: "6ece178804e192e7a21adf589bdf62f5918674bddd6d6e835d020fa6b198fcde",
            False: "70af6fc5e7d50ce197c31b2326e562cbafe0b2783c08c9d1abe49baa70a3c50a"},
        2: {True: "6e8e0bbdec7f838651af51e86470a1e5f31153bc0ccc8b755e3291abec1eddc1",
            False: "d96b7c0b11ff9bf609474179b256a6529be1c02dd46e8729a62e0814b23c48af"},
    },
    "flaim-oracle": {
        1: {True: "90bbeb0d15dc61f72de673772bd880bca1254cb9968297613153c9f1c6c6215a",
            False: "1f87cb4cccfc00cd2e4d21d7c347e1f759e979910e44a5c7261811769f7b810f"},
        2: {True: "c88c3ffb60b1c44f560aa55824ffb040ecc4acdf23d0e024878923f5d82d7df2",
            False: "955a8bd2868e8c1581e4c8bf94d3753ec73ec5839a13ec38d61f792266bf07c3"},
    },
    "flaim-private": {
        1: {True: "fa6f6718235d44cfe8be75320be450e468bbde8d8d21d31156ec6bf964751b1a",
            False: "8e6fc37e91a63a76ffc7b76bcc05c262bdba7a08e72764bfaaef07704d0b964e"},
        2: {True: "c337990a1aa2143b527f274f2138ece7a63a59bac72b990c34013a8ccf288e6b",
            False: "03ce06881ae88c3f67f76ef82298440cd0a95a661842b6885df9b2f2e021ae96"},
    },
}

# the same cases under budget annealing (``rounds`` None)
ANNEALING_DIGESTS = {
    "aim": {
        1: {True: "d5cd5ac36e96ccec699394628419cad42a94d1d4b45f3e5594750a9c6545bb4f",
            False: "b1484ee2e419fe403b824979c53c1ed99704f756c582af4e7ed13655c3a288b4"},
        2: {True: "715c73fe41266919762b0537d7beec97f738533027a2876cca7dba1d4a8abe9c",
            False: "60da0caf715fe7d601ff9e31b2e8af1d8f72c32372c26a0e970dc43cdfcc8817"},
    },
    "distaim": {
        1: {True: "b2015ffc0c2c0f459b5a745853991eeacc7977e6de7e62455d2a050fd0aa9036",
            False: "fe49b93b58faf68611ad46cf967b3693c90f292c63e2cefe6d8d05ca08e31e8d"},
        2: {True: "55c1bc65e3df05117a1a01c202e9c7dac4c88d66c8c5aceb1412b3b236c8b598",
            False: "3e2f8dfb4d161adc297b586531bb890ea21e74921e74b13855a70e465b3c99b2"},
    },
    "flaim-naive": {
        1: {True: "76a78667e4089f82d973c674a63204cf4896bcfa5971f68fedd09ef650432e77",
            False: "1fcc20785aac35fcd26a72636edac1615c59df5c70bf7bb70cadebf67f9b0e72"},
        2: {True: "6bb574e66d7150403655513450713c520154c1d5b8bcbc7d189c5b300707783e",
            False: "bd5e8dc55420e8b536de6949a60f678ea15f62c25c890ac40a0f8782484998fc"},
    },
    "flaim-oracle": {
        1: {True: "b695b92267a3e2a4498170d8cd0fb9f2be0c1edcde6917bef98cbb567a1eb5d7",
            False: "5e4c62fcfabc16ff41afe5500abd85f7f7e83f904d74750eaf8056585675b9e8"},
        2: {True: "f76940532bba64cc998bf89f2e82f457304e1b9dfef155311f2e32d64fa58cf3",
            False: "b456cb111d67c1b6be947507826a17bac24642a298740ab1c29b86ff5d96b69e"},
    },
    "flaim-private": {
        1: {True: "afe78eab8d89be602e9421aac619a870ff100c40e72927c5a259458bbc44101b",
            False: "8ba65d5364339aac4d5220f0fed21874e018314cf52359dd9b7c7df114970aa4"},
        2: {True: "71c2f6c089795dccef83cde6daa87ae0fd313ca09a6c3e31957ceff924591908",
            False: "8550975d95c25473622fa9c977fdc34a02f97ca062d13ea1798357d3bd4db83a"},
    },
}


def _config(method: str, local_rounds: int, normalize: bool, rounds: int | None = 3) -> ExperimentConfig:
    return ExperimentConfig.from_dict({
        "dataset": {"kind": "synthfs", "clients": 20, "rows_per_client": 50,
                    "features": 4, "bins": 5, "seed": 1},
        "partition": {"kind": "label_skew", "clients": 40, "beta": 0.3, "class_attr": "f3", "seed": 2},
        "workload": {"arity": 2, "count": 5, "seed": 3},
        "protocol": {"method": method, "epsilon": 1.0, "rounds": rounds, "sample_rate": 0.2,
                     "local_rounds": local_rounds, "normalize_scores": normalize,
                     "fit_iters": 30, "final_fit_iters": 60},
    })


def _run(config: ExperimentConfig):
    result = execute_run(config, SEED)
    assert result.status == "ok", result.traceback
    return result


def _digest(result) -> str:
    """sha256 over the run's outputs, serialized as ``write_results`` writes them."""
    h = hashlib.sha256()
    h.update(results_to_csv([result]).encode())
    h.update("\n".join(json.dumps(e, sort_keys=True) for e in result.round_log).encode())
    h.update(json.dumps(result.accounting, indent=2, sort_keys=True).encode())
    h.update(result.comms_csv.encode())
    return h.hexdigest()


@pytest.mark.parametrize("normalize", [True, False])
@pytest.mark.parametrize("local_rounds", [1, 2])
@pytest.mark.parametrize("method", METHODS)
def test_outputs_match_pinned_digest(method, local_rounds, normalize):
    assert _digest(_run(_config(method, local_rounds, normalize))) == DIGESTS[method][local_rounds][normalize]


@pytest.mark.parametrize("normalize", [True, False])
@pytest.mark.parametrize("local_rounds", [1, 2])
@pytest.mark.parametrize("method", METHODS)
def test_annealing_outputs_match_pinned_digest(method, local_rounds, normalize):
    result = _run(_config(method, local_rounds, normalize, rounds=None))
    rounds = [e for e in result.round_log if e.get("phase", "round") == "round"]
    assert any(e.get("annealed") for e in rounds), "the case must exercise the annealing check"
    assert rounds[-1]["final"], "the case must end on the final-round adjustment"
    assert _digest(result) == ANNEALING_DIGESTS[method][local_rounds][normalize]
