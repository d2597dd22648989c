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
        1: {True: "092557fdd40a325591088218de667258895570f605978238633e632bc3c82149",
            False: "11e3e237d7ac04c5518902e39dc846818720c5a6f693815191a8ba2cf4917625"},
        2: {True: "555b0e9ebc8ad8301ec0cae2748741d77ce01f8ef39dd7857323979ea1435b58",
            False: "e053cead8c23cf82422f620460e7db4ff2a497b450eb8244368ed32e5a65fe91"},
    },
    "distaim": {
        1: {True: "b871c69d3be77b519e46decc7f8f8691b3e31cba6979e375c2446614d4c9025a",
            False: "56322aef64e97d990aad143c60cb8b85f5733b37acd76bd4201001e3f70d81cd"},
        2: {True: "a53f2fd63bfe8e3b716ea9f68dea725dc1fa7d1b3a06318f033da5c01b1064ff",
            False: "52227d43c7f421788592d345fcee2136c4113701c7e9576d5ab858fecfaa565a"},
    },
    "flaim-naive": {
        1: {True: "070ef29df0ffb13152fe9d0a4a7012ba8e486005396d29d40705107d5c9a0734",
            False: "70af6fc5e7d50ce197c31b2326e562cbafe0b2783c08c9d1abe49baa70a3c50a"},
        2: {True: "c9296f86c7d627ece19d0728e010d666f081f237aef7887c0b96a1ace22b2dac",
            False: "45f6cf62f251c6f383b7c50602d9ec517be25e470a880b0fb1c2602dcacda68b"},
    },
    "flaim-oracle": {
        1: {True: "1ee60bc6721914d3eb4a33f33791942d8054ae65e0dca9f8a9d4c576bd3b13eb",
            False: "07ef868c7deb3c7e78e3b486aea36d771560018e847d9d315835d6b38c08898f"},
        2: {True: "54ad8a91224ff084bc2dcb850bbbd35b8ede22e8fc661ed872461125c0fc1c16",
            False: "2962357ee740280270dc94c692464da6d7fb804769d06076568b70d043f6938c"},
    },
    "flaim-private": {
        1: {True: "11048b0a30cf2db2ed1d5220717e1ce384dadd4475a98a1f57e6bc54e47bf6dc",
            False: "c4a129792db9214f40b67ca72dd9308942d67bd9786c777079707532b9475290"},
        2: {True: "0a86e6b9d0d9cfd829fe7ed7d7d6caaad8689cce910a256d31c630c6987b806b",
            False: "fb26b2799afecc07d353b995fb11193e85d0fe1a1403eb11d7d066d3d8e298db"},
    },
}

# the same cases under budget annealing (``rounds`` None)
ANNEALING_DIGESTS = {
    "aim": {
        1: {True: "291a74fa96874647cc765b8f5fa0d98ba7200ad26f70c7c5433c160ff445a50c",
            False: "6798dc172decadad83191a6f58206960341e06febce1bb2cfd2438de24ed1469"},
        2: {True: "5d92504fbaa4dc4f86201c43f6b9cdf343fd8b7a5e3e3155fe785fe1a6fb15db",
            False: "18b8b62b194a9c5dbd71ca35406d8e2f1fb70a2f34a56c6dc99dc0fc187611ef"},
    },
    "distaim": {
        1: {True: "042262b235648f3e2e39dcedeb4fc1bc3d760984fc0ea5a106e3ddc7c55d07c9",
            False: "7275a16dd0e855ae95355a24582958234fb551ca267724da1b6c878ef4bec092"},
        2: {True: "7333804ca8fb9fb4ee990ffd75585301478b0e53407ee9f0fb48049cc18929fd",
            False: "fcc3d609d0ad6c367a313bbe270d13f9f01b91b5bded90084a764f689f573ea4"},
    },
    "flaim-naive": {
        1: {True: "55a3c75dbc8a9c8bc98bbc91496661af0659bf26d07a5e81b5f77f4dc4d29319",
            False: "1fcc20785aac35fcd26a72636edac1615c59df5c70bf7bb70cadebf67f9b0e72"},
        2: {True: "c9650baa837ad50d4461f0bcba89077c8109055581afe5ab84fa4cf676188fd7",
            False: "a9a067cda93663ec014f9739941a3262861ba504a11e6a0a803f691eccd9c4e1"},
    },
    "flaim-oracle": {
        1: {True: "2539b83e4db7df800284c5c4c11a56b4751148c57a22d2e0e041e6b51caeeeaf",
            False: "a44cb1d6f0a798ecbcdb47ac59b54956df60d61106f4fc933a4917dad3a8066d"},
        2: {True: "abd6b006f6cc65c5af58a4f3090bc92774a1f6c04875bb104578c5c2083080a5",
            False: "5ec73b8cffb7f5556897109acd01faff6e6f03846f24478c089adc9d572d58f1"},
    },
    "flaim-private": {
        1: {True: "be9ac23c268c336b4f7019d75e6b497cce8fe5667899c50f6b1d31c8b312a51b",
            False: "3ee30ed233cc7085dd9f2347cbc41ecf399e4f1007fbfa16e8513f290688a7b1"},
        2: {True: "fe2b2297002d87b22b43db34a794583875448f24ac6d0bf4b4dc74d3a94db31a",
            False: "33c10a2a83decfd0f75164ee8d507706de467a48c40d47d45e0400ac63904445"},
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
