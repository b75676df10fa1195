"""Outcome digests: one sha256 per block of 20 auctions.

Three seeded pools run `ev_run` (160 auctions), `fm_run` (600) and
`cm_run` (600) on instances from the `oracle.random_*` generators. The
first half of each pool bids tie-heavy integers 0..3, the second half
rationals. A block's digest covers, for each of its auctions,
repr((sorted winners, sorted payments, total)), or the error the
auction raised, so a change that moves one winner or one payment bit
shows up as the block that holds it. After a change meant to move
outcomes, print the new digests with

    PYTHONPATH=src python tests/test_outcome_digests.py
"""

import hashlib
import random
from fractions import Fraction

import pytest

from frugal.cut import cm_run
from frugal.eigen import build_vc_instance, ev_run
from frugal.errors import FrugalError
from frugal.flow import fm_run
from frugal.oracle import (random_cut_network, random_flow_network,
                           random_undirected_graph)
from frugal.setsystems import VERTEX_COVER, SetSystem, tot

BLOCK = 20


def _bids(rng, agents, tie_heavy):
    if tie_heavy:
        return {a: rng.randint(0, 3) for a in sorted(agents)}
    return {a: Fraction(rng.randint(0, 40), rng.randint(1, 7))
            for a in sorted(agents)}


def _ev_pool(tie_heavy):
    """80 auctions: 20 G(n, 0.4) graphs, 5 to 9 vertices with at least
    one edge and the vertex-cover Tot, 4 bid vectors each."""
    rng = random.Random(101 + tie_heavy)
    runs = []
    while len(runs) < 80:
        g = random_undirected_graph(rng, rng.randint(5, 9), 0.4)
        if not g.edges:
            continue
        system = SetSystem(VERTEX_COVER, g)
        inst = build_vc_instance(g, {v: tot(system, v) for v in g.vertices})
        runs += [(ev_run, inst, _bids(rng, g.vertices, tie_heavy))
                 for _ in range(4)]
    return runs


def _fm_pool(tie_heavy):
    """300 auctions: k 1..3 flow networks with 0 to 5 shortcuts, 2 bid
    vectors each."""
    rng = random.Random(201 + tie_heavy)
    runs = []
    for _ in range(150):
        k = rng.randint(1, 3)
        g = random_flow_network(rng, k, rng.randint(0, 5))
        runs += [(fm_run, g, _bids(rng, (e.id for e in g.edges), tie_heavy),
                  k) for _ in range(2)]
    return runs


def _cm_pool(tie_heavy):
    """300 auctions: cut DAGs on 6 to 11 vertices with 8 to 24 drawn
    edges, 2 bid vectors each."""
    rng = random.Random(301 + tie_heavy)
    runs = []
    for _ in range(150):
        g = random_cut_network(rng, rng.randint(6, 11), rng.randint(8, 24))
        runs += [(cm_run, g, _bids(rng, (e.id for e in g.edges), tie_heavy))
                 for _ in range(2)]
    return runs


POOLS = {"ev_run": _ev_pool, "fm_run": _fm_pool, "cm_run": _cm_pool}


def outcomes(name: str) -> list:
    """The pool's outcomes in order: (sorted winners, sorted payments,
    total), or ("error", class name, message)."""
    results = []
    for tie_heavy in (True, False):
        for mechanism, *args in POOLS[name](tie_heavy):
            try:
                out = mechanism(*args)
            except FrugalError as exc:
                results.append(("error", type(exc).__name__, str(exc)))
                continue
            results.append((sorted(out.winners), sorted(out.payments.items()),
                            out.total_payment))
    return results


def digests(name: str) -> list:
    records = [repr(r) for r in outcomes(name)]
    return [hashlib.sha256("\n".join(records[i:i + BLOCK]).encode())
            .hexdigest() for i in range(0, len(records), BLOCK)]


DIGESTS = {
    "cm_run": [
        "749c5568183292a8b88c5c31c5e0cd9060a46962a01520fcafdd1c78cc220ad7",
        "53ddd689d4f8d87fe1bd092793bf6016a6f88a259038af6186b6d71aa69bc01d",
        "728eccf3322adc8dc349baf56c079b0f5a5be12821758b721f4c023471c9da6d",
        "cc3eb3708d11854c4bc07c170b1690e03cd8b364013f0428f94348c98d0c4833",
        "3dccc0f9704d64dde888fe4999718ace275f07bcfd833e1d9f6d83a510f974e1",
        "b146659d621b5ea7909c71951c93267e63afee17bc35dd4f989121e72e1454ce",
        "7e84a3e5ad561e101ac02de60644ad64fdaf2f17770c499ea8e8577c9dd7d15a",
        "ff5f9a183326a529f233ccbd50113e6dd0dc786a2003dc79c8c7ddf960ae8b8b",
        "caf3109237182c5dd1367f3bbd65296b21ae5a07e206ae82320a636931894595",
        "942d94e03404dd68da77e7f4465199720af32779cecaaafa394e66cc5daaf4d5",
        "18ffc0b5088a2f3d1c69209930ff54f3b2017c0062d35ceb979424ab70901979",
        "7339ec2997f51798e06f1bc2ecff34e40a425c89a890d990561759366b725d7e",
        "6de51c24a459b82de10a3c3f8ea765eeb8d51d76d48fb4045fc79e262c0c8ee7",
        "102c2ecb3c45e36cba7a189aadaf57c89c5a624cbe221aac88ebc68fe3feef45",
        "815569dd0bb41aacfbcdd2f44e6a658444254516c4bbb2b5bfb07a24a5da421b",
        "a7dadee7bd099f6c27d6bcf76f0345667b23e797a408517725f120174d84f91c",
        "d7c56b8e3fc2736d8cf94661954a115ef9c4390a2074b8edab996081fd49646b",
        "2f0fc860db6161bbadd2c618f130a6a05f37ba92e14d45144429725eeeedc464",
        "e12af184b3ce8aa0db8261ca0cd6de986f195d4dc1f2f55ae6def6dc7bcc14a8",
        "a41d0bc00755061debab20ab6b8a3f486682f1236de909792d56e8fe475fba0b",
        "f2fbb9482e09048e5d92e697f8e6c716526d5d947d5a175b92536af620df5b41",
        "088b77d81c9b8694f7130a1d517104da521df883411747bdf9a845fc3073c4fc",
        "0be6d0027c107233a96a1e9ae9e8e7e7ce420f83649b561bc3a1b39848bc1624",
        "01f15733d66ff88eccf9ed69bfda7e16c10017e2cd710f0aaad49a3982874e90",
        "e50796c08ef60c8fb88a601d09a63367b6effc94a0f4be22e00d997997ac1b00",
        "3581e1a5d33edfcce7dac99162ae43ab5c5ef527cc255037877cb942f4bdc4df",
        "59e7383048bc9a0a1b67d5a91217af82b6100ca254a356b68112a908fa258c12",
        "c99a391f772107a6dc955c725000c25bd15d96623c6dda6a74ae53d915a85d2d",
        "94adc6df7b7dc1d395c384c32962c5ba4f97e43fdb96e155a28016299cc60a05",
        "9140dd1ef6ec3aca7dcd4f994af6dda0157023f8669ad3ae9af6eb3f41aa8132",
    ],
    "ev_run": [
        "1c3a3321303f2d8a3312c78fddf88845d9de37a9e34897e6e24ca38534d7246d",
        "d4d7eda4e153f7f38dc8c281fab875ad969f6f8aba194a6925ce996ea8440f81",
        "ffba148264953e37c1690cc5cc6cc3935156800ca43e655ec2b443734249e63e",
        "bd622ae71103aa84c0565866494b3f498fe3e6a8f9ec1be155d240e3b22e6b18",
        "ba420ac6a33e0506528651ee78e1166121a0cab6984d14343d007d198b15ee75",
        "a605dde2d71a109daf3ad32b0591bd0839b6a59c7d1c4d15ec0c83ffd3236239",
        "8073f68bf752a71561cf19a5806ec7a35e277cc5d02b75e0244634aa748d4c2f",
        "ebd1ccce093410541ac201ee3abe8952ed18b23f81b6e6ecb4b428e774f42ffa",
    ],
    "fm_run": [
        "3f45c1d42678877a369ae916d028b1d575941eecc5c242cf1a3a9210021e35a7",
        "5270ead4c4e348b2f2f63c33095505f605d880958bb5711cecb1c6ca1208f395",
        "41bce3f758bb46d00a8315a4e8874a725d55cb634e08d4f25bfe1c674d7902b7",
        "d3bb2434b0588990b9d483ff8495338cc2d39d21f6598380a7d6b8a2da20c90a",
        "28b02964a03d9f255959909852ffb0e3d203d374fff18158681e579e8fd4aedb",
        "ce8ac62e53973258756ed15a087d0b5a1eb905b17fa2bc5e374e415e1db3d004",
        "e94df527cee6f0fdca388b8598880e098c520ff5e2f8dd506d4f76203c794297",
        "8732cd9795631fe9b51cc38ea2c734b10a0dca55aff5bf7c0383e9817afebc57",
        "d7cd8c1023c352d04ec444a9bbf56a48386f88aa6866eceda6edabf37a2f77f9",
        "2d91e84f289f816570cf281fd3aa3db7da7d237b4101d964c5bbdab13a61fae2",
        "d2196f32a066ca32d9a6caaf0620132e2af9d7db215974c7bdc8cd122ef8332b",
        "1d124a95413c57a32c06f97effdcb7cb783584eabcc42de4b5c3a9c0caae017b",
        "32d05fd0851a4502ca0c0da4730f1eef2ccd295e64a3dce597c28a865c872ff3",
        "483a1d38ed0eee9e9a06dcc65f8a3ce68cd263ab2652c188c0745cc282fa660f",
        "bdd09e06410ddf0a127ea520b992581e14e903661992597851bb2e6603cb30f8",
        "d3862e5f430a457c4b8135ce031e93439a6f72b5c832760cfa7cc450a1c779c8",
        "bdd35e75a6675e32964abdabf9df5e43aa940d4815e31e02120fff6b9e4b7c89",
        "8b83eef33d24a16a1af67411017c4a4ec55b6ca04c2b61e8618037fafbf50ec2",
        "64997cb27cdcf31bafc22eacf051e1aaa53b20bcc03ff23deeada05b76f2d382",
        "4b9f312028f39fc768125c0fbd2b15fa97001f8a9772ae5895a5552d4d2a555a",
        "c04fdebbaf31fc4844413e07c43893871b3c942ebacb84189c8ce389a054bd18",
        "fef1aeb7d12e4cc6ee75f7dc1cc6f9d68d2a579e0863acfbb0119dfbf2f54e35",
        "2dd7e31d2b9d247181920ee82007f70126f6d2c07613ae39e56c60326dedac77",
        "2be349f844fb5268e94b176b9e55cbfb0e59d0df237f6b3e640781f4846b0f83",
        "2144d6a4a0183b5452c832ab318846bbddeca87fbd874040e03e6f33303a61e8",
        "e89c8d431811872951eb1fab13ba74e8e43cd2a1b2aec0f2a7f551d6b1d82a20",
        "e7662dbfe0529a7e06eb574c9519df304d1bbd24c507941c45896b90107e9b90",
        "79b000f7835093c49b9acdcdc86e8436f8ff6e7af22db6578974052c84185022",
        "4a5d29a8833c027c685bcb516071006fcbd4e8b8ee328ad269d2d36db44a68c6",
        "5ed508e4abb2452877af0ea785545db5d006586d09b41bddcfe39b4b317273f4",
    ],
}


@pytest.mark.parametrize("name", sorted(POOLS))
def test_outcomes_match_digests(name):
    assert digests(name) == DIGESTS[name]


if __name__ == "__main__":
    print("DIGESTS = {")
    for name in sorted(POOLS):
        print(f'    "{name}": [')
        for digest in digests(name):
            print(f'        "{digest}",')
        print("    ],")
    print("}")
