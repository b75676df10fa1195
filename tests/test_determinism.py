"""Auction results must not depend on the interpreter's hash seed.

Every selection minimises exact integers under one tie rule
(`rational.tie_broken`), so no choice depends on how a float sum
rounds; each payment is one correctly rounded sum, and the float sums
left (eigenvector rows, totals) are correctly rounded or run in sorted
id order. This test runs one seeded batch of cover, flow and cut
auctions on tie-heavy bids, and one of eigenvectors, under two hash
seeds and compares the exact reprs."""

import os
import subprocess
import sys
from pathlib import Path

import frugal

BATCH = r"""
import random
from fractions import Fraction
from frugal.cut import cm_run
from frugal.eigen import build_vc_instance, ev_run
from frugal.flow import fm_run
from frugal.oracle import (random_cut_network, random_flow_network,
                           random_undirected_graph)

def show(outcome):
    print(sorted(outcome.winners), sorted(outcome.payments.items()),
          repr(outcome.total_payment))

rng = random.Random(7)
done = 0
while done < 40:
    g = random_undirected_graph(rng, rng.randint(5, 8))
    inst = build_vc_instance(g, {v: Fraction(1) for v in g.vertices})
    if not inst.agents:
        continue
    for _ in range(3):
        show(ev_run(inst, {a: Fraction(rng.randint(0, 8), rng.randint(1, 4))
                           for a in g.vertices}))
    done += 1
for _ in range(60):
    k = rng.randint(1, 2)
    g = random_flow_network(rng, k, rng.randint(1, 4))
    show(fm_run(g, {e.id: Fraction(rng.randint(1, 10**6), rng.randint(1, 4))
                    for e in g.edges}, k))
for _ in range(60):
    g = random_cut_network(rng, rng.randint(4, 10), rng.randint(5, 14))
    bids = {e.id: Fraction(rng.randint(0, 8), rng.randint(1, 4))
            for e in g.edges}
    show(cm_run(g, bids))
"""


EIGENPAIRS = r"""
import random
from fractions import Fraction
from frugal.eigen import build_vc_instance
from frugal.oracle import random_undirected_graph

rng = random.Random(3)
for _ in range(30):
    g = random_undirected_graph(rng, rng.randint(4, 10))
    tot = {v: Fraction(rng.randint(2, 9), rng.randint(1, 2))
           for v in g.vertices}
    print(sorted(build_vc_instance(g, tot).q.items()))
"""


def run_batch(hash_seed: str, batch: str = BATCH) -> str:
    src = str(Path(frugal.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", batch], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout


def test_results_do_not_depend_on_hash_seed():
    first = run_batch("0")
    assert first.count("\n") == 240
    assert run_batch("1") == first


def test_eigenpairs_do_not_depend_on_hash_seed():
    # Each row of the power iteration is one correctly rounded sum, so
    # the order a set lists an agent's neighbours in changes no bit.
    first = run_batch("0", EIGENPAIRS)
    assert first.count("\n") == 30
    assert run_batch("1", EIGENPAIRS) == first
