"""The four workloads.

Each workload makes its inputs from the seed (`generate`), prepares what
the library needs before the first auction (`prepare`), runs one round
of auctions through a `Timer` (`run_round`), and checks every recorded
outcome against `checks` once the timed phase is over (`problems`,
`controls`).

Library functions are looked up on their modules at call time, so the
tracer's rebinding reaches them.
"""

from __future__ import annotations

import dataclasses
import math
import random
import signal
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from time import process_time

from frugal import cut, eigen, flow, oracle, setsystems
from frugal.errors import DomainError

import checks

# The flow auction raises ScaleError above 16 edges (caps.FLOW_EDGE_CAP),
# although its pipeline is polynomial; the workload stays below it.
FLOW_MAX_EDGES = 16
# Cut networks with many s-t paths make the auction's cost heavy-tailed
# (graphs with 12+ paths average 0.4-1.1 s per auction, up to 9 s), so a
# single draw moves a whole run; up to four paths keeps runs comparable
# while about one auction in seven still takes the exact-LP fallback.
# Below that, the path count still sets the cost (about 2, 6, 14 and 22 ms
# per auction for 1, 2, 3 and 4 paths), so networks take their path count
# from a fixed cycle in the generator's own proportions (35:28:21:16):
# every run has the same mix, whatever the seed.
CUT_PATH_CYCLE = (1,) * 7 + (2,) * 6 + (3,) * 4 + (4,) * 3
# Bids drawn from 0..8 over 1..4 tie often. On some draws tied scaled
# bids make the flow auction's float min-cost flow loop forever, and
# truthfulness replays report violations (a tied vc cover flips; a cut
# loser's raise of 1..4 moves the double cut). The flow and replay
# workloads therefore draw numerators up to GENERIC_TOP.
GENERIC_TOP = 10**6

# A mechanism call running longer than this is stopped and counted as
# failed, so a run that meets a hang still ends and reports it.
AUCTION_LIMIT_S = 30


class AuctionTimeout(Exception):
    pass


def _expire(signum, frame):
    raise AuctionTimeout(f"auction ran past {AUCTION_LIMIT_S} s")


class Timer:
    """Times each mechanism call in process CPU time; counts every
    attempt. The library is single-threaded and does no I/O, so on an
    idle core a call's CPU time is its wall time; on a shared host CPU
    time leaves out the time the host runs other tenants instead."""

    def __init__(self):
        self.attempts = 0
        self.latencies: list[float] = []
        signal.signal(signal.SIGALRM, _expire)

    def call(self, fn, *args):
        self.attempts += 1
        signal.setitimer(signal.ITIMER_REAL, AUCTION_LIMIT_S)
        start = process_time()
        try:
            out = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        self.latencies.append(process_time() - start)
        return out


@dataclass
class Record:
    """One checked unit: an auction, or one replay of many auctions."""
    item: object
    inputs: object
    outcome: object = None
    error: str | None = None
    calls: int = 1


def rational_bids(rng: random.Random, agents, top: int = 8) -> dict:
    return {a: Fraction(rng.randint(0, top), rng.randint(1, 4))
            for a in sorted(agents)}


def _auction(item, inputs, timer: Timer, fn, *args) -> Record:
    try:
        return Record(item, inputs, timer.call(fn, *args))
    except Exception as exc:  # a failed auction is counted, not fatal
        return Record(item, inputs, error=f"{type(exc).__name__}: {exc}")


def _connected_graph(rng: random.Random, n: int, p: float):
    """G(n, p) redrawn until no vertex is isolated: `build_vc_instance`
    rejects tot(v) = 0 before it strips isolated agents."""
    while True:
        g = oracle.random_undirected_graph(rng, n, p)
        if len({v for e in g.edges for v in (e.tail, e.head)}) == n:
            return g


class _Auctions:
    """Shared negative controls: each corruption of a correct outcome
    must be rejected by the workload's check."""

    corruptions = (checks.drop_winner, checks.underpay_winner)

    def controls(self, state, records) -> dict:
        done = [r for r in records if r.error is None]
        out = {}
        for corrupt in self.corruptions:
            rejected = False
            for rec in done:
                bad = corrupt(rec.outcome, rec.inputs)
                if bad is not None:
                    rejected = bool(self.problems(
                        state, dataclasses.replace(rec, outcome=bad)))
                    break
            out[corrupt.__name__] = rejected
        return out


class VertexCover(_Auctions):
    """`ev_run` with the brute-force cover solver. Sixteen graphs of each
    size 8..12 (edge probability 0.4); one auction per graph per round,
    cycling through 16 bid vectors per graph. The cost of an auction
    varies from graph to graph at one size (by a fifth to two fifths), so
    a run needs many graphs of each size for its percentiles to hold from
    seed to seed."""

    name = "vc"
    rounds_per_s = 0.35
    sizes = range(8, 13)
    graphs_per_size = 16
    bids_per_graph = 16

    def generate(self, rng, seconds):
        graphs = [_connected_graph(rng, n, 0.4)
                  for n in self.sizes for _ in range(self.graphs_per_size)]
        bids = [[rational_bids(rng, g.vertices)
                 for _ in range(self.bids_per_graph)] for g in graphs]
        return {"graphs": graphs, "bids": bids}

    def prepare(self, inputs):
        return dict(inputs, instances=[_vc_instance(g) for g in inputs["graphs"]],
                    refs={})

    def run_round(self, state, i, timer):
        out = []
        for j, inst in enumerate(state["instances"]):
            bids = state["bids"][j][i % self.bids_per_graph]
            out.append(_auction(j, bids, timer, eigen.ev_run, inst, bids))
        return out

    def problems(self, state, rec):
        if rec.item not in state["refs"]:
            g = state["graphs"][rec.item]
            state["refs"][rec.item] = checks.CoverReference(
                g.vertices, [(e.tail, e.head) for e in g.edges])
        return checks.vc_problems(state["refs"][rec.item], rec.inputs,
                                  rec.outcome)


def _vc_instance(g):
    system = setsystems.SetSystem(setsystems.VERTEX_COVER, g)
    tot = {v: setsystems.tot(system, v) for v in g.vertices}
    return eigen.build_vc_instance(g, tot)


class Flow(_Auctions):
    """`fm_run` on a fresh `random_flow_network` per auction, 1..5
    shortcut edges, at most FLOW_MAX_EDGES edges. A round holds one
    network for each k in 1..3, so every run has the same mix of k."""

    name = "flow"
    rounds_per_s = 45.0

    def generate(self, rng, seconds):
        return [[self._instance(rng, k) for k in (1, 2, 3)]
                for _ in range(math.ceil(seconds * self.rounds_per_s * 1.5))]

    @staticmethod
    def _instance(rng, k):
        while True:
            g = oracle.random_flow_network(rng, k, rng.randint(1, 5))
            if len(g.edges) <= FLOW_MAX_EDGES:
                return g, k, rational_bids(rng, (e.id for e in g.edges),
                                           GENERIC_TOP)

    def prepare(self, inputs):
        return inputs

    def run_round(self, state, i, timer):
        j = i % len(state)
        return [_auction((j, n), bids, timer, flow.fm_run, g, bids, k)
                for n, (g, k, bids) in enumerate(state[j])]

    def problems(self, state, rec):
        j, n = rec.item
        g, k, bids = state[j][n]
        return checks.flow_problems(g, bids, k, rec.outcome)


def st_path_count(g) -> int:
    """Number of s-t paths in a DAG."""
    memo = {g.sink: 1}

    def count(v):
        if v not in memo:
            memo[v] = sum(count(e.head) for e in g.out_edges(v))
        return memo[v]

    return count(g.source)


class Cut(_Auctions):
    """`cm_run` on a fresh `random_cut_network` per auction: 8..12
    vertices, 12..26 drawn edges, 1..4 s-t paths after CUT_PATH_CYCLE."""

    name = "cut"
    rounds_per_s = 110.0
    corruptions = (checks.drop_winner, checks.underpay_winner,
                   checks.shrink_double_cut)

    def generate(self, rng, seconds):
        # Draws are binned by path count and taken in cycle order, so no
        # draw of 1..4 paths is thrown away while another count is due.
        bins = {paths: deque() for paths in CUT_PATH_CYCLE}
        pool = []
        for j in range(math.ceil(seconds * self.rounds_per_s * 1.5)):
            paths = CUT_PATH_CYCLE[j % len(CUT_PATH_CYCLE)]
            while not bins[paths]:
                g = oracle.random_cut_network(rng, rng.randint(8, 12),
                                              rng.randint(12, 26))
                count = st_path_count(g)
                if count in bins:
                    bins[count].append(g)
            g = bins[paths].popleft()
            pool.append((g, rational_bids(rng, (e.id for e in g.edges))))
        return pool

    def prepare(self, inputs):
        return inputs

    def run_round(self, state, i, timer):
        j = i % len(state)
        g, bids = state[j]
        return [_auction(j, bids, timer, cut.cm_run, g, bids)]

    def problems(self, state, rec):
        g, bids = state[rec.item]
        return checks.cut_problems(g, bids, rec.outcome)


# One trial per instance: a replay's ~36 mechanism calls all run on one
# instance, so the number of instances in a run, not of calls, sets how
# far its figures move from seed to seed.
REPLAY_TRIALS = 1
# Replay cost depends mostly on instance shape, so unit j of each kind
# takes its shape from a fixed cycle: every run of the same length replays
# the same mix of shapes, whatever the seed. A flow replay's cost is set
# by (k, edges); a cut replay's by its number of s-t paths (about 55, 140
# and 220 ms for 1, 2 and 3 paths), so cut shapes fix the path count too,
# in roughly the generator's own proportions.
REPLAY_VC_SIZES = (3, 4, 5, 6)
REPLAY_FLOW_SHAPES = ((1, 3), (2, 5), (1, 4), (2, 6), (1, 5), (2, 7))  # (k, edges)
REPLAY_CUT_SHAPES = ((4, 5, 1), (5, 5, 1), (6, 5, 2), (4, 7, 1), (5, 7, 2),
                     (6, 7, 1), (4, 9, 3), (5, 9, 2), (6, 9, 1))  # (n, m, paths)


class Replay:
    """`oracle.check_truthfulness` over the `frugal verify` generators,
    one trial per instance. A round replays one vc, one flow and one
    cut instance, each new to the run; every mechanism call is timed as
    one auction, and the flow and cut instance caches hit on all but the
    first call of a replay."""

    name = "replay"
    rounds_per_s = 4.5

    def generate(self, rng, seconds):
        units = range(math.ceil(seconds * self.rounds_per_s * 1.5))
        vc = [_connected_graph(rng, REPLAY_VC_SIZES[j % len(REPLAY_VC_SIZES)],
                               0.5) for j in units]
        flows = []
        for j in units:
            k, edges = REPLAY_FLOW_SHAPES[j % len(REPLAY_FLOW_SHAPES)]
            while True:
                g = oracle.random_kplus1_flow(rng, k)
                if len(g.edges) == edges:
                    flows.append((g, k))
                    break
        cuts = []
        for j in units:
            n, m, paths = REPLAY_CUT_SHAPES[j % len(REPLAY_CUT_SHAPES)]
            while True:
                h = oracle.random_cut_network(rng, n, m)
                if st_path_count(h) == paths:
                    cuts.append(h)
                    break
        return {"vc": vc, "flow": flows, "cut": cuts,
                "replay_seed": rng.getrandbits(64)}

    def prepare(self, inputs):
        return dict(inputs, vc=[_vc_instance(g) for g in inputs["vc"]],
                    rng=random.Random(inputs["replay_seed"]))

    def run_round(self, state, i, timer):
        j = i % len(state["vc"])
        inst = state["vc"][j]
        g, k = state["flow"][j]
        h = state["cut"][j]
        replays = (
            ("vc", inst.agents, lambda b: timer.call(eigen.ev_run, inst, b)),
            ("flow", [e.id for e in g.edges],
             lambda b: timer.call(flow.fm_run, g, b, k)),
            ("cut", [e.id for e in h.edges],
             lambda b: timer.call(cut.cm_run, h, b)),
        )
        return [_replay((kind, j), agents, mechanism, state["rng"], timer)
                for kind, agents, mechanism in replays]

    def problems(self, state, rec):
        report = rec.outcome
        out = [f"violation {v}" for v in report.violations]
        if report.trials != REPLAY_TRIALS:
            out.append(f"{REPLAY_TRIALS - report.trials} skipped trials")
        return out

    def controls(self, state, records) -> dict:
        """Replays of two broken vc mechanisms must be rejected: one
        underpays every winner by 1, one refuses its first call (a
        skipped trial)."""
        inst = state["vc"][0]

        def underpay(bids):
            out = eigen.ev_run(inst, bids)
            payments = {a: p - 1 if a in out.winners else p
                        for a, p in out.payments.items()}
            return dataclasses.replace(out, payments=payments)

        calls = []

        def refuse_first(bids):
            calls.append(1)
            if len(calls) == 1:
                raise DomainError("negative control: first call refused")
            return eigen.ev_run(inst, bids)

        out = {}
        for name, mechanism in (("underpay_winners", underpay),
                                ("skip_trial", refuse_first)):
            report = oracle.check_truthfulness(mechanism, inst.agents,
                                               random.Random(0),
                                               trials=REPLAY_TRIALS)
            out[name] = bool(self.problems(state, Record(None, None, report)))
        return out


def _replay(item, agents, mechanism, rng, timer) -> Record:
    before = timer.attempts
    try:
        rec = Record(item, None, oracle.check_truthfulness(
            mechanism, agents, rng, trials=REPLAY_TRIALS,
            max_cost=GENERIC_TOP))
    except Exception as exc:  # a failed replay is counted, not fatal
        rec = Record(item, None, error=f"{type(exc).__name__}: {exc}")
    rec.calls = timer.attempts - before
    return rec


WORKLOADS = {w.name: w for w in (VertexCover(), Flow(), Cut(), Replay())}
