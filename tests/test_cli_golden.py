"""Byte-for-byte CLI output against committed golden files.

Each case runs one `frugal` command in process and compares its stdout
with `tests/golden/<case>.json` and its exit status with 0. The inputs
are the fixture graphs the CI workflow uses. After a change that is
meant to alter the output, rewrite the files with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import json
import pathlib
import sys

import pytest

from frugal.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"

COVER = {"directed": False, "vertices": ["a", "b", "c", "d", "e"],
         "edges": [{"id": "ab", "tail": "a", "head": "b"},
                   {"id": "bc", "tail": "b", "head": "c"},
                   {"id": "cd", "tail": "c", "head": "d"},
                   {"id": "da", "tail": "d", "head": "a"},
                   {"id": "ac", "tail": "a", "head": "c"},
                   {"id": "de", "tail": "d", "head": "e"}]}
COVER_BIDS = {"a": "1", "b": "0", "c": "5/2", "d": "3", "e": "2"}
# The wheel W5: the hub's neighbourhood is a 5-cycle, so its Tot (5/2)
# comes from the fractional clique LP; each rim vertex's neighbourhood
# is a path, coloured with its clique number 2.
WHEEL = {"directed": False, "vertices": ["h", "r0", "r1", "r2", "r3", "r4"],
         "edges": [{"id": f"h{i}", "tail": "h", "head": f"r{i}"}
                   for i in range(5)]
         + [{"id": f"r{i}{(i + 1) % 5}", "tail": f"r{i}",
             "head": f"r{(i + 1) % 5}"} for i in range(5)]}
WHEEL_BIDS = {"h": "3", "r0": "1", "r1": "2", "r2": "1/2", "r3": "0",
              "r4": "5/2"}
NETWORK = {"directed": True, "source": "s", "sink": "t",
           "vertices": ["s", "a", "b", "t"],
           "edges": [{"id": "sa", "tail": "s", "head": "a", "cost": "2"},
                     {"id": "sb", "tail": "s", "head": "b", "cost": "3/2"},
                     {"id": "ab", "tail": "a", "head": "b", "cost": "1"},
                     {"id": "at", "tail": "a", "head": "t", "cost": "5/2"},
                     {"id": "bt", "tail": "b", "head": "t", "cost": "4"}]}
NETWORK_COSTS = {e["id"]: e["cost"] for e in NETWORK["edges"]}

FILES = {
    "cover": COVER,
    "cover_bids": COVER_BIDS,
    "wheel": WHEEL,
    "wheel_bids": WHEEL_BIDS,
    "network": NETWORK,
    "network_costs": NETWORK_COSTS,
    "vc_system": {"kind": "vertex-cover", "graph": COVER},
    "flow_system": {"kind": "k-flow", "k": 1, "graph": NETWORK},
    "cut_system": {"kind": "cut", "graph": NETWORK},
}

CASES = {
    "verify_all_seed0": "verify --suite all --seed 0 --trials 3",
    "verify_all_seed7": "verify --suite all --seed 7 --trials 3",
    "frugality_vc": "frugality --suite vc --seed 5 --trials 10",
    "frugality_flow": "frugality --suite flow --seed 5 --trials 10",
    "frugality_cut": "frugality --suite cut --seed 5 --trials 10",
    "vc_auction": "vc-auction --graph {cover} --bids {cover_bids} --tot auto",
    "vc_auction_wheel": "vc-auction --graph {wheel} --bids {wheel_bids} "
                        "--tot auto",
    "flow_auction": "flow-auction --graph {network} -k 1",
    "cut_auction": "cut-auction --graph {network}",
    "double_cut": "double-cut --graph {network}",
    "nu_vc": "nu --system {vc_system} --costs {cover_bids}",
    "nu_flow": "nu --system {flow_system} --costs {network_costs}",
    "nu_cut": "nu --system {cut_system} --costs {network_costs}",
}


def write_inputs(directory: pathlib.Path) -> dict:
    paths = {}
    for name, data in FILES.items():
        paths[name] = directory / f"{name}.json"
        paths[name].write_text(json.dumps(data))
    return paths


def argv(case: str, paths: dict) -> list:
    return CASES[case].format(**paths).split()


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(capsys, tmp_path, case):
    code = main(argv(case, write_inputs(tmp_path)))
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / f"{case}.json").read_text()


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        paths = write_inputs(pathlib.Path(tmp))
        GOLDEN.mkdir(exist_ok=True)
        for case in sorted(CASES):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv(case, paths))
            if code != 0:
                sys.exit(f"{case}: exit status {code}")
            (GOLDEN / f"{case}.json").write_text(out.getvalue())
