import json
import random
from fractions import Fraction

import pytest

from frugal import caps, cli, cut
from frugal.cli import main
from frugal.cut import cm_run, select_double_cut
from frugal.errors import InputError
from frugal.graph import graph_to_json
from frugal.oracle import random_cut_network
from frugal.rational import parse_rational


@pytest.fixture
def write(tmp_path):
    def _write(name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)
    return _write


@pytest.fixture
def triangle_graph():
    return {
        "directed": False,
        "vertices": ["a", "b", "c"],
        "edges": [{"id": "ab", "tail": "a", "head": "b"},
                  {"id": "bc", "tail": "b", "head": "c"},
                  {"id": "ca", "tail": "c", "head": "a"}],
    }


@pytest.fixture
def path_json():
    return {
        "directed": True,
        "vertices": ["s", "a", "b", "t"],
        "source": "s", "sink": "t",
        "edges": [{"id": "sa", "tail": "s", "head": "a", "cost": "1"},
                  {"id": "ab", "tail": "a", "head": "b", "cost": "5"},
                  {"id": "bt", "tail": "b", "head": "t", "cost": "2"}],
    }


@pytest.fixture
def three_flow_json():
    return {
        "directed": True,
        "vertices": ["s", "a", "b", "t"],
        "source": "s", "sink": "t",
        "edges": [{"id": "u", "tail": "s", "head": "t", "cost": "1"},
                  {"id": "v", "tail": "s", "head": "a", "cost": "1"},
                  {"id": "w", "tail": "s", "head": "b", "cost": "1"},
                  {"id": "x", "tail": "a", "head": "t", "cost": "1"},
                  {"id": "y", "tail": "b", "head": "t", "cost": "1"}],
    }


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def test_nu_triangle(capsys, write, triangle_graph):
    system = write("sys.json", {"kind": "vertex-cover",
                                "graph": triangle_graph})
    costs = write("c.json", {"a": "1", "b": "0", "c": "0"})
    code, data = run(capsys, ["nu", "--system", system, "--costs", costs])
    assert code == 0
    assert data["nu"] == "2/1"
    assert data["winning_set"] == ["b", "c"]


def test_vc_auction(capsys, write, triangle_graph):
    graph = write("g.json", triangle_graph)
    bids = write("b.json", {"a": "1", "b": "0", "c": "0"})
    code, data = run(capsys, ["vc-auction", "--graph", graph,
                              "--bids", bids])
    assert code == 0
    assert data["approx"] is True
    assert data["winners"] == ["b", "c"]
    assert data["total_payment"] == pytest.approx(2.0)
    assert data["tot"] == {"a": "2/1", "b": "2/1", "c": "2/1"}


def test_vc_auction_with_an_isolated_vertex(capsys, write, triangle_graph):
    # z touches no edge: Tot(z) is 0 and z loses at price 0.
    triangle_graph["vertices"].append("z")
    graph = write("g.json", triangle_graph)
    bids = write("b.json", {"a": "1", "b": "0", "c": "0", "z": "5"})
    code, data = run(capsys, ["vc-auction", "--graph", graph,
                              "--bids", bids, "--tot", "auto"])
    assert code == 0
    assert data["winners"] == ["b", "c"]
    assert data["payments"]["z"] == 0.0
    assert data["total_payment"] == pytest.approx(2.0)
    assert data["tot"]["z"] == "0/1"


def test_vc_auction_with_a_tot_file(capsys, write, triangle_graph):
    # The --tot auto map, read back from a file, gives the same run.
    triangle_graph["vertices"].append("z")
    graph = write("g.json", triangle_graph)
    bids = write("b.json", {"a": "1", "b": "0", "c": "5/2", "z": "5"})
    argv = ["vc-auction", "--graph", graph, "--bids", bids, "--tot"]
    assert main(argv + ["auto"]) == 0
    auto = capsys.readouterr().out
    tot_file = write("tot.json", json.loads(auto)["tot"])
    assert main(argv + [tot_file]) == 0
    assert capsys.readouterr().out == auto


def test_flow_auction(capsys, write, three_flow_json):
    graph = write("g.json", three_flow_json)
    code, data = run(capsys, ["flow-auction", "--graph", graph, "-k", "2"])
    assert code == 0
    assert data["pruned_edges"] == ["u", "v", "w", "x", "y"]
    assert data["nu_H"] == "4/1"
    assert data["nu_G"] == "4/1"
    assert set(data["winners"]) <= {"u", "v", "w", "x", "y"}


def test_flow_auction_ratio_against_a_bound_below_the_float_range(
        capsys, write):
    # nu is 1/10^400, whose float is 0.0; the ratio divides exactly.
    graph = write("g.json", {
        "directed": True, "source": "s", "sink": "t",
        "vertices": ["s", "a", "b", "t"],
        "edges": [{"id": "sa", "tail": "s", "head": "a"},
                  {"id": "at", "tail": "a", "head": "t"},
                  {"id": "sb", "tail": "s", "head": "b"},
                  {"id": "bt", "tail": "b", "head": "t"}]})
    tiny = f"1/{10**400}"
    bids = write("b.json", {"sa": tiny, "sb": tiny, "at": "0", "bt": "0"})
    code, data = run(capsys, ["flow-auction", "--graph", graph,
                              "--bids", bids, "-k", "1"])
    assert code == 0
    assert data["nu_G"] == f"1/{10**400}"
    assert data["ratio"] == 0.0


def test_cut_auction(capsys, write, path_json):
    graph = write("g.json", path_json)
    code, data = run(capsys, ["cut-auction", "--graph", graph])
    assert code == 0
    assert data["double_cut"] == ["bt", "sa"]
    assert data["winners"] == ["sa"]
    assert data["payments"]["sa"] == pytest.approx(2.0)


def test_cut_auction_reports_the_selection_cm_run_made(capsys, write):
    rng = random.Random(23)
    for i in range(100):
        g = random_cut_network(rng, rng.randint(4, 8), rng.randint(5, 12))
        bids = {e.id: Fraction(rng.randint(0, 8), rng.randint(1, 4))
                for e in g.edges}
        graph = write(f"g{i}.json", graph_to_json(g, bids))
        code, data = run(capsys, ["cut-auction", "--graph", graph])
        assert code == 0
        _, result = select_double_cut(g, bids)
        outcome = cm_run(g, bids)
        assert data["double_cut"] == outcome.diagnostics["double_cut"]
        assert data["double_cut"] == sorted(result.double_cut)
        assert data["method"] == outcome.diagnostics["double_cut_method"]
        assert data["cuts"] == ([sorted(side) for side in result.cuts]
                                if result.cuts else None)


def counting(monkeypatch, module, name):
    """Wrap module.name so each call appends to the returned list."""
    calls, real = [], getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_cut_auction_solves_as_often_as_cm_run(capsys, write, monkeypatch):
    calls = counting(monkeypatch, cut, "min_double_cut")
    rng = random.Random(29)
    for i in range(20):
        g = random_cut_network(rng, rng.randint(4, 8), rng.randint(5, 12))
        bids = {e.id: Fraction(rng.randint(0, 8), rng.randint(1, 4))
                for e in g.edges}
        graph = write(f"g{i}.json", graph_to_json(g, bids))
        cm_run(g, bids)
        alone = len(calls)
        calls.clear()
        assert main(["cut-auction", "--graph", graph]) == 0
        assert len(calls) == alone
        calls.clear()


class ZeroNu:
    value = Fraction(0)


@pytest.mark.parametrize("zero_nu", [False, True])
def test_frugality_vc_runs_the_auction_once_per_cost_vector(
        capsys, monkeypatch, zero_nu):
    # With a zero Nash bound measure_frugality stops at the first paid
    # vector; the payment-bound check must still see all five.
    if zero_nu:
        monkeypatch.setattr(cli, "nu", lambda sys_, c: ZeroNu)
    calls = counting(monkeypatch, cli, "ev_run")
    code, data = run(capsys, ["frugality", "--suite", "vc", "--seed", "5",
                              "--trials", "3"])
    assert code == 0 and data["ok"] is True
    assert len(calls) == 5 * 3
    assert (data["worst_ratio"] is None) == zero_nu


def test_double_cut(capsys, write, path_json):
    graph = write("g.json", path_json)
    code, data = run(capsys, ["double-cut", "--graph", graph])
    assert code == 0
    assert data["cost"] == "3/1"
    assert data["flow_value"] == "2/1"
    assert data["relief_total"] == "1/1"


def test_double_cut_reports_original_units(capsys, write, path_json):
    for edge, cost in zip(path_json["edges"], ("1/2", "5/3", "3/4")):
        edge["cost"] = cost
    graph = write("g.json", path_json)
    code, data = run(capsys, ["double-cut", "--graph", graph])
    assert code == 0
    assert data["double_cut"] == ["bt", "sa"]
    assert data["cost"] == data["dual_objective"] == "5/4"
    assert (data["flow_value"], data["relief_total"]) == ("3/4", "1/4")
    flow_value = Fraction(data["flow_value"])
    assert 2 * flow_value - Fraction(data["relief_total"]) == Fraction(5, 4)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_costs_are_input_errors(capsys, write, path_json, bad):
    with pytest.raises(InputError):
        parse_rational(bad)
    graph = write("g.json", path_json)
    costs = write("c.json", {"sa": bad, "ab": "1", "bt": "1"})
    for command, flag in (("double-cut", "--costs"), ("cut-auction", "--bids")):
        assert main([command, "--graph", graph, flag, costs]) == 1


def test_vc_auction_rejects_a_total_past_the_float_range(capsys, write):
    # Each payment is a finite 1.41e308; the total would print Infinity.
    graph = write("g.json", {
        "directed": False, "vertices": list("abcdef"),
        "edges": [{"id": t + h, "tail": t, "head": h}
                  for t, h in ("ab", "bc", "de", "ef")]})
    bids = write("b.json", {"a": "5e307", "b": "1", "c": "5e307",
                            "d": "5e307", "e": "1", "f": "5e307"})
    tot = write("t.json", dict.fromkeys("abcdef", "1"))
    assert main(["vc-auction", "--graph", graph, "--bids", bids,
                 "--tot", tot]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "total payment overflows a float" in err


def test_explicit_costs_override_graph_costs(capsys, write, path_json):
    graph = write("g.json", path_json)
    costs = write("c.json", {"sa": "10", "ab": "1", "bt": "10"})
    code, data = run(capsys, ["double-cut", "--graph", graph,
                              "--costs", costs])
    assert code == 0
    assert data["double_cut"] == ["ab", "sa"] or data["double_cut"] == \
        ["ab", "bt"]
    assert data["cost"] == "11/1"


def test_verify_all(capsys):
    code, data = run(capsys, ["verify", "--suite", "all", "--seed", "7",
                              "--trials", "2"])
    assert code == 0
    assert data["ok"] is True
    assert set(data["suites"]) == {"vc", "flow", "cut"}


def test_frugality_vc(capsys):
    code, data = run(capsys, ["frugality", "--suite", "vc", "--seed", "5",
                              "--trials", "3"])
    assert code == 0
    assert data["ok"] is True
    assert data["certified_bound"] == "lambda * sum(c_v * tot_v)"
    assert data["worst_ratio"] > 0


def test_determinism(capsys, write, path_json):
    graph = write("g.json", path_json)
    outputs = []
    for _ in range(2):
        main(["cut-auction", "--graph", graph])
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    runs = []
    for _ in range(2):
        main(["verify", "--suite", "vc", "--seed", "3", "--trials", "2"])
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]


def test_domain_error_exit_code(capsys, write):
    graph = write("g.json", {
        "directed": True, "vertices": ["s", "t"],
        "source": "s", "sink": "t",
        "edges": [{"id": "st", "tail": "s", "head": "t", "cost": "1"}]})
    code = main(["cut-auction", "--graph", graph])
    assert code == 1


def test_input_error_exit_code(capsys, tmp_path):
    missing = str(tmp_path / "nope.json")
    assert main(["nu", "--system", missing, "--costs", missing]) == 1


def test_scale_error_exit_code(capsys, write, monkeypatch):
    monkeypatch.setattr(caps, "COVER_AGENT_CAP", 3)
    graph = write("g.json", {
        "directed": False,
        "vertices": ["a", "b", "c", "d"],
        "edges": [{"id": "ab", "tail": "a", "head": "b"},
                  {"id": "bc", "tail": "b", "head": "c"},
                  {"id": "cd", "tail": "c", "head": "d"}]})
    bids = write("b.json", {"a": "1", "b": "1", "c": "1", "d": "1"})
    code = main(["vc-auction", "--graph", graph, "--bids", bids])
    assert code == 2
