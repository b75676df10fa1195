"""Truthful, frugality-competitive auctions for vertex covers, flows,
and s-t cuts, with the exact LP machinery to verify them."""

from .errors import (DomainError, FrugalError, InputError, MonopolyError,
                     ScaleError)
from .graph import Edge, Graph, enumerate_st_paths, reachable
from .rational import format_rational, parse_rational
from .setsystems import (CUT, K_FLOW, VERTEX_COVER, NuResult, SetSystem,
                         fractional_clique_number, nu, tot)
from .eigen import (AuctionOutcome, BruteForceCoverSolver, VcInstance,
                    build_vc_instance, ev_frugality_on_units, ev_run,
                    probe_lower_bound)
from .flow import (conflict_graph, fm_run, min_cost_flow, nu_flow_fast,
                   prune_to_support, vc_from_flow)
from .cut import (DoubleCutResult, cm_run, contract_to_h, double_cut_lp,
                  min_double_cut)

__all__ = [
    "AuctionOutcome", "BruteForceCoverSolver", "CUT", "DomainError",
    "DoubleCutResult", "Edge", "FrugalError", "Graph", "InputError",
    "K_FLOW", "MonopolyError", "NuResult", "ScaleError",
    "SetSystem", "VERTEX_COVER", "VcInstance", "build_vc_instance",
    "cm_run", "conflict_graph", "contract_to_h",
    "double_cut_lp", "enumerate_st_paths", "ev_frugality_on_units",
    "ev_run", "fm_run", "format_rational", "fractional_clique_number",
    "min_cost_flow", "min_double_cut", "nu", "nu_flow_fast",
    "parse_rational", "probe_lower_bound", "prune_to_support",
    "reachable", "tot", "vc_from_flow",
]

__version__ = "0.1.0"
