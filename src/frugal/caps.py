"""Desk-scale enumeration caps.

Every exhaustive enumeration in the package is capped, each by its own
constant, read as `caps.<NAME>` when the enumeration runs:

- PATH_CAP: s-t paths `graph.enumerate_st_paths` lists;
- INDEPENDENT_SET_CAP: maximal independent sets listed, and the steps
  of the clique-and-colouring search for Tot;
- COVER_AGENT_CAP: vertices of a graph whose covers or subsets are
  enumerated (2^20 subsets at 20), and inner vertices of a network
  whose s-t cuts are enumerated;
- FLOW_EDGE_CAP: edges of a network whose minimal k-flows are listed;
- DOUBLE_CUT_ENUM_EDGES: edges of a network whose double cuts the
  brute-force oracle enumerates.
"""

PATH_CAP = 100_000
INDEPENDENT_SET_CAP = 10_000
COVER_AGENT_CAP = 20
FLOW_EDGE_CAP = 16
DOUBLE_CUT_ENUM_EDGES = 14
