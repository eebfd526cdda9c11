"""Language-constrained reachability on edge-labeled graphs.

The package answers questions of the form: is there a source-to-target walk
whose concatenated edge labels belong to a given language?  Languages arrive
as context-free grammars, as DFAs, or as built-in recognizers; graphs may be
directed, undirected, or DAGs; and a family of instance transformations maps
other decision problems (circuit evaluation, vertex cover, block-choice
strings) onto constrained reachability.

The top level re-exports only the names the README's library example and
the scripts import; everything else is imported from its own module.
"""

from .graph import DIRECTED, Edge, LabeledGraph, edge_ends, parse_graph, path_yield, render_graph
from .grammar import NormalForm
from .languages import Language, abstar_dfa, d2_grammar, dd2_grammar, nbc_d2_member
from .solve import cfl_reach, cfl_reach_table, dag_enum_reach, expand_witness, regular_reach
from .reductions import (
    d2reach_to_dd2_ureach,
    decode_vc_witness,
    eval_circuit,
    mcvp_to_d2_reach,
    nbc_to_d2_dagreach,
    parse_circuit,
    parse_vc,
    reach_to_abstar_ureach,
    vc_brute,
    vc_to_a_dagreach,
)
from .generators import random_circuit, random_graph, random_nbc_string, random_vc_instance

__version__ = "0.1.0"
