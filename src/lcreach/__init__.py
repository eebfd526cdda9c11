"""Language-constrained reachability on edge-labeled graphs.

The package answers questions of the form: is there a source-to-target walk
whose concatenated edge labels belong to a given language?  Languages arrive
as context-free grammars, as DFAs, or as built-in recognizers; graphs may be
directed, undirected, or DAGs; and a family of instance transformations maps
other decision problems (circuit evaluation, vertex cover, block-choice
strings) onto constrained reachability.
"""

from .errors import (
    AlphabetMismatchError,
    BlockSyntaxError,
    CorruptWitnessError,
    EmptyChoiceError,
    ForeignSymbolError,
    InvalidPathError,
    KindError,
    LcreachError,
    NoRespectingPathError,
    NotADagError,
    NotATreeError,
    ParseError,
    PathMismatchError,
    PortConflictError,
    SemanticError,
    TooLargeError,
    UndeclaredSymbolError,
)
from .graph import (
    DIRECTED,
    UNDIRECTED,
    Edge,
    LabeledGraph,
    Path,
    Step,
    adjacency,
    is_dag,
    parse_graph,
    path_endpoints,
    path_yield,
    render_graph,
)
from .grammar import (
    Cfg,
    Dfa,
    NormalForm,
    is_linear,
    normalize,
    parse_cfg,
    parse_dfa,
    render_cfg,
)
from .languages import (
    BUILTIN_NAMES,
    Language,
    abstar_dfa,
    abstar_member,
    adjacency_bits,
    builtin_language,
    d2_grammar,
    d2_member,
    dd2_grammar,
    dd2_member,
    encode_lang_a,
    lang_a_member,
    nbc_d2_member,
    parse_lang_a,
    parse_nbc,
)
from .solve import (
    ExpansionLimitExceeded,
    ReachTable,
    Witness,
    bounded_enum_reach,
    cfl_member,
    cfl_reach,
    cfl_reach_table,
    dag_enum_reach,
    expand_witness,
    iter_st_paths,
    regular_reach,
    tree_reach,
)
from .reductions import (
    AndGate,
    Circuit,
    InputGate,
    OrGate,
    VcInstance,
    d2reach_to_dd2_ureach,
    decode_vc_witness,
    eval_circuit,
    mcvp_to_d2_reach,
    nbc_to_d2_dagreach,
    parse_circuit,
    parse_vc,
    reach_to_abstar_ureach,
    render_circuit,
    render_vc,
    vc_brute,
    vc_to_a_dagreach,
)
from .generators import (
    random_balanced_string,
    random_circuit,
    random_dag,
    random_graph,
    random_nbc_string,
    random_vc_instance,
)

__version__ = "0.1.0"
