"""twbraid: braid-word algebra, diagram braiding and Markov-move search for
twisted and flat twisted links."""

from .braiding import braid, braid_with_trace, find_up_arcs
from .diagram import (
    MorseDiagram,
    closure_diagram,
    gauss_code,
    gauss_equivalent,
    read_morse_file,
    shipped_diagram,
    shipped_diagram_names,
    write_morse_file,
)
from .markov import (
    apply_markov_move,
    closure_code,
    closure_code_equivalent,
    markov_equivalent_bounded,
    markov_neighbors,
)
from .quotients import closure_permutation
from .words import (
    BraidWord,
    Category,
    Generator,
    Kind,
    concat,
    free_reduce,
    invert,
    parse_word,
)

__all__ = [
    "BraidWord",
    "Category",
    "Generator",
    "Kind",
    "MorseDiagram",
    "apply_markov_move",
    "braid",
    "braid_with_trace",
    "closure_code",
    "closure_code_equivalent",
    "closure_diagram",
    "closure_permutation",
    "concat",
    "find_up_arcs",
    "free_reduce",
    "gauss_code",
    "gauss_equivalent",
    "invert",
    "markov_equivalent_bounded",
    "markov_neighbors",
    "parse_word",
    "read_morse_file",
    "shipped_diagram",
    "shipped_diagram_names",
    "write_morse_file",
]
