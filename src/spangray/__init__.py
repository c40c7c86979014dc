"""Gray codes of spanning trees of outerplane multigraphs.

Generation is greedy: repeat the exchange that makes the smallest
possible larger label and leads to a tree not listed yet.  The listing
is genlex, so the walk (``greedy_walk``) needs no memory of the trees
it listed.  With edge labels taken from a dual-tree traversal the walk
provably lists every spanning tree, and tie-breaking preferences yield
all-pivot or all-pof listings on the right graph classes.  The rest of
the package exists to verify those claims independently: exact tree
counts, Fibonacci extremal bounds, flip-graph Hamilton experiments,
and structural checkers for the labeling invariants.
"""

from .embedgraph import (EdgeLabeling, EmbeddedGraph, Face, MultiGraph,
                         ParsedGraph, blocks, build_embedding,
                         is_triangulation, parse_graph)
from .errors import (CertificationError, EmbeddingError, GraphError,
                     NotTwoConnectedError, ParseError)
from .dualtree import (IncidenceList, OrientedSplitDual, SplitDual,
                       alternative_pof_exchange, check_face_label_order,
                       check_vertex_label_chain, default_root_leaf,
                       dual_tree_labeling, incidence_list, lobe,
                       orient_split_dual, oriented_faces, split_dual,
                       weak_dual)
from .counting import (check_fib_bound, check_fib_product, count_bruteforce,
                       count_del_contract, count_matrix_tree,
                       count_series_parallel, enumerate_outerplane,
                       extremal_family, fib)
from .treegen import (Exchange, ExchangeClass, Listing, RESTRICTIONS,
                      SpanningTree, classify_exchange, greedy_listing,
                      greedy_walk, kruskal_tree, random_spanning_tree,
                      spanning_tree_from_labels, tiebreak_closest,
                      tiebreak_prefer, tiebreak_random, valid_exchanges,
                      verify_genlex, verify_gray)
from .flipgraph import (Arborescence, DiGraph, FlipGraph,
                        arborescence_flip_graph, build_flip_graph,
                        enumerate_arborescences, enumerate_small_graphs,
                        enumerate_spanning_trees, find_outerplane_order,
                        hamilton_path, run_experiment, to_dot, to_text)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
