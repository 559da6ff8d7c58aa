(** Undirected multigraphs over integer vertices.

    Supports the structural questions circuit topology analysis asks:
    spanning trees (for tree/link partitioning, paper Section IV),
    connected components (floating-node detection), and cycle checks
    (resistor-loop detection in RC-tree recognition). *)

type t

val create : int -> t
(** [create n] is the edgeless graph on vertices [0 .. n-1]. *)

val add_edge : t -> int -> int -> label:int -> unit
(** Adds an undirected edge carrying an integer [label] (the circuit
    element index).  Parallel edges and self-loops are allowed;
    self-loops are never tree edges. *)

val degree : t -> int -> int

type tree_edge = { parent : int; child : int; label : int }

val spanning_forest : ?roots:int list -> t -> tree_edge option array
(** [spanning_forest g] BFS-grows a spanning forest and returns, for
    each vertex, the tree edge connecting it to its parent ([None] for
    roots and isolated vertices).  Vertices in [roots] (default [[0]])
    are seeded first, in order; remaining components get their
    smallest-index vertex as root. *)

val components : t -> int array
(** [components g] labels each vertex with a component id in
    [0 .. c-1]; vertices in the same component share an id. *)

val component_count : t -> int

val is_connected : t -> bool

val has_cycle : t -> bool
(** True when some component contains a cycle (including parallel edges
    and self-loops). *)

val path_to_root : tree_edge option array -> int -> int list
(** [path_to_root forest v] lists the edge labels from [v] up to its
    component root, nearest first. *)
