(** Structural analysis of circuits.

    The paper's method hierarchy is topological: RC trees admit the
    O(n) Elmore tree walk; grounded resistors and resistor loops force
    an implicit steady-state solve; floating capacitors create floating
    nodes whose steady state needs charge conservation (paper,
    Sections II, 3.1, IV).  This module answers those structural
    questions. *)

type properties = {
  is_rc_tree : bool;
      (** only R, C and driving V sources; every capacitor grounded; no
          resistor to ground; resistor/source graph is a spanning tree
          (no loops) — the class of [7] *)
  has_floating_caps : bool;  (** some capacitor with both terminals off ground *)
  has_grounded_resistors : bool;
  has_resistor_loops : bool;
      (** a cycle in the conductive graph restricted to R/V elements *)
  has_inductors : bool;
  has_controlled_sources : bool;
  floating_groups : Element.node list list;
      (** DC-floating node groups: connected components of the
          conductive graph that contain no ground reference; their
          steady state requires charge conservation *)
}

val floating_groups : Netlist.circuit -> Element.node list list
(** The DC-floating node groups alone (cheaper than [analyze]). *)

val conductive_edge : Element.t -> (Element.node * Element.node) option
(** The element's terminal pair when it conducts at DC (resistors,
    inductors, V sources, VCVS/CCVS output branches), [None]
    otherwise. *)

val conductive_graph : Netlist.circuit -> Sparse.Graph.t
(** Graph over circuit nodes whose edges are the elements that conduct
    at DC: resistors, inductors, voltage sources and the output branches
    of VCVS/CCVS.  Edge labels are element indices. *)

val analyze : Netlist.circuit -> properties

val spanning_tree :
  Netlist.circuit -> Sparse.Graph.tree_edge option array
(** Spanning forest of the conductive graph rooted at ground — the
    "tree" of the paper's tree/link partition (Section IV): voltage
    sources and resistors become tree branches, capacitors (replaced by
    current sources) are links. *)

val rc_tree_parent :
  Netlist.circuit -> (Element.node * float) option array
(** For an RC tree (caller must have checked [is_rc_tree]): for each
    node, its parent node and the resistance of the connecting branch,
    walking toward the driving source; [None] for ground and source
    nodes.  Raises [Invalid_argument] if the circuit is not an RC
    tree. *)
