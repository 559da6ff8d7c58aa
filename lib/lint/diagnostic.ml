type severity = Error | Warning | Info

type code =
  (* circuit-level *)
  | Nonpositive_value
  | Shorted_source
  | Shorted_element
  | Dangling_node
  | Float_group
  | Float_no_cap
  | Isrc_cutset
  | Ind_loop
  | Vsrc_loop
  | Structural_rank
  | Scale_spread
  (* design-level (.sta) *)
  | Unknown_net
  | Undriven_net
  | Sink_unattached
  | Sink_unreachable
  | Design_cycle
  | Constraint_target
  | Multi_driver
  (* constraint coverage (W13x, backward dataflow over the timing DAG) *)
  | Unconstrained_endpoint
  | Dominated_constraint
  | Constraint_unreachable
  (* numerical health (W2xx, structural estimates — no factorization) *)
  | Structural_spread
  | Underdamped_net
  | Order_hotspot
  (* reducibility advisories (I2xx, the Circuit.Reduce work-list) *)
  | Series_chain
  | Star_reduce
  | Parallel_merge

(* The stable registry: id strings are part of the tool's output
   contract (tests, CI gates, downstream JSON consumers key on them) —
   append new codes, never renumber. *)
let registry =
  [ ( Nonpositive_value,
      "AWE-E001",
      Error,
      "an R, C or L element has a non-positive or non-finite value" );
    ( Shorted_source,
      "AWE-E002",
      Error,
      "a voltage source has both terminals on one node: its branch \
       equation is structurally empty" );
    ( Float_no_cap,
      "AWE-E003",
      Error,
      "a DC-floating node group carries no bridging capacitance, so no \
       charge equation determines its potential" );
    ( Isrc_cutset,
      "AWE-E004",
      Error,
      "a current source drives a DC-floating node group (a cutset of \
       current sources/capacitors): its charge grows without bound" );
    ( Ind_loop,
      "AWE-E005",
      Error,
      "a loop of inductors: the DC circulating current is undetermined \
       (repeated pole at s = 0)" );
    ( Vsrc_loop,
      "AWE-E006",
      Error,
      "a zero-resistance loop through voltage sources (and inductors): \
       the loop current is undetermined" );
    ( Structural_rank,
      "AWE-E007",
      Error,
      "the assembled MNA pattern has no perfect row/column matching: LU \
       factorization fails for every choice of element values" );
    ( Unknown_net,
      "AWE-E101",
      Error,
      "a gate references a net with no wire model" );
    ( Undriven_net,
      "AWE-E102",
      Error,
      "a net is neither a gate output nor a primary input" );
    ( Sink_unattached,
      "AWE-E103",
      Error,
      "no wire segment ends at a sink instance's attachment node" );
    ( Sink_unreachable,
      "AWE-E104",
      Error,
      "a sink's attachment node is not connected to the driver through \
       the net's wire segments" );
    ( Design_cycle,
      "AWE-E105",
      Error,
      "the gate/net graph has a combinational cycle" );
    ( Constraint_target,
      "AWE-E106",
      Error,
      "a timing constraint names a net that is unknown or undriven: the \
       required time can never bind an arrival" );
    ( Shorted_element,
      "AWE-W001",
      Warning,
      "an element has both terminals on one node and stamps nothing" );
    ( Dangling_node,
      "AWE-W002",
      Warning,
      "a node is reached by exactly one resistor terminal and carries \
       no current" );
    ( Scale_spread,
      "AWE-W003",
      Warning,
      "node time constants spread over so many decades that the moment \
       matrix may be numerically rank-deficient despite eq. 47 scaling" );
    ( Float_group,
      "AWE-I001",
      Info,
      "a DC-floating node group (capacitor cutset) resolved by charge \
       conservation; its response has a pole at s = 0" );
    ( Unconstrained_endpoint,
      "AWE-W131",
      Warning,
      "a primary output has no required time (no constraint card and no \
       design clock): its cone reports no slack" );
    ( Dominated_constraint,
      "AWE-W132",
      Warning,
      "a constraint is dominated by a tighter (or equal) requirement \
       strictly downstream: with non-negative stage delays it can never \
       be the binding endpoint" );
    ( Constraint_unreachable,
      "AWE-W133",
      Warning,
      "nets from which no timing endpoint is reachable: their slacks go \
       unreported (a constraint-coverage hole)" );
    ( Structural_spread,
      "AWE-W201",
      Warning,
      "structural Elmore-bound node time constants (sum C / sum 1/R per \
       node) spread over so many decades that eq. 47 scaling cannot \
       condition the moment matrix — predicted without factoring" );
    ( Underdamped_net,
      "AWE-W202",
      Warning,
      "an LC tank sees almost no series resistance on its damping path: \
       pole quality factor is high and low-order AWE fits risk unstable \
       (right-half-plane) pole estimates" );
    ( Order_hotspot,
      "AWE-W203",
      Warning,
      "structural time constants cluster in many distinct decades: the \
       adaptive order estimator will escalate q toward one order per \
       cluster (an order-escalation hotspot)" );
    ( Series_chain,
      "AWE-I201",
      Info,
      "a series RC chain whose interior nodes are collapsible into a \
       moment-preserving 2-port equivalent (model-order-reduction \
       candidate)" );
    ( Star_reduce,
      "AWE-I202",
      Info,
      "several single-resistor RC legs hang off one hub node and can \
       merge into one equivalent leg (model-order-reduction candidate)" );
    ( Parallel_merge,
      "AWE-I203",
      Info,
      "parallel same-kind two-terminal elements between one node pair \
       collapse into a single equivalent element" );
    ( Multi_driver,
      "AWE-E107",
      Error,
      "a net has more than one source (two gates, or a gate and a \
       primary input): which one drives it is an accident of \
       declaration order" ) ]

let id code =
  let rec go = function
    | (c, id, _, _) :: rest -> if c = code then id else go rest
    | [] -> assert false
  in
  go registry

let default_severity code =
  let rec go = function
    | (c, _, sev, _) :: rest -> if c = code then sev else go rest
    | [] -> assert false
  in
  go registry

let doc code =
  let rec go = function
    | (c, _, _, d) :: rest -> if c = code then d else go rest
    | [] -> assert false
  in
  go registry

let all_codes = List.map (fun (c, _, _, _) -> c) registry

type t = {
  code : code;
  severity : severity;
  element : string option;  (** offending element, gate or net name *)
  nodes : string list;  (** involved node names *)
  line : int option;  (** deck line when the source is a parsed deck *)
  message : string;
  hint : string option;  (** how to fix the deck *)
}

let make ?element ?(nodes = []) ?line ?hint ?severity code message =
  { code;
    severity =
      (match severity with Some s -> s | None -> default_severity code);
    element;
    nodes;
    line;
    message;
    hint }

let is_error d = d.severity = Error

let severity_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

(* [strict] promotes warnings to errors, the CI gate's mode *)
let effective_severity ~strict d =
  match d.severity with
  | Warning when strict -> Error
  | s -> s

let pp ppf d =
  (match d.line with
  | Some ln -> Format.fprintf ppf "line %d: " ln
  | None -> ());
  Format.fprintf ppf "%s[%s]: %s" (severity_string d.severity) (id d.code)
    d.message;
  (match d.nodes with
  | [] -> ()
  | ns -> Format.fprintf ppf " (nodes: %s)" (String.concat ", " ns));
  match d.hint with
  | Some h -> Format.fprintf ppf "@,  hint: %s" h
  | None -> ()

let pp_list ppf ds =
  Format.fprintf ppf "@[<v>";
  List.iteri
    (fun i d ->
      if i > 0 then Format.fprintf ppf "@,";
      pp ppf d)
    ds;
  Format.fprintf ppf "@]"

(* --- JSON ---------------------------------------------------------- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json d =
  let buf = Buffer.create 128 in
  let field ?(sep = true) k v =
    if sep then Buffer.add_string buf ", ";
    Buffer.add_string buf (Printf.sprintf "%S: %s" k v)
  in
  Buffer.add_char buf '{';
  field ~sep:false "code" (Printf.sprintf "%S" (id d.code));
  field "severity" (Printf.sprintf "%S" (severity_string d.severity));
  (match d.element with
  | Some e -> field "element" (Printf.sprintf "\"%s\"" (json_escape e))
  | None -> ());
  if d.nodes <> [] then
    field "nodes"
      (Printf.sprintf "[%s]"
         (String.concat ", "
            (List.map (fun n -> Printf.sprintf "\"%s\"" (json_escape n))
               d.nodes)));
  (match d.line with
  | Some ln -> field "line" (string_of_int ln)
  | None -> ());
  field "message" (Printf.sprintf "\"%s\"" (json_escape d.message));
  (match d.hint with
  | Some h -> field "hint" (Printf.sprintf "\"%s\"" (json_escape h))
  | None -> ());
  Buffer.add_char buf '}';
  Buffer.contents buf

let list_to_json ?file ds =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "{";
  (match file with
  | Some f -> Buffer.add_string buf (Printf.sprintf "\"file\": \"%s\", " (json_escape f))
  | None -> ());
  Buffer.add_string buf "\"diagnostics\": [";
  List.iteri
    (fun i d ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf (to_json d))
    ds;
  Buffer.add_string buf "]}";
  Buffer.contents buf
