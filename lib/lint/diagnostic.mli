(** Structured static diagnostics.

    Every finding of the lint layer is a [t]: a registry code with a
    stable string id, a severity, the offending element/nodes/deck
    line, a message, and a fix hint.  The registry ids ([AWE-Exxx],
    [AWE-Wxxx], [AWE-Ixxx]) are an output contract — tests and CI
    gates key on them — so codes are appended, never renumbered.
    docs/LINT.md maps each code to the paper section it guards. *)

type severity = Error | Warning | Info

type code =
  | Nonpositive_value  (** R/C/L value <= 0 or non-finite *)
  | Shorted_source  (** V source with both terminals on one node *)
  | Shorted_element  (** R/C/L/I self-loop: stamps nothing *)
  | Dangling_node  (** dead-end resistor node, carries no current *)
  | Float_group
      (** DC-floating group (capacitor cutset) resolved by charge
          conservation — paper Section 3.1 *)
  | Float_no_cap
      (** DC-floating group with no bridging capacitance: singular even
          after charge augmentation *)
  | Isrc_cutset  (** current source drives a floating group *)
  | Ind_loop  (** inductor loop: repeated pole at s = 0 *)
  | Vsrc_loop  (** zero-resistance V/L loop *)
  | Structural_rank
      (** MNA pattern admits no perfect matching: LU must fail *)
  | Scale_spread
      (** extreme node time-constant spread (eq. 47 conditioning) *)
  | Unknown_net
  | Undriven_net
  | Sink_unattached
  | Sink_unreachable
  | Design_cycle
  | Constraint_target
      (** a timing constraint names an unknown or undriven net *)
  | Multi_driver
      (** a net driven by two gates, or by a gate and a primary input *)
  | Unconstrained_endpoint
      (** a primary output with no required time and no design clock *)
  | Dominated_constraint
      (** a constraint dominated by a tighter downstream requirement *)
  | Constraint_unreachable
      (** nets from which no timing endpoint is reachable *)
  | Structural_spread
      (** eq. 47 conditioning risk predicted from structural Elmore
          bounds, without factoring *)
  | Underdamped_net
      (** an LC tank with a near-zero-resistance damping path:
          pole-instability risk for low-order fits *)
  | Order_hotspot
      (** time constants in many distinct decades: predicted order
          escalation of the adaptive fit *)
  | Series_chain  (** collapsible series RC chain (reduction candidate) *)
  | Star_reduce  (** mergeable single-resistor RC legs on one hub *)
  | Parallel_merge  (** parallel same-kind elements between one pair *)

val id : code -> string
(** Stable registry id, e.g. ["AWE-E007"]. *)

val default_severity : code -> severity

val doc : code -> string
(** One-line registry description. *)

val all_codes : code list

type t = {
  code : code;
  severity : severity;
  element : string option;
  nodes : string list;
  line : int option;
  message : string;
  hint : string option;
}

val make :
  ?element:string ->
  ?nodes:string list ->
  ?line:int ->
  ?hint:string ->
  ?severity:severity ->
  code ->
  string ->
  t
(** [severity] defaults to the registry's default for the code. *)

val is_error : t -> bool

val effective_severity : strict:bool -> t -> severity
(** [strict] promotes warnings to errors. *)

val severity_string : severity -> string

val pp : Format.formatter -> t -> unit

val pp_list : Format.formatter -> t list -> unit

val json_escape : string -> string
(** JSON string-body escaping, shared with the SARIF writer. *)

val to_json : t -> string

val list_to_json : ?file:string -> t list -> string
(** A [{"file": ..., "diagnostics": [...]}] object. *)
