(** AWE-W13x constraint-coverage passes: backward dataflow over the
    exported net-level timing DAG ({!Sta.Dag}).

    - [AWE-W131] ({!Diagnostic.Unconstrained_endpoint}): primary
      outputs with no required time when the design has no [clock]
      card.
    - [AWE-W132] ({!Diagnostic.Dominated_constraint}): explicit
      constraints dominated by a tighter-or-equal requirement strictly
      downstream (stage delays are non-negative, so the card can
      never bind); the diagnostic names the dominating endpoint and
      carries the constraint card's source line.
    - [AWE-W133] ({!Diagnostic.Constraint_unreachable}): declared
      nets from which no endpoint is reachable, reported once as a
      sorted list; skipped when the design has no endpoints at all
      (W131 is then the actionable finding).

    Safe on cyclic designs: the fixpoints converge regardless, so
    coverage can be reported alongside the cycle diagnostic. *)

val check_design : Sta.Dag.t -> Sta.design -> Diagnostic.t list
(** [check_design dag d] takes [dag = Sta.Dag.of_design d], the one
    {!Lint.check_design} built for its cycle check. *)
