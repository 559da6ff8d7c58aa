(** Differential verification harness: random-circuit oracles,
    metamorphic properties, and parser/protocol fuzzing.

    Three layers, all deterministic in one seed:

    + {!Oracle}: random circuits from {!Cases} checked against the
      in-repo transient simulator — waveform agreement, final-value
      agreement, error-estimate sanity;
    + {!Props}: metamorphic invariances (linearity, superposition,
      scaling rules, batch/STA parity, the Cauchy bound);
    + {!Fuzz}: the [.sp] and [.sta] parsers must parse or raise their
      own [Parse_error], never anything else.

    [run] drives all three and accumulates failures into a {!report}
    instead of raising, so one sweep reports everything at once. *)

module Cases = Cases
module Oracle = Oracle
module Props = Props
module Fuzz = Fuzz

type config = {
  seed : int;
  count : int;  (** oracle cases *)
  prop_count : int;  (** seeds per metamorphic property *)
  fuzz_count : int;  (** fuzz inputs per fuzzer (parsers, serve protocol) *)
  tol : Oracle.tol;
  repro_dir : string option;  (** where to write shrunk fuzz decks *)
  jobs : int;  (** parallel fan-out across cases/props/fuzzers *)
}

type prop_failure = {
  prop : string;
  prop_seed : int;
  message : string;
}

type report = {
  config : config;
  oracle_run : int;
  oracle_failures : Oracle.outcome list;
  worst_measured : float;  (** largest oracle rel-L2 error observed *)
  worst_case : Cases.case option;
  prop_run : int;
  prop_failures : prop_failure list;
  fuzz_run : int;
  fuzz_failures : Fuzz.failure list;
  repro_files : string list;  (** decks written for fuzz failures *)
}

val passed : report -> bool

val run : ?progress:(string -> unit) -> config -> report
(** Run the full sweep.  [progress] receives one-line status messages
    as layers advance (default: silent).  Failures accumulate in the
    report; [run] itself only raises on I/O errors writing repro
    decks.

    [config.jobs] > 1 fans the individual oracle cases, property
    runs, and the three fuzzers across a {!Parallel} pool.  Each
    task derives its RNG from its own seed and results fold in index
    order, so the report is bit-identical for any job count. *)

val pp_report : Format.formatter -> report -> unit
