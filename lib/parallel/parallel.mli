(** A small fixed-size domain pool for embarrassingly parallel fan-out.

    The AWE timing kernel is net-parallel: each net (and each
    verification case) is an independent solve, so the natural
    execution model is an ordered [map] over an indexed work list,
    spread across a handful of worker domains.  This module provides
    exactly that and nothing more — no futures, no work stealing
    between pools, no external dependencies.

    {b Determinism contract.}  [map] returns results in input order,
    whatever the execution schedule; tasks must be pure functions of
    their input (the callers seed any per-task RNG from the task
    index).  Under that contract every derived quantity — timing
    reports, merged {!Awe.Stats} totals, verification verdicts — is
    bit-identical between [jobs = 1] and [jobs = N].

    {b Failure funneling.}  A task that raises does not abort its
    siblings: every task runs to completion (or failure), then the
    {e lowest-indexed} failure is re-raised as {!Task_failure} with
    its index and label — the same failure a sequential left-to-right
    sweep would have surfaced first.

    {b Concurrency.}  A pool is owned by the domain that created it;
    [map] may not be called concurrently from several domains, and
    tasks must not submit to the pool they run on. *)

type t
(** A pool of worker domains (none when [jobs = 1]). *)

exception Task_failure of { index : int; label : string; exn : exn }
(** The first (lowest-index) task failure of a [map], with the
    caller-supplied provenance label (a net name, a case seed). *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the CLI default for
    [--jobs 0]. *)

val create : ?jobs:int -> unit -> t
(** [create ~jobs ()] spawns [jobs - 1] worker domains (the calling
    domain participates in every [map], so total parallelism is
    [jobs]).  [jobs] follows the tree-wide convention: omitted or [0]
    means {!default_jobs}, [1] creates a worker-free pool whose [map]
    runs sequentially in the caller, and negative values raise
    [Invalid_argument] — the same validation every [--jobs] flag gets.
    The pool never runs more domains than the machine has cores: the
    parallelism is [min jobs (default_jobs ())], so a single-core
    machine always gets the worker-free pool.  Domains beyond the core
    count could only add spawn cost and oversubscription, and by the
    determinism contract the results are identical; set
    [AWESIM_FORCE_DOMAINS=1] to get exactly [jobs] (used by the test
    suite to exercise the domain machinery on small CI runners).
    Pools hold OS resources: release with {!shutdown}, or use
    {!with_pool}. *)

val jobs : t -> int
(** The parallelism the pool runs at, after the core-count cap (always
    [>= 1]). *)

val shutdown : t -> unit
(** Join all worker domains.  Idempotent.  A shut-down pool is dead:
    calling [map] on it raises [Invalid_argument] — silently running
    sequentially would mask a lifecycle bug in the caller. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [create] / run / [shutdown], exception-safe. *)

val map : ?label:(int -> string) -> t -> ('a -> 'b) -> 'a array -> 'b array
(** [map pool f xs] applies [f] to every element, in parallel across
    the pool, and returns the results {e in input order}.  [label i]
    names task [i] in {!Task_failure} (default: the index). *)

val mapi : ?label:(int -> string) -> t -> (int -> 'a -> 'b) -> 'a array -> 'b array
(** [map] with the task index, for index-seeded work. *)

val map_reduce :
  ?label:(int -> string) ->
  t -> map:('a -> 'b) -> reduce:('b -> 'b -> 'b) -> init:'b -> 'a array -> 'b
(** Ordered reduction [reduce (.. (reduce init y0) ..) yn] of the
    mapped results — with an associative [reduce] the result is
    schedule-independent; with a merely commutative one it is still
    deterministic because the fold order is the input order. *)
