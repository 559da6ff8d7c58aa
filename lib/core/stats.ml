(* Instrumentation counters for the AWE pipeline.

   Counters are DOMAIN-LOCAL: each domain holds its own snapshot (no
   atomics, no contention, no torn reads), and parallel drivers combine
   per-task [scoped] windows with the commutative [merge] — so reported
   totals are identical whatever the execution schedule.  Within one
   domain the counters are monotone, and the classic snapshot/diff
   idiom keeps working unchanged.

   The [snapshot] record is the only declaration of the counters: a
   domain's counters are a [snapshot ref], every writer is a field
   update of it, and the algebra is one pointwise [map2]. *)

type snapshot = {
  factorizations : int;
  moment_solves : int;
  fits : int;
  fit_retries : int;
  order_escalations : int;
  mna_builds : int;
  cache_exact_hits : int;
  cache_pattern_hits : int;
  cache_misses : int;
  cache_bytes : int;
  reduce_nodes_eliminated : int;
  reduce_elements_eliminated : int;
  reduce_parallel_merges : int;
  reduce_series_merges : int;
  reduce_chain_lumps : int;
  reduce_star_merges : int;
  eco_edits : int;
  eco_dirty_nets : int;
  eco_reused_nets : int;
  eco_full_fallbacks : int;
  phase_seconds : (string * float) list;
}

let zero =
  { factorizations = 0;
    moment_solves = 0;
    fits = 0;
    fit_retries = 0;
    order_escalations = 0;
    mna_builds = 0;
    cache_exact_hits = 0;
    cache_pattern_hits = 0;
    cache_misses = 0;
    cache_bytes = 0;
    reduce_nodes_eliminated = 0;
    reduce_elements_eliminated = 0;
    reduce_parallel_merges = 0;
    reduce_series_merges = 0;
    reduce_chain_lumps = 0;
    reduce_star_merges = 0;
    eco_edits = 0;
    eco_dirty_nets = 0;
    eco_reused_nets = 0;
    eco_full_fallbacks = 0;
    phase_seconds = [] }

(* [f] applied pointwise to every integer counter of [a] and [b] *)
let map2 f a b ~phase_seconds =
  { factorizations = f a.factorizations b.factorizations;
    moment_solves = f a.moment_solves b.moment_solves;
    fits = f a.fits b.fits;
    fit_retries = f a.fit_retries b.fit_retries;
    order_escalations = f a.order_escalations b.order_escalations;
    mna_builds = f a.mna_builds b.mna_builds;
    cache_exact_hits = f a.cache_exact_hits b.cache_exact_hits;
    cache_pattern_hits = f a.cache_pattern_hits b.cache_pattern_hits;
    cache_misses = f a.cache_misses b.cache_misses;
    cache_bytes = f a.cache_bytes b.cache_bytes;
    reduce_nodes_eliminated =
      f a.reduce_nodes_eliminated b.reduce_nodes_eliminated;
    reduce_elements_eliminated =
      f a.reduce_elements_eliminated b.reduce_elements_eliminated;
    reduce_parallel_merges = f a.reduce_parallel_merges b.reduce_parallel_merges;
    reduce_series_merges = f a.reduce_series_merges b.reduce_series_merges;
    reduce_chain_lumps = f a.reduce_chain_lumps b.reduce_chain_lumps;
    reduce_star_merges = f a.reduce_star_merges b.reduce_star_merges;
    eco_edits = f a.eco_edits b.eco_edits;
    eco_dirty_nets = f a.eco_dirty_nets b.eco_dirty_nets;
    eco_reused_nets = f a.eco_reused_nets b.eco_reused_nets;
    eco_full_fallbacks = f a.eco_full_fallbacks b.eco_full_fallbacks;
    phase_seconds }

(* [dt] added under [phase] in a phase list kept sorted by name *)
let rec add_phase (phase : string) dt = function
  | (k, v) :: rest when k = phase -> (k, v +. dt) :: rest
  | (k, _) :: _ as l when phase < k -> (phase, dt) :: l
  | kv :: rest -> kv :: add_phase phase dt rest
  | [] -> [ (phase, dt) ]

let diff a b =
  (* phases present in [a] minus their value in [b] *)
  map2 ( - ) a b
    ~phase_seconds:
      (List.map
         (fun (k, v) ->
           (k, v -. Option.value ~default:0. (List.assoc_opt k b.phase_seconds)))
         a.phase_seconds)

let merge a b =
  (* union by phase name; keys of both lists, each counted once *)
  map2 ( + ) a b
    ~phase_seconds:
      (List.fold_left
         (fun acc (k, v) -> add_phase k v acc)
         [] (a.phase_seconds @ b.phase_seconds))

(* one snapshot per domain, created on first use *)
let key = Domain.DLS.new_key (fun () -> ref zero)

let update f =
  let c = Domain.DLS.get key in
  c := f !c

let snapshot () = !(Domain.DLS.get key)

let scoped f =
  let c = Domain.DLS.get key in
  let outer = !c in
  c := zero;
  (* fold the window back in so the domain's counters stay monotone
     and an enclosing snapshot/diff still sees this work *)
  let restore () =
    let inner = !c in
    c := merge outer inner;
    inner
  in
  match f () with
  | v -> (v, restore ())
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    ignore (restore ());
    Printexc.raise_with_backtrace e bt

let record_factorization () =
  update (fun s -> { s with factorizations = s.factorizations + 1 })

let record_moment_solve () =
  update (fun s -> { s with moment_solves = s.moment_solves + 1 })

let record_fit () = update (fun s -> { s with fits = s.fits + 1 })

let record_fit_retry () =
  update (fun s -> { s with fit_retries = s.fit_retries + 1 })

let record_order_escalation () =
  update (fun s -> { s with order_escalations = s.order_escalations + 1 })

let record_mna_build () =
  update (fun s -> { s with mna_builds = s.mna_builds + 1 })

let record_cache_exact_hit () =
  update (fun s -> { s with cache_exact_hits = s.cache_exact_hits + 1 })

let record_cache_pattern_hit () =
  update (fun s -> { s with cache_pattern_hits = s.cache_pattern_hits + 1 })

let record_cache_miss () =
  update (fun s -> { s with cache_misses = s.cache_misses + 1 })

let record_reduction ~nodes ~elements ~parallels ~series ~chains ~stars =
  update (fun s ->
      { s with
        reduce_nodes_eliminated = s.reduce_nodes_eliminated + nodes;
        reduce_elements_eliminated = s.reduce_elements_eliminated + elements;
        reduce_parallel_merges = s.reduce_parallel_merges + parallels;
        reduce_series_merges = s.reduce_series_merges + series;
        reduce_chain_lumps = s.reduce_chain_lumps + chains;
        reduce_star_merges = s.reduce_star_merges + stars })

let record_eco ~edits ~dirty_nets ~reused_nets ~full_fallbacks =
  update (fun s ->
      { s with
        eco_edits = s.eco_edits + edits;
        eco_dirty_nets = s.eco_dirty_nets + dirty_nets;
        eco_reused_nets = s.eco_reused_nets + reused_nets;
        eco_full_fallbacks = s.eco_full_fallbacks + full_fallbacks })

let replay s =
  update (fun c ->
      merge c
        { zero with
          factorizations = s.factorizations;
          moment_solves = s.moment_solves;
          fits = s.fits;
          fit_retries = s.fit_retries;
          order_escalations = s.order_escalations;
          mna_builds = s.mna_builds })

let time phase f =
  let t0 = Sys.time () in
  Fun.protect
    ~finally:(fun () ->
      let dt = Sys.time () -. t0 in
      update (fun s ->
          { s with phase_seconds = add_phase phase dt s.phase_seconds }))
    f

let pp ppf s =
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf "mna builds:        %d@," s.mna_builds;
  Format.fprintf ppf "factorizations:    %d@," s.factorizations;
  Format.fprintf ppf "moment solves:     %d@," s.moment_solves;
  Format.fprintf ppf "fits:              %d@," s.fits;
  Format.fprintf ppf "fit retries:       %d@," s.fit_retries;
  Format.fprintf ppf "order escalations: %d" s.order_escalations;
  if s.cache_exact_hits + s.cache_pattern_hits + s.cache_misses > 0 then begin
    Format.fprintf ppf "@,cache exact hits:  %d" s.cache_exact_hits;
    Format.fprintf ppf "@,cache pattern hits:%d" s.cache_pattern_hits;
    Format.fprintf ppf "@,cache misses:      %d" s.cache_misses;
    Format.fprintf ppf "@,cache bytes:       %d" s.cache_bytes
  end;
  if
    s.reduce_nodes_eliminated + s.reduce_elements_eliminated
    + s.reduce_parallel_merges + s.reduce_series_merges
    + s.reduce_chain_lumps + s.reduce_star_merges
    > 0
  then begin
    Format.fprintf ppf "@,reduce nodes:      %d" s.reduce_nodes_eliminated;
    Format.fprintf ppf "@,reduce elements:   %d" s.reduce_elements_eliminated;
    Format.fprintf ppf
      "@,reduce transforms: %d parallel, %d series, %d chain, %d star"
      s.reduce_parallel_merges s.reduce_series_merges s.reduce_chain_lumps
      s.reduce_star_merges
  end;
  if
    s.eco_edits + s.eco_dirty_nets + s.eco_reused_nets + s.eco_full_fallbacks
    > 0
  then begin
    Format.fprintf ppf "@,eco edits:         %d" s.eco_edits;
    Format.fprintf ppf "@,eco dirty nets:    %d" s.eco_dirty_nets;
    Format.fprintf ppf "@,eco reused nets:   %d" s.eco_reused_nets;
    Format.fprintf ppf "@,eco fallbacks:     %d" s.eco_full_fallbacks
  end;
  List.iter
    (fun (phase, secs) ->
      if secs > 0. then
        Format.fprintf ppf "@,%-8s time:     %.3g ms" phase (1e3 *. secs))
    s.phase_seconds;
  Format.fprintf ppf "@]"
