(* Instrumentation counters for the AWE pipeline.

   Counters are DOMAIN-LOCAL: each domain increments its own counter
   record (no atomics, no contention, no torn reads), and parallel
   drivers combine per-task [scoped] windows with the commutative
   [merge] — so reported totals are identical whatever the execution
   schedule.  Within one domain the counters are monotone, and the
   classic snapshot/diff idiom keeps working unchanged. *)

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

type counters = {
  mutable factorizations_c : int;
  mutable moment_solves_c : int;
  mutable fits_c : int;
  mutable fit_retries_c : int;
  mutable order_escalations_c : int;
  mutable mna_builds_c : int;
  mutable cache_exact_hits_c : int;
  mutable cache_pattern_hits_c : int;
  mutable cache_misses_c : int;
  mutable reduce_nodes_c : int;
  mutable reduce_elements_c : int;
  mutable reduce_parallels_c : int;
  mutable reduce_series_c : int;
  mutable reduce_chains_c : int;
  mutable reduce_stars_c : int;
  mutable eco_edits_c : int;
  mutable eco_dirty_c : int;
  mutable eco_reused_c : int;
  mutable eco_fallbacks_c : int;
  phases : (string, float) Hashtbl.t; (* phase name -> CPU seconds *)
}

let fresh () =
  { factorizations_c = 0;
    moment_solves_c = 0;
    fits_c = 0;
    fit_retries_c = 0;
    order_escalations_c = 0;
    mna_builds_c = 0;
    cache_exact_hits_c = 0;
    cache_pattern_hits_c = 0;
    cache_misses_c = 0;
    reduce_nodes_c = 0;
    reduce_elements_c = 0;
    reduce_parallels_c = 0;
    reduce_series_c = 0;
    reduce_chains_c = 0;
    reduce_stars_c = 0;
    eco_edits_c = 0;
    eco_dirty_c = 0;
    eco_reused_c = 0;
    eco_fallbacks_c = 0;
    phases = Hashtbl.create 8 }

(* one counter record per domain, created on first use *)
let key = Domain.DLS.new_key fresh

let current () = Domain.DLS.get key

let reset () =
  let c = current () in
  c.factorizations_c <- 0;
  c.moment_solves_c <- 0;
  c.fits_c <- 0;
  c.fit_retries_c <- 0;
  c.order_escalations_c <- 0;
  c.mna_builds_c <- 0;
  c.cache_exact_hits_c <- 0;
  c.cache_pattern_hits_c <- 0;
  c.cache_misses_c <- 0;
  c.reduce_nodes_c <- 0;
  c.reduce_elements_c <- 0;
  c.reduce_parallels_c <- 0;
  c.reduce_series_c <- 0;
  c.reduce_chains_c <- 0;
  c.reduce_stars_c <- 0;
  c.eco_edits_c <- 0;
  c.eco_dirty_c <- 0;
  c.eco_reused_c <- 0;
  c.eco_fallbacks_c <- 0;
  Hashtbl.reset c.phases

let record_factorization () =
  let c = current () in
  c.factorizations_c <- c.factorizations_c + 1

let record_moment_solve () =
  let c = current () in
  c.moment_solves_c <- c.moment_solves_c + 1

let record_fit () =
  let c = current () in
  c.fits_c <- c.fits_c + 1

let record_fit_retry () =
  let c = current () in
  c.fit_retries_c <- c.fit_retries_c + 1

let record_order_escalation () =
  let c = current () in
  c.order_escalations_c <- c.order_escalations_c + 1

let record_mna_build () =
  let c = current () in
  c.mna_builds_c <- c.mna_builds_c + 1

let record_cache_exact_hit () =
  let c = current () in
  c.cache_exact_hits_c <- c.cache_exact_hits_c + 1

let record_cache_pattern_hit () =
  let c = current () in
  c.cache_pattern_hits_c <- c.cache_pattern_hits_c + 1

let record_cache_miss () =
  let c = current () in
  c.cache_misses_c <- c.cache_misses_c + 1

let record_reduction ~nodes ~elements ~parallels ~series ~chains ~stars =
  let c = current () in
  c.reduce_nodes_c <- c.reduce_nodes_c + nodes;
  c.reduce_elements_c <- c.reduce_elements_c + elements;
  c.reduce_parallels_c <- c.reduce_parallels_c + parallels;
  c.reduce_series_c <- c.reduce_series_c + series;
  c.reduce_chains_c <- c.reduce_chains_c + chains;
  c.reduce_stars_c <- c.reduce_stars_c + stars

let record_eco ~edits ~dirty_nets ~reused_nets ~full_fallbacks =
  let c = current () in
  c.eco_edits_c <- c.eco_edits_c + edits;
  c.eco_dirty_c <- c.eco_dirty_c + dirty_nets;
  c.eco_reused_c <- c.eco_reused_c + reused_nets;
  c.eco_fallbacks_c <- c.eco_fallbacks_c + full_fallbacks

let replay s =
  let c = current () in
  c.factorizations_c <- c.factorizations_c + s.factorizations;
  c.moment_solves_c <- c.moment_solves_c + s.moment_solves;
  c.fits_c <- c.fits_c + s.fits;
  c.fit_retries_c <- c.fit_retries_c + s.fit_retries;
  c.order_escalations_c <- c.order_escalations_c + s.order_escalations;
  c.mna_builds_c <- c.mna_builds_c + s.mna_builds

let add_phase phases phase dt =
  let prev = Option.value ~default:0. (Hashtbl.find_opt phases phase) in
  Hashtbl.replace phases phase (prev +. dt)

let time phase f =
  let t0 = Sys.time () in
  Fun.protect
    ~finally:(fun () -> add_phase (current ()).phases phase (Sys.time () -. t0))
    f

let snapshot_of c =
  { factorizations = c.factorizations_c;
    moment_solves = c.moment_solves_c;
    fits = c.fits_c;
    fit_retries = c.fit_retries_c;
    order_escalations = c.order_escalations_c;
    mna_builds = c.mna_builds_c;
    cache_exact_hits = c.cache_exact_hits_c;
    cache_pattern_hits = c.cache_pattern_hits_c;
    cache_misses = c.cache_misses_c;
    cache_bytes = 0; (* no domain records it: the engine merges the footprint *)
    reduce_nodes_eliminated = c.reduce_nodes_c;
    reduce_elements_eliminated = c.reduce_elements_c;
    reduce_parallel_merges = c.reduce_parallels_c;
    reduce_series_merges = c.reduce_series_c;
    reduce_chain_lumps = c.reduce_chains_c;
    reduce_star_merges = c.reduce_stars_c;
    eco_edits = c.eco_edits_c;
    eco_dirty_nets = c.eco_dirty_c;
    eco_reused_nets = c.eco_reused_c;
    eco_full_fallbacks = c.eco_fallbacks_c;
    phase_seconds =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) c.phases []
      |> List.sort compare }

let snapshot () = snapshot_of (current ())

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

let diff a b =
  let sub l l' =
    (* phases present in [a] minus their value in [b] *)
    List.map
      (fun (k, v) ->
        (k, v -. Option.value ~default:0. (List.assoc_opt k l')))
      l
  in
  { factorizations = a.factorizations - b.factorizations;
    moment_solves = a.moment_solves - b.moment_solves;
    fits = a.fits - b.fits;
    fit_retries = a.fit_retries - b.fit_retries;
    order_escalations = a.order_escalations - b.order_escalations;
    mna_builds = a.mna_builds - b.mna_builds;
    cache_exact_hits = a.cache_exact_hits - b.cache_exact_hits;
    cache_pattern_hits = a.cache_pattern_hits - b.cache_pattern_hits;
    cache_misses = a.cache_misses - b.cache_misses;
    cache_bytes = a.cache_bytes - b.cache_bytes;
    reduce_nodes_eliminated =
      a.reduce_nodes_eliminated - b.reduce_nodes_eliminated;
    reduce_elements_eliminated =
      a.reduce_elements_eliminated - b.reduce_elements_eliminated;
    reduce_parallel_merges =
      a.reduce_parallel_merges - b.reduce_parallel_merges;
    reduce_series_merges = a.reduce_series_merges - b.reduce_series_merges;
    reduce_chain_lumps = a.reduce_chain_lumps - b.reduce_chain_lumps;
    reduce_star_merges = a.reduce_star_merges - b.reduce_star_merges;
    eco_edits = a.eco_edits - b.eco_edits;
    eco_dirty_nets = a.eco_dirty_nets - b.eco_dirty_nets;
    eco_reused_nets = a.eco_reused_nets - b.eco_reused_nets;
    eco_full_fallbacks = a.eco_full_fallbacks - b.eco_full_fallbacks;
    phase_seconds = sub a.phase_seconds b.phase_seconds }

let merge a b =
  let phases =
    (* union by phase name; keys of both lists, each counted once *)
    let tbl = Hashtbl.create 8 in
    List.iter (fun (k, v) -> add_phase tbl k v) a.phase_seconds;
    List.iter (fun (k, v) -> add_phase tbl k v) b.phase_seconds;
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare
  in
  { factorizations = a.factorizations + b.factorizations;
    moment_solves = a.moment_solves + b.moment_solves;
    fits = a.fits + b.fits;
    fit_retries = a.fit_retries + b.fit_retries;
    order_escalations = a.order_escalations + b.order_escalations;
    mna_builds = a.mna_builds + b.mna_builds;
    cache_exact_hits = a.cache_exact_hits + b.cache_exact_hits;
    cache_pattern_hits = a.cache_pattern_hits + b.cache_pattern_hits;
    cache_misses = a.cache_misses + b.cache_misses;
    cache_bytes = a.cache_bytes + b.cache_bytes;
    reduce_nodes_eliminated =
      a.reduce_nodes_eliminated + b.reduce_nodes_eliminated;
    reduce_elements_eliminated =
      a.reduce_elements_eliminated + b.reduce_elements_eliminated;
    reduce_parallel_merges =
      a.reduce_parallel_merges + b.reduce_parallel_merges;
    reduce_series_merges = a.reduce_series_merges + b.reduce_series_merges;
    reduce_chain_lumps = a.reduce_chain_lumps + b.reduce_chain_lumps;
    reduce_star_merges = a.reduce_star_merges + b.reduce_star_merges;
    eco_edits = a.eco_edits + b.eco_edits;
    eco_dirty_nets = a.eco_dirty_nets + b.eco_dirty_nets;
    eco_reused_nets = a.eco_reused_nets + b.eco_reused_nets;
    eco_full_fallbacks = a.eco_full_fallbacks + b.eco_full_fallbacks;
    phase_seconds = phases }

let scoped f =
  let outer = current () in
  let inner = fresh () in
  Domain.DLS.set key inner;
  let restore () =
    Domain.DLS.set key outer;
    (* fold the window back in so the domain's counters stay monotone
       and an enclosing snapshot/diff still sees this work *)
    outer.factorizations_c <- outer.factorizations_c + inner.factorizations_c;
    outer.moment_solves_c <- outer.moment_solves_c + inner.moment_solves_c;
    outer.fits_c <- outer.fits_c + inner.fits_c;
    outer.fit_retries_c <- outer.fit_retries_c + inner.fit_retries_c;
    outer.order_escalations_c <-
      outer.order_escalations_c + inner.order_escalations_c;
    outer.mna_builds_c <- outer.mna_builds_c + inner.mna_builds_c;
    outer.cache_exact_hits_c <-
      outer.cache_exact_hits_c + inner.cache_exact_hits_c;
    outer.cache_pattern_hits_c <-
      outer.cache_pattern_hits_c + inner.cache_pattern_hits_c;
    outer.cache_misses_c <- outer.cache_misses_c + inner.cache_misses_c;
    outer.reduce_nodes_c <- outer.reduce_nodes_c + inner.reduce_nodes_c;
    outer.reduce_elements_c <-
      outer.reduce_elements_c + inner.reduce_elements_c;
    outer.reduce_parallels_c <-
      outer.reduce_parallels_c + inner.reduce_parallels_c;
    outer.reduce_series_c <- outer.reduce_series_c + inner.reduce_series_c;
    outer.reduce_chains_c <- outer.reduce_chains_c + inner.reduce_chains_c;
    outer.reduce_stars_c <- outer.reduce_stars_c + inner.reduce_stars_c;
    outer.eco_edits_c <- outer.eco_edits_c + inner.eco_edits_c;
    outer.eco_dirty_c <- outer.eco_dirty_c + inner.eco_dirty_c;
    outer.eco_reused_c <- outer.eco_reused_c + inner.eco_reused_c;
    outer.eco_fallbacks_c <- outer.eco_fallbacks_c + inner.eco_fallbacks_c;
    Hashtbl.iter (fun k v -> add_phase outer.phases k v) inner.phases
  in
  match f () with
  | v ->
    let s = snapshot_of inner in
    restore ();
    (v, s)
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    restore ();
    Printexc.raise_with_backtrace e bt

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
