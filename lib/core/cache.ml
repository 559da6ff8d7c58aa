(* Two-tier structure cache (see cache.mli).  Both tiers are
   persistent maps so [view] is a pointer copy: tasks running in other
   domains read the frozen snapshot while the coordinator keeps
   publishing into the mutable roots. *)

module Smap = Map.Make (String)

type 'a exact_entry = { e_sig : string; e_payload : 'a }

(* The pattern tier lives in its own store so several caches can share
   one: corner analyses change element values, never topology, so the
   symbolic factorizations are corner-invariant — N per-corner caches
   pointing at one [patterns] store pay for each topology's symbolic
   analysis exactly once across all corners.  The epoch counts
   publications, so caches sharing the store can tell their memoized
   footprint is stale without seeing each other. *)
type patterns = {
  mutable p_symbolics : Sparse.Slu.symbolic list Smap.t;
      (* pattern hash -> analyses *)
  mutable p_epoch : int;
}

type 'a t = {
  mutable exact : 'a exact_entry list Smap.t; (* exact hash -> entries *)
  pats : patterns; (* possibly shared with other caches *)
  mutable bytes_memo : (int * int) option;
      (* (pattern epoch, footprint): lazily computed, invalidated by
         exact publication (dropped) or pattern publication through
         any sharer (epoch mismatch) *)
}

type 'a view = {
  v_exact : 'a exact_entry list Smap.t;
  v_symbolics : Sparse.Slu.symbolic list Smap.t;
}

let create_patterns () = { p_symbolics = Smap.empty; p_epoch = 0 }

let create ?patterns () =
  let pats =
    match patterns with Some p -> p | None -> create_patterns ()
  in
  { exact = Smap.empty; pats; bytes_memo = None }

let view t = { v_exact = t.exact; v_symbolics = t.pats.p_symbolics }

let find_exact v ~hash ~signature =
  match Smap.find_opt hash v.v_exact with
  | None -> None
  | Some entries ->
    List.find_map
      (fun e ->
        if String.equal e.e_sig signature then Some e.e_payload else None)
      entries

let find_symbolic v ~hash =
  Option.value ~default:[] (Smap.find_opt hash v.v_symbolics)

let publish_exact t ~hash ~signature payload =
  let entries = Option.value ~default:[] (Smap.find_opt hash t.exact) in
  if List.exists (fun e -> String.equal e.e_sig signature) entries then false
  else begin
    t.exact <-
      Smap.add hash ({ e_sig = signature; e_payload = payload } :: entries)
        t.exact;
    t.bytes_memo <- None;
    true
  end

let publish_symbolic t ~hash s =
  let p = t.pats in
  let entries = Option.value ~default:[] (Smap.find_opt hash p.p_symbolics) in
  if List.exists (fun s' -> Sparse.Slu.same_analysis s' s) entries then false
  else begin
    p.p_symbolics <- Smap.add hash (s :: entries) p.p_symbolics;
    p.p_epoch <- p.p_epoch + 1;
    t.bytes_memo <- None;
    true
  end

(* Removal exists for incremental sessions: an edit that changes a
   net's exact key retires the old entry once no live net references
   it, keeping the key set equal to what a cold run of the edited
   design would publish.  Both removers bump the pattern epoch /
   drop the byte memo like publication does. *)
let remove_exact t ~hash ~signature =
  match Smap.find_opt hash t.exact with
  | None -> false
  | Some entries ->
    let kept =
      List.filter (fun e -> not (String.equal e.e_sig signature)) entries
    in
    if List.length kept = List.length entries then false
    else begin
      t.exact <-
        (if kept = [] then Smap.remove hash t.exact
         else Smap.add hash kept t.exact);
      t.bytes_memo <- None;
      true
    end

let remove_symbolic t ~hash =
  let p = t.pats in
  match Smap.find_opt hash p.p_symbolics with
  | None -> 0
  | Some entries ->
    p.p_symbolics <- Smap.remove hash p.p_symbolics;
    p.p_epoch <- p.p_epoch + 1;
    t.bytes_memo <- None;
    List.length entries

(* The reachability sweep is linear in the cache size; memoizing it
   turns repeated stats-time queries (one per [analyze]) into a single
   sweep per publication epoch instead of one per call.  The memo
   carries the pattern epoch so a publication through a cache sharing
   the same pattern store invalidates it too. *)
let bytes t =
  match t.bytes_memo with
  | Some (epoch, b) when epoch = t.pats.p_epoch -> b
  | _ ->
    let b =
      Obj.reachable_words (Obj.repr (t.exact, t.pats.p_symbolics))
      * (Sys.word_size / 8)
    in
    t.bytes_memo <- Some (t.pats.p_epoch, b);
    b

let exact_keys t =
  Smap.fold
    (fun hash entries acc ->
      List.fold_left (fun acc e -> (hash, e.e_sig) :: acc) acc entries)
    t.exact []
  |> List.sort compare

let symbolic_keys t =
  Smap.fold
    (fun hash entries acc ->
      List.rev_append (List.map (fun _ -> hash) entries) acc)
    t.pats.p_symbolics []
  |> List.sort compare

(* Shards: per-task private overlays.  A shard records its own
   publications in insertion order (the log) and indexes them for
   intra-task lookup.  Lookups are local-only — the caller decides how
   the frozen shared view composes with the shard, because the
   determinism contract distinguishes the two tiers. *)
module Shard = struct
  type 'a publication =
    | P_exact of { hash : string; signature : string; payload : 'a }
    | P_symbolic of { hash : string; s : Sparse.Slu.symbolic }

  type 'a t = {
    s_exact : (string, 'a exact_entry list) Hashtbl.t;
    s_symbolics : (string, Sparse.Slu.symbolic list) Hashtbl.t;
    mutable log : 'a publication list; (* newest first *)
  }

  let create () =
    { s_exact = Hashtbl.create 16;
      s_symbolics = Hashtbl.create 16;
      log = [] }

  let find_exact t ~hash ~signature =
    match Hashtbl.find_opt t.s_exact hash with
    | None -> None
    | Some entries ->
      List.find_map
        (fun e ->
          if String.equal e.e_sig signature then Some e.e_payload else None)
        entries

  let find_symbolic t ~hash =
    Option.value ~default:[] (Hashtbl.find_opt t.s_symbolics hash)

  let publish_exact t ~hash ~signature payload =
    let entries = Option.value ~default:[] (Hashtbl.find_opt t.s_exact hash) in
    if not (List.exists (fun e -> String.equal e.e_sig signature) entries)
    then begin
      Hashtbl.replace t.s_exact hash
        ({ e_sig = signature; e_payload = payload } :: entries);
      t.log <- P_exact { hash; signature; payload } :: t.log
    end

  let publish_symbolic t ~hash s =
    let entries =
      Option.value ~default:[] (Hashtbl.find_opt t.s_symbolics hash)
    in
    if not (List.exists (fun s' -> Sparse.Slu.same_analysis s' s) entries)
    then begin
      Hashtbl.replace t.s_symbolics hash (s :: entries);
      t.log <- P_symbolic { hash; s } :: t.log
    end

  let publications t = List.rev t.log
end

let absorb t shard =
  List.iter
    (function
      | Shard.P_exact { hash; signature; payload } ->
        ignore (publish_exact t ~hash ~signature payload)
      | Shard.P_symbolic { hash; s } -> ignore (publish_symbolic t ~hash s))
    (Shard.publications shard)
