(* In-memory spans and counts around the benchmark's calls into each
   layer's public functions.  Off by default; a traced run turns it on,
   keeps every span in memory and writes them out when the run ends. *)

type span = {
  id : int;
  parent : int;  (** enclosing span, or -1 *)
  name : string;
  req : int;  (** repetition or request id *)
  t0 : float;
  t1 : float;
}

type count = { c_span : int; c_name : string; c_req : int; value : float }

let on = ref false

let req = ref 0

let spans : span list ref = ref []

let counts : count list ref = ref []

let stack : int list ref = ref []

let next = ref 0

let now = Unix.gettimeofday

let current () = match !stack with p :: _ -> p | [] -> -1

let span name f =
  if not !on then f ()
  else begin
    let id = !next in
    incr next;
    let parent = current () in
    stack := id :: !stack;
    let t0 = now () in
    let close () =
      let t1 = now () in
      stack := List.tl !stack;
      spans := { id; parent; name; req = !req; t0; t1 } :: !spans
    in
    match f () with
    | v ->
      close ();
      v
    | exception e ->
      close ();
      raise e
  end

let count name value =
  if !on then counts := { c_span = current (); c_name = name; c_req = !req; value } :: !counts

let dur s = s.t1 -. s.t0

let durations name =
  List.filter_map (fun s -> if s.name = name then Some (dur s) else None) !spans

let total name = List.fold_left ( +. ) 0. (durations name)

(* Self time of each span: its duration less the part its children
   cover (children nest strictly inside their parent). *)
let self_times () =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (dur s +. Option.value (Hashtbl.find_opt child s.parent) ~default:0.))
    !spans;
  List.map
    (fun s -> (s, dur s -. Option.value (Hashtbl.find_opt child s.id) ~default:0.))
    !spans

(* Per span name: calls, total seconds, self seconds — in first-seen
   order. *)
let table () =
  let rows = Hashtbl.create 64 and order = ref [] in
  List.iter
    (fun (s, self) ->
      match Hashtbl.find_opt rows s.name with
      | None ->
        order := s.name :: !order;
        Hashtbl.replace rows s.name (1, dur s, self)
      | Some (n, t, st) -> Hashtbl.replace rows s.name (n + 1, t +. dur s, st +. self))
    (List.rev (self_times ()));
  List.rev_map (fun name -> (name, Hashtbl.find rows name)) !order

let pp_table ppf () =
  Format.fprintf ppf "%-28s %8s %12s %12s %12s@." "span" "calls" "total ms" "self ms"
    "self us/call";
  List.iter
    (fun (name, (n, t, st)) ->
      Format.fprintf ppf "%-28s %8d %12.3f %12.3f %12.3f@." name n (t *. 1e3) (st *. 1e3)
        (st *. 1e6 /. float_of_int n))
    (table ())

let write path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let base = List.fold_left (fun m s -> Float.min m s.t0) infinity !spans in
      output_string oc "{\"spans\":[";
      List.iteri
        (fun i s ->
          Printf.fprintf oc "%s\n{\"id\":%d,\"parent\":%d,\"name\":%S,\"req\":%d,\"start_us\":%.3f,\"end_us\":%.3f}"
            (if i = 0 then "" else ",")
            s.id s.parent s.name s.req ((s.t0 -. base) *. 1e6) ((s.t1 -. base) *. 1e6))
        (List.rev !spans);
      output_string oc "],\n\"counts\":[";
      List.iteri
        (fun i c ->
          Printf.fprintf oc "%s\n{\"span\":%d,\"name\":%S,\"req\":%d,\"value\":%.17g}"
            (if i = 0 then "" else ",")
            c.c_span c.c_name c.c_req c.value)
        (List.rev !counts);
      output_string oc "]}\n")
