type t = {
  n : int;
  adj : (int * int) list array; (* vertex -> (neighbor, label) *)
  mutable edges : int;
}

let create n =
  if n < 0 then invalid_arg "Graph.create: negative size";
  { n; adj = Array.make n []; edges = 0 }

let check_vertex g v =
  if v < 0 || v >= g.n then invalid_arg "Graph: vertex out of range"

let add_edge g a b ~label =
  check_vertex g a;
  check_vertex g b;
  g.adj.(a) <- (b, label) :: g.adj.(a);
  if a <> b then g.adj.(b) <- (a, label) :: g.adj.(b);
  g.edges <- g.edges + 1

let degree g v =
  check_vertex g v;
  List.length g.adj.(v)

type tree_edge = { parent : int; child : int; label : int }

let spanning_forest ?(roots = [ 0 ]) g =
  let forest = Array.make g.n None in
  let visited = Array.make g.n false in
  let queue = Queue.create () in
  let bfs_from root =
    if root < g.n && not visited.(root) then begin
      visited.(root) <- true;
      Queue.add root queue;
      while not (Queue.is_empty queue) do
        let v = Queue.pop queue in
        List.iter
          (fun (w, label) ->
            if not visited.(w) then begin
              visited.(w) <- true;
              forest.(w) <- Some { parent = v; child = w; label };
              Queue.add w queue
            end)
          (List.rev g.adj.(v))
      done
    end
  in
  List.iter bfs_from roots;
  for v = 0 to g.n - 1 do
    bfs_from v
  done;
  forest

let components g =
  let comp = Array.make g.n (-1) in
  let next = ref 0 in
  let queue = Queue.create () in
  for v = 0 to g.n - 1 do
    if comp.(v) < 0 then begin
      let id = !next in
      incr next;
      comp.(v) <- id;
      Queue.add v queue;
      while not (Queue.is_empty queue) do
        let u = Queue.pop queue in
        List.iter
          (fun (w, _) ->
            if comp.(w) < 0 then begin
              comp.(w) <- id;
              Queue.add w queue
            end)
          g.adj.(u)
      done
    end
  done;
  comp

let component_count g =
  let comp = components g in
  Array.fold_left (fun m c -> Stdlib.max m (c + 1)) 0 comp

let is_connected g = g.n <= 1 || component_count g = 1

let has_cycle g =
  (* a forest has exactly n - c edges; anything more closes a cycle *)
  g.edges > g.n - component_count g

let path_to_root forest v =
  let rec go v acc =
    match forest.(v) with
    | None -> List.rev acc
    | Some e -> go e.parent (e.label :: acc)
  in
  go v []
