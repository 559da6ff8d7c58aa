(* Seeded workload inputs: the designs behind each workload, a [.sta]
   writer built on the public [Sta] accessors, and the [serve] request
   stream of [eco_serve].  Every generator is a pure function of its
   seed, so one seed always yields byte-identical decks and streams. *)

(* [Sta.create] defaults.  The format's accessors do not expose vdd or
   the threshold, so every generated design keeps the defaults and the
   writer emits neither card. *)
let vdd = 5.

let threshold = 0.5

let rng ~seed tag = Random.State.make [| seed; Hashtbl.hash tag |]

let between st lo hi = lo +. Random.State.float st (hi -. lo)

(* Workload sizes (about 3.7k, 1.7k, 1.5k and 2.6k nets). *)
let grid_side = 60

let mesh_side = 40

let ladder_stages = 1500

let eco_side = 50

(* --- designs ------------------------------------------------------- *)

(* The [Sta.Synth.grid] shape — one 2-input gate per position, a short
   trunk with arms to the south and east sinks, wire values repeating
   along anti-diagonals (i.e. within topological waves) — with the
   cell and wire templates and the clock drawn from the seed. *)
let grid ~seed ~rows ~cols =
  let st = rng ~seed "grid" in
  let d = Sta.create () in
  let cells =
    Array.init 2 (fun k ->
        Sta.cell
          ~name:(Printf.sprintf "pb_g%d" k)
          ~drive_res:(between st 120. 220.)
          ~input_cap:(between st 5e-15 10e-15)
          ~intrinsic:(between st 20e-12 40e-12))
  in
  let trunk = Array.init 4 (fun _ -> (between st 70. 120., between st 3e-15 6e-15)) in
  let arm = Array.init 4 (fun _ -> (between st 100. 180., between st 2e-15 4e-15)) in
  let gate_name r c = Printf.sprintf "g%d_%d" r c in
  let net_name r c = Printf.sprintf "w%d_%d" r c in
  let pi_north c = Printf.sprintf "pn%d" c in
  let pi_west r = Printf.sprintf "pw%d" r in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      let north = if r = 0 then pi_north c else net_name (r - 1) c in
      let west = if c = 0 then pi_west r else net_name r (c - 1) in
      Sta.add_gate d ~inst:(gate_name r c)
        ~cell:cells.((r + c) mod 2)
        ~inputs:[ north; west ] ~output:(net_name r c)
    done
  done;
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      let k = (r + c) mod 4 in
      let tr, tc = trunk.(k) and ar, ac = arm.(k) in
      let sinks =
        (if r + 1 < rows then [ gate_name (r + 1) c ] else [])
        @ if c + 1 < cols then [ gate_name r (c + 1) ] else []
      in
      Sta.add_net d ~name:(net_name r c)
        ~segments:
          ({ Sta.seg_from = "drv"; seg_to = "t"; res = tr; cap = tc }
          :: List.map
               (fun s -> { Sta.seg_from = "t"; seg_to = s; res = ar; cap = ac })
               sinks)
    done
  done;
  let pi net sink =
    Sta.add_net d ~name:net
      ~segments:[ { Sta.seg_from = "drv"; seg_to = sink; res = 100.; cap = 5e-15 } ];
    Sta.add_primary_input d ~net ()
  in
  for c = 0 to cols - 1 do
    pi (pi_north c) (gate_name 0 c);
    Sta.add_primary_output d ~net:(net_name (rows - 1) c)
  done;
  for r = 0 to rows - 1 do
    pi (pi_west r) (gate_name r 0);
    if r < rows - 1 then Sta.add_primary_output d ~net:(net_name r (cols - 1))
  done;
  Sta.set_clock d ~period:(float_of_int (rows + cols) *. between st 40e-12 60e-12);
  d

(* [Sta.Synth.buffered_mesh] as is, plus a seeded clock so the signoff
   view has endpoints. *)
let mesh ~seed ~side =
  let d = Sta.Synth.buffered_mesh ~seed ~rows:side ~cols:side () in
  let st = rng ~seed "mesh" in
  Sta.set_clock d ~period:(float_of_int (2 * side) *. between st 50e-12 70e-12);
  d

(* The [Sta.Synth.rc_ladder] shape — a buffer chain, each stage driving
   a long uniform RC trunk (three trunk-length classes) that ends in a
   hub with capacitive side stubs and the arm to the next stage — with
   the per-class wire values, stubs, cell and clock drawn from the
   seed. *)
let ladder ~seed ~stages =
  let length = 40 and fanout = 4 in
  let st = rng ~seed "ladder" in
  let d = Sta.create () in
  let buf =
    Sta.cell ~name:"pb_buf" ~drive_res:(between st 90. 150.)
      ~input_cap:(between st 4e-15 8e-15) ~intrinsic:(between st 15e-12 25e-12)
  in
  let seg_val = Array.init 3 (fun _ -> (between st 35. 60., between st 2e-15 3.5e-15)) in
  let stub_val =
    Array.init (fanout - 1) (fun _ -> (between st 80. 130., between st 4e-15 7e-15))
  in
  let gate_name i = Printf.sprintf "rl%d" i in
  let net_name i = Printf.sprintf "ln%d" i in
  let trunk i sinks =
    let cls = i mod 3 in
    let len = length + cls in
    let res, cap = seg_val.(cls) in
    let node k = if k = 0 then "drv" else Printf.sprintf "t%d" k in
    let hub = node len in
    List.init len (fun k ->
        { Sta.seg_from = node k; seg_to = node (k + 1); res; cap })
    @ List.mapi
        (fun j (res, cap) ->
          { Sta.seg_from = hub; seg_to = Printf.sprintf "s%d" j; res; cap })
        (Array.to_list stub_val)
    @ List.map (fun s -> { Sta.seg_from = hub; seg_to = s; res = 70.; cap = 3e-15 }) sinks
  in
  for i = 0 to stages - 1 do
    let input = if i = 0 then "lin" else net_name (i - 1) in
    Sta.add_gate d ~inst:(gate_name i) ~cell:buf ~inputs:[ input ] ~output:(net_name i)
  done;
  Sta.add_net d ~name:"lin"
    ~segments:[ { Sta.seg_from = "drv"; seg_to = gate_name 0; res = 60.; cap = 4e-15 } ];
  Sta.add_primary_input d ~net:"lin" ();
  for i = 0 to stages - 1 do
    Sta.add_net d ~name:(net_name i)
      ~segments:(trunk i (if i + 1 < stages then [ gate_name (i + 1) ] else []))
  done;
  Sta.add_primary_output d ~net:(net_name (stages - 1));
  Sta.set_clock d ~period:(float_of_int stages *. between st 60e-12 90e-12);
  d

(* The side of a grid-shaped workload's design: the designs the [serve]
   request stream below can edit. *)
let serve_side = function
  | "grid_signoff" -> Some grid_side
  | "eco_serve" -> Some eco_side
  | _ -> None

(* The in-memory design of a workload, at full size or at a quarter of
   its nets ([quarter], for the traced growth ratio). *)
let design ?(quarter = false) workload ~seed =
  let half n = if quarter then n / 2 else n in
  match workload with
  | "grid_signoff" -> grid ~seed ~rows:(half grid_side) ~cols:(half grid_side)
  | "mesh_signoff" -> mesh ~seed ~side:(half mesh_side)
  | "ladder_signoff" ->
    ladder ~seed ~stages:(if quarter then ladder_stages / 4 else ladder_stages)
  | "eco_serve" -> grid ~seed ~rows:eco_side ~cols:eco_side
  | w -> invalid_arg ("unknown workload " ^ w)

(* --- the .sta writer ----------------------------------------------- *)

let num v = Printf.sprintf "%.17g" v

(* Cards in an order that parses back to an equivalent design: cells,
   gates in declaration order (sink order and tie-breaks follow it),
   nets, inputs, outputs in declaration order, constraints, clock.
   Floats print with 17 significant digits, which round-trips
   exactly. *)
let to_sta d =
  let b = Buffer.create (1 lsl 16) in
  let gates = Sta.gate_details d in
  let cells = Hashtbl.create 8 in
  List.iter
    (fun (_, (c : Sta.cell), _, _) ->
      match Hashtbl.find_opt cells c.cell_name with
      | None ->
        Hashtbl.replace cells c.cell_name c;
        Printf.bprintf b "cell %s %s %s %s\n" c.cell_name (num c.drive_res)
          (num c.input_cap) (num c.intrinsic)
      | Some c' when c' = c -> ()
      | Some _ -> invalid_arg ("to_sta: two cells named " ^ c.cell_name))
    gates;
  List.iter
    (fun (inst, (c : Sta.cell), inputs, output) ->
      Printf.bprintf b "gate %s %s %s %s\n" inst c.cell_name output
        (String.concat " " inputs))
    gates;
  List.iter
    (fun net ->
      match Sta.net_segments d net with
      | None -> ()
      | Some segs ->
        Printf.bprintf b "net %s %s\n" net
          (String.concat " ; "
             (List.map
                (fun (s : Sta.segment) ->
                  String.concat " " [ s.seg_from; s.seg_to; num s.res; num s.cap ])
                segs)))
    (Sta.net_names d);
  List.iter
    (fun net ->
      match Sta.primary_input d net with
      | None -> ()
      | Some (arrival, slew) ->
        Printf.bprintf b "input %s arrival=%s slew=%s\n" net (num arrival) (num slew))
    (Sta.primary_input_nets d);
  List.iter (Printf.bprintf b "output %s\n") (Sta.primary_output_nets d);
  List.iter
    (fun (net, t) -> Printf.bprintf b "constraint %s %s\n" net (num t))
    (Sta.constraints d);
  Option.iter (fun p -> Printf.bprintf b "clock %s\n" (num p)) (Sta.clock_period d);
  Buffer.contents b

(* --- the serve request stream --------------------------------------- *)

type request =
  | Write of string list  (** an edit burst; a [timing] request follows it *)
  | Read  (** [timing --slack --top-k 10] with nothing pending *)

let read_line = "timing --slack --top-k 10"

let write_line = "timing"

(* One block of the stream over a [side] x [side] grid: 20 bursts — 14
   bursts of 1-3 near-endpoint wire or drive edits (small cones), 4
   mid-design drive edits (cones of about a third of the design, which
   set the tail) and 2 constraint edits (backward pass only), in seeded
   order — with a read after every other burst.  A mid-design edit
   weakens its driver 1.5-2x, so the changed arrival and slew carry
   through the whole cone; a small change there often stops after a
   few nets, and then a run's p95 lands between the two populations
   and jumps by 5x from seed to seed.  Values are drawn around the
   loaded design's own, so the edited design stays near the original
   however many blocks run. *)
let eco_block d ~side ~seed ~block =
  let st = rng ~seed (Printf.sprintf "eco%d" block) in
  let pick lo hi = lo + Random.State.int st (hi - lo + 1) in
  let cells = Hashtbl.create 4096 in
  List.iter (fun (inst, (c : Sta.cell), _, _) -> Hashtbl.replace cells inst c) (Sta.gate_details d);
  let wire_edit r c =
    let net = Printf.sprintf "w%d_%d" r c in
    match Sta.net_segments d net with
    | None -> invalid_arg ("eco_block: no net " ^ net)
    | Some segs ->
      let i = Random.State.int st (List.length segs) in
      let s = List.nth segs i in
      if Random.State.bool st then
        Printf.sprintf "edit set_r %s %d %s" net i (num (s.res *. between st 0.7 1.4))
      else Printf.sprintf "edit set_c %s %d %s" net i (num (s.cap *. between st 0.7 1.4))
  in
  let drive_edit ?(lo = 0.8) ?(hi = 1.25) r c =
    let inst = Printf.sprintf "g%d_%d" r c in
    let cell = Hashtbl.find cells inst in
    Printf.sprintf "edit set_drive %s %s" inst (num (cell.drive_res *. between st lo hi))
  in
  let edit_at r c = if Random.State.int st 3 = 0 then drive_edit r c else wire_edit r c in
  (* cones of at most 3 x 10 positions, hugging one of the two output edges *)
  let near () =
    let deep = pick (side - 10) (side - 1) and shallow = pick (side - 3) (side - 1) in
    if Random.State.bool st then edit_at shallow deep else edit_at deep shallow
  in
  let mid () =
    let lo = side * 2 / 5 in
    drive_edit ~lo:1.5 ~hi:2. (pick lo (lo + 2)) (pick lo (lo + 2))
  in
  let period = Option.value (Sta.clock_period d) ~default:1e-9 in
  let constraint_edit () =
    let net =
      if Random.State.bool st then Printf.sprintf "w%d_%d" (side - 1) (pick 0 (side - 1))
      else Printf.sprintf "w%d_%d" (pick 0 (side - 2)) (side - 1)
    in
    Printf.sprintf "edit set_constraint %s %s" net (num (period *. between st 0.8 1.2))
  in
  let burst f = List.init (pick 1 3) (fun _ -> f ()) in
  let kinds = Array.init 20 (fun i -> if i < 14 then `Near else if i < 18 then `Mid else `Constraint) in
  for i = Array.length kinds - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = kinds.(i) in
    kinds.(i) <- kinds.(j);
    kinds.(j) <- t
  done;
  Array.to_list kinds
  |> List.mapi (fun i kind ->
         let w =
           Write
             (match kind with
             | `Near -> burst near
             | `Mid -> [ mid () ]
             | `Constraint -> [ constraint_edit () ])
         in
         if i mod 2 = 1 then [ w; Read ] else [ w ])
  |> List.concat
