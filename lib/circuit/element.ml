type node = int

let ground = 0

type waveform =
  | Dc of float
  | Step of { v0 : float; v1 : float }
  | Ramp of { v0 : float; v1 : float; t_delay : float; t_rise : float }
  | Pwl of (float * float) list

let eval wave t =
  match wave with
  | Dc v -> v
  | Step { v0; v1 } -> if t < 0. then v0 else v1
  | Ramp { v0; v1; t_delay; t_rise } ->
    if t <= t_delay then v0
    else if t >= t_delay +. t_rise then v1
    else v0 +. ((v1 -. v0) *. (t -. t_delay) /. t_rise)
  | Pwl [] -> 0.
  | Pwl ((t0, y0) :: _) when t <= t0 -> y0
  | Pwl points ->
    let rec go = function
      | [ (_, y) ] -> y
      | (t1, y1) :: ((t2, y2) :: _ as rest) ->
        if t <= t2 then y1 +. ((y2 -. y1) *. (t -. t1) /. (t2 -. t1))
        else go rest
      | [] -> assert false
    in
    go points

type canonical = {
  pre : float;
  v0 : float;
  slope0 : float;
  breaks : (float * float) list;
}

let validate_pwl points =
  let rec check = function
    | (t1, _) :: ((t2, _) :: _ as rest) ->
      if t2 <= t1 then
        invalid_arg "Element: PWL times must be strictly increasing";
      check rest
    | _ -> ()
  in
  check points

let canonicalize = function
  | Dc v -> { pre = v; v0 = v; slope0 = 0.; breaks = [] }
  | Step { v0; v1 } -> { pre = v0; v0 = v1; slope0 = 0.; breaks = [] }
  | Ramp { v0; v1; t_delay; t_rise } ->
    if t_rise <= 0. then
      invalid_arg "Element: ramp rise time must be positive";
    if t_delay < 0. then invalid_arg "Element: ramp delay must be >= 0";
    let r = (v1 -. v0) /. t_rise in
    if t_delay = 0. then
      { pre = v0; v0; slope0 = r; breaks = [ (t_rise, -.r) ] }
    else
      { pre = v0;
        v0;
        slope0 = 0.;
        breaks = [ (t_delay, r); (t_delay +. t_rise, -.r) ] }
  | Pwl points ->
    validate_pwl points;
    let value_at t = eval (Pwl points) t in
    let pre = value_at 0. in
    (* slope of each segment, as (start_time, slope) pairs, plus the
       trailing constant segment *)
    let segments =
      let rec go acc = function
        | (t1, y1) :: ((t2, y2) :: _ as rest) ->
          go ((t1, (y2 -. y1) /. (t2 -. t1)) :: acc) rest
        | [ (t_last, _) ] -> List.rev ((t_last, 0.) :: acc)
        | [] -> []
      in
      go [] points
    in
    (* slope at 0+ and subsequent slope changes at positive times *)
    let slope_at t =
      let rec go current = function
        | (ts, s) :: rest -> if ts <= t then go s rest else current
        | [] -> current
      in
      go 0. segments
    in
    let slope0 = slope_at 0. in
    let breaks =
      let rec go current acc = function
        | (ts, s) :: rest ->
          if ts <= 0. then go s acc rest
          else if s <> current then go s ((ts, s -. current) :: acc) rest
          else go current acc rest
        | [] -> List.rev acc
      in
      go slope0 [] segments
    in
    { pre; v0 = pre; slope0; breaks }

let eval_canonical c t =
  if t < 0. then c.pre
  else begin
    let v = ref (c.v0 +. (c.slope0 *. t)) in
    List.iter
      (fun (tk, dr) -> if t > tk then v := !v +. (dr *. (t -. tk)))
      c.breaks;
    !v
  end

type t =
  | Resistor of { name : string; np : node; nn : node; r : float }
  | Capacitor of {
      name : string;
      np : node;
      nn : node;
      c : float;
      ic : float option;
    }
  | Inductor of {
      name : string;
      np : node;
      nn : node;
      l : float;
      ic : float option;
    }
  | Vsource of { name : string; np : node; nn : node; wave : waveform }
  | Isource of { name : string; np : node; nn : node; wave : waveform }
  | Vcvs of {
      name : string;
      np : node;
      nn : node;
      cp : node;
      cn : node;
      gain : float;
    }
  | Vccs of {
      name : string;
      np : node;
      nn : node;
      cp : node;
      cn : node;
      gm : float;
    }
  | Ccvs of { name : string; np : node; nn : node; vctrl : string; r : float }
  | Cccs of {
      name : string;
      np : node;
      nn : node;
      vctrl : string;
      gain : float;
    }
  | Mutual of { name : string; l1 : string; l2 : string; k : float }

let name = function
  | Resistor { name; _ }
  | Capacitor { name; _ }
  | Inductor { name; _ }
  | Vsource { name; _ }
  | Isource { name; _ }
  | Vcvs { name; _ }
  | Vccs { name; _ }
  | Ccvs { name; _ }
  | Cccs { name; _ }
  | Mutual { name; _ } -> name

let nodes = function
  | Resistor { np; nn; _ }
  | Capacitor { np; nn; _ }
  | Inductor { np; nn; _ }
  | Vsource { np; nn; _ }
  | Isource { np; nn; _ }
  | Ccvs { np; nn; _ }
  | Cccs { np; nn; _ } -> [ np; nn ]
  | Vcvs { np; nn; cp; cn; _ } | Vccs { np; nn; cp; cn; _ } ->
    [ np; nn; cp; cn ]
  | Mutual _ -> []

let pp ppf e =
  match e with
  | Resistor { name; np; nn; r } ->
    Format.fprintf ppf "%s %d %d R=%.6g" name np nn r
  | Capacitor { name; np; nn; c; ic } ->
    Format.fprintf ppf "%s %d %d C=%.6g%s" name np nn c
      (match ic with None -> "" | Some v -> Printf.sprintf " ic=%.6g" v)
  | Inductor { name; np; nn; l; ic } ->
    Format.fprintf ppf "%s %d %d L=%.6g%s" name np nn l
      (match ic with None -> "" | Some v -> Printf.sprintf " ic=%.6g" v)
  | Vsource { name; np; nn; _ } -> Format.fprintf ppf "%s %d %d V" name np nn
  | Isource { name; np; nn; _ } -> Format.fprintf ppf "%s %d %d I" name np nn
  | Vcvs { name; np; nn; cp; cn; gain } ->
    Format.fprintf ppf "%s %d %d (%d,%d) E=%.6g" name np nn cp cn gain
  | Vccs { name; np; nn; cp; cn; gm } ->
    Format.fprintf ppf "%s %d %d (%d,%d) G=%.6g" name np nn cp cn gm
  | Ccvs { name; np; nn; vctrl; r } ->
    Format.fprintf ppf "%s %d %d i(%s) H=%.6g" name np nn vctrl r
  | Cccs { name; np; nn; vctrl; gain } ->
    Format.fprintf ppf "%s %d %d i(%s) F=%.6g" name np nn vctrl gain
  | Mutual { name; l1; l2; k } ->
    Format.fprintf ppf "%s %s %s K=%.6g" name l1 l2 k
