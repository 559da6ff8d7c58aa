open Cx

type vec = Cx.t array

type t = Cx.t array array

exception Singular of int

let create r c = Array.make_matrix r c Cx.zero

let init r c f = Array.init r (fun i -> Array.init c (fun j -> f i j))

let identity n = init n n (fun i j -> if i = j then Cx.one else Cx.zero)

let of_real m = Array.map (Array.map Cx.re) m

let rows (m : t) = Array.length m

let cols (m : t) = if Array.length m = 0 then 0 else Array.length m.(0)

let mul_vec m x =
  if cols m <> Array.length x then
    invalid_arg "Cmatrix.mul_vec: dimension mismatch";
  Array.map
    (fun row ->
      let acc = ref Cx.zero in
      Array.iteri (fun j a -> acc := !acc +: (a *: x.(j))) row;
      !acc)
    m

let vec_of_real = Array.map Cx.re

let vec_approx_equal ?(tol = 1e-9) a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Cx.abs (x -: y) <= tol) a b

type factored = { lu : t; perm : int array }

let factor a =
  let n = rows a in
  if cols a <> n then invalid_arg "Cmatrix.factor: matrix not square";
  let lu = Array.map Array.copy a in
  let perm = Array.init n (fun idx -> idx) in
  for k = 0 to n - 1 do
    let piv = ref k in
    let best = ref (Cx.abs lu.(k).(k)) in
    for r = k + 1 to n - 1 do
      let v = Cx.abs lu.(r).(k) in
      if v > !best then begin
        best := v;
        piv := r
      end
    done;
    if !best = 0. then raise (Singular k);
    if !piv <> k then begin
      let tmp = lu.(k) in
      lu.(k) <- lu.(!piv);
      lu.(!piv) <- tmp;
      let t = perm.(k) in
      perm.(k) <- perm.(!piv);
      perm.(!piv) <- t
    end;
    let pivot = lu.(k).(k) in
    for r = k + 1 to n - 1 do
      let m = lu.(r).(k) /: pivot in
      lu.(r).(k) <- m;
      if m <> Cx.zero then
        for j = k + 1 to n - 1 do
          lu.(r).(j) <- lu.(r).(j) -: (m *: lu.(k).(j))
        done
    done
  done;
  { lu; perm }

let solve_factored f b =
  let n = Array.length f.perm in
  if Array.length b <> n then invalid_arg "Cmatrix.solve: dimension mismatch";
  let x = Array.init n (fun r -> b.(f.perm.(r))) in
  for r = 1 to n - 1 do
    let acc = ref x.(r) in
    for j = 0 to r - 1 do
      acc := !acc -: (f.lu.(r).(j) *: x.(j))
    done;
    x.(r) <- !acc
  done;
  for r = n - 1 downto 0 do
    let acc = ref x.(r) in
    for j = r + 1 to n - 1 do
      acc := !acc -: (f.lu.(r).(j) *: x.(j))
    done;
    x.(r) <- !acc /: f.lu.(r).(r)
  done;
  x

let solve a b = solve_factored (factor a) b

let solve_many a bs =
  let f = factor a in
  List.map (solve_factored f) bs

let pp ppf m =
  Format.fprintf ppf "@[<v>";
  Array.iter
    (fun r ->
      Format.fprintf ppf "[%a]@,"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
           Cx.pp)
        (Array.to_list r))
    m;
  Format.fprintf ppf "@]"
