type t = {
  nrows : int;
  ncols : int;
  row_ptr : int array; (* length nrows+1 *)
  col_idx : int array; (* length nnz, ascending within each row *)
  values : float array;
}

let rows m = m.nrows

let cols m = m.ncols

let nnz m = m.row_ptr.(m.nrows)

let of_entries ~nrows ~ncols entries =
  (* entries: (i, j, v) list; sum duplicates, drop zeros, sort columns *)
  let per_row = Array.make nrows [] in
  List.iter (fun (i, j, v) -> per_row.(i) <- (j, v) :: per_row.(i)) entries;
  let compact =
    Array.map
      (fun cells ->
        let sorted = List.sort (fun (a, _) (b, _) -> compare a b) cells in
        let rec merge = function
          | [] -> []
          | [ (j, v) ] -> if v = 0. then [] else [ (j, v) ]
          | (j1, v1) :: (j2, v2) :: rest when j1 = j2 ->
            merge ((j1, v1 +. v2) :: rest)
          | (j, v) :: rest ->
            if v = 0. then merge rest else (j, v) :: merge rest
        in
        merge sorted)
      per_row
  in
  let total = Array.fold_left (fun acc l -> acc + List.length l) 0 compact in
  let row_ptr = Array.make (nrows + 1) 0 in
  let col_idx = Array.make (Stdlib.max total 1) 0 in
  let values = Array.make (Stdlib.max total 1) 0. in
  let pos = ref 0 in
  Array.iteri
    (fun i cells ->
      row_ptr.(i) <- !pos;
      List.iter
        (fun (j, v) ->
          col_idx.(!pos) <- j;
          values.(!pos) <- v;
          incr pos)
        cells)
    compact;
  row_ptr.(nrows) <- !pos;
  { nrows; ncols; row_ptr; col_idx; values }

let of_coo coo =
  of_entries ~nrows:(Coo.rows coo) ~ncols:(Coo.cols coo) (Coo.entries coo)

let of_dense ?(drop_tol = 0.) d =
  let nrows = Linalg.Matrix.rows d and ncols = Linalg.Matrix.cols d in
  let entries = ref [] in
  for i = nrows - 1 downto 0 do
    for j = ncols - 1 downto 0 do
      let v = Linalg.Matrix.get d i j in
      if Float.abs v > drop_tol then entries := (i, j, v) :: !entries
    done
  done;
  of_entries ~nrows ~ncols !entries

let get m i j =
  if i < 0 || i >= m.nrows || j < 0 || j >= m.ncols then
    invalid_arg "Csr.get: index out of bounds";
  let lo = ref m.row_ptr.(i) and hi = ref (m.row_ptr.(i + 1) - 1) in
  let found = ref 0. in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let c = compare m.col_idx.(mid) j in
    if c = 0 then begin
      found := m.values.(mid);
      lo := !hi + 1
    end
    else if c < 0 then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let mul_vec m x =
  if Array.length x <> m.ncols then invalid_arg "Csr.mul_vec: dim mismatch";
  Array.init m.nrows (fun i ->
      let acc = ref 0. in
      for k = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
        acc := !acc +. (m.values.(k) *. x.(m.col_idx.(k)))
      done;
      !acc)

let mul_vec_transpose m x =
  if Array.length x <> m.nrows then
    invalid_arg "Csr.mul_vec_transpose: dim mismatch";
  let y = Array.make m.ncols 0. in
  for i = 0 to m.nrows - 1 do
    let xi = x.(i) in
    if xi <> 0. then
      for k = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
        y.(m.col_idx.(k)) <- y.(m.col_idx.(k)) +. (m.values.(k) *. xi)
      done
  done;
  y

let to_dense m =
  let d = Linalg.Matrix.create m.nrows m.ncols in
  for i = 0 to m.nrows - 1 do
    for k = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
      Linalg.Matrix.set d i m.col_idx.(k) m.values.(k)
    done
  done;
  d

let row_iter m i f =
  for k = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
    f m.col_idx.(k) m.values.(k)
  done

let pattern m = (m.row_ptr, m.col_idx)

let values m = m.values

let transpose m =
  let entries = ref [] in
  for i = m.nrows - 1 downto 0 do
    for k = m.row_ptr.(i + 1) - 1 downto m.row_ptr.(i) do
      entries := (m.col_idx.(k), i, m.values.(k)) :: !entries
    done
  done;
  of_entries ~nrows:m.ncols ~ncols:m.nrows !entries

let permute m ~rows ~cols =
  if Array.length rows <> m.nrows || Array.length cols <> m.ncols then
    invalid_arg "Csr.permute: permutation size mismatch";
  let inv_cols = Array.make m.ncols 0 in
  Array.iteri (fun pos j -> inv_cols.(j) <- pos) cols;
  let entries = ref [] in
  for pos = m.nrows - 1 downto 0 do
    let i = rows.(pos) in
    for k = m.row_ptr.(i + 1) - 1 downto m.row_ptr.(i) do
      entries := (pos, inv_cols.(m.col_idx.(k)), m.values.(k)) :: !entries
    done
  done;
  of_entries ~nrows:m.nrows ~ncols:m.ncols !entries
