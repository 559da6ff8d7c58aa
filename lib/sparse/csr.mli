(** Compressed sparse row matrices.

    The workhorse format for the moment recursion's repeated
    [C * vector] products: rows are contiguous, duplicates from the
    stamping phase are summed, and structural zeros are dropped. *)

type t

val of_coo : Coo.t -> t
(** Convert, summing duplicates and dropping exact zeros. *)

val of_dense : ?drop_tol:float -> Linalg.Matrix.t -> t
(** Entries of magnitude [<= drop_tol] (default [0.]) are dropped. *)

val rows : t -> int

val cols : t -> int

val nnz : t -> int

val get : t -> int -> int -> float
(** [get m i j] is the stored value or [0.]; O(log nnz(row)). *)

val mul_vec : t -> Linalg.Vec.t -> Linalg.Vec.t

val mul_vec_transpose : t -> Linalg.Vec.t -> Linalg.Vec.t

val to_dense : t -> Linalg.Matrix.t

val row_iter : t -> int -> (int -> float -> unit) -> unit
(** [row_iter m i f] applies [f j v] to every stored entry of row [i],
    in ascending column order. *)

val pattern : t -> int array * int array
(** [(row_ptr, col_idx)] of the stored pattern: entry positions of row
    [i] are [row_ptr.(i) .. row_ptr.(i+1) - 1], with ascending column
    indices in [col_idx].  The arrays are the matrix's own backing
    store — callers must treat them as read-only. *)

val values : t -> float array
(** The stored entry values, indexed by the entry positions of
    {!pattern}.  The matrix's own backing store — read-only. *)

val transpose : t -> t

val permute : t -> rows:int array -> cols:int array -> t
(** [permute m ~rows ~cols] is the matrix [p] with
    [p(i,j) = m(rows.(i), cols.(j))]; both index arrays must be
    permutations of [0 .. n-1]. *)
