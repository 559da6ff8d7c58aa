(** Dense complex matrices and vectors with LU solve.

    Complex linear systems arise in AWE when solving the Vandermonde
    residue equations (paper, eq. 20) with complex approximating poles.
    The systems are tiny (order q, typically <= 8), so a straightforward
    dense implementation with partial pivoting is appropriate. *)

type vec = Cx.t array

type t = Cx.t array array

exception Singular of int

val create : int -> int -> t
(** Zero matrix. *)

val init : int -> int -> (int -> int -> Cx.t) -> t

val identity : int -> t

val of_real : Matrix.t -> t

val rows : t -> int

val cols : t -> int

val mul_vec : t -> vec -> vec

val vec_of_real : Vec.t -> vec

val vec_approx_equal : ?tol:float -> vec -> vec -> bool

val solve : t -> vec -> vec
(** [solve a b] solves [a x = b] by LU with partial pivoting on
    magnitude.  Raises [Singular] on pivot breakdown.  [a] is not
    modified. *)

val solve_many : t -> vec list -> vec list
(** Factor once, solve several right-hand sides. *)

val pp : Format.formatter -> t -> unit
