(** Circuit elements and source waveforms.

    The element set is the paper's scope: linear R, L, C, independent
    voltage/current sources, and the four linear controlled sources
    (paper, Section I: "floating capacitors, grounded resistors,
    inductors, and even linear controlled sources").  Nodes are integer
    ids with [0] the ground node. *)

type node = int

val ground : node

type waveform =
  | Dc of float  (** constant for all time *)
  | Step of { v0 : float; v1 : float }
      (** value [v0] for [t < 0], [v1] for [t >= 0]: the ideal step at
          the time origin used throughout the paper's examples *)
  | Ramp of { v0 : float; v1 : float; t_delay : float; t_rise : float }
      (** [v0] until [t_delay], then linear to [v1] over [t_rise > 0],
          then constant — the paper's "step with finite rise time"
          (Section 4.3, Fig. 13) *)
  | Pwl of (float * float) list
      (** piecewise linear [(time, value)] with strictly increasing
          times; constant before the first and after the last point *)

val eval : waveform -> float -> float
(** Waveform value at a time [t]; for [Step], [t = 0.] evaluates to
    [v1]. *)

(** Canonical decomposition of a waveform for AWE: an initial jump at
    [t = 0] plus a train of slope changes.  Any response is then the
    superposition of one step-from-initial-conditions transient and one
    shifted, scaled unit-ramp transient per slope break (the paper's
    ramp superposition, eqs. 63-66, generalized to PWL). *)
type canonical = {
  pre : float;  (** value at [t = 0-], fixing initial conditions *)
  v0 : float;  (** value at [t = 0+] *)
  slope0 : float;  (** slope on [0+, first break) *)
  breaks : (float * float) list;
      (** [(t_k, dr_k)]: at time [t_k > 0] the slope changes by [dr_k];
          sorted by time *)
}

val canonicalize : waveform -> canonical
(** Raises [Invalid_argument] on malformed waveforms (non-increasing
    PWL times, non-positive rise time). *)

val eval_canonical : canonical -> float -> float
(** Reconstruct the waveform value from its canonical form (for
    [t >= 0]); used to cross-check the decomposition. *)

type t =
  | Resistor of { name : string; np : node; nn : node; r : float }
  | Capacitor of {
      name : string;
      np : node;
      nn : node;
      c : float;
      ic : float option;  (** initial voltage [v(np) - v(nn)] at 0- *)
    }
  | Inductor of {
      name : string;
      np : node;
      nn : node;
      l : float;
      ic : float option;  (** initial current [np -> nn] at 0- *)
    }
  | Vsource of { name : string; np : node; nn : node; wave : waveform }
  | Isource of { name : string; np : node; nn : node; wave : waveform }
      (** current of value [wave t] flowing [np -> nn] through the
          source *)
  | Vcvs of {
      name : string;
      np : node;
      nn : node;
      cp : node;
      cn : node;
      gain : float;
    }  (** E element: [v(np)-v(nn) = gain * (v(cp)-v(cn))] *)
  | Vccs of {
      name : string;
      np : node;
      nn : node;
      cp : node;
      cn : node;
      gm : float;
    }  (** G element: current [gm * (v(cp)-v(cn))] flows [np -> nn] *)
  | Ccvs of {
      name : string;
      np : node;
      nn : node;
      vctrl : string;
      r : float;
    }  (** H element: [v(np)-v(nn) = r * i(vctrl)] *)
  | Cccs of {
      name : string;
      np : node;
      nn : node;
      vctrl : string;
      gain : float;
    }  (** F element: current [gain * i(vctrl)] flows [np -> nn] *)
  | Mutual of { name : string; l1 : string; l2 : string; k : float }
      (** K element: mutual coupling between two named inductors with
          coefficient [0 < k < 1]; adds [M = k sqrt(L1 L2)] to the
          energy-storage matrix — the printed-circuit-board inductive
          coupling the paper's introduction motivates *)

val name : t -> string

val nodes : t -> node list
(** All nodes the element touches (including controlling nodes). *)

val pp : Format.formatter -> t -> unit
