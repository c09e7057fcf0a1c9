(** Quantum gate intermediate representation.

    Conventions (verified against the statevector simulator in the test
    suite):
    - [RX theta] = exp(-i theta X / 2), [RY]/[RZ] analogous;
    - [Cphase (c, t, theta)] is the ZZ-interaction
      exp(-i theta/2 Z(x)Z) = diag(e^{-i th/2}, e^{i th/2}, e^{i th/2},
      e^{-i th/2}) - the commuting two-qubit gate the paper calls CPHASE,
      decomposable as CNOT(c,t); RZ(t, theta); CNOT(c,t);
    - [Phase theta] = diag(1, e^{i theta}) (IBM u1);
    - [Barrier] is a scheduling fence across all qubits, not a gate. *)

type t =
  | H of int
  | X of int
  | Y of int
  | Z of int
  | Rx of int * float
  | Ry of int * float
  | Rz of int * float
  | Phase of int * float
  | Cnot of int * int  (** control, target *)
  | Cphase of int * int * float  (** control, target, angle *)
  | Swap of int * int
  | Barrier
  | Measure of int

val qubits : t -> int list
(** Qubits the gate acts on ([[]] for [Barrier]). *)

val is_two_qubit : t -> bool
(** True for [Cnot], [Cphase], [Swap]. *)

val is_unitary : t -> bool
(** False for [Barrier] and [Measure]. *)

val is_diagonal : t -> bool
(** Diagonal in the computational basis: [Z], [Rz], [Phase], [Cphase].
    Diagonal gates pairwise commute whatever qubits they share - the
    property behind every QAOA cost layer. *)

val is_x_axis : t -> bool
(** [X] or [Rx]: commutes through a CNOT's target. *)

val commutes : t -> t -> bool
(** The one commutation relation of the compiler (sound, not complete),
    a function of gate shape (constructor and qubits), never of angles.
    [commutes a b] holds iff the gates act on disjoint qubits, or both
    are unitary and

    - both are diagonal (Z, RZ, U1, CPHASE);
    - they are equal-axis gates on the same qubit (RX-RX, X-X, ...);
    - one is a CNOT and the other a diagonal gate on its control, or an
      X-axis gate on its target.

    [Measure] never commutes with a gate sharing its wire.  Everything
    else on overlapping qubits is ordered conservatively.  [Barrier]
    acts on no qubit, so it commutes with everything here: callers that
    treat it as a fence check for it themselves.
    {!Qaoa_analysis.Commute} builds the dependency DAG from it and
    {!Optimize} looks through it for merge partners. *)

val map_qubits : (int -> int) -> t -> t
(** Rename qubit indices. *)

val name : t -> string
(** Lower-case mnemonic ("h", "cx", "cphase", ...). *)

val equal : t -> t -> bool
(** Structural equality with exact float comparison on angles. *)

val pp : Format.formatter -> t -> unit
