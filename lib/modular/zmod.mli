(** Modular arithmetic over an explicit modulus.

    All functions take the modulus as their first argument and return
    canonical representatives in [[0, m)]. The modulus must be
    positive; functions raise [Invalid_argument] otherwise. Operands may
    be any integers; canonical ones cost least. Counters for
    multiplications and exponentiations can be enabled globally to
    support the computational-cost experiment (Table 1).

    [mul], [pow] and [inv] run on {!Nat}'s fixed-width kernels
    ({!Nat.mod_mul}, {!Nat.mod_pow}, {!Nat.mod_inv}); values stay
    [Bigint.t] on both sides of the call. *)

open Dmw_bigint

val normalize : Bigint.t -> Bigint.t -> Bigint.t
(** [normalize m a] is [a mod m] in [[0, m)]. A value within one
    modulus of that range, as a sum or difference of canonical operands
    is, takes one addition or subtraction instead of a division; a
    canonical [a] is returned as it is. *)

val add : Bigint.t -> Bigint.t -> Bigint.t -> Bigint.t
val sub : Bigint.t -> Bigint.t -> Bigint.t -> Bigint.t
val mul : Bigint.t -> Bigint.t -> Bigint.t -> Bigint.t
val neg : Bigint.t -> Bigint.t -> Bigint.t
val sqr : Bigint.t -> Bigint.t -> Bigint.t

val pow : Bigint.t -> Bigint.t -> Bigint.t -> Bigint.t
(** [pow m b e]: [b^e mod m] for an odd modulus [m], by left-to-right
    binary square-and-multiply in Montgomery form. Negative exponents
    use the modular inverse of [b] (requires gcd(b,m)=1, else
    [Not_found]). Every caller's modulus is odd: the group prime [p]
    and Miller-Rabin's odd candidates.
    @raise Invalid_argument if [m] is even. *)

val inv : Bigint.t -> Bigint.t -> Bigint.t
(** Modular inverse: the binary extended gcd for an odd modulus, and
    extended Euclid ({!egcd}) for an even one.
    @raise Not_found when gcd(a, m) <> 1. *)

val div : Bigint.t -> Bigint.t -> Bigint.t -> Bigint.t
(** [div m a b = a * inv b mod m]. @raise Not_found as {!inv}. *)

val egcd : Bigint.t -> Bigint.t -> Bigint.t * Bigint.t * Bigint.t
(** [egcd a b = (g, x, y)] with [a*x + b*y = g = gcd(a,b)], [g >= 0]. *)

val gcd : Bigint.t -> Bigint.t -> Bigint.t

(** Operation counters, used by the Table 1 computational-cost bench.
    Counting is off by default and adds negligible overhead. *)
module Counters : sig
  val enable : unit -> unit
  val disable : unit -> unit
  val reset : unit -> unit

  val multiplications : unit -> int
  (** Modular multiplications and squarings since [reset]: one per
      {!mul} or {!sqr} call (so one per {!div}), and one per squaring
      and per multiplication of each {!pow}'s schedule —
      [num_bits e + popcount e] for exponent [e]. A [pow]'s conversions
      into and out of Montgomery form are not counted. *)

  val exponentiations : unit -> int
  (** Calls to {!pow} since [reset]; a negative exponent counts once. *)
end
