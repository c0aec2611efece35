(** Modular arithmetic over an explicit modulus.

    All functions take the modulus as their first argument and return
    canonical representatives in [[0, m)]. The modulus must be
    positive; functions raise [Invalid_argument] otherwise. Counters
    for multiplications and exponentiations can be enabled globally to
    support the computational-cost experiment (Table 1). *)

open Dmw_bigint

val normalize : Bigint.t -> Bigint.t -> Bigint.t
(** [normalize m a] is [a mod m] in [[0, m)]. *)

val add : Bigint.t -> Bigint.t -> Bigint.t -> Bigint.t
val sub : Bigint.t -> Bigint.t -> Bigint.t -> Bigint.t
val mul : Bigint.t -> Bigint.t -> Bigint.t -> Bigint.t
val neg : Bigint.t -> Bigint.t -> Bigint.t
val sqr : Bigint.t -> Bigint.t -> Bigint.t

val pow : Bigint.t -> Bigint.t -> Bigint.t -> Bigint.t
(** [pow m b e]: [b^e mod m] by binary square-and-multiply. Negative
    exponents use the modular inverse of [b] (requires gcd(b,m)=1). *)

val inv : Bigint.t -> Bigint.t -> Bigint.t
(** Modular inverse by extended Euclid.
    @raise Not_found when the element is not invertible. *)

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
  (** Modular multiplications/squarings performed since [reset]. *)

  val exponentiations : unit -> int
  (** Modular exponentiations performed since [reset]. *)
end
