(** Arbitrary-precision natural numbers.

    Numbers are stored little-endian in base [2^30] with no trailing
    (most-significant) zero limbs; zero is the empty array. All
    functions return normalized values and never mutate their
    arguments. This module is the unsigned kernel used by {!Bigint},
    and owns the limb loops: schoolbook and Karatsuba products, Knuth's
    Algorithm D, and the fixed-width modular kernels below. Prefer
    {!Bigint} in application code. *)

type t

val base_bits : int
(** Number of bits per limb (30). *)

val zero : t
val one : t
val two : t

val is_zero : t -> bool
val equal : t -> t -> bool

val compare : t -> t -> int
(** Total order; [compare a b] is negative, zero or positive as [a] is
    less than, equal to or greater than [b]. *)

val of_int : int -> t
(** [of_int n] converts a non-negative native integer.
    @raise Invalid_argument if [n < 0]. *)

val to_int : t -> int option
(** [to_int n] is [Some i] when [n] fits in a native [int]. *)

val to_int_exn : t -> int
(** @raise Failure when the value does not fit in a native [int]. *)

val add : t -> t -> t

val sub : t -> t -> t
(** Truncated subtraction. @raise Invalid_argument if the result would
    be negative. *)

val mul : t -> t -> t
(** Product; schoolbook below a limb threshold, Karatsuba above. *)

val divmod : t -> t -> t * t
(** [divmod a b] is [(q, r)] with [a = q*b + r] and [0 <= r < b]
    (Knuth Algorithm D). @raise Division_by_zero if [b] is zero. *)

val mul_int : t -> int -> t
(** [mul_int a k] for [0 <= k < 2^30]. *)

val add_int : t -> int -> t
(** [add_int a k] for [0 <= k < 2^30]. *)

val divmod_int : t -> int -> t * int
(** Single-limb division: [divmod_int a k] for [0 < k < 2^30]. *)

(** {1 Fixed-width modular kernels}

    The operations under [Zmod.mul], [Zmod.pow] and [Zmod.inv]: each
    works on [k]-limb buffers, [k] the modulus's limb count, that it
    allocates for the call alone. None writes into its arguments' limbs
    or keeps state between calls, so threads may call them
    concurrently. Operands must be below the modulus: each raises
    [Invalid_argument] otherwise. *)

val mod_mul : t -> t -> t -> t
(** [mod_mul m a b] is [a * b mod m]: the schoolbook product reduced by
    the remainder steps of {!divmod}'s Algorithm D, in 2k + 1 limbs of
    scratch. @raise Division_by_zero if [m] is zero. *)

val mod_pow : on_mul:(unit -> unit) -> t -> t -> t -> t
(** [mod_pow ~on_mul m b e] is [b^e mod m] for odd [m], by left-to-right
    square-and-multiply from 1 in Montgomery form: CIOS products over
    30-bit limbs, with [-m^-1 mod 2^30] by Newton iteration. [b] and 1
    enter Montgomery form by one remainder each, and the result leaves
    it by one product with 1. [on_mul] is called before each squaring
    and each multiplication of the schedule, [num_bits e + popcount e]
    times in all. [e = 0] gives [1 mod m].
    @raise Invalid_argument if [m] is even. *)

val mod_inv : t -> t -> t option
(** [mod_inv m a] is [Some x] with [a * x = 1 mod m] for odd [m], or
    [None] when gcd(a, m) <> 1, by the binary extended gcd.
    [mod_inv one zero = Some zero].
    @raise Invalid_argument if [m] is even. *)

val shift_left : t -> int -> t
val shift_right : t -> int -> t

val num_bits : t -> int
(** Position of the highest set bit plus one; [num_bits zero = 0]. *)

val testbit : t -> int -> bool
(** [testbit n i] is bit [i] of [n] (bit 0 least significant). *)

val is_even : t -> bool

val of_string : string -> t
(** Parses a decimal literal, or hexadecimal with a ["0x"] prefix.
    Underscores are permitted as digit separators.
    @raise Invalid_argument on malformed input. *)

val to_string : t -> string
(** Decimal representation. *)

val to_hex : t -> string
(** Lowercase hexadecimal representation, no prefix. *)

val pp : Format.formatter -> t -> unit

val to_bytes_be : t -> string
(** Minimal big-endian byte string; [to_bytes_be zero = "\x00"]. *)

val of_bytes_be : string -> t
(** Inverse of {!to_bytes_be}; leading zero bytes are accepted. *)

val limbs : t -> int array
(** Defensive copy of the little-endian limb array (for hashing and
    size accounting). *)

val byte_size : t -> int
(** Number of bytes needed for a minimal big-endian encoding; used by
    the simulator's message-size model. [byte_size zero = 1]. *)
