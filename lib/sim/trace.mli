(** Message accounting and event tracing.

    The communication-complexity experiment (Table 1) is driven
    entirely by these counters: every point-to-point transmission is
    recorded with its byte size and a free-form [tag] (e.g.
    ["share"], ["commitments"], ["lambda_psi"]). A published message
    is [n − 1] unicasts, exactly as Theorem 11 assumes. The retained
    event list reproduces the Fig. 2 message sequence. *)

type event = {
  time : float;        (** Virtual send time. *)
  src : int;
  dst : int;
  tag : string;
  bytes : int;
}

type t

val create : ?keep_events:bool -> unit -> t
(** With [~keep_events:false] (the default for large sweeps) only the
    counters are maintained. *)

val record : t -> event -> unit
val messages : t -> int
val bytes : t -> int
val messages_by_tag : t -> (string * int) list
(** Tag, count — sorted by tag. *)

val bytes_by_tag : t -> (string * int) list
val events : t -> event list
(** Chronological (send order); empty unless [keep_events]. *)

val last_time : t -> float
(** Send time of the most recent recorded message (0 when none) —
    the protocol layer uses it as the effective completion time,
    excluding trailing no-op timer events. *)

val pp_summary : Format.formatter -> t -> unit
(** Per-tag table plus totals. *)

val pp_sequence : max_events:int -> Format.formatter -> t -> unit
(** Fig. 2-style arrow listing ["t=0.003 A2 -> A5 share (96 B)"]:
    one arrow per unicast, node [i] printed as [A(i+1)]. *)
