(** Discrete-event message-passing simulator.

    Models the communication infrastructure the paper assumes (§3,
    Notation): a set of numbered nodes connected by private
    point-to-point channels. A published message is [n − 1] unicasts
    sent by the caller (the cost model of Theorem 11). Delivery is
    event-driven over a virtual clock with a pluggable latency model;
    execution is deterministic for a fixed seed.

    The engine models an obedient network: it never loses, delays
    beyond its latency model or duplicates a message. Faults enter at
    the harness's send boundary ([Dmw_exec.apply_faults]), the same on
    every backend.

    Nodes are registered with an [on_message] handler; a handler may
    send further messages, which are enqueued with their latency. The
    engine runs to quiescence — protocols that stall (e.g. because a
    deviating agent withheld a message) simply stop making progress,
    and the protocol layer inspects per-node state afterwards, which is
    how DMW's abort semantics are surfaced. *)

type 'a t

type 'a delivery = {
  now : float;       (** Virtual delivery time. *)
  src : int;
  tag : string;
  payload : 'a;
}

val create :
  ?seed:int ->
  ?latency:(src:int -> dst:int -> float) ->
  ?keep_events:bool ->
  ?event_budget:int ->
  ?bandwidth:float ->
  ?jitter:float ->
  nodes:int ->
  unit ->
  'a t
(** [latency] defaults to {!Latency.uniform} in [[1, 2) ms] on a salt
    of the seed (heterogeneous but stable per link, so message
    interleavings are interesting yet reproducible).
    [bandwidth] (bytes per virtual second) adds a serialization delay
    of [bytes / bandwidth] per message on top of the link latency;
    default infinite (latency-only model). [jitter] (fraction in
    [[0, 1)], default 0) scales each message's delay by a uniform
    factor in [[1 − j, 1 + j]] — nonzero jitter breaks per-link FIFO
    ordering, which protocols must tolerate. *)

val now : 'a t -> float
val trace : 'a t -> Trace.t

val on_message : 'a t -> node:int -> ('a t -> 'a delivery -> unit) -> unit
(** Install the handler for [node]; replaces any previous handler. *)

val send : 'a t -> src:int -> dst:int -> tag:string -> bytes:int -> 'a -> unit
(** Private point-to-point transmission. Self-sends are delivered
    (with latency 0) but not counted as network messages. *)

val at : 'a t -> time:float -> (unit -> unit) -> unit
(** Schedule an arbitrary action (used to kick off protocols). *)

val run : 'a t -> unit
(** Process events until quiescence.
    @raise Failure if the event count exceeds [event_budget]
    (default 10^8), which indicates a livelocked protocol. *)
