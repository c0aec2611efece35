(** Network-level fault policies.

    The paper assumes an obedient transport (Theorem 3), so the
    default policy is {!none}. Faults here model the {e environment}
    (crashed machines, lossy/slow/duplicating links) used by the
    resilience and chaos tests; {e strategic} misbehaviour is modelled
    at the agent level in [Dmw_core.Strategies], not by the network.

    A policy is a pure, serializable specification ({!t}). To apply
    one, {!instantiate} it with the run seed and ask {!decide} for a
    verdict on each transmission, as [Dmw_exec.apply_faults] does at
    every backend's send boundary. All random policies resolve their
    coins as pure functions of the run seed and the {e message
    identity} (source, destination, tag, per-message key, attempt
    number) — never of the order in which decisions are requested — so
    the same schedule replays bit-identically on the sim and socket
    backends, whose interleavings differ. *)

type t
(** A fault policy specification. Pure data: no generator state. *)

val none : t

val crash_at : node:int -> time:float -> t
(** Traffic from or to the node that is sent at or after [time] is
    lost at the send boundary; messages already in flight still
    arrive. Time-based, so only meaningful on the virtual-clock
    simulator; for a backend-portable crash use {!silence_from}. *)

val silence_from : node:int -> phase:int -> t
(** The node's outgoing messages are lost from protocol phase [phase]
    (one of the [phase_*] ranks below) onwards — a deterministic,
    backend-portable crash model keyed on what the node says rather
    than when it says it.
    @raise Invalid_argument on an unknown phase rank. *)

val drop_link : src:int -> dst:int -> t
(** All messages on the directed link are lost. *)

val drop_tagged : node:int -> tag:string -> t
(** The node's outgoing messages with [tag] are lost (models a machine
    that goes silent for one protocol step). *)

val drop_random : probability:float -> t
(** Each message is independently lost with [probability]. The coin is
    drawn from the run's master-seed convention at {!instantiate}
    time, not from an ad-hoc per-policy seed.
    @raise Invalid_argument if the probability is outside [[0, 1]]. *)

val delay_random : probability:float -> delay:float -> t
(** Each message is independently held back by an extra [delay]
    seconds with [probability].
    @raise Invalid_argument on a bad probability or negative delay. *)

val duplicate_random : probability:float -> t
(** Each message independently arrives twice with [probability] — an
    at-least-once link; receivers must deduplicate.
    @raise Invalid_argument if the probability is outside [[0, 1]]. *)

val all : t list -> t
(** Compose policies: a message is dropped if any component drops it,
    extra delays add, and duplicate copies accumulate. *)

val remap : t -> keep:int array -> t
(** Rewrite the node indices of a policy through a survivor mapping
    ([keep.(new_index) = original_index]), as produced by a
    re-auction's [Params.restrict]. Terms aimed at a node outside
    [keep] disappear — the environment they modelled left with the
    expelled node. Index-free random policies are unchanged. *)

(** {2 Protocol phases}

    Ranks for {!silence_from}, ordered by the protocol's causal
    structure: bidding (shares/commitments) < first resolution (Λ,Ψ) <
    disclosure (f rows) < second resolution (Λ̄,Ψ̄) < payment reports.
    Unknown tags rank with bidding, so silencing from
    {!phase_bidding} silences a node completely. *)

val phase_bidding : int
val phase_resolution : int
val phase_disclosure : int
val phase_second_resolution : int
val phase_payment : int

val phase_of_tag : string -> int
(** The phase rank of a wire tag (see [Dmw_core.Messages.tag]). *)

val phase_name : int -> string

val phase_of_name : string -> int option
(** Inverse of {!phase_name}; also accepts raw wire tags. *)

(** {2 Decisions} *)

type instance
(** A policy bound to a run seed. *)

type decision = {
  drop : bool;       (** Lose the message entirely. *)
  delay : float;     (** Extra seconds to hold it back. *)
  copies : int;      (** Extra deliveries beyond the first. *)
}

val instantiate : t -> seed:int -> instance

val decide :
  instance ->
  elapsed:float ->
  src:int ->
  dst:int ->
  tag:string ->
  key:int ->
  ?attempt:int ->
  unit ->
  decision
(** Verdict for one transmission. [elapsed] is time since the start of
    the run (virtual or wall-clock — only {!crash_at} reads it).
    [key] names the message within its [(src, dst, tag)] class — the
    harness uses the task index — so that coin flips are functions of
    message identity. [attempt] (default 0) distinguishes
    retransmissions of the same message, giving each attempt an
    independent coin. *)

val retransmits : t -> int
(** How many bounded retransmissions the harness should add per send
    under this policy: positive only when the policy contains
    independent random loss (deterministic drops lose every copy, and
    retransmitting against them is wasted traffic). *)

(** {2 Textual form}

    A specification is a comma-separated list of terms:
    [drop=P], [delay=P:SECONDS], [dup=P], [link=SRC-DST],
    [tag=NODE:TAG], [silence=NODE\@PHASE], [crash=NODE\@TIME], [none].
    Used by the CLI's [run --faults] and by the golden fault-trace
    vectors. *)

val to_string : t -> string
val of_string : string -> (t, string) result
val pp : Format.formatter -> t -> unit
