(** A DMW agent: the per-machine protocol state machine.

    One agent executes Phases II–IV for all [m] parallel auctions,
    driven by message deliveries from the simulator. The suggested
    strategy [χ_suggest] is the default behaviour; a {!Strategy.t}
    deviation tampers with exactly one class of computational action.

    Phase progression per auction:

    - {b Bidding}: sample the polynomial bundle for the own bid, send
      share bundles on the private channels, publish the commitment
      vectors; wait for everyone else's (Phase II.4 implicit barrier).
    - {b Resolving_first}: verify all received shares against the
      commitments (eqs. 7–9, Phase III.1), publish [(Λ, Ψ)] (III.2);
      once all pairs arrived, check them (eq. 11) and resolve the
      first price (eq. 12).
    - {b Identifying}: the selected agents disclose their [f]-share
      rows (III.3); everyone verifies (eq. 13) and identifies the
      winner (eq. 14, smallest pseudonym on ties). Missing disclosures
      are compensated: after a timeout the next agents in index order
      disclose ("any of the properly functioning agents can transmit
      their shares" — Theorem 8), enlarging the disclosure set one
      agent per round.
    - {b Resolving_second}: publish the winner-excluded [(Λ̄, Ψ̄)]
      (eq. 15), verify everyone's, resolve the second price (III.4).
    - {b Done}: when every auction is resolved, report the payment
      vector to the payment infrastructure (Phase IV).

    Any failed check makes the agent {e abort}: it stops participating
    and records the {!Audit.reason}; the other agents then stall,
    which the protocol layer reports as the aborted outcome with zero
    utilities — the situation the faithfulness proof (Theorem 4)
    assigns deviators. *)

open Dmw_bigint

type phase = Bidding | Resolving_first | Identifying | Resolving_second | Done_

type task_outcome = {
  winner : int;   (** Agent index of the auction winner. *)
  y_star : int;   (** First (lowest) price. *)
  y_star2 : int;  (** Second price — what the winner is paid. *)
}

type t

val create :
  ?batching:bool -> ?hardened:bool -> ?watchdog:float -> ?pipeline:int ->
  ?on_phase:(task:int -> phase -> task_outcome option -> unit) ->
  params:Params.t -> id:int -> bids:int array ->
  strategy:Strategy.t -> rng:Prng.t -> unit -> t
(** [bids.(j)] is the level this agent bids for task [j] (must satisfy
    {!Params.valid_bid}); a misreporting agent is created by passing a
    bid vector that differs from its true values. With
    [~batching:true] (default false), all messages one protocol step
    produces for the same destination travel in a single
    {!Messages.Batch} envelope — the ablation of the
    [batching_ablation] experiment. With [~hardened:true] (default
    false) disclosures carry the matching [h] shares and are verified
    {e per entry} — see {!Messages.F_disclosure_hardened}. All agents
    of a run must agree on these flags (they are protocol parameters
    in spirit; [Dmw_exec.run] sets them uniformly).

    [~watchdog:period] arms crash detection: from {!start} on, the
    agent fingerprints its protocol state every [period] seconds
    (virtual or real, per the transport). After several consecutive
    idle periods it makes one last attempt to finish every stuck
    auction from the material that arrived (partial resolution,
    Theorem 8 disclosure fallback) and, failing that, aborts with
    {!Audit.Peer_silent} naming the first peer whose expected message
    never came — or {!Audit.Deadline_exceeded} when no single silent
    peer explains the stall. The period must comfortably exceed the
    protocol's internal timeouts (50 ms) so built-in recovery exhausts
    first. Default off: runs then keep the legacy run-to-quiescence
    [Stalled] semantics.

    [~pipeline:depth] (clamped to [\[1, m\]], default [m]) bounds how
    many task auctions may be in flight at once. The [m] auctions are
    independent protocol instances, so the historical behavior —
    reproduced bit for bit by the default — deals and overlaps all of
    them from the start; [~pipeline:1] is strictly sequential (task
    [j+1]'s commit phase begins only once task [j] resolved), and
    intermediate depths slide a window over the task list: whenever an
    auction reaches [Done_], the admission scheduler releases the next
    unstarted one. Because each agent's final per-task state is a
    function of the delivered message set (confluence), every depth
    yields the same outcomes, payments and fault-free message counts;
    only completion latency changes. All agents of a run must agree on
    the depth.

    [~on_phase:f] installs a phase-machine observer: [f ~task ph out]
    fires on the agent's own execution context every time a task's
    phase cell changes — at admission (entering [Bidding]) and at each
    of the four later transitions, with [out] the settled outcome once
    the phase is [Done_]. The write-ahead log uses this to checkpoint
    task-auction progress; the observer sees only phase names and
    outcome values, never shares or polynomials. Default: no hook,
    zero overhead. *)

(** How an agent talks to the world. [Dmw_exec]'s backends build one
    each: from the discrete-event engine, or from a socket endpoint's
    event loop. All callbacks into the agent ({!handle} and scheduled
    actions) must be serialized per agent — the simulator is
    single-threaded, and the socket endpoint routes timer ticks
    through the agent's own event loop. *)
type transport = {
  send : dst:int -> tag:string -> bytes:int -> Messages.t -> unit;
  schedule : delay:float -> (unit -> unit) -> unit;
      (** Run an action after [delay] seconds (virtual or real). *)
}

val transport_of_engine : Messages.t Dmw_sim.Engine.t -> id:int -> transport

val id : t -> int
val strategy : t -> Strategy.t
val audit : t -> Audit.t
val aborted : t -> Audit.reason option
val phase_of : t -> task:int -> phase

val pipeline_depth : t -> int
(** The effective admission-window size (after clamping to [m]). *)

val outcome : t -> task:int -> task_outcome option

val outcomes : t -> task_outcome option array

val reported_payments : t -> float array option
(** The payment vector this agent submitted in Phase IV, if any. *)

val start : transport -> t -> unit
(** Execute Phase II; installs nothing — the driver routes deliveries
    to {!handle}. *)

val handle : transport -> t -> src:int -> Messages.t -> unit

val consensus : t array -> c:int -> Dmw_mechanism.Schedule.t option
(** The outcome the run as a whole produced: present iff at least
    [n − c] agents resolved every auction and all resolvers agree.
    Used by both the simulated driver ([Protocol]) and the concurrent
    one ([Dmw_runtime]). *)

val finalize_stall : t -> unit
(** Called by the protocol layer after the simulation quiesced: marks
    still-unfinished agents as stalled with the phase they were
    blocked in. *)
