(** The unified execution harness for the DMW mechanism.

    Both ways of running the protocol — discrete-event simulation and
    socket endpoints — share the same surrounding machinery: agent
    construction from [Params] + bids + strategies under the common
    master-RNG seeding convention, payment collection through
    {!Dmw_core.Payment_infra}, consensus and price extraction,
    per-agent statuses, and one {!result} type. A backend
    only supplies the message fabric ({!BACKEND}); everything
    mechanism-level lives here, once.

    Determinism: all agent randomness comes from per-agent PRNGs split
    off one master seeded with [seed lxor 0xA6E77], in agent order, and
    the protocol's state machine is confluent under reordering — so
    the same seed yields bit-identical schedules, prices and payments
    on every backend, regardless of real-time interleaving. *)

open Dmw_core

type agent_status = {
  agent : int;
  strategy : Strategy.t;
  aborted : Audit.reason option;
  outcomes : Agent.task_outcome option array;
  checks_performed : int;
}

type result = {
  params : Params.t;
  backend : string;  (** Name of the backend that produced this run. *)
  pipeline : int;
      (** Effective pipeline depth of the run: how many task auctions
          were allowed in flight at once (see [run]'s [?pipeline]);
          [params.m] for the default full-overlap execution. *)
  schedule : Dmw_mechanism.Schedule.t option;
      (** Present iff every non-deviating agent resolved every auction
          and they all agree. *)
  first_prices : int array option;  (** [y*_j] per task. *)
  second_prices : int array option; (** [y**_j] per task. *)
  payments : float option array;
      (** What the payment infrastructure issued, per agent. *)
  statuses : agent_status array;
  trace : Dmw_sim.Trace.t;
      (** Message accounting; every backend records real sends. For a
          re-auctioned run, the final attempt's trace. *)
  duration : float;
      (** Virtual seconds until the last protocol message (sim), or
          wall-clock seconds for the run (socket, epoch). *)
  attempts : int;
      (** Number of protocol executions: 1, plus one per re-auction
          after an environmental abort (see [run]'s [?retries]). *)
  excluded : int array;
      (** Agents excluded by re-auctioning (original indices,
          ascending); empty unless [attempts > 1]. Their payments are
          withheld and their statuses are those of the attempt that
          expelled them. *)
}

type info = { trace : Dmw_sim.Trace.t; duration : float }
(** What a backend hands back to the harness. *)

type fault_plan = { faults : Dmw_sim.Fault.instance; retries : int }
(** An instantiated fault policy plus the bounded number of
    retransmissions the send wrapper adds per message
    ({!Dmw_sim.Fault.retransmits}). *)

val apply_faults :
  fault_plan ->
  now:(unit -> float) ->
  src:int ->
  Dmw_core.Agent.transport ->
  Dmw_core.Agent.transport
(** Interpose the fault policy at a transport's send boundary: every
    send consults {!Dmw_sim.Fault.decide} with the message identity
    (source, destination, tag, task, attempt number) for the original
    transmission and each retransmission; drops are silent, delays and
    duplicate copies reschedule delivery through the transport's own
    timer. Exposed so every backend — and any future one — injects the
    identical policy. *)

(** A message fabric. [execute] runs Phases II–IV of the prepared
    [agents] to completion (or to its own notion of a deadline),
    forwarding every Phase IV payment report to [report], and returns
    the trace. It must serialize all callbacks into each agent.

    [instance] is the {!Dmw_core.Messages.Scoped} instance the harness
    gives every agent of a run on this backend ({!Dmw_core.Agent.create}'s
    [?instance]): [None] for {!sim} and {!socket}, whose agents keep
    the bare wire format; [Some e] for an {!epoch} of a
    session. *)
module type BACKEND = sig
  type config

  val name : string

  val instance : config -> int option

  val execute :
    config ->
    params:Params.t ->
    seed:int ->
    keep_events:bool ->
    faults:fault_plan option ->
    agents:Agent.t array ->
    report:(src:int -> float array -> unit) ->
    info
end

type backend = Backend : (module BACKEND with type config = 'c) * 'c -> backend

val sim :
  ?latency:Dmw_sim.Latency.t ->
  ?bandwidth:float ->
  ?jitter:float ->
  unit ->
  backend
(** The discrete-event simulator ({!Dmw_sim.Engine}): deterministic
    virtual time with pluggable latency, bandwidth and jitter. Faults
    come from [run]'s [?faults], as on every backend. The default
    backend. *)

val socket :
  ?timeout:float ->
  unit ->
  backend
(** One thread per agent, each an endpoint exchanging Codec-encoded
    frames over Unix-domain sockets through a routing fabric
    ({!Dmw_net.Fabric}) — the full wire path, kernel boundary
    included. Each run opens a {!session}, runs one unscoped epoch on
    it and closes it. [timeout] (default 30 s) bounds the wall-clock
    wait for payment reports — stalled runs (a deviation aborted
    someone) end then. Span times and fault timing count from the
    run's own start. *)

(** {2 Socket sessions}

    A session keeps the socket machinery of {!socket} alive across
    runs: one {!Dmw_net.Fabric} with [agents + 1] endpoints (the last
    is the payment infrastructure) and one worker thread per agent
    endpoint, each running one {!Dmw_net.Endpoint.run_session} per
    epoch over the same connection. An epoch deals the run's agents to
    the workers, drains the epoch's payment reports from the
    infrastructure endpoint, then sends the
    {!Dmw_net.Fabric.broadcast_epoch} barrier and waits until every
    worker's endpoint session has returned. The persistent [dmw_serve]
    service holds one session for its whole life and runs each wave as
    one {!run} on an {!epoch} backend. *)

type session

val session : agents:int -> session
(** Open a session for runs of [agents] agents. Its clock starts now:
    span times and fault timing of every epoch count from here. *)

val epoch : session -> epoch:int -> timeout:float -> backend
(** The backend named ["serve"] that runs one epoch on the session.
    Its agents are scoped to instance [epoch] (non-negative), so
    frames of an earlier epoch still buffered on a connection are
    dropped; one-shot runs stay unscoped and keep their wire bytes.
    [timeout] bounds the payment collection and, per worker, the wait
    at the barrier. Epochs of one session must not overlap, and each
    run on it must have exactly [agents] agents — a re-auction among
    fewer survivors raises [Invalid_argument]. *)

val close_session : session -> unit
(** Stop every endpoint, join the workers and close the fabric. Call
    once, after the last epoch has returned. *)

val backend_name : backend -> string

val run :
  ?strategies:(int -> Strategy.t) ->
  ?seed:int ->
  ?keep_events:bool ->
  ?batching:bool ->
  ?hardened:bool ->
  ?faults:Dmw_sim.Fault.t ->
  ?watchdog:float ->
  ?retries:int ->
  ?pipeline:int ->
  ?wal:Dmw_wal.writer ->
  ?backend:backend ->
  Params.t ->
  bids:int array array ->
  result
(** [bids.(i).(j)] is agent [i]'s bid level for task [j] (each in the
    published set [W]). [strategies] defaults to everyone following
    [χ_suggest]. [batching] (default false) packs all messages a
    protocol step emits for one destination into a single
    {!Dmw_core.Messages.Batch} envelope. [hardened] (default false)
    switches Phase III.3 to per-entry-verified disclosures. Both flags
    apply uniformly to all agents on every backend. [backend] defaults
    to [sim ()].

    [faults] declares an adverse environment: the policy is
    instantiated from the run seed ([seed lxor 0xFA17]) and injected
    at every backend's send boundary through {!apply_faults}, so the
    same seed and policy lose, delay and duplicate the {e same}
    messages on sim and socket. Declaring faults also arms each
    agent's crash-detection watchdog ([watchdog] overrides the 0.25 s
    default period), so a run that can no longer progress ends in a
    clean audited abort ({!Dmw_core.Audit.Peer_silent} /
    [Deadline_exceeded]) rather than a hang. The fault layer would see
    only a batch envelope, not the messages inside it, so [faults]
    with [~batching:true] raises [Invalid_argument].

    [pipeline] bounds how many of the [m] independent task auctions may
    be in flight per agent at once (clamped to [\[1, m\]]). The default
    is [m]: all auctions overlap from the start — the historical
    behavior, bit for bit. [~pipeline:1] runs the tasks strictly
    sequentially; intermediate depths slide an admission window over
    the task list. Outcomes, payments and fault-free message/byte
    counters are depth-invariant (the per-task state machines are
    confluent and depth only changes {e when} each message is sent);
    completion latency is what varies — visible in [duration] under a
    sim latency model, and in the obs span tree as overlapping (or, at
    depth 1, disjoint) task-auction spans.

    [retries] (default 0) allows re-auctioning: when an attempt ends
    with only environmental aborts and a quorum of agents survives the
    silent peers named by the watchdog verdicts, the auction reruns
    among the survivors (fresh polynomials, attempt-salted seed,
    [Params.restrict]ed parameters) up to [retries] times. The result
    is expressed in the original agent numbering with the expelled
    agents listed in [excluded].

    [wal] journals the run into a write-ahead audit log: the
    deterministic run header (seed, fully serialized params, bids,
    knob settings, fault policy), per-attempt phase checkpoints and
    task settlements observed on agent 0, every failed audit check and
    abort, and the final consensus outcome. See {!Dmw_wal} and
    {!resume}. *)

type recovery = {
  result : result;
      (** The outcome of the resumed run — bit-identical to what an
          uninterrupted run would have produced, including message
          accounting (recovery is full re-execution). *)
  kept : int;
      (** Task settlements the interrupted process had journaled; each
          was verified against the re-run before being trusted. *)
  attempts_started : int;
      (** Protocol attempts the interrupted run had begun. *)
}

val resume :
  ?keep_events:bool ->
  ?backend:backend ->
  ?journal:bool ->
  string ->
  (recovery, string) Stdlib.result
(** [resume path] recovers an interrupted {!run} from its write-ahead
    log: the header journaled by [?wal] is read back (tolerating a torn
    tail), params and fault policy are reconstructed and revalidated,
    and the whole run is re-executed deterministically from the
    journaled (seed, params, bids) — per-agent RNG streams span all of
    a run's tasks, so settled auctions cannot be skipped without
    desyncing the survivors; instead the journaled settlements become
    obligations the re-run must reproduce {e exactly}, and resume
    refuses with [Error] when any journaled value disagrees (a log from
    a different run, or a run under non-default strategies, which are
    deliberately not journaled). Epoch/attempt seeds are rederived from
    the header ([seed + 7919*(attempt-1)]), so re-auction chains replay
    identically.

    With [journal] (default true) the re-run appends a fresh
    [Resumed]-delimited segment to the same file — so a resumed process
    that dies again can itself be resumed. [backend] defaults to the
    simulator; cross-backend signature equality makes the choice
    outcome-invariant. *)

val completed : result -> bool
(** True when a consensus schedule and full payments exist. *)

val utility : result -> true_levels:int array array -> agent:int -> float
(** Realized utility [U_i = P_i + V_i] (Def. 2 / Def. 6): issued
    payment minus the true total processing time of the tasks the
    schedule assigns to [i]. Zero when the protocol did not complete
    (no allocation happens, no payment flows) or the agent's payment
    was withheld while nothing was assigned to it. *)

val utilities : result -> true_levels:int array array -> float array

val pp_summary : Format.formatter -> result -> unit
