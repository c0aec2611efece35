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
          wall-clock seconds for the run (socket). *)
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
    the trace. It must serialize all callbacks into each agent, and
    must not touch them after it returns: the harness reads the
    agents' state then. *)
module type BACKEND = sig
  type config

  val name : string

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
    included. Each run creates its own fabric and endpoint threads
    and, once the payment reports are drained, stops the endpoints,
    joins the threads and shuts the fabric before [run] reads any
    agent state; nothing outlives the run. [timeout] (default 30 s)
    bounds the wall-clock wait for payment reports — stalled runs (a
    deviation aborted someone) end then. Span times and fault timing
    count from the run's own start. The persistent [dmw_serve]
    service runs each of its epochs as one such run. *)

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

    [wal] journals the run into a write-ahead log: the deterministic
    run header (seed, fully serialized params, bids, knob settings,
    fault policy), each attempt's start, the phase checkpoints and task
    settlements observed on agent 0, and the final consensus outcome.
    See {!Dmw_wal} and {!resume}. *)

val check_options :
  batching:bool ->
  faults:Dmw_sim.Fault.t option ->
  retries:int ->
  pipeline:int option ->
  unit
(** The argument checks {!run} makes before it does anything else:
    raises [Invalid_argument] for negative [retries], a [pipeline]
    depth below 1, or [faults] with [batching]. Exposed so a caller
    can refuse a run before it opens the journal it would pass as
    [wal] ({!Dmw_wal.create} truncates the file). *)

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

val resume_records :
  ?keep_events:bool ->
  ?backend:backend ->
  ?wal:Dmw_wal.writer ->
  Dmw_wal.record list ->
  (recovery, string) Stdlib.result
(** Recover one interrupted {!run} from its journaled records, which
    must begin with its [Run_start] header; every [Run_start] among
    them must be that header. Params and fault policy are
    reconstructed and revalidated, and the whole run is re-executed
    deterministically from the journaled (seed, params, bids) —
    per-agent RNG streams span all of a run's tasks, so settled
    auctions cannot be skipped without desyncing the survivors.
    Instead every journaled [Task_done], of every attempt, is an
    obligation the re-run must reproduce {e exactly}, and so is any
    journaled [Run_end]; [Error] names the first that disagrees (a log
    from a different run, or a run under non-default strategies, which
    are deliberately not journaled). Attempt seeds are rederived from
    the header ([seed + 7919*(attempt-1)]), so re-auction chains
    replay identically.

    [wal], when given, receives a [Resumed] marker and then the
    re-run's own records, so a recovery that dies again can itself be
    recovered. The re-run's [Run_end] is appended only once every
    check has passed: a refused recovery journals no outcome, so each
    later attempt re-runs and refuses again. [backend] defaults to the simulator; cross-backend
    signature equality makes the choice outcome-invariant. *)

val resume :
  ?keep_events:bool ->
  ?backend:backend ->
  ?journal:bool ->
  string ->
  (recovery, string) Stdlib.result
(** [resume path] is {!resume_records} over the records of a one-shot
    run's journal at [path], read back with its torn tail tolerated.
    With [journal] (default true) the re-run is appended to the same
    file after its intact prefix. Emits the ["wal recovery"] span and
    bumps [dmw_wal_recoveries_total] once per successful recovery. *)

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
