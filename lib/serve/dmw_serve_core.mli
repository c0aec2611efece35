(** The persistent auction service behind the [dmw_serve] daemon.

    Jobs (one task each, with its full bid vector) arrive through a
    bounded submission queue, and the epoch dispatcher batches up to
    [max_wave] of them into a {e wave}: a single [m]-task protocol
    run. Epoch [e] is one {!Dmw_exec.run} on
    [Dmw_exec.socket ~timeout:epoch_timeout ()], the one-shot socket
    harness at the epoch seed: it opens a fabric with [n] agent
    endpoints and their threads, collects the payment reports, and
    stops and closes all of it before the epoch's results are
    published — so nothing of one wave can reach the next, and the
    service holds no endpoint between waves. This module keeps only
    the job queue, wave batching, the front door, the [dmw_serve_*]
    metrics and the journal.

    Concurrency shape: one dispatcher thread that collects waves, runs
    each one (with the run's [n] endpoint threads while it lasts), and
    publishes per-job results. Client-facing threads only touch
    {!submit}, {!await} and {!stats}, all of which are thread-safe. *)

(** {1 Configuration} *)

type config = private {
  n : int;  (** Number of agent endpoints (machines). *)
  c : int;  (** Fault bound carried by every wave. *)
  group_bits : int;
  seed : int;
      (** Base seed. Epoch [e] is [Dmw_exec.run ~seed:(seed + 7919 *
          (e - 1))] over its wave, so the first wave of a service
          seeded with [s] reproduces [Dmw_exec.run ~seed:s] bit for
          bit given the same jobs. *)
  w_max : int option;  (** Bid-range override, as in {!Dmw_core.Params.make}. *)
  pipeline : int option;
      (** Admission-window depth within each wave
          ({!Dmw_exec.run}'s [pipeline]). *)
  max_wave : int;  (** Most jobs batched into one epoch. *)
  queue_capacity : int;  (** Submission-queue bound; beyond it, [`Busy]. *)
  wave_window : float;
      (** Seconds the dispatcher lingers after the first job of a wave
          so closely-spaced submissions share an epoch. [0.] takes
          whatever is already queued. *)
  epoch_timeout : float;  (** Per-epoch payment-collection deadline. *)
}

val config :
  ?group_bits:int -> ?seed:int -> ?w_max:int -> ?pipeline:int ->
  ?max_wave:int -> ?queue_capacity:int -> ?wave_window:float ->
  ?epoch_timeout:float -> n:int -> c:int -> unit -> config
(** Defaults: [group_bits = 64], [seed = 0], [max_wave = 8],
    [queue_capacity = 64], [wave_window = 0.], [epoch_timeout = 30.],
    and [w_max]/[pipeline] left to the protocol's own defaults.
    Raises [Invalid_argument] on out-of-range values; the [(n, c)]
    population itself is validated by {!create}. *)

(** {1 Service lifecycle} *)

type t

val create :
  ?paused:bool ->
  ?wal:Dmw_wal.writer ->
  ?epoch_base:int ->
  ?job_base:int ->
  config ->
  t
(** Start the dispatcher. [paused] (default [false]) holds the
    dispatcher back until {!resume} — how tests submit a full wave
    deterministically before any epoch starts. Raises [Invalid_argument] when the
    population parameters do not validate.

    [wal] journals the service into a write-ahead audit log: a
    [Serve_start] header at creation, every accepted submission with
    its bid vector, and each epoch's dispatch and per-job settlements —
    enough for {!recover} to replay any interrupted wave
    deterministically. The writer serializes concurrent appends; the
    caller keeps ownership (close it after {!shutdown}).

    [epoch_base] / [job_base] (default [0]) start the epoch counter and
    job-id allocator above values already consumed — how a service
    restarted after {!recover} continues the same epoch-seed chain and
    id space instead of colliding with journaled history. *)

val resume : t -> unit
(** Release a [create ~paused:true] dispatcher. Idempotent. *)

val shutdown : t -> unit
(** Drain: stop accepting jobs, run every queued job to completion
    and join the dispatcher. Blocks until done; {!await} callers still
    waiting afterwards receive [None]. *)

(** {1 Jobs} *)

type job_result = {
  job : int;  (** The id {!submit} returned. *)
  epoch : int;  (** Wave that executed the job (1-based). *)
  task : int;  (** Task index within its wave. *)
  outcome : Dmw_core.Agent.task_outcome option;
      (** Winner and prices under consensus; [None] when the wave
          failed to reach it. *)
  error : string option;
}

val submit :
  t -> bids:int array ->
  [ `Accepted of int | `Busy | `Closed | `Invalid of string ]
(** Offer one task whose bid vector is [bids] ([bids.(i)] is agent
    [i]'s level, [1 <= w <= w_max]). Never blocks: [`Busy] is the
    backpressure signal (queue at capacity — retry later), [`Closed]
    means the service is shutting down. *)

val await : t -> int -> job_result option
(** Block until the job's wave settles and return its result. Each
    result is handed out once — to every caller already blocked on the
    id when it settles, or else to the first caller after — and then
    the service forgets it, so a long-running service does not grow
    with the jobs it has served. A later [await] of the same id blocks
    until {!shutdown} and returns [None], as does an [await] of an id
    that was never accepted. The front door awaits every job it
    accepted, including those of clients that hung up. *)

type stats = { epochs : int; jobs : int; queue_depth : int }

val stats : t -> stats

(** {1 Crash recovery} *)

type recovery = {
  n : int;
  c : int;
  group_bits : int;
  seed : int;
  w_max : int option;
  pipeline : int option;
  max_wave : int;
      (** The journaled service identity, read back from the
          [Serve_start] header (all segments must agree). *)
  results : job_result list;
      (** Every journaled job's settlement, ascending by job id —
          settlements read from the log plus those produced by
          replaying interrupted waves. *)
  kept : int;  (** Settlements read straight off the log. *)
  replayed : int;  (** Epochs (re-)executed during recovery. *)
  next_epoch : int;
      (** Highest epoch number now settled — pass as [create]'s
          [epoch_base] to continue the service. *)
  next_job : int;
      (** One past the highest journaled job id — pass as [job_base]. *)
}

val recover :
  ?journal:Dmw_wal.writer ->
  Dmw_wal.record list ->
  (recovery, string) Stdlib.result
(** Recover an interrupted service from its journal (the records of
    {!Dmw_wal.read}, which already tolerates a torn tail). Epoch [e] of
    a service seeded with [s] is by construction
    [Dmw_exec.run ~seed:(s + 7919*(e-1))] over the wave's bid vectors,
    and consensus signatures are backend-invariant — so every epoch
    that never journaled its [Epoch_end] is replayed bit-identically on
    the sim backend, and submissions never dispatched are batched
    [max_wave] at a time into fresh epochs. Settlements the crashed
    process already journaled are obligations: a replayed value that
    disagrees fails with [Error] (wrong log for this run, or a
    corrupted one); a journaled {e environmental} failure (timeout,
    crashed wave) is healed by its replay instead.

    [journal] appends the recovery to the same log as a fresh
    [Resumed]-delimited segment — give it a
    {!Dmw_wal.continue_file} writer so a recovery that itself dies
    remains recoverable. *)

(** {1 Front door}

    A newline-delimited text protocol over a Unix-domain socket, small
    enough to drive with [dmw_cli submit] or netcat:

    {v
    -> submit 2,1,3,1,2        one bid level per agent, comma-separated
    <- result 0 epoch=1 task=0 winner=1 ystar=1 ystar2=2
    <- busy                    queue full; retry later
    <- error <reason>          malformed or out-of-range submission
    -> stats
    <- stats epochs=1 jobs=1 queue=0
    -> quit
    v}

    Replies come back in request order but asynchronously — a client
    may pipeline several submissions and the service batches the ones
    that land in the same wave. A [stats] reply describes the service
    when it is sent, after the replies queued ahead of it. *)

module Front : sig
  type server

  val result_line : job_result -> string
  (** The wire line for a settled job — [result <id> epoch=<e>
      task=<j> winner=<i> ystar=<y> ystar2=<y'>] or [failed <id>
      <reason>]. Exposed so recovery tooling prints journaled results
      in exactly the front door's format. *)

  val start : t -> socket_path:string -> server
  (** Bind (replacing any stale socket file), listen, and serve each
      connection on its own reader/writer thread pair. Sets SIGPIPE to
      be ignored for the whole process, so a client that hangs up
      before its reply ends only its own connection. *)

  val stop : server -> unit
  (** Close the listener and remove the socket file. Connections
      already accepted run until their client disconnects. *)
end
