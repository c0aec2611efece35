(** Durable write-ahead log for task auctions.

    The WAL turns the paper's assumption that agents live to the end of
    the run (Theorem 3) into an explicit, recoverable boundary: what a
    recovery reads — the run header (seed, params, bids, fault policy),
    each attempt's start, per-task phase-machine checkpoints, task
    settlements and the final consensus outcome — is persisted as a
    length-prefixed, checksummed, fsync-batched record. A [dmw_serve]
    journal adds the service header, its submissions and which jobs
    formed which epoch; each epoch's own run records are its
    settlement.

    Because [dmw_det] proves every journaled value is a pure function of
    (seed, params, bids), recovery never replays message state: it
    re-executes the whole run deterministically from the journaled
    header and cross-checks the crashed run's journaled outcomes against
    the re-execution. Crypto material (shares, polynomials) is therefore
    {e deliberately never written} — the log stays on the public side of
    the Theorem 10 privacy boundary.

    On-disk format (all integers big-endian):

    {v
      file   := magic record*
      magic  := "DMWWAL02"                      (8 bytes)
      record := len:u32 crc:u32 payload         (len = |payload|, crc = CRC-32 of payload)
      payload:= tag:u8 fields...                (see PROTOCOL.md section 8)
    v}

    The reader tolerates a torn tail: decoding stops cleanly at the
    first short, oversized or checksum-failing record and reports a
    typed {!error}, so a crash mid-[write] can never corrupt recovery
    of the preceding records. *)

type params_snapshot = {
  p : string;  (** Group modulus, decimal. *)
  q : string;  (** Subgroup order, decimal. *)
  z1 : string; (** First generator, decimal. *)
  z2 : string; (** Second generator, decimal. *)
  n : int;
  m : int;
  c : int;
  w_max : int;
  alphas : string array;  (** Pseudonyms, decimal, agent order. *)
}
(** A self-contained serialization of {!Dmw_core.Params.t}: the full
    group and pseudonym set rather than the [make] inputs, so restricted
    (re-auctioned) parameter sets round-trip exactly. *)

type record =
  | Run_start of {
      seed : int;
      params : params_snapshot;
      bids : int array array;
      batching : bool;
      hardened : bool;
      pipeline : int option;
      retries : int;
      watchdog : float option;  (** Effective watchdog period. *)
      faults : string option;   (** {!Dmw_sim.Fault.to_string} spec. *)
    }  (** Everything needed to re-execute the run deterministically. *)
  | Attempt_start of { attempt : int; attempt_seed : int; survivors : int }
  | Task_phase of { attempt : int; task : int; phase : Dmw_core.Agent.phase }
      (** Agent 0's phase machine crossed a boundary for [task]. *)
  | Task_done of {
      attempt : int;
      task : int;
      winner : int;  (** Attempt-local agent index. *)
      y_star : int;
      y_star2 : int;
    }  (** A task auction settled: winner and both prices. *)
  | Run_end of {
      schedule : int array option;
      first_prices : int array option;
      second_prices : int array option;
      payments : float option array;
      attempts : int;
      excluded : int array;
    }  (** The consensus outcome of the completed run. *)
  | Resumed of { kept : int }
      (** A recovery happened here; [kept] counts the journaled
          settlements it verified against the re-run. *)
  | Serve_start of {
      n : int;
      c : int;
      group_bits : int;
      seed : int;
      w_max : int option;
      pipeline : int option;
      max_wave : int;
    }  (** Service configuration header ([dmw_serve]). *)
  | Job_submitted of { job : int; bids : int array }
  | Epoch_start of { epoch : int; jobs : int array }
      (** Epoch [epoch] runs [jobs], job [jobs.(j)] as task [j]. The
          run records after each [Epoch_start] of an epoch, up to the
          next [Epoch_start], are that epoch's run; serve records among
          them are skipped. *)

val snapshot_of_params : Dmw_core.Params.t -> params_snapshot

val params_of_snapshot :
  params_snapshot -> (Dmw_core.Params.t, string) result
(** Reconstruct and fully revalidate parameters: the group is rebuilt
    through {!Dmw_modular.Group.create} (safe-prime and generator
    checks) and the scalars through {!Dmw_core.Params.of_parts}. *)

(** {1 Binary codec} *)

val encode : record -> string
(** Payload bytes of one record (no length/crc framing). *)

val decode : string -> (record, string) result
(** Inverse of {!encode}; [Error] names the first malformed field.
    Never raises, whatever the input bytes. *)

val crc32 : string -> int
(** CRC-32 (IEEE 802.3) of a byte string, in [0, 0xFFFFFFFF]. *)

val max_payload : int
(** Upper bound on [len]; larger declared lengths are rejected as
    {!Oversized} rather than allocated. *)

(** {1 Recovery reader} *)

type error =
  | Bad_magic
      (** The file does not begin with this format's magic: not a WAL,
          or one in an older format. *)
  | Truncated of { offset : int; have : int; need : int }
      (** The record at [offset] declares more bytes than remain. *)
  | Bad_checksum of { offset : int }
      (** The payload at [offset] fails its CRC. *)
  | Oversized of { offset : int; declared : int }
      (** Declared length exceeds {!max_payload}. *)
  | Negative_length of { offset : int; declared : int }
      (** The u32 length field has its sign bit set. *)
  | Bad_record of { offset : int; reason : string }
      (** Framing is intact but the payload does not decode. *)

type tail =
  | Clean  (** The file ends exactly at a record boundary. *)
  | Torn of error
      (** Decoding stopped early; the error describes the torn tail. *)

type recovered = {
  records : record list;  (** Every intact record, in file order. *)
  tail : tail;
  valid : int;  (** Byte offset of the end of the last intact record. *)
}

val read_string : string -> (recovered, error) result
(** Decode an in-memory WAL image. [Error Bad_magic] if the header is
    absent or wrong; otherwise always [Ok], with damage confined to
    [tail]. Total: never raises. *)

val read : string -> (recovered, error) result
(** {!read_string} over a file's contents. Filesystem-level failures
    (missing file, permissions) surface as [Error (Bad_record _)] at
    offset 0; never raises. *)

val error_to_string : error -> string

(** {1 Append-side writer} *)

type writer
(** A mutex-guarded, fsync-batched appender. High-rate checkpoint
    records ([Task_phase], [Attempt_start]) are batched; every other
    record (headers, [Task_done], [Run_end], submissions, epoch starts,
    [Resumed]) forces an [fsync], so anything a recovery would trust is
    durable before the process advances. *)

val create : ?sync_every:int -> string -> writer
(** [create path] truncates [path] and writes the magic header.
    [sync_every] (default 32) bounds how many batched records may sit
    unsynced. *)

val continue_file : ?sync_every:int -> string -> valid:int -> writer
(** Reopen an existing WAL for appending after recovery: the file is
    truncated to [valid] bytes (dropping any torn tail) and subsequent
    {!append}s extend it. *)

val append : writer -> record -> unit
(** Frame, checksum and persist one record. Thread-safe. No-op after
    {!close}. Bumps the [dmw_wal_records_total] / [dmw_wal_bytes_total]
    / [dmw_wal_fsyncs_total] counters when metrics are enabled. *)

val sync : writer -> unit
(** Force any batched records to disk. *)

val close : writer -> unit
(** [sync] and release the file descriptor. Idempotent. *)

val path : writer -> string

val observe_recovery :
  t_start:float -> kept:int -> (string * string) list -> unit
(** Emit the ["wal recovery"] span from [t_start] to now, carrying
    [kept] and the given attributes, and bump
    [dmw_wal_recoveries_total] by one and
    [dmw_wal_recovered_records_total] by [kept]. Each recovery calls it
    once. *)
