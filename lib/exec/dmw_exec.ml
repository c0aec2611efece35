open Dmw_bigint
open Dmw_core
module Trace = Dmw_sim.Trace
module Engine = Dmw_sim.Engine
module Mailbox = Dmw_runtime.Mailbox
module Mutex_util = Dmw_runtime.Mutex_util
module Frame = Dmw_net.Frame
module Fabric = Dmw_net.Fabric
module Endpoint = Dmw_net.Endpoint
module Fault = Dmw_sim.Fault

(* ------------------------------------------------------------------ *)
(* The unified result                                                  *)
(* ------------------------------------------------------------------ *)

type agent_status = {
  agent : int;
  strategy : Strategy.t;
  aborted : Audit.reason option;
  outcomes : Agent.task_outcome option array;
  checks_performed : int;
}

(* race: confined owner: result arrays are filled by the driver after
   it has joined every worker thread. *)
type result = {
  params : Params.t;
  backend : string;
  pipeline : int;
  schedule : Dmw_mechanism.Schedule.t option;
  first_prices : int array option;
  second_prices : int array option;
  payments : float option array;
  statuses : agent_status array;
  trace : Trace.t;
  duration : float;
  attempts : int;
  excluded : int array;
}

type info = { trace : Trace.t; duration : float }

(* ------------------------------------------------------------------ *)
(* Observability at the transport boundary                             *)
(* ------------------------------------------------------------------ *)

(* Counters and the span tree (run > task auction > phase) for one
   protocol attempt. Counting happens where the backends already
   account their traces — the send/receive boundary — so the obs
   numbers agree with Trace on every backend. The aggregation state is
   module-global like the Dmw_obs registry itself: one instrumented
   run at a time, reset by [run_attempt]. *)
module Obs = struct
  module Metrics = Dmw_obs.Metrics
  module Span = Dmw_obs.Span

  (* Which phase of an auction a message belongs to. *)
  let rec phase_of = function
    | Messages.Share _ -> "share"
    | Messages.Commitments _ -> "commit"
    | Messages.Lambda_psi _ | Messages.F_disclosure _
    | Messages.F_disclosure_hardened _ | Messages.Lambda_psi_excl _ ->
        "resolve"
    | Messages.Payment_report _ -> "payment"
    | Messages.Batch _ -> "batch"
    | Messages.Scoped { msg; _ } -> phase_of msg

  type cell = { mutable t0 : float; mutable t1 : float }

  let cells : (int option * string, cell) Hashtbl.t = Hashtbl.create 16
  let cells_lock = Mutex.create ()

  let reset () = Mutex_util.with_lock cells_lock (fun () -> Hashtbl.reset cells)

  let note ~task ~phase ~now =
    Mutex_util.with_lock cells_lock (fun () ->
        let key = (task, phase) in
        match Hashtbl.find_opt cells key with
        | Some c ->
            if now < c.t0 then c.t0 <- now;
            if now > c.t1 then c.t1 <- now
        | None -> Hashtbl.add cells key { t0 = now; t1 = now })

  (* Wrap a transport so every send is counted and timestamped. The
     identity short-circuit keeps uninstrumented runs at zero cost
     beyond the construction-time branch. *)
  let transport ~backend ~now ~src (base : Agent.transport) =
    if not (Metrics.enabled ()) then base
    else
      { Agent.send =
          (fun ~dst ~tag ~bytes msg ->
            let labels = [ ("backend", backend); ("tag", tag) ] in
            Metrics.bump ~labels "dmw_messages_total" 1;
            Metrics.bump ~labels "dmw_bytes_total" bytes;
            Metrics.bump
              ~labels:[ ("backend", backend); ("agent", string_of_int src) ]
              "dmw_agent_messages_total" 1;
            Metrics.observe
              ~labels:[ ("backend", backend) ]
              "dmw_message_size_bytes" (float_of_int bytes);
            note ~task:(Messages.task msg) ~phase:(phase_of msg) ~now:(now ());
            base.Agent.send ~dst ~tag ~bytes msg);
        schedule = base.Agent.schedule }

  let recv ~backend =
    Metrics.bump ~labels:[ ("backend", backend) ] "dmw_recv_total" 1

  (* Materialize the aggregated span tree for the finished attempt. *)
  let emit ~backend =
    if Metrics.enabled () then begin
      (* Sorted so span emission order (and hence span ids in the
         export) is a function of the cells' keys, not of Hashtbl
         bucket order. *)
      let entries =
        Mutex_util.with_lock cells_lock (fun () ->
            Hashtbl.fold (fun k c acc -> (k, c.t0, c.t1) :: acc) cells [])
        |> List.sort compare
      in
      match entries with
      | [] -> ()
      | _ :: _ ->
          let t0 =
            List.fold_left (fun acc (_, a, _) -> Float.min acc a) infinity
              entries
          and t1 =
            List.fold_left (fun acc (_, _, b) -> Float.max acc b) neg_infinity
              entries
          in
          let attrs = [ ("backend", backend) ] in
          let run_id = Span.emit ~attrs ~name:"run" ~t_start:t0 ~t_stop:t1 () in
          let tasks =
            List.sort_uniq Int.compare
              (List.filter_map
                 (fun ((task, _), _, _) -> task)
                 entries)
          in
          List.iter
            (fun task ->
              let mine =
                List.filter (fun ((t, _), _, _) -> t = Some task) entries
              in
              let a0 =
                List.fold_left (fun acc (_, a, _) -> Float.min acc a) infinity
                  mine
              and a1 =
                List.fold_left
                  (fun acc (_, _, b) -> Float.max acc b)
                  neg_infinity mine
              in
              let attrs = ("task", string_of_int task) :: attrs in
              let auction =
                Span.emit ~parent:run_id ~attrs ~name:"task auction"
                  ~t_start:a0 ~t_stop:a1 ()
              in
              List.iter
                (fun ((_, phase), p0, p1) ->
                  ignore
                    (Span.emit ~parent:auction ~attrs ~name:phase ~t_start:p0
                       ~t_stop:p1 ()))
                mine)
            tasks;
          (* Taskless activity — payment reports, batch envelopes —
             hangs directly off the run span. *)
          List.iter
            (fun ((task, phase), p0, p1) ->
              if task = None then
                ignore
                  (Span.emit ~parent:run_id ~attrs ~name:phase ~t_start:p0
                     ~t_stop:p1 ()))
            entries
    end
end

(* ------------------------------------------------------------------ *)
(* Fault injection at the send boundary                                *)
(* ------------------------------------------------------------------ *)

type fault_plan = { faults : Fault.instance; retries : int }

(* Gap between bounded retransmissions of one message; comfortably
   above the link latencies of every backend and below the agents'
   50 ms recovery timeouts. *)
let retransmit_spacing = 0.03

(* Wrap an agent's transport so every send runs through the fault
   policy: the original plus [retries] retransmissions each flip their
   own identity-keyed coins (receivers deduplicate, so extra copies are
   harmless), drops are silent, and delays/duplicates reschedule the
   delivery through the transport's own timer — keeping the callbacks
   on the agent's thread, as Agent.transport requires. *)
let apply_faults plan ~now ~src (base : Agent.transport) =
  { Agent.send =
      (fun ~dst ~tag ~bytes msg ->
        let key =
          match Messages.task msg with Some task -> task + 1 | None -> 0
        in
        for attempt = 0 to plan.retries do
          let verdict =
            Fault.decide plan.faults ~elapsed:(now ()) ~src ~dst ~tag ~key
              ~attempt ()
          in
          if attempt > 0 then Obs.Metrics.bump "dmw_retransmissions_total" 1;
          Obs.Metrics.bump
            ~labels:
              [ ( "verdict",
                  if verdict.Fault.drop then "drop"
                  else if verdict.Fault.copies > 0 then "duplicate"
                  else if verdict.Fault.delay > 0.0 then "delay"
                  else "clean" ) ]
            "dmw_fault_verdicts_total" 1;
          if not verdict.Fault.drop then begin
            let deliver () = base.Agent.send ~dst ~tag ~bytes msg in
            let delay =
              verdict.Fault.delay
              +. (float_of_int attempt *. retransmit_spacing)
            in
            if delay <= 0.0 then deliver ()
            else base.Agent.schedule ~delay deliver;
            for copy = 1 to verdict.Fault.copies do
              base.Agent.schedule
                ~delay:(delay +. (0.002 *. float_of_int copy))
                deliver
            done
          end
        done);
    schedule = base.Agent.schedule }

let maybe_faults plan ~now ~src base =
  match plan with
  | None -> base
  | Some plan -> apply_faults plan ~now ~src base

(* ------------------------------------------------------------------ *)
(* The backend interface                                               *)
(* ------------------------------------------------------------------ *)

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

(* ------------------------------------------------------------------ *)
(* Backend: discrete-event simulator                                   *)
(* ------------------------------------------------------------------ *)

module Sim_backend = struct
  type config = {
    latency : Dmw_sim.Latency.t option;
    bandwidth : float option;
    jitter : float option;
  }

  let name = "sim"
  let instance _ = None

  let execute cfg ~params ~seed ~keep_events ~faults ~agents ~report =
    let n = params.Params.n in
    (* Node n is the payment infrastructure. *)
    let eng =
      Engine.create ~seed ~keep_events ?latency:cfg.latency
        ?bandwidth:cfg.bandwidth ?jitter:cfg.jitter ~nodes:(n + 1) ()
    in
    let now () = Engine.now eng in
    let transports =
      Array.init n (fun i ->
          maybe_faults faults ~now ~src:i
            (Obs.transport ~backend:name ~now ~src:i
               (Agent.transport_of_engine eng ~id:i)))
    in
    for i = 0 to n - 1 do
      Engine.on_message eng ~node:i (fun _ d ->
          Obs.recv ~backend:name;
          Agent.handle transports.(i) agents.(i) ~src:d.Engine.src
            d.Engine.payload)
    done;
    Engine.on_message eng ~node:n (fun _ d ->
        match d.Engine.payload with
        | Messages.Payment_report { payments } -> report ~src:d.Engine.src payments
        | Messages.Share _ | Messages.Commitments _ | Messages.Lambda_psi _
        | Messages.F_disclosure _ | Messages.F_disclosure_hardened _
        | Messages.Lambda_psi_excl _ | Messages.Batch _ | Messages.Scoped _ ->
            (* The infrastructure node only understands payment reports;
               anything else addressed to it is a protocol bug upstream
               and is dropped, not silently half-handled. *)
            ());
    Engine.at eng ~time:0.0 (fun () ->
        Array.iteri (fun i a -> Agent.start transports.(i) a) agents);
    Engine.run eng;
    (* The engine's final clock includes trailing no-op timeout checks;
       the last transmitted message marks actual protocol activity. *)
    { trace = Engine.trace eng;
      duration = Trace.last_time (Engine.trace eng) }
end

(* ------------------------------------------------------------------ *)
(* Socket sessions                                                     *)
(* ------------------------------------------------------------------ *)

type session = {
  t0 : float;  (* the session's clock: spans and fault timing of every epoch *)
  fabric : Fabric.t;
  (* race: confined readonly: fixed at open; each Mailbox inside
     carries its own lock. *)
  seats : (Unix.file_descr -> Endpoint.outcome) Mailbox.t array;
      (* per worker: the next epoch's endpoint session *)
  done_box : unit Mailbox.t;  (* workers signal end-of-epoch here *)
  (* race: confined owner: created by [session], joined by
     [close_session] — both on the thread that owns the session. *)
  workers : Thread.t array;
}

(* One thread per agent endpoint, alive for the whole session: each
   epoch it takes that epoch's endpoint session and runs it over the
   same fd. The done_box push precedes the loop decision so the epoch
   barrier can never miss a worker that is about to exit. *)
let worker ~fd ~seats ~done_box () =
  let rec loop () =
    match Mailbox.pop seats with
    | None -> ()
    | Some run_session ->
        let outcome = run_session fd in
        Mailbox.push done_box ();
        (match outcome with `Epoch_end -> loop () | `Stop -> ())
  in
  loop ()

let session ~agents:n =
  let t0 = Unix.gettimeofday () in
  (* Endpoints 0..n-1 are the agents; endpoint n is the payment
     infrastructure, read by the thread that runs the epochs. *)
  let fabric = Fabric.create ~endpoints:(n + 1) in
  let seats = Array.init n (fun _ -> Mailbox.create ()) in
  let done_box = Mailbox.create () in
  let workers =
    Array.init n (fun i ->
        Thread.create
          (worker ~fd:(Fabric.endpoint_fd fabric i) ~seats:seats.(i) ~done_box)
          ())
  in
  { t0; fabric; seats; done_box; workers }

let close_session s =
  (* After a completed barrier every worker idles in its seat mailbox;
     the stop also ends a session a timed-out barrier left running. *)
  Array.iter Mailbox.close s.seats;
  Fabric.broadcast_stop s.fabric;
  Array.iter Thread.join s.workers;
  Mailbox.close s.done_box;
  Fabric.shutdown s.fabric

(* The payment report a message carries for this epoch: a Scoped one
   naming [instance] when the epoch is scoped, a bare one otherwise. A
   report of a previous wave still sitting in the socket buffer thus
   never feeds this wave's settlement. *)
let epoch_report ~instance = function
  | Messages.Payment_report { payments } when Option.is_none instance ->
      Some payments
  | Messages.Scoped { instance = e; msg = Messages.Payment_report { payments } }
    when instance = Some e ->
      Some payments
  | Messages.Payment_report _ | Messages.Scoped _ | Messages.Share _
  | Messages.Commitments _ | Messages.Lambda_psi _ | Messages.F_disclosure _
  | Messages.F_disclosure_hardened _ | Messages.Lambda_psi_excl _
  | Messages.Batch _ ->
      None

(* Wait up to [remaining] seconds for one frame on the infrastructure
   endpoint [fd]. *)
let read_report fd ~instance remaining =
  match Unix.select [ fd ] [] [] remaining with
  | [], _, _ -> None
  | _ -> (
      match Frame.read fd with
      | `Closed -> None
      | `Frame (src, _, payload) -> (
          match Result.map (epoch_report ~instance) (Codec.decode payload) with
          | Ok (Some payments) -> Some (src, payments)
          | Ok None | Error _ ->
              (* Not a report of this epoch: skip it without consuming
                 the caller's one-report budget. *)
              Some (-1, [||])))
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> Some (-1, [||])

(* A trace fed concurrently by every agent thread; event times are
   wall-clock seconds on the session's clock [now]. *)
let concurrent_trace ~keep_events ~now =
  let trace = Trace.create ~keep_events () in
  let mutex = Mutex.create () in
  let record ~src ~dst ~tag ~bytes =
    Mutex_util.with_lock mutex (fun () ->
        Trace.record trace { Trace.time = now (); src; dst; tag; bytes })
  in
  (trace, record)

(* Drain this epoch's payment reports from the infrastructure endpoint
   [fd] until every agent reported once or the deadline passes (a
   stalled run — some agent aborted — never produces all n reports).
   [finished] — given the received-so-far membership test — says
   whether further reports can still come (every agent reported,
   aborted, or already dispatched its report); once it turns true the
   drain continues for one short grace window to catch reports that
   were sent but are still in flight, then stops without waiting out
   the full deadline. *)
let collect_grace = 0.25

let collect_reports fd ~instance ~n ~deadline ~finished ~report =
  let received = Hashtbl.create n in
  let continue_ = ref true in
  let finished_at = ref None in
  while !continue_ && Hashtbl.length received < n do
    let now = Unix.gettimeofday () in
    (match !finished_at with
    | None -> if finished (Hashtbl.mem received) then finished_at := Some now
    | Some _ -> ());
    let stop_at =
      match !finished_at with
      | Some t -> Float.min deadline (t +. collect_grace)
      | None -> deadline
    in
    let remaining = stop_at -. now in
    if remaining <= 0.0 then continue_ := false
    else
      match read_report fd ~instance (Float.min remaining 0.05) with
      | None -> () (* nothing this slice; re-check [finished] *)
      | Some (src, payments) ->
          if src >= 0 && src < n && not (Hashtbl.mem received src) then begin
            Hashtbl.replace received src ();
            report ~src payments
          end
  done

(* Further reports can only come from agents that are still working:
   not yet reported, not aborted, and not already past their Phase IV
   send. Reading the agents' fields from the collector thread races
   with their own threads only benignly (single word reads; a stale
   value merely delays the early exit by a slice). *)
let no_more_reports agents received =
  Array.for_all
    (fun a ->
      received (Agent.id a)
      || Option.is_some (Agent.aborted a)
      || Option.is_some (Agent.reported_payments a))
    agents

(* One epoch over a session: deal the agents to the workers, drain this
   epoch's payment reports, then end every endpoint session with the
   epoch barrier and wait for all n workers to acknowledge — a worker
   still draining this epoch must never take the next epoch's seat
   before its session returns. *)
let session_epoch s ~name ~instance ~timeout ~keep_events ~faults ~agents
    ~report =
  let n = Array.length s.seats in
  if Array.length agents <> n then
    invalid_arg "Dmw_exec: a session epoch needs one agent per endpoint";
  let now () = Unix.gettimeofday () -. s.t0 in
  let trace, record = concurrent_trace ~keep_events ~now in
  let e0 = Unix.gettimeofday () in
  Array.iteri
    (fun i agent ->
      Mailbox.push s.seats.(i) (fun fd ->
          (* det: obs-only: the wall clock threaded here is the span
             timestamp inside the obs transport wrapper (and the fault
             layer's elapsed time, which only decides whether and when
             a frame is delivered); frame payloads come from the
             agent's protocol state alone *)
          Endpoint.run_session ~fd ~agent
            ~wrap:(fun base ->
              maybe_faults faults ~now ~src:i
                (Obs.transport ~backend:name ~now ~src:i base))
            ~on_recv:(fun ~src:_ -> Obs.recv ~backend:name)
            ~on_send:(record ~src:i) ()))
    agents;
  collect_reports (Fabric.endpoint_fd s.fabric n) ~instance ~n
    ~deadline:(e0 +. timeout) ~finished:(no_more_reports agents) ~report;
  Fabric.broadcast_epoch s.fabric ~instance:(Option.value instance ~default:0);
  for _ = 1 to n do
    ignore (Mailbox.pop ~timeout s.done_box : unit option)
  done;
  (* det: wallclock: duration is the measured wall time of the epoch —
     reporting, never part of the consensus signature or the wire *)
  { trace; duration = Unix.gettimeofday () -. e0 }

(* ------------------------------------------------------------------ *)
(* Backends: Unix-domain sockets                                       *)
(* ------------------------------------------------------------------ *)

(* A one-shot run is a session of one unscoped epoch. *)
module Socket_backend = struct
  type config = { timeout : float }

  let name = "socket"
  let instance _ = None

  let execute cfg ~params ~seed:_ ~keep_events ~faults ~agents ~report =
    let s = session ~agents:params.Params.n in
    Fun.protect
      ~finally:(fun () -> close_session s)
      (fun () ->
        session_epoch s ~name ~instance:None ~timeout:cfg.timeout
          ~keep_events ~faults ~agents ~report)
end

(* One epoch of a long-lived session, its agents scoped to the epoch. *)
module Epoch_backend = struct
  type config = { session : session; epoch : int; timeout : float }

  let name = "serve"
  let instance cfg = Some cfg.epoch

  let execute cfg ~params:_ ~seed:_ ~keep_events ~faults ~agents ~report =
    session_epoch cfg.session ~name ~instance:(instance cfg)
      ~timeout:cfg.timeout ~keep_events ~faults ~agents ~report
end

(* ------------------------------------------------------------------ *)
(* Backend constructors                                                *)
(* ------------------------------------------------------------------ *)

let sim ?latency ?bandwidth ?jitter () =
  Backend ((module Sim_backend), { Sim_backend.latency; bandwidth; jitter })

let socket ?(timeout = 30.0) () =
  Backend ((module Socket_backend), { Socket_backend.timeout })

let epoch session ~epoch ~timeout =
  Backend ((module Epoch_backend), { Epoch_backend.session; epoch; timeout })

let backend_name (Backend ((module B), _)) = B.name

(* ------------------------------------------------------------------ *)
(* The harness                                                         *)
(* ------------------------------------------------------------------ *)

let validate_bids (params : Params.t) bids =
  if Array.length bids <> params.n then invalid_arg "Dmw_exec.run: bids rows <> n";
  Array.iter
    (fun row ->
      if Array.length row <> params.m then
        invalid_arg "Dmw_exec.run: bids columns <> m";
      Array.iter
        (fun y ->
          if not (Params.valid_bid params y) then
            invalid_arg "Dmw_exec.run: bid outside W")
        row)
    bids

(* One protocol execution over a fixed agent population. *)
let run_attempt ~strategies ~seed ~keep_events ~batching ~hardened ~watchdog
    ~pipeline ~faults ~wal ~attempt ~backend (params : Params.t) ~bids =
  validate_bids params bids;
  let n = params.n in
  let depth =
    match pipeline with Some d -> min d params.m | None -> params.m
  in
  (match wal with
  | None -> ()
  | Some w ->
      Dmw_wal.append w
        (Dmw_wal.Attempt_start { attempt; attempt_seed = seed; survivors = n }));
  (* Phase checkpoints are observed on agent 0 only: by confluence and
     the consensus invariant every correct agent's settled values are
     identical, so one witness per attempt journals the whole story
     (record *order* on the real-time backends may interleave with the
     driver's records; the values may not). *)
  let on_phase =
    Option.map
      (fun w ~task phase (outcome : Agent.task_outcome option) ->
        match (phase, outcome) with
        | Agent.Done_, Some o ->
            Dmw_wal.append w
              (Dmw_wal.Task_done
                 { attempt; task; winner = o.winner; y_star = o.y_star;
                   y_star2 = o.y_star2 })
        | _ ->
            Dmw_wal.append w (Dmw_wal.Task_phase { attempt; task; phase }))
      wal
  in
  let (Backend ((module B), config)) = backend in
  (* The master RNG and per-agent split order are the seeding
     convention shared by every backend: same seed, same agents, same
     outcome regardless of message interleaving. *)
  let master_rng = Prng.create ~seed:(seed lxor 0xA6E77) in
  let agents =
    Array.init n (fun i ->
        Agent.create ~batching ~hardened ?watchdog ?pipeline
          ?instance:(B.instance config)
          ?on_phase:(if i = 0 then on_phase else None)
          ~params ~id:i ~bids:bids.(i)
          ~strategy:(strategies i)
          ~rng:(Prng.split master_rng) ())
  in
  (* The fault policy draws its per-message coins from the same run
     seed under its own salt — one schedule, replayed identically by
     every backend. *)
  let plan =
    Option.map
      (fun spec ->
        { faults = Fault.instantiate spec ~seed:(seed lxor 0xFA17);
          retries = Fault.retransmits spec })
      faults
  in
  let infra = Payment_infra.create ~n in
  Obs.reset ();
  let info =
    B.execute config ~params ~seed ~keep_events ~faults:plan ~agents
      ~report:(fun ~src payments -> Payment_infra.receive infra ~from_:src payments)
  in
  Obs.emit ~backend:B.name;
  Obs.Metrics.set
    ~labels:[ ("backend", B.name) ]
    "dmw_run_duration_seconds" info.duration;
  Obs.Metrics.set
    ~labels:[ ("backend", B.name) ]
    "dmw_pipeline_depth" (float_of_int depth);
  Array.iter Agent.finalize_stall agents;
  (match wal with
  | None -> ()
  | Some w ->
      Array.iteri
        (fun i a ->
          List.iter
            (fun (e : Audit.entry) ->
              Dmw_wal.append w
                (Dmw_wal.Audit_entry
                   { attempt; agent = i; task = e.task;
                     description = e.description; ok = e.ok }))
            (Audit.failures (Agent.audit a));
          match Agent.aborted a with
          | None -> ()
          | Some reason ->
              Dmw_wal.append w (Dmw_wal.Abort { attempt; agent = i; reason }))
        agents);
  let statuses =
    Array.map
      (fun a ->
        { agent = Agent.id a;
          strategy = Agent.strategy a;
          aborted = Agent.aborted a;
          outcomes = Agent.outcomes a;
          checks_performed = Audit.checks_performed (Agent.audit a) })
      agents
  in
  let schedule = Agent.consensus agents ~c:params.c in
  let first_prices, second_prices =
    match schedule with
    | None -> (None, None)
    | Some _ -> (
        (* Consensus established: any resolved agent's view is the
           view. Consensus tolerates up to c missing resolvers, so a
           run can in principle reach agreement with no agent both
           unaborted and fully resolved — degrade to unknown prices
           rather than crash. *)
        match
          Array.to_list agents
          |> List.find_opt (fun a ->
                 Option.is_none (Agent.aborted a)
                 && Array.for_all Option.is_some (Agent.outcomes a))
        with
        | None -> (None, None)
        | Some a ->
            (* lint: allow partial: find_opt above selects an agent whose
               outcomes are all [Some]. *)
            let outcomes = Array.map Option.get (Agent.outcomes a) in
            ( Some (Array.map (fun (o : Agent.task_outcome) -> o.y_star) outcomes),
              Some (Array.map (fun (o : Agent.task_outcome) -> o.y_star2) outcomes)
            ))
  in
  let payments = Payment_infra.settle infra ~quorum:(n - params.c) in
  { params;
    backend = B.name;
    pipeline = depth;
    schedule;
    first_prices;
    second_prices;
    payments;
    statuses;
    trace = info.trace;
    duration = info.duration;
    attempts = 1;
    excluded = [||] }

(* ------------------------------------------------------------------ *)
(* Re-auctioning after environmental aborts                            *)
(* ------------------------------------------------------------------ *)

(* Aborts the environment can cause, as opposed to detected strategic
   deviations (which must never be healed by a retry — the faithfulness
   argument needs deviators punished, not re-auctioned around). *)
let environmental = function
  | Audit.Stalled _ | Audit.Peer_silent _ | Audit.Deadline_exceeded _ -> true
  | Audit.Bad_share _ | Audit.Bad_lambda_psi _ | Audit.Bad_disclosure _
  | Audit.Bad_lambda_psi_excl _ | Audit.Resolution_failed _
  | Audit.Payment_disagreement ->
      false

(* Agent indices inside abort reasons are attempt-local; rewrite them
   to the original numbering. *)
let remap_reason orig = function
  | Audit.Bad_share { dealer } -> Audit.Bad_share { dealer = orig.(dealer) }
  | Audit.Bad_lambda_psi { agent } ->
      Audit.Bad_lambda_psi { agent = orig.(agent) }
  | Audit.Bad_disclosure { agent } ->
      Audit.Bad_disclosure { agent = orig.(agent) }
  | Audit.Bad_lambda_psi_excl { agent } ->
      Audit.Bad_lambda_psi_excl { agent = orig.(agent) }
  | Audit.Peer_silent { agent } -> Audit.Peer_silent { agent = orig.(agent) }
  | (Audit.Resolution_failed _ | Audit.Payment_disagreement | Audit.Stalled _
    | Audit.Deadline_exceeded _) as r ->
      r

(* Express an attempt-local result in the original agent numbering:
   [orig.(i)] is the original index of local agent [i], [frozen] holds
   the statuses of agents excluded by earlier attempts. *)
let remap_result ~params0 ~orig ~frozen ~attempt (r : result) =
  let n0 = params0.Params.n in
  let schedule =
    Option.map
      (fun s ->
        Dmw_mechanism.Schedule.create ~agents:n0
          ~assignment:
            (Array.map (fun w -> orig.(w)) (Dmw_mechanism.Schedule.assignment s)))
      r.schedule
  in
  let payments = Array.make n0 None in
  Array.iteri (fun i p -> payments.(orig.(i)) <- p) r.payments;
  let statuses =
    Array.init n0 (fun i ->
        match frozen.(i) with
        | Some s -> s
        | None ->
            (* Not excluded, so it took part in the final attempt. *)
            let local = ref 0 in
            Array.iteri (fun l o -> if o = i then local := l) orig;
            let s = r.statuses.(!local) in
            { s with
              agent = i;
              aborted = Option.map (remap_reason orig) s.aborted })
  in
  let excluded =
    Array.of_list
      (List.filter (fun i -> Option.is_some frozen.(i)) (List.init n0 Fun.id))
  in
  { r with params = params0; schedule; payments; statuses; attempts = attempt;
    excluded }

let completed_attempt r =
  Option.is_some r.schedule && Array.for_all Option.is_some r.payments

let run ?(strategies = fun _ -> Strategy.Suggested) ?(seed = 42)
    ?(keep_events = true) ?(batching = false) ?(hardened = false) ?faults
    ?watchdog ?(retries = 0) ?pipeline ?wal ?(backend = sim ())
    (params : Params.t) ~bids =
  if retries < 0 then invalid_arg "Dmw_exec.run: negative retries";
  (match pipeline with
  | Some d when d < 1 -> invalid_arg "Dmw_exec.run: pipeline depth < 1"
  | Some _ | None -> ());
  (* The fault layer keys its verdicts on message identity, but a batch
     envelope's contents depend on the interleaving: faults would see
     only the envelope and miss the messages inside. *)
  if batching && Option.is_some faults then
    invalid_arg "Dmw_exec.run: faults cannot be combined with batching";
  (* Crash detection is armed exactly when an adverse environment is
     declared; fault-free runs keep the legacy run-to-quiescence
     Stalled semantics that the deviation experiments rely on. *)
  let watchdog =
    match (watchdog, faults) with
    | Some p, _ -> Some p
    | None, Some _ -> Some 0.25
    | None, None -> None
  in
  let params0 = params in
  (* The run header carries everything a resume needs to re-execute
     the run deterministically: the fully serialized params (so a
     restricted set round-trips), the original bids, and the effective
     knob settings. Secrets are never journaled — recovery re-derives
     all crypto state from the seed. *)
  (match wal with
  | None -> ()
  | Some w ->
      Dmw_wal.append w
        (Dmw_wal.Run_start
           { seed;
             params = Dmw_wal.snapshot_of_params params;
             bids;
             batching;
             hardened;
             pipeline;
             retries;
             watchdog;
             faults = Option.map Fault.to_string faults }));
  let frozen = Array.make params0.Params.n None in
  let rec attempt_loop ~attempt ~params ~bids ~strategies ~orig ~faults =
    let r =
      run_attempt ~strategies
        ~seed:(seed + (7919 * (attempt - 1)))
        ~keep_events ~batching ~hardened ~watchdog ~pipeline ~faults ~wal
        ~attempt ~backend params ~bids
    in
    let give_up () = remap_result ~params0 ~orig ~frozen ~attempt r in
    if completed_attempt r || attempt > retries then give_up ()
    else begin
      let aborts =
        Array.to_list r.statuses |> List.filter_map (fun s -> s.aborted)
      in
      (* Re-auction only a cleanly diagnosed environmental failure:
         every abort environmental, a silent peer convicted by a strict
         majority of the agents, and the surviving population still
         able to carry the published bid set. Majority voting matters —
         a crashed agent, whose own outbound went dark, sees everyone
         {e else} as silent and blames an innocent peer. *)
      let votes = Array.make r.params.Params.n 0 in
      List.iter
        (function
          | Audit.Peer_silent { agent } -> votes.(agent) <- votes.(agent) + 1
          | Audit.Bad_share _ | Audit.Bad_lambda_psi _ | Audit.Bad_disclosure _
          | Audit.Bad_lambda_psi_excl _ | Audit.Resolution_failed _
          | Audit.Payment_disagreement | Audit.Stalled _
          | Audit.Deadline_exceeded _ ->
              ())
        aborts;
      let blamed =
        List.filter
          (fun i -> 2 * votes.(i) > r.params.Params.n)
          (List.init r.params.Params.n Fun.id)
      in
      if aborts = [] || blamed = [] || not (List.for_all environmental aborts)
      then give_up ()
      else begin
        let survivors =
          Array.of_list
            (List.filter
               (fun i -> not (List.mem i blamed))
               (List.init params.Params.n Fun.id))
        in
        match Params.restrict params ~keep:survivors with
        | Error _ -> give_up ()
        | Ok params' ->
            List.iter
              (fun i ->
                let s = r.statuses.(i) in
                frozen.(orig.(i)) <-
                  Some
                    { s with
                      agent = orig.(i);
                      aborted = Option.map (remap_reason orig) s.aborted })
              blamed;
            let bids' = Array.map (fun i -> bids.(i)) survivors in
            let strategies' l = strategies survivors.(l) in
            let orig' = Array.map (fun i -> orig.(i)) survivors in
            (* The fault environment follows the physical nodes: terms
               aimed at an expelled agent vanish, the rest are rewritten
               to the survivors' numbering. *)
            let faults' =
              Option.map (fun f -> Fault.remap f ~keep:survivors) faults
            in
            attempt_loop ~attempt:(attempt + 1) ~params:params' ~bids:bids'
              ~strategies:strategies' ~orig:orig' ~faults:faults'
      end
    end
  in
  let r =
    attempt_loop ~attempt:1 ~params ~bids ~strategies
      ~orig:(Array.init params0.Params.n Fun.id)
      ~faults
  in
  (match wal with
  | None -> ()
  | Some w ->
      Dmw_wal.append w
        (Dmw_wal.Run_end
           { schedule =
               Option.map Dmw_mechanism.Schedule.assignment r.schedule;
             first_prices = r.first_prices;
             second_prices = r.second_prices;
             payments = r.payments;
             attempts = r.attempts;
             excluded = r.excluded });
      Dmw_wal.sync w);
  r

(* ------------------------------------------------------------------ *)
(* Crash-resume from the write-ahead log                               *)
(* ------------------------------------------------------------------ *)

type recovery = { result : result; kept : int; attempts_started : int }

let ( let* ) = Result.bind

(* Journaled task settlements, keyed by (attempt, task). *)
let dones_of records =
  List.filter_map
    (function
      | Dmw_wal.Task_done d ->
          Some ((d.attempt, d.task), (d.winner, d.y_star, d.y_star2))
      | _ -> None)
    records

let resume ?(keep_events = true) ?backend ?(journal = true) path =
  let* recovered =
    Result.map_error Dmw_wal.error_to_string (Dmw_wal.read path)
  in
  let records = recovered.Dmw_wal.records in
  let* header =
    match records with
    | (Dmw_wal.Run_start _ as h) :: _ -> Ok h
    | _ -> Error "WAL has no Run_start header: nothing to resume"
  in
  (* A multiply-resumed log holds one segment per process incarnation;
     determinism demands they all describe the same run. *)
  let* () =
    if
      List.for_all
        (fun r ->
          match r with Dmw_wal.Run_start _ -> r = header | _ -> true)
        records
    then Ok ()
    else Error "WAL segments disagree on the run header"
  in
  let* ( hseed,
         hsnapshot,
         hbids,
         hbatching,
         hhardened,
         hpipeline,
         hretries,
         hwatchdog,
         hfaults ) =
    match header with
    | Dmw_wal.Run_start
        { seed; params; bids; batching; hardened; pipeline; retries; watchdog;
          faults } ->
        Ok
          ( seed, params, bids, batching, hardened, pipeline, retries,
            watchdog, faults )
    | _ -> Error "WAL has no Run_start header: nothing to resume"
  in
  let* params = Dmw_wal.params_of_snapshot hsnapshot in
  let* faults =
    match hfaults with
    | None -> Ok None
    | Some s -> (
        match Fault.of_string s with
        | Ok f -> Ok (Some f)
        | Error e -> Error ("journaled fault policy: " ^ e))
  in
  let old_dones = dones_of records in
  let attempts_started =
    List.fold_left
      (fun acc r ->
        match r with
        | Dmw_wal.Attempt_start a -> max acc a.attempt
        | _ -> acc)
      1 records
  in
  let w =
    if journal then
      Some (Dmw_wal.continue_file path ~valid:recovered.Dmw_wal.valid)
    else None
  in
  (match w with
  | None -> ()
  | Some w -> Dmw_wal.append w (Dmw_wal.Resumed { kept = List.length old_dones }));
  (* Recovery is re-execution: per-agent RNG streams are shared across
     the tasks of a run, so skipping settled auctions would desync the
     survivors' randomness. The journaled settlements instead become
     obligations the re-run must reproduce exactly. *)
  let t0 = Unix.gettimeofday () in
  let run_again () =
    run ~seed:hseed ~keep_events ~batching:hbatching ~hardened:hhardened
      ?faults ?watchdog:hwatchdog ~retries:hretries ?pipeline:hpipeline ?wal:w
      ?backend params ~bids:hbids
  in
  let result =
    match w with
    | None -> run_again ()
    | Some w -> Fun.protect ~finally:(fun () -> Dmw_wal.close w) run_again
  in
  Dmw_obs.Span.emit ~name:"wal recovery"
    ~attrs:
      [ ("kept", string_of_int (List.length old_dones));
        ("attempts_started", string_of_int attempts_started) ]
    ~t_start:t0
    ~t_stop:(Unix.gettimeofday ())
    ()
  |> ignore;
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.bump "dmw_wal_recoveries_total" 1;
    Obs.Metrics.bump "dmw_wal_recovered_records_total" (List.length old_dones)
  end;
  (* Cross-check: everything the crashed run journaled must be a
     sub-history of the re-run. With journaling on, compare against the
     fresh segment's own records; otherwise fall back to the final
     attempt's consensus view. A mismatch means the log belongs to a
     different run (or strategies differed) — refuse rather than
     mis-resume. *)
  let* () =
    if journal then begin
      let* reread =
        Result.map_error Dmw_wal.error_to_string (Dmw_wal.read path)
      in
      let fresh_segment =
        List.rev
          (List.fold_left
             (fun acc r ->
               match r with Dmw_wal.Resumed _ -> [] | r -> r :: acc)
             [] reread.Dmw_wal.records)
      in
      let new_dones = dones_of fresh_segment in
      let rec check = function
        | [] -> Ok ()
        | (((attempt, task), v) as _old) :: rest -> (
            match List.assoc_opt (attempt, task) new_dones with
            | Some v' when v' = v -> check rest
            | _ ->
                Error
                  ("journaled settlement of attempt "
                  ^ string_of_int attempt ^ ", task " ^ string_of_int task
                  ^ " does not match the resumed run"))
      in
      check old_dones
    end
    else begin
      (* No fresh journal to diff against: verify the final attempt's
         settlements against the consensus result (winner indices are
         attempt-local; survivors keep ascending order, so the
         non-excluded original indices are the rank map). *)
      let orig =
        Array.of_list
          (List.filter
             (fun i -> not (Array.mem i result.excluded))
             (List.init result.params.Params.n Fun.id))
      in
      match (result.schedule, result.first_prices, result.second_prices) with
      | Some s, Some fp, Some sp ->
          let assignment = Dmw_mechanism.Schedule.assignment s in
          let ok =
            List.for_all
              (fun ((attempt, task), (winner, y1, y2)) ->
                attempt <> result.attempts
                || task >= 0
                   && task < Array.length assignment
                   && winner >= 0
                   && winner < Array.length orig
                   && assignment.(task) = orig.(winner)
                   && fp.(task) = y1 && sp.(task) = y2)
              old_dones
          in
          if ok then Ok ()
          else Error "journaled settlements do not match the resumed run"
      | _ -> Ok ()
    end
  in
  (* A log that already holds a Run_end describes a completed run; the
     re-run must land on the very same consensus. *)
  let* () =
    let matches (e : _) =
      match e with
      | Dmw_wal.Run_end e ->
          e.schedule
          = Option.map Dmw_mechanism.Schedule.assignment result.schedule
          && e.first_prices = result.first_prices
          && e.second_prices = result.second_prices
          && e.payments = result.payments
          && e.attempts = result.attempts
          && e.excluded = result.excluded
      | _ -> true
    in
    if List.for_all matches records then Ok ()
    else Error "journaled Run_end does not match the resumed run"
  in
  Ok { result; kept = List.length old_dones; attempts_started }

(* ------------------------------------------------------------------ *)
(* Derived quantities                                                  *)
(* ------------------------------------------------------------------ *)

let completed r =
  Option.is_some r.schedule
  && List.for_all
       (fun i -> Array.mem i r.excluded || Option.is_some r.payments.(i))
       (List.init (Array.length r.payments) Fun.id)

let utility r ~true_levels ~agent =
  match r.schedule with
  | None -> 0.0
  | Some schedule ->
      let pay = Option.value ~default:0.0 r.payments.(agent) in
      let cost =
        List.fold_left
          (fun acc j -> acc +. float_of_int true_levels.(agent).(j))
          0.0
          (Dmw_mechanism.Schedule.tasks_of schedule ~agent)
      in
      pay -. cost

let utilities r ~true_levels =
  Array.init r.params.Params.n (fun agent -> utility r ~true_levels ~agent)

let pp_summary fmt r =
  Format.fprintf fmt "@[<v>%a@," Params.pp r.params;
  let pp_aborts () =
    Array.iter
      (fun s ->
        match s.aborted with
        | Some reason ->
            Format.fprintf fmt "  agent %d (%s): %a@," s.agent
              (Strategy.to_string s.strategy)
              Audit.pp_reason reason
        | None -> ())
      r.statuses
  in
  if r.attempts > 1 then
    Format.fprintf fmt "re-auctioned %d time%s; excluded agents: %s@,"
      (r.attempts - 1)
      (if r.attempts > 2 then "s" else "")
      (String.concat ", "
         (Array.to_list
            (Array.map (fun i -> Printf.sprintf "A%d" (i + 1)) r.excluded)));
  (match r.schedule with
  | None ->
      Format.fprintf fmt "protocol did not complete@,";
      pp_aborts ()
  | Some schedule ->
      Format.fprintf fmt "%a" Dmw_mechanism.Schedule.pp schedule;
      (match (r.first_prices, r.second_prices) with
      | Some fp, Some sp ->
          Array.iteri
            (fun j y -> Format.fprintf fmt "T%d: y* = %d, y** = %d@," (j + 1) y sp.(j))
            fp
      | _ -> ());
      Array.iteri
        (fun i p ->
          match p with
          | Some p -> Format.fprintf fmt "P%d = %.1f@," (i + 1) p
          | None -> Format.fprintf fmt "P%d withheld@," (i + 1))
        r.payments;
      (* A quorum can complete around an aborted straggler; surface
         the audit verdicts either way. *)
      pp_aborts ());
  if r.pipeline < r.params.Params.m then
    Format.fprintf fmt "pipeline depth = %d of %d tasks@," r.pipeline
      r.params.Params.m;
  Format.fprintf fmt "messages = %d, bytes = %d, %s = %.3f s [%s backend]@]"
    (Trace.messages r.trace) (Trace.bytes r.trace)
    (if r.backend = "sim" then "virtual time" else "wall time")
    r.duration r.backend
