open Dmw_core
open Dmw_runtime

(* The persistent auction service: a dispatcher thread that batches
   queued jobs into waves and runs each wave as one one-shot socket
   Dmw_exec.run. See the mli for the concurrency contract and
   DESIGN.md for the epoch protocol. *)

type config = {
  n : int;
  c : int;
  group_bits : int;
  seed : int;
  w_max : int option;
  pipeline : int option;
  max_wave : int;
  queue_capacity : int;
  wave_window : float;
  epoch_timeout : float;
}

let config ?(group_bits = 64) ?(seed = 0) ?w_max ?pipeline ?(max_wave = 8)
    ?(queue_capacity = 64) ?(wave_window = 0.0) ?(epoch_timeout = 30.0) ~n ~c
    () =
  if max_wave < 1 then invalid_arg "Dmw_serve_core.config: max_wave < 1";
  if queue_capacity < 1 then
    invalid_arg "Dmw_serve_core.config: queue_capacity < 1";
  if wave_window < 0.0 then
    invalid_arg "Dmw_serve_core.config: negative wave_window";
  if epoch_timeout <= 0.0 then
    invalid_arg "Dmw_serve_core.config: non-positive epoch_timeout";
  (match pipeline with
  | Some d when d < 1 -> invalid_arg "Dmw_serve_core.config: pipeline < 1"
  | Some _ | None -> ());
  { n; c; group_bits; seed; w_max; pipeline; max_wave; queue_capacity;
    wave_window; epoch_timeout }

(* race: confined extern: a job is written by the submitter, handed
   off through the job Mailbox, and read by the dispatcher — the
   mailbox's lock orders the two sides. *)
type job = { id : int; w_vector : int array }

type job_result = {
  job : int;
  epoch : int;
  task : int;
  outcome : Agent.task_outcome option;
  error : string option;
}

type t = {
  cfg : config;
  w_max : int;  (* resolved bid-range bound, for submit-time checks *)
  wal : Dmw_wal.writer option;
      (* Write-ahead journal: the writer serializes its own appends,
         so the submitter and dispatcher threads may both write. *)
  queue : job Mailbox.t;
  (* race: confined owner: written by create, read by shutdown — both
     on the thread that owns the service handle. *)
  mutable dispatcher : Thread.t option;
  (* Submission side. *)
  smutex : Mutex.t;
  mutable next_job : int;
  (* Result side: published under rmutex, watched through rcond. A
     result stays in [results] until it is handed out; [waiting] counts
     the callers blocked in [await] on each id. *)
  rmutex : Mutex.t;
  rcond : Condition.t;
  results : (int, job_result) Hashtbl.t;
  waiting : (int, int) Hashtbl.t;
  mutable epochs : int;
  mutable jobs_done : int;
  mutable stopped : bool;
  (* Dispatcher gate for deterministic test setup. *)
  pmutex : Mutex.t;
  pcond : Condition.t;
  mutable paused : bool;
}

let obs_labels = [ ("backend", "serve") ]

let journal t r =
  match t.wal with None -> () | Some w -> Dmw_wal.append w r

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

let publish t r =
  Mutex_util.with_lock t.rmutex (fun () ->
      Hashtbl.replace t.results r.job r;
      t.jobs_done <- t.jobs_done + 1;
      Condition.broadcast t.rcond)

(* Each result is handed out once: to every caller already blocked on
   its id when it settles, or else to the first caller after; the last
   of them drops it, so a long-running service keeps no result that has
   been delivered. *)
let await t id =
  Mutex_util.with_lock t.rmutex (fun () ->
      let blocked () = Option.value (Hashtbl.find_opt t.waiting id) ~default:0 in
      Hashtbl.replace t.waiting id (blocked () + 1);
      let rec wait () =
        match Hashtbl.find_opt t.results id with
        | Some r -> Some r
        | None ->
            if t.stopped then None
            else begin
              Condition.wait t.rcond t.rmutex;
              wait ()
            end
      in
      let r = wait () in
      let left = blocked () - 1 in
      if left > 0 then Hashtbl.replace t.waiting id left
      else begin
        Hashtbl.remove t.waiting id;
        Hashtbl.remove t.results id
      end;
      r)

type stats = { epochs : int; jobs : int; queue_depth : int }

let stats t =
  Mutex_util.with_lock t.rmutex (fun () ->
      { epochs = t.epochs; jobs = t.jobs_done;
        queue_depth = Mailbox.length t.queue })

(* The journal record of one job's settlement. *)
let settlement (r : job_result) =
  match r.outcome with
  | Some o ->
      Dmw_wal.Job_done
        { job = r.job; epoch = r.epoch; task = r.task; winner = o.Agent.winner;
          y_star = o.Agent.y_star; y_star2 = o.Agent.y_star2 }
  | None ->
      Dmw_wal.Job_failed
        { job = r.job; epoch = r.epoch; task = r.task;
          error = Option.value r.error ~default:"unknown" }

let settle t r =
  journal t (settlement r);
  publish t r

(* ------------------------------------------------------------------ *)
(* Epochs                                                              *)
(* ------------------------------------------------------------------ *)

(* One wave is one protocol run: epoch [e] of a service seeded with
   [s] is Dmw_exec.run ~seed:(s + 7919*(e-1)) over the wave's bid
   vectors — on the socket backend when live, on the simulator when
   recovery replays it. Wave 1 is thus bit for bit Dmw_exec.run
   ~seed:s on the same jobs; later waves re-salt with the same stride
   the one-shot runner uses between attempts. Job [j] of the wave
   ([jobs.(j)] its id) is task [j]; its outcome is the consensus
   winner and prices, or a failure when the wave reached none. *)
let run_wave (cfg : config) ~backend ~epoch ~jobs w_vectors =
  let m = Array.length w_vectors in
  let params =
    Params.make_exn ~group_bits:cfg.group_bits ~seed:cfg.seed ?w_max:cfg.w_max
      ~n:cfg.n ~m ~c:cfg.c ()
  in
  let bids = Array.init cfg.n (fun i -> Array.map (fun w -> w.(i)) w_vectors) in
  let r =
    Dmw_exec.run ~seed:(cfg.seed + (7919 * (epoch - 1))) ~keep_events:false
      ?pipeline:cfg.pipeline ~backend params ~bids
  in
  let result task =
    match (r.schedule, r.first_prices, r.second_prices) with
    | Some s, Some fp, Some sp ->
        let winner = (Dmw_mechanism.Schedule.assignment s).(task) in
        { job = jobs.(task); epoch; task; error = None;
          outcome =
            Some { Agent.winner; y_star = fp.(task); y_star2 = sp.(task) } }
    | _ ->
        { job = jobs.(task); epoch; task; outcome = None;
          error = Some "wave failed: no consensus" }
  in
  (r, Array.init m result)

let run_epoch t wave =
  let epoch = Mutex_util.with_lock t.rmutex (fun () -> t.epochs + 1) in
  let jobs = Array.map (fun job -> job.id) wave in
  journal t (Dmw_wal.Epoch_start { epoch; jobs });
  let r, results =
    run_wave t.cfg ~epoch ~jobs
      ~backend:(Dmw_exec.socket ~timeout:t.cfg.epoch_timeout ())
      (Array.map (fun job -> job.w_vector) wave)
  in
  let module Metrics = Dmw_obs.Metrics in
  (* Epochs last from tens of milliseconds to a few seconds. *)
  Metrics.observe ~labels:obs_labels
    ~edges:
      [| 0.001; 0.0025; 0.005; 0.01; 0.025; 0.05; 0.1; 0.25; 0.5; 1.; 2.5;
         5.; 10.; 30. |]
    "dmw_serve_epoch_seconds" r.duration;
  Metrics.bump ~labels:obs_labels "dmw_serve_epochs_total" 1;
  Metrics.bump ~labels:obs_labels "dmw_serve_jobs_total" (Array.length wave);
  Metrics.set ~labels:obs_labels "dmw_serve_queue_depth"
    (float_of_int (Mailbox.length t.queue));
  Metrics.bump ~labels:obs_labels "dmw_serve_settled_total"
    (Array.fold_left
       (fun k p -> if Option.is_some p then k + 1 else k)
       0 r.payments);
  Mutex_util.with_lock t.rmutex (fun () -> t.epochs <- epoch);
  Array.iter (settle t) results;
  journal t (Dmw_wal.Epoch_end { epoch })

let fail_wave t wave message =
  (* t.epochs is owned by rmutex; the dispatcher may be bumping it
     concurrently, so take the same snapshot run_epoch does. *)
  let epoch = Mutex_util.with_lock t.rmutex (fun () -> t.epochs + 1) in
  Array.iteri
    (fun task job ->
      settle t
        { job = job.id; epoch; task; outcome = None; error = Some message })
    wave

(* ------------------------------------------------------------------ *)
(* Dispatcher                                                          *)
(* ------------------------------------------------------------------ *)

let wait_resumed t =
  Mutex_util.with_lock t.pmutex (fun () ->
      while t.paused do
        Condition.wait t.pcond t.pmutex
      done)

(* Take everything already queued, up to the wave bound. *)
let rec fill_wave t acc k =
  if k = 0 then List.rev acc
  else
    match Mailbox.try_pop t.queue with
    | None -> List.rev acc
    | Some job -> fill_wave t (job :: acc) (k - 1)

let rec dispatch t =
  wait_resumed t;
  match Mailbox.pop t.queue with
  | None -> ()  (* closed and drained: shutdown *)
  | Some first ->
      if t.cfg.wave_window > 0.0 then Thread.delay t.cfg.wave_window;
      let wave = Array.of_list (fill_wave t [ first ] (t.cfg.max_wave - 1)) in
      (try run_epoch t wave
       with exn -> fail_wave t wave (Printexc.to_string exn));
      dispatch t

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let resume t =
  Mutex_util.with_lock t.pmutex (fun () ->
      t.paused <- false;
      Condition.broadcast t.pcond)

let create ?(paused = false) ?wal ?(epoch_base = 0) ?(job_base = 0) cfg =
  if epoch_base < 0 then invalid_arg "Dmw_serve_core.create: epoch_base < 0";
  if job_base < 0 then invalid_arg "Dmw_serve_core.create: job_base < 0";
  match
    Params.make ~group_bits:cfg.group_bits ~seed:cfg.seed ?w_max:cfg.w_max
      ~n:cfg.n ~m:1 ~c:cfg.c ()
  with
  | Error e -> invalid_arg ("Dmw_serve_core.create: " ^ e)
  | Ok probe ->
      let t =
        { cfg;
          w_max = probe.Params.w_max;
          wal;
          queue = Mailbox.create ~capacity:cfg.queue_capacity ();
          dispatcher = None;
          smutex = Mutex.create ();
          next_job = job_base;
          rmutex = Mutex.create ();
          rcond = Condition.create ();
          results = Hashtbl.create 64;
          waiting = Hashtbl.create 16;
          epochs = epoch_base;
          jobs_done = 0;
          stopped = false;
          pmutex = Mutex.create ();
          pcond = Condition.create ();
          paused }
      in
      journal t
        (Dmw_wal.Serve_start
           { n = cfg.n; c = cfg.c; group_bits = cfg.group_bits;
             seed = cfg.seed; w_max = cfg.w_max; pipeline = cfg.pipeline;
             max_wave = cfg.max_wave });
      t.dispatcher <- Some (Thread.create dispatch t);
      t

let submit t ~bids =
  if Array.length bids <> t.cfg.n then
    `Invalid
      (Printf.sprintf "expected %d bid levels, got %d" t.cfg.n
         (Array.length bids))
  else if not (Array.for_all (fun w -> w >= 1 && w <= t.w_max) bids) then
    `Invalid (Printf.sprintf "bid levels must lie in 1..%d" t.w_max)
  else
    Mutex_util.with_lock t.smutex (fun () ->
        let id = t.next_job in
        match Mailbox.try_push t.queue { id; w_vector = bids } with
        | `Ok ->
            t.next_job <- id + 1;
            journal t
              (Dmw_wal.Job_submitted { job = id; bids = Array.copy bids });
            `Accepted id
        | `Full -> `Busy
        | `Closed -> `Closed)

let shutdown t =
  Mailbox.close t.queue;
  resume t;  (* a paused dispatcher must still wake up to drain *)
  (match t.dispatcher with
  | Some th ->
      Thread.join th;
      t.dispatcher <- None
  | None -> ());
  Mutex_util.with_lock t.rmutex (fun () ->
      t.stopped <- true;
      Condition.broadcast t.rcond)

(* ------------------------------------------------------------------ *)
(* Crash recovery                                                      *)
(* ------------------------------------------------------------------ *)

type recovery = {
  n : int;
  c : int;
  group_bits : int;
  seed : int;
  w_max : int option;
  pipeline : int option;
  max_wave : int;
  results : job_result list;
  kept : int;
  replayed : int;
  next_epoch : int;
  next_job : int;
}

let ( let* ) = Result.bind

(* Recovery re-derives every interrupted epoch from the journal alone:
   run_wave on the sim backend replays a socket service's waves bit for
   bit, because signatures are backend-invariant. Settlements the
   crashed process already journaled become obligations the replay must
   reproduce. *)
let recover ?journal:w records =
  let jot r = match w with None -> () | Some jw -> Dmw_wal.append jw r in
  let* hdr =
    let rec find = function
      | [] -> Error "write-ahead log has no Serve_start header"
      | (Dmw_wal.Serve_start _ as h) :: _ -> Ok h
      | _ :: rest -> find rest
    in
    find records
  in
  let* () =
    (* A resumed service appends a fresh Serve_start segment; all
       segments must describe the same service. *)
    if
      List.for_all
        (function Dmw_wal.Serve_start _ as r -> r = hdr | _ -> true)
        records
    then Ok ()
    else Error "write-ahead log mixes headers from different services"
  in
  let* (cfg : config) =
    match hdr with
    | Dmw_wal.Serve_start { n; c; group_bits; seed; w_max; pipeline; max_wave }
      -> (
        match config ~group_bits ~seed ?w_max ?pipeline ~max_wave ~n ~c () with
        | cfg -> Ok cfg
        | exception Invalid_argument e ->
            Error ("invalid journaled service parameters: " ^ e))
    | _ -> Error "unreachable: the header is a Serve_start record"
  in
  (* Fold the journal; the last record naming a job or epoch wins, so
     recovering an already-recovered log sees the repaired state. *)
  let subs = Hashtbl.create 64 in
  let order = ref [] in
  let settled = Hashtbl.create 64 in
  let estarts = Hashtbl.create 16 in
  let eends = Hashtbl.create 16 in
  let dispatched = Hashtbl.create 64 in
  let max_epoch = ref 0 in
  let max_job = ref (-1) in
  let note_job j = if j > !max_job then max_job := j in
  List.iter
    (fun r ->
      match r with
      | Dmw_wal.Job_submitted { job; bids } ->
          if not (Hashtbl.mem subs job) then order := job :: !order;
          Hashtbl.replace subs job bids;
          note_job job
      | Dmw_wal.Epoch_start { epoch; jobs } ->
          Hashtbl.replace estarts epoch jobs;
          Array.iter (fun j -> Hashtbl.replace dispatched j ()) jobs;
          if epoch > !max_epoch then max_epoch := epoch
      | Dmw_wal.Epoch_end { epoch } -> Hashtbl.replace eends epoch ()
      | Dmw_wal.Job_done { job; epoch; task; winner; y_star; y_star2 } ->
          Hashtbl.replace settled job
            { job; epoch; task;
              outcome = Some { Agent.winner; y_star; y_star2 };
              error = None };
          note_job job
      | Dmw_wal.Job_failed { job; epoch; task; error } ->
          Hashtbl.replace settled job
            { job; epoch; task; outcome = None; error = Some error };
          note_job job
      | _ -> ())
    records;
  let kept = Hashtbl.length settled in
  jot (Dmw_wal.Resumed { kept });
  (* Waves still owed an execution: journaled epochs that never reached
     their Epoch_end, then never-dispatched submissions batched
     [max_wave] at a time into fresh epochs, in submission order. *)
  let unfinished =
    Hashtbl.fold
      (fun e jobs acc -> if Hashtbl.mem eends e then acc else (e, jobs) :: acc)
      estarts []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  let fresh_ids =
    List.rev !order
    |> List.filter (fun j ->
           (not (Hashtbl.mem dispatched j)) && not (Hashtbl.mem settled j))
  in
  let rec take k = function
    | x :: rest when k > 0 ->
        let xs, rest' = take (k - 1) rest in
        (x :: xs, rest')
    | rest -> ([], rest)
  in
  let rec batch acc = function
    | [] -> List.rev acc
    | ids ->
        let wave, rest = take cfg.max_wave ids in
        batch (Array.of_list wave :: acc) rest
  in
  let fresh_waves =
    List.mapi (fun k ids -> (!max_epoch + 1 + k, ids)) (batch [] fresh_ids)
  in
  let next_epoch = !max_epoch + List.length fresh_waves in
  let replayed = ref 0 in
  let replay (epoch, ids) =
    let* w_vectors =
      Array.fold_left
        (fun acc j ->
          let* acc = acc in
          match Hashtbl.find_opt subs j with
          | Some bv when Array.length bv = cfg.n -> Ok (bv :: acc)
          | Some _ ->
              Error
                ("journaled bids for job " ^ string_of_int j
               ^ " do not match the population size")
          | None ->
              Error
                ("epoch " ^ string_of_int epoch ^ " references job "
               ^ string_of_int j ^ " with no journaled submission"))
        (Ok []) ids
    in
    jot (Dmw_wal.Epoch_start { epoch; jobs = ids });
    let* results =
      match
        run_wave cfg ~backend:(Dmw_exec.sim ()) ~epoch ~jobs:ids
          (Array.of_list (List.rev w_vectors))
      with
      | _, results -> Ok results
      | exception Invalid_argument e -> Error ("replay failed: " ^ e)
    in
    let* () =
      Array.fold_left
        (fun acc (result : job_result) ->
          let* () = acc in
          let* () =
            (* A value the crashed process journaled must be reproduced
               exactly; a journaled environmental failure may be healed
               by the replay. *)
            match Hashtbl.find_opt settled result.job with
            | Some { outcome = Some o1; _ } -> (
                match result.outcome with
                | Some o2 when o1 = o2 -> Ok ()
                | Some _ | None ->
                    Error
                      ("journaled settlement of job " ^ string_of_int result.job
                     ^ " does not match the replayed epoch "
                     ^ string_of_int epoch))
            | Some { outcome = None; _ } | None -> Ok ()
          in
          jot (settlement result);
          Hashtbl.replace settled result.job result;
          Ok ())
        (Ok ()) results
    in
    jot (Dmw_wal.Epoch_end { epoch });
    incr replayed;
    Ok ()
  in
  let* () =
    List.fold_left
      (fun acc wave ->
        let* () = acc in
        replay wave)
      (Ok ()) (unfinished @ fresh_waves)
  in
  (match w with Some jw -> Dmw_wal.sync jw | None -> ());
  let module Metrics = Dmw_obs.Metrics in
  if Metrics.enabled () then begin
    Metrics.bump ~labels:obs_labels "dmw_wal_recoveries_total" 1;
    Metrics.bump ~labels:obs_labels "dmw_wal_recovered_records_total" kept
  end;
  let results =
    Hashtbl.fold (fun _ r acc -> r :: acc) settled []
    |> List.sort (fun a b -> Int.compare a.job b.job)
  in
  Ok
    { n = cfg.n; c = cfg.c; group_bits = cfg.group_bits; seed = cfg.seed;
      w_max = cfg.w_max; pipeline = cfg.pipeline; max_wave = cfg.max_wave;
      results; kept; replayed = !replayed; next_epoch;
      next_job = !max_job + 1 }

(* ------------------------------------------------------------------ *)
(* Front door                                                          *)
(* ------------------------------------------------------------------ *)

module Front = struct
  type server = {
    listen_fd : Unix.file_descr;
    path : string;
    accept_thread : Thread.t;
    closing : bool Atomic.t;
  }

  let write_line fd line =
    let s = line ^ "\n" in
    let len = String.length s in
    let rec go off =
      if off < len then
        let k = Unix.write_substring fd s off (len - off) in
        go (off + k)
    in
    go 0

  let result_line (r : job_result) =
    match r.outcome with
    | Some o ->
        Printf.sprintf "result %d epoch=%d task=%d winner=%d ystar=%d ystar2=%d"
          r.job r.epoch r.task o.Agent.winner o.Agent.y_star o.Agent.y_star2
    | None ->
        Printf.sprintf "failed %d %s" r.job
          (Option.value r.error ~default:"unknown")

  let parse_bids s =
    match
      String.split_on_char ',' s
      |> List.map (fun field -> int_of_string_opt (String.trim field))
    with
    | fields when List.for_all Option.is_some fields ->
        Some (Array.of_list (List.filter_map Fun.id fields))
    | _ -> None

  (* Reply tokens queued by the reader, resolved in order by the
     writer. [`Result] blocks the writer in [await] — which is what
     keeps replies in submission order while letting the reader keep
     accepting pipelined submissions for the same wave. [Stats] is read
     when the writer reaches it, so it counts the results sent before
     it. *)
  type reply = Line of string | Result of int | Stats

  let reader t fd replies () =
    let ic = Unix.in_channel_of_descr fd in
    let rec loop () =
      match input_line ic with
      | exception End_of_file -> ()
      | exception Sys_error _ -> ()
      | line -> (
          let line = String.trim line in
          if line = "quit" then ()
          else begin
            (if line = "" then ()
             else if line = "stats" then Mailbox.push replies Stats
             else
               match
                 if String.length line > 7 && String.sub line 0 7 = "submit "
                 then parse_bids (String.sub line 7 (String.length line - 7))
                 else None
               with
               | Some bids -> (
                   match submit t ~bids with
                   | `Accepted id -> Mailbox.push replies (Result id)
                   | `Busy -> Mailbox.push replies (Line "busy")
                   | `Closed -> Mailbox.push replies (Line "error closed")
                   | `Invalid why ->
                       Mailbox.push replies (Line ("error " ^ why)))
               | None ->
                   Mailbox.push replies
                     (Line "error expected: submit w1,...,wn | stats | quit"));
            loop ()
          end)
    in
    loop ();
    Mailbox.close replies

  (* Once a write fails the client is gone, but the writer still awaits
     the connection's remaining results, so none is left undelivered in
     the service. *)
  let writer t fd replies () =
    let rec loop connected =
      match Mailbox.pop replies with
      | None -> ()
      | Some reply ->
          let line =
            match reply with
            | Line s -> s
            | Result id -> (
                match await t id with
                | Some r -> result_line r
                | None -> Printf.sprintf "failed %d service stopped" id)
            | Stats ->
                let s = stats t in
                Printf.sprintf "stats epochs=%d jobs=%d queue=%d" s.epochs
                  s.jobs s.queue_depth
          in
          loop
            (connected
            &&
            match write_line fd line with
            | () -> true
            | exception Unix.Unix_error (_, _, _) -> false)
    in
    loop true;
    try Unix.close fd with Unix.Unix_error (_, _, _) -> ()

  let start t ~socket_path =
    (* A client that hangs up before its reply must end only its own
       connection: under SIGPIPE's default action the writer's write
       would kill the process before it could raise EPIPE. *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    (try Unix.unlink socket_path with Unix.Unix_error (_, _, _) -> ());
    let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind listen_fd (Unix.ADDR_UNIX socket_path);
    Unix.listen listen_fd 16;
    let closing = Atomic.make false in
    let rec accept_loop () =
      match Unix.accept listen_fd with
      | fd, _ ->
          if Atomic.get closing then
            (try Unix.close fd with Unix.Unix_error (_, _, _) -> ())
          else begin
            let replies = Mailbox.create () in
            ignore (Thread.create (reader t fd replies) () : Thread.t);
            ignore (Thread.create (writer t fd replies) () : Thread.t);
            accept_loop ()
          end
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
      | exception Unix.Unix_error (_, _, _) -> ()  (* listener closed *)
    in
    { listen_fd; path = socket_path; closing;
      accept_thread = Thread.create accept_loop () }

  let stop s =
    Atomic.set s.closing true;
    (* Closing the fd does not wake a thread blocked in accept(2);
       a throwaway self-connection does. *)
    (let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
     (try Unix.connect fd (Unix.ADDR_UNIX s.path)
      with Unix.Unix_error (_, _, _) -> ());
     try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
    Thread.join s.accept_thread;
    (try Unix.close s.listen_fd with Unix.Unix_error (_, _, _) -> ());
    try Unix.unlink s.path with Unix.Unix_error (_, _, _) -> ()
end
