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

(* ------------------------------------------------------------------ *)
(* Epochs                                                              *)
(* ------------------------------------------------------------------ *)

(* One wave is one protocol run: epoch [e] of a service seeded with
   [s] is Dmw_exec.run ~seed:(s + 7919*(e-1)) over the wave's bid
   vectors — on the socket backend when live, on the simulator when
   recovery runs it. Wave 1 is thus bit for bit Dmw_exec.run ~seed:s
   on the same jobs; later waves re-salt with the same stride the
   one-shot runner uses between attempts. The run journals itself into
   [wal]: its records are the epoch's settlement. *)
let wave_inputs (cfg : config) ~epoch w_vectors =
  let m = Array.length w_vectors in
  let params =
    Params.make_exn ~group_bits:cfg.group_bits ~seed:cfg.seed ?w_max:cfg.w_max
      ~n:cfg.n ~m ~c:cfg.c ()
  in
  let bids = Array.init cfg.n (fun i -> Array.map (fun w -> w.(i)) w_vectors) in
  (cfg.seed + (7919 * (epoch - 1)), params, bids)

let run_wave (cfg : config) ~backend ?wal (seed, params, bids) =
  Dmw_exec.run ~seed ~keep_events:false ?pipeline:cfg.pipeline ?wal ~backend
    params ~bids

(* The Run_start that [run_wave]'s run journals: Dmw_exec.run's header
   with every knob the service leaves at its default. *)
let wave_header (cfg : config) (seed, params, bids) =
  Dmw_wal.Run_start
    { seed; params = Dmw_wal.snapshot_of_params params; bids;
      batching = false; hardened = false; pipeline = cfg.pipeline;
      retries = 0; watchdog = None; faults = None }

(* Job [j] of a wave ([jobs.(j)] its id) is task [j] of the epoch's
   run; its outcome is the consensus winner and prices, or a failure
   when the run reached none. *)
let wave_results ~epoch ~jobs (schedule, first_prices, second_prices) =
  Array.mapi
    (fun task job ->
      match (schedule, first_prices, second_prices) with
      | Some s, Some fp, Some sp ->
          { job; epoch; task; error = None;
            outcome =
              Some { Agent.winner = s.(task); y_star = fp.(task);
                     y_star2 = sp.(task) } }
      | _ ->
          { job; epoch; task; outcome = None;
            error = Some "wave failed: no consensus" })
    jobs

let consensus (r : Dmw_exec.result) =
  ( Option.map Dmw_mechanism.Schedule.assignment r.schedule,
    r.first_prices,
    r.second_prices )

(* A wave whose run raises still consumes its epoch number, so no two
   Epoch_start records of one journal share a number. *)
let run_epoch t wave =
  let epoch = Mutex_util.with_lock t.rmutex (fun () -> t.epochs + 1) in
  let jobs = Array.map (fun job -> job.id) wave in
  let results =
    match
      journal t (Dmw_wal.Epoch_start { epoch; jobs });
      run_wave t.cfg ?wal:t.wal
        ~backend:(Dmw_exec.socket ~timeout:t.cfg.epoch_timeout ())
        (wave_inputs t.cfg ~epoch (Array.map (fun job -> job.w_vector) wave))
    with
    | exception exn ->
        let error = Some (Printexc.to_string exn) in
        Array.mapi (fun task job -> { job; epoch; task; outcome = None; error })
          jobs
    | r ->
        let module Metrics = Dmw_obs.Metrics in
        (* Epochs last from tens of milliseconds to a few seconds. *)
        Metrics.observe ~labels:obs_labels
          ~edges:
            [| 0.001; 0.0025; 0.005; 0.01; 0.025; 0.05; 0.1; 0.25; 0.5; 1.;
               2.5; 5.; 10.; 30. |]
          "dmw_serve_epoch_seconds" r.duration;
        Metrics.bump ~labels:obs_labels "dmw_serve_epochs_total" 1;
        Metrics.bump ~labels:obs_labels "dmw_serve_jobs_total"
          (Array.length wave);
        Metrics.set ~labels:obs_labels "dmw_serve_queue_depth"
          (float_of_int (Mailbox.length t.queue));
        Metrics.bump ~labels:obs_labels "dmw_serve_settled_total"
          (Array.fold_left
             (fun k p -> if Option.is_some p then k + 1 else k)
             0 r.payments);
        wave_results ~epoch ~jobs (consensus r)
  in
  Mutex_util.with_lock t.rmutex (fun () -> t.epochs <- epoch);
  Array.iter (publish t) results

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
      run_epoch t (Array.of_list (fill_wave t [ first ] (t.cfg.max_wave - 1)));
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

(* Recovery re-derives every epoch from the journal alone, through
   Dmw_exec: signatures are backend-invariant, so the simulator stands
   in for the socket runs of the live service. *)
let recover ?journal:w records =
  let jot r = match w with None -> () | Some jw -> Dmw_wal.append jw r in
  let* (cfg : config) =
    (* A resumed service appends a fresh Serve_start segment; all
       segments must describe the same service. *)
    match
      List.filter (function Dmw_wal.Serve_start _ -> true | _ -> false) records
    with
    | [] -> Error "write-ahead log has no Serve_start header"
    | hdr :: rest when List.exists (( <> ) hdr) rest ->
        Error "write-ahead log mixes headers from different services"
    | Dmw_wal.Serve_start { n; c; group_bits; seed; w_max; pipeline; max_wave }
      :: _ -> (
        match config ~group_bits ~seed ?w_max ?pipeline ~max_wave ~n ~c () with
        | cfg -> Ok cfg
        | exception Invalid_argument e ->
            Error ("invalid journaled service parameters: " ^ e))
    | _ :: _ -> Error "unreachable: the header is a Serve_start record"
  in
  (* Fold the journal. Epochs never overlap, so each run record belongs
     to the epoch of the last Epoch_start before it; submissions that
     landed mid-run and recovery markers are skipped. An epoch recovery
     ran again holds the records of every run journaled for it. *)
  let subs = Hashtbl.create 64 in
  let order = ref [] in
  let epochs = Hashtbl.create 16 in
  let dispatched = Hashtbl.create 64 in
  let current = ref None in
  let last_epoch = ref 0 in
  let next_job = ref 0 in
  let note_job j = next_job := max !next_job (j + 1) in
  List.iter
    (fun r ->
      match r with
      | Dmw_wal.Job_submitted { job; bids } ->
          if not (Hashtbl.mem subs job) then order := job :: !order;
          Hashtbl.replace subs job bids;
          note_job job
      | Dmw_wal.Epoch_start { epoch; jobs } ->
          let runs =
            match Hashtbl.find_opt epochs epoch with
            | Some (_, runs) -> runs
            | None -> ref []
          in
          Hashtbl.replace epochs epoch (jobs, runs);
          Array.iter (fun j -> Hashtbl.replace dispatched j (); note_job j) jobs;
          last_epoch := max !last_epoch epoch;
          current := Some runs
      | Dmw_wal.Run_start _ | Dmw_wal.Attempt_start _ | Dmw_wal.Task_phase _
      | Dmw_wal.Task_done _ | Dmw_wal.Run_end _ ->
          Option.iter (fun runs -> runs := r :: !runs) !current
      | Dmw_wal.Serve_start _ | Dmw_wal.Resumed _ -> ())
    records;
  let journaled =
    Hashtbl.fold
      (fun epoch (jobs, runs) acc -> (epoch, jobs, List.rev !runs) :: acc)
      epochs []
    |> List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b)
  in
  (* The consensus a journaled Run_end settled. *)
  let run_end runs =
    List.find_map
      (function
        | Dmw_wal.Run_end e -> Some (e.schedule, e.first_prices, e.second_prices)
        | _ -> None)
      runs
  in
  let kept =
    List.fold_left
      (fun k (_, jobs, runs) ->
        if Option.is_some (run_end runs) then k + Array.length jobs else k)
      0 journaled
  in
  jot (Dmw_wal.Resumed { kept });
  (* Submissions never dispatched run [max_wave] at a time as fresh
     epochs, in submission order, after the journaled ones. *)
  let rec waves epoch = function
    | [] -> []
    | ids ->
        let wave = List.filteri (fun i _ -> i < cfg.max_wave) ids in
        let rest = List.filteri (fun i _ -> i >= cfg.max_wave) ids in
        (epoch, Array.of_list wave, []) :: waves (epoch + 1) rest
  in
  let fresh =
    waves (!last_epoch + 1)
      (List.rev !order |> List.filter (fun j -> not (Hashtbl.mem dispatched j)))
  in
  let t0 = Unix.gettimeofday () in
  let replayed = ref 0 in
  let bids j =
    match Hashtbl.find_opt subs j with
    | Some bv when Array.length bv = cfg.n -> bv
    | Some _ | None ->
        invalid_arg
          ("job " ^ string_of_int j ^ " has no journaled submission of "
         ^ string_of_int cfg.n ^ " bids")
  in
  (* An epoch whose Run_end is journaled is read off it. Any other is
     run on sim from its jobs' journaled submissions, under its
     Epoch_start journaled again: resumed from its run records when it
     has some, which must open with the header the service would have
     journaled and hold the re-run to everything they settled, or else
     fresh. *)
  let settle_epoch (epoch, jobs, runs) =
    let* outcome =
      match run_end runs with
      | Some settled -> Ok settled
      | None -> (
          match wave_inputs cfg ~epoch (Array.map bids jobs) with
          | exception Invalid_argument e ->
              Error ("epoch " ^ string_of_int epoch ^ " cannot run: " ^ e)
          | inputs -> (
              let backend = Dmw_exec.sim () in
              let replay () =
                jot (Dmw_wal.Epoch_start { epoch; jobs });
                incr replayed
              in
              match runs with
              | [] ->
                  replay ();
                  Ok (consensus (run_wave cfg ~backend ?wal:w inputs))
              | r :: _ when r = wave_header cfg inputs ->
                  replay ();
                  let* rc =
                    Dmw_exec.resume_records ~keep_events:false ~backend ?wal:w
                      runs
                  in
                  Ok (consensus rc.Dmw_exec.result)
              | _ :: _ ->
                  Error
                    ("the run journaled for epoch " ^ string_of_int epoch
                   ^ " is not the one its seed and submissions call for")))
    in
    let s, fp, sp = outcome in
    if
      List.for_all
        (Option.fold ~none:true ~some:(fun a ->
             Array.length a = Array.length jobs))
        [ s; fp; sp ]
    then Ok (wave_results ~epoch ~jobs outcome)
    else
      Error
        ("the run journaled for epoch " ^ string_of_int epoch
       ^ " does not match its jobs")
  in
  let* settled =
    List.fold_left
      (fun acc e ->
        let* acc = acc in
        let* rs = settle_epoch e in
        Ok (rs :: acc))
      (Ok []) (journaled @ fresh)
  in
  Dmw_wal.observe_recovery ~t_start:t0 ~kept
    [ ("replayed", string_of_int !replayed) ];
  let results =
    List.concat_map Array.to_list settled
    |> List.sort (fun a b -> Int.compare a.job b.job)
  in
  Ok
    { n = cfg.n; c = cfg.c; group_bits = cfg.group_bits; seed = cfg.seed;
      w_max = cfg.w_max; pipeline = cfg.pipeline; max_wave = cfg.max_wave;
      results; kept; replayed = !replayed;
      next_epoch = !last_epoch + List.length fresh;
      next_job = !next_job }

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
