(* The repository benchmark: one workload per invocation.

     dmw_bench.exe --workload W --seed S --seconds T --trace 0|1

   --trace 0 measures the end-to-end metrics with Dmw_obs and the Zmod
   counters off. --trace 1 produces the per-layer metrics: a calibration
   pass times each layer's public functions, and the workload's first
   requests run untraced, traced, and traced again on the other path
   (sim for real-time workloads, sockets for sim). Every outcome is
   checked against a reference. The last line of standard output is
   one JSON object {"correct", "attempted", "failed", "metrics"}.
   README.md in this directory defines every workload and metric. *)

open Dmw_bigint
open Dmw_core
module Metrics = Dmw_obs.Metrics
module Span = Dmw_obs.Span
module Stats = Dmw_stats.Stats
module Serve = Dmw_serve_core
module Minwork = Dmw_mechanism.Minwork
module Schedule = Dmw_mechanism.Schedule
module Vickrey = Dmw_mechanism.Vickrey
module Counters = Dmw_modular.Zmod.Counters

exception Bench_error of string

let error fmt = Printf.ksprintf (fun s -> raise (Bench_error s)) fmt
let now = Unix.gettimeofday
let c = 1

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)

type auction = { n : int; m : int; bits : int; socket : bool }

type load =
  | Steady of float  (** open loop at this many jobs per second *)
  | Bursts of int  (** bursts of this many jobs, each due at once *)

type serve = { sn : int; sbits : int; load : load; wal : bool }
type kind = Auction of auction | Serve of serve

let workloads =
  [ ("auction-sim-64", Auction { n = 6; m = 2; bits = 64; socket = false });
    ("auction-socket-32", Auction { n = 5; m = 4; bits = 32; socket = true });
    ("serve-steady", Serve { sn = 5; sbits = 64; load = Steady 5.0; wal = false });
    ("serve-burst-wal", Serve { sn = 5; sbits = 64; load = Bursts 24; wal = true }) ]

(* The traced run covers this many requests from the start of the
   workload's request stream. *)
let traced_requests = 20
let setup_probes = 11

(* Scratch files (front-door socket, write-ahead logs) stay inside the
   checkout, named by pid. The socket path stays relative because
   sun_path holds at most 107 bytes. *)
let scratch_dir = ".bench_tmp"

let scratch name ext =
  (try Unix.mkdir scratch_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Printf.sprintf "%s/%s-%d.%s" scratch_dir name (Unix.getpid ()) ext

let remove path = try Sys.remove path with Sys_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Outcomes                                                            *)

type tally = { mutable attempted : int; mutable failed : int; mutable wrong : int }

let tally () = { attempted = 0; failed = 0; wrong = 0 }

(* A DMW run must reproduce centralized MinWork under the pseudonym-rank
   tie-break: schedule, both prices and every payment. *)
let auction_ok (p : Params.t) bids (r : Dmw_exec.result) =
  let rank = Params.pseudonym_rank p in
  let mw =
    Minwork.run
      ~tie_break:(Vickrey.Least_key (fun i -> rank.(i)))
      (Array.map (Array.map float_of_int) bids)
  in
  let prices f = Some (Array.map (fun o -> int_of_float (f o)) mw.Minwork.per_task) in
  (match r.Dmw_exec.schedule with
  | Some s -> Schedule.equal s mw.Minwork.schedule
  | None -> false)
  && r.Dmw_exec.first_prices = prices (fun o -> o.Vickrey.winning_bid)
  && r.Dmw_exec.second_prices = prices (fun o -> o.Vickrey.price)
  && Array.for_all2 (fun paid due -> paid = Some due) r.Dmw_exec.payments
       mw.Minwork.payments

type reply =
  | Settled of { epoch : int; task : int; winner : int; y : int; y2 : int }
  | Refused of string  (** busy, failed, error, or the connection closed *)

let parse_reply line =
  try
    Scanf.sscanf line "result %_d epoch=%d task=%d winner=%d ystar=%d ystar2=%d%!"
      (fun epoch task winner y y2 -> Settled { epoch; task; winner; y; y2 })
  with Scanf.Scan_failure _ | Failure _ | End_of_file -> Refused line

(* A settled job is right when the winner bid the minimum, ystar is
   that minimum and ystar2 the second-lowest bid. *)
let job_ok bids = function
  | Settled { winner; y; y2; _ } ->
      let sorted = Array.copy bids in
      Array.sort Int.compare sorted;
      winner >= 0 && winner < Array.length bids && bids.(winner) = y
      && y = sorted.(0) && y2 = sorted.(1)
  | Refused _ -> false

(* ------------------------------------------------------------------ *)
(* Auction workloads: a closed loop of Dmw_exec.run calls              *)

let params (a : auction) ~seed = Params.make_exn ~group_bits:a.bits ~seed ~n:a.n ~m:a.m ~c ()
let backend socket = if socket then Dmw_exec.socket () else Dmw_exec.sim ()

(* The request stream of a seed: bid matrices, each with the run seed
   its agents derive their randomness from. *)
let auction_requests (a : auction) (p : Params.t) ~seed =
  let rng = Prng.create ~seed in
  fun () ->
    let bids =
      Dmw_workload.Workload.random_levels rng ~n:a.n ~m:a.m ~w_max:p.Params.w_max
    in
    (bids, Prng.int rng 0x3FFFFFFF)

type run = { start : float; stop : float; result : Dmw_exec.result }

let run_auction ~socket p t (bids, seed) =
  let start = now () in
  let result = Dmw_exec.run ~seed ~keep_events:false ~backend:(backend socket) p ~bids in
  let stop = now () in
  t.attempted <- t.attempted + 1;
  if not (Dmw_exec.completed result) then t.failed <- t.failed + 1
  else if not (auction_ok p bids result) then t.wrong <- t.wrong + 1;
  { start; stop; result }

(* ------------------------------------------------------------------ *)
(* The quiet-machine gate. The benchmark shares its machine, and other
   tenants slow it by up to 2x for seconds at a time; left alone, every
   timing would measure the neighbours. A fixed sweep over memory, the
   probe, is timed between measurement windows (a request, a job or a
   burst) while the system under test idles. A window's timings count
   when the probes on both sides of it ran within [quiet] of the run's
   fastest probe. Every window's outcomes are checked all the same. *)

let quiet = 0.10

(* Sized like the workloads' allocation churn (the minor heap is 2 MB),
   so the probe feels the same cache and memory contention they do. It
   lives outside the OCaml heap and allocates nothing, so it neither
   shows in heap_peak_mb nor runs into GC work the workload left. *)
let probe_area = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (1 lsl 19)
let () = Bigarray.Array1.fill probe_area 0

let probe () =
  let once () =
    let t0 = now () in
    let a = probe_area in
    for i = 0 to Bigarray.Array1.dim a - 1 do
      Bigarray.Array1.unsafe_set a i (Bigarray.Array1.unsafe_get a i + i)
    done;
    now () -. t0
  in
  Float.min (once ()) (Float.min (once ()) (once ()))

type window = {
  samples : float list;  (** latencies, seconds *)
  span : float;  (** seconds the window took *)
  before : float;  (** probe times on either side *)
  after : float;
}

let quiet_windows windows =
  let noise w = Float.max w.before w.after in
  let best = List.fold_left (fun acc w -> Float.min acc (noise w)) infinity windows in
  let quiet_count =
    List.length (List.filter (fun w -> noise w <= best *. (1.0 +. quiet)) windows)
  in
  (* Never fewer than the quietest quarter, so a run on a machine that
     never quiets down still reports its best-measured windows. *)
  let keep = max quiet_count ((List.length windows + 3) / 4) in
  List.filteri (fun i _ -> i < keep)
    (List.stable_sort (fun a b -> Float.compare (noise a) (noise b)) windows)

(* Windows one after another, [f] running each and a probe between two,
   until [finished] holds for the windows so far. *)
let windows_until finished f =
  let rec loop before acc =
    if finished acc then List.rev acc
    else
      let samples, span = f () in
      let after = probe () in
      loop after ({ samples; span; before; after } :: acc)
  in
  loop (probe ()) []

(* ------------------------------------------------------------------ *)
(* Serve workloads: an in-process service behind its front door, and a
   load generator on one connection with at most two threads.          *)

type service = {
  svc : Serve.t;
  front : Serve.Front.server;
  fd : Unix.file_descr;
  ic : in_channel;
  sock : string;
  journal : Dmw_wal.writer option;
}

let start_service name (s : serve) ~seed =
  let journal = if s.wal then Some (Dmw_wal.create (scratch name "wal")) else None in
  let svc = Serve.create ?wal:journal (Serve.config ~group_bits:s.sbits ~seed ~n:s.sn ~c ()) in
  let sock = scratch name "sock" in
  let front = Serve.Front.start svc ~socket_path:sock in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  { svc; front; fd; ic = Unix.in_channel_of_descr fd; sock; journal }

let send fd line =
  let b = Bytes.of_string (line ^ "\n") in
  let off = ref 0 in
  while !off < Bytes.length b do
    off := !off + Unix.write fd b !off (Bytes.length b - !off)
  done

let stop_service s =
  send s.fd "quit";
  close_in_noerr s.ic;
  Serve.Front.stop s.front;
  Serve.shutdown s.svc;
  Option.iter
    (fun w ->
      Dmw_wal.close w;
      remove (Dmw_wal.path w))
    s.journal;
  remove s.sock

let job_requests (s : serve) ~seed =
  let rng = Prng.create ~seed in
  let w_max = s.sn - c - 1 in
  fun () -> Array.init s.sn (fun _ -> 1 + Prng.int rng w_max)

let submit s bids =
  send s.fd ("submit " ^ String.concat "," (Array.to_list (Array.map string_of_int bids)))

let read_reply s = try parse_reply (input_line s.ic) with End_of_file -> Refused "eof"

type job = { bids : int array; due : float; sent : float; recv : float; reply : reply }

(* Open loop: job k is due at [t0 + k / rate] whatever happened before
   it. A sender thread keeps the schedule while this thread reads the
   replies, which the front door returns in submission order, and
   probes the machine after each one, while the service idles until the
   next job is due: job k lies between probes k and k + 1. [sent] is
   read only after the join. *)
let steady s ~rate bids =
  let probes = Array.make (Array.length bids + 1) (probe ()) in
  let t0 = now () in
  let due k = t0 +. (float_of_int k /. rate) in
  let sent = Array.make (Array.length bids) 0.0 in
  let sender =
    Thread.create
      (Array.iteri (fun k b ->
           let wait = due k -. now () in
           if wait > 0.0 then Thread.delay wait;
           sent.(k) <- now ();
           submit s b))
      bids
  in
  let replies =
    Array.mapi
      (fun k _ ->
        let reply = read_reply s in
        let recv = now () in
        probes.(k + 1) <- probe ();
        (recv, reply))
      bids
  in
  Thread.join sender;
  ( Array.mapi
      (fun k b ->
        let recv, reply = replies.(k) in
        { bids = b; due = due k; sent = sent.(k); recv; reply })
      bids,
    probes )

(* One burst: every job due at once; the caller sends the next burst
   only after the last reply of this one. *)
let burst s bids =
  let due = now () in
  let sent = Array.map (fun b -> submit s b; now ()) bids in
  Array.mapi
    (fun k b ->
      let reply = read_reply s in
      { bids = b; due; sent = sent.(k); recv = now (); reply })
    bids

(* One untimed job first, so first-use costs land before timing. *)
let warm_up s bids =
  submit s bids;
  if not (job_ok bids (read_reply s)) then error "warm-up job failed"

(* ------------------------------------------------------------------ *)
(* Set-up time. Each sample is a fresh process, so work a change moves
   into a cache filled on first use still counts in every sample.     *)

let set_up name kind ~seed =
  match kind with
  | Auction a -> ignore (params a ~seed : Params.t); Fun.id
  | Serve s ->
      let svc = start_service name s ~seed in
      fun () -> stop_service svc

let setup_probe name kind ~seed =
  let t0 = now () in
  let tear_down = set_up name kind ~seed in
  let dt = now () -. t0 in
  tear_down ();
  Printf.printf "%.9f\n%!" dt

let setup_seconds name ~seed =
  let child () =
    let ic =
      Unix.open_process_args_in Sys.executable_name
        [| Sys.executable_name; "--setup-probe"; "--workload"; name; "--seed";
           string_of_int seed |]
    in
    let line = try input_line ic with End_of_file -> "" in
    match (Unix.close_process_in ic, float_of_string_opt line) with
    | Unix.WEXITED 0, Some dt -> dt
    | _ -> error "set-up probe failed"
  in
  let windows =
    windows_until
      (fun acc -> List.length acc = setup_probes)
      (fun () ->
        let dt = child () in
        ([ dt ], dt))
  in
  Stats.median (List.concat_map (fun w -> w.samples) (quiet_windows windows))

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

let ms s = s *. 1000.0
let mean = function [] -> 0.0 | xs -> Stats.mean xs
let heap_mb () = float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

let report t metrics =
  List.iter (fun (name, v, unit) -> Printf.printf "  %-36s %16.6f %s\n" name v unit) metrics;
  let field (name, v, unit) =
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name
      (if Float.is_finite v then v else 0.0)
      unit
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (t.wrong = 0) t.attempted t.failed
    (String.concat ", " (List.map field metrics));
  if t.wrong > 0 || t.failed > 0 then exit 1

let record_jobs t jobs =
  Array.iter
    (fun j ->
      t.attempted <- t.attempted + 1;
      match j.reply with
      | Refused _ -> t.failed <- t.failed + 1
      | Settled _ -> if not (job_ok j.bids j.reply) then t.wrong <- t.wrong + 1)
    jobs

(* ------------------------------------------------------------------ *)
(* --trace 0: the end-to-end metrics                                   *)

let end_to_end name kind ~seed ~seconds =
  let setup_s = setup_seconds name ~seed in
  let t = tally () in
  let t0 = now () in
  let for_seconds acc = acc <> [] && now () -. t0 >= seconds in
  let latencies jobs = Array.to_list (Array.map (fun j -> j.recv -. j.due) jobs) in
  let windows =
    match kind with
    | Auction a ->
        let p = params a ~seed in
        let next = auction_requests a p ~seed in
        ignore (run_auction ~socket:a.socket p (tally ()) (auction_requests a p ~seed ()));
        windows_until for_seconds (fun () ->
            let r = run_auction ~socket:a.socket p t (next ()) in
            ([ r.stop -. r.start ], r.stop -. r.start))
    | Serve s -> (
        let svc = start_service name s ~seed in
        let next = job_requests s ~seed in
        warm_up svc (job_requests s ~seed:(seed + 1) ());
        Fun.protect ~finally:(fun () -> stop_service svc) @@ fun () ->
        match s.load with
        | Steady rate ->
            let count = max 1 (int_of_float (seconds *. rate)) in
            let jobs, probes = steady svc ~rate (Array.init count (fun _ -> next ())) in
            record_jobs t jobs;
            List.mapi
              (fun k latency ->
                { samples = [ latency ]; span = 0.0; before = probes.(k); after = probes.(k + 1) })
              (latencies jobs)
        | Bursts size ->
            windows_until for_seconds (fun () ->
                let jobs = burst svc (Array.init size (fun _ -> next ())) in
                record_jobs t jobs;
                (latencies jobs, List.fold_left Float.max 0.0 (latencies jobs))))
  in
  let wall = now () -. t0 in
  let kept = quiet_windows windows in
  let samples = List.concat_map (fun w -> w.samples) kept in
  (* A closed loop's throughput is what its quiet windows completed per
     second they took. An open loop completes what it is offered: its
     throughput is the offered rate as delivered over the whole run. *)
  let throughput =
    match kind with
    | Serve { load = Steady _; _ } -> float_of_int (t.attempted - t.failed) /. wall
    | Auction _ | Serve { load = Bursts _; _ } ->
        float_of_int (List.length samples) /. List.fold_left (fun acc w -> acc +. w.span) 0.0 kept
  in
  Printf.printf "%s: %d requests (%d failed, %d wrong) in %.1f s; %d of %d windows quiet, %d latency samples\n"
    name t.attempted t.failed t.wrong wall (List.length kept) (List.length windows)
    (List.length samples);
  report t
    [ ("setup_s", setup_s, "s");
      ("latency_p50_ms", ms (Stats.percentile samples ~p:50.0), "ms");
      ("latency_p90_ms", ms (Stats.percentile samples ~p:90.0), "ms");
      ("throughput_per_s", throughput, "req/s");
      ("heap_peak_mb", heap_mb (), "MB") ]

(* ------------------------------------------------------------------ *)
(* --trace 1: the per-layer metrics                                    *)

(* What one pass over the traced requests leaves behind. A request is
   one Dmw_exec.run (m tasks) or one serve job (one task). *)
type pass = {
  requests : int;
  tasks : int;
  busy : float;  (** seconds of service per request *)
  latencies : float list;
  lags : float list;  (** how late the load generator sent each request *)
  minor_words : float;
  realtime : bool;  (** wall-clock spans over real sockets *)
  checks : int;  (** Σ checks_performed over the agents of sim runs *)
  waves : (int * (int array * reply) list) list;  (** serve epoch → its jobs *)
  (* Read back from Dmw_obs and the Zmod counters by [traced]. *)
  counters : (string * int) list;
  spans : Span.completed list;
  epoch_s : float;  (** mean of dmw_serve_epoch_seconds *)
  muls : int;
}

let blank =
  { requests = 0; tasks = 0; busy = 0.0; latencies = []; lags = []; minor_words = 0.0;
    realtime = false; checks = 0; waves = []; counters = []; spans = []; epoch_s = 0.0;
    muls = 0 }

let counter_names =
  [ "dmw_modexp_total"; "dmw_commitments_total"; "dmw_resolution_tests_total";
    "dmw_messages_total"; "dmw_bytes_total"; "dmw_frames_total"; "dmw_wire_bytes_total";
    "dmw_sim_events_total"; "dmw_wal_records_total"; "dmw_wal_bytes_total";
    "dmw_wal_fsyncs_total"; "dmw_serve_epochs_total" ]

(* Sums over every label set, in one walk of the registry. *)
let read_obs () =
  let counts = Hashtbl.create 16 in
  let sum = ref 0.0 and count = ref 0 in
  List.iter
    (function
      | Metrics.Counter { name; value; _ } ->
          Hashtbl.replace counts name (value + Option.value (Hashtbl.find_opt counts name) ~default:0)
      | Metrics.Hist { name = "dmw_serve_epoch_seconds"; snapshot; _ } ->
          sum := !sum +. snapshot.Metrics.Histogram.sum;
          count := !count + snapshot.Metrics.Histogram.count
      | Metrics.Hist _ | Metrics.Gauge _ -> ())
    (Metrics.samples ());
  ( List.map (fun n -> (n, Option.value (Hashtbl.find_opt counts n) ~default:0)) counter_names,
    if !count = 0 then 0.0 else !sum /. float_of_int !count )

(* Run [f] with Dmw_obs and the Zmod counters on, then read back what
   they recorded. *)
let traced f =
  Metrics.reset ();
  Span.reset ();
  Counters.reset ();
  Metrics.enable ();
  Counters.enable ();
  let pass =
    Fun.protect
      ~finally:(fun () ->
        Metrics.disable ();
        Counters.disable ())
      f
  in
  let counters, epoch_s = read_obs () in
  { pass with counters; epoch_s; spans = Span.completed (); muls = Counters.multiplications () }

let with_minor_words f =
  let w0 = Gc.minor_words () in
  let x = f () in
  (x, Gc.minor_words () -. w0)

let rec gaps = function
  | a :: (b :: _ as rest) -> (b.start -. a.stop) :: gaps rest
  | [] | [ _ ] -> []

let checks_of (r : Dmw_exec.result) =
  Array.fold_left
    (fun acc (s : Dmw_exec.agent_status) -> acc + s.Dmw_exec.checks_performed)
    0 r.Dmw_exec.statuses

let auction_pass (a : auction) p t ~socket requests () =
  let runs, minor_words =
    with_minor_words (fun () -> List.map (run_auction ~socket p t) requests)
  in
  let latencies = List.map (fun r -> r.stop -. r.start) runs in
  { blank with
    requests = List.length runs;
    tasks = a.m * List.length runs;
    busy = mean latencies;
    latencies;
    lags = gaps runs;
    minor_words;
    realtime = socket;
    checks = (if socket then 0 else List.fold_left (fun acc r -> acc + checks_of r.result) 0 runs) }

let serve_pass name (s : serve) t ~seed ~trace bids =
  let svc = start_service name s ~seed in
  Fun.protect ~finally:(fun () -> stop_service svc) @@ fun () ->
  warm_up svc (job_requests s ~seed:(seed + 1) ());
  let measure () =
    let jobs, minor_words =
      with_minor_words (fun () ->
          match s.load with
          | Steady rate -> fst (steady svc ~rate bids)
          | Bursts _ -> burst svc bids)
    in
    record_jobs t jobs;
    let jobs = Array.to_list jobs in
    let latencies = List.map (fun j -> j.recv -. j.due) jobs in
    let first_due = List.fold_left (fun acc j -> Float.min acc j.due) infinity jobs in
    let last_recv = List.fold_left (fun acc j -> Float.max acc j.recv) 0.0 jobs in
    let epochs =
      List.sort_uniq Int.compare
        (List.filter_map
           (fun j -> match j.reply with Settled { epoch; _ } -> Some epoch | Refused _ -> None)
           jobs)
    in
    let wave e =
      List.filter
        (fun j -> match j.reply with Settled { epoch; _ } -> epoch = e | Refused _ -> false)
        jobs
    in
    { blank with
      requests = List.length jobs;
      tasks = List.length jobs;
      (* Open-loop jobs are served one at a time; burst jobs overlap, so
         their service time is the burst's span over its jobs. *)
      busy =
        (match s.load with
        | Steady _ -> mean latencies
        | Bursts _ -> (last_recv -. first_due) /. float_of_int (List.length jobs));
      latencies;
      lags = List.map (fun j -> j.sent -. j.due) jobs;
      minor_words;
      realtime = true;
      waves = List.map (fun e -> (e, List.map (fun j -> (j.bids, j.reply)) (wave e))) epochs }
  in
  if trace then traced measure else measure ()

(* The epochs of a serve pass replayed on the simulator: epoch e of a
   service seeded s is Dmw_exec.run ~seed:(s + 7919 (e - 1)) over its
   wave, so the replay must settle every job exactly as the service
   did. *)
let replay_waves (s : serve) t ~seed waves () =
  let tasks, checks =
    List.fold_left
      (fun (tasks, checks) (epoch, jobs) ->
        let m = List.length jobs in
        let p = Params.make_exn ~group_bits:s.sbits ~seed ~n:s.sn ~m ~c () in
        let bids = Array.init s.sn (fun i -> Array.of_list (List.map (fun (b, _) -> b.(i)) jobs)) in
        let r = Dmw_exec.run ~seed:(seed + (7919 * (epoch - 1))) ~keep_events:false p ~bids in
        t.attempted <- t.attempted + 1;
        if not (Dmw_exec.completed r) then t.failed <- t.failed + 1;
        List.iter
          (fun (_, reply) ->
            let same =
              match (reply, r.Dmw_exec.schedule, r.Dmw_exec.first_prices, r.Dmw_exec.second_prices) with
              | Settled { task; winner; y; y2; _ }, Some sched, Some fp, Some sp ->
                  Schedule.agent_of sched ~task = winner && fp.(task) = y && sp.(task) = y2
              | _ -> false
            in
            if not same then t.wrong <- t.wrong + 1)
          jobs;
        (tasks + m, checks + checks_of r))
      (0, 0) waves
  in
  { blank with requests = tasks; tasks; checks }

let per_layer name kind ~seed =
  let t = tally () in
  let n, bits = match kind with Auction a -> (a.n, a.bits) | Serve s -> (s.sn, s.sbits) in
  let calib =
    Calib.run ~group:(Dmw_modular.Group.standard ~bits) ~n ~c ~seed
      ~wal_path:(scratch name "calib.wal")
  in
  let untraced, primary, mirror =
    match kind with
    | Auction a ->
        let p = params a ~seed in
        let next = auction_requests a p ~seed in
        let requests = List.init traced_requests (fun _ -> next ()) in
        ignore (run_auction ~socket:a.socket p (tally ()) (auction_requests a p ~seed ()));
        let untraced = auction_pass a p t ~socket:a.socket requests () in
        let primary = traced (auction_pass a p t ~socket:a.socket requests) in
        let mirror = traced (auction_pass a p t ~socket:(not a.socket) requests) in
        (untraced, primary, mirror)
    | Serve s ->
        let next = job_requests s ~seed in
        let bids = Array.init traced_requests (fun _ -> next ()) in
        let untraced = serve_pass name s t ~seed ~trace:false bids in
        let primary = serve_pass name s t ~seed ~trace:true bids in
        let mirror = traced (replay_waves s t ~seed primary.waves) in
        (untraced, primary, mirror)
  in
  let sim, rt = if primary.realtime then (mirror, primary) else (primary, mirror) in
  let count p name = float_of_int (Option.value (List.assoc_opt name p.counters) ~default:0) in
  let per_task p name = count p name /. float_of_int p.tasks in
  let per_request name = count primary name /. float_of_int primary.requests in
  let span_ms name =
    mean
      (List.filter_map
         (fun (s : Span.completed) ->
           if String.equal s.Span.name name then Some (ms (s.Span.t_stop -. s.Span.t_start))
           else None)
         rt.spans)
  in
  let cost = Calib.cost calib in
  let instances =
    match kind with Auction _ -> float_of_int primary.requests | Serve _ -> count primary "dmw_serve_epochs_total"
  in
  let epoch_ms = match kind with Auction _ -> span_ms "run" | Serve _ -> ms primary.epoch_s in
  (* Where the time of one request goes: each disjoint operation's
     traced count per request times its calibrated cost; the residual is
     whatever the counted operations do not explain. *)
  let modexps = per_request "dmw_modexp_total" in
  let ledger =
    [ ("modexp", modexps *. cost "group.pow_ns" /. 1e6);
      ( "mul outside modexp",
        Float.max 0.0
          ((float_of_int primary.muls /. float_of_int primary.requests)
          -. (modexps *. calib.Calib.muls_per_pow))
        *. cost "zmod.mul_ns" /. 1e6 );
      ( "codec + frame",
        per_request "dmw_frames_total"
        *. (cost "codec.encode_ns" +. cost "codec.decode_ns" +. cost "frame.encode_ns"
          +. cost "frame.decode_ns")
        /. 1e6 );
      ( "wal",
        (per_request "dmw_wal_records_total" *. cost "wal.append_ns" /. 1e6)
        +. (per_request "dmw_wal_fsyncs_total" *. cost "wal.sync_ms") ) ]
  in
  let busy_ms = ms untraced.busy in
  let residual = busy_ms -. List.fold_left (fun acc (_, v) -> acc +. v) 0.0 ledger in
  Printf.printf "%s: where one request's %.3f ms goes (traced counts x calibrated cost)\n"
    name busy_ms;
  List.iter
    (fun (what, v) -> Printf.printf "  %-20s %10.3f ms %6.1f %%\n" what v (100.0 *. v /. busy_ms))
    (ledger @ [ ("residual", residual) ]);
  report t
    (calib.Calib.costs
    @ [ ("group.modexps_per_task", per_task primary "dmw_modexp_total", "count");
        ("zmod.muls_per_task", float_of_int primary.muls /. float_of_int primary.tasks, "count");
        ("pedersen.commits_per_task", per_task primary "dmw_commitments_total", "count");
        ("exponent_resolution.tests_per_task", per_task primary "dmw_resolution_tests_total", "count");
        ("agent.checks_per_task", float_of_int sim.checks /. float_of_int sim.tasks, "count");
        ("process.minor_words_per_task", untraced.minor_words /. float_of_int untraced.tasks, "words");
        ( "group.modexp_excess_pct",
          100.0 *. ((per_task rt "dmw_modexp_total" /. per_task sim "dmw_modexp_total") -. 1.0),
          "%" );
        ("net.msgs_per_task", per_task primary "dmw_messages_total", "count");
        ("net.bytes_per_task", per_task primary "dmw_bytes_total", "B");
        ("net.frames_per_task", per_task primary "dmw_frames_total", "count");
        ("net.wire_bytes_per_task", per_task primary "dmw_wire_bytes_total", "B");
        ("sim.events_per_task", per_task primary "dmw_sim_events_total", "count");
        ("serve.jobs_per_epoch", float_of_int primary.tasks /. instances, "count");
        ("wal.records_per_job", per_task primary "dmw_wal_records_total", "count");
        ("wal.bytes_per_job", per_task primary "dmw_wal_bytes_total", "B");
        ("wal.fsyncs_per_epoch", count primary "dmw_wal_fsyncs_total" /. instances, "count");
        ("exec.phase_commit_ms", span_ms "commit", "ms");
        ("exec.phase_share_ms", span_ms "share", "ms");
        ("exec.phase_resolve_ms", span_ms "resolve", "ms");
        ("exec.phase_payment_ms", span_ms "payment", "ms");
        ("serve.epoch_ms", epoch_ms, "ms");
        ("serve.wait_ms", ms (mean rt.latencies) -. epoch_ms, "ms");
        ("exec.crypto_share", modexps *. cost "group.pow_ns" /. 1e6 /. busy_ms, "ratio");
        ("exec.residual_ms", residual, "ms");
        ("obs.trace_overhead_pct", 100.0 *. ((primary.busy /. untraced.busy) -. 1.0), "%");
        ("loadgen.send_lag_p90_ms", ms (Stats.percentile untraced.lags ~p:90.0), "ms") ])

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

let usage () =
  Printf.eprintf
    "usage: dmw_bench.exe --workload {%s} --seed N [--seconds S] [--trace 0|1]\n"
    (String.concat "|" (List.map fst workloads));
  exit 2

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let rec parse acc = function
    | "--setup-probe" :: rest -> parse (("setup-probe", "1") :: acc) rest
    | flag :: value :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
        parse ((String.sub flag 2 (String.length flag - 2), value) :: acc) rest
    | [] -> acc
    | _ :: _ -> usage ()
  in
  let args = parse [] (Array.to_list (Array.sub Sys.argv 1 (Array.length Sys.argv - 1))) in
  let arg key = List.assoc_opt key args in
  let int_arg key default =
    match arg key with
    | None -> default
    | Some v -> ( match int_of_string_opt v with Some i -> i | None -> usage ())
  in
  let name = Option.value (arg "workload") ~default:"" in
  let kind = match List.assoc_opt name workloads with Some k -> k | None -> usage () in
  let seed = int_arg "seed" 1 in
  match
    if Option.is_some (arg "setup-probe") then setup_probe name kind ~seed
    else if int_arg "trace" 0 = 1 then per_layer name kind ~seed
    else end_to_end name kind ~seed ~seconds:(float_of_int (int_arg "seconds" 20))
  with
  | () -> ( try Unix.rmdir scratch_dir with Unix.Unix_error (_, _, _) -> ())
  | exception Bench_error msg ->
      Printf.eprintf "dmw_bench: %s\n" msg;
      exit 1
