(* The persistent auction service: wave batching, epoch isolation,
   backpressure and the front-door protocol.

   The smoke contract mirrors the daemon's real lifecycle — start,
   submit a handful of jobs, check the results against the one-shot
   harness, prove the auctions actually overlapped via the span trace,
   run a second epoch on the same service, and shut down
   cleanly. Everything runs in-process: the front door is exercised
   over a real Unix-domain socket but against an in-process service,
   so no subprocess management is needed. *)

open Dmw_core
module Serve = Dmw_serve_core
module Mailbox = Dmw_runtime.Mailbox

(* ------------------------------------------------------------------ *)
(* Bounded queue: refusal-style backpressure, deterministically        *)

let test_bounded_queue () =
  let q = Mailbox.create ~capacity:2 () in
  Alcotest.(check bool) "push 1" true (Mailbox.try_push q 1 = `Ok);
  Alcotest.(check bool) "push 2" true (Mailbox.try_push q 2 = `Ok);
  Alcotest.(check bool) "push 3 refused" true
    (Mailbox.try_push q 3 = `Full);
  Alcotest.(check int) "length" 2 (Mailbox.length q);
  Alcotest.(check bool) "pop 1" true (Mailbox.pop q = Some 1);
  Alcotest.(check bool) "slot freed" true (Mailbox.try_push q 3 = `Ok);
  Mailbox.close q;
  Alcotest.(check bool) "closed refuses" true
    (Mailbox.try_push q 4 = `Closed);
  Alcotest.(check bool) "drains 2" true (Mailbox.pop q = Some 2);
  Alcotest.(check bool) "drains 3" true (Mailbox.pop q = Some 3);
  Alcotest.(check bool) "then empty" true (Mailbox.pop q = None)

(* ------------------------------------------------------------------ *)
(* Service lifecycle                                                   *)

(* Jobs of the first wave, as submitted (one w-vector per task). *)
let wave_jobs =
  [ [| 2; 1; 3; 1; 2 |]; [| 1; 2; 2; 3; 1 |]; [| 3; 3; 1; 2; 2 |] ]

(* The same jobs as a one-shot bid matrix: bids.(i).(j) is agent i's
   level for task j. *)
let wave_bids =
  let m = List.length wave_jobs in
  Array.init 5 (fun i ->
      Array.init m (fun j -> (List.nth wave_jobs j).(i)))

let submit_ok t bids =
  match Serve.submit t ~bids with
  | `Accepted id -> id
  | `Busy | `Closed | `Invalid _ -> Alcotest.fail "submission refused"

let await_ok t id =
  match Serve.await t id with
  | Some r -> r
  | None -> Alcotest.fail (Printf.sprintf "job %d lost" id)

let test_service_waves () =
  Dmw_obs.Metrics.enable ();
  Dmw_obs.Span.reset ();
  let cfg = Serve.config ~group_bits:16 ~seed:11 ~n:5 ~c:1 ~max_wave:4 () in
  let t = Serve.create ~paused:true cfg in
  (* Validation happens at the door, not in the wave. *)
  Alcotest.(check bool) "short vector refused" true
    (match Serve.submit t ~bids:[| 1; 1 |] with
    | `Invalid _ -> true
    | `Accepted _ | `Busy | `Closed -> false);
  Alcotest.(check bool) "out-of-range level refused" true
    (match Serve.submit t ~bids:[| 9; 9; 9; 9; 9 |] with
    | `Invalid _ -> true
    | `Accepted _ | `Busy | `Closed -> false);
  (* Paused dispatcher: all three jobs deterministically share wave 1. *)
  let ids = List.map (submit_ok t) wave_jobs in
  Serve.resume t;
  let results = List.map (await_ok t) ids in
  List.iteri
    (fun j (r : Serve.job_result) ->
      Alcotest.(check int) (Printf.sprintf "job %d in epoch 1" j) 1
        r.Serve.epoch;
      Alcotest.(check int) (Printf.sprintf "job %d task index" j) j
        r.Serve.task;
      Alcotest.(check bool) (Printf.sprintf "job %d resolved" j) true
        (Option.is_some r.Serve.outcome))
    results;
  (* The span trace proves the wave's auctions actually overlapped. *)
  let serve_auctions =
    List.filter
      (fun s ->
        s.Dmw_obs.Span.name = "task auction"
        && List.assoc_opt "backend" s.Dmw_obs.Span.attrs = Some "socket")
      (Dmw_obs.Span.completed ())
  in
  Alcotest.(check int) "three auction spans" 3 (List.length serve_auctions);
  Alcotest.(check bool) "auctions overlapped" true
    (Dmw_obs.Span.max_concurrency serve_auctions >= 2);
  (* Epoch 1 of a service seeded with s reproduces the one-shot
     harness at seed s, job for job. *)
  let p = Params.make_exn ~group_bits:16 ~seed:11 ~n:5 ~m:3 ~c:1 () in
  let reference = Dmw_exec.run ~seed:11 ~keep_events:false p ~bids:wave_bids in
  (match
     ( reference.Dmw_exec.schedule, reference.Dmw_exec.first_prices,
       reference.Dmw_exec.second_prices )
   with
  | Some s, Some y1, Some y2 ->
      let assignment = Dmw_mechanism.Schedule.assignment s in
      List.iteri
        (fun j (r : Serve.job_result) ->
          match r.Serve.outcome with
          | Some o ->
              Alcotest.(check int)
                (Printf.sprintf "task %d winner matches one-shot run" j)
                assignment.(j) o.Agent.winner;
              Alcotest.(check int)
                (Printf.sprintf "task %d first price" j)
                y1.(j) o.Agent.y_star;
              Alcotest.(check int)
                (Printf.sprintf "task %d second price" j)
                y2.(j) o.Agent.y_star2
          | None -> Alcotest.fail "job lost its outcome")
        results
  | _ -> Alcotest.fail "reference run failed");
  (* A second wave on the same service is epoch 2... *)
  let id2 = submit_ok t [| 1; 1; 2; 2; 3 |] in
  let r2 = await_ok t id2 in
  Alcotest.(check int) "second wave is epoch 2" 2 r2.Serve.epoch;
  Alcotest.(check bool) "second wave resolved" true
    (Option.is_some r2.Serve.outcome);
  (* ... and reproduces the one-shot harness at the next epoch seed. *)
  let p2 = Params.make_exn ~group_bits:16 ~seed:11 ~n:5 ~m:1 ~c:1 () in
  let reference2 =
    Dmw_exec.run ~seed:(11 + 7919) ~keep_events:false p2
      ~bids:[| [| 1 |]; [| 1 |]; [| 2 |]; [| 2 |]; [| 3 |] |]
  in
  (match
     ( reference2.Dmw_exec.schedule, reference2.Dmw_exec.first_prices,
       reference2.Dmw_exec.second_prices, r2.Serve.outcome )
   with
  | Some s, Some y1, Some y2, Some o ->
      Alcotest.(check int) "epoch 2 winner matches one-shot run"
        (Dmw_mechanism.Schedule.assignment s).(0) o.Agent.winner;
      Alcotest.(check int) "epoch 2 first price" y1.(0) o.Agent.y_star;
      Alcotest.(check int) "epoch 2 second price" y2.(0) o.Agent.y_star2
  | _ -> Alcotest.fail "epoch 2 or its reference run failed");
  (* Epoch durations land in second-scale buckets, not the underflow. *)
  (match
     Dmw_obs.Metrics.histogram_snapshot
       ~labels:[ ("backend", "serve") ]
       "dmw_serve_epoch_seconds"
   with
  | Some h ->
      Alcotest.(check int) "two epochs observed" 2
        h.Dmw_obs.Metrics.Histogram.count;
      Alcotest.(check int) "no epoch in the underflow bucket" 0
        h.Dmw_obs.Metrics.Histogram.underflow
  | None -> Alcotest.fail "no dmw_serve_epoch_seconds histogram");
  let s = Serve.stats t in
  Alcotest.(check int) "two epochs" 2 s.Serve.epochs;
  Alcotest.(check int) "four jobs" 4 s.Serve.jobs;
  Alcotest.(check int) "queue drained" 0 s.Serve.queue_depth;
  Serve.shutdown t;
  Alcotest.(check bool) "submit after shutdown refused" true
    (match Serve.submit t ~bids:[| 1; 1; 1; 1; 1 |] with
    | `Closed -> true
    | `Accepted _ | `Busy | `Invalid _ -> false);
  Alcotest.(check bool) "await after shutdown returns" true
    (Serve.await t 999 = None);
  Dmw_obs.Metrics.disable ()

(* ------------------------------------------------------------------ *)
(* Front door                                                          *)

let read_lines fd k =
  let ic = Unix.in_channel_of_descr fd in
  List.init k (fun _ -> input_line ic)

let test_front_door () =
  (* n = 4, c = 1 puts w_max at 2. *)
  let cfg =
    Serve.config ~group_bits:16 ~seed:7 ~n:4 ~c:1 ~wave_window:0.2 ()
  in
  let t = Serve.create cfg in
  let path = Filename.temp_file "dmw_serve_test" ".sock" in
  let front = Serve.Front.start t ~socket_path:path in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  let say line =
    let s = line ^ "\n" in
    ignore (Unix.write_substring fd s 0 (String.length s) : int)
  in
  say "submit 2,1,2,1";
  say "submit 1,2,2,1";
  say "submit nonsense";
  say "stats";
  say "quit";
  (match read_lines fd 4 with
  | [ r1; r2; bad; st ] ->
      Alcotest.(check bool) "first result" true
        (String.starts_with ~prefix:"result 0 epoch=1" r1);
      Alcotest.(check bool) "second result" true
        (String.starts_with ~prefix:"result 1 epoch=1" r2);
      Alcotest.(check bool) "parse error surfaced" true
        (String.starts_with ~prefix:"error" bad);
      Alcotest.(check bool) "stats line" true
        (String.starts_with ~prefix:"stats epochs=" st)
  | _ -> Alcotest.fail "short read");
  (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
  Serve.Front.stop front;
  Serve.shutdown t;
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists path)

(* A client that hangs up before its reply: the reply then hits a
   closed socket, which must end only that connection — the next
   client is still served. *)
let test_client_hangs_up () =
  let cfg =
    Serve.config ~group_bits:16 ~seed:7 ~n:4 ~c:1 ~wave_window:0.2 ()
  in
  let t = Serve.create cfg in
  let path = Filename.temp_file "dmw_serve_test" ".sock" in
  let front = Serve.Front.start t ~socket_path:path in
  let connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX path);
    fd
  in
  let say fd line =
    let s = line ^ "\n" in
    ignore (Unix.write_substring fd s 0 (String.length s) : int)
  in
  let a = connect () in
  say a "submit 2,1,2,1";
  Unix.close a;
  (* Job 0 settled: its writer is replying to a closed peer. *)
  Alcotest.(check bool) "job 0 settled" true (Option.is_some (Serve.await t 0));
  let b = connect () in
  say b "submit 1,2,2,1";
  say b "quit";
  (match read_lines b 1 with
  | [ r ] ->
      Alcotest.(check bool) "next client served" true
        (String.starts_with ~prefix:"result 1 " r)
  | _ -> Alcotest.fail "short read");
  (try Unix.close b with Unix.Unix_error (_, _, _) -> ());
  Serve.Front.stop front;
  Serve.shutdown t

(* A long-running service must not keep every result it has served:
   once await has handed a job's result out, the service forgets it. *)
let test_result_handed_out_once () =
  let t = Serve.create (Serve.config ~group_bits:16 ~seed:3 ~n:5 ~c:1 ()) in
  let id = submit_ok t [| 2; 1; 3; 1; 2 |] in
  Alcotest.(check bool) "first await returns the result" true
    (Option.is_some (Serve.await t id));
  Serve.shutdown t;
  Alcotest.(check bool) "second await after shutdown returns None" true
    (Serve.await t id = None)

(* A stats request pipelined behind three submissions on one connection
   is answered after their results, so it counts them: the snapshot is
   taken when the reply is sent, not when the request is read. *)
let test_stats_in_reply_order () =
  let cfg = Serve.config ~group_bits:16 ~seed:11 ~n:5 ~c:1 () in
  let t = Serve.create ~paused:true cfg in
  let path = Filename.temp_file "dmw_serve_test" ".sock" in
  let front = Serve.Front.start t ~socket_path:path in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  let say line =
    let s = line ^ "\n" in
    ignore (Unix.write_substring fd s 0 (String.length s) : int)
  in
  List.iter
    (fun bids ->
      say
        ("submit "
        ^ String.concat "," (Array.to_list (Array.map string_of_int bids))))
    wave_jobs;
  say "stats";
  say "quit";
  (* All three queued before the dispatcher runs: one wave, one epoch. *)
  let rec queued k =
    if (Serve.stats t).Serve.queue_depth < 3 && k > 0 then begin
      Thread.delay 0.01;
      queued (k - 1)
    end
  in
  queued 500;
  Serve.resume t;
  (match read_lines fd 4 with
  | [ r0; r1; r2; st ] ->
      List.iteri
        (fun j r ->
          Alcotest.(check bool)
            (Printf.sprintf "result %d in epoch 1" j)
            true
            (String.starts_with ~prefix:(Printf.sprintf "result %d epoch=1" j) r))
        [ r0; r1; r2 ];
      Alcotest.(check string) "stats counts the results before it"
        "stats epochs=1 jobs=3 queue=0" st
  | _ -> Alcotest.fail "short read");
  (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
  Serve.Front.stop front;
  Serve.shutdown t

(* Every epoch opens and closes its own fabric, so a descriptor leak
   there would only show in a long-running service: the count must not
   move across 40 one-job waves, and shutdown must return it to where
   it was before the service existed. *)
let test_no_descriptors_between_waves () =
  let fd_dir = "/proc/self/fd" in
  if not (Sys.file_exists fd_dir) then Alcotest.skip ();
  let open_fds () = Array.length (Sys.readdir fd_dir) in
  let before = open_fds () in
  let t = Serve.create (Serve.config ~group_bits:16 ~seed:5 ~n:5 ~c:1 ()) in
  let after_create = open_fds () in
  for _ = 1 to 40 do
    ignore (await_ok t (submit_ok t [| 1; 2; 3; 1; 2 |]) : Serve.job_result)
  done;
  Alcotest.(check int) "40 epochs" 40 (Serve.stats t).Serve.epochs;
  Alcotest.(check int) "descriptors after the last wave" after_create
    (open_fds ());
  Serve.shutdown t;
  Alcotest.(check int) "descriptors after shutdown" before (open_fds ())

let () =
  Alcotest.run "dmw_serve"
    [ ("queue", [ Alcotest.test_case "backpressure" `Quick test_bounded_queue ]);
      ("service",
       [ Alcotest.test_case "waves, spans and reproducibility" `Slow
           test_service_waves;
         Alcotest.test_case "no descriptors held between waves" `Slow
           test_no_descriptors_between_waves;
         Alcotest.test_case "a result is handed out once" `Slow
           test_result_handed_out_once;
         Alcotest.test_case "front door protocol" `Slow test_front_door;
         Alcotest.test_case "stats in reply order" `Slow
           test_stats_in_reply_order;
         Alcotest.test_case "client hangs up before its reply" `Slow
           test_client_hangs_up ]) ]
