(* Tests for the discrete-event simulator: Heap, Trace, Fault and
   Engine. *)

open Dmw_sim

(* ------------------------------------------------------------------ *)
(* Heap                                                                *)

let test_heap_orders_by_priority () =
  let h = Heap.create () in
  List.iter (fun p -> Heap.push h ~priority:p p) [ 3.0; 1.0; 2.0; 0.5; 2.5 ];
  let out = ref [] in
  let rec drain () =
    match Heap.pop h with
    | Some (_, v) ->
        out := v :: !out;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list (float 0.0))) "sorted" [ 0.5; 1.0; 2.0; 2.5; 3.0 ]
    (List.rev !out)

let test_heap_fifo_on_ties () =
  let h = Heap.create () in
  List.iter (fun v -> Heap.push h ~priority:1.0 v) [ "a"; "b"; "c" ];
  let next () = match Heap.pop h with Some (_, v) -> v | None -> "?" in
  Alcotest.(check string) "first" "a" (next ());
  Alcotest.(check string) "second" "b" (next ());
  Alcotest.(check string) "third" "c" (next ())

let test_heap_size_empty () =
  let h = Heap.create () in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Alcotest.(check (option (float 0.0))) "peek empty" None (Heap.peek_priority h);
  Heap.push h ~priority:2.0 ();
  Alcotest.(check int) "size" 1 (Heap.size h);
  Alcotest.(check (option (float 0.0))) "peek" (Some 2.0) (Heap.peek_priority h)

let test_heap_interleaved () =
  (* Push/pop interleaving exercises sift_down paths. *)
  let h = Heap.create () in
  for i = 100 downto 1 do
    Heap.push h ~priority:(float_of_int i) i
  done;
  for _ = 1 to 50 do
    ignore (Heap.pop h)
  done;
  Heap.push h ~priority:0.0 0;
  (match Heap.pop h with
  | Some (_, v) -> Alcotest.(check int) "new min" 0 v
  | None -> Alcotest.fail "empty");
  Alcotest.(check int) "remaining" 50 (Heap.size h)

(* ------------------------------------------------------------------ *)
(* Trace                                                               *)

let ev ?(time = 0.0) ?(src = 0) ?(dst = 1) ?(tag = "x") ?(bytes = 10) () =
  { Trace.time; src; dst; tag; bytes }

let test_trace_counters () =
  let t = Trace.create () in
  Trace.record t (ev ());
  Trace.record t (ev ~tag:"y" ~bytes:5 ());
  Trace.record t (ev ~tag:"x" ~bytes:7 ());
  Alcotest.(check int) "messages" 3 (Trace.messages t);
  Alcotest.(check int) "bytes" 22 (Trace.bytes t);
  Alcotest.(check (list (pair string int))) "by tag"
    [ ("x", 2); ("y", 1) ]
    (Trace.messages_by_tag t);
  Alcotest.(check (list (pair string int))) "bytes by tag"
    [ ("x", 17); ("y", 5) ]
    (Trace.bytes_by_tag t)

let test_trace_events_order () =
  let t = Trace.create () in
  Trace.record t (ev ~time:1.0 ());
  Trace.record t (ev ~time:2.0 ());
  let times = List.map (fun e -> e.Trace.time) (Trace.events t) in
  Alcotest.(check (list (float 0.0))) "chronological" [ 1.0; 2.0 ] times

let test_trace_no_events_mode () =
  let t = Trace.create ~keep_events:false () in
  Trace.record t (ev ());
  Alcotest.(check int) "counts" 1 (Trace.messages t);
  Alcotest.(check int) "no events" 0 (List.length (Trace.events t))

let test_trace_sequence_names () =
  (* Node i prints as A(i+1), as dmw_cli names agents. *)
  let t = Trace.create () in
  Trace.record t (ev ~time:0.003 ~src:0 ~dst:1 ~tag:"share" ~bytes:96 ());
  Alcotest.(check string) "A1 -> A2"
    "t=  0.0030  A1   -> A2   share          (96 B)\n"
    (Format.asprintf "%a" (Trace.pp_sequence ~max_events:10) t)

(* ------------------------------------------------------------------ *)
(* Fault                                                               *)

(* Whether [f] delivers one transmission. The seed and key only feed
   the random policies, which these cases do not use. *)
let allows f ~time ~src ~dst ~tag =
  not
    (Fault.decide (Fault.instantiate f ~seed:0) ~elapsed:time ~src ~dst ~tag
       ~key:0 ())
      .Fault.drop

let test_fault_none_allows () =
  Alcotest.(check bool) "allows" true
    (allows Fault.none ~time:1.0 ~src:0 ~dst:1 ~tag:"x")

let test_fault_crash () =
  let f = Fault.crash_at ~node:2 ~time:5.0 in
  Alcotest.(check bool) "before" true (allows f ~time:4.0 ~src:2 ~dst:0 ~tag:"x");
  Alcotest.(check bool) "after src" false (allows f ~time:5.0 ~src:2 ~dst:0 ~tag:"x");
  Alcotest.(check bool) "after dst" false (allows f ~time:6.0 ~src:0 ~dst:2 ~tag:"x");
  Alcotest.(check bool) "others fine" true (allows f ~time:6.0 ~src:0 ~dst:1 ~tag:"x")

let test_fault_drop_link () =
  let f = Fault.drop_link ~src:0 ~dst:1 in
  Alcotest.(check bool) "dropped" false (allows f ~time:0.0 ~src:0 ~dst:1 ~tag:"x");
  Alcotest.(check bool) "reverse ok" true (allows f ~time:0.0 ~src:1 ~dst:0 ~tag:"x")

let test_fault_drop_tagged () =
  let f = Fault.drop_tagged ~node:3 ~tag:"share" in
  Alcotest.(check bool) "tagged dropped" false
    (allows f ~time:0.0 ~src:3 ~dst:0 ~tag:"share");
  Alcotest.(check bool) "other tag" true
    (allows f ~time:0.0 ~src:3 ~dst:0 ~tag:"commit");
  Alcotest.(check bool) "other node" true
    (allows f ~time:0.0 ~src:1 ~dst:0 ~tag:"share")

let test_fault_compose () =
  let f = Fault.all [ Fault.drop_link ~src:0 ~dst:1; Fault.drop_link ~src:2 ~dst:3 ] in
  Alcotest.(check bool) "first" false (allows f ~time:0.0 ~src:0 ~dst:1 ~tag:"x");
  Alcotest.(check bool) "second" false (allows f ~time:0.0 ~src:2 ~dst:3 ~tag:"x");
  Alcotest.(check bool) "neither" true (allows f ~time:0.0 ~src:1 ~dst:2 ~tag:"x")

let test_fault_drop_random_all_or_nothing () =
  let i0 = Fault.instantiate (Fault.drop_random ~probability:0.0) ~seed:1 in
  let i1 = Fault.instantiate (Fault.drop_random ~probability:1.0) ~seed:1 in
  for k = 1 to 20 do
    let d0 = Fault.decide i0 ~elapsed:0.0 ~src:0 ~dst:1 ~tag:"x" ~key:k () in
    let d1 = Fault.decide i1 ~elapsed:0.0 ~src:0 ~dst:1 ~tag:"x" ~key:k () in
    Alcotest.(check bool) "p=0 allows" false d0.Fault.drop;
    Alcotest.(check bool) "p=1 drops" true d1.Fault.drop
  done

(* Regression: drop_random coins come from the run's master-PRNG
   convention (the instantiation seed), not an ad-hoc per-policy seed.
   Same seed ⇒ the same messages are lost; different seeds ⇒ a
   different loss pattern; and the verdict for one message identity is
   a pure function (asking twice gives the same answer, in any order). *)
let test_fault_drop_random_master_seed () =
  let spec = Fault.drop_random ~probability:0.5 in
  let sample seed =
    let i = Fault.instantiate spec ~seed in
    List.init 64 (fun k ->
        (Fault.decide i ~elapsed:0.0 ~src:(k mod 3) ~dst:2 ~tag:"share" ~key:k
           ())
          .Fault.drop)
  in
  Alcotest.(check (list bool)) "same seed, same losses" (sample 7) (sample 7);
  Alcotest.(check bool) "different seed, different losses" true
    (sample 7 <> sample 8);
  (* Purity / order-independence: interleaving queries does not shift
     the coins (this is what makes the concurrent backends agree with
     the simulator message for message). *)
  let i = Fault.instantiate spec ~seed:7 in
  let forward =
    List.init 32 (fun k ->
        (Fault.decide i ~elapsed:0.0 ~src:0 ~dst:1 ~tag:"share" ~key:k ())
          .Fault.drop)
  in
  let i' = Fault.instantiate spec ~seed:7 in
  let backward =
    List.rev
      (List.init 32 (fun j ->
           let k = 31 - j in
           (Fault.decide i' ~elapsed:0.0 ~src:0 ~dst:1 ~tag:"share" ~key:k ())
             .Fault.drop))
  in
  Alcotest.(check (list bool)) "order-independent" forward backward;
  (* End to end: the harness derives the instance seed from the run
     seed, so two runs with equal seeds lose the same messages and
     the whole run replays identically. *)
  let run seed =
    let p = Dmw_core.Params.make_exn ~group_bits:64 ~seed:3 ~n:4 ~m:1 ~c:1 () in
    let r =
      Dmw_exec.run ~seed ~faults:(Fault.drop_random ~probability:0.6) p
        ~bids:[| [| 2 |]; [| 1 |]; [| 2 |]; [| 2 |] |]
    in
    ( Dmw_exec.completed r,
      Dmw_sim.Trace.messages r.Dmw_exec.trace,
      Array.map
        (fun (s : Dmw_exec.agent_status) -> s.Dmw_exec.aborted)
        r.Dmw_exec.statuses )
  in
  Alcotest.(check bool) "same run seed, same run" true (run 11 = run 11);
  Alcotest.(check bool) "seed reaches the fault coins" true
    (run 11 <> run 12 || run 13 <> run 14)

(* ------------------------------------------------------------------ *)
(* Latency models                                                      *)

let test_latency_constant () =
  let l = Latency.constant 0.005 in
  Alcotest.(check (float 0.0)) "constant" 0.005 (l ~src:0 ~dst:3)

let test_latency_uniform_bounds_and_stability () =
  let l = Latency.uniform ~seed:4 ~n:6 ~lo:0.001 ~hi:0.003 in
  for src = 0 to 5 do
    for dst = 0 to 5 do
      let v = l ~src ~dst in
      Alcotest.(check bool) "bounds" true (v >= 0.001 && v < 0.003);
      Alcotest.(check (float 0.0)) "stable per link" v (l ~src ~dst)
    done
  done;
  let l2 = Latency.uniform ~seed:4 ~n:6 ~lo:0.001 ~hi:0.003 in
  Alcotest.(check (float 0.0)) "deterministic per seed" (l ~src:1 ~dst:2)
    (l2 ~src:1 ~dst:2)

let test_latency_lognormal_positive () =
  let l = Latency.lognormal ~seed:9 ~n:8 ~median:0.002 ~sigma:0.8 in
  let values = ref [] in
  for src = 0 to 7 do
    for dst = 0 to 7 do
      let v = l ~src ~dst in
      Alcotest.(check bool) "positive" true (v > 0.0);
      values := v :: !values
    done
  done;
  (* Heavy tail: max should exceed median noticeably. *)
  let mx = List.fold_left Float.max 0.0 !values in
  Alcotest.(check bool) "spread" true (mx > 0.004)

let test_latency_clustered () =
  let l = Latency.clustered ~seed:2 ~n:8 ~clusters:2 ~local_:0.001 ~remote:0.02 in
  (* 0 and 2 share cluster 0; 0 and 1 are in different clusters. *)
  Alcotest.(check bool) "local fast" true (l ~src:0 ~dst:2 < 0.0015);
  Alcotest.(check bool) "remote slow" true (l ~src:0 ~dst:1 > 0.015)

let test_latency_validation () =
  let expect_invalid msg (f : unit -> Latency.t) =
    Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
        let _model : Latency.t = f () in
        ())
  in
  expect_invalid "Latency.uniform: bad range" (fun () ->
      Latency.uniform ~seed:1 ~n:2 ~lo:3.0 ~hi:1.0);
  expect_invalid "Latency.lognormal: bad params" (fun () ->
      Latency.lognormal ~seed:1 ~n:2 ~median:0.0 ~sigma:1.0);
  expect_invalid "Latency.clustered: need >= 1 cluster" (fun () ->
      Latency.clustered ~seed:1 ~n:2 ~clusters:0 ~local_:1.0 ~remote:2.0)

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)

let test_engine_delivery_and_time () =
  let eng = Engine.create ~seed:1 ~nodes:2 () in
  let got = ref [] in
  Engine.on_message eng ~node:1 (fun eng d ->
      got := (d.Engine.src, d.Engine.tag, Engine.now eng) :: !got);
  Engine.at eng ~time:0.0 (fun () ->
      Engine.send eng ~src:0 ~dst:1 ~tag:"ping" ~bytes:4 ());
  Engine.run eng;
  match !got with
  | [ (src, tag, time) ] ->
      Alcotest.(check int) "src" 0 src;
      Alcotest.(check string) "tag" "ping" tag;
      Alcotest.(check bool) "latency applied" true (time >= 0.001)
  | _ -> Alcotest.fail "expected exactly one delivery"

let test_engine_self_send_not_counted () =
  let eng = Engine.create ~seed:1 ~nodes:2 () in
  let got = ref false in
  Engine.on_message eng ~node:0 (fun _ _ -> got := true);
  Engine.at eng ~time:0.0 (fun () ->
      Engine.send eng ~src:0 ~dst:0 ~tag:"self" ~bytes:4 ());
  Engine.run eng;
  Alcotest.(check bool) "delivered" true !got;
  Alcotest.(check int) "not counted" 0 (Trace.messages (Engine.trace eng))

let test_engine_deterministic () =
  let run_once () =
    let eng = Engine.create ~seed:99 ~nodes:4 () in
    let log = Buffer.create 64 in
    for node = 0 to 3 do
      Engine.on_message eng ~node (fun eng d ->
          Buffer.add_string log
            (Printf.sprintf "%d<-%d@%.6f;" node d.Engine.src (Engine.now eng));
          if d.Engine.tag = "relay" && node < 3 then
            Engine.send eng ~src:node ~dst:(node + 1) ~tag:"relay" ~bytes:1 ())
    done;
    Engine.at eng ~time:0.0 (fun () ->
        Engine.send eng ~src:0 ~dst:1 ~tag:"relay" ~bytes:1 ();
        for dst = 0 to 2 do
          Engine.send eng ~src:3 ~dst ~tag:"noise" ~bytes:1 ()
        done);
    Engine.run eng;
    Buffer.contents log
  in
  Alcotest.(check string) "identical" (run_once ()) (run_once ())

let test_engine_actions_ordered () =
  let eng = Engine.create ~seed:1 ~nodes:1 () in
  let order = ref [] in
  Engine.at eng ~time:2.0 (fun () -> order := 2 :: !order);
  Engine.at eng ~time:1.0 (fun () -> order := 1 :: !order);
  Engine.at eng ~time:3.0 (fun () -> order := 3 :: !order);
  Engine.run eng;
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3 ] (List.rev !order)

let test_engine_bad_node () =
  let eng = Engine.create ~seed:1 ~nodes:2 () in
  Alcotest.check_raises "bad dst" (Invalid_argument "Engine.send: bad destination")
    (fun () -> Engine.send eng ~src:0 ~dst:7 ~tag:"x" ~bytes:1 ());
  Alcotest.check_raises "bad handler node"
    (Invalid_argument "Engine.on_message: bad node") (fun () ->
      Engine.on_message eng ~node:(-1) (fun _ _ -> ()))

let test_engine_jitter_breaks_fifo () =
  (* With heavy jitter, two back-to-back messages on one link can swap:
     observe at least one inversion across seeds. *)
  let inverted seed =
    let eng = Engine.create ~seed ~nodes:2 ~jitter:0.9
        ~latency:(fun ~src:_ ~dst:_ -> 0.01) () in
    let order = ref [] in
    Engine.on_message eng ~node:1 (fun _ d ->
        order := d.Engine.tag :: !order);
    Engine.at eng ~time:0.0 (fun () ->
        Engine.send eng ~src:0 ~dst:1 ~tag:"first" ~bytes:1 ();
        Engine.send eng ~src:0 ~dst:1 ~tag:"second" ~bytes:1 ());
    Engine.run eng;
    !order = [ "first"; "second" ] (* reversed accumulation = inverted *)
  in
  Alcotest.(check bool) "some seed inverts" true
    (List.exists inverted [ 1; 2; 3; 4; 5; 6; 7; 8 ])

let test_engine_bandwidth_delay () =
  (* A 1000-byte message at 10 kB/s adds 0.1 s on top of the latency. *)
  let eng =
    Engine.create ~seed:1 ~nodes:2 ~bandwidth:10_000.0
      ~latency:(fun ~src:_ ~dst:_ -> 0.01)
      ()
  in
  let arrival = ref 0.0 in
  Engine.on_message eng ~node:1 (fun eng _ -> arrival := Engine.now eng);
  Engine.at eng ~time:0.0 (fun () ->
      Engine.send eng ~src:0 ~dst:1 ~tag:"big" ~bytes:1000 ());
  Engine.run eng;
  Alcotest.(check (float 1e-9)) "latency + serialization" 0.11 !arrival

let test_engine_livelock_guard () =
  (* Two nodes ping-ponging forever must trip the budget, not hang. *)
  let eng = Engine.create ~seed:1 ~nodes:2 ~event_budget:500 () in
  for node = 0 to 1 do
    Engine.on_message eng ~node (fun eng _ ->
        Engine.send eng ~src:node ~dst:(1 - node) ~tag:"ping" ~bytes:1 ())
  done;
  Engine.at eng ~time:0.0 (fun () ->
      Engine.send eng ~src:0 ~dst:1 ~tag:"ping" ~bytes:1 ());
  Alcotest.check_raises "budget trips"
    (Failure "Engine.run: event budget exceeded (livelock?)") (fun () ->
      Engine.run eng)

let test_engine_clock_monotone () =
  let eng = Engine.create ~seed:1 ~nodes:2 () in
  let last = ref 0.0 in
  Engine.on_message eng ~node:1 (fun eng _ ->
      Alcotest.(check bool) "monotone" true (Engine.now eng >= !last);
      last := Engine.now eng);
  Engine.at eng ~time:0.0 (fun () ->
      for _ = 1 to 10 do
        Engine.send eng ~src:0 ~dst:1 ~tag:"t" ~bytes:1 ()
      done);
  Engine.run eng

let () =
  Alcotest.run "dmw_sim"
    [ ("heap",
       [ Alcotest.test_case "priority order" `Quick test_heap_orders_by_priority;
         Alcotest.test_case "fifo ties" `Quick test_heap_fifo_on_ties;
         Alcotest.test_case "size/empty" `Quick test_heap_size_empty;
         Alcotest.test_case "interleaved" `Quick test_heap_interleaved ]);
      ("trace",
       [ Alcotest.test_case "counters" `Quick test_trace_counters;
         Alcotest.test_case "event order" `Quick test_trace_events_order;
         Alcotest.test_case "counters-only mode" `Quick test_trace_no_events_mode;
         Alcotest.test_case "sequence names" `Quick test_trace_sequence_names ]);
      ("fault",
       [ Alcotest.test_case "none" `Quick test_fault_none_allows;
         Alcotest.test_case "crash" `Quick test_fault_crash;
         Alcotest.test_case "drop link" `Quick test_fault_drop_link;
         Alcotest.test_case "drop tagged" `Quick test_fault_drop_tagged;
         Alcotest.test_case "compose" `Quick test_fault_compose;
         Alcotest.test_case "random extremes" `Quick test_fault_drop_random_all_or_nothing;
         Alcotest.test_case "master-seed convention" `Quick
           test_fault_drop_random_master_seed ]);
      ("latency",
       [ Alcotest.test_case "constant" `Quick test_latency_constant;
         Alcotest.test_case "uniform" `Quick test_latency_uniform_bounds_and_stability;
         Alcotest.test_case "lognormal" `Quick test_latency_lognormal_positive;
         Alcotest.test_case "clustered" `Quick test_latency_clustered;
         Alcotest.test_case "validation" `Quick test_latency_validation ]);
      ("engine",
       [ Alcotest.test_case "delivery and time" `Quick test_engine_delivery_and_time;
         Alcotest.test_case "self-send uncounted" `Quick test_engine_self_send_not_counted;
         Alcotest.test_case "deterministic" `Quick test_engine_deterministic;
         Alcotest.test_case "action order" `Quick test_engine_actions_ordered;
         Alcotest.test_case "bad node rejected" `Quick test_engine_bad_node;
         Alcotest.test_case "bandwidth delay" `Quick test_engine_bandwidth_delay;
         Alcotest.test_case "jitter breaks fifo" `Quick test_engine_jitter_breaks_fifo;
         Alcotest.test_case "livelock guard" `Quick test_engine_livelock_guard;
         Alcotest.test_case "clock monotone" `Quick test_engine_clock_monotone ]) ]
