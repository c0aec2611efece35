(* Concurrency stress tests for the two shared structures dmw_race
   certifies as guarded: the bounded Mailbox feeding the auction service
   and the Dmw_obs metrics registry. Real threads hammer both; the
   properties are conservation laws — every accepted push is popped
   exactly once, every recorded observation is counted exactly once —
   which lost updates or torn reads would break. The thread/queue
   shapes are drawn by qcheck so the interleavings vary run to run
   while staying reproducible under qcheck's printed seed. *)

module Mailbox = Dmw_runtime.Mailbox
module Metrics = Dmw_obs.Metrics

let spawn_all fns = List.map (fun f -> Thread.create f ()) fns
let join_all ths = List.iter Thread.join ths

(* ------------------------------------------------------------------ *)
(* Bounded Mailbox: producers push tagged values, consumers drain; the
   multiset of consumed values must equal the multiset accepted.      *)
(* ------------------------------------------------------------------ *)

let queue_round ~producers ~consumers ~items ~capacity =
  let q = Mailbox.create ~capacity () in
  let accepted = Array.make producers 0 in
  let accepted_sum = Array.make producers 0 in
  let producer p () =
    for i = 1 to items do
      let v = (p * items) + i in
      let rec offer () =
        match Mailbox.try_push q v with
        | `Ok ->
            accepted.(p) <- accepted.(p) + 1;
            accepted_sum.(p) <- accepted_sum.(p) + v
        | `Full ->
            Thread.yield ();
            offer ()
        | `Closed -> ()
      in
      offer ()
    done
  in
  let got = Array.make consumers 0 in
  let got_sum = Array.make consumers 0 in
  let consumer c () =
    let rec drain () =
      match Mailbox.pop q with
      | Some v ->
          got.(c) <- got.(c) + 1;
          got_sum.(c) <- got_sum.(c) + v;
          drain ()
      | None -> ()
    in
    drain ()
  in
  let cs = spawn_all (List.init consumers (fun c -> consumer c)) in
  let ps = spawn_all (List.init producers (fun p -> producer p)) in
  join_all ps;
  Mailbox.close q;
  join_all cs;
  let total a = Array.fold_left ( + ) 0 a in
  (total accepted, total accepted_sum, total got, total got_sum,
   Mailbox.length q)

let prop_queue_conserves =
  QCheck.Test.make ~count:12 ~name:"bounded queue conserves items"
    QCheck.(
      quad (int_range 1 4) (int_range 1 3) (int_range 1 120) (int_range 1 8))
    (fun (producers, consumers, items, capacity) ->
      let pushed, pushed_sum, popped, popped_sum, left =
        queue_round ~producers ~consumers ~items ~capacity
      in
      pushed = producers * items
      && popped = pushed
      && popped_sum = pushed_sum
      && left = 0)

(* ------------------------------------------------------------------ *)
(* Metrics registry: concurrent bumps on a shared counter, per-thread
   counters created under contention, and histogram observations.     *)
(* ------------------------------------------------------------------ *)

let test_metrics_stress () =
  Metrics.reset ();
  Metrics.enable ();
  let threads = 8 and rounds = 500 in
  let worker i () =
    for r = 1 to rounds do
      Metrics.bump "stress_shared_total" 1;
      (* Distinct label sets force concurrent registry inserts. *)
      Metrics.bump ~labels:[ ("t", string_of_int i) ] "stress_per_thread" 1;
      Metrics.observe "stress_hist" (float_of_int ((i * rounds) + r))
    done
  in
  join_all (spawn_all (List.init threads (fun i -> worker i)));
  Alcotest.(check int) "shared counter exact" (threads * rounds)
    (Metrics.counter_value "stress_shared_total");
  for i = 0 to threads - 1 do
    Alcotest.(check int)
      (Printf.sprintf "thread %d counter exact" i)
      rounds
      (Metrics.counter_value ~labels:[ ("t", string_of_int i) ]
         "stress_per_thread")
  done;
  (match Metrics.histogram_snapshot "stress_hist" with
  | Some s ->
      Alcotest.(check int) "every observation counted" (threads * rounds)
        s.Metrics.Histogram.count
  | None -> Alcotest.fail "histogram missing");
  Metrics.reset ();
  Metrics.disable ()

let () =
  Alcotest.run "dmw_stress"
    [ ( "conservation",
        [ QCheck_alcotest.to_alcotest prop_queue_conserves;
          Alcotest.test_case "metrics registry under contention" `Quick
            test_metrics_stress ] ) ]
