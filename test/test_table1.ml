(* Table 1 conformance: the paper's complexity table as an executable
   regression. Uniform bids at level w make every auction resolve at
   y* = y** = w, so Dmw_obs.Table1's closed forms predict the exact
   per-run message and exponentiation counts; this suite checks the
   measured Dmw_obs counters against them — exactly, not
   asymptotically — on sim and socket.

   The 16-bit group keeps each run far below the agents' 50 ms
   recovery timeouts on the socket backend; with bigger groups a
   slow machine could push an auction past a timer, triggering
   fallback disclosure rounds that do extra (legitimate) work and
   change the counts. *)

open Dmw_core
module Metrics = Dmw_obs.Metrics
module Table1 = Dmw_obs.Table1

let points = [ (4, 1, 1); (5, 2, 1); (6, 2, 2); (6, 1, 4); (7, 3, 3) ]
let seed = 11

let tags =
  [ "share"; "commitments"; "lambda_psi"; "f_disclosure";
    "f_disclosure_h"; "lambda_psi_excl"; "payment_report" ]

let run_uniform ?pipeline ~backend ~n ~m ~w () =
  Metrics.reset ();
  Dmw_obs.Span.reset ();
  Metrics.enable ();
  Fun.protect ~finally:Metrics.disable @@ fun () ->
  let params = Params.make_exn ~group_bits:16 ~seed ~n ~m ~c:1 () in
  let bids = Array.make_matrix n m w in
  Dmw_exec.run ~seed ?pipeline ~backend params ~bids

let measured_messages ~backend_name =
  List.fold_left
    (fun acc tag ->
      acc
      + Metrics.counter_value
          ~labels:[ ("backend", backend_name); ("tag", tag) ]
          "dmw_messages_total")
    0 tags

let measured_bytes ~backend_name =
  List.fold_left
    (fun acc tag ->
      acc
      + Metrics.counter_value
          ~labels:[ ("backend", backend_name); ("tag", tag) ]
          "dmw_bytes_total")
    0 tags

let check_point ?pipeline backend (n, m, w) =
  let name = Dmw_exec.backend_name backend in
  let label fmt = Printf.sprintf fmt name n m w in
  let r = run_uniform ?pipeline ~backend ~n ~m ~w () in
  Alcotest.(check bool) (label "%s n=%d m=%d w=%d completes") true
    (Dmw_exec.completed r);
  (* Uniform bids: both prices resolve at the bid level. *)
  (match (r.Dmw_exec.first_prices, r.Dmw_exec.second_prices) with
  | Some fp, Some sp ->
      Array.iter (fun y -> Alcotest.(check int) (label "%s n=%d m=%d w=%d y*") w y) fp;
      Array.iter (fun y -> Alcotest.(check int) (label "%s n=%d m=%d w=%d y**") w y) sp
  | _ -> Alcotest.fail (label "%s n=%d m=%d w=%d has no prices"));
  (* Communication column. *)
  Alcotest.(check int)
    (label "%s n=%d m=%d w=%d messages")
    (Table1.messages_per_run ~n ~m ~y_star:w)
    (measured_messages ~backend_name:name);
  (* The observability counters and the backend's own trace are two
     independent accountants of the same boundary. *)
  Alcotest.(check int)
    (label "%s n=%d m=%d w=%d obs = trace messages")
    (Dmw_sim.Trace.messages r.Dmw_exec.trace)
    (measured_messages ~backend_name:name);
  Alcotest.(check int)
    (label "%s n=%d m=%d w=%d obs = trace bytes")
    (Dmw_sim.Trace.bytes r.Dmw_exec.trace)
    (measured_bytes ~backend_name:name);
  (* Every message except the n payment reports (addressed to the
     infrastructure node) is delivered to an agent exactly once. *)
  Alcotest.(check int)
    (label "%s n=%d m=%d w=%d receives")
    (Table1.messages_per_run ~n ~m ~y_star:w - n)
    (Metrics.counter_value ~labels:[ ("backend", name) ] "dmw_recv_total");
  (* Computational column. *)
  Alcotest.(check int)
    (label "%s n=%d m=%d w=%d modexps")
    (Table1.modexps_per_run ~n ~m ~y_star:w)
    (Metrics.counter_value "dmw_modexp_total");
  Alcotest.(check int)
    (label "%s n=%d m=%d w=%d commitments")
    (Table1.commitments_per_run ~n ~m)
    (Metrics.counter_value "dmw_commitments_total");
  Alcotest.(check int)
    (label "%s n=%d m=%d w=%d degree tests")
    (Table1.resolution_tests_per_run ~n ~m ~c:1 ~y_star:w)
    (Metrics.counter_value "dmw_resolution_tests_total")

let test_backend backend () =
  List.iter (check_point backend) points

(* The admission pipeline must not cost a message: Table 1's exact
   counts hold at any depth, from strictly sequential to an
   intermediate window, on every backend. *)
let test_pipelined_points () =
  List.iter
    (fun backend ->
      check_point ~pipeline:1 backend (5, 2, 1);
      check_point ~pipeline:2 backend (7, 3, 3))
    [ Dmw_exec.sim (); Dmw_exec.socket () ]

(* With observability off, the instrumented seams must record
   nothing: the disabled branch is the whole hot-path cost. *)
let test_disabled_records_nothing () =
  Metrics.reset ();
  Dmw_obs.Span.reset ();
  let params = Params.make_exn ~group_bits:16 ~seed ~n:4 ~m:1 ~c:1 () in
  let r = Dmw_exec.run ~seed params ~bids:(Array.make_matrix 4 1 1) in
  Alcotest.(check bool) "run completes" true (Dmw_exec.completed r);
  Alcotest.(check int) "no modexps recorded" 0
    (Metrics.counter_value "dmw_modexp_total");
  Alcotest.(check int) "no messages recorded" 0
    (measured_messages ~backend_name:"sim");
  Alcotest.(check int) "no spans recorded" 0
    (List.length (Dmw_obs.Span.completed ()))

(* A hardened disclosure is part of the resolve phase: every span of a
   hardened run is one of the run, task auction and four phase spans. *)
let test_hardened_span_names () =
  Metrics.reset ();
  Dmw_obs.Span.reset ();
  Metrics.enable ();
  Fun.protect ~finally:Metrics.disable @@ fun () ->
  let params = Params.make_exn ~group_bits:16 ~seed ~n:5 ~m:1 ~c:1 () in
  let bids = [| [| 2 |]; [| 1 |]; [| 3 |]; [| 2 |]; [| 3 |] |] in
  let r = Dmw_exec.run ~seed ~hardened:true params ~bids in
  Alcotest.(check bool) "run completes" true (Dmw_exec.completed r);
  Alcotest.(check (list string)) "span names"
    [ "commit"; "payment"; "resolve"; "run"; "share"; "task auction" ]
    (List.sort_uniq String.compare
       (List.map (fun s -> s.Dmw_obs.Span.name) (Dmw_obs.Span.completed ())))

let () =
  Alcotest.run "table1"
    [ ( "conformance",
        [ Alcotest.test_case "sim" `Quick (test_backend (Dmw_exec.sim ()));
          Alcotest.test_case "socket" `Quick
            (test_backend (Dmw_exec.socket ()));
          Alcotest.test_case "pipelined depths" `Quick test_pipelined_points ] );
      ( "disabled",
        [ Alcotest.test_case "records nothing" `Quick
            test_disabled_records_nothing ] );
      ( "spans",
        [ Alcotest.test_case "hardened phase names" `Quick
            test_hardened_span_names ] ) ]
