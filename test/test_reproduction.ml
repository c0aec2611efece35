(* Reproduction shapes as regression tests: small, fast versions of
   the headline experiments with assertions on the *shape* of the
   result (scaling exponents, orderings, crossovers) rather than
   absolute numbers — so a change that silently breaks a paper claim
   fails CI, not just the eyeball check of bench output. *)

open Dmw_core
module Trace = Dmw_sim.Trace
module Stats = Dmw_stats.Stats

let dmw_messages n =
  let p = Params.make_exn ~group_bits:64 ~seed:3 ~n ~m:2 ~c:1 () in
  let rng = Dmw_bigint.Prng.create ~seed:(n * 131) in
  let bids =
    Dmw_workload.Workload.random_levels rng ~n ~m:2 ~w_max:p.Params.w_max
  in
  let r = Dmw_exec.run ~seed:5 p ~bids ~keep_events:false in
  Alcotest.(check bool) "completed" true (Dmw_exec.completed r);
  float_of_int (Trace.messages r.Dmw_exec.trace)

let test_table1_communication_shape () =
  let ns = [ 4; 6; 8; 10 ] in
  let exponent = Stats.scaling_exponent ~xs:ns ~ys:(List.map dmw_messages ns) in
  Alcotest.(check bool)
    (Printf.sprintf "DMW message exponent %.2f in [1.7, 2.4]" exponent)
    true
    (exponent > 1.7 && exponent < 2.4)

let test_table1_computation_shape () =
  (* Per-agent mod-exps: one sim run's total over n. *)
  let exps n =
    let module Counters = Dmw_modular.Zmod.Counters in
    let p = Params.make_exn ~group_bits:64 ~seed:3 ~n ~m:1 ~c:1 () in
    let bids = Array.init n (fun i -> [| 1 + (i mod p.Params.w_max) |]) in
    Counters.reset ();
    Counters.enable ();
    let r = Dmw_exec.run ~seed:5 p ~bids ~keep_events:false in
    Counters.disable ();
    Alcotest.(check bool) "completed" true (Dmw_exec.completed r);
    float_of_int (Counters.exponentiations ()) /. float_of_int n
  in
  let ns = [ 4; 6; 8; 10 ] in
  let exponent = Stats.scaling_exponent ~xs:ns ~ys:(List.map exps ns) in
  Alcotest.(check bool)
    (Printf.sprintf "per-agent mod-exp exponent %.2f in [1.6, 2.3]" exponent)
    true
    (exponent > 1.6 && exponent < 2.3)

let test_napproximation_tightness_shape () =
  List.iter
    (fun n ->
      let inst = Dmw_workload.Workload.adversarial_minwork ~n ~m:n in
      let times = Dmw_mechanism.Instance.times inst in
      let mw = Dmw_mechanism.Minwork.run_instance inst in
      let _, opt = Dmw_mechanism.Optimal.run times in
      let ratio =
        Dmw_mechanism.Schedule.makespan ~times mw.Dmw_mechanism.Minwork.schedule
        /. opt
      in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d ratio %.2f close to n" n ratio)
        true
        (ratio > float_of_int n -. 0.2 && ratio <= float_of_int n))
    [ 3; 5 ]

let test_frugality_decreases_with_competition () =
  let mean_ratio n =
    let rng = Dmw_bigint.Prng.create ~seed:(n * 13) in
    Stats.mean
      (List.init 15 (fun _ ->
           let inst =
             Dmw_workload.Workload.uniform_unrelated rng ~n ~m:4 ~lo:1.0
               ~hi:10.0
           in
           let o = Dmw_mechanism.Minwork.run_instance inst in
           Dmw_mechanism.Metrics.frugality_ratio inst o))
  in
  let thin = mean_ratio 3 and thick = mean_ratio 24 in
  Alcotest.(check bool)
    (Printf.sprintf "ratio falls: %.2f (n=3) > %.2f (n=24) > 1" thin thick)
    true
    (thin > thick && thick > 1.0)

let test_privacy_threshold_shape () =
  let p = Params.make_exn ~group_bits:64 ~seed:9 ~n:8 ~m:1 ~c:2 () in
  let rng = Dmw_bigint.Prng.create ~seed:10 in
  (* Thresholds strictly decrease with the bid and all exceed c. *)
  let thresholds =
    List.map
      (fun bid ->
        let dealer =
          Dmw_crypto.Bid_commitments.generate rng ~group:p.Params.group
            ~sigma:p.Params.sigma ~tau:(Params.tau_of_bid p bid)
        in
        let rec search k =
          if k > p.Params.n then max_int
          else if
            Privacy.attack_dealer p ~coalition:(List.init k Fun.id) ~dealer
            = Some bid
          then k
          else search (k + 1)
        in
        search 1)
      (Params.bid_levels p)
  in
  let rec strictly_decreasing = function
    | a :: (b :: _ as rest) -> a > b && strictly_decreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "strictly decreasing" true (strictly_decreasing thresholds);
  List.iter
    (fun t -> Alcotest.(check bool) "above c" true (t > p.Params.c))
    thresholds

let test_batching_shape () =
  (* Batched envelope count must be (nearly) independent of m while the
     plain count grows with m. *)
  let count ~batching m =
    let p = Params.make_exn ~group_bits:64 ~seed:3 ~n:6 ~m ~c:1 () in
    let rng = Dmw_bigint.Prng.create ~seed:m in
    let bids = Dmw_workload.Workload.random_levels rng ~n:6 ~m ~w_max:p.Params.w_max in
    let r = Dmw_exec.run ~seed:5 p ~bids ~keep_events:false ~batching in
    Trace.messages r.Dmw_exec.trace
  in
  let plain_growth = float_of_int (count ~batching:false 8) /. float_of_int (count ~batching:false 2) in
  let batched_growth = float_of_int (count ~batching:true 8) /. float_of_int (count ~batching:true 2) in
  Alcotest.(check bool)
    (Printf.sprintf "plain x%.1f vs batched x%.1f" plain_growth batched_growth)
    true
    (plain_growth > 2.5 && batched_growth < 1.6)

let () =
  Alcotest.run "dmw_reproduction"
    [ ("paper-claim shapes",
       [ Alcotest.test_case "Table 1 communication" `Slow test_table1_communication_shape;
         Alcotest.test_case "Table 1 computation" `Slow test_table1_computation_shape;
         Alcotest.test_case "n-approximation tightness" `Quick
           test_napproximation_tightness_shape;
         Alcotest.test_case "frugality vs competition" `Quick
           test_frugality_decreases_with_competition;
         Alcotest.test_case "privacy threshold curve" `Quick
           test_privacy_threshold_shape;
         Alcotest.test_case "batching m-independence" `Slow test_batching_shape ]) ]
