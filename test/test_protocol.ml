(* End-to-end tests of the distributed mechanism: completion,
   equivalence with the centralized MinWork, the faithfulness and
   strong-voluntary-participation experiments over the full deviation
   catalogue, network faults, and the exact Θ(mn²) message-count
   formulas of Theorem 11. *)

open Dmw_core
open Dmw_mechanism
module Trace = Dmw_sim.Trace
module Fault = Dmw_sim.Fault

let params ?(n = 6) ?(m = 2) ?(c = 1) ?(seed = 3) () =
  Params.make_exn ~group_bits:64 ~seed ~n ~m ~c ()

(* A fixed instance with a unique minimum per task (no ties). *)
let bids0 = [| [| 3; 2 |]; [| 1; 3 |]; [| 4; 4 |]; [| 2; 1 |]; [| 4; 3 |]; [| 3; 4 |] |]

let run ?strategies ?faults ?(seed = 7) ?(bids = bids0) p =
  Dmw_exec.run ?strategies ?faults ~seed p ~bids

let minwork_reference p bids =
  let rank = Params.pseudonym_rank p in
  Minwork.run
    ~tie_break:(Vickrey.Least_key (fun i -> rank.(i)))
    (Array.map (Array.map float_of_int) bids)

let check_matches_centralized p bids (r : Dmw_exec.result) =
  let mw = minwork_reference p bids in
  (match r.Dmw_exec.schedule with
  | Some s ->
      Alcotest.(check bool) "schedule matches MinWork" true
        (Schedule.equal s mw.Minwork.schedule)
  | None -> Alcotest.fail "protocol did not complete");
  Array.iteri
    (fun i p_opt ->
      match p_opt with
      | Some pay ->
          Alcotest.(check (float 0.0))
            (Printf.sprintf "payment %d" i)
            mw.Minwork.payments.(i) pay
      | None -> Alcotest.failf "payment %d withheld" i)
    r.Dmw_exec.payments

(* ------------------------------------------------------------------ *)
(* Honest execution                                                    *)

let test_honest_completes_and_matches () =
  let p = params () in
  let r = run p in
  Alcotest.(check bool) "completed" true (Dmw_exec.completed r);
  check_matches_centralized p bids0 r

let test_prices_are_first_and_second_minima () =
  let p = params () in
  let r = run p in
  match (r.Dmw_exec.first_prices, r.Dmw_exec.second_prices) with
  | Some fp, Some sp ->
      Array.iteri
        (fun j y1 ->
          let col = Array.init p.Params.n (fun i -> bids0.(i).(j)) in
          Array.sort Stdlib.compare col;
          Alcotest.(check int) "first price" col.(0) y1;
          Alcotest.(check int) "second price" col.(1) sp.(j))
        fp
  | _ -> Alcotest.fail "no prices"

let test_tie_breaks_to_smallest_pseudonym () =
  let p = params ~m:1 () in
  (* Agents 1 and 3 tie at the minimum. *)
  let bids = [| [| 3 |]; [| 1 |]; [| 4 |]; [| 1 |]; [| 2 |]; [| 3 |] |] in
  let r = run p ~bids in
  (match r.Dmw_exec.schedule with
  | Some s ->
      let w = Schedule.agent_of s ~task:0 in
      let expected =
        if Dmw_bigint.Bigint.compare p.Params.alphas.(1) p.Params.alphas.(3) < 0
        then 1
        else 3
      in
      Alcotest.(check int) "smallest pseudonym wins" expected w
  | None -> Alcotest.fail "did not complete");
  (* A tied auction pays the winning bid. *)
  match r.Dmw_exec.second_prices with
  | Some sp -> Alcotest.(check int) "second price equals bid" 1 sp.(0)
  | None -> Alcotest.fail "no second price"

let test_deterministic_given_seeds () =
  let p = params () in
  let r1 = run p and r2 = run p in
  Alcotest.(check int) "same message count" (Trace.messages r1.Dmw_exec.trace)
    (Trace.messages r2.Dmw_exec.trace);
  Alcotest.(check bool) "same schedule" true
    (match (r1.Dmw_exec.schedule, r2.Dmw_exec.schedule) with
    | Some a, Some b -> Schedule.equal a b
    | _ -> false)

let prop_equivalence_random_instances =
  QCheck.Test.make ~count:12 ~name:"DMW = centralized MinWork on random bids"
    QCheck.(int_range 0 10000)
    (fun seed ->
      let rng = Dmw_bigint.Prng.create ~seed in
      let n = 5 + Dmw_bigint.Prng.int rng 2 in
      let m = 1 + Dmw_bigint.Prng.int rng 2 in
      let p = params ~n ~m ~seed:(seed + 1) () in
      let bids = Dmw_workload.Workload.random_levels rng ~n ~m ~w_max:p.Params.w_max in
      let r = Dmw_exec.run ~seed p ~bids ~keep_events:false in
      let mw = minwork_reference p bids in
      match r.Dmw_exec.schedule with
      | Some s ->
          Schedule.equal s mw.Minwork.schedule
          && Array.for_all2
               (fun issued expected ->
                 match issued with Some v -> v = expected | None -> false)
               r.Dmw_exec.payments mw.Minwork.payments
      | None -> false)

(* ------------------------------------------------------------------ *)
(* Message-count formulas (Theorem 11)                                 *)

let test_message_counts_exact () =
  let p = params ~n:6 ~m:2 () in
  let r = run p in
  let n = p.Params.n and m = p.Params.m in
  let per_publish = n * (n - 1) in
  let by_tag = Trace.messages_by_tag r.Dmw_exec.trace in
  let count tag = try List.assoc tag by_tag with Not_found -> 0 in
  Alcotest.(check int) "shares" (m * n * (n - 1)) (count "share");
  Alcotest.(check int) "commitments" (m * per_publish) (count "commitments");
  Alcotest.(check int) "lambda_psi" (m * per_publish) (count "lambda_psi");
  Alcotest.(check int) "lambda_psi_excl" (m * per_publish) (count "lambda_psi_excl");
  (* y*_j + 1 disclosers per task. *)
  (match r.Dmw_exec.first_prices with
  | Some fp ->
      let expected =
        Array.fold_left (fun acc y -> acc + ((y + 1) * (n - 1))) 0 fp
      in
      Alcotest.(check int) "f_disclosure" expected (count "f_disclosure")
  | None -> Alcotest.fail "no prices");
  Alcotest.(check int) "payment reports" n (count "payment_report")

let test_message_count_scales_quadratically () =
  (* Doubling n roughly quadruples DMW messages, for fixed m and first
     price. *)
  let count n =
    let p = params ~n ~m:1 () in
    let bids = Array.init n (fun i -> [| 1 + (i mod p.Params.w_max) |]) in
    let r = Dmw_exec.run ~seed:5 p ~bids ~keep_events:false in
    Trace.messages r.Dmw_exec.trace
  in
  let c6 = count 6 and c12 = count 12 in
  let ratio = float_of_int c12 /. float_of_int c6 in
  Alcotest.(check bool)
    (Printf.sprintf "quadratic growth (ratio %.2f)" ratio)
    true
    (ratio > 3.0 && ratio < 5.5)

(* ------------------------------------------------------------------ *)
(* Batching ablation                                                   *)

let test_batching_same_outcome () =
  let p = params ~m:4 () in
  let bids =
    [| [| 3; 2; 1; 4 |]; [| 1; 3; 2; 2 |]; [| 4; 4; 3; 1 |];
       [| 2; 1; 4; 3 |]; [| 4; 3; 2; 2 |]; [| 3; 4; 4; 3 |] |]
  in
  let plain = Dmw_exec.run ~seed:7 p ~bids ~keep_events:false in
  let batched = Dmw_exec.run ~seed:7 p ~bids ~keep_events:false ~batching:true in
  Alcotest.(check bool) "both complete" true
    (Dmw_exec.completed plain && Dmw_exec.completed batched);
  (match (plain.Dmw_exec.schedule, batched.Dmw_exec.schedule) with
  | Some a, Some b -> Alcotest.(check bool) "same schedule" true (Schedule.equal a b)
  | _ -> Alcotest.fail "missing schedule");
  Alcotest.(check bool) "same payments" true
    (plain.Dmw_exec.payments = batched.Dmw_exec.payments)

let test_batching_reduces_messages () =
  let p = params ~m:4 () in
  let bids =
    [| [| 3; 2; 1; 4 |]; [| 1; 3; 2; 2 |]; [| 4; 4; 3; 1 |];
       [| 2; 1; 4; 3 |]; [| 4; 3; 2; 2 |]; [| 3; 4; 4; 3 |] |]
  in
  let plain = Dmw_exec.run ~seed:7 p ~bids ~keep_events:false in
  let batched = Dmw_exec.run ~seed:7 p ~bids ~keep_events:false ~batching:true in
  let pm = Trace.messages plain.Dmw_exec.trace in
  let bm = Trace.messages batched.Dmw_exec.trace in
  let pb = Trace.bytes plain.Dmw_exec.trace in
  let bb = Trace.bytes batched.Dmw_exec.trace in
  Alcotest.(check bool)
    (Printf.sprintf "fewer messages (%d < %d)" bm pm)
    true (bm < pm);
  (* Phase II alone saves a factor ~2m on its share of the messages. *)
  Alcotest.(check bool) "batch envelopes used" true
    (List.mem_assoc "batch" (Trace.messages_by_tag batched.Dmw_exec.trace));
  (* Payload volume is preserved up to small per-envelope headers. *)
  Alcotest.(check bool)
    (Printf.sprintf "bytes comparable (%d vs %d)" bb pb)
    true
    (float_of_int bb < 1.05 *. float_of_int pb
    && float_of_int bb > 0.9 *. float_of_int pb)

let prop_modes_agree_random_instances =
  (* Plain, batched, hardened and batched+hardened must produce the
     same outcome on random instances. *)
  QCheck.Test.make ~count:6 ~name:"all protocol modes agree"
    QCheck.(int_range 0 10000)
    (fun seed ->
      let rng = Dmw_bigint.Prng.create ~seed in
      let n = 5 + Dmw_bigint.Prng.int rng 2 in
      let m = 1 + Dmw_bigint.Prng.int rng 2 in
      let p = params ~n ~m ~seed:(seed + 7) () in
      let bids = Dmw_workload.Workload.random_levels rng ~n ~m ~w_max:p.Params.w_max in
      let outcome ~batching ~hardened =
        let r =
          Dmw_exec.run ~seed p ~bids ~keep_events:false ~batching ~hardened
        in
        (Option.map Schedule.assignment r.Dmw_exec.schedule, r.Dmw_exec.payments)
      in
      let base = outcome ~batching:false ~hardened:false in
      fst base <> None
      && List.for_all
           (fun (b, h) -> outcome ~batching:b ~hardened:h = base)
           [ (true, false); (false, true); (true, true) ])

let prop_svp_random_deviator =
  (* Randomized form of Theorem 9: random instance, random deviator,
     random strategy — honest agents never end negative. *)
  QCheck.Test.make ~count:10 ~name:"SVP under random deviations"
    QCheck.(int_range 0 100000)
    (fun seed ->
      let rng = Dmw_bigint.Prng.create ~seed in
      let n = 5 + Dmw_bigint.Prng.int rng 2 in
      let p = params ~n ~m:1 ~seed:(seed + 11) () in
      let bids =
        Array.init n (fun _ -> [| 1 + Dmw_bigint.Prng.int rng p.Params.w_max |])
      in
      let deviator = Dmw_bigint.Prng.int rng n in
      let victim = (deviator + 1 + Dmw_bigint.Prng.int rng (n - 1)) mod n in
      let strategy =
        Dmw_bigint.Prng.pick rng
          (Array.of_list (Strategy.all_deviations ~victim))
      in
      let r =
        Dmw_exec.run ~seed p ~bids ~keep_events:false
          ~strategies:(fun i -> if i = deviator then strategy else Strategy.Suggested)
      in
      let us = Dmw_exec.utilities r ~true_levels:bids in
      Array.for_all (fun u -> u >= -1e-9)
        (Array.init n (fun i -> if i = deviator then 0.0 else us.(i))))

(* ------------------------------------------------------------------ *)
(* Hardened disclosures: closing the eq. (13) sum gap                  *)

let aborted_with pred (r : Dmw_exec.result) =
  Array.exists
    (fun (s : Dmw_exec.agent_status) ->
      match s.aborted with Some reason -> pred reason | None -> false)
    r.Dmw_exec.statuses

let test_hardened_honest_matches_plain () =
  let p = params () in
  let plain = run p in
  let hard = Dmw_exec.run ~seed:7 p ~bids:bids0 ~keep_events:false ~hardened:true in
  Alcotest.(check bool) "completed" true (Dmw_exec.completed hard);
  (match (plain.Dmw_exec.schedule, hard.Dmw_exec.schedule) with
  | Some a, Some b -> Alcotest.(check bool) "same schedule" true (Schedule.equal a b)
  | _ -> Alcotest.fail "missing schedule");
  Alcotest.(check bool) "same payments" true
    (plain.Dmw_exec.payments = hard.Dmw_exec.payments)

let test_hardened_catches_swap_at_eq13 () =
  (* In plain mode the sum-preserving swap passes eq. (13) and only
     fails winner resolution; hardened disclosure pins the corrupt row
     itself. *)
  let p = params ~m:1 () in
  let bids = [| [| 3 |]; [| 1 |]; [| 4 |]; [| 2 |]; [| 4 |]; [| 3 |] |] in
  let strategies i = if i = 0 then Strategy.Swap_disclosure else Strategy.Suggested in
  let r =
    Dmw_exec.run ~seed:7 p ~bids ~keep_events:false ~hardened:true ~strategies
  in
  Alcotest.(check bool) "not completed" false (Dmw_exec.completed r);
  Alcotest.(check bool) "caught at eq13, blaming agent 0" true
    (aborted_with (function Audit.Bad_disclosure { agent } -> agent = 0 | _ -> false) r);
  (* Every HONEST agent pins the row itself; only the deviator — which
     never verifies its own row — runs on into winner resolution. *)
  Array.iter
    (fun (s : Dmw_exec.agent_status) ->
      if s.Dmw_exec.agent <> 0 then
        Alcotest.(check bool)
          (Printf.sprintf "agent %d verdict" s.Dmw_exec.agent)
          true
          (match s.Dmw_exec.aborted with
          | Some (Audit.Bad_disclosure { agent }) -> agent = 0
          | _ -> false))
    r.Dmw_exec.statuses

let test_hardened_catches_corrupt_disclosure () =
  let p = params () in
  let r =
    Dmw_exec.run ~seed:7 p ~bids:bids0 ~keep_events:false ~hardened:true
      ~strategies:(fun i ->
        if i = 0 then Strategy.Corrupt_disclosure else Strategy.Suggested)
  in
  Alcotest.(check bool) "not completed" false (Dmw_exec.completed r);
  Alcotest.(check bool) "blamed agent 0" true
    (aborted_with (function Audit.Bad_disclosure { agent } -> agent = 0 | _ -> false) r)

let test_hardened_catches_pair_swap () =
  (* Swapping whole (f, h) pairs keeps every entry internally
     consistent; hardened verification still pins it because each
     entry is bound to ITS DEALER's commitments. *)
  let p = params ~m:1 () in
  let bids = [| [| 3 |]; [| 1 |]; [| 4 |]; [| 2 |]; [| 4 |]; [| 3 |] |] in
  let r =
    Dmw_exec.run ~seed:7 p ~bids ~keep_events:false ~hardened:true
      ~strategies:(fun i ->
        if i = 0 then Strategy.Swap_disclosure_pairs else Strategy.Suggested)
  in
  Alcotest.(check bool) "not completed" false (Dmw_exec.completed r);
  Alcotest.(check bool) "pinned at eq13" true
    (aborted_with (function Audit.Bad_disclosure { agent } -> agent = 0 | _ -> false) r)

let test_hardened_fallback_still_works () =
  let p = params () in
  let r =
    Dmw_exec.run ~seed:7 p ~bids:bids0 ~keep_events:false ~hardened:true
      ~strategies:(fun i ->
        if i = 0 then Strategy.Withhold_disclosure else Strategy.Suggested)
  in
  Alcotest.(check bool) "completed via fallback" true (Dmw_exec.completed r)

(* ------------------------------------------------------------------ *)
(* Deviations: detection and outcome                                   *)

let test_corrupt_share_detected () =
  let p = params () in
  let r =
    run p ~strategies:(fun i ->
        if i = 2 then Strategy.Corrupt_share_to 4 else Strategy.Suggested)
  in
  Alcotest.(check bool) "not completed" false (Dmw_exec.completed r);
  Alcotest.(check bool) "victim blames dealer 2" true
    (aborted_with (function Audit.Bad_share { dealer } -> dealer = 2 | _ -> false) r)

let test_withhold_share_stalls_victim () =
  let p = params () in
  let r =
    run p ~strategies:(fun i ->
        if i = 2 then Strategy.Withhold_share_from 4 else Strategy.Suggested)
  in
  Alcotest.(check bool) "not completed" false (Dmw_exec.completed r);
  let victim = r.Dmw_exec.statuses.(4) in
  Alcotest.(check bool) "victim stalled in bidding" true
    (match victim.Dmw_exec.aborted with
    | Some (Audit.Stalled { phase }) -> phase = "bidding"
    | _ -> false)

let test_withhold_commitments_stalls_everyone () =
  let p = params () in
  let r = run p ~strategies:(fun i -> if i = 0 then Strategy.Withhold_commitments else Strategy.Suggested) in
  Alcotest.(check bool) "not completed" false (Dmw_exec.completed r);
  Array.iteri
    (fun i (s : Dmw_exec.agent_status) ->
      if i <> 0 then
        Alcotest.(check bool) "honest stalled" true (Option.is_some s.aborted))
    r.Dmw_exec.statuses

let test_corrupt_commitments_detected () =
  let p = params () in
  let r = run p ~strategies:(fun i -> if i = 1 then Strategy.Corrupt_commitments else Strategy.Suggested) in
  Alcotest.(check bool) "not completed" false (Dmw_exec.completed r);
  Alcotest.(check bool) "blamed as dealer" true
    (aborted_with (function Audit.Bad_share { dealer } -> dealer = 1 | _ -> false) r)

let test_wrong_lambda_detected () =
  let p = params () in
  let r = run p ~strategies:(fun i -> if i = 3 then Strategy.Wrong_lambda else Strategy.Suggested) in
  Alcotest.(check bool) "not completed" false (Dmw_exec.completed r);
  Alcotest.(check bool) "eq11 blames agent 3" true
    (aborted_with (function Audit.Bad_lambda_psi { agent } -> agent = 3 | _ -> false) r)

let test_crash_after_bidding_stalls () =
  let p = params () in
  let r = run p ~strategies:(fun i -> if i = 5 then Strategy.Crash_after_bidding else Strategy.Suggested) in
  Alcotest.(check bool) "not completed" false (Dmw_exec.completed r);
  Alcotest.(check bool) "others stalled" true
    (aborted_with (function Audit.Stalled _ -> true | _ -> false) r)

let test_withhold_disclosure_fallback_completes () =
  let p = params () in
  (* Agent 0 is always a selected discloser; it withholds. *)
  let r = run p ~strategies:(fun i -> if i = 0 then Strategy.Withhold_disclosure else Strategy.Suggested) in
  Alcotest.(check bool) "completed despite withholding" true (Dmw_exec.completed r);
  check_matches_centralized p bids0 r

let test_over_disclose_harmless () =
  let p = params () in
  let r = run p ~strategies:(fun i -> if i = 5 then Strategy.Over_disclose else Strategy.Suggested) in
  Alcotest.(check bool) "completed" true (Dmw_exec.completed r);
  check_matches_centralized p bids0 r

let test_corrupt_disclosure_detected () =
  let p = params () in
  let r = run p ~strategies:(fun i -> if i = 0 then Strategy.Corrupt_disclosure else Strategy.Suggested) in
  Alcotest.(check bool) "not completed" false (Dmw_exec.completed r);
  Alcotest.(check bool) "eq13 blames agent 0" true
    (aborted_with (function Audit.Bad_disclosure { agent } -> agent = 0 | _ -> false) r)

let test_swap_disclosure_caught_at_winner_resolution () =
  (* The sum-preserving swap passes eq. (13) — the verification gap —
     but corrupts the winner's share column, so winner identification
     fails instead of electing a wrong winner. *)
  let p = params ~m:1 () in
  (* Winner must be agent 0 or 1 for the swap to matter; make agent 1
     the unique minimum and agent 0 the deviating discloser. *)
  let bids = [| [| 3 |]; [| 1 |]; [| 4 |]; [| 2 |]; [| 4 |]; [| 3 |] |] in
  let r = run p ~bids ~strategies:(fun i -> if i = 0 then Strategy.Swap_disclosure else Strategy.Suggested) in
  Alcotest.(check bool) "not completed" false (Dmw_exec.completed r);
  Alcotest.(check bool) "winner resolution failed" true
    (aborted_with
       (function
         | Audit.Resolution_failed { stage } -> stage = "winner identification"
         | _ -> false)
       r);
  Alcotest.(check bool) "eq13 did NOT flag the swap" false
    (aborted_with (function Audit.Bad_disclosure _ -> true | _ -> false) r)

let test_wrong_lambda_excl_detected () =
  let p = params () in
  let r = run p ~strategies:(fun i -> if i = 2 then Strategy.Wrong_lambda_excl else Strategy.Suggested) in
  Alcotest.(check bool) "not completed" false (Dmw_exec.completed r);
  Alcotest.(check bool) "blames agent 2" true
    (aborted_with
       (function Audit.Bad_lambda_psi_excl { agent } -> agent = 2 | _ -> false)
       r)

let test_inflate_payment_withheld () =
  let p = params () in
  (* Agent 1 wins task 0 in bids0; it inflates its payment claim. *)
  let r = run p ~strategies:(fun i -> if i = 1 then Strategy.Inflate_payment 7.0 else Strategy.Suggested) in
  (match r.Dmw_exec.schedule with
  | Some _ -> ()
  | None -> Alcotest.fail "schedule should still form");
  Alcotest.(check bool) "deviator's entry withheld" true
    (r.Dmw_exec.payments.(1) = None);
  (* Everyone else still gets paid. *)
  Array.iteri
    (fun i pay -> if i <> 1 then Alcotest.(check bool) "issued" true (Option.is_some pay))
    r.Dmw_exec.payments

(* ------------------------------------------------------------------ *)
(* Faithfulness and strong voluntary participation                     *)

let test_faithfulness_no_deviation_profits () =
  let p = params () in
  let honest = run p in
  List.iter
    (fun deviator ->
      List.iter
        (fun strategy ->
          let r =
            run p ~strategies:(fun i -> if i = deviator then strategy else Strategy.Suggested)
          in
          let u_dev = Dmw_exec.utility r ~true_levels:bids0 ~agent:deviator in
          let u_honest = Dmw_exec.utility honest ~true_levels:bids0 ~agent:deviator in
          Alcotest.(check bool)
            (Printf.sprintf "agent %d, %s: %.1f <= %.1f" deviator
               (Strategy.to_string strategy) u_dev u_honest)
            true (u_dev <= u_honest +. 1e-9))
        (Strategy.all_deviations ~victim:((deviator + 1) mod p.Params.n)))
    [ 0; 1 ]

let test_svp_honest_agents_never_lose () =
  let p = params () in
  List.iter
    (fun strategy ->
      let deviator = 1 in
      let r = run p ~strategies:(fun i -> if i = deviator then strategy else Strategy.Suggested) in
      Array.iteri
        (fun i u ->
          if i <> deviator then
            Alcotest.(check bool)
              (Printf.sprintf "agent %d under %s" i (Strategy.to_string strategy))
              true (u >= -1e-9))
        (Dmw_exec.utilities r ~true_levels:bids0))
    (Strategy.all_deviations ~victim:3)

let test_faithfulness_under_hardened_mode () =
  (* The hardened-disclosure variant must preserve faithfulness: no
     deviation profits there either. *)
  let p = params () in
  let honest = Dmw_exec.run ~seed:4 p ~bids:bids0 ~keep_events:false ~hardened:true in
  let deviator = 1 in
  let u_honest = Dmw_exec.utility honest ~true_levels:bids0 ~agent:deviator in
  List.iter
    (fun strategy ->
      let r =
        Dmw_exec.run ~seed:4 p ~bids:bids0 ~keep_events:false ~hardened:true
          ~strategies:(fun i -> if i = deviator then strategy else Strategy.Suggested)
      in
      let u = Dmw_exec.utility r ~true_levels:bids0 ~agent:deviator in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.1f <= %.1f" (Strategy.to_string strategy) u u_honest)
        true (u <= u_honest +. 1e-9))
    (Strategy.all_deviations ~victim:3)

let test_misreporting_does_not_profit () =
  (* Information-revelation deviations: agent 1's true value for task 0
     is 1 (it wins at price 2, utility 1). Over- or under-bidding never
     helps. *)
  let p = params () in
  let honest = run p in
  let u_honest = Dmw_exec.utility honest ~true_levels:bids0 ~agent:1 in
  List.iter
    (fun lie ->
      let bids = Array.map Array.copy bids0 in
      bids.(1).(0) <- lie;
      let r = run p ~bids in
      let u = Dmw_exec.utility r ~true_levels:bids0 ~agent:1 in
      Alcotest.(check bool)
        (Printf.sprintf "misreport %d: %.1f <= %.1f" lie u u_honest)
        true (u <= u_honest +. 1e-9))
    [ 2; 3; 4 ]

let test_svp_under_two_simultaneous_deviators () =
  (* Theorem 9 quantifies over ALL other strategies, not one deviator:
     spot-check pairs of simultaneous deviations. *)
  let p = params () in
  let pairs =
    [ (Strategy.Corrupt_share_to 4, Strategy.Wrong_lambda);
      (Strategy.Withhold_disclosure, Strategy.Over_disclose);
      (Strategy.Crash_after_bidding, Strategy.Inflate_payment 5.0);
      (Strategy.Corrupt_commitments, Strategy.Withhold_commitments);
      (Strategy.Swap_disclosure, Strategy.Withhold_disclosure) ]
  in
  List.iter
    (fun (s1, s2) ->
      let r =
        run p ~strategies:(fun i ->
            if i = 1 then s1 else if i = 4 then s2 else Strategy.Suggested)
      in
      Array.iteri
        (fun i u ->
          if i <> 1 && i <> 4 then
            Alcotest.(check bool)
              (Printf.sprintf "agent %d under %s + %s" i (Strategy.to_string s1)
                 (Strategy.to_string s2))
              true (u >= -1e-9))
        (Dmw_exec.utilities r ~true_levels:bids0))
    pairs

let test_outcome_invariant_under_latency_model () =
  (* The mechanism's outcome must not depend on network timing. *)
  let p = params () in
  let base = run p in
  List.iter
    (fun latency ->
      let r =
        Dmw_exec.run ~seed:7 p ~bids:bids0 ~keep_events:false
          ~backend:(Dmw_exec.sim ~latency ())
      in
      Alcotest.(check bool) "completed" true (Dmw_exec.completed r);
      match (base.Dmw_exec.schedule, r.Dmw_exec.schedule) with
      | Some a, Some b -> Alcotest.(check bool) "same schedule" true (Schedule.equal a b)
      | _ -> Alcotest.fail "missing schedule")
    [ Dmw_sim.Latency.constant 0.004;
      Dmw_sim.Latency.lognormal ~seed:3 ~n:7 ~median:0.002 ~sigma:1.0;
      Dmw_sim.Latency.clustered ~seed:3 ~n:7 ~clusters:3 ~local_:0.0005
        ~remote:0.01 ]

(* ------------------------------------------------------------------ *)
(* Agent robustness against hostile inputs                             *)

let hostile_injection ~payload_of =
  (* Run an honest protocol but prepend a hostile injection from agent
     5 to agent 0 before anything else; the run must still complete
     with the right outcome. *)
  let p = params () in
  let eng_seed = 7 in
  let r_clean = Dmw_exec.run ~seed:eng_seed p ~bids:bids0 ~keep_events:false in
  (* Dmw_exec.run has no injection hook; emulate by checking that an
     Agent fed the hostile payload directly neither crashes nor changes
     state. *)
  let rng = Dmw_bigint.Prng.create ~seed:1 in
  let agent =
    Agent.create ~params:p ~id:0 ~bids:bids0.(0) ~strategy:Strategy.Suggested
      ~rng ()
  in
  let eng = Dmw_sim.Engine.create ~seed:eng_seed ~nodes:(p.Params.n + 1) () in
  let tr = Agent.transport_of_engine eng ~id:0 in
  Agent.start tr agent;
  List.iter
    (fun payload -> Agent.handle tr agent ~src:5 payload)
    (payload_of p);
  Alcotest.(check bool) "agent still active" true (Agent.aborted agent = None);
  Alcotest.(check bool) "clean run completed" true (Dmw_exec.completed r_clean)

let test_hostile_task_index () =
  hostile_injection ~payload_of:(fun _ ->
      [ Messages.Lambda_psi
          { task = 999; lambda = Dmw_bigint.Bigint.one; psi = Dmw_bigint.Bigint.one };
        Messages.F_disclosure { task = -1; f_row = [||] } ])

let test_hostile_batch_nesting () =
  hostile_injection ~payload_of:(fun _ ->
      [ Messages.Batch
          [ Messages.Batch
              [ Messages.Lambda_psi
                  { task = 0; lambda = Dmw_bigint.Bigint.one;
                    psi = Dmw_bigint.Bigint.one } ] ] ])

let test_hostile_wrong_length_disclosure () =
  hostile_injection ~payload_of:(fun _ ->
      [ Messages.F_disclosure { task = 0; f_row = [| Dmw_bigint.Bigint.one |] } ])

let test_duplicate_messages_ignored () =
  (* The second copy of a message from the same sender must not change
     state: feed a share twice, then check no abort and one recorded
     value (implied by no crash on re-delivery). *)
  let p = params () in
  let rng = Dmw_bigint.Prng.create ~seed:2 in
  let agent =
    Agent.create ~params:p ~id:0 ~bids:bids0.(0) ~strategy:Strategy.Suggested
      ~rng ()
  in
  let eng = Dmw_sim.Engine.create ~seed:1 ~nodes:(p.Params.n + 1) () in
  let tr = Agent.transport_of_engine eng ~id:0 in
  Agent.start tr agent;
  let share =
    { Dmw_crypto.Share.e_at = Dmw_bigint.Bigint.one;
      f_at = Dmw_bigint.Bigint.one;
      g_at = Dmw_bigint.Bigint.one;
      h_at = Dmw_bigint.Bigint.one }
  in
  Agent.handle tr agent ~src:3 (Messages.Share { task = 0; share });
  Agent.handle tr agent ~src:3 (Messages.Share { task = 0; share });
  Alcotest.(check bool) "no abort" true (Agent.aborted agent = None);
  Alcotest.(check bool) "still bidding" true
    (Agent.phase_of agent ~task:0 = Agent.Bidding)

let test_agent_fuzz_random_messages () =
  (* Drive a lone agent with hundreds of randomly ordered, randomly
     sourced messages (valid and garbage mixed): it must never raise —
     it either progresses, ignores, or aborts cleanly. *)
  let p = params () in
  let g = p.Params.group in
  let rng = Dmw_bigint.Prng.create ~seed:31337 in
  let random_exp () = Dmw_modular.Group.random_exponent g rng in
  let random_elt () = Dmw_modular.Group.pow g g.Dmw_modular.Group.z1 (random_exp ()) in
  let random_share () =
    { Dmw_crypto.Share.e_at = random_exp (); f_at = random_exp ();
      g_at = random_exp (); h_at = random_exp () }
  in
  let random_public () =
    let vec () =
      Array.init p.Params.sigma (fun _ -> Dmw_crypto.Pedersen.of_element (random_elt ()))
    in
    { Dmw_crypto.Bid_commitments.o = vec (); qv = vec (); r = vec () }
  in
  let random_msg () =
    let task = Dmw_bigint.Prng.int_in_range rng ~lo:(-1) ~hi:3 in
    match Dmw_bigint.Prng.int rng 7 with
    | 0 -> Messages.Share { task; share = random_share () }
    | 1 -> Messages.Commitments { task; public = random_public () }
    | 2 -> Messages.Lambda_psi { task; lambda = random_elt (); psi = random_elt () }
    | 3 ->
        Messages.F_disclosure
          { task;
            f_row = Array.init (Dmw_bigint.Prng.int rng 9) (fun _ -> random_exp ()) }
    | 4 -> Messages.Lambda_psi_excl { task; lambda = random_elt (); psi = random_elt () }
    | 5 ->
        Messages.F_disclosure_hardened
          { task;
            f_row = Array.init p.Params.n (fun _ -> random_exp ());
            h_row = Array.init p.Params.n (fun _ -> random_exp ()) }
    | _ -> Messages.Batch [ Messages.Lambda_psi { task; lambda = random_elt (); psi = random_elt () } ]
  in
  for trial = 1 to 5 do
    let agent =
      Agent.create ~params:p ~id:0 ~bids:bids0.(0) ~strategy:Strategy.Suggested
        ~rng:(Dmw_bigint.Prng.create ~seed:trial) ()
    in
    let eng = Dmw_sim.Engine.create ~seed:trial ~nodes:(p.Params.n + 1) () in
    let tr = Agent.transport_of_engine eng ~id:0 in
    Agent.start tr agent;
    for _ = 1 to 300 do
      let src = Dmw_bigint.Prng.int_in_range rng ~lo:(-1) ~hi:(p.Params.n + 1) in
      Agent.handle tr agent ~src (random_msg ())
    done
    (* Reaching here without an exception is the assertion. *)
  done

(* ------------------------------------------------------------------ *)
(* Network faults                                                      *)

let test_network_crash_stalls_safely () =
  let p = params () in
  let faults = Fault.crash_at ~node:2 ~time:0.0005 in
  let r = run p ~faults in
  Alcotest.(check bool) "not completed" false (Dmw_exec.completed r);
  (* Everyone's realized utility is zero: no allocation happened. *)
  Array.iter
    (fun u -> Alcotest.(check (float 0.0)) "zero utility" 0.0 u)
    (Dmw_exec.utilities r ~true_levels:bids0)

let test_network_share_loss_stalls () =
  let p = params () in
  let faults = Fault.drop_link ~src:0 ~dst:3 in
  let r = run p ~faults in
  Alcotest.(check bool) "not completed" false (Dmw_exec.completed r);
  Alcotest.(check bool) "agent 3 aborted with Peer_silent { agent = 0 }" true
    (match r.Dmw_exec.statuses.(3).Dmw_exec.aborted with
    | Some (Audit.Peer_silent { agent }) -> agent = 0
    | _ -> false)

let test_faults_refuse_batching () =
  (* The fault layer would see only the batch envelopes. *)
  Alcotest.check_raises "refused"
    (Invalid_argument "Dmw_exec.run: faults cannot be combined with batching")
    (fun () ->
      ignore
        (Dmw_exec.run ~seed:7 ~batching:true
           ~faults:(Fault.silence_from ~node:2 ~phase:Fault.phase_resolution)
           (params ()) ~bids:bids0
          : Dmw_exec.result))

let test_minimal_configuration () =
  (* The smallest legal protocol: n = 3, c = 1, W = {1}, one task.
     With a single bid level everything ties; the smallest pseudonym
     wins and pays its own bid. *)
  let p = Params.make_exn ~group_bits:64 ~seed:3 ~n:3 ~m:1 ~c:1 () in
  Alcotest.(check int) "single level" 1 p.Params.w_max;
  let r = Dmw_exec.run ~seed:7 p ~bids:[| [| 1 |]; [| 1 |]; [| 1 |] |] in
  Alcotest.(check bool) "completed" true (Dmw_exec.completed r);
  (match r.Dmw_exec.second_prices with
  | Some sp -> Alcotest.(check int) "price" 1 sp.(0)
  | None -> Alcotest.fail "no price");
  let rank = Params.pseudonym_rank p in
  let expected = ref 0 in
  Array.iteri (fun i rk -> if rk = 0 then expected := i) rank;
  match r.Dmw_exec.schedule with
  | Some s -> Alcotest.(check int) "smallest pseudonym" !expected (Schedule.agent_of s ~task:0)
  | None -> Alcotest.fail "no schedule"

let test_batched_and_hardened_combined () =
  let p = params ~m:3 () in
  let bids =
    [| [| 3; 2; 1 |]; [| 1; 3; 2 |]; [| 4; 4; 3 |]; [| 2; 1; 4 |];
       [| 4; 3; 2 |]; [| 3; 4; 4 |] |]
  in
  let plain = Dmw_exec.run ~seed:7 p ~bids ~keep_events:false in
  let both =
    Dmw_exec.run ~seed:7 p ~bids ~keep_events:false ~batching:true
      ~hardened:true
  in
  Alcotest.(check bool) "completed" true (Dmw_exec.completed both);
  match (plain.Dmw_exec.schedule, both.Dmw_exec.schedule) with
  | Some a, Some b -> Alcotest.(check bool) "same" true (Schedule.equal a b)
  | _ -> Alcotest.fail "missing schedule"

let test_chaotic_network_preserves_outcome () =
  (* 60% per-message jitter breaks per-link FIFO and 20% duplication
     makes links at-least-once: the protocol must still converge to
     the same outcome (possibly via the disclosure fallback when a row
     outruns its sender's lambda). *)
  let p = params () in
  let base = run p in
  List.iter
    (fun seed ->
      let r =
        Dmw_exec.run ~seed p ~bids:bids0 ~keep_events:false
          ~faults:(Fault.duplicate_random ~probability:0.2)
          ~backend:(Dmw_exec.sim ~jitter:0.6 ())
      in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d completed" seed)
        true (Dmw_exec.completed r);
      match (base.Dmw_exec.schedule, r.Dmw_exec.schedule) with
      | Some a, Some b ->
          Alcotest.(check bool) "same outcome" true (Schedule.equal a b)
      | _ -> Alcotest.fail "missing schedule")
    [ 1; 2; 3; 4; 5 ]

let test_bandwidth_slows_but_preserves_outcome () =
  let p = params () in
  let fast = Dmw_exec.run ~seed:7 p ~bids:bids0 ~keep_events:false in
  let slow =
    Dmw_exec.run ~seed:7 p ~bids:bids0 ~keep_events:false
      ~backend:(Dmw_exec.sim ~bandwidth:50_000.0 ())
  in
  Alcotest.(check bool) "completed" true (Dmw_exec.completed slow);
  Alcotest.(check bool) "slower" true
    (slow.Dmw_exec.duration > fast.Dmw_exec.duration);
  match (fast.Dmw_exec.schedule, slow.Dmw_exec.schedule) with
  | Some a, Some b -> Alcotest.(check bool) "same outcome" true (Schedule.equal a b)
  | _ -> Alcotest.fail "missing schedule"

let test_realistic_group_size () =
  (* The full protocol at a cryptographically meaningful group size;
     slow, so small n and one task. *)
  let p = Params.make_exn ~group_bits:256 ~seed:3 ~n:4 ~m:1 ~c:1 () in
  let bids = [| [| 2 |]; [| 1 |]; [| 2 |]; [| 2 |] |] in
  let r = Dmw_exec.run ~seed:7 p ~bids ~keep_events:false in
  Alcotest.(check bool) "completed" true (Dmw_exec.completed r);
  let rank = Params.pseudonym_rank p in
  let mw =
    Minwork.run
      ~tie_break:(Vickrey.Least_key (fun i -> rank.(i)))
      (Array.map (Array.map float_of_int) bids)
  in
  match r.Dmw_exec.schedule with
  | Some s -> Alcotest.(check bool) "matches" true (Schedule.equal s mw.Minwork.schedule)
  | None -> Alcotest.fail "no schedule"

let test_checks_performed_positive () =
  let p = params () in
  let r = run p in
  Array.iter
    (fun (s : Dmw_exec.agent_status) ->
      Alcotest.(check bool) "performed checks" true (s.checks_performed > 0))
    r.Dmw_exec.statuses

let () =
  Alcotest.run "dmw_protocol"
    [ ("honest execution",
       [ Alcotest.test_case "completes and matches MinWork" `Quick
           test_honest_completes_and_matches;
         Alcotest.test_case "first/second prices" `Quick
           test_prices_are_first_and_second_minima;
         Alcotest.test_case "pseudonym tie-break" `Quick test_tie_breaks_to_smallest_pseudonym;
         Alcotest.test_case "deterministic" `Quick test_deterministic_given_seeds;
         Alcotest.test_case "verification log" `Quick test_checks_performed_positive;
         Alcotest.test_case "256-bit group end-to-end" `Slow
           test_realistic_group_size;
         Alcotest.test_case "minimal configuration" `Quick
           test_minimal_configuration;
         Alcotest.test_case "batched + hardened" `Quick
           test_batched_and_hardened_combined;
         Alcotest.test_case "bandwidth model" `Quick
           test_bandwidth_slows_but_preserves_outcome;
         Alcotest.test_case "jitter + duplication chaos" `Slow
           test_chaotic_network_preserves_outcome ]);
      Test_support.qsuite "equivalence" [ prop_equivalence_random_instances ];
      Test_support.qsuite "randomized SVP" [ prop_svp_random_deviator ];
      Test_support.qsuite "mode agreement" [ prop_modes_agree_random_instances ];
      ("communication",
       [ Alcotest.test_case "exact per-tag counts" `Quick test_message_counts_exact;
         Alcotest.test_case "quadratic scaling" `Slow test_message_count_scales_quadratically ]);
      ("batching",
       [ Alcotest.test_case "same outcome" `Quick test_batching_same_outcome;
         Alcotest.test_case "fewer messages, same bytes" `Quick
           test_batching_reduces_messages ]);
      ("hardened disclosure",
       [ Alcotest.test_case "matches plain mode" `Quick
           test_hardened_honest_matches_plain;
         Alcotest.test_case "swap caught at eq13" `Quick
           test_hardened_catches_swap_at_eq13;
         Alcotest.test_case "corrupt row caught" `Quick
           test_hardened_catches_corrupt_disclosure;
         Alcotest.test_case "pair swap caught" `Quick
           test_hardened_catches_pair_swap;
         Alcotest.test_case "fallback intact" `Quick
           test_hardened_fallback_still_works ]);
      ("deviations",
       [ Alcotest.test_case "corrupt share" `Quick test_corrupt_share_detected;
         Alcotest.test_case "withhold share" `Quick test_withhold_share_stalls_victim;
         Alcotest.test_case "withhold commitments" `Quick
           test_withhold_commitments_stalls_everyone;
         Alcotest.test_case "corrupt commitments" `Quick test_corrupt_commitments_detected;
         Alcotest.test_case "wrong lambda" `Quick test_wrong_lambda_detected;
         Alcotest.test_case "crash after bidding" `Quick test_crash_after_bidding_stalls;
         Alcotest.test_case "withhold disclosure (fallback)" `Quick
           test_withhold_disclosure_fallback_completes;
         Alcotest.test_case "over-disclose harmless" `Quick test_over_disclose_harmless;
         Alcotest.test_case "corrupt disclosure" `Quick test_corrupt_disclosure_detected;
         Alcotest.test_case "swap disclosure (eq13 gap)" `Quick
           test_swap_disclosure_caught_at_winner_resolution;
         Alcotest.test_case "wrong second-price lambda" `Quick
           test_wrong_lambda_excl_detected;
         Alcotest.test_case "inflated payment withheld" `Quick
           test_inflate_payment_withheld ]);
      ("game theory",
       [ Alcotest.test_case "faithfulness" `Slow test_faithfulness_no_deviation_profits;
         Alcotest.test_case "strong voluntary participation" `Slow
           test_svp_honest_agents_never_lose;
         Alcotest.test_case "misreporting unprofitable" `Quick
           test_misreporting_does_not_profit;
         Alcotest.test_case "two simultaneous deviators" `Slow
           test_svp_under_two_simultaneous_deviators;
         Alcotest.test_case "faithfulness under hardened mode" `Slow
           test_faithfulness_under_hardened_mode;
         Alcotest.test_case "latency-model invariance" `Quick
           test_outcome_invariant_under_latency_model ]);
      ("agent robustness",
       [ Alcotest.test_case "hostile task index" `Quick test_hostile_task_index;
         Alcotest.test_case "nested batch" `Quick test_hostile_batch_nesting;
         Alcotest.test_case "wrong-length disclosure" `Quick
           test_hostile_wrong_length_disclosure;
         Alcotest.test_case "duplicates ignored" `Quick
           test_duplicate_messages_ignored;
         Alcotest.test_case "fuzz: random message storm" `Quick
           test_agent_fuzz_random_messages ]);
      ("network faults",
       [ Alcotest.test_case "crash" `Quick test_network_crash_stalls_safely;
         Alcotest.test_case "share loss" `Quick test_network_share_loss_stalls;
         Alcotest.test_case "batching refused" `Quick
           test_faults_refuse_batching ]) ]
