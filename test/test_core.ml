(* Tests for the protocol building blocks in dmw_core: Params,
   Messages, Audit, Strategy, Resolution, Payment_infra and Privacy.
   End-to-end protocol behaviour is covered by test_protocol.ml. *)

open Dmw_bigint
open Dmw_core
open Test_support

let params ?(n = 6) ?(m = 2) ?(c = 1) ?(seed = 3) () =
  Params.make_exn ~group_bits:64 ~seed ~n ~m ~c ()

(* ------------------------------------------------------------------ *)
(* Params                                                              *)

let test_params_derived_quantities () =
  let p = params () in
  Alcotest.(check int) "w_max" 4 p.Params.w_max;
  Alcotest.(check int) "sigma" 6 p.Params.sigma;
  Alcotest.(check bool) "sigma <= n" true (p.Params.sigma <= p.Params.n);
  Alcotest.(check (list int)) "levels" [ 1; 2; 3; 4 ] (Params.bid_levels p)

let test_params_validation () =
  let expect_err ~n ~m ~c =
    match Params.make ~group_bits:64 ~n ~m ~c () with
    | Ok _ -> Alcotest.failf "accepted n=%d m=%d c=%d" n m c
    | Error _ -> ()
  in
  expect_err ~n:2 ~m:1 ~c:1;
  expect_err ~n:5 ~m:0 ~c:1;
  expect_err ~n:5 ~m:1 ~c:0;
  expect_err ~n:5 ~m:1 ~c:4

let test_params_pseudonyms_distinct () =
  let p = params ~n:10 () in
  let seen = Hashtbl.create 10 in
  Array.iter
    (fun a ->
      Alcotest.(check bool) "nonzero" false (Bigint.is_zero a);
      Alcotest.(check bool) "fresh" false (Hashtbl.mem seen a);
      Hashtbl.add seen a ())
    p.Params.alphas

let test_params_bid_degree_inverse () =
  let p = params () in
  List.iter
    (fun y ->
      Alcotest.(check bool) "valid" true (Params.valid_bid p y);
      Alcotest.(check int) "roundtrip" y
        (Params.bid_of_degree p (Params.tau_of_bid p y)))
    (Params.bid_levels p);
  Alcotest.(check bool) "0 invalid" false (Params.valid_bid p 0);
  Alcotest.(check bool) "w_max+1 invalid" false (Params.valid_bid p 5)

let test_params_first_price_candidates () =
  let p = params () in
  (* Degrees sigma - w for w in 1..4, ascending. *)
  Alcotest.(check (list int)) "candidates" [ 2; 3; 4; 5 ]
    (Params.first_price_candidates p)

let test_params_disclosers () =
  let p = params () in
  Alcotest.(check (list int)) "y*=1" [ 0; 1 ] (Params.disclosers p ~y_star:1);
  Alcotest.(check (list int)) "y*=3" [ 0; 1; 2; 3 ] (Params.disclosers p ~y_star:3);
  Alcotest.(check (list int)) "clamped to n" [ 0; 1; 2; 3; 4; 5 ]
    (Params.disclosers p ~y_star:9)

let test_params_pseudonym_rank () =
  let p = params ~n:5 () in
  let rank = Params.pseudonym_rank p in
  (* Ranks are a permutation of 0..n-1 consistent with pseudonym order. *)
  let sorted = Array.copy rank in
  Array.sort Stdlib.compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 5 Fun.id) sorted;
  let by_rank = Array.make 5 0 in
  Array.iteri (fun i r -> by_rank.(r) <- i) rank;
  for k = 0 to 3 do
    Alcotest.(check bool) "ordered" true
      (Bigint.compare p.Params.alphas.(by_rank.(k)) p.Params.alphas.(by_rank.(k + 1)) < 0)
  done

let test_params_deterministic () =
  let a = params ~seed:42 () and b = params ~seed:42 () in
  Alcotest.(check bool) "same pseudonyms" true
    (Array.for_all2 Bigint.equal a.Params.alphas b.Params.alphas)

(* ------------------------------------------------------------------ *)
(* Messages                                                            *)

let test_message_tags () =
  let g = small_group () in
  let share =
    { Dmw_crypto.Share.e_at = Bigint.one; f_at = Bigint.one; g_at = Bigint.one;
      h_at = Bigint.one }
  in
  Alcotest.(check string) "share" "share" (Messages.tag (Messages.Share { task = 0; share }));
  Alcotest.(check string) "lambda" "lambda_psi"
    (Messages.tag (Messages.Lambda_psi { task = 0; lambda = Bigint.one; psi = Bigint.one }));
  Alcotest.(check string) "payment" "payment_report"
    (Messages.tag (Messages.Payment_report { payments = [||] }));
  (* Size model sanity: a share bundle is 4 exponents + header. *)
  Alcotest.(check int) "share bytes" (8 + 32)
    (Messages.byte_size g ~n:5 (Messages.Share { task = 0; share }));
  Alcotest.(check int) "f_disclosure bytes" (8 + (5 * 8))
    (Messages.byte_size g ~n:5 (Messages.F_disclosure { task = 0; f_row = [||] }))

(* ------------------------------------------------------------------ *)
(* Audit                                                               *)

let test_audit_logging () =
  let a = Audit.create () in
  Audit.log a ~task:0 ~description:"check one" ~ok:true;
  Audit.log a ~task:1 ~description:"check two" ~ok:false;
  Audit.log a ~task:1 ~description:"check three" ~ok:true;
  Alcotest.(check int) "performed" 3 (Audit.checks_performed a);
  Alcotest.(check int) "failures" 1 (List.length (Audit.failures a));
  let e = List.hd (Audit.failures a) in
  Alcotest.(check string) "failure description" "check two" e.Audit.description;
  Alcotest.(check int) "ordered" 0 (List.hd (Audit.entries a)).Audit.task

let test_audit_reason_pp () =
  let render r = Format.asprintf "%a" Audit.pp_reason r in
  Alcotest.(check string) "bad share" "inconsistent share from agent 3"
    (render (Audit.Bad_share { dealer = 3 }));
  Alcotest.(check bool) "stalled mentions phase" true
    (String.length (render (Audit.Stalled { phase = "bidding" })) > 0)

(* ------------------------------------------------------------------ *)
(* Strategy                                                            *)

let test_strategy_catalogue () =
  let all = Strategy.all_deviations ~victim:2 in
  Alcotest.(check int) "thirteen deviations" 13 (List.length all);
  List.iter
    (fun s -> Alcotest.(check bool) "not suggested" false (Strategy.is_suggested s))
    all;
  Alcotest.(check bool) "suggested" true (Strategy.is_suggested Strategy.Suggested);
  (* Names are distinct (used as experiment labels). *)
  let names = List.map Strategy.to_string all in
  Alcotest.(check int) "distinct names" 13
    (List.length (List.sort_uniq String.compare names))

(* ------------------------------------------------------------------ *)
(* Payment_infra                                                       *)

let test_payment_settle_agreement () =
  let pi = Payment_infra.create ~n:3 in
  Payment_infra.receive pi ~from_:0 [| 1.0; 2.0; 0.0 |];
  Payment_infra.receive pi ~from_:1 [| 1.0; 2.0; 0.0 |];
  Payment_infra.receive pi ~from_:2 [| 1.0; 2.0; 0.0 |];
  Alcotest.(check int) "received" 3 (Payment_infra.reports_received pi);
  (match Payment_infra.settle_all_or_nothing pi ~quorum:2 with
  | Some v -> Alcotest.(check (array (float 0.0))) "vector" [| 1.0; 2.0; 0.0 |] v
  | None -> Alcotest.fail "should settle")

let test_payment_settle_disagreement_entrywise () =
  let pi = Payment_infra.create ~n:3 in
  Payment_infra.receive pi ~from_:0 [| 1.0; 2.0; 0.0 |];
  Payment_infra.receive pi ~from_:1 [| 1.0; 9.0; 0.0 |];
  Payment_infra.receive pi ~from_:2 [| 1.0; 2.0; 0.0 |];
  let entries = Payment_infra.settle pi ~quorum:2 in
  Alcotest.(check (option (float 0.0))) "agreed entry" (Some 1.0) entries.(0);
  Alcotest.(check (option (float 0.0))) "disputed entry" None entries.(1);
  Alcotest.(check bool) "all-or-nothing fails" true
    (Payment_infra.settle_all_or_nothing pi ~quorum:2 = None)

let test_payment_quorum () =
  let pi = Payment_infra.create ~n:4 in
  Payment_infra.receive pi ~from_:0 [| 1.0; 0.0; 0.0; 0.0 |];
  let entries = Payment_infra.settle pi ~quorum:3 in
  Alcotest.(check (option (float 0.0))) "below quorum" None entries.(0)

let test_payment_duplicate_and_invalid_ignored () =
  let pi = Payment_infra.create ~n:2 in
  Payment_infra.receive pi ~from_:0 [| 1.0; 0.0 |];
  Payment_infra.receive pi ~from_:0 [| 9.0; 9.0 |];  (* duplicate: ignored *)
  Payment_infra.receive pi ~from_:5 [| 1.0; 0.0 |];  (* bad sender: ignored *)
  Payment_infra.receive pi ~from_:1 [| 1.0 |];       (* bad length: ignored *)
  Alcotest.(check int) "one report" 1 (Payment_infra.reports_received pi)

(* ------------------------------------------------------------------ *)
(* Privacy                                                             *)

let test_privacy_threshold_formula () =
  let p = params () in
  (* sigma = 6: bid 1 -> 6+1-1 = wait, sigma - y + 1. *)
  Alcotest.(check int) "bid 1" 6 (Privacy.min_coalition p ~bid:1);
  Alcotest.(check int) "bid 4" 3 (Privacy.min_coalition p ~bid:4);
  (* Always strictly more than c colluders are needed (Theorem 10). *)
  List.iter
    (fun y ->
      Alcotest.(check bool) "above c" true
        (Privacy.min_coalition p ~bid:y > p.Params.c))
    (Params.bid_levels p)

let test_privacy_attack_at_threshold () =
  let p = params () in
  let rng = Prng.create ~seed:55 in
  List.iter
    (fun bid ->
      let dealer =
        Dmw_crypto.Bid_commitments.generate rng ~group:p.Params.group
          ~sigma:p.Params.sigma ~tau:(Params.tau_of_bid p bid)
      in
      let t = Privacy.min_coalition p ~bid in
      let coalition k = List.init k Fun.id in
      Alcotest.(check (option int))
        (Printf.sprintf "bid %d below threshold" bid)
        None
        (Privacy.attack_dealer p ~coalition:(coalition (t - 1)) ~dealer);
      Alcotest.(check (option int))
        (Printf.sprintf "bid %d at threshold" bid)
        (Some bid)
        (Privacy.attack_dealer p ~coalition:(coalition t) ~dealer))
    (Params.bid_levels p)

let test_privacy_f_attack_threshold () =
  (* The finding: f's degree IS the bid, so bid y falls to y + 1
     colluders — cheapest exactly for the best (lowest) bids, the
     opposite of the e-share threshold the paper analyses. *)
  let p = params () in
  let rng = Prng.create ~seed:56 in
  List.iter
    (fun bid ->
      let dealer =
        Dmw_crypto.Bid_commitments.generate rng ~group:p.Params.group
          ~sigma:p.Params.sigma ~tau:(Params.tau_of_bid p bid)
      in
      let t = Privacy.min_coalition_f ~bid in
      Alcotest.(check int) "threshold formula" (bid + 1) t;
      let coalition k = List.init k Fun.id in
      Alcotest.(check (option int))
        (Printf.sprintf "bid %d below f-threshold" bid)
        None
        (Privacy.attack_dealer_f p ~coalition:(coalition (t - 1)) ~dealer);
      Alcotest.(check (option int))
        (Printf.sprintf "bid %d at f-threshold" bid)
        (Some bid)
        (Privacy.attack_dealer_f p ~coalition:(coalition t) ~dealer))
    (Params.bid_levels p)

let test_privacy_combined_threshold_breaks_theorem10_shape () =
  (* With c = 3, a bid of 1 falls to only 2 colluders — fewer than c —
     via the f-shares, even though the e-share threshold (the paper's
     analysis) is far above c. *)
  let p = Params.make_exn ~group_bits:64 ~seed:3 ~n:6 ~m:1 ~c:3 () in
  Alcotest.(check int) "w_max" 2 p.Params.w_max;
  let rng = Prng.create ~seed:57 in
  let dealer =
    Dmw_crypto.Bid_commitments.generate rng ~group:p.Params.group
      ~sigma:p.Params.sigma ~tau:(Params.tau_of_bid p 1)
  in
  Alcotest.(check bool) "paper threshold exceeds c" true
    (Privacy.min_coalition p ~bid:1 > p.Params.c);
  Alcotest.(check int) "true threshold is 2" 2
    (Privacy.min_coalition_combined p ~bid:1);
  Alcotest.(check (option int)) "2 < c colluders expose bid 1" (Some 1)
    (Privacy.attack_dealer_f p ~coalition:[ 0; 1 ] ~dealer)

let test_privacy_inverse_relation () =
  let p = params () in
  let thresholds = List.map (fun y -> Privacy.min_coalition p ~bid:y) (Params.bid_levels p) in
  let rec decreasing = function
    | a :: (b :: _ as rest) -> a > b && decreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "lower bids need larger coalitions" true
    (decreasing thresholds)

let prop_privacy_combined_threshold =
  (* min_coalition_combined is exact on random instances: below it
     neither recovery succeeds on the pooled shares, at it the cheaper
     attack opens the bid — and each side flips exactly at its own
     threshold. *)
  QCheck.Test.make ~count:25 ~name:"combined threshold exact on random params"
    QCheck.(triple (int_range 4 8) (int_range 1 3) (int_range 0 9999))
    (fun (n, c0, seed) ->
      let c = min c0 (n - 3) in
      let p = Params.make_exn ~group_bits:64 ~seed ~n ~m:1 ~c () in
      let levels = Params.bid_levels p in
      let bid = List.nth levels (seed mod List.length levels) in
      let rng = Prng.create ~seed:(seed lxor 0x5A) in
      let dealer =
        Dmw_crypto.Bid_commitments.generate rng ~group:p.Params.group
          ~sigma:p.Params.sigma ~tau:(Params.tau_of_bid p bid)
      in
      let shares k =
        let points = Array.sub p.Params.alphas 0 k in
        let bundle =
          Array.map
            (fun alpha -> Dmw_crypto.Bid_commitments.share_for dealer ~alpha)
            points
        in
        (points, bundle)
      in
      let t = Privacy.min_coalition_combined p ~bid in
      List.for_all
        (fun k ->
          let points, bundle = shares k in
          let e_values = Array.map (fun s -> s.Dmw_crypto.Share.e_at) bundle in
          let f_values = Array.map (fun s -> s.Dmw_crypto.Share.f_at) bundle in
          let got_e = Privacy.recover_bid p ~points ~e_values in
          let got_f = Privacy.recover_bid_f p ~points ~f_values in
          (* Each attack flips exactly at its own threshold... *)
          got_e = (if k >= Privacy.min_coalition p ~bid then Some bid else None)
          && got_f = (if k >= Privacy.min_coalition_f ~bid then Some bid else None)
          (* ...so below the combined threshold nothing opens, at it
             something does. *)
          && (k >= t) = (got_e <> None || got_f <> None))
        (List.init t (fun i -> i + 1)))

(* ------------------------------------------------------------------ *)
(* Multiunit: (M+1)st-price generalization                             *)

let test_multiunit_reference () =
  let o = Multiunit.reference ~bids:[| 3; 1; 4; 1; 2 |] ~units:2 in
  Alcotest.(check (list int)) "winners" [ 1; 3 ] o.Multiunit.winners;
  Alcotest.(check (list int)) "prices" [ 1; 1 ] o.Multiunit.prices;
  Alcotest.(check int) "clearing" 2 o.Multiunit.clearing_price

let test_multiunit_matches_reference () =
  let p = params ~n:7 ~m:1 ~c:1 () in
  (* w_max = 5 *)
  let rng = Prng.create ~seed:41 in
  for units = 1 to 4 do
    for _ = 1 to 5 do
      let bids = Array.init 7 (fun _ -> 1 + Prng.int rng p.Params.w_max) in
      Alcotest.(check bool)
        (Printf.sprintf "units=%d" units)
        true
        (Multiunit.run_reference_consistent ~seed:3 p ~bids ~units)
    done
  done

let test_multiunit_is_dmw_at_one_unit () =
  (* M = 1 must reproduce DMW's (winner, second price). *)
  let p = params ~n:6 ~m:1 ~c:1 () in
  let bids1 = [| 3; 1; 4; 2; 4; 3 |] in
  let o = Multiunit.run ~seed:3 p ~bids:bids1 ~units:1 in
  let r = Dmw_exec.run p ~bids:(Array.map (fun y -> [| y |]) bids1) in
  match (r.Dmw_exec.schedule, r.Dmw_exec.second_prices) with
  | Some s, Some sp ->
      Alcotest.(check (list int)) "winner"
        [ Dmw_mechanism.Schedule.agent_of s ~task:0 ] o.Multiunit.winners;
      Alcotest.(check int) "clearing = second price" sp.(0)
        o.Multiunit.clearing_price
  | _ -> Alcotest.fail "DMW run did not complete"

let prop_multiunit_matches_reference =
  QCheck.Test.make ~count:15 ~name:"multiunit = sort-and-take on random inputs"
    QCheck.(pair (int_range 1 5) (int_range 0 10000))
    (fun (units, seed) ->
      let p = params ~n:7 ~m:1 ~c:1 () in
      let rng = Prng.create ~seed in
      let bids = Array.init 7 (fun _ -> 1 + Prng.int rng p.Params.w_max) in
      Multiunit.run_reference_consistent ~seed:3 p ~bids ~units)

let test_multiunit_validation () =
  let p = params ~n:6 ~m:1 ~c:1 () in
  let bids1 = [| 1; 2; 3; 4; 1; 2 |] in
  Alcotest.check_raises "units too large"
    (Invalid_argument "Multiunit.run: need 1 <= units <= n - 1") (fun () ->
      ignore (Multiunit.run p ~bids:bids1 ~units:6));
  Alcotest.check_raises "bad bid" (Invalid_argument "Multiunit.run: bid outside W")
    (fun () -> ignore (Multiunit.run p ~bids:[| 9; 1; 1; 1; 1; 1 |] ~units:2))

(* ------------------------------------------------------------------ *)
(* Leakage (Open Problem 12 quantified)                                *)

let test_leakage_winner_fully_revealed () =
  let p = params ~n:5 ~m:1 () in
  let bids = [| 3; 1; 4; 2; 3 |] in
  let obs = Leakage.observe p ~bids in
  Alcotest.(check int) "winner" 1 obs.Leakage.winner;
  Alcotest.(check int) "y*" 1 obs.Leakage.y_star;
  Alcotest.(check int) "y**" 2 obs.Leakage.y_star2;
  let profiles = Leakage.consistent_profiles p obs in
  Alcotest.(check bool) "nonempty" true (profiles <> []);
  (* Every consistent profile pins the winner's bid to y*. *)
  List.iter
    (fun prof -> Alcotest.(check int) "winner bid" 1 prof.(1))
    profiles;
  Alcotest.(check (float 1e-9)) "winner entropy zero" 0.0
    (Leakage.marginal_entropy_bits p ~profiles ~agent:1)

let test_leakage_losers_keep_uncertainty () =
  let p = params ~n:5 ~m:1 () in
  let bids = [| 3; 1; 4; 2; 3 |] in
  let obs = Leakage.observe p ~bids in
  let report = Leakage.posterior_report p obs in
  let prior = Leakage.prior_entropy_bits p in
  List.iter
    (fun (agent, bits) ->
      Alcotest.(check bool)
        (Printf.sprintf "agent %d: 0 <= %.3f <= prior %.3f" agent bits prior)
        true
        (bits >= -1e-9 && bits <= prior +. 1e-9);
      (* Only the winner is fully revealed on this instance. *)
      if agent <> 1 then
        Alcotest.(check bool)
          (Printf.sprintf "agent %d keeps uncertainty" agent)
          true (bits > 0.5))
    report

let test_leakage_true_profile_is_consistent () =
  let p = params ~n:4 ~m:1 () in
  let rng = Prng.create ~seed:99 in
  for _ = 1 to 10 do
    let bids = Array.init 4 (fun _ -> 1 + Prng.int rng p.Params.w_max) in
    let obs = Leakage.observe p ~bids in
    let profiles = Leakage.consistent_profiles p obs in
    Alcotest.(check bool) "true profile in posterior" true
      (List.exists (fun prof -> prof = bids) profiles)
  done

(* ------------------------------------------------------------------ *)
(* Resolution                                                          *)

let test_resolution_winner_needs_enough_rows () =
  let p = params () in
  Alcotest.(check (option int)) "no rows" None
    (Resolution.winner p ~y_star:2 ~rows:[]);
  Alcotest.(check (option int)) "too few" None
    (Resolution.winner p ~y_star:2
       ~rows:[ (0, Array.make 6 Bigint.zero); (1, Array.make 6 Bigint.zero) ])

let test_outcome_independent_of_seed () =
  (* First/second price resolution is covered by equality with the
     centralized mechanism; here check that two protocol runs on
     different seeds resolve the same outcome. *)
  let p = params ~n:6 ~m:2 () in
  let bids = [| [| 2; 3 |]; [| 1; 1 |]; [| 3; 2 |]; [| 4; 4 |]; [| 2; 2 |]; [| 3; 3 |] |] in
  let o1 = Dmw_exec.run ~seed:1 p ~bids in
  let o2 = Dmw_exec.run ~seed:2 p ~bids in
  (* Fresh randomness must not change the outcome. *)
  Alcotest.(check bool) "schedules equal" true
    (match (o1.Dmw_exec.schedule, o2.Dmw_exec.schedule) with
    | Some s1, Some s2 -> Dmw_mechanism.Schedule.equal s1 s2
    | _ -> false);
  Alcotest.(check (option (array int))) "first prices" o1.Dmw_exec.first_prices
    o2.Dmw_exec.first_prices;
  Alcotest.(check (option (array int))) "second prices" o1.Dmw_exec.second_prices
    o2.Dmw_exec.second_prices

let () =
  Alcotest.run "dmw_core"
    [ ("params",
       [ Alcotest.test_case "derived quantities" `Quick test_params_derived_quantities;
         Alcotest.test_case "validation" `Quick test_params_validation;
         Alcotest.test_case "pseudonyms distinct" `Quick test_params_pseudonyms_distinct;
         Alcotest.test_case "bid/degree inverse" `Quick test_params_bid_degree_inverse;
         Alcotest.test_case "first-price candidates" `Quick
           test_params_first_price_candidates;
         Alcotest.test_case "disclosers" `Quick test_params_disclosers;
         Alcotest.test_case "pseudonym rank" `Quick test_params_pseudonym_rank;
         Alcotest.test_case "deterministic" `Quick test_params_deterministic ]);
      ("messages", [ Alcotest.test_case "tags and sizes" `Quick test_message_tags ]);
      ("audit",
       [ Alcotest.test_case "logging" `Quick test_audit_logging;
         Alcotest.test_case "reason printing" `Quick test_audit_reason_pp ]);
      ("strategy", [ Alcotest.test_case "catalogue" `Quick test_strategy_catalogue ]);
      ("payment infra",
       [ Alcotest.test_case "agreement settles" `Quick test_payment_settle_agreement;
         Alcotest.test_case "entrywise disagreement" `Quick
           test_payment_settle_disagreement_entrywise;
         Alcotest.test_case "quorum" `Quick test_payment_quorum;
         Alcotest.test_case "duplicates/invalid ignored" `Quick
           test_payment_duplicate_and_invalid_ignored ]);
      ("leakage",
       [ Alcotest.test_case "winner fully revealed" `Quick
           test_leakage_winner_fully_revealed;
         Alcotest.test_case "losers keep uncertainty" `Quick
           test_leakage_losers_keep_uncertainty;
         Alcotest.test_case "truth is consistent" `Quick
           test_leakage_true_profile_is_consistent ]);
      ("privacy",
       [ Alcotest.test_case "threshold formula" `Quick test_privacy_threshold_formula;
         Alcotest.test_case "attack at threshold" `Quick test_privacy_attack_at_threshold;
         Alcotest.test_case "f-share attack threshold" `Quick
           test_privacy_f_attack_threshold;
         Alcotest.test_case "combined threshold vs Theorem 10" `Quick
           test_privacy_combined_threshold_breaks_theorem10_shape;
         Alcotest.test_case "inverse relation" `Quick test_privacy_inverse_relation ]);
      qsuite "privacy properties" [ prop_privacy_combined_threshold ];
      ("multiunit",
       [ Alcotest.test_case "reference" `Quick test_multiunit_reference;
         Alcotest.test_case "matches reference" `Quick test_multiunit_matches_reference;
         Alcotest.test_case "one unit = DMW" `Quick test_multiunit_is_dmw_at_one_unit;
         Alcotest.test_case "validation" `Quick test_multiunit_validation ]);
      qsuite "multiunit properties" [ prop_multiunit_matches_reference ];
      ("direct",
       [ Alcotest.test_case "winner needs rows" `Quick
           test_resolution_winner_needs_enough_rows;
         Alcotest.test_case "outcome independent of randomness" `Quick
           test_outcome_independent_of_seed ]) ]
