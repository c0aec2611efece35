(* Third-party auditing of public transcripts: honest transcripts
   audit clean with the outcome the mechanism prescribes; every
   public-layer forgery is caught with the right error; and the
   auditor's blind spot (private-share corruption, eqs. 7-9) is
   exactly as documented. *)

open Dmw_bigint
open Dmw_core

let params = Params.make_exn ~group_bits:64 ~seed:3 ~n:6 ~m:1 ~c:1 ()
let bids = [| 3; 1; 4; 2; 4; 3 |]

let honest () = Transcript.of_direct ~seed:5 params ~bids

let expect_ok t =
  match Transcript.audit params t with
  | Ok v -> v
  | Error e -> Alcotest.failf "audit failed: %a" Transcript.pp_error e

let expect_error t pred name =
  match Transcript.audit params t with
  | Ok _ -> Alcotest.failf "forged transcript accepted (%s)" name
  | Error e ->
      Alcotest.(check bool)
        (Format.asprintf "%s: got %a" name Transcript.pp_error e)
        true (pred e)

let test_honest_audits_clean () =
  let v = expect_ok (honest ()) in
  (* Agent 1 bids 1 (unique minimum); second price 2. *)
  Alcotest.(check int) "winner" 1 v.Transcript.winner;
  Alcotest.(check int) "y*" 1 v.Transcript.y_star;
  Alcotest.(check int) "y**" 2 v.Transcript.y_star2;
  Alcotest.(check bool) "many checks" true (v.Transcript.checks >= 2 * 6)

let test_matches_protocol () =
  let v = expect_ok (honest ()) in
  let r = Dmw_exec.run params ~bids:(Array.map (fun y -> [| y |]) bids) in
  match (r.Dmw_exec.schedule, r.Dmw_exec.first_prices, r.Dmw_exec.second_prices) with
  | Some s, Some fp, Some sp ->
      Alcotest.(check int) "winner" (Dmw_mechanism.Schedule.agent_of s ~task:0)
        v.Transcript.winner;
      Alcotest.(check int) "y*" fp.(0) v.Transcript.y_star;
      Alcotest.(check int) "y**" sp.(0) v.Transcript.y_star2
  | _ -> Alcotest.fail "protocol run did not complete"

let forged_element () =
  let g = params.Params.group in
  Dmw_modular.Group.pow g g.Dmw_modular.Group.z1 (Bigint.of_int 987654321)

let test_forged_lambda_caught () =
  let t = honest () in
  let lp = Array.copy t.Transcript.lambda_psi in
  lp.(3) <- (forged_element (), snd lp.(3));
  expect_error
    { t with Transcript.lambda_psi = lp }
    (function Transcript.Invalid_lambda_psi 3 -> true | _ -> false)
    "forged lambda"

let test_forged_psi_caught () =
  let t = honest () in
  let lp = Array.copy t.Transcript.lambda_psi in
  lp.(0) <- (fst lp.(0), forged_element ());
  expect_error
    { t with Transcript.lambda_psi = lp }
    (function Transcript.Invalid_lambda_psi 0 -> true | _ -> false)
    "forged psi"

let test_forged_disclosure_caught () =
  let t = honest () in
  let disclosures =
    List.map
      (fun (k, row) ->
        if k = 0 then begin
          let row = Array.copy row in
          row.(2) <- Bigint.add row.(2) Bigint.one;
          (k, row)
        end
        else (k, row))
      t.Transcript.disclosures
  in
  expect_error
    { t with Transcript.disclosures }
    (function Transcript.Invalid_disclosure 0 -> true | _ -> false)
    "tampered row"

let test_forged_excl_caught () =
  let t = honest () in
  let lp = Array.copy t.Transcript.lambda_psi_excl in
  lp.(4) <- (forged_element (), snd lp.(4));
  expect_error
    { t with Transcript.lambda_psi_excl = lp }
    (function Transcript.Invalid_lambda_psi_excl 4 -> true | _ -> false)
    "forged excluded lambda"

let test_dropped_disclosures_detected () =
  let t = honest () in
  (* Keeping only one row cannot support y* + 1 = 2 rows. *)
  let disclosures = [ List.hd t.Transcript.disclosures ] in
  expect_error
    { t with Transcript.disclosures }
    (function Transcript.No_winner -> true | _ -> false)
    "missing rows"

let test_malformed_shapes_rejected () =
  let t = honest () in
  expect_error
    { t with Transcript.lambda_psi = Array.sub t.Transcript.lambda_psi 0 3 }
    (function Transcript.Malformed _ -> true | _ -> false)
    "short lambda_psi";
  expect_error
    { t with Transcript.disclosures = [ (9, Array.make 6 Bigint.zero) ] }
    (function Transcript.Malformed _ -> true | _ -> false)
    "bad discloser index"

let test_consistent_forgery_of_all_pairs () =
  (* Even replacing EVERY (Λ, Ψ) pair with self-consistent random pairs
     fails eq. (11): the pairs must match the committed polynomials,
     not just each other. *)
  let t = honest () in
  let g = params.Params.group in
  let rng = Prng.create ~seed:77 in
  let lp =
    Array.map
      (fun _ ->
        (Dmw_modular.Group.pow g g.Dmw_modular.Group.z1
           (Dmw_modular.Group.random_exponent g rng),
         Dmw_modular.Group.pow g g.Dmw_modular.Group.z2
           (Dmw_modular.Group.random_exponent g rng)))
      t.Transcript.lambda_psi
  in
  expect_error
    { t with Transcript.lambda_psi = lp }
    (function Transcript.Invalid_lambda_psi _ -> true | _ -> false)
    "wholesale forgery"

let test_auditor_blind_spot_documented () =
  (* The auditor cannot see share-level corruption: a transcript built
     from honest public data audits clean even though it says nothing
     about eqs. (7)-(9) — those are the recipients' checks. This test
     pins the boundary: the number of audited identities is exactly
     n (eq. 11) + |disclosures| (eq. 13) + n (excluded eq. 11). *)
  let t = honest () in
  let v = expect_ok t in
  Alcotest.(check int) "audited identity count"
    (6 + List.length t.Transcript.disclosures + 6)
    v.Transcript.checks

let () =
  Alcotest.run "dmw_transcript"
    [ ("public audit",
       [ Alcotest.test_case "honest transcript" `Quick test_honest_audits_clean;
         Alcotest.test_case "agrees with protocol run" `Quick test_matches_protocol;
         Alcotest.test_case "forged lambda" `Quick test_forged_lambda_caught;
         Alcotest.test_case "forged psi" `Quick test_forged_psi_caught;
         Alcotest.test_case "forged disclosure" `Quick test_forged_disclosure_caught;
         Alcotest.test_case "forged excluded pair" `Quick test_forged_excl_caught;
         Alcotest.test_case "dropped disclosures" `Quick test_dropped_disclosures_detected;
         Alcotest.test_case "malformed shapes" `Quick test_malformed_shapes_rejected;
         Alcotest.test_case "wholesale forgery" `Quick test_consistent_forgery_of_all_pairs;
         Alcotest.test_case "audit boundary" `Quick test_auditor_blind_spot_documented ]) ]
