(* Wire-format tests: roundtrips for every message type, size
   consistency with the coarse model, and robustness to malformed
   input. *)

open Dmw_bigint
open Dmw_core
open Dmw_crypto
open Test_support

let group = small_group ()
let rng () = Prng.create ~seed:31415

let random_exponent g = Dmw_modular.Group.random_exponent group g
let random_element g =
  Dmw_modular.Group.pow group group.Dmw_modular.Group.z1 (random_exponent g)

let random_share g =
  { Share.e_at = random_exponent g; f_at = random_exponent g;
    g_at = random_exponent g; h_at = random_exponent g }

let random_public g ~sigma =
  let vec () =
    Array.init sigma (fun _ -> Pedersen.of_element (random_element g))
  in
  { Bid_commitments.o = vec (); qv = vec (); r = vec () }

let sample_messages g =
  [ Messages.Share { task = 0; share = random_share g };
    Messages.Share { task = 999; share = random_share g };
    Messages.Commitments { task = 3; public = random_public g ~sigma:6 };
    Messages.Lambda_psi { task = 1; lambda = random_element g; psi = random_element g };
    Messages.F_disclosure
      { task = 2; f_row = Array.init 7 (fun _ -> random_exponent g) };
    Messages.F_disclosure { task = 2; f_row = [||] };
    Messages.F_disclosure_hardened
      { task = 5;
        f_row = Array.init 4 (fun _ -> random_exponent g);
        h_row = Array.init 4 (fun _ -> random_exponent g) };
    Messages.Lambda_psi_excl
      { task = 4; lambda = random_element g; psi = random_element g };
    Messages.Payment_report { payments = [| 0.0; 2.5; 17.0; -1.0 |] };
    Messages.Payment_report { payments = [||] };
    Messages.Batch
      [ Messages.Share { task = 6; share = random_share g };
        Messages.Payment_report { payments = [| 1.5 |] } ];
    Messages.Batch [] ]

let rec message_equal a b =
  match (a, b) with
  | Messages.Share { task = t1; share = s1 }, Messages.Share { task = t2; share = s2 }
    ->
      t1 = t2 && Share.equal s1 s2
  | ( Messages.Commitments { task = t1; public = p1 },
      Messages.Commitments { task = t2; public = p2 } ) ->
      t1 = t2
      && Array.for_all2 Pedersen.equal p1.Bid_commitments.o p2.Bid_commitments.o
      && Array.for_all2 Pedersen.equal p1.Bid_commitments.qv p2.Bid_commitments.qv
      && Array.for_all2 Pedersen.equal p1.Bid_commitments.r p2.Bid_commitments.r
  | ( Messages.Lambda_psi { task = t1; lambda = l1; psi = p1 },
      Messages.Lambda_psi { task = t2; lambda = l2; psi = p2 } )
  | ( Messages.Lambda_psi_excl { task = t1; lambda = l1; psi = p1 },
      Messages.Lambda_psi_excl { task = t2; lambda = l2; psi = p2 } ) ->
      t1 = t2 && Bigint.equal l1 l2 && Bigint.equal p1 p2
  | ( Messages.F_disclosure { task = t1; f_row = r1 },
      Messages.F_disclosure { task = t2; f_row = r2 } ) ->
      t1 = t2 && Array.length r1 = Array.length r2
      && Array.for_all2 Bigint.equal r1 r2
  | ( Messages.F_disclosure_hardened { task = t1; f_row = r1; h_row = h1 },
      Messages.F_disclosure_hardened { task = t2; f_row = r2; h_row = h2 } ) ->
      t1 = t2
      && Array.length r1 = Array.length r2
      && Array.for_all2 Bigint.equal r1 r2
      && Array.length h1 = Array.length h2
      && Array.for_all2 Bigint.equal h1 h2
  | ( Messages.Payment_report { payments = a },
      Messages.Payment_report { payments = b } ) ->
      a = b
  | Messages.Batch a, Messages.Batch b ->
      List.length a = List.length b && List.for_all2 message_equal a b
  | _ -> false

(* ------------------------------------------------------------------ *)

let test_roundtrip_all_messages () =
  let g = rng () in
  List.iteri
    (fun i msg ->
      match Codec.decode (Codec.encode msg) with
      | Ok msg' ->
          Alcotest.(check bool) (Printf.sprintf "message %d" i) true
            (message_equal msg msg')
      | Error e -> Alcotest.failf "message %d failed to decode: %s" i e)
    (sample_messages g)

let test_encoded_size_consistent () =
  let g = rng () in
  List.iter
    (fun msg ->
      Alcotest.(check int) "size = length of encoding"
        (String.length (Codec.encode msg))
        (Codec.encoded_size msg))
    (sample_messages g)

let test_distinct_encodings () =
  let g = rng () in
  let encs = List.map Codec.encode (sample_messages g) in
  Alcotest.(check int) "all distinct" (List.length encs)
    (List.length (List.sort_uniq String.compare encs))

let test_truncation_rejected () =
  let g = rng () in
  List.iter
    (fun msg ->
      let enc = Codec.encode msg in
      (* Every strict prefix must fail to decode (messages are
         self-delimiting with no trailing slack). *)
      for len = 0 to String.length enc - 1 do
        match Codec.decode (String.sub enc 0 len) with
        | Ok _ -> Alcotest.failf "prefix of length %d decoded" len
        | Error _ -> ()
      done)
    (sample_messages g)

let test_trailing_garbage_rejected () =
  let g = rng () in
  let enc = Codec.encode (List.hd (sample_messages g)) in
  match Codec.decode (enc ^ "\x00") with
  | Ok _ -> Alcotest.fail "trailing byte accepted"
  | Error e -> Alcotest.(check string) "reason" "trailing garbage" e

let test_unknown_tag_rejected () =
  match Codec.decode "\x2a\x00\x01" with
  | Ok _ -> Alcotest.fail "bogus tag accepted"
  | Error e -> Alcotest.(check string) "reason" "unknown tag" e

(* Tag 9 was the scoped envelope of the retired persistent socket
   session; a frame in that old layout — tag 9, a 32-bit instance, then
   a bare payment report — is now just an unknown tag. *)
let test_retired_scoped_tag_rejected () =
  match Codec.decode "\x09\x00\x00\x00\x01\x06\x00\x00" with
  | Ok _ -> Alcotest.fail "retired tag 9 accepted"
  | Error e -> Alcotest.(check string) "reason" "unknown tag" e

let test_hostile_length_prefix_rejected () =
  (* A share message claiming a 65535-byte bigint. *)
  let s = "\x01\x00\x00\xff\xff" in
  match Codec.decode s with
  | Ok _ -> Alcotest.fail "hostile length accepted"
  | Error e -> Alcotest.(check string) "reason" "bigint field too large" e

let test_nested_batch_rejected () =
  let g = rng () in
  let inner =
    Messages.Batch [ Messages.Share { task = 0; share = random_share g } ]
  in
  (match Codec.encode (Messages.Batch [ inner ]) with
  | exception Invalid_argument msg ->
      Alcotest.(check string) "encode reason" "Codec: nested batch" msg
  | _ -> Alcotest.fail "nested batch encoded");
  (* Hand-built wire image of a batch whose single element is itself a
     batch: tag 7, count 1, element length 3, then the empty batch
     "\x07\x00\x00". *)
  match Codec.decode "\x07\x00\x01\x00\x03\x07\x00\x00" with
  | Ok _ -> Alcotest.fail "nested batch decoded"
  | Error e -> Alcotest.(check string) "decode reason" "nested batch" e

let test_empty_input () =
  match Codec.decode "" with
  | Ok _ -> Alcotest.fail "empty decoded"
  | Error _ -> ()

let test_bigint_field_roundtrip () =
  let g = rng () in
  for _ = 1 to 50 do
    let z = Prng.bits g (1 + Prng.int g 300) in
    let field = Codec.bigint_to_field z in
    match Codec.bigint_of_field field ~pos:0 with
    | Ok (z', pos) ->
        Alcotest.(check bool) "value" true (Bigint.equal z z');
        Alcotest.(check int) "consumed all" (String.length field) pos
    | Error e -> Alcotest.failf "field decode failed: %s" e
  done

let test_bytes_be_roundtrip_prop () =
  let g = rng () in
  for _ = 1 to 200 do
    let z = Prng.bits g (1 + Prng.int g 400) in
    Alcotest.(check bool) "roundtrip" true
      (Bigint.equal z (Bigint.of_bytes_be (Bigint.to_bytes_be z)))
  done;
  (* Leading zeros are tolerated on input, minimal on output. *)
  Alcotest.(check string) "zero" "\x00" (Bigint.to_bytes_be Bigint.zero);
  Alcotest.(check bool) "leading zeros" true
    (Bigint.equal (Bigint.of_int 5) (Bigint.of_bytes_be "\x00\x00\x05"));
  Alcotest.(check string) "256" "\x01\x00" (Bigint.to_bytes_be (Bigint.of_int 256))

let test_fuzz_decoder_total () =
  (* The decoder must return Error (never raise) on random garbage. *)
  let g = rng () in
  for _ = 1 to 2000 do
    let len = Prng.int g 64 in
    let s = String.init len (fun _ -> Char.chr (Prng.int g 256)) in
    match Codec.decode s with
    | Ok _ | Error _ -> ()
  done

let test_protocol_bytes_use_real_encoding () =
  (* The trace's byte totals must equal the sum of real encodings. *)
  let params = Params.make_exn ~group_bits:64 ~seed:3 ~n:4 ~m:1 ~c:1 () in
  let bids = [| [| 2 |]; [| 1 |]; [| 2 |]; [| 2 |] |] in
  let r = Dmw_exec.run ~seed:5 params ~bids in
  let events = Dmw_sim.Trace.events r.Dmw_exec.trace in
  Alcotest.(check bool) "events recorded" true (List.length events > 0);
  List.iter
    (fun (e : Dmw_sim.Trace.event) ->
      Alcotest.(check bool)
        (Printf.sprintf "plausible size for %s" e.Dmw_sim.Trace.tag)
        true
        (e.Dmw_sim.Trace.bytes >= 3))
    events

let () =
  Alcotest.run "dmw_codec"
    [ ("roundtrip",
       [ Alcotest.test_case "all message types" `Quick test_roundtrip_all_messages;
         Alcotest.test_case "encoded_size" `Quick test_encoded_size_consistent;
         Alcotest.test_case "distinct encodings" `Quick test_distinct_encodings;
         Alcotest.test_case "bigint field" `Quick test_bigint_field_roundtrip;
         Alcotest.test_case "bytes_be" `Quick test_bytes_be_roundtrip_prop ]);
      ("robustness",
       [ Alcotest.test_case "truncation" `Quick test_truncation_rejected;
         Alcotest.test_case "trailing garbage" `Quick test_trailing_garbage_rejected;
         Alcotest.test_case "unknown tag" `Quick test_unknown_tag_rejected;
         Alcotest.test_case "retired tag 9" `Quick
           test_retired_scoped_tag_rejected;
         Alcotest.test_case "hostile length" `Quick test_hostile_length_prefix_rejected;
         Alcotest.test_case "nested batch" `Quick test_nested_batch_rejected;
         Alcotest.test_case "empty input" `Quick test_empty_input;
         Alcotest.test_case "fuzz total" `Quick test_fuzz_decoder_total ]);
      ("integration",
       [ Alcotest.test_case "trace uses real sizes" `Quick
           test_protocol_bytes_use_real_encoding ]) ]
