(* WAL-layer fuzzing, in the mold of test_frame_fuzz: the recovery
   reader must be total on adversarial byte streams. Truncated tails,
   flipped checksum or payload bits, oversized and negative declared
   lengths, unknown tags — every corruption yields a typed [error]
   confined to the torn tail, never an exception, a hang, or a
   mis-resumed record. The example cases also pin the on-disk framing
   byte for byte (magic, u32 length, u32 CRC), so a format drift breaks
   here before it breaks a stored journal. *)

open Dmw_core

let magic = "DMWWAL02"
let params = Params.make_exn ~group_bits:64 ~seed:3 ~n:5 ~m:2 ~c:1 ()
let snapshot = Dmw_wal.snapshot_of_params params

(* One of each record variant, with the awkward values in play: empty
   arrays, [None] knobs, withheld payments. *)
let sample_records : Dmw_wal.record list =
  [ Run_start
      { seed = 42; params = snapshot;
        bids = [| [| 1; 2 |]; [| 2; 1 |]; [| 3; 3 |]; [| 1; 1 |]; [| 2; 3 |] |];
        batching = true; hardened = false; pipeline = Some 1; retries = 2;
        watchdog = Some 0.25; faults = Some "drop=0.125" };
    Attempt_start { attempt = 1; attempt_seed = 42; survivors = 5 };
    Task_phase { attempt = 1; task = 0; phase = Agent.Bidding };
    Task_phase { attempt = 1; task = 1; phase = Agent.Resolving_first };
    Task_phase { attempt = 1; task = 1; phase = Agent.Identifying };
    Task_phase { attempt = 1; task = 1; phase = Agent.Resolving_second };
    Task_phase { attempt = 1; task = 1; phase = Agent.Done_ };
    Task_done { attempt = 1; task = 0; winner = 3; y_star = 1; y_star2 = 2 };
    Run_end
      { schedule = Some [| 3; 1 |]; first_prices = Some [| 1; 1 |];
        second_prices = Some [| 2; 1 |];
        payments = [| Some 0.0; Some 2.5; None; Some 0.0; Some 0.0 |];
        attempts = 2; excluded = [| 4 |] };
    Resumed { kept = 3 };
    Serve_start
      { n = 5; c = 1; group_bits = 64; seed = 7; w_max = Some 3;
        pipeline = None; max_wave = 8 };
    Job_submitted { job = 0; bids = [| 2; 1; 3; 1; 2 |] };
    Epoch_start { epoch = 1; jobs = [| 0; 1 |] } ]

(* Reference framing, independent of the writer: len | crc | payload. *)
let frame r =
  let p = Dmw_wal.encode r in
  let b = Bytes.create 8 in
  Bytes.set_int32_be b 0 (Int32.of_int (String.length p));
  Bytes.set_int32_be b 4 (Int32.of_int (Dmw_wal.crc32 p));
  Bytes.to_string b ^ p

let image records = magic ^ String.concat "" (List.map frame records)

(* Record boundaries of an image: byte offsets where a reader may stop
   cleanly. Parsed straight off the length fields. *)
let boundaries img =
  let rec go pos acc =
    if pos + 8 > String.length img then List.rev acc
    else
      let len = Int32.to_int (String.get_int32_be img pos) in
      let next = pos + 8 + len in
      if len < 0 || next > String.length img then List.rev acc
      else go next (next :: acc)
  in
  go (String.length magic) [ String.length magic ]

let tmp_path name = Filename.temp_file "dmw_wal_fuzz_" name

(* ------------------------------------------------------------------ *)
(* Deterministic example-based cases                                   *)
(* ------------------------------------------------------------------ *)

let test_roundtrip () =
  List.iter
    (fun r ->
      match Dmw_wal.decode (Dmw_wal.encode r) with
      | Ok r' -> Alcotest.(check bool) "decode (encode r) = r" true (r = r')
      | Error e -> Alcotest.failf "decode failed: %s" e)
    sample_records

let test_params_roundtrip () =
  match Dmw_wal.params_of_snapshot snapshot with
  | Error e -> Alcotest.failf "params_of_snapshot: %s" e
  | Ok p ->
      Alcotest.(check bool) "snapshot round-trips through Params" true
        (Dmw_wal.snapshot_of_params p = snapshot)

(* The writer produces exactly the reference image — the on-disk
   format pin from the append side. *)
let test_writer_format_pinned () =
  let path = tmp_path ".wal" in
  let w = Dmw_wal.create path in
  List.iter (Dmw_wal.append w) sample_records;
  Dmw_wal.close w;
  let ic = open_in_bin path in
  let bytes = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  Alcotest.(check bool) "file bytes = magic + framed records" true
    (String.equal bytes (image sample_records));
  match Dmw_wal.read_string bytes with
  | Ok { Dmw_wal.records; tail = Dmw_wal.Clean; valid } ->
      Alcotest.(check bool) "records read back" true
        (records = sample_records);
      Alcotest.(check int) "valid covers the file" (String.length bytes) valid
  | Ok _ -> Alcotest.fail "tail not clean"
  | Error e -> Alcotest.failf "read_string: %s" (Dmw_wal.error_to_string e)

let test_every_truncation_is_typed () =
  let img = image sample_records in
  let bounds = boundaries img in
  for cut = 0 to String.length img - 1 do
    match Dmw_wal.read_string (String.sub img 0 cut) with
    | Error Dmw_wal.Bad_magic ->
        Alcotest.(check bool) "bad magic only below the header" true
          (cut < String.length magic)
    | Error e ->
        Alcotest.failf "cut %d: unexpected error %s" cut
          (Dmw_wal.error_to_string e)
    | Ok { Dmw_wal.records; tail; valid } -> (
        Alcotest.(check bool) "valid is a boundary <= cut" true
          (valid <= cut && List.mem valid bounds);
        Alcotest.(check int) "records = whole records before cut"
          (List.length (List.filter (fun b -> b <= valid) bounds) - 1)
          (List.length records);
        match tail with
        | Dmw_wal.Clean -> Alcotest.(check int) "clean iff on boundary" cut valid
        | Dmw_wal.Torn (Dmw_wal.Truncated { offset; have; need }) ->
            Alcotest.(check int) "torn at the last boundary" valid offset;
            Alcotest.(check bool) "have < need" true (have < need)
        | Dmw_wal.Torn e ->
            Alcotest.failf "cut %d: unexpected torn %s" cut
              (Dmw_wal.error_to_string e))
  done

let flip s i bit =
  let b = Bytes.of_string s in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
  Bytes.to_string b

let test_bad_checksum_confines_damage () =
  let img = image sample_records in
  let bounds = boundaries img in
  (* Corrupt one payload byte of the 4th record: everything before it
     must survive, everything from it on is the torn tail. *)
  let off = List.nth bounds 3 in
  let corrupted = flip img (off + 8) 0 in
  (match Dmw_wal.read_string corrupted with
  | Ok { Dmw_wal.records; tail = Dmw_wal.Torn (Dmw_wal.Bad_checksum { offset });
         valid } ->
      Alcotest.(check int) "checksum failure at the record" off offset;
      Alcotest.(check int) "valid stops before it" off valid;
      Alcotest.(check int) "three records survive" 3 (List.length records)
  | Ok _ -> Alcotest.fail "corrupted payload not detected"
  | Error e -> Alcotest.failf "read_string: %s" (Dmw_wal.error_to_string e));
  (* Corrupt the stored CRC itself: same typed outcome. *)
  match Dmw_wal.read_string (flip img (off + 5) 3) with
  | Ok { Dmw_wal.tail = Dmw_wal.Torn (Dmw_wal.Bad_checksum { offset }); _ } ->
      Alcotest.(check int) "crc corruption detected" off offset
  | Ok _ | Error _ -> Alcotest.fail "corrupted crc not detected"

let patch_len img off v =
  let b = Bytes.of_string img in
  Bytes.set_int32_be b off v;
  Bytes.to_string b

let test_oversized_and_negative () =
  let img = image sample_records in
  let off = List.nth (boundaries img) 2 in
  (match
     Dmw_wal.read_string
       (patch_len img off (Int32.of_int (Dmw_wal.max_payload + 1)))
   with
  | Ok { Dmw_wal.tail = Dmw_wal.Torn (Dmw_wal.Oversized { offset; declared });
         _ } ->
      Alcotest.(check int) "oversized at the record" off offset;
      Alcotest.(check int) "declared length" (Dmw_wal.max_payload + 1) declared
  | Ok _ | Error _ -> Alcotest.fail "oversized length accepted");
  match Dmw_wal.read_string (patch_len img off 0x80000001l) with
  | Ok { Dmw_wal.tail = Dmw_wal.Torn (Dmw_wal.Negative_length { declared; _ });
         _ } ->
      Alcotest.(check bool) "negative" true (declared < 0)
  | Ok _ | Error _ -> Alcotest.fail "negative length accepted"

let test_unknown_tag_is_bad_record () =
  (* A perfectly framed payload with a tag no decoder knows: framing
     passes, decoding is the typed failure. *)
  let garbage = "\xffgarbage" in
  let b = Bytes.create 8 in
  Bytes.set_int32_be b 0 (Int32.of_int (String.length garbage));
  Bytes.set_int32_be b 4 (Int32.of_int (Dmw_wal.crc32 garbage));
  let img =
    image [ List.hd sample_records ] ^ Bytes.to_string b ^ garbage
  in
  match Dmw_wal.read_string img with
  | Ok { Dmw_wal.records; tail = Dmw_wal.Torn (Dmw_wal.Bad_record _); _ } ->
      Alcotest.(check int) "header record survives" 1 (List.length records)
  | Ok _ | Error _ -> Alcotest.fail "unknown tag not typed"

let test_not_a_wal () =
  (match Dmw_wal.read_string "" with
  | Error Dmw_wal.Bad_magic -> ()
  | Ok _ | Error _ -> Alcotest.fail "empty string accepted");
  List.iter
    (fun img ->
      match Dmw_wal.read_string img with
      | Error Dmw_wal.Bad_magic -> ()
      | Ok _ | Error _ -> Alcotest.fail "wrong magic accepted")
    [ "DMWWAL99garbage";
      (* The previous format: same framing, retired record kinds. *)
      "DMWWAL01" ^ String.concat "" (List.map frame sample_records) ];
  Alcotest.(check string) "the refusal names the expected magic"
    "not a WAL: bad or missing magic header (expected DMWWAL02)"
    (Dmw_wal.error_to_string Dmw_wal.Bad_magic);
  match Dmw_wal.read "/nonexistent/dmw.wal" with
  | Error (Dmw_wal.Bad_record { offset = 0; _ }) -> ()
  | Ok _ | Error _ -> Alcotest.fail "missing file not a typed error"

let test_continue_file_drops_torn_tail () =
  let path = tmp_path ".wal" in
  let w = Dmw_wal.create path in
  List.iter (Dmw_wal.append w) sample_records;
  Dmw_wal.close w;
  (* Tear the tail mid-record, reopen at the last good boundary, and
     append: the torn bytes must be gone and the new record intact. *)
  let img = image sample_records in
  let valid = List.nth (boundaries img) 5 in
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Unix.ftruncate fd (valid + 3);
  Unix.close fd;
  let w = Dmw_wal.continue_file path ~valid in
  Dmw_wal.append w (Dmw_wal.Resumed { kept = 5 });
  Dmw_wal.close w;
  match Dmw_wal.read path with
  | Ok { Dmw_wal.records; tail = Dmw_wal.Clean; _ } ->
      Alcotest.(check int) "5 kept + 1 appended" 6 (List.length records);
      Alcotest.(check bool) "appended record last" true
        (List.nth records 5 = Dmw_wal.Resumed { kept = 5 });
      Sys.remove path
  | Ok _ -> Alcotest.fail "tail not clean after continue_file"
  | Error e -> Alcotest.failf "read: %s" (Dmw_wal.error_to_string e)

(* ------------------------------------------------------------------ *)
(* Property-based fuzzing                                              *)
(* ------------------------------------------------------------------ *)

(* Total on random garbage payloads. *)
let prop_decode_total =
  QCheck.Test.make ~count:2000 ~name:"decode total on random bytes"
    QCheck.(string_of_size Gen.(0 -- 96))
    (fun s -> match Dmw_wal.decode s with Ok _ | Error _ -> true)

(* Total on random garbage files, and the reported [valid] prefix is
   itself a clean WAL — the contract crash recovery leans on. *)
let prop_read_total_and_valid_clean =
  QCheck.Test.make ~count:1000 ~name:"read_string total; valid prefix clean"
    QCheck.(string_of_size Gen.(0 -- 256))
    (fun s ->
      match Dmw_wal.read_string (magic ^ s) with
      | Error _ -> false
      | Ok { Dmw_wal.valid; _ } -> (
          valid >= String.length magic
          && valid <= String.length magic + String.length s
          &&
          match Dmw_wal.read_string (String.sub (magic ^ s) 0 valid) with
          | Ok { Dmw_wal.tail = Dmw_wal.Clean; valid = v; _ } -> v = valid
          | Ok _ | Error _ -> false))

(* Single bit flips anywhere in a valid image: reading stays total,
   surviving records are genuine prefix records, and the valid prefix
   re-reads clean. *)
let prop_bit_flip_never_raises =
  let img = image sample_records in
  QCheck.Test.make ~count:2000 ~name:"single bit flip yields typed outcome"
    QCheck.(pair small_nat (int_range 0 7))
    (fun (byte_choice, bit) ->
      let i = byte_choice mod String.length img in
      match Dmw_wal.read_string (flip img i bit) with
      | Error Dmw_wal.Bad_magic -> i < String.length magic
      | Error _ -> false
      | Ok { Dmw_wal.valid; records; _ } -> (
          valid <= String.length img
          && List.length records <= List.length sample_records
          &&
          match Dmw_wal.read_string (String.sub (flip img i bit) 0 valid) with
          | Ok { Dmw_wal.tail = Dmw_wal.Clean; records = r'; _ } ->
              r' = records
          | Ok _ | Error _ -> false))

let () =
  Alcotest.run "dmw_wal_fuzz"
    [ ( "format",
        [ Alcotest.test_case "record roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "params snapshot roundtrip" `Quick
            test_params_roundtrip;
          Alcotest.test_case "writer bytes pinned" `Quick
            test_writer_format_pinned ] );
      ( "corruption",
        [ Alcotest.test_case "every truncation typed" `Quick
            test_every_truncation_is_typed;
          Alcotest.test_case "checksum damage confined" `Quick
            test_bad_checksum_confines_damage;
          Alcotest.test_case "oversized and negative" `Quick
            test_oversized_and_negative;
          Alcotest.test_case "unknown tag typed" `Quick
            test_unknown_tag_is_bad_record;
          Alcotest.test_case "not a WAL" `Quick test_not_a_wal;
          Alcotest.test_case "continue_file drops torn tail" `Quick
            test_continue_file_drops_torn_tail ] );
      ( "fuzz",
        [ QCheck_alcotest.to_alcotest prop_decode_total;
          QCheck_alcotest.to_alcotest prop_read_total_and_valid_clean;
          QCheck_alcotest.to_alcotest prop_bit_flip_never_raises ] ) ]
