(* Crash-resume: the durability headline. A process journaling into
   the write-ahead log is "killed" at every record boundary (and at
   torn mid-record offsets) by truncating the journal to that prefix;
   resuming from the prefix must reproduce the uninterrupted run's
   signature BIT FOR BIT — schedule, prices, payments, per-agent abort
   reasons, attempt/exclusion accounting, and the message/byte trace —
   on sim and socket. The serve section does the same for the
   persistent service's epoch journal, and the golden vectors under
   vectors/ pin the on-disk format (and, through resume's verification
   of journaled settlements, the consensus values) against committed
   bytes. CRASH_SEED overrides the swept instance for CI pinning;
   WAL_VECTORS_REGEN=1 rewrites the vectors instead of checking them. *)

open Dmw_bigint
open Dmw_core

let env_int name default =
  match int_of_string_opt (try Sys.getenv name with Not_found -> "") with
  | Some v -> v
  | None -> default

let crash_seed = env_int "CRASH_SEED" 42
let magic_len = 8

(* ------------------------------------------------------------------ *)
(* Small file and framing helpers                                      *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* Record boundaries (byte offsets of record ends), parsed straight
   off the u32 length fields. *)
let boundaries img =
  let rec go pos acc =
    if pos + 8 > String.length img then List.rev acc
    else
      let len = Int32.to_int (String.get_int32_be img pos) in
      let next = pos + 8 + len in
      if len < 0 || next > String.length img then List.rev acc
      else go next (next :: acc)
  in
  go magic_len []

let frame r =
  let p = Dmw_wal.encode r in
  let b = Bytes.create 8 in
  Bytes.set_int32_be b 0 (Int32.of_int (String.length p));
  Bytes.set_int32_be b 4 (Int32.of_int (Dmw_wal.crc32 p));
  Bytes.to_string b ^ p

let image records = "DMWWAL01" ^ String.concat "" (List.map frame records)

let contains ~affix s =
  let na = String.length affix and ns = String.length s in
  let rec go i = i + na <= ns && (String.sub s i na = affix || go (i + 1)) in
  go 0

(* The full signature of test_replay: consensus outcome AND the
   accounting a lazy recovery would get wrong. *)
let signature (r : Dmw_exec.result) =
  ( Option.map Dmw_mechanism.Schedule.assignment r.Dmw_exec.schedule,
    r.Dmw_exec.first_prices,
    r.Dmw_exec.second_prices,
    r.Dmw_exec.payments,
    Array.map
      (fun (s : Dmw_exec.agent_status) -> (s.Dmw_exec.agent, s.Dmw_exec.aborted))
      r.Dmw_exec.statuses,
    (r.Dmw_exec.attempts, r.Dmw_exec.excluded),
    (Dmw_sim.Trace.messages r.Dmw_exec.trace,
     Dmw_sim.Trace.bytes r.Dmw_exec.trace),
    Dmw_sim.Trace.messages_by_tag r.Dmw_exec.trace )

let backends =
  [ ("sim", fun () -> Dmw_exec.sim ());
    ("socket", fun () -> Dmw_exec.socket ~timeout:20.0 ()) ]

(* ------------------------------------------------------------------ *)
(* One-shot runs: kill at every record boundary                        *)
(* ------------------------------------------------------------------ *)

let test_kill_at_every_boundary () =
  let params = Params.make_exn ~group_bits:64 ~seed:3 ~n:5 ~m:2 ~c:1 () in
  let g = Prng.create ~seed:crash_seed in
  let bids =
    Array.init 5 (fun _ ->
        Array.init 2 (fun _ -> 1 + Prng.int g params.Params.w_max))
  in
  let path = Filename.temp_file "dmw_crash_" ".wal" in
  let w = Dmw_wal.create path in
  let r0 =
    Dmw_exec.run ~seed:crash_seed ~keep_events:false ~wal:w params ~bids
  in
  Dmw_wal.close w;
  Alcotest.(check bool) "reference completed" true (Dmw_exec.completed r0);
  let reference = signature r0 in
  let img = read_file path in
  let cuts = boundaries img in
  (* The log must actually checkpoint: a header, an attempt, phase
     crossings for both tasks, two settlements and the outcome. *)
  Alcotest.(check bool) "log has phase-level checkpoints" true
    (List.length cuts >= 10);
  (* A kill before the header ever hit the disk is a typed refusal. *)
  write_file path (String.sub img 0 magic_len);
  (match Dmw_exec.resume path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "headerless journal resumed");
  let resume_at ~backend_name ~mk cut =
    write_file path (String.sub img 0 cut);
    match Dmw_exec.resume ~backend:(mk ()) path with
    | Error e -> Alcotest.failf "%s, killed at %d: %s" backend_name cut e
    | Ok r ->
        Alcotest.(check bool)
          (Printf.sprintf "%s, killed at %d/%d: signature bit-identical"
             backend_name cut (String.length img))
          true
          (signature r.Dmw_exec.result = reference)
  in
  List.iter
    (fun (backend_name, mk) ->
      let my_cuts =
        if backend_name = "sim" then cuts
        else
          (* The socket backend proves cross-backend recovery at
             three representative kill sites; the sim sweep covers
             every boundary. *)
          [ List.nth cuts 0;
            List.nth cuts (List.length cuts / 2);
            List.nth cuts (List.length cuts - 1) ]
      in
      List.iter (resume_at ~backend_name ~mk) my_cuts;
      (* Torn mid-record kills: one byte past a boundary, the reader
         must drop the tail and recover identically. *)
      List.iteri
        (fun i cut ->
          if i mod 4 = 0 && cut + 1 < String.length img then
            resume_at ~backend_name ~mk (cut + 1))
        my_cuts)
    backends;
  Sys.remove path

(* A resumed process that dies again: resume from a prefix (appending
   a fresh segment), kill the resumed "process" at a boundary of the
   grown log, resume again — still bit-identical. *)
let test_double_crash () =
  let params = Params.make_exn ~group_bits:64 ~seed:3 ~n:4 ~m:2 ~c:1 () in
  let bids = [| [| 1; 2 |]; [| 2; 1 |]; [| 2; 2 |]; [| 1; 1 |] |] in
  let path = Filename.temp_file "dmw_crash2_" ".wal" in
  let w = Dmw_wal.create path in
  let r0 = Dmw_exec.run ~seed:5 ~keep_events:false ~wal:w params ~bids in
  Dmw_wal.close w;
  let reference = signature r0 in
  let img = read_file path in
  let cut = List.nth (boundaries img) 4 in
  write_file path (String.sub img 0 cut);
  (match Dmw_exec.resume path with
  | Error e -> Alcotest.failf "first resume: %s" e
  | Ok r ->
      Alcotest.(check bool) "first resume identical" true
        (signature r.Dmw_exec.result = reference));
  (* The journal now holds segment 1 (truncated) + Resumed + segment 2.
     Kill inside segment 2 and go again. *)
  let img2 = read_file path in
  Alcotest.(check bool) "resume appended a segment" true
    (String.length img2 > cut);
  let bounds2 = List.filter (fun b -> b > cut) (boundaries img2) in
  let cut2 = List.nth bounds2 (List.length bounds2 / 2) in
  write_file path (String.sub img2 0 cut2);
  (match Dmw_exec.resume path with
  | Error e -> Alcotest.failf "second resume: %s" e
  | Ok r ->
      Alcotest.(check bool) "second resume identical" true
        (signature r.Dmw_exec.result = reference));
  Sys.remove path

(* Re-auctioned runs: a silent peer, a watchdog verdict, an exclusion
   vote and a second attempt — killed between and inside attempts, the
   resume must rebuild the whole chain (attempt-salted seeds,
   restricted params) and land on the same attempts/excluded/trace. *)
let test_kill_across_reauction () =
  let params = Params.make_exn ~group_bits:64 ~seed:13 ~n:7 ~m:2 ~c:1 ~w_max:3 () in
  let bids =
    [| [| 1; 2 |]; [| 2; 1 |]; [| 3; 3 |]; [| 1; 1 |]; [| 2; 3 |];
       [| 3; 1 |]; [| 1; 3 |] |]
  in
  let faults =
    Dmw_sim.Fault.silence_from ~node:6 ~phase:Dmw_sim.Fault.phase_bidding
  in
  let path = Filename.temp_file "dmw_crash_retry_" ".wal" in
  let w = Dmw_wal.create path in
  let r0 =
    Dmw_exec.run ~seed:9 ~keep_events:false ~faults ~retries:1 ~wal:w params
      ~bids
  in
  Dmw_wal.close w;
  Alcotest.(check bool) "reference re-auctioned to completion" true
    (Dmw_exec.completed r0 && r0.Dmw_exec.attempts = 2
   && r0.Dmw_exec.excluded = [| 6 |]);
  let reference = signature r0 in
  let img = read_file path in
  let cuts = boundaries img in
  (* Locate the second attempt's start to kill around it. *)
  let records =
    match Dmw_wal.read_string img with
    | Ok { Dmw_wal.records; tail = Dmw_wal.Clean; _ } -> records
    | Ok _ | Error _ -> Alcotest.fail "reference journal unreadable"
  in
  let attempt2 =
    let rec find i = function
      | [] -> Alcotest.fail "no second attempt journaled"
      | Dmw_wal.Attempt_start { attempt = 2; _ } :: _ -> i
      | _ :: rest -> find (i + 1) rest
    in
    find 0 records
  in
  List.iter
    (fun idx ->
      let cut = List.nth cuts idx in
      write_file path (String.sub img 0 cut);
      match Dmw_exec.resume path with
      | Error e -> Alcotest.failf "killed at record %d: %s" idx e
      | Ok r ->
          Alcotest.(check bool)
            (Printf.sprintf "killed at record %d: signature bit-identical" idx)
            true
            (signature r.Dmw_exec.result = reference))
    [ 1;                         (* mid attempt 1 *)
      attempt2 - 1;              (* attempt 1 aborted, vote not yet cast *)
      attempt2;                  (* exactly at the re-auction *)
      attempt2 + 2;              (* mid attempt 2 *)
      List.length cuts - 1 ]     (* complete journal *);
  Sys.remove path

(* A journal that disagrees with deterministic re-execution must be
   refused, not silently "repaired" — it is the wrong log or a
   corrupted one. *)
let test_resume_rejects_corruption () =
  let params = Params.make_exn ~group_bits:64 ~seed:3 ~n:5 ~m:2 ~c:1 () in
  let bids = [| [| 1; 2 |]; [| 2; 1 |]; [| 3; 3 |]; [| 1; 1 |]; [| 2; 3 |] |] in
  let path = Filename.temp_file "dmw_crash_bad_" ".wal" in
  let w = Dmw_wal.create path in
  ignore (Dmw_exec.run ~seed:42 ~keep_events:false ~wal:w params ~bids
           : Dmw_exec.result);
  Dmw_wal.close w;
  let records =
    match Dmw_wal.read path with
    | Ok { Dmw_wal.records; _ } -> records
    | Error e -> Alcotest.failf "read: %s" (Dmw_wal.error_to_string e)
  in
  let tampered =
    List.map
      (function
        | Dmw_wal.Task_done d ->
            Dmw_wal.Task_done { d with winner = (d.winner + 1) mod 5 }
        | r -> r)
      records
  in
  write_file path (image tampered);
  (match Dmw_exec.resume path with
  | Error e ->
      Alcotest.(check bool) "names the disagreeing settlement" true
        (contains ~affix:"does not match" e)
  | Ok _ -> Alcotest.fail "tampered settlement resumed");
  (* Cross-log confusion is typed too: a serve journal is not a run. *)
  write_file path
    (image
       [ Dmw_wal.Serve_start
           { n = 5; c = 1; group_bits = 64; seed = 11; w_max = Some 3;
             pipeline = None; max_wave = 2 } ]);
  (match Dmw_exec.resume path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "serve journal resumed as a run");
  (match Dmw_serve_core.recover (List.filter (function Dmw_wal.Serve_start _ -> false | _ -> true) tampered) with
  | Error e ->
      Alcotest.(check bool) "run journal refused by serve recovery" true
        (contains ~affix:"Serve_start" e)
  | Ok _ -> Alcotest.fail "run journal recovered as a service");
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* The persistent service: kill at every epoch-journal boundary        *)
(* ------------------------------------------------------------------ *)

let serve_jobs =
  [ [| 2; 1; 3; 1; 2 |]; [| 1; 2; 1; 3; 1 |]; [| 3; 3; 2; 1; 1 |];
    [| 1; 1; 2; 2; 3 |] ]

(* Run the whole 4-job / 2-epoch stream with a journal and hand back
   (journal image, reference settlements by job id). *)
let serve_reference ~wal_path ~seed =
  let cfg = Dmw_serve_core.config ~seed ~n:5 ~c:1 ~w_max:3 ~max_wave:2 () in
  let w = Dmw_wal.create wal_path in
  let t = Dmw_serve_core.create ~paused:true ~wal:w cfg in
  let ids =
    List.map
      (fun bids ->
        match Dmw_serve_core.submit t ~bids with
        | `Accepted id -> id
        | `Busy | `Closed | `Invalid _ -> Alcotest.fail "submit rejected")
      serve_jobs
  in
  Dmw_serve_core.resume t;
  let results =
    List.filter_map (fun id -> Dmw_serve_core.await t id) ids
  in
  Dmw_serve_core.shutdown t;
  Dmw_wal.close w;
  (read_file wal_path, results)

let serve_key (r : Dmw_serve_core.job_result) =
  ( r.Dmw_serve_core.job, r.Dmw_serve_core.epoch, r.Dmw_serve_core.task,
    r.Dmw_serve_core.outcome )

let test_serve_kill_at_every_boundary () =
  let path = Filename.temp_file "dmw_crash_serve_" ".wal" in
  let img, reference = serve_reference ~wal_path:path ~seed:11 in
  Alcotest.(check int) "4 reference settlements" 4 (List.length reference);
  List.iter
    (fun (r : Dmw_serve_core.job_result) ->
      Alcotest.(check bool) "reference job settled" true
        (Option.is_some r.Dmw_serve_core.outcome))
    reference;
  let refmap = Hashtbl.create 8 in
  List.iter
    (fun r -> Hashtbl.replace refmap r.Dmw_serve_core.job (serve_key r))
    reference;
  List.iter
    (fun cut ->
      let prefix = String.sub img 0 cut in
      let records =
        match Dmw_wal.read_string prefix with
        | Ok { Dmw_wal.records; _ } -> records
        | Error e ->
            Alcotest.failf "killed at %d: %s" cut (Dmw_wal.error_to_string e)
      in
      let submitted =
        List.filter_map
          (function Dmw_wal.Job_submitted { job; _ } -> Some job | _ -> None)
          records
      in
      match Dmw_serve_core.recover records with
      | Error e ->
          (* Only a prefix without the service header may refuse. *)
          Alcotest.(check bool)
            (Printf.sprintf "killed at %d: refusal only without header: %s"
               cut e)
            true (records = [])
      | Ok rc ->
          (* Every journaled submission settles, and every settlement —
             kept or replayed — is the one the uninterrupted service
             produced, epoch and prices included. *)
          List.iter
            (fun job ->
              Alcotest.(check bool)
                (Printf.sprintf "killed at %d: job %d settles" cut job)
                true
                (List.exists
                   (fun (r : Dmw_serve_core.job_result) ->
                     r.Dmw_serve_core.job = job)
                   rc.Dmw_serve_core.results))
            submitted;
          List.iter
            (fun (r : Dmw_serve_core.job_result) ->
              match Hashtbl.find_opt refmap r.Dmw_serve_core.job with
              | Some k ->
                  Alcotest.(check bool)
                    (Printf.sprintf "killed at %d: job %d bit-identical" cut
                       r.Dmw_serve_core.job)
                    true
                    (serve_key r = k)
              | None ->
                  Alcotest.failf "killed at %d: unknown job %d" cut
                    r.Dmw_serve_core.job)
            rc.Dmw_serve_core.results)
    (magic_len :: boundaries img);
  Sys.remove path

(* A journaled recovery is itself recoverable, and converges: after
   one recovery repaired the log, a second one finds nothing to
   replay. *)
let test_serve_recovery_converges () =
  let path = Filename.temp_file "dmw_crash_serve2_" ".wal" in
  let img, reference = serve_reference ~wal_path:path ~seed:23 in
  (* Kill mid-epoch-2: keep everything up to the boundary right after
     epoch 2's Epoch_start. *)
  let records_all =
    match Dmw_wal.read_string img with
    | Ok { Dmw_wal.records; _ } -> records
    | Error _ -> Alcotest.fail "unreadable reference journal"
  in
  let e2_idx =
    let rec find i = function
      | [] -> Alcotest.fail "no second epoch journaled"
      | Dmw_wal.Epoch_start { epoch = 2; _ } :: _ -> i
      | _ :: rest -> find (i + 1) rest
    in
    find 0 records_all
  in
  let cut = List.nth (boundaries img) e2_idx in
  write_file path (String.sub img 0 cut);
  let recover_file () =
    match Dmw_wal.read path with
    | Error e -> Alcotest.failf "read: %s" (Dmw_wal.error_to_string e)
    | Ok { Dmw_wal.records; valid; _ } ->
        let w = Dmw_wal.continue_file path ~valid in
        let r = Dmw_serve_core.recover ~journal:w records in
        Dmw_wal.close w;
        (match r with
        | Ok rc -> rc
        | Error e -> Alcotest.failf "recover: %s" e)
  in
  let first = recover_file () in
  Alcotest.(check int) "first recovery replays the torn epoch" 1
    first.Dmw_serve_core.replayed;
  let second = recover_file () in
  Alcotest.(check int) "second recovery replays nothing" 0
    second.Dmw_serve_core.replayed;
  Alcotest.(check int) "all jobs kept the second time" 4
    second.Dmw_serve_core.kept;
  Alcotest.(check bool) "settlements identical to the uninterrupted run" true
    (List.map serve_key second.Dmw_serve_core.results
    = List.map serve_key
        (List.sort
           (fun (a : Dmw_serve_core.job_result) b ->
             Int.compare a.Dmw_serve_core.job b.Dmw_serve_core.job)
           reference));
  Alcotest.(check int) "epoch counter continues past the journal" 2
    second.Dmw_serve_core.next_epoch;
  Alcotest.(check int) "job ids continue past the journal" 4
    second.Dmw_serve_core.next_job;
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Golden vectors: the on-disk format, pinned                          *)
(* ------------------------------------------------------------------ *)

let vector1 = "vectors/wal_run1.wal"
let vector2 = "vectors/wal_run2.wal"
let vector3 = "vectors/wal_run3.wal"

let build_vector1 path =
  let params = Params.make_exn ~group_bits:64 ~seed:3 ~n:5 ~m:2 ~c:1 () in
  let bids = [| [| 1; 2 |]; [| 2; 1 |]; [| 3; 3 |]; [| 1; 1 |]; [| 2; 3 |] |] in
  let w = Dmw_wal.create path in
  ignore (Dmw_exec.run ~seed:42 ~keep_events:false ~wal:w params ~bids
           : Dmw_exec.result);
  Dmw_wal.close w

let build_vector2 path =
  (* Every journaled knob off its default: restricted bid range,
     batching, hardened disclosures, sequential pipeline. *)
  let params = Params.make_exn ~group_bits:64 ~seed:3 ~n:5 ~m:2 ~c:1 ~w_max:2 () in
  let bids = [| [| 1; 2 |]; [| 2; 1 |]; [| 2; 2 |]; [| 1; 1 |]; [| 2; 1 |] |] in
  let w = Dmw_wal.create path in
  ignore
    (Dmw_exec.run ~seed:7 ~keep_events:false ~batching:true ~hardened:true
       ~pipeline:1 ~wal:w params ~bids
      : Dmw_exec.result);
  Dmw_wal.close w

let build_vector3 path =
  let w = Dmw_wal.create path in
  let cfg = Dmw_serve_core.config ~seed:11 ~n:5 ~c:1 ~w_max:3 ~max_wave:2 () in
  let t = Dmw_serve_core.create ~paused:true ~wal:w cfg in
  let ids =
    List.map
      (fun bids ->
        match Dmw_serve_core.submit t ~bids with
        | `Accepted id -> id
        | `Busy | `Closed | `Invalid _ -> Alcotest.fail "submit rejected")
      serve_jobs
  in
  Dmw_serve_core.resume t;
  List.iter (fun id -> ignore (Dmw_serve_core.await t id)) ids;
  Dmw_serve_core.shutdown t;
  Dmw_wal.close w

let () =
  match Sys.getenv_opt "WAL_VECTORS_REGEN" with
  | Some ("1" | "true") ->
      build_vector1 vector1;
      build_vector2 vector2;
      build_vector3 vector3;
      print_endline "regenerated vectors/wal_run{1,2,3}.wal"
  | Some _ | None -> ()

let test_golden_vectors () =
  List.iter
    (fun (path, kind) ->
      let img = read_file path in
      match Dmw_wal.read_string img with
      | Error e ->
          Alcotest.failf "%s: %s" path (Dmw_wal.error_to_string e)
      | Ok { Dmw_wal.records; tail; valid } -> (
          Alcotest.(check bool) (path ^ ": clean tail") true
            (tail = Dmw_wal.Clean);
          Alcotest.(check int) (path ^ ": fully valid") (String.length img)
            valid;
          (* Byte-exact re-encode: every field codec and the framing
             are pinned by the committed bytes. *)
          Alcotest.(check bool) (path ^ ": re-encodes byte-identically") true
            (String.equal (image records) img);
          match kind with
          | `Run kept ->
              (* Resuming a committed journal re-executes it and
                 cross-checks every journaled settlement — so the
                 committed consensus values also pin today's protocol
                 output. journal:false leaves the vector untouched. *)
              (match Dmw_exec.resume ~journal:false path with
              | Error e -> Alcotest.failf "%s: resume: %s" path e
              | Ok r ->
                  Alcotest.(check bool) (path ^ ": resume completes") true
                    (Dmw_exec.completed r.Dmw_exec.result);
                  Alcotest.(check int) (path ^ ": settlements kept") kept
                    r.Dmw_exec.kept)
          | `Serve jobs -> (
              match Dmw_serve_core.recover records with
              | Error e -> Alcotest.failf "%s: recover: %s" path e
              | Ok rc ->
                  Alcotest.(check int) (path ^ ": settlements kept") jobs
                    rc.Dmw_serve_core.kept;
                  Alcotest.(check int) (path ^ ": nothing to replay") 0
                    rc.Dmw_serve_core.replayed;
                  List.iter
                    (fun (r : Dmw_serve_core.job_result) ->
                      Alcotest.(check bool)
                        (path ^ ": job settled under consensus") true
                        (Option.is_some r.Dmw_serve_core.outcome))
                    rc.Dmw_serve_core.results)))
    [ (vector1, `Run 2); (vector2, `Run 2); (vector3, `Serve 4) ]

let () =
  Alcotest.run "crash_resume"
    [ ( "one-shot",
        [ Alcotest.test_case "kill at every record boundary, 2 backends"
            `Quick test_kill_at_every_boundary;
          Alcotest.test_case "a resumed process that dies again" `Quick
            test_double_crash;
          Alcotest.test_case "kill across a re-auction" `Quick
            test_kill_across_reauction;
          Alcotest.test_case "corrupted journals are refused" `Quick
            test_resume_rejects_corruption ] );
      ( "serve",
        [ Alcotest.test_case "kill at every epoch-journal boundary" `Quick
            test_serve_kill_at_every_boundary;
          Alcotest.test_case "recovery is re-recoverable and converges"
            `Quick test_serve_recovery_converges ] );
      ( "vectors",
        [ Alcotest.test_case "golden journals pinned byte for byte" `Quick
            test_golden_vectors ] ) ]
