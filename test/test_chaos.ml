(* Deterministic chaos harness: the headline test of the fault layer.

   Each iteration derives a random fault schedule and a run seed from
   one master chaos seed, executes the same auction under that
   schedule on sim and socket, and checks the two invariants the
   execution harness promises:

   - consensus-or-clean-degradation: every run either reaches the
     bit-identical outcome of the fault-free reference run, ends in a
     clean audited abort (Audit.Peer_silent / Deadline_exceeded /
     Stalled), or resolves the reference schedule and prices with
     payments withheld because the n − c payment quorum was silenced —
     never a hang, never a wrong price;

   - cross-backend determinism: the same seed and schedule produce the
     same outcome signature (completion, schedule, prices, payments,
     per-agent abort reasons) on sim and socket, because fault coins
     are pure functions of message identity.

   The schedule count and master seed are overridable via CHAOS_COUNT
   and CHAOS_SEED so the CI chaos job can pin its three seeds; a
   failing schedule is appended to chaos-artifacts/failures.txt in
   Fault.of_string syntax so the job can upload it for replay. *)

open Dmw_bigint
open Dmw_core
module Fault = Dmw_sim.Fault

let env_int name default =
  match int_of_string_opt (try Sys.getenv name with Not_found -> "") with
  | Some v -> v
  | None -> default

let chaos_count = env_int "CHAOS_COUNT" 200
let chaos_seed = env_int "CHAOS_SEED" 0xC4A05

(* Small instance so a schedule runs in milliseconds; 64-bit group
   keeps the crypto cheap without touching the protocol logic. *)
let params = Params.make_exn ~group_bits:64 ~seed:3 ~n:4 ~m:1 ~c:1 ()
let bids = [| [| 2 |]; [| 1 |]; [| 2 |]; [| 2 |] |]
let watchdog = 0.12
let backend_timeout = 10.0

(* ------------------------------------------------------------------ *)
(* Random fault schedules                                              *)
(* ------------------------------------------------------------------ *)

(* Drawn from one Prng per iteration, so iteration [i] of a given
   master seed is always the same schedule, independent of the
   others. Delays are kept well inside the watchdog's idle window
   (4 × period) so that virtual-time and wall-clock backends see the
   same liveness picture; crash_at is deliberately absent — it keys on
   elapsed time, which is not portable across clocks (silence_from is
   the portable crash model). *)
let random_term g =
  match Prng.int g 6 with
  | 0 -> Fault.drop_random ~probability:(0.25 *. Prng.float g)
  | 1 ->
      Fault.delay_random
        ~probability:(0.5 *. Prng.float g)
        ~delay:(0.04 *. Prng.float g)
  | 2 -> Fault.duplicate_random ~probability:(0.5 *. Prng.float g)
  | 3 ->
      let node = Prng.int g params.Params.n in
      let phase = 1 + Prng.int g 5 in
      Fault.silence_from ~node ~phase
  | 4 ->
      let src = Prng.int g params.Params.n in
      let dst = (src + 1 + Prng.int g (params.Params.n - 1)) mod params.Params.n in
      Fault.drop_link ~src ~dst
  | _ ->
      let node = Prng.int g params.Params.n in
      let tag =
        [| "share"; "commitments"; "lambda_psi"; "f_disclosure";
           "lambda_psi_excl"; "payment_report" |].(Prng.int g 6)
      in
      Fault.drop_tagged ~node ~tag

let random_schedule i =
  let g = Prng.create ~seed:(chaos_seed + (31 * i)) in
  let terms = 1 + Prng.int g 3 in
  let spec =
    match List.init terms (fun _ -> random_term g) with
    | [ t ] -> t
    | ts -> Fault.all ts
  in
  (spec, 1000 + Prng.int g 100000)

(* ------------------------------------------------------------------ *)
(* Outcome signatures                                                  *)
(* ------------------------------------------------------------------ *)

(* Everything that must agree across backends. Traces and durations
   are excluded by design: socket's agent timers run in real time, so
   when they fire early they add messages that sim does not send. *)
let signature (r : Dmw_exec.result) =
  let b = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer b in
  Format.fprintf fmt "completed=%b attempts=%d excluded=[%s]@,"
    (Dmw_exec.completed r) r.Dmw_exec.attempts
    (String.concat ";"
       (Array.to_list (Array.map string_of_int r.Dmw_exec.excluded)));
  (match r.Dmw_exec.schedule with
  | Some s ->
      Format.fprintf fmt "schedule=[%s]@,"
        (String.concat ";"
           (Array.to_list
              (Array.map string_of_int (Dmw_mechanism.Schedule.assignment s))))
  | None -> Format.fprintf fmt "schedule=none@,");
  let prices label = function
    | Some p ->
        Format.fprintf fmt "%s=[%s]@," label
          (String.concat ";" (Array.to_list (Array.map string_of_int p)))
    | None -> Format.fprintf fmt "%s=none@," label
  in
  prices "y*" r.Dmw_exec.first_prices;
  prices "y**" r.Dmw_exec.second_prices;
  Array.iteri
    (fun i p ->
      match p with
      | Some v -> Format.fprintf fmt "pay%d=%h@," i v
      | None -> Format.fprintf fmt "pay%d=none@," i)
    r.Dmw_exec.payments;
  Array.iter
    (fun (s : Dmw_exec.agent_status) ->
      match s.aborted with
      | Some reason ->
          Format.fprintf fmt "abort%d=%a@," s.agent Audit.pp_reason reason
      | None -> ())
    r.Dmw_exec.statuses;
  Format.pp_print_flush fmt ();
  Buffer.contents b

let clean_abort (r : Dmw_exec.result) =
  Array.exists
    (fun (s : Dmw_exec.agent_status) ->
      match s.aborted with
      | Some (Audit.Peer_silent _ | Audit.Deadline_exceeded _ | Audit.Stalled _)
        ->
          true
      | Some _ | None -> false)
    r.Dmw_exec.statuses

(* ------------------------------------------------------------------ *)
(* Failure artifacts                                                   *)
(* ------------------------------------------------------------------ *)

let record_failure ~iteration ~spec ~seed ~detail =
  let dir = "chaos-artifacts" in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let oc =
    open_out_gen [ Open_append; Open_creat ] 0o644
      (Filename.concat dir "failures.txt")
  in
  Printf.fprintf oc "iteration=%d seed=%d faults=%s\n%s\n---\n" iteration seed
    (Fault.to_string spec) detail;
  close_out oc

(* ------------------------------------------------------------------ *)
(* The suite                                                           *)
(* ------------------------------------------------------------------ *)

let reference = Dmw_exec.run ~seed:0 params ~bids

let () =
  assert (Dmw_exec.completed reference);
  assert (reference.Dmw_exec.first_prices <> None)

let run_backend ~spec ~seed backend =
  Dmw_exec.run ~seed ~faults:spec ~watchdog ~backend params ~bids

(* Consensus means agreeing with the reference's protocol outcome
   (allocation and prices; payments differ only through which reports
   survive, and the signature comparison across backends pins those). *)
let consensus_matches_reference (r : Dmw_exec.result) =
  match (r.Dmw_exec.schedule, reference.Dmw_exec.schedule) with
  | Some s, Some s_ref ->
      Dmw_mechanism.Schedule.equal s s_ref
      && r.Dmw_exec.first_prices = reference.Dmw_exec.first_prices
      && r.Dmw_exec.second_prices = reference.Dmw_exec.second_prices
  | _ -> false

(* The third legitimate terminal state: the auction resolved with the
   reference schedule and prices, but the payment quorum of n − c
   matching reports was never assembled (the fault schedule silenced
   the reporters after resolution), so the infrastructure withholds
   payments. Decided and safe — no hang, no wrong price — and any
   payment that WAS issued must be the reference one. *)
let withheld_payments (r : Dmw_exec.result) =
  consensus_matches_reference r
  && Array.for_all2
       (fun issued expected ->
         match issued with Some v -> Some v = expected | None -> true)
       r.Dmw_exec.payments reference.Dmw_exec.payments

let check_schedule ~iteration ~spec ~seed =
  let started = Unix.gettimeofday () in
  let sim_r = run_backend ~spec ~seed (Dmw_exec.sim ()) in
  let sock_r =
    run_backend ~spec ~seed (Dmw_exec.socket ~timeout:backend_timeout ())
  in
  let elapsed = Unix.gettimeofday () -. started in
  let fail detail =
    record_failure ~iteration ~spec ~seed ~detail;
    Alcotest.failf "schedule %d (faults=%s seed=%d): %s" iteration
      (Fault.to_string spec) seed detail
  in
  (* Never a hang: both runs returned well inside the backend timeout
     budget (one real-time backend plus slack). *)
  if elapsed >= backend_timeout +. 5.0 then
    fail (Printf.sprintf "wall-clock %.1fs suggests a hang" elapsed);
  (* Consensus-or-clean-abort, on every backend. *)
  List.iter
    (fun (r : Dmw_exec.result) ->
      if Dmw_exec.completed r then begin
        if not (consensus_matches_reference r) then
          fail
            (Printf.sprintf "%s completed with a non-reference outcome:\n%s"
               r.Dmw_exec.backend (signature r))
      end
      else if not (clean_abort r || withheld_payments r) then
        fail
          (Printf.sprintf
             "%s neither completed, cleanly aborted, nor withheld payments \
              on the reference outcome:\n%s"
             r.Dmw_exec.backend (signature r)))
    [ sim_r; sock_r ];
  (* Bit-identical outcomes across backends. *)
  let s_sim = signature sim_r in
  let s_sock = signature sock_r in
  if not (String.equal s_sim s_sock) then
    fail (Printf.sprintf "sim/socket diverge:\n%s\nvs\n%s" s_sim s_sock)

let test_chaos_sweep () =
  let completed = ref 0 in
  let withheld = ref 0 in
  let aborted = ref 0 in
  for i = 0 to chaos_count - 1 do
    let spec, seed = random_schedule i in
    check_schedule ~iteration:i ~spec ~seed;
    let r = run_backend ~spec ~seed (Dmw_exec.sim ()) in
    if Dmw_exec.completed r then incr completed
    else if withheld_payments r then incr withheld
    else incr aborted
  done;
  (* The sweep must exercise both regimes, or the invariants above
     were vacuous. Only meaningful for a real sweep: a handful of
     schedules (a CHAOS_COUNT smoke run) can legitimately land all on
     one side. *)
  if chaos_count >= 20 then
    Alcotest.(check bool)
      (Printf.sprintf "saw completions (%d), aborts (%d), withheld (%d)"
         !completed !aborted !withheld)
      true
      (!completed > 0 && !aborted > 0)
  else
    Printf.printf "sweep: %d completed, %d cleanly aborted, %d withheld\n%!"
      !completed !aborted !withheld

(* ------------------------------------------------------------------ *)
(* Crash + faults in the same schedule                                 *)
(* ------------------------------------------------------------------ *)

(* The durability layer composed with the fault matrix: the same
   random schedules, but the run journals into a write-ahead log and
   the process is "killed" at a schedule-derived record boundary (the
   journal truncated to that prefix). Resume reconstructs the fault
   policy from the journaled header and must land on the bit-identical
   outcome signature — message-level chaos and crash recovery compose,
   they don't interfere. *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let wal_magic_len = 8

(* Record boundaries (byte offsets of record ends), parsed straight
   off the u32 length fields of the WAL framing. *)
let wal_boundaries img =
  let rec go pos acc =
    if pos + 8 > String.length img then List.rev acc
    else
      let len = Int32.to_int (String.get_int32_be img pos) in
      let next = pos + 8 + len in
      if len < 0 || next > String.length img then List.rev acc
      else go next (next :: acc)
  in
  go wal_magic_len []

let crash_iterations = 15

let test_crash_during_faults () =
  for i = 0 to crash_iterations - 1 do
    let spec, seed = random_schedule i in
    let path = Filename.temp_file "dmw_chaos_" ".wal" in
    let w = Dmw_wal.create path in
    let r0 =
      Dmw_exec.run ~seed ~faults:spec ~watchdog ~keep_events:false ~wal:w
        params ~bids
    in
    Dmw_wal.close w;
    let reference = signature r0 in
    let img = read_file path in
    let cuts = wal_boundaries img in
    Alcotest.(check bool)
      (Printf.sprintf "iteration %d journaled checkpoints" i)
      true
      (cuts <> []);
    (* The kill point is itself derived from the chaos seed, so every
       iteration of a given master seed replays the same crash. *)
    let g = Prng.create ~seed:(chaos_seed + (77 * i)) in
    let cut = List.nth cuts (Prng.int g (List.length cuts)) in
    write_file path (String.sub img 0 cut);
    (match Dmw_exec.resume path with
    | Error e ->
        Alcotest.failf
          "iteration %d (faults=%s seed=%d), killed at byte %d: resume \
           refused: %s"
          i (Fault.to_string spec) seed cut e
    | Ok { Dmw_exec.result; _ } ->
        let resumed = signature result in
        if not (String.equal reference resumed) then begin
          record_failure ~iteration:i ~spec ~seed
            ~detail:
              (Printf.sprintf
                 "crash at byte %d diverged after resume:\n%s\nvs\n%s" cut
                 reference resumed);
          Alcotest.failf "iteration %d: resumed signature diverges" i
        end);
    Sys.remove path
  done

let test_replay_is_bit_identical () =
  (* Same iteration, run twice: byte-equal signatures, including the
     fault coins. *)
  for i = 0 to min 10 (chaos_count - 1) do
    let spec, seed = random_schedule i in
    let a = run_backend ~spec ~seed (Dmw_exec.sim ()) in
    let b = run_backend ~spec ~seed (Dmw_exec.sim ()) in
    Alcotest.(check string)
      (Printf.sprintf "replay %d" i)
      (signature a) (signature b)
  done

let () =
  Alcotest.run "dmw_chaos"
    [ ("chaos",
       [ Alcotest.test_case
           (Printf.sprintf "%d schedules x 2 backends" chaos_count)
           `Slow test_chaos_sweep;
         Alcotest.test_case "replay determinism" `Quick
           test_replay_is_bit_identical;
         Alcotest.test_case
           (Printf.sprintf "crash+resume under %d fault schedules"
              crash_iterations)
           `Quick test_crash_during_faults ]) ]
