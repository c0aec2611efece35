(* Cross-backend equivalence of the unified harness: the simulator
   and the socket backend must produce bit-identical schedules,
   prices, payments and abort sets for the same seed — the
   determinism contract Dmw_exec promises. *)

open Dmw_bigint
open Dmw_core

let backends ~timeout = [ Dmw_exec.sim (); Dmw_exec.socket ~timeout () ]

let abort_set (r : Dmw_exec.result) =
  Array.to_list r.Dmw_exec.statuses
  |> List.filter_map (fun (s : Dmw_exec.agent_status) ->
         Option.map (fun reason -> (s.Dmw_exec.agent, reason)) s.Dmw_exec.aborted)

let outcome_fields (r : Dmw_exec.result) =
  ( Option.map Dmw_mechanism.Schedule.assignment r.Dmw_exec.schedule,
    r.Dmw_exec.first_prices,
    r.Dmw_exec.second_prices,
    r.Dmw_exec.payments,
    abort_set r )

(* ------------------------------------------------------------------ *)
(* Property: backends agree on random valid instances                  *)

let prop_backends_agree =
  QCheck.Test.make ~count:8 ~name:"sim = socket on random instances"
    QCheck.(int_range 0 100000)
    (fun seed ->
      let g = Prng.create ~seed in
      let n = 4 + Prng.int g 3 and m = 1 + Prng.int g 2 in
      let p = Params.make_exn ~group_bits:64 ~seed:3 ~n ~m ~c:1 () in
      let bids =
        Array.init n (fun _ ->
            Array.init m (fun _ -> 1 + Prng.int g p.Params.w_max))
      in
      let results =
        List.map
          (fun backend ->
            Dmw_exec.run ~seed ~keep_events:false ~backend p ~bids)
          (backends ~timeout:20.0)
      in
      List.for_all Dmw_exec.completed results
      &&
      match List.map outcome_fields results with
      | reference :: rest -> List.for_all (( = ) reference) rest
      | [] -> false)

(* ------------------------------------------------------------------ *)
(* Property: the admission pipeline never changes the outcome          *)

(* Depth-invariance is the acceptance criterion of the pipelined
   refactor: the protocol's final state is a function of the delivered
   message set, so any admission window — from strictly sequential
   (depth 1) to everything at once (depth m) — must produce the same
   schedule, prices, payments and (fault-free) the same message and
   byte counts. Checked on the simulator at several depths and on the
   socket backend at an intermediate one. *)
let prop_pipeline_depth_invariant =
  QCheck.Test.make ~count:6 ~name:"pipeline depth never changes the outcome"
    QCheck.(int_range 0 100000)
    (fun seed ->
      let g = Prng.create ~seed in
      let n = 4 + Prng.int g 3 and m = 2 + Prng.int g 2 in
      let p = Params.make_exn ~group_bits:64 ~seed:3 ~n ~m ~c:1 () in
      let bids =
        Array.init n (fun _ ->
            Array.init m (fun _ -> 1 + Prng.int g p.Params.w_max))
      in
      let run ?backend depth =
        Dmw_exec.run ~seed ~keep_events:false ~pipeline:depth ?backend p ~bids
      in
      let counters (r : Dmw_exec.result) =
        ( Dmw_sim.Trace.messages r.Dmw_exec.trace,
          Dmw_sim.Trace.bytes r.Dmw_exec.trace )
      in
      let reference = run 1 in
      Dmw_exec.completed reference
      && reference.Dmw_exec.pipeline = 1
      && List.for_all
           (fun depth ->
             let r = run depth in
             outcome_fields r = outcome_fields reference
             && counters r = counters reference
             && r.Dmw_exec.pipeline = min depth m)
           [ 2; 4; m ]
      && outcome_fields (run ~backend:(Dmw_exec.socket ~timeout:20.0 ()) 2)
         = outcome_fields reference)

(* Under a nonzero latency model the virtual clock makes the pipeline
   visible: depth m overlaps the auctions (provably, via the obs span
   tree) and finishes strictly earlier than depth 1, while the outcome
   stays bit-identical. All deterministic — the simulator's clock is
   virtual. *)
let test_pipeline_overlap () =
  let p = Params.make_exn ~group_bits:64 ~seed:3 ~n:5 ~m:4 ~c:1 () in
  let bids =
    [| [| 3; 2; 1; 2 |]; [| 1; 3; 2; 3 |]; [| 3; 3; 3; 1 |];
       [| 2; 1; 3; 2 |]; [| 3; 2; 2; 3 |] |]
  in
  (* n + 1 nodes: the payment infrastructure is endpoint n. *)
  let latency = Dmw_sim.Latency.uniform ~seed:1 ~n:6 ~lo:0.001 ~hi:0.002 in
  let run depth =
    Dmw_obs.Span.reset ();
    let r =
      Dmw_exec.run ~seed:7 ~keep_events:false ~pipeline:depth
        ~backend:(Dmw_exec.sim ~latency ())
        p ~bids
    in
    let auctions =
      List.filter
        (fun s -> s.Dmw_obs.Span.name = "task auction")
        (Dmw_obs.Span.completed ())
    in
    (r, Dmw_obs.Span.max_concurrency auctions)
  in
  Dmw_obs.Metrics.enable ();
  let sequential, seq_depth = run 1 in
  let pipelined, pipe_depth = run 4 in
  Dmw_obs.Metrics.disable ();
  Alcotest.(check bool) "sequential completed" true
    (Dmw_exec.completed sequential);
  Alcotest.(check bool) "identical outcome" true
    (outcome_fields sequential = outcome_fields pipelined);
  Alcotest.(check int) "depth 1 spans do not overlap" 1 seq_depth;
  Alcotest.(check bool) "depth 4 spans overlap" true (pipe_depth >= 2);
  Alcotest.(check bool) "pipelining is faster under latency" true
    (pipelined.Dmw_exec.duration < sequential.Dmw_exec.duration)

(* ------------------------------------------------------------------ *)
(* Fixed-instance checks for the socket backend                        *)

let params = Params.make_exn ~group_bits:64 ~seed:3 ~n:5 ~m:2 ~c:1 ()
let bids = [| [| 3; 2 |]; [| 1; 3 |]; [| 3; 3 |]; [| 2; 1 |]; [| 3; 2 |] |]

let test_socket_matches_simulated () =
  let sim = Dmw_exec.run ~seed:7 params ~bids ~keep_events:false in
  let sock =
    Dmw_exec.run ~seed:7 params ~bids ~keep_events:false
      ~backend:(Dmw_exec.socket ~timeout:20.0 ())
  in
  Alcotest.(check bool) "sim completed" true (Dmw_exec.completed sim);
  Alcotest.(check bool) "socket completed" true (Dmw_exec.completed sock);
  Alcotest.(check string) "backend name" "socket" sock.Dmw_exec.backend;
  Alcotest.(check bool) "identical outcome" true
    (outcome_fields sim = outcome_fields sock);
  (* Every protocol message crossed the wire: the socket trace counts
     the same sends the simulator's cost model counts, modulo extra
     fallback-round disclosures real time may add. *)
  Alcotest.(check bool) "trace recorded" true
    (Dmw_sim.Trace.messages sock.Dmw_exec.trace
    >= Dmw_sim.Trace.messages sim.Dmw_exec.trace)

let test_socket_detects_deviation () =
  let r =
    Dmw_exec.run ~seed:7 params ~bids ~keep_events:false
      ~backend:(Dmw_exec.socket ~timeout:5.0 ())
      ~strategies:(fun i ->
        if i = 2 then Strategy.Corrupt_commitments else Strategy.Suggested)
  in
  Alcotest.(check bool) "not completed" false (Dmw_exec.completed r);
  Alcotest.(check bool) "blamed dealer 2" true
    (Array.exists
       (fun (s : Dmw_exec.agent_status) ->
         match s.Dmw_exec.aborted with
         | Some (Audit.Bad_share { dealer }) -> dealer = 2
         | _ -> false)
       r.Dmw_exec.statuses)

let test_socket_disclosure_fallback () =
  (* Withheld disclosures exercise the real-time timeout rounds over
     actual sockets; the run must still complete with the honest
     outcome. *)
  let sim = Dmw_exec.run ~seed:7 params ~bids ~keep_events:false in
  let r =
    Dmw_exec.run ~seed:7 params ~bids ~keep_events:false
      ~backend:(Dmw_exec.socket ~timeout:15.0 ())
      ~strategies:(fun i ->
        if i = 0 then Strategy.Withhold_disclosure else Strategy.Suggested)
  in
  Alcotest.(check bool) "completed despite withholding" true (Dmw_exec.completed r);
  match (sim.Dmw_exec.schedule, r.Dmw_exec.schedule) with
  | Some a, Some b ->
      Alcotest.(check bool) "honest schedule" true (Dmw_mechanism.Schedule.equal a b)
  | _ -> Alcotest.fail "missing schedule"

let run_socket ?batching ?hardened () =
  Dmw_exec.run ?batching ?hardened ~seed:7 params ~bids ~keep_events:false
    ~backend:(Dmw_exec.socket ~timeout:20.0 ())

let test_socket_outcome_stable_across_runs () =
  (* Interleavings differ run to run; outcomes must not. *)
  match List.init 3 (fun _ -> run_socket ()) with
  | first :: rest ->
      List.iter
        (fun r ->
          Alcotest.(check bool) "completed" true (Dmw_exec.completed r);
          Alcotest.(check bool) "stable outcome" true
            (outcome_fields r = outcome_fields first))
        rest
  | [] -> Alcotest.fail "no runs"

let test_socket_batching_parity () =
  (* ~batching must produce the plain outcome over sockets too, and
     actually batch (fewer recorded envelopes). *)
  let plain = run_socket () in
  let batched = run_socket ~batching:true () in
  Alcotest.(check bool) "both completed" true
    (Dmw_exec.completed plain && Dmw_exec.completed batched);
  Alcotest.(check bool) "batched vs plain" true
    (outcome_fields batched = outcome_fields plain);
  Alcotest.(check bool) "fewer envelopes" true
    (Dmw_sim.Trace.messages batched.Dmw_exec.trace
    < Dmw_sim.Trace.messages plain.Dmw_exec.trace)

let test_socket_hardened_parity () =
  let hardened = run_socket ~hardened:true () in
  let sim = Dmw_exec.run ~seed:7 params ~bids ~keep_events:false in
  Alcotest.(check bool) "completed" true (Dmw_exec.completed hardened);
  Alcotest.(check bool) "hardened vs sim" true
    (outcome_fields hardened = outcome_fields sim)

(* ------------------------------------------------------------------ *)
(* Fault parity: the determinism contract extends to adverse
   environments — the same seed and fault schedule produce identical
   outcomes, including the abort reasons, on every backend. *)

let fault_schedules =
  [ ("lossy", Dmw_sim.Fault.drop_random ~probability:0.15);
    ("lossy+slow+dup",
     Dmw_sim.Fault.all
       [ Dmw_sim.Fault.drop_random ~probability:0.1;
         Dmw_sim.Fault.delay_random ~probability:0.4 ~delay:0.03;
         Dmw_sim.Fault.duplicate_random ~probability:0.3 ]);
    ("silenced resolver",
     Dmw_sim.Fault.silence_from ~node:2
       ~phase:Dmw_sim.Fault.phase_resolution);
    ("cut link",
     Dmw_sim.Fault.all
       [ Dmw_sim.Fault.drop_link ~src:1 ~dst:3;
         Dmw_sim.Fault.drop_link ~src:3 ~dst:1 ]) ]

let test_fault_parity () =
  List.iter
    (fun (label, faults) ->
      let results =
        List.map
          (fun backend ->
            Dmw_exec.run ~seed:7 ~keep_events:false ~faults ~backend params
              ~bids)
          (backends ~timeout:20.0)
      in
      (match List.map outcome_fields results with
      | reference :: rest ->
          List.iteri
            (fun i fields ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: backend %d matches sim" label (i + 1))
                true (fields = reference))
            rest
      | [] -> Alcotest.fail "no results");
      (* Every run terminated in a decided state: consensus or a clean
         audited abort on some agent — never silence. *)
      List.iter
        (fun (r : Dmw_exec.result) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s decided" label r.Dmw_exec.backend)
            true
            (Dmw_exec.completed r || abort_set r <> []))
        results)
    fault_schedules

(* Regression (found by test_chaos.ml, seed 0xC4A05 schedule 39): in
   real time a delay fault can make a discloser's f row overtake its
   own delayed (Λ, Ψ) publication on one link; the row used to be
   discarded as unverifiable, starving the receiver until its watchdog
   blamed the innocent discloser — a spurious abort the virtual-clock
   sim never reproduced. The agent now parks the early row until the
   pair lands. The race fired on ~4 of 5 runs before the fix, so a
   handful of trials pins it reliably. *)
let test_delayed_publication_reordering () =
  let p = Params.make_exn ~group_bits:64 ~seed:3 ~n:4 ~m:1 ~c:1 () in
  let bids = [| [| 2 |]; [| 1 |]; [| 2 |]; [| 2 |] |] in
  let faults = Dmw_sim.Fault.delay_random ~probability:0.186861 ~delay:0.0392512 in
  for trial = 1 to 5 do
    let r =
      Dmw_exec.run ~seed:5782 ~keep_events:false ~faults ~watchdog:0.12
        ~backend:(Dmw_exec.socket ~timeout:10.0 ())
        p ~bids
    in
    Alcotest.(check bool)
      (Printf.sprintf "trial %d completed" trial)
      true (Dmw_exec.completed r);
    Alcotest.(check bool)
      (Printf.sprintf "trial %d no spurious aborts" trial)
      true
      (abort_set r = [])
  done

let () =
  Alcotest.run "dmw_exec"
    [ ("cross-backend",
       [ QCheck_alcotest.to_alcotest ~long:true prop_backends_agree;
         QCheck_alcotest.to_alcotest ~long:true prop_pipeline_depth_invariant;
         Alcotest.test_case "pipeline overlap under latency" `Quick
           test_pipeline_overlap;
         Alcotest.test_case "socket matches simulator" `Quick
           test_socket_matches_simulated;
         Alcotest.test_case "socket detects deviation" `Quick
           test_socket_detects_deviation;
         Alcotest.test_case "socket disclosure fallback" `Slow
           test_socket_disclosure_fallback;
         Alcotest.test_case "stable across interleavings" `Slow
           test_socket_outcome_stable_across_runs;
         Alcotest.test_case "batching parity" `Slow test_socket_batching_parity;
         Alcotest.test_case "hardened parity" `Slow
           test_socket_hardened_parity;
         Alcotest.test_case "fault parity across backends" `Slow
           test_fault_parity;
         Alcotest.test_case "delayed publication reordering (regression)"
           `Quick test_delayed_publication_reordering ]) ]
