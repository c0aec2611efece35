(* Replay regression: the dynamic pin of what dmw_det proves
   statically — every recorded outcome is a pure function of
   (seed, params, bids). Each property executes the same instance
   twice and demands a bit-identical signature *including* the
   message/byte accounting that the chaos-era signatures deliberately
   exclude; a divergence here means a wall clock, hash order or
   ambient randomness crossed the determinism boundary dmw_det
   patrols. The serve property replays a whole multi-epoch job stream
   across two independent service instances, exercising the epoch
   seed chain [seed + 7919*(e-1)] end to end. *)

open Dmw_bigint
open Dmw_core
module Trace = Dmw_sim.Trace

(* ------------------------------------------------------------------ *)
(* One-shot runs: two executions, one signature                        *)
(* ------------------------------------------------------------------ *)

let signature (r : Dmw_exec.result) =
  ( Option.map Dmw_mechanism.Schedule.assignment r.Dmw_exec.schedule,
    r.Dmw_exec.first_prices,
    r.Dmw_exec.second_prices,
    r.Dmw_exec.payments,
    Array.map
      (fun (s : Dmw_exec.agent_status) -> (s.Dmw_exec.agent, s.Dmw_exec.aborted))
      r.Dmw_exec.statuses,
    (r.Dmw_exec.attempts, r.Dmw_exec.excluded),
    (Trace.messages r.Dmw_exec.trace, Trace.bytes r.Dmw_exec.trace),
    Trace.messages_by_tag r.Dmw_exec.trace )

let prop_replay =
  QCheck.Test.make ~count:4
    ~name:"same (seed, params, bids) replays bit-identically per backend"
    QCheck.(int_range 0 100000)
    (fun seed ->
      let g = Prng.create ~seed in
      let n = 4 + Prng.int g 2 and m = 1 + Prng.int g 2 in
      let p = Params.make_exn ~group_bits:64 ~seed:3 ~n ~m ~c:1 () in
      let bids =
        Array.init n (fun _ ->
            Array.init m (fun _ -> 1 + Prng.int g p.Params.w_max))
      in
      List.for_all
        (fun mk ->
          let run () =
            Dmw_exec.run ~seed ~keep_events:false ~backend:(mk ()) p ~bids
          in
          signature (run ()) = signature (run ()))
        [ (fun () -> Dmw_exec.sim ());
          (fun () -> Dmw_exec.socket ~timeout:20.0 ()) ])

(* ------------------------------------------------------------------ *)
(* Service runs: two instances, one job stream, one history            *)
(* ------------------------------------------------------------------ *)

let job_key (r : Dmw_serve_core.job_result) =
  (r.Dmw_serve_core.job, r.Dmw_serve_core.epoch, r.Dmw_serve_core.task,
   r.Dmw_serve_core.outcome, r.Dmw_serve_core.error)

(* Boot a paused service, queue the whole stream, release it, and
   record every job's settlement plus the epoch accounting. max_wave 2
   against 4 jobs forces at least two epochs, so the replay covers the
   epoch seed chain, not just the first wave. *)
let serve_round ~seed jobs =
  let cfg = Dmw_serve_core.config ~seed ~n:5 ~c:1 ~w_max:3 ~max_wave:2 () in
  let t = Dmw_serve_core.create ~paused:true cfg in
  let ids =
    List.map
      (fun bids ->
        match Dmw_serve_core.submit t ~bids with
        | `Accepted id -> id
        | `Busy | `Closed | `Invalid _ -> Alcotest.fail "submit rejected")
      jobs
  in
  Dmw_serve_core.resume t;
  let results =
    List.map (fun id -> Option.map job_key (Dmw_serve_core.await t id)) ids
  in
  let s = Dmw_serve_core.stats t in
  Dmw_serve_core.shutdown t;
  (results, s.Dmw_serve_core.epochs, s.Dmw_serve_core.jobs)

let prop_serve_replay =
  QCheck.Test.make ~count:3
    ~name:"serve epochs replay bit-identically across instances"
    QCheck.(int_range 0 100000)
    (fun seed ->
      let g = Prng.create ~seed in
      let jobs =
        List.init 4 (fun _ -> Array.init 5 (fun _ -> 1 + Prng.int g 3))
      in
      let results, epochs, jobs_done = serve_round ~seed jobs in
      let results', epochs', jobs_done' = serve_round ~seed jobs in
      epochs >= 2 && jobs_done = 4
      && (results, epochs, jobs_done) = (results', epochs', jobs_done'))

(* ------------------------------------------------------------------ *)
(* Crash-resume as a determinism property                              *)
(* ------------------------------------------------------------------ *)

(* The WAL closes the loop on the two properties above: for a random
   instance, a run interrupted at *every* record boundary of its
   journal and resumed must land on the full signature of the
   uninterrupted run. The exhaustive fixed-instance sweep lives in
   test_crash_resume; this one re-rolls the instance itself. *)
let prop_resume_replay =
  QCheck.Test.make ~count:2
    ~name:"resume from any journal prefix replays bit-identically"
    QCheck.(int_range 0 100000)
    (fun seed ->
      let g = Prng.create ~seed in
      let n = 4 + Prng.int g 2 and m = 1 + Prng.int g 2 in
      let p = Params.make_exn ~group_bits:64 ~seed:3 ~n ~m ~c:1 () in
      let bids =
        Array.init n (fun _ ->
            Array.init m (fun _ -> 1 + Prng.int g p.Params.w_max))
      in
      let path = Filename.temp_file "dmw_replay_" ".wal" in
      let w = Dmw_wal.create path in
      let r0 = Dmw_exec.run ~seed ~keep_events:false ~wal:w p ~bids in
      Dmw_wal.close w;
      let img =
        let ic = open_in_bin path in
        let s = really_input_string ic (in_channel_length ic) in
        close_in ic;
        s
      in
      let rec cuts pos acc =
        if pos + 8 > String.length img then List.rev acc
        else
          let len = Int32.to_int (String.get_int32_be img pos) in
          let next = pos + 8 + len in
          if len < 0 || next > String.length img then List.rev acc
          else cuts next (next :: acc)
      in
      let ok =
        List.for_all
          (fun cut ->
            let oc = open_out_bin path in
            output_string oc (String.sub img 0 cut);
            close_out oc;
            match Dmw_exec.resume ~journal:false path with
            | Error _ -> false
            | Ok r -> signature r.Dmw_exec.result = signature r0)
          (cuts 8 [])
      in
      Sys.remove path;
      ok)

let () =
  Alcotest.run "replay"
    [ ( "determinism",
        [ QCheck_alcotest.to_alcotest prop_replay;
          QCheck_alcotest.to_alcotest prop_serve_replay;
          QCheck_alcotest.to_alcotest prop_resume_replay ] ) ]
