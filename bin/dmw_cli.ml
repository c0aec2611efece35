(* dmw — command-line driver for the Distributed MinWork mechanism.

   Subcommands:
     run     execute DMW on a generated or user-supplied instance
     sweep   communication/computation scaling sweeps (Table 1)
     attack  coalition privacy attack (Theorem 10)
     trace   message sequence of one auction (Fig. 2)
     submit  send jobs to a running dmw_serve daemon
     group   inspect or generate Schnorr group parameters *)

open Cmdliner
open Dmw_bigint
open Dmw_core

let setup_logs verbose =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

(* ------------------------------------------------------------------ *)
(* Shared options                                                      *)

let n_arg =
  Arg.(value & opt int 6 & info [ "n"; "agents" ] ~docv:"N" ~doc:"Number of agents (machines).")

let m_arg =
  Arg.(value & opt int 2 & info [ "m"; "tasks" ] ~docv:"M" ~doc:"Number of tasks.")

let c_arg =
  Arg.(value & opt int 1 & info [ "c"; "faulty" ] ~docv:"C" ~doc:"Maximum number of faulty agents tolerated.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed (runs are deterministic per seed).")

let bits_arg =
  Arg.(value & opt int 64 & info [ "group-bits" ] ~docv:"BITS"
         ~doc:"Schnorr group size: one of 16, 32, 64, 96, 128, 256, 512.")

let make_params ?w_max ~group_bits ~seed ~n ~m ~c () =
  match Params.make ?w_max ~group_bits ~seed ~n ~m ~c () with
  | Ok p -> p
  | Error msg ->
      Printf.eprintf "invalid parameters: %s\n" msg;
      exit 2

(* ------------------------------------------------------------------ *)
(* run                                                                 *)

let workload_conv =
  Arg.enum
    [ ("uniform", `Uniform); ("correlated", `Correlated);
      ("cluster", `Cluster); ("adversarial", `Adversarial) ]

let strategy_conv =
  Arg.enum
    [ ("suggested", Strategy.Suggested);
      ("corrupt-share", Strategy.Corrupt_share_to 0);
      ("withhold-share", Strategy.Withhold_share_from 0);
      ("withhold-commitments", Strategy.Withhold_commitments);
      ("corrupt-commitments", Strategy.Corrupt_commitments);
      ("wrong-lambda", Strategy.Wrong_lambda);
      ("crash", Strategy.Crash_after_bidding);
      ("withhold-disclosure", Strategy.Withhold_disclosure);
      ("over-disclose", Strategy.Over_disclose);
      ("corrupt-disclosure", Strategy.Corrupt_disclosure);
      ("swap-disclosure", Strategy.Swap_disclosure);
      ("wrong-lambda-excl", Strategy.Wrong_lambda_excl);
      ("inflate-payment", Strategy.Inflate_payment 10.0) ]

let generate_instance kind rng ~n ~m =
  match kind with
  | `Uniform -> Dmw_workload.Workload.uniform_unrelated rng ~n ~m ~lo:1.0 ~hi:10.0
  | `Correlated -> Dmw_workload.Workload.machine_correlated rng ~n ~m
  | `Cluster ->
      Dmw_workload.Workload.heterogeneous_cluster rng ~n ~m
        ~specialists:(max 1 (n / 4))
  | `Adversarial -> Dmw_workload.Workload.adversarial_minwork ~n ~m

let run_cmd =
  let workload =
    Arg.(value & opt workload_conv `Uniform
         & info [ "workload" ] ~docv:"KIND"
             ~doc:"Instance generator: uniform | correlated | cluster | adversarial.")
  in
  let deviant =
    Arg.(value & opt (some int) None
         & info [ "deviant" ] ~docv:"AGENT" ~doc:"Index of a deviating agent (0-based).")
  in
  let strategy =
    Arg.(value & opt strategy_conv Strategy.Suggested
         & info [ "strategy" ] ~docv:"STRATEGY"
             ~doc:"Deviation played by the deviating agent.")
  in
  let quiet =
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Only print the outcome summary.")
  in
  let batching =
    Arg.(value & flag
         & info [ "batching" ]
             ~doc:"Pack each step's messages per destination into one envelope.")
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log protocol phase transitions.")
  in
  let backend =
    Arg.(value & opt (enum [ ("sim", `Sim); ("socket", `Socket) ]) `Sim
         & info [ "backend" ] ~docv:"BACKEND"
             ~doc:"Execution backend: sim (discrete-event simulator) or \
                   socket (agents as endpoints over Unix-domain sockets).")
  in
  let timeout =
    Arg.(value & opt float 30.0
         & info [ "timeout" ] ~docv:"SECONDS"
             ~doc:"Wall-clock deadline for the socket backend.")
  in
  let hardened =
    Arg.(value & flag
         & info [ "hardened" ]
             ~doc:"Per-entry-verified disclosures (closes the eq. 13 sum gap).")
  in
  let faults_conv =
    let parse s =
      match Dmw_sim.Fault.of_string s with
      | Ok f -> Ok f
      | Error e -> Error (`Msg (Printf.sprintf "invalid fault spec %S: %s" s e))
    in
    Arg.conv (parse, Dmw_sim.Fault.pp)
  in
  let faults =
    Arg.(value & opt (some faults_conv) None
         & info [ "faults" ] ~docv:"SPEC"
             ~doc:"Inject an adverse environment: a comma-separated list of \
                   drop=P, delay=P:SECONDS, dup=P, link=SRC-DST, \
                   tag=NODE:TAG, silence=NODE\\@PHASE, crash=NODE\\@TIME \
                   terms. Arms per-agent crash detection, so the run ends \
                   in a clean audited abort instead of hanging. Cannot be \
                   combined with $(b,--batching).")
  in
  let retries =
    Arg.(value & opt int 0
         & info [ "retries" ] ~docv:"K"
             ~doc:"Re-auction among the survivors up to K times after an \
                   environmental abort names silent peers.")
  in
  let w_max =
    Arg.(value & opt (some int) None
         & info [ "w-max" ] ~docv:"W"
             ~doc:"Largest bid level (default n - c - 1, the maximum). A \
                   smaller range buys crash headroom: resolutions need only \
                   sigma = W + c + 1 shares, so re-auctioning can shed \
                   silent agents and still complete.")
  in
  let metrics =
    Arg.(value & opt (some string) None
         & info [ "metrics" ] ~docv:"PATH"
             ~doc:"Enable observability and write a run report to PATH: \
                   Prometheus text when PATH ends in .prom, JSON-lines \
                   otherwise (counters, gauges, histograms, then the \
                   run > auction > phase span tree).")
  in
  let pipeline =
    Arg.(value & opt (some int) None
         & info [ "pipeline" ] ~docv:"DEPTH"
             ~doc:"Admission-window depth of the per-task auction \
                   pipeline: at most DEPTH auctions are in flight per \
                   agent at once. 1 runs the tasks strictly one after \
                   another; the default (m) starts them all together. \
                   Outcomes and message counts are depth-invariant — \
                   only latency changes.")
  in
  let run n m c seed group_bits workload deviant strategy quiet batching verbose
      backend timeout hardened faults retries w_max metrics pipeline wal_path
      resume =
    setup_logs verbose;
    let backend =
      match backend with
      | `Sim -> Dmw_exec.sim ()
      | `Socket -> Dmw_exec.socket ~timeout ()
    in
    if Option.is_some metrics then Dmw_obs.Metrics.enable ();
    if resume then begin
      match wal_path with
      | None ->
          Format.eprintf "--resume requires --wal PATH@.";
          2
      | Some path -> (
          match Dmw_exec.resume ~backend path with
          | Error e ->
              Format.eprintf "cannot resume from %s: %s@." path e;
              2
          | Ok r ->
              if not quiet then
                Format.printf
                  "resumed from %s: %d journaled settlements verified, %d \
                   attempts had started@."
                  path r.Dmw_exec.kept r.Dmw_exec.attempts_started;
              Format.printf "@.%a@." Dmw_exec.pp_summary r.Dmw_exec.result;
              if Dmw_exec.completed r.Dmw_exec.result then 0 else 1)
    end
    else begin
    let params = make_params ?w_max ~group_bits ~seed ~n ~m ~c () in
    let rng = Prng.create ~seed in
    let instance = generate_instance workload rng ~n ~m in
    let bids =
      Dmw_workload.Workload.discretize_log instance ~levels:params.Params.w_max
    in
    if not quiet then begin
      Format.printf "instance (true times):@.%a@." Dmw_mechanism.Instance.pp instance;
      Format.printf "bid levels:@.";
      Array.iteri
        (fun i row ->
          Format.printf "  A%d:" (i + 1);
          Array.iter (Format.printf " %d") row;
          Format.printf "@.")
        bids
    end;
    let strategies =
      match deviant with
      | None -> fun _ -> Strategy.Suggested
      | Some d -> fun i -> if i = d then strategy else Strategy.Suggested
    in
    match
      (* Refuse before the journal is opened: creating it truncates
         whatever an earlier run left there. *)
      Dmw_exec.check_options ~batching ~faults ~retries ~pipeline;
      let wal = Option.map Dmw_wal.create wal_path in
      Fun.protect
        ~finally:(fun () -> Option.iter Dmw_wal.close wal)
        (fun () ->
          Dmw_exec.run ~strategies ~seed ~batching ~hardened ?faults ~retries
            ?pipeline ?wal ~backend params ~bids)
    with
    | exception Invalid_argument reason ->
        (* A refused combination of flags, such as --batching with --faults. *)
        Format.eprintf "%s@." reason;
        2
    | result ->
        Format.printf "@.%a@." Dmw_exec.pp_summary result;
        let rank = Params.pseudonym_rank params in
        let mw =
          Dmw_mechanism.Minwork.run
            ~tie_break:(Dmw_mechanism.Vickrey.Least_key (fun i -> rank.(i)))
            (Array.map (Array.map float_of_int) bids)
        in
        Dmw_mechanism.Metrics.record_obs instance mw;
        (match metrics with
        | None -> ()
        | Some path ->
            let report =
              if Filename.check_suffix path ".prom" then Dmw_obs.Export.prometheus ()
              else
                Dmw_obs.Export.json_lines
                  ~meta:
                    [ ("backend", Dmw_exec.backend_name backend);
                      ("n", string_of_int n); ("m", string_of_int m);
                      ("seed", string_of_int seed) ]
                  ()
            in
            Dmw_obs.Export.write_file ~path report;
            Dmw_obs.Metrics.disable ();
            if not quiet then Format.printf "metrics report written to %s@." path);
        (match result.Dmw_exec.schedule with
        | Some s ->
            let times = Dmw_mechanism.Instance.times instance in
            Format.printf "@.makespan (true times): DMW %.2f, centralized MinWork %.2f@."
              (Dmw_mechanism.Schedule.makespan ~times s)
              (Dmw_mechanism.Schedule.makespan ~times mw.Dmw_mechanism.Minwork.schedule)
        | None -> ());
        if Dmw_exec.completed result then 0 else 1
    end
  in
  let wal_path =
    Arg.(value & opt (some string) None
         & info [ "wal" ] ~docv:"PATH"
             ~doc:"Journal the run into a durable write-ahead log at PATH \
                   (truncating any existing file unless $(b,--resume) is \
                   given): the run header, each attempt's start, per-task \
                   phase checkpoints and settlements, and the final outcome.")
  in
  let resume =
    Arg.(value & flag
         & info [ "resume" ]
             ~doc:"Recover an interrupted run from the $(b,--wal) journal \
                   instead of starting a new one: the journaled (seed, \
                   params, bids) are re-executed deterministically, every \
                   journaled settlement is verified against the re-run, and \
                   a fresh journal segment is appended. Instance flags \
                   (n, m, workload, ...) are ignored; the journal is \
                   authoritative.")
  in
  let term =
    Term.(const run $ n_arg $ m_arg $ c_arg $ seed_arg $ bits_arg $ workload
          $ deviant $ strategy $ quiet $ batching $ verbose $ backend $ timeout
          $ hardened $ faults $ retries $ w_max $ metrics $ pipeline $ wal_path
          $ resume)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Execute the distributed mechanism on a generated instance.")
    Term.(const Stdlib.exit $ term)

(* ------------------------------------------------------------------ *)
(* sweep                                                               *)

let sweep_cmd =
  let max_n =
    Arg.(value & opt int 16 & info [ "max-n" ] ~docv:"N" ~doc:"Largest agent count.")
  in
  let sweep m c seed group_bits max_n =
    Printf.printf "%4s %10s %12s %12s %12s\n" "n" "messages" "bytes" "muls/agent"
      "exps/agent";
    let n = ref 4 in
    while !n <= max_n do
      let params = make_params ~group_bits ~seed ~n:!n ~m ~c () in
      let rng = Prng.create ~seed in
      let bids =
        Dmw_workload.Workload.random_levels rng ~n:!n ~m ~w_max:params.Params.w_max
      in
      let module Counters = Dmw_modular.Zmod.Counters in
      Counters.reset ();
      Counters.enable ();
      let r = Dmw_exec.run ~seed params ~bids ~keep_events:false in
      Counters.disable ();
      Printf.printf "%4d %10d %12d %12d %12d\n%!" !n
        (Dmw_sim.Trace.messages r.Dmw_exec.trace)
        (Dmw_sim.Trace.bytes r.Dmw_exec.trace)
        (Counters.multiplications () / !n)
        (Counters.exponentiations () / !n);
      n := !n + 4
    done;
    0
  in
  let term = Term.(const sweep $ m_arg $ c_arg $ seed_arg $ bits_arg $ max_n) in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Scaling sweep of communication and computation (Table 1).")
    Term.(const Stdlib.exit $ term)

(* ------------------------------------------------------------------ *)
(* attack                                                              *)

let attack_cmd =
  let bid =
    Arg.(value & opt int 2 & info [ "bid" ] ~docv:"Y" ~doc:"The victim's bid level.")
  in
  let attack n m c seed group_bits bid =
    let params = make_params ~group_bits ~seed ~n ~m ~c () in
    if not (Params.valid_bid params bid) then begin
      Printf.eprintf "bid %d outside W = 1..%d\n" bid params.Params.w_max;
      exit 2
    end;
    let rng = Prng.create ~seed in
    let dealer =
      Dmw_crypto.Bid_commitments.generate rng ~group:params.Params.group
        ~sigma:params.Params.sigma ~tau:(Params.tau_of_bid params bid)
    in
    Printf.printf "victim bids %d; analytic threshold: %d colluders\n\n" bid
      (Privacy.min_coalition params ~bid);
    for k = 1 to n do
      let coalition = List.init k Fun.id in
      match Privacy.attack_dealer params ~coalition ~dealer with
      | Some recovered -> Printf.printf "%2d colluders: bid RECOVERED = %d\n" k recovered
      | None -> Printf.printf "%2d colluders: nothing learned\n" k
    done;
    0
  in
  let term = Term.(const attack $ n_arg $ m_arg $ c_arg $ seed_arg $ bits_arg $ bid) in
  Cmd.v
    (Cmd.info "attack" ~doc:"Coalition attack against a victim's bid privacy.")
    Term.(const Stdlib.exit $ term)

(* ------------------------------------------------------------------ *)
(* trace                                                               *)

let trace_cmd =
  let limit =
    Arg.(value & opt int 100 & info [ "limit" ] ~docv:"K" ~doc:"Maximum events to print.")
  in
  let trace n c seed group_bits limit =
    let params = make_params ~group_bits ~seed ~n ~m:1 ~c () in
    let rng = Prng.create ~seed in
    let bids =
      Dmw_workload.Workload.random_levels rng ~n ~m:1 ~w_max:params.Params.w_max
    in
    let r = Dmw_exec.run ~seed params ~bids in
    Format.printf "%a@." (Dmw_sim.Trace.pp_sequence ~max_events:limit) r.Dmw_exec.trace;
    Format.printf "%a@." Dmw_sim.Trace.pp_summary r.Dmw_exec.trace;
    0
  in
  let term = Term.(const trace $ n_arg $ c_arg $ seed_arg $ bits_arg $ limit) in
  Cmd.v
    (Cmd.info "trace" ~doc:"Print the message sequence of one auction (Fig. 2).")
    Term.(const Stdlib.exit $ term)

(* ------------------------------------------------------------------ *)
(* compare                                                             *)

let mechanism_table ~n ~m ~seed bids =
  let module Mechanism = Dmw_mechanism.Mechanism in
  let module Metrics = Dmw_mechanism.Metrics in
  let instance =
    Dmw_workload.Workload.levels_instance bids
  in
  let times = Dmw_mechanism.Instance.times instance in
  let _, opt = Dmw_mechanism.Optimal.run times in
  Printf.printf
    "\nmechanism zoo on the same instance (exact optimum makespan %.0f):\n"
    opt;
  Printf.printf "%-14s %10s %8s %10s %10s  %s\n" "mechanism" "makespan"
    "ratio" "payment" "frugality" "notes";
  List.iter
    (fun (module M : Mechanism.S) ->
      let prng = Prng.create ~seed in
      let o = M.run ~prng times in
      let s = Metrics.score ~optimal:opt instance ~name:M.name o in
      let opt_str = function
        | Some v -> Printf.sprintf "%.3f" v
        | None -> "-"
      in
      Printf.printf "%-14s %10.0f %8s %10s %10s  %s\n%!" M.name
        s.Metrics.makespan
        (opt_str s.Metrics.makespan_ratio)
        (opt_str s.Metrics.total_payment)
        (opt_str s.Metrics.frugality)
        M.summary)
    (Mechanism.Registry.supporting ~n ~m)

let compare_cmd =
  let compare n m c seed group_bits mechanisms =
    let params = make_params ~group_bits ~seed ~n ~m ~c () in
    let rng = Prng.create ~seed in
    let bids =
      Dmw_workload.Workload.random_levels rng ~n ~m ~w_max:params.Params.w_max
    in
    Printf.printf "%-22s %10s %12s %10s  %s\n" "variant" "messages" "bytes"
      "status" "notes";
    let row name messages bytes ok notes =
      Printf.printf "%-22s %10d %12d %10s  %s\n%!" name messages bytes
        (if ok then "ok" else "failed")
        notes
    in
    let dmw name ?(batching = false) ?(hardened = false) notes =
      let r =
        Dmw_exec.run ~seed ~batching ~hardened params ~bids ~keep_events:false
      in
      row name
        (Dmw_sim.Trace.messages r.Dmw_exec.trace)
        (Dmw_sim.Trace.bytes r.Dmw_exec.trace)
        (Dmw_exec.completed r) notes
    in
    dmw "DMW" "fully distributed, private bids";
    dmw "DMW --batching" ~batching:true "same bytes, Θ(n²) envelopes";
    dmw "DMW --hardened" ~hardened:true "per-entry disclosure binding";
    let cb = Dmw_center.run ~n ~m ~c bids in
    row "center-assisted" 
      (Dmw_sim.Trace.messages cb.Dmw_center.trace)
      (Dmw_sim.Trace.bytes cb.Dmw_center.trace)
      (Option.is_some cb.Dmw_center.schedule)
      "Θ(mn), but bids public + trusted center";
    if mechanisms then mechanism_table ~n ~m ~seed bids;
    0
  in
  let mechanisms_arg =
    Arg.(value & flag
         & info [ "mechanisms" ]
             ~doc:"Also run every mechanism in the zoo registry on the same \
                   instance and tabulate makespan, approximation ratio, \
                   payments and frugality.")
  in
  let term =
    Term.(const compare $ n_arg $ m_arg $ c_arg $ seed_arg $ bits_arg
          $ mechanisms_arg)
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Run every protocol variant on one instance and tabulate the costs.")
    Term.(const Stdlib.exit $ term)

(* ------------------------------------------------------------------ *)
(* audit                                                               *)

let audit_cmd =
  let forge =
    Arg.(value & opt (some int) None
         & info [ "forge" ] ~docv:"AGENT"
             ~doc:"Forge agent AGENT's published Lambda before auditing.")
  in
  let audit n c seed group_bits forge =
    let params = make_params ~group_bits ~seed ~n ~m:1 ~c () in
    let rng = Prng.create ~seed in
    let bids =
      Array.init n (fun _ -> 1 + Prng.int rng params.Params.w_max)
    in
    Printf.printf "bids: %s\n"
      (String.concat " " (Array.to_list (Array.map string_of_int bids)));
    let t = Transcript.of_direct ~seed params ~bids in
    let t =
      match forge with
      | None -> t
      | Some agent ->
          Printf.printf "forging agent %d's Lambda...\n" agent;
          let lp = Array.copy t.Transcript.lambda_psi in
          let g = params.Params.group in
          lp.(agent) <-
            (Dmw_modular.Group.pow g g.Dmw_modular.Group.z1
               (Dmw_modular.Group.random_exponent g rng),
             snd lp.(agent));
          { t with Transcript.lambda_psi = lp }
    in
    match Transcript.audit params t with
    | Ok v ->
        Printf.printf
          "transcript VALID: winner A%d, y* = %d, y** = %d (%d identities checked)\n"
          (v.Transcript.winner + 1) v.Transcript.y_star v.Transcript.y_star2
          v.Transcript.checks;
        0
    | Error e ->
        Format.printf "transcript INVALID: %a@." Transcript.pp_error e;
        1
  in
  let term = Term.(const audit $ n_arg $ c_arg $ seed_arg $ bits_arg $ forge) in
  Cmd.v
    (Cmd.info "audit"
       ~doc:"Build a public transcript and audit it as a third party (eqs. 11/13).")
    Term.(const Stdlib.exit $ term)

(* ------------------------------------------------------------------ *)
(* multiunit                                                           *)

let multiunit_cmd =
  let units =
    Arg.(value & opt int 2 & info [ "units" ] ~docv:"M" ~doc:"Number of identical units/replicas.")
  in
  let multiunit n c seed group_bits units =
    let params = make_params ~group_bits ~seed ~n ~m:1 ~c () in
    let rng = Prng.create ~seed in
    let bids = Array.init n (fun _ -> 1 + Prng.int rng params.Params.w_max) in
    Printf.printf "bids: %s\n"
      (String.concat " " (Array.to_list (Array.map string_of_int bids)));
    let o = Multiunit.run ~seed params ~bids ~units in
    Printf.printf "winners: %s\n"
      (String.concat ", "
         (List.map (fun i -> Printf.sprintf "A%d (bid %d)" (i + 1) bids.(i))
            o.Multiunit.winners));
    Printf.printf "clearing price ((M+1)st lowest bid): %d\n"
      o.Multiunit.clearing_price;
    Printf.printf "consistent with sort-and-take reference: %b\n"
      (Multiunit.run_reference_consistent ~seed params ~bids ~units);
    0
  in
  let term = Term.(const multiunit $ n_arg $ c_arg $ seed_arg $ bits_arg $ units) in
  Cmd.v
    (Cmd.info "multiunit"
       ~doc:"Run an (M+1)st-price multi-unit auction by iterated exclusion.")
    Term.(const Stdlib.exit $ term)

(* ------------------------------------------------------------------ *)
(* divisible                                                           *)

let divisible_cmd =
  let total =
    Arg.(value & opt float 120.0
         & info [ "load" ] ~docv:"W" ~doc:"Total divisible workload.")
  in
  let gamma =
    Arg.(value & opt float 2.0
         & info [ "gamma" ] ~docv:"G"
             ~doc:"Sharpness of the proportional rules (0 = equal split).")
  in
  let divisible n seed total gamma =
    let module One = Dmw_oneparam in
    let levels = [| 1.0; 2.0; 3.0; 4.0 |] in
    let rng = Prng.create ~seed in
    let bids = Array.init n (fun _ -> Prng.int rng (Array.length levels)) in
    let true_costs = Array.map (fun b -> levels.(b)) bids in
    Printf.printf "machines (cost/unit):";
    Array.iter (fun c -> Printf.printf " %.0f" c) true_costs;
    Printf.printf "\nload: %.0f units\n\n" total;
    Printf.printf "%-24s %10s %14s\n" "rule" "makespan" "total payment";
    let show name rule =
      let o = One.run rule ~levels ~bids in
      Printf.printf "%-24s %10.1f %14.1f\n" name
        (One.makespan ~work:o.One.work ~true_costs)
        (One.total_payment o)
    in
    show "winner-take-all" (One.winner_take_all ~total);
    show (Printf.sprintf "proportional g=%.1f" gamma)
      (One.proportional ~total ~gamma);
    show "equal split" (One.equal_split ~total);
    let lot = One.run_expected (One.proportional_lottery ~total ~gamma) ~levels ~bids in
    Printf.printf "%-24s %10s %14.1f  (expected; truthful in expectation)\n"
      (Printf.sprintf "lottery g=%.1f" gamma)
      "-" (One.total_payment lot);
    0
  in
  let term = Term.(const divisible $ n_arg $ seed_arg $ total $ gamma) in
  Cmd.v
    (Cmd.info "divisible"
       ~doc:"Single-parameter divisible-load mechanisms (the paper's future work).")
    Term.(const Stdlib.exit $ term)

(* ------------------------------------------------------------------ *)
(* submit                                                              *)

(* Client half of the dmw_serve front door: connect, pipeline the
   submissions, read one reply per request. Every line sent before
   [quit] is answered — the daemon's per-connection writer drains its
   reply queue after the reader stops — so closely-spaced jobs here
   land in the same auction wave over there. *)
let submit_cmd =
  let socket_path =
    Arg.(value & opt string "/tmp/dmw_serve.sock"
         & info [ "socket" ] ~docv:"PATH"
             ~doc:"Unix-domain socket of a running dmw_serve daemon.")
  in
  let jobs =
    Arg.(value & opt_all string []
         & info [ "job" ] ~docv:"W1,...,WN"
             ~doc:"A task to auction: one bid level per agent, \
                   comma-separated. Repeatable; jobs submitted together \
                   are batched into one wave.")
  in
  let stats =
    Arg.(value & flag
         & info [ "stats" ] ~doc:"Also query the daemon's epoch/job counters.")
  in
  let submit socket_path jobs stats =
    if jobs = [] && not stats then begin
      Printf.eprintf "nothing to do: pass --job and/or --stats\n";
      exit 2
    end;
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (match Unix.connect fd (Unix.ADDR_UNIX socket_path) with
    | () -> ()
    | exception Unix.Unix_error (e, _, _) ->
        Printf.eprintf "cannot connect to %s: %s\n" socket_path
          (Unix.error_message e);
        exit 2);
    let oc = Unix.out_channel_of_descr fd in
    let ic = Unix.in_channel_of_descr fd in
    List.iter (fun job -> output_string oc ("submit " ^ job ^ "\n")) jobs;
    if stats then output_string oc "stats\n";
    output_string oc "quit\n";
    flush oc;
    let expected = List.length jobs + if stats then 1 else 0 in
    let ok_reply line =
      String.starts_with ~prefix:"result " line
      || String.starts_with ~prefix:"stats " line
    in
    let rec read_replies remaining failures =
      if remaining = 0 then failures
      else
        match input_line ic with
        | line ->
            print_endline line;
            read_replies (remaining - 1)
              (failures + if ok_reply line then 0 else 1)
        | exception End_of_file ->
            Printf.eprintf "connection closed with %d replies pending\n"
              remaining;
            failures + remaining
    in
    let failures = read_replies expected 0 in
    (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
    if failures = 0 then 0 else 1
  in
  let term = Term.(const submit $ socket_path $ jobs $ stats) in
  Cmd.v
    (Cmd.info "submit"
       ~doc:"Submit auction jobs to a running dmw_serve daemon.")
    Term.(const Stdlib.exit $ term)

(* ------------------------------------------------------------------ *)
(* group                                                               *)

let group_cmd =
  let fresh =
    Arg.(value & flag & info [ "generate" ] ~doc:"Generate a fresh group instead of using the cached one.")
  in
  let show seed bits fresh =
    let g =
      if fresh then Dmw_modular.Group.generate (Prng.create ~seed) ~bits
      else Dmw_modular.Group.standard ~bits
    in
    Format.printf "%a@." Dmw_modular.Group.pp g;
    let ok = Dmw_modular.Group.validate_prime (Prng.create ~seed:1) g in
    Format.printf "primality re-check: %s@." (if ok then "ok" else "FAILED");
    if ok then 0 else 1
  in
  let term = Term.(const show $ seed_arg $ bits_arg $ fresh) in
  Cmd.v
    (Cmd.info "group" ~doc:"Inspect or generate Schnorr group parameters.")
    Term.(const Stdlib.exit $ term)

let () =
  let doc = "Distributed MinWork: faithful distributed scheduling on unrelated machines" in
  let info = Cmd.info "dmw" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ run_cmd; compare_cmd; sweep_cmd; attack_cmd; trace_cmd; audit_cmd;
            multiunit_cmd; divisible_cmd; submit_cmd; group_cmd ]))
