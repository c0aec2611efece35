(* dmw_serve — the persistent auction service daemon.

   Puts the socket backend behind a long-running process: jobs arrive
   through a Unix-domain socket front door (newline protocol; see
   Dmw_serve_core.Front), and queued jobs are batched into epoch
   waves, each one a one-shot socket run over n agent endpoints.
   SIGINT/SIGTERM drain the queue before exiting. *)

open Cmdliner

let serve n c seed group_bits w_max pipeline max_wave queue_capacity
    wave_window epoch_timeout socket_path metrics wal_path resume resume_only =
  if Option.is_some metrics then Dmw_obs.Metrics.enable ();
  if (resume || resume_only) && Option.is_none wal_path then begin
    Printf.eprintf "--resume/--resume-only require --wal PATH\n";
    exit 2
  end;
  (* Recover first: replay any interrupted epochs out of the journal,
     print their settlements in front-door format, and learn where the
     epoch counter and job-id allocator must continue. *)
  let recovered, wal =
    match wal_path with
    | None -> (None, None)
    | Some path when resume || resume_only -> (
        match Dmw_wal.read path with
        | Error e ->
            Printf.eprintf "cannot read %s: %s\n" path
              (Dmw_wal.error_to_string e);
            exit 2
        | Ok { Dmw_wal.records; valid; tail } -> (
            (match tail with
            | Dmw_wal.Clean -> ()
            | Dmw_wal.Torn e ->
                Printf.printf "dmw_serve: discarding torn tail of %s: %s\n%!"
                  path (Dmw_wal.error_to_string e));
            let w = Dmw_wal.continue_file path ~valid in
            match Dmw_serve_core.recover ~journal:w records with
            | Error e ->
                Dmw_wal.close w;
                Printf.eprintf "cannot recover from %s: %s\n" path e;
                exit 2
            | Ok r -> (Some r, Some w)))
    | Some path -> (None, Some (Dmw_wal.create path))
  in
  (match recovered with
  | None -> ()
  | Some r ->
      Printf.printf
        "dmw_serve: recovered %d jobs from %s (%d settlements kept, %d epochs \
         replayed)\n%!"
        (List.length r.Dmw_serve_core.results)
        (Option.value wal_path ~default:"-")
        r.Dmw_serve_core.kept r.Dmw_serve_core.replayed;
      List.iter
        (fun jr -> print_endline (Dmw_serve_core.Front.result_line jr))
        r.Dmw_serve_core.results);
  if resume_only then begin
    Option.iter Dmw_wal.close wal;
    exit 0
  end;
  (* A resumed service takes its identity (n, c, seed, ...) from the
     journal — the command line only supplies operational knobs. *)
  let n, c, seed, group_bits, w_max, pipeline, max_wave =
    match recovered with
    | Some r ->
        ( r.Dmw_serve_core.n, r.Dmw_serve_core.c, r.Dmw_serve_core.seed,
          r.Dmw_serve_core.group_bits, r.Dmw_serve_core.w_max,
          r.Dmw_serve_core.pipeline, r.Dmw_serve_core.max_wave )
    | None -> (n, c, seed, group_bits, w_max, pipeline, max_wave)
  in
  let cfg =
    try
      Dmw_serve_core.config ~group_bits ~seed ?w_max ?pipeline ~max_wave
        ~queue_capacity ~wave_window ~epoch_timeout ~n ~c ()
    with Invalid_argument msg ->
      Printf.eprintf "invalid configuration: %s\n" msg;
      exit 2
  in
  let service =
    try
      Dmw_serve_core.create ?wal
        ?epoch_base:(Option.map (fun r -> r.Dmw_serve_core.next_epoch) recovered)
        ?job_base:(Option.map (fun r -> r.Dmw_serve_core.next_job) recovered)
        cfg
    with Invalid_argument msg ->
      Printf.eprintf "invalid parameters: %s\n" msg;
      exit 2
  in
  let front = Dmw_serve_core.Front.start service ~socket_path in
  Printf.printf "dmw_serve: listening on %s (n=%d c=%d max_wave=%d)\n%!"
    socket_path n c max_wave;
  (* The handler only flips a flag: the main thread polls it, so no
     locking happens in signal context. *)
  let stop = ref false in
  let request_stop _ = stop := true in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
  Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
  while not !stop do
    Thread.delay 0.2
  done;
  Printf.printf "dmw_serve: stop requested, draining...\n%!";
  Dmw_serve_core.Front.stop front;
  Dmw_serve_core.shutdown service;
  Option.iter Dmw_wal.close wal;
  let s = Dmw_serve_core.stats service in
  Printf.printf "dmw_serve: done after %d epochs, %d jobs\n%!"
    s.Dmw_serve_core.epochs s.Dmw_serve_core.jobs;
  (match metrics with
  | None -> ()
  | Some path ->
      let report =
        if Filename.check_suffix path ".prom" then Dmw_obs.Export.prometheus ()
        else
          Dmw_obs.Export.json_lines
            ~meta:
              [ ("backend", "serve"); ("n", string_of_int n);
                ("c", string_of_int c); ("seed", string_of_int seed) ]
            ()
      in
      Dmw_obs.Export.write_file ~path report;
      Printf.printf "dmw_serve: metrics report written to %s\n%!" path);
  0

let cmd =
  let n =
    Arg.(value & opt int 5
         & info [ "n"; "agents" ] ~docv:"N" ~doc:"Number of agents (machines).")
  in
  let c =
    Arg.(value & opt int 1
         & info [ "c"; "faulty" ] ~docv:"C"
             ~doc:"Maximum number of faulty agents tolerated per wave.")
  in
  let seed =
    Arg.(value & opt int 42
         & info [ "seed" ] ~docv:"SEED"
             ~doc:"Base seed; epoch e re-salts it deterministically.")
  in
  let group_bits =
    Arg.(value & opt int 64
         & info [ "group-bits" ] ~docv:"BITS"
             ~doc:"Schnorr group size: one of 16, 32, 64, 96, 128, 256, 512.")
  in
  let w_max =
    Arg.(value & opt (some int) None
         & info [ "w-max" ] ~docv:"W"
             ~doc:"Largest bid level (default n - c - 1).")
  in
  let pipeline =
    Arg.(value & opt (some int) None
         & info [ "pipeline" ] ~docv:"DEPTH"
             ~doc:"Admission-window depth of each wave's task pipeline \
                   (default: the whole wave at once).")
  in
  let max_wave =
    Arg.(value & opt int 8
         & info [ "max-wave" ] ~docv:"M"
             ~doc:"Most jobs batched into one auction wave (epoch).")
  in
  let queue_capacity =
    Arg.(value & opt int 64
         & info [ "queue-cap" ] ~docv:"K"
             ~doc:"Submission-queue bound; beyond it clients are told busy.")
  in
  let wave_window =
    Arg.(value & opt float 0.05
         & info [ "wave-window" ] ~docv:"SECONDS"
             ~doc:"How long the dispatcher lingers after a wave's first \
                   job so closely-spaced submissions share an epoch.")
  in
  let epoch_timeout =
    Arg.(value & opt float 30.0
         & info [ "epoch-timeout" ] ~docv:"SECONDS"
             ~doc:"Per-epoch payment-collection deadline.")
  in
  let socket_path =
    Arg.(value & opt string "/tmp/dmw_serve.sock"
         & info [ "socket" ] ~docv:"PATH"
             ~doc:"Unix-domain socket to listen on (stale files replaced).")
  in
  let metrics =
    Arg.(value & opt (some string) None
         & info [ "metrics" ] ~docv:"PATH"
             ~doc:"Enable observability and write a report on exit: \
                   Prometheus text when PATH ends in .prom, JSON-lines \
                   otherwise (including the per-epoch span trees).")
  in
  let wal_path =
    Arg.(value & opt (some string) None
         & info [ "wal" ] ~docv:"PATH"
             ~doc:"Journal the service into a durable write-ahead log: the \
                   service header, every accepted submission, and each \
                   epoch's jobs and protocol run. Without $(b,--resume) an \
                   existing file is truncated.")
  in
  let resume =
    Arg.(value & flag
         & info [ "resume" ]
             ~doc:"Recover from the $(b,--wal) journal before serving: \
                   interrupted epochs are resumed deterministically, their \
                   settlements printed in front-door format, and the service \
                   continues with the journaled identity (n, c, seed, ...) \
                   and the next epoch/job ids.")
  in
  let resume_only =
    Arg.(value & flag
         & info [ "resume-only" ]
             ~doc:"Like $(b,--resume), but exit after printing the recovered \
                   settlements instead of serving.")
  in
  let term =
    Term.(const serve $ n $ c $ seed $ group_bits $ w_max $ pipeline $ max_wave
          $ queue_capacity $ wave_window $ epoch_timeout $ socket_path
          $ metrics $ wal_path $ resume $ resume_only)
  in
  Cmd.v
    (Cmd.info "dmw_serve" ~version:"1.0.0"
       ~doc:"Persistent DMW auction service: jobs stream in, waves of \
             auctions run per epoch, each over its own agent endpoints.")
    Term.(const Stdlib.exit $ term)

let () = exit (Cmd.eval' cmd)
