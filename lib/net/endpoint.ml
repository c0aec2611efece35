open Dmw_core

(* One agent as a network endpoint: a single-threaded event loop over
   the endpoint's socket, multiplexing frame arrival with the agent's
   scheduled timeouts. Everything that mutates agent state — message
   handling and timer callbacks — runs on this thread, which is the
   serialization contract of Agent.transport. *)

type timer = { at : float; seq : int; fire : unit -> unit }

let insert timers e =
  let earlier x = x.at < e.at || (x.at = e.at && x.seq < e.seq) in
  let rec go = function
    | x :: rest when earlier x -> x :: go rest
    | rest -> e :: rest
  in
  go timers

(* Why a session can end: the fabric's control channel distinguishes a
   full stop (empty payload — the fd will not be used again) from an
   epoch barrier (non-empty payload — the persistent service will run
   another wave of agents over the same connection). *)
type outcome = [ `Stop | `Epoch_end ]

let run_session ?(wrap = Fun.id) ?(on_recv = fun ~src:_ -> ()) ~fd
    ~(agent : Agent.t) ~on_send () : outcome =
  let timers = ref [] in
  let seq = ref 0 in
  let stopped = ref None in
  let stop reason = if Option.is_none !stopped then stopped := Some reason in
  let tr =
    wrap
      { Agent.send =
          (fun ~dst ~tag ~bytes msg ->
            if Option.is_none !stopped then begin
              on_send ~dst ~tag ~bytes;
              try Frame.write fd ~src:(Agent.id agent) ~dst (Codec.encode msg)
              with Unix.Unix_error (_, _, _) -> stop `Stop
            end);
        schedule =
          (fun ~delay fire ->
            incr seq;
            timers :=
              insert !timers
                { at = Unix.gettimeofday () +. delay; seq = !seq; fire }) }
  in
  Agent.start tr agent;
  while Option.is_none !stopped do
    let now = Unix.gettimeofday () in
    match !timers with
    | { at; fire; _ } :: rest when at <= now ->
        timers := rest;
        fire ()
    | pending -> begin
        let timeout =
          match pending with
          | [] -> -1.0 (* block until a frame or the stop signal *)
          | { at; _ } :: _ -> Float.max 0.0 (at -. now)
        in
        match Unix.select [ fd ] [] [] timeout with
        | [], _, _ -> () (* a timer came due; handled next iteration *)
        | _ -> begin
            match Frame.read fd with
            | `Closed -> stop `Stop
            | `Frame (src, _dst, payload) ->
                if src = Fabric.stop_src then
                  (* Control frame: an empty payload is the full stop;
                     anything else is an epoch barrier — leave the loop
                     without touching the fd so the next wave's agent
                     can run over the same connection. Pending frames
                     of the finished epoch stay buffered and are
                     discarded by the next agent's instance filter. *)
                  stop (if payload = "" then `Stop else `Epoch_end)
                else begin
                  (* Malformed payloads are dropped, exactly like the
                     agent drops malformed in-memory messages. *)
                  match Codec.decode payload with
                  | Ok msg ->
                      on_recv ~src;
                      Agent.handle tr agent ~src msg
                  | Error _ -> ()
                end
          end
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | exception Unix.Unix_error (_, _, _) -> stop `Stop
      end
  done;
  match !stopped with Some reason -> reason | None -> `Stop
