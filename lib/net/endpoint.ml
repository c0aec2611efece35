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

let run_session ?(wrap = Fun.id) ?(on_recv = fun ~src:_ -> ()) ~fd
    ~(agent : Agent.t) ~on_send () =
  let timers = ref [] in
  let seq = ref 0 in
  let stopped = ref false in
  let tr =
    wrap
      { Agent.send =
          (fun ~dst ~tag ~bytes msg ->
            if not !stopped then begin
              on_send ~dst ~tag ~bytes;
              try Frame.write fd ~src:(Agent.id agent) ~dst (Codec.encode msg)
              with Unix.Unix_error (_, _, _) -> stopped := true
            end);
        schedule =
          (fun ~delay fire ->
            incr seq;
            timers :=
              insert !timers
                { at = Unix.gettimeofday () +. delay; seq = !seq; fire }) }
  in
  Agent.start tr agent;
  while not !stopped do
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
            | `Closed -> stopped := true
            | `Frame (src, _dst, payload) ->
                if src = Fabric.stop_src then stopped := true
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
        | exception Unix.Unix_error (_, _, _) -> stopped := true
      end
  done
