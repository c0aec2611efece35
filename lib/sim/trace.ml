type event = {
  time : float;
  src : int;
  dst : int;
  tag : string;
  bytes : int;
}

(* race: confined sim: traces are recorded by the single-threaded
   engine and read after the run finishes. *)
type t = {
  keep_events : bool;
  mutable events_rev : event list;
  mutable messages : int;
  mutable bytes : int;
  mutable last_time : float;
  by_tag : (string, int ref * int ref) Hashtbl.t;
      (* tag -> (message count, byte count) *)
}

let create ?(keep_events = true) () =
  { keep_events; events_rev = []; messages = 0; bytes = 0; last_time = 0.0;
    by_tag = Hashtbl.create 16 }

let record t ev =
  if t.keep_events then t.events_rev <- ev :: t.events_rev;
  t.messages <- t.messages + 1;
  t.bytes <- t.bytes + ev.bytes;
  if ev.time > t.last_time then t.last_time <- ev.time;
  let msgs, byts =
    match Hashtbl.find_opt t.by_tag ev.tag with
    | Some cell -> cell
    | None ->
        let cell = (ref 0, ref 0) in
        Hashtbl.add t.by_tag ev.tag cell;
        cell
  in
  incr msgs;
  byts := !byts + ev.bytes

let messages t = t.messages
let bytes t = t.bytes

let sorted_tags t f =
  Hashtbl.fold (fun tag cell acc -> (tag, f cell) :: acc) t.by_tag []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let messages_by_tag t = sorted_tags t (fun (m, _) -> !m)
let bytes_by_tag t = sorted_tags t (fun (_, b) -> !b)
let events t = List.rev t.events_rev

let last_time t = t.last_time

let pp_summary fmt t =
  Format.fprintf fmt "@[<v>";
  Format.fprintf fmt "%-16s %10s %12s@," "tag" "messages" "bytes";
  List.iter2
    (fun (tag, m) (_, b) -> Format.fprintf fmt "%-16s %10d %12d@," tag m b)
    (messages_by_tag t) (bytes_by_tag t);
  Format.fprintf fmt "%-16s %10d %12d@]" "TOTAL" t.messages t.bytes

let pp_sequence ~max_events fmt t =
  let evs = events t in
  let n = List.length evs in
  Format.fprintf fmt "@[<v>";
  List.iteri
    (fun i ev ->
      if i < max_events then
        Format.fprintf fmt "t=%8.4f  A%-3d -> A%-3d %-14s (%d B)@," ev.time
          (ev.src + 1) (ev.dst + 1) ev.tag ev.bytes)
    evs;
  if n > max_events then Format.fprintf fmt "... (%d more events)@," (n - max_events);
  Format.fprintf fmt "@]"
