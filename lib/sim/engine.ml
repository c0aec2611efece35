open Dmw_bigint

type 'a delivery = {
  now : float;
  src : int;
  tag : string;
  payload : 'a;
}

type 'a event =
  | Deliver of { dst : int; delivery : 'a delivery }
  | Action of (unit -> unit)

(* race: confined sim: the discrete-event engine is single-threaded;
   all state is touched from the one thread calling [run]. *)
type 'a t = {
  n : int;
  latency : src:int -> dst:int -> float;
  trace : Trace.t;
  queue : 'a event Heap.t;
  handlers : ('a t -> 'a delivery -> unit) option array;
  event_budget : int;
  bandwidth : float;
  jitter : float;
  jitter_rng : Prng.t;
  mutable clock : float;
}

let create ?(seed = 0) ?latency ?(keep_events = true)
    ?(event_budget = 100_000_000) ?(bandwidth = infinity) ?(jitter = 0.0)
    ~nodes () =
  if nodes <= 0 then invalid_arg "Engine.create: need at least one node";
  if event_budget <= 0 then invalid_arg "Engine.create: bad event budget";
  if not (bandwidth > 0.0) then invalid_arg "Engine.create: bad bandwidth";
  if jitter < 0.0 || jitter >= 1.0 then invalid_arg "Engine.create: bad jitter";
  let latency =
    match latency with
    | Some l -> l
    | None ->
        (* Stable per-link latencies in [1, 2) ms. *)
        Latency.uniform ~seed:(seed lxor 0x1a7e) ~n:nodes ~lo:0.001 ~hi:0.002
  in
  { n = nodes;
    latency;
    trace = Trace.create ~keep_events ();
    queue = Heap.create ();
    handlers = Array.make nodes None;
    event_budget;
    bandwidth;
    jitter;
    jitter_rng = Prng.create ~seed:(seed lxor 0xc4a05);
    clock = 0.0 }

let now t = t.clock
let trace t = t.trace

let on_message t ~node f =
  if node < 0 || node >= t.n then invalid_arg "Engine.on_message: bad node";
  t.handlers.(node) <- Some f

let send t ~src ~dst ~tag ~bytes payload =
  if dst < 0 || dst >= t.n then invalid_arg "Engine.send: bad destination";
  let base =
    if src = dst then 0.0
    else begin
      Trace.record t.trace { Trace.time = t.clock; src; dst; tag; bytes };
      t.latency ~src ~dst +. (float_of_int bytes /. t.bandwidth)
    end
  in
  (* Self-sends draw their jitter coin too, so the stream stays aligned
     with the send sequence. *)
  let factor =
    if t.jitter = 0.0 then 1.0
    else 1.0 -. t.jitter +. (2.0 *. t.jitter *. Prng.float t.jitter_rng)
  in
  let delivery = { now = t.clock +. (base *. factor); src; tag; payload } in
  Heap.push t.queue ~priority:delivery.now (Deliver { dst; delivery })

let at t ~time f =
  Heap.push t.queue ~priority:time (Action f)

let run t =
  let processed = ref 0 in
  let rec loop () =
    match Heap.pop t.queue with
    | None -> ()
    | Some (time, ev) ->
        incr processed;
        Dmw_obs.Metrics.bump "dmw_sim_events_total" 1;
        if !processed > t.event_budget then
          (* lint: allow partial: deliberate fail-fast on a livelocked
             simulation; returning a result would hide the bug. *)
          failwith "Engine.run: event budget exceeded (livelock?)";
        t.clock <- max t.clock time;
        (match ev with
        | Action f -> f ()
        | Deliver { dst; delivery } -> (
            match t.handlers.(dst) with
            | Some handler -> handler t delivery
            | None -> ()));
        loop ()
  in
  loop ();
  Dmw_obs.Metrics.set "dmw_sim_virtual_time" t.clock
