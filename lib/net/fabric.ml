(* The switch: a full set of Unix-domain socketpairs, one per
   endpoint, plus a single router thread that forwards frames between
   them. The router never blocks — switch-side sockets are
   non-blocking, input is reassembled in per-peer buffers and output
   is queued per destination — so endpoints may use plain blocking
   I/O without risking the classic cross-buffer deadlock (A blocked
   writing to the switch while the switch is blocked writing to A). *)

let stop_src = 0xffff
let broadcast_dst = 0xffff

(* race: confined router: per-peer buffers and queues are touched
   only on the router thread (shutdown joins it first). *)
type peer = {
  fd : Unix.file_descr; (* switch side, non-blocking *)
  mutable inbuf : Bytes.t;
  mutable inlen : int;
  outq : (Bytes.t * int ref) Queue.t; (* frame, bytes already written *)
  mutable closed : bool;
}

type t = {
  (* race: confined readonly: filled at create, read-only after. *)
  endpoint_fds : Unix.file_descr array;
  (* race: confined router: the array is fixed at create; the peers
     inside are the router thread's. *)
  peers : peer array; (* endpoints 0..k-1, control at index k *)
  control_fd : Unix.file_descr; (* driver side of the control channel *)
  control : int; (* index of the control peer *)
  mutable router : Thread.t option;
  control_mutex : Mutex.t;
  mutable stop_sent : bool;
}

(* Read buffers start at 512 bytes, small enough for the minor heap:
   every protocol run builds a fresh fabric, and a buffer above 256
   words would go straight to the major heap. [read_into] doubles a
   buffer that a partial frame fills. *)
let make_peer fd =
  Unix.set_nonblock fd;
  { fd; inbuf = Bytes.create 512; inlen = 0; outq = Queue.create ();
    closed = false }

let enqueue peer frame =
  if not peer.closed then Queue.push (frame, ref 0) peer.outq

(* Flush as much pending output as the socket accepts right now. *)
let flush peer =
  let progress = ref true in
  while (not peer.closed) && !progress && not (Queue.is_empty peer.outq) do
    let frame, written = Queue.peek peer.outq in
    let remaining = Bytes.length frame - !written in
    match Unix.write peer.fd frame !written remaining with
    | w ->
        written := !written + w;
        if !written = Bytes.length frame then ignore (Queue.pop peer.outq)
        else progress := false
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        progress := false
    | exception Unix.Unix_error (_, _, _) ->
        (* Peer gone (endpoint exited): drop whatever was queued. *)
        peer.closed <- true;
        Queue.clear peer.outq
  done

let route t ~from frame_src dst payload =
  (* Rewrite src to the true sender so endpoints cannot spoof each
     other; the control channel alone may originate [stop_src]. *)
  let src = if from = t.control then frame_src else from in
  let deliver i = enqueue t.peers.(i) (Frame.encode ~src ~dst:i payload) in
  if dst = broadcast_dst then
    Array.iteri (fun i _ -> if i <> from && i <> t.control then deliver i) t.peers
  else if dst >= 0 && dst < Array.length t.peers - 1 then deliver dst

(* Consume complete frames from a peer's input buffer. *)
let drain_frames t ~from peer =
  let pos = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    match Frame.decode peer.inbuf ~pos:!pos ~len:(peer.inlen - !pos) with
    | Ok { Frame.src; dst; payload; size } ->
        route t ~from src dst payload;
        pos := !pos + size
    | Error (Frame.Truncated _) ->
        (* Not an error mid-stream: the rest of the frame is still in
           flight. *)
        continue_ := false
    | Error (Frame.Oversized _ | Frame.Negative_length _) ->
        peer.closed <- true;
        continue_ := false
  done;
  if !pos > 0 then begin
    Bytes.blit peer.inbuf !pos peer.inbuf 0 (peer.inlen - !pos);
    peer.inlen <- peer.inlen - !pos
  end

(* Read into the buffer's free tail, doubling it only when a partial
   frame fills it: every protocol run builds a fresh fabric, so the
   buffers stay as small as the frames they carry. *)
let read_into t ~from peer =
  if peer.inlen = Bytes.length peer.inbuf then begin
    let bigger = Bytes.create (2 * Bytes.length peer.inbuf) in
    Bytes.blit peer.inbuf 0 bigger 0 peer.inlen;
    peer.inbuf <- bigger
  end;
  match
    Unix.read peer.fd peer.inbuf peer.inlen
      (Bytes.length peer.inbuf - peer.inlen)
  with
  | 0 -> peer.closed <- true
  | r ->
      peer.inlen <- peer.inlen + r;
      drain_frames t ~from peer
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    -> ()
  | exception Unix.Unix_error (_, _, _) -> peer.closed <- true

let router_loop t =
  let control_peer = t.peers.(t.control) in
  let running = ref true in
  while !running do
    let reads =
      Array.to_list t.peers
      |> List.filter_map (fun p -> if p.closed then None else Some p.fd)
    in
    let writes =
      Array.to_list t.peers
      |> List.filter_map (fun p ->
             if (not p.closed) && not (Queue.is_empty p.outq) then Some p.fd
             else None)
    in
    if control_peer.closed then begin
      (* Driver hung up: best-effort flush of whatever is queued, then
         shut the switch down. *)
      Array.iter flush t.peers;
      running := false
    end
    else begin
      match Unix.select reads writes [] (-1.0) with
      | readable, writable, _ ->
          Array.iteri
            (fun i p ->
              if (not p.closed) && List.memq p.fd writable then flush p;
              if (not p.closed) && List.memq p.fd readable then
                read_into t ~from:i p)
            t.peers
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error (_, _, _) -> running := false
    end
  done

let create ~endpoints =
  if endpoints < 1 || endpoints >= stop_src then
    invalid_arg "Fabric.create: endpoint count out of range";
  let pairs =
    Array.init (endpoints + 1) (fun _ ->
        Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0)
  in
  let endpoint_fds = Array.init endpoints (fun i -> fst pairs.(i)) in
  let control_fd = fst pairs.(endpoints) in
  let peers = Array.map (fun (_, switch_side) -> make_peer switch_side) pairs in
  let t =
    { endpoint_fds; peers; control_fd; control = endpoints; router = None;
      control_mutex = Mutex.create (); stop_sent = false }
  in
  let th = Thread.create router_loop t in
  Dmw_runtime.Mutex_util.with_lock t.control_mutex (fun () ->
      t.router <- Some th);
  t

let endpoint_fd t i = t.endpoint_fds.(i)

let broadcast_stop t =
  Dmw_runtime.Mutex_util.with_lock t.control_mutex (fun () ->
      if not t.stop_sent then begin
        t.stop_sent <- true;
        try Frame.write t.control_fd ~src:stop_src ~dst:broadcast_dst ""
        with Unix.Unix_error (_, _, _) -> ()
      end)

let shutdown t =
  broadcast_stop t;
  (* Closing the driver side of the control channel is the router's
     signal to flush and exit. *)
  (try Unix.close t.control_fd with Unix.Unix_error (_, _, _) -> ());
  (match
     Dmw_runtime.Mutex_util.with_lock t.control_mutex (fun () ->
         let th = t.router in
         t.router <- None;
         th)
   with
  | Some th -> Thread.join th
  | None -> ());
  Array.iter
    (fun p -> try Unix.close p.fd with Unix.Unix_error (_, _, _) -> ())
    t.peers;
  Array.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error (_, _, _) -> ())
    t.endpoint_fds
