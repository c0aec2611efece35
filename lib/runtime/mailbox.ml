type 'a t = {
  mutex : Mutex.t;
  nonempty : Condition.t;
  queue : 'a Queue.t;
  capacity : int;
  mutable closed : bool;
}

let create ?(capacity = max_int) () =
  if capacity < 1 then invalid_arg "Mailbox.create: capacity < 1";
  { mutex = Mutex.create (); nonempty = Condition.create ();
    queue = Queue.create (); capacity; closed = false }

let try_push t v =
  Mutex_util.with_lock t.mutex (fun () ->
      if t.closed then `Closed
      else if Queue.length t.queue >= t.capacity then `Full
      else begin
        Queue.push v t.queue;
        Condition.signal t.nonempty;
        `Ok
      end)

let push t v = ignore (try_push t v : [ `Ok | `Full | `Closed ])

let close t =
  Mutex_util.with_lock t.mutex (fun () ->
      t.closed <- true;
      Condition.broadcast t.nonempty)

let pop ?timeout t =
  let deadline = Option.map (fun d -> Unix.gettimeofday () +. d) timeout in
  let rec attempt pause =
    let r =
      Mutex_util.with_lock t.mutex (fun () ->
          let rec wait () =
            if not (Queue.is_empty t.queue) then `Item (Queue.pop t.queue)
            else if t.closed then `Done
            else
              match deadline with
              | None ->
                  Condition.wait t.nonempty t.mutex;
                  wait ()
              | Some dl -> if Unix.gettimeofday () >= dl then `Done else `Poll
          in
          wait ())
    in
    match r with
    | `Item v -> Some v
    | `Done -> None
    | `Poll ->
        (* Condition.wait has no timeout in the stdlib: poll with a
           short sleep while the lock is released, backing off from
           0.1 ms to 2 ms so a short wait ends promptly and a long one
           stays cheap. *)
        Thread.delay pause;
        attempt (Float.min 0.002 (2.0 *. pause))
  in
  attempt 0.0001

let length t = Mutex_util.with_lock t.mutex (fun () -> Queue.length t.queue)
