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

let pop t =
  Mutex_util.with_lock t.mutex (fun () ->
      let rec wait () =
        if not (Queue.is_empty t.queue) then Some (Queue.pop t.queue)
        else if t.closed then None
        else begin
          Condition.wait t.nonempty t.mutex;
          wait ()
        end
      in
      wait ())

let try_pop t = Mutex_util.with_lock t.mutex (fun () -> Queue.take_opt t.queue)

let length t = Mutex_util.with_lock t.mutex (fun () -> Queue.length t.queue)
