(** Thread-safe blocking mailbox (FIFO), unbounded or bounded.

    A socket session hands each endpoint worker its next epoch through
    one unbounded mailbox and collects the workers' end-of-epoch
    acknowledgements in another. The persistent auction service
    ([dmw_serve]) takes its jobs through a bounded one: producers
    (client connections) offer with {!try_push} and are told [`Full]
    when the service is saturated — the caller surfaces "busy" to its
    client instead of buffering without bound. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** [capacity] ([>= 1], default unbounded) is the most elements the
    mailbox holds at once. *)

val try_push : 'a t -> 'a -> [ `Ok | `Full | `Closed ]
(** Never blocks: refuse with [`Full] at capacity and [`Closed] after
    {!close}. *)

val push : 'a t -> 'a -> unit
(** {!try_push} without the verdict: never blocks, and drops the
    element when refused. An unbounded mailbox refuses only after
    {!close}. *)

val close : 'a t -> unit
(** Close the mailbox: wakes every blocked {!pop}. Consumers drain
    whatever was queued before the close, then receive [None]. *)

val pop : ?timeout:float -> 'a t -> 'a option
(** Blocks until an element is available; [None] on timeout (seconds)
    or when the mailbox is closed and drained. Without [timeout],
    blocks until an element arrives or the mailbox is closed. *)

val length : 'a t -> int
