(** A process-local network fabric: one Unix-domain socketpair per
    endpoint plus a router thread forwarding frames between them.

    This is the first transport where the wire format actually crosses
    a kernel boundary: every protocol message is Codec-encoded, framed
    and written to a real socket, read back and decoded on the other
    side. The router rewrites each frame's [src] to the true sender,
    so endpoints cannot spoof one another, and it never blocks
    (non-blocking switch-side sockets, per-destination output queues),
    so endpoints are free to use plain blocking I/O. The socket backend
    of the execution harness creates one fabric per protocol run and
    shuts it down when the run ends. *)

type t

val create : endpoints:int -> t
(** Allocate the socketpairs and start the router thread. Endpoints
    are numbered [0 .. endpoints - 1]. *)

val endpoint_fd : t -> int -> Unix.file_descr
(** The endpoint side of endpoint [i]'s socketpair (blocking). Frames
    written here are routed by their [dst] header; frames read here
    carry the verified sender in [src]. *)

val stop_src : int
(** Reserved sender id carried by shutdown frames. An endpoint that
    reads a frame with this [src] must exit its loop. *)

val broadcast_dst : int
(** Reserved destination: the router fans the frame out to every
    endpoint. Only used by the control channel for shutdown. *)

val broadcast_stop : t -> unit
(** Ask the router to deliver a [stop_src] frame to every endpoint.
    Idempotent and thread-safe. *)

val shutdown : t -> unit
(** [broadcast_stop], stop and join the router, close every file
    descriptor. Call after the endpoint threads have been joined. *)
