(** Driving one {!Dmw_core.Agent} over a socket.

    The event loop multiplexes frame arrival with the agent's
    scheduled timeouts on a single thread, so all agent mutations are
    serialized as {!Dmw_core.Agent.transport} requires. Outbound
    messages are Codec-encoded and framed ({!Frame}); inbound payloads
    are decoded, and malformed ones dropped. The loop exits when a
    {!Fabric.stop_src} frame arrives or the socket closes. *)

type outcome = [ `Stop | `Epoch_end ]
(** Why a session ended: [`Stop] (empty-payload control frame, socket
    closed, or I/O error — the connection is done) or [`Epoch_end] (a
    non-empty control frame, {!Fabric.broadcast_epoch}: the epoch is
    over but the connection stays up for the next one). *)

val run_session :
  ?wrap:(Dmw_core.Agent.transport -> Dmw_core.Agent.transport) ->
  ?on_recv:(src:int -> unit) ->
  fd:Unix.file_descr ->
  agent:Dmw_core.Agent.t ->
  on_send:(dst:int -> tag:string -> bytes:int -> unit) ->
  unit ->
  outcome
(** Runs Phases II–IV of [agent] over [fd] until a control frame (or
    socket failure) ends the session, and says which kind did. On
    [`Epoch_end] the fd is left open and drained up to the barrier:
    the worker of a socket session in the execution harness calls
    [run_session] again on the same fd with the next epoch's agent.
    Frames of the finished epoch still in flight are dropped by the
    next agent's {!Dmw_core.Messages.Scoped} instance filter.

    [on_send] observes every transmitted message (for the backend's
    trace accounting) and [on_recv] (default: nothing) every
    well-formed delivered one, just before the agent handles it; both
    are called from this thread only. [wrap] (default identity)
    decorates the transport the agent sees — the execution harness
    uses it to interpose fault injection and obs counting at the send
    boundary; the wrapped callbacks still run on this thread. *)
