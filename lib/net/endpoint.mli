(** Driving one {!Dmw_core.Agent} over a socket.

    The event loop multiplexes frame arrival with the agent's
    scheduled timeouts on a single thread, so all agent mutations are
    serialized as {!Dmw_core.Agent.transport} requires. Outbound
    messages are Codec-encoded and framed ({!Frame}); inbound payloads
    are decoded, and malformed ones dropped. The loop exits when a
    {!Fabric.stop_src} frame arrives or the socket closes. *)

val run_session :
  ?wrap:(Dmw_core.Agent.transport -> Dmw_core.Agent.transport) ->
  ?on_recv:(src:int -> unit) ->
  fd:Unix.file_descr ->
  agent:Dmw_core.Agent.t ->
  on_send:(dst:int -> tag:string -> bytes:int -> unit) ->
  unit ->
  unit
(** Runs Phases II–IV of [agent] over [fd] until the stop frame, the
    socket's close or an I/O error ends the session. The socket
    backend of the execution harness runs one per agent, each on its
    own thread, for one protocol run.

    [on_send] observes every transmitted message (for the backend's
    trace accounting) and [on_recv] (default: nothing) every
    well-formed delivered one, just before the agent handles it; both
    are called from this thread only. [wrap] (default identity)
    decorates the transport the agent sees — the execution harness
    uses it to interpose fault injection and obs counting at the send
    boundary; the wrapped callbacks still run on this thread. *)
