(* Flows through helpers: Clock.now returns a wall-clock reading,
   Log.note passes its argument to the audit record, and the top-level
   stamp returns a clock reading. A submodule helper's summary is keyed
   by its innermost module, as its call sites name it, so all three
   flows are reported. *)

module Clock = struct
  let now () = Unix.gettimeofday ()
end

module Log = struct
  let note audit description =
    Dmw_core.Audit.log audit ~task:0 ~description ~ok:true
end

let stamp () = Unix.gettimeofday ()

let via_return audit =
  let t = Clock.now () in
  Dmw_core.Audit.log audit ~task:0 ~description:(string_of_float t) ~ok:true

let via_param audit = Log.note audit (string_of_float (Unix.gettimeofday ()))

let via_toplevel audit =
  let t = stamp () in
  Dmw_core.Audit.log audit ~task:0 ~description:(string_of_float t) ~ok:true
